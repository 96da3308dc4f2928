"""Flat-model Rumin complex as matrices over the universal enveloping algebra.

On the simply connected group of a graded nilpotent Lie algebra, forms with
left-invariant coframe coefficients identify with UEA-valued columns, and the
de Rham differential becomes d = d_0 + N: the CE differential d_0 plus
N = sum_i eps(theta^i) X_i.  The splitting operator L is pinned by the three
conditions

    delta L = 0,      delta d L = 0,      pi L = id,

with delta the order-0 Kostant codifferential (the CE adjoint) and pi the
orthogonal projection onto the harmonic subspace.  The harmonic bases h are
the ones ``betti_and_weights`` chooses for the metric; pi is a rational
matrix that meets the UEA only in the product that forms D.  ``rumin_D`` sums
L as the terminating Neumann series L_q = sum_k (-G delta N)^k h_q of the BGG
construction (Cap-Slovak-Soucek; Calderbank-Diemer).  G delta, for G the
Green operator of the Kostant Laplacian, is d_0^+, the pseudo-inverse of d_0
for the Lambda^q Grams, formed per weight block: delta is never formed, and
``kostant_delta`` is a check only.  Each factor raises the form weight by at
least 1, so the series ends, and the sum meets the three conditions, whose
solution is unique.  L is bounded before the cohomology is formed
(``MAX_SPLITTING_COEFFICIENTS``).  The Rumin differential is D = pi d L;
purity makes its Heisenberg order p_{q+1} - p_q.  ``expressed_over`` rewrites
D in another metric's harmonic basis, where metric independence is equality;
the change of basis is C = pi^ref h^rc.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .ce_cohomology import (
    _basis_index,
    _block,
    _weight_blocks,
    betti_and_weights,
    ce_differential,
    exterior_basis,
    insert_sign,
    star,
    weight_of,
)
from .errors import NotPure, OutOfRange
from .rational import (adjoint, inverse, mat_mul, orthogonal_projection, pseudo_inverse,
                       solve, transpose)
from .uea import UEA, UEAOperatorMatrix, formal_adjoint

# Largest splitting operator accepted, as the bound of ``_check_splitting_size``
# on the coefficients of one L_q.  It is 77 616 on heisenberg9, 213 444 on
# abelian:11 and 1 261 260 on heisenberg11.
MAX_SPLITTING_COEFFICIENTS = 5 * 10**5


def invariant_de_rham(alg, uea=None):
    """Matrices of the invariant de Rham differential d_q, q = 0..m-1.

    d = sum_i eps(theta^i) X_i + CE-part; deleting all monomials of positive
    Heisenberg order recovers the CE differential.  Entry (J, I) is one dict:
    its CE constant and the +-X_i with J = I + {i}, if there is one.
    """
    uea = uea or UEA(alg)
    m = alg.dim
    zero = (0,) * m
    units = [tuple(int(i == j) for j in range(m)) for i in range(m)]
    out = []
    for q in range(m):
        dst_index = _basis_index(m, q + 1)
        coeffs = [[{zero: x} for x in row] for row in ce_differential(alg, q)]
        for c, I in enumerate(exterior_basis(m, q)):
            for i in range(m):
                s, J = insert_sign(I, i)
                if s:
                    coeffs[dst_index[J]][c][units[i]] = Fraction(s)
        out.append(UEAOperatorMatrix(uea, [[uea.element(e) for e in row] for row in coeffs]))
    return out


def kostant_delta(alg, inner):
    """Order-0 codifferentials delta_q: Lambda^q -> Lambda^(q-1), q = 1..m,
    as rational matrices.

    In the flat model with the identity splitting, delta is the CE adjoint
    with respect to the induced inner products; delta^2 = 0.  ``rumin_D``
    does not use it: it is the reference the splitting is checked against.
    """
    return {q: adjoint(ce_differential(alg, q - 1), inner.lambda_gram(q - 1), inner.lambda_gram(q))
            for q in range(1, alg.dim + 1)}


@dataclass
class RuminComplex:
    """Rumin data of one algebra and metric: splitting L, differential D."""

    algebra: object
    inner: object
    uea: object
    cohomology: object
    L: list            # per q: UEA matrix, Lambda^q rows x b_q columns
    D: list            # per q in 0..m-1: UEA matrix, b_{q+1} x b_q
    orders: tuple      # attained Heisenberg order of each D_q
    d_ops: list        # invariant de Rham d_q the splitting was summed with
    pis: list          # rational harmonic projection pi_q, b_q x Lambda^q

    @property
    def p(self):
        return self.cohomology.p

    @property
    def k(self):
        return self.cohomology.k


def _monomial_counts(weights, top):
    """n[o] = number of PBW monomials of Heisenberg order o, for o = 0..top."""
    n = [1] + [0] * top
    for w in weights:
        for o in range(w, top + 1):
            n[o] += n[o - w]
    return n


def _check_splitting_size(alg):
    """Bound the coefficients of every L_q before the cohomology is formed;
    OutOfRange above MAX_SPLITTING_COEFFICIENTS.

    Row I of L_q has b_q entries of Heisenberg order weight(I) - p_q.  Taking
    p_q as the least weight of a q-form and b_q as the number of q-forms only
    raises the count.
    """
    m = alg.dim
    for q in range(m + 1):
        ws = [weight_of(alg, I) for I in exterior_basis(m, q)]
        n = _monomial_counts(alg.weights, max(ws) - min(ws))
        size = len(ws) * sum(n[w - min(ws)] for w in ws)
        if size > MAX_SPLITTING_COEFFICIENTS:
            raise OutOfRange(f"the degree-{q} splitting operator may reach {size} coefficients, "
                             f"above MAX_SPLITTING_COEFFICIENTS = {MAX_SPLITTING_COEFFICIENTS}")


def _splitting_series(alg, uea, inner, q, h, d0, d_ops):
    """L_q = sum_k M^k h with M = -G delta_{q+1} N_q, summed to the first zero term.

    N_q is the positive-order part of d_q.  G delta, for G the Green operator
    of the Kostant Laplacian, is d0^+, the pseudo-inverse of d0 for the Lambda
    Grams.  d0 and the Grams keep the form weight, so d0^+ is formed per weight
    block; N, and so M, raises it by at least 1, which ends the series.
    """
    term = UEAOperatorMatrix.from_scalar(uea, h)
    if q == alg.dim:
        return term
    gram, gram_above = inner.lambda_gram(q), inner.lambda_gram(q + 1)
    above = _weight_blocks(alg, q + 1)
    # -G delta per weight block, as (row, entry) pairs of each column J
    neg_g_delta = {}
    for w, rows in _weight_blocks(alg, q).items():
        cols = above.get(w)
        if not cols:
            continue
        block = pseudo_inverse(_block(d0, cols, rows), _block(gram, rows, rows),
                               _block(gram_above, cols, cols))
        for j, J in enumerate(cols):
            neg_g_delta[J] = [(r, -row[j]) for r, row in zip(rows, block) if row[j]]
    # M = -G delta N from the generator terms of d_q; the terms through
    # different J that meet in one entry (r, c) of M are added
    zero = (0,) * alg.dim
    entries = {}
    for J, d_row in enumerate(d_ops[q].entries):
        for c, e in enumerate(d_row):
            gens = [(mono, x) for mono, x in e.coeffs.items() if mono != zero]
            for r, f in neg_g_delta.get(J, ()) if gens else ():
                acc = entries.setdefault((r, c), {})
                for mono, x in gens:
                    acc[mono] = acc.get(mono, 0) + f * x
    none = uea.zero()
    step = UEAOperatorMatrix(uea, [[uea.element(entries[r, c]) if (r, c) in entries else none
                                    for c in range(len(h))] for r in range(len(h))])
    total = term
    while True:
        term = step @ term
        if term.is_zero():
            return total
        total = UEAOperatorMatrix(uea, [[a + b if b.coeffs else a for a, b in zip(x, y)]
                                        for x, y in zip(total.entries, term.entries)])


def rumin_D(alg, inner):
    """The splitting L and the Rumin complex D = pi d L for all degrees.

    D_q = pi_{q+1} d_q L_q, with the projections formed from the harmonic
    bases of ``betti_and_weights``; the matrices act between the cohomology
    spaces in the harmonic basis of ``inner``.  Raises OutOfRange when L may
    exceed MAX_SPLITTING_COEFFICIENTS and NotPure when the cohomology is not
    pure.
    """
    _check_splitting_size(alg)
    coh = betti_and_weights(alg, inner)
    if coh.p is None:
        raise NotPure(f"cohomology weights {coh.weights} are not pure")
    uea = UEA(alg)
    d_ops = invariant_de_rham(alg, uea)
    pis = [orthogonal_projection(h, inner.lambda_gram(q)) for q, h in enumerate(coh.harmonic)]
    L = [_splitting_series(alg, uea, inner, q, h, coh.ce[q], d_ops)
         for q, h in enumerate(coh.harmonic)]
    D = [pis[q + 1] @ (d_ops[q] @ L[q]) for q in range(alg.dim)]
    return RuminComplex(
        algebra=alg,
        inner=inner,
        uea=uea,
        cohomology=coh,
        L=L,
        D=D,
        orders=tuple(dq.order() for dq in D),
        d_ops=d_ops,
        pis=pis,
    )


def expressed_over(rc, ref):
    """The differentials D_q of ``rc`` in the harmonic basis of ``ref``, a
    complex of the same algebra: C_{q+1} D_q C_q^-1, where C_q takes rc's
    coordinates in H^q = ker d / img d to ref's.

    rc's harmonic forms are ref's plus exact forms, and ref's are
    ref-orthogonal to img d, so pi^ref kills the exact part: C_q = pi_q^ref h_q^rc.
    """
    c_mats = [mat_mul(pi, h) for pi, h in zip(ref.pis, rc.cohomology.harmonic)]
    return [c_mats[q + 1] @ (rc.D[q] @ inverse(c_mats[q])) for q in range(rc.algebra.dim)]


def gr_equals_ce(alg, d_ops):
    """Order-0 part of the invariant de Rham differential d_ops equals the CE one."""
    for q in range(alg.dim):
        if d_ops[q].order_zero_part() != ce_differential(alg, q):
            return False
    return True


def star_on_cohomology(rc, q, orientation=1):
    """Rational part of the star restricted to harmonic subspaces,
    as a b_{m-q} x b_q matrix between harmonic-basis coordinates."""
    st = star(rc.algebra, rc.inner, q, orientation)
    image = mat_mul(st.matrix, rc.cohomology.harmonic[q])
    target = rc.cohomology.harmonic[rc.algebra.dim - q]
    coords = solve(target, image)
    if coords is None:
        raise NotPure(f"star image of harmonic {q}-forms is not harmonic")
    return coords


def harmonic_gram(inner, harm, q):
    return mat_mul(mat_mul(transpose(harm), inner.lambda_gram(q)), harm)


def star_duality_check(rc, orientation=1):
    """Verify (D_q)* = (-1)^(q+1) star^(-1) D_{m-q-1} star for every q.

    ``rc`` is a RuminComplex in the harmonic basis of its own metric
    (``rumin_D(alg, inner)``).  Also records k_q = k_{m-q-1}.  Returns a
    per-degree report; the scale of the star cancels in the conjugation, so
    the check is exact over Q.
    """
    alg, inner = rc.algebra, rc.inner
    m = alg.dim
    grams = [harmonic_gram(inner, h, q) for q, h in enumerate(rc.cohomology.harmonic)]
    stars = [star_on_cohomology(rc, q, orientation) for q in range(m + 1)]
    report = {"degrees": {}, "orders_palindromic": None, "all_hold": True}
    k = rc.k
    report["orders_palindromic"] = all(k[q] == k[m - q - 1] for q in range(m))
    for q in range(m):
        lhs = formal_adjoint(rc.D[q], grams[q], grams[q + 1])
        conj = inverse(stars[q]) @ (rc.D[m - q - 1] @ stars[q + 1])
        rhs = conj.scale((-1) ** (q + 1))
        holds = lhs == rhs
        report["degrees"][q] = holds
        report["all_hold"] = report["all_hold"] and holds
    report["all_hold"] = report["all_hold"] and report["orders_palindromic"]
    return report

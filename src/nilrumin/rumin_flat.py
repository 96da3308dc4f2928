"""Flat-model Rumin complex as matrices over the universal enveloping algebra.

On the simply connected group of a graded nilpotent Lie algebra, forms with
left-invariant coframe coefficients identify with UEA-valued columns, and the
de Rham differential becomes d = sum_i eps(theta^i) X_i + CE-part.  The
splitting operator L is pinned by the three conditions

    delta L = 0,      delta d L = 0,      pi L = id,

with delta the order-0 Kostant codifferential (the CE adjoint) and pi the
orthogonal projection onto the harmonic subspace.  The harmonic bases are the
ones ``betti_and_weights`` chooses for the metric, and each pi_q is formed
from them once per degree and used both here and in D.  L is solved from the
linear system these conditions impose on a grading-homogeneous ansatz: the
component of L raising the form weight by w carries UEA coefficients of
Heisenberg order exactly w.  All three conditions are left products, so they
act on each column of L separately, and the ansatz is the same for every
column: one column block is solved with the b_q columns of the identity as
right-hand sides.  One elimination of [a | rhs] decides all: a pivot in a
right-hand side means no solution, fewer pivots than unknowns no unique one,
and otherwise the solution is read off the reduced rows.  Each system is
bounded before it is assembled (``MAX_SYSTEM_CELLS``).  The Rumin
differential is D = pi d L; purity of the cohomology makes its Heisenberg
order equal to p_{q+1} - p_q.  ``expressed_over`` rewrites D in another
metric's harmonic basis, where metric independence is equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .ce_cohomology import (
    betti_and_weights,
    ce_differential,
    exterior_basis,
    insert_sign,
    star,
    weight_of,
)
from .errors import AnsatzInsufficient, NotPure, OutOfRange
from .rational import (
    adjoint,
    column_space,
    inverse,
    mat_mul,
    orthogonal_projection,
    row_echelon,
    solve,
    transpose,
    zeros,
)
from .uea import UEA, UEAOperatorMatrix, formal_adjoint

# Largest L-system accepted, as the a-priori bound of ``_check_system_size``
# on equations x columns of [a | rhs].  Before the cohomology is known the
# bound of heisenberg9 peaks at 1.8e7 cells (its largest actual system is
# 518 x 560) and that of heisenberg11 at 4.7e8.
MAX_SYSTEM_CELLS = 5 * 10**7


def invariant_de_rham(alg, uea=None):
    """Matrices of the invariant de Rham differential d_q, q = 0..m-1.

    d = sum_i eps(theta^i) X_i + CE-part; deleting all monomials of positive
    Heisenberg order recovers the CE differential.
    """
    uea = uea or UEA(alg)
    m = alg.dim
    out = []
    for q in range(m):
        src = exterior_basis(m, q)
        dst = exterior_basis(m, q + 1)
        dst_index = {idx: pos for pos, idx in enumerate(dst)}
        ce = ce_differential(alg, q)
        entries = [[uea.scalar(ce[r][c]) for c in range(len(src))] for r in range(len(dst))]
        for c, I in enumerate(src):
            for i in range(m):
                s, J = insert_sign(I, i)
                if s == 0:
                    continue
                entries[dst_index[J]][c] = entries[dst_index[J]][c] + uea.generator(i).scale(s)
        out.append(UEAOperatorMatrix(uea, entries))
    return out


def kostant_delta(alg, inner, uea=None):
    """Order-0 codifferentials delta_q: Lambda^q -> Lambda^(q-1), q = 1..m.

    In the flat model with the identity splitting, delta is the CE adjoint
    with respect to the induced inner products; delta^2 = 0.
    """
    uea = uea or UEA(alg)
    out = {}
    for q in range(1, alg.dim + 1):
        d_prev = ce_differential(alg, q - 1)
        adj = adjoint(d_prev, inner.lambda_gram(q - 1), inner.lambda_gram(q))
        out[q] = UEAOperatorMatrix.from_scalar(uea, adj)
    return out


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
    d_ops: list        # invariant de Rham d_q the splitting was solved with
    deltas: dict       # Kostant delta_q of the metric, q = 1..m

    @property
    def p(self):
        return self.cohomology.p

    @property
    def k(self):
        return self.cohomology.k


def solve_splitting_L(alg, inner, uea=None, max_extra=None):
    """Solve the defining conditions of the splitting operator L for all q.

    Returns (L, coh, d_ops, deltas, pis): the per-degree L_q, the cohomology
    of ``inner``, the invariant de Rham operators, the Kostant codifferentials
    and the harmonic projections pi_q, formed once per degree from
    ``coh.harmonic``.  Raises NotPure when the cohomology is not pure, and
    AnsatzInsufficient when no unique solution exists within the homogeneity
    ansatz even after raising the per-component order bound up to the
    homogeneous dimension.
    """
    uea = uea or UEA(alg)
    for q in range(alg.dim + 1):
        # before the cohomology is formed: p_q is at least the least weight of
        # a q-form, and b_q at most the number of q-forms
        basis = exterior_basis(alg.dim, q)
        _check_system_size(alg, q, min(weight_of(alg, I) for I in basis), 0, len(basis))
    coh = betti_and_weights(alg, inner)
    if coh.p is None:
        raise NotPure(f"cohomology weights {coh.weights} are not pure")
    if max_extra is None:
        max_extra = alg.homogeneous_dimension
    d_ops = invariant_de_rham(alg, uea)
    deltas = kostant_delta(alg, inner, uea)
    pis = [
        UEAOperatorMatrix.from_scalar(uea, orthogonal_projection(h, inner.lambda_gram(q)))
        for q, h in enumerate(coh.harmonic)
    ]
    m = alg.dim
    L = []
    for q in range(m + 1):
        blocks = [deltas[q]] if q >= 1 else []
        if q < m:
            blocks.append(deltas[q + 1] @ d_ops[q])
        blocks.append(pis[q])
        for extra in range(max_extra + 1):
            lq = _solve_L_degree(alg, uea, coh, blocks, q, extra)
            if lq is not None:
                L.append(lq)
                break
        else:
            raise AnsatzInsufficient(
                f"no unique splitting in degree {q} within order bound +{max_extra}"
            )
    return L, coh, d_ops, deltas, pis


def _monomial_counts(weights, top):
    """n[o] = number of PBW monomials of Heisenberg order o, for o = 0..top."""
    n = [1] + [0] * top
    for w in weights:
        for o in range(w, top + 1):
            n[o] += n[o - w]
    return n


def _check_system_size(alg, q, p_q, extra, b_q):
    """The bound on the cells of the degree-q L-system; OutOfRange above
    MAX_SYSTEM_CELLS.

    The columns of [a | rhs] are the slots (row I, monomial of order w_I ..
    w_I + extra, w_I = weight(I) - p_q) and the b_q right-hand sides.
    Straightening keeps the Heisenberg order, so a row of delta_q or pi_q
    meets monomials of the slot orders only, and a row of delta_{q+1} d_q
    those orders raised by up to the largest weight; the equations are at
    most rows x monomials, plus the b_q identity rows.  Lowering p_q or
    raising b_q only raises the bound.
    """
    m, top = alg.dim, max(alg.weights, default=0)
    ws = [w for w in (weight_of(alg, I) - p_q for I in exterior_basis(m, q)) if w >= 0]
    orders = {o for w in ws for o in range(w, w + extra + 1)}
    n = _monomial_counts(alg.weights, max(orders, default=0) + top)
    raised = {o + k for o in orders for k in range(top + 1)}
    rows = (len(exterior_basis(m, q - 1)) if q else 0) + b_q
    equations = (rows * sum(n[o] for o in orders) + b_q
                 + (len(exterior_basis(m, q)) if q < m else 0) * sum(n[o] for o in raised))
    cells = equations * (sum(n[o] for w in ws for o in range(w, w + extra + 1)) + b_q)
    if cells > MAX_SYSTEM_CELLS:
        raise OutOfRange(f"the degree-{q} splitting system may reach {cells} cells "
                         f"(equations x columns), above MAX_SYSTEM_CELLS = {MAX_SYSTEM_CELLS}")
    return cells


def _solve_L_degree(alg, uea, coh, blocks, q, extra):
    """L_q from one column block, or None when the ansatz is inconsistent.

    ``blocks`` are delta_q, delta_{q+1} d_q and pi_q, the last one always
    present.  The unknowns are one column's slots (row i, monomial) with
    order in [w_i - p_q, w_i - p_q + extra]; the b_q columns of L are the
    right-hand sides, the identity placed in pi's rows.  One elimination of
    [a | rhs] gives consistency, uniqueness and the solution.
    """
    basis = exterior_basis(alg.dim, q)
    b_q = coh.betti[q]
    if b_q == 0:
        return UEAOperatorMatrix(uea, [[] for _ in basis])
    _check_system_size(alg, q, coh.p[q], extra, b_q)
    slots = []
    for i, I in enumerate(basis):
        w = weight_of(alg, I) - coh.p[q]
        if w >= 0:
            for o in range(w, w + extra + 1):
                slots.extend((i, mono) for mono in uea.monomials_of_order(o))
    if not slots:
        return None

    # slot (i, mono) has the coefficient column block[r][i] * X^mono
    eq_index = {}
    columns = []
    for i, mono in slots:
        x_mono = {mono: Fraction(1)}
        col = {}
        for t, block in enumerate(blocks):
            for r, row in enumerate(block.entries):
                prod = {}
                uea._mul_into(prod, row[i].coeffs, x_mono)
                for exps, coeff in prod.items():
                    if coeff:
                        col[eq_index.setdefault((t, r, exps), len(eq_index))] = coeff
        columns.append(col)
    t_pi, zero_mono = len(blocks) - 1, (0,) * alg.dim
    id_rows = [eq_index.setdefault((t_pi, j, zero_mono), len(eq_index)) for j in range(b_q)]
    n = len(slots)
    aug = zeros(len(eq_index), n + b_q)
    for u, col in enumerate(columns):
        for r, v in col.items():
            aug[r][u] = v
    for j, r in enumerate(id_rows):
        aug[r][n + j] = Fraction(1)
    # rows are numbered as slots first reach them; reversed, the elimination
    # makes 86 333 row updates on heisenberg9 degree 4, not 148 594
    ech, pivots = row_echelon(aug[::-1])
    if pivots and pivots[-1] >= n:
        return None
    if len(pivots) < n:
        raise AnsatzInsufficient(
            f"splitting in degree {q} is underdetermined within the ansatz"
        )
    # every unknown is a pivot, so row u of the reduced form is slot u's, over d
    d = ech[0][0]
    entries = [[{} for _ in range(b_q)] for _ in basis]
    for (i, mono), row in zip(slots, ech):
        for j in range(b_q):
            entries[i][j][mono] = Fraction(row[n + j], d)
    return UEAOperatorMatrix(uea, [[uea.element(e) for e in row] for row in entries])


def rumin_D(alg, inner):
    """The Rumin complex D = pi d L for all degrees.

    D_q = pi_{q+1} d_q L_q, with the projections solve_splitting_L formed
    from the harmonic bases of ``betti_and_weights``; the matrices act
    between the cohomology spaces in the harmonic basis of ``inner``.
    """
    uea = UEA(alg)
    L, coh, d_ops, deltas, pis = solve_splitting_L(alg, inner, uea)
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
        deltas=deltas,
    )


def expressed_over(rc, ref):
    """The differentials D_q of ``rc`` in the harmonic basis of ``ref``, a
    complex of the same algebra: C_{q+1} D_q C_q^-1, where C_q takes rc's
    coordinates in H^q = ker d / img d to ref's."""
    alg = rc.algebra
    c_mats = []
    for q in range(alg.dim + 1):
        href = ref.cohomology.harmonic[q]
        img = column_space(ce_differential(alg, q - 1))
        # [href | img d] has full column rank (harmonic forms are orthogonal
        # to img d), so the coordinates c in href are unique
        sol = solve([row + [col[i] for col in img] for i, row in enumerate(href)],
                    rc.cohomology.harmonic[q])
        if sol is None:
            raise NotPure("column is not a cocycle of the expected class")
        c_mats.append(sol[:len(href[0])])
    return [c_mats[q + 1] @ (rc.D[q] @ inverse(c_mats[q])) for q in range(alg.dim)]


def gr_equals_ce(alg, d_ops):
    """Order-0 part of the invariant de Rham differential d_ops equals the CE one."""
    for q in range(alg.dim):
        if d_ops[q].order_zero_part() != ce_differential(alg, q):
            return False
    return True


def star_on_cohomology(alg, inner, rc, q, orientation=1):
    """Rational part of the star restricted to harmonic subspaces,
    as a b_{m-q} x b_q matrix between harmonic-basis coordinates."""
    m = alg.dim
    st = star(alg, inner, q, orientation)
    image = mat_mul(st.matrix, rc.cohomology.harmonic[q])
    target = rc.cohomology.harmonic[m - q]
    coords = solve(target, image)
    if coords is None:
        raise NotPure(f"star image of harmonic {q}-forms is not harmonic")
    return coords


def harmonic_gram(alg, inner, harm, q):
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
    grams = [harmonic_gram(alg, inner, h, q) for q, h in enumerate(rc.cohomology.harmonic)]
    stars = [star_on_cohomology(alg, inner, rc, q, orientation) for q in range(m + 1)]
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

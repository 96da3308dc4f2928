"""Chevalley-Eilenberg cohomology of graded nilpotent Lie algebras, exactly.

Sign convention: on 1-forms (d a)(X, Y) = -a([X, Y]), so d theta^k =
-sum_{i<j} c^k_ij theta^i wedge theta^j, extended as a graded derivation of
degree +1.  The ordered basis of Lambda^q g* is the set of strictly increasing
multi-indices in lexicographic order; wedge signs come from permutation parity.

All kernels, images and projections are exact rational; no floating point
enters this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import lcm

from .errors import DegenerateMetric, GradingViolation, NotPositiveDefinite
from .rational import (
    adjoint,
    column_space,
    columns_to_matrix,
    harmonic_basis,
    identity,
    inverse,
    is_positive_definite,
    mat,
    mat_mul,
    transpose,
    zeros,
)


@lru_cache(maxsize=None)
def exterior_basis(m, q):
    """Strictly increasing q-tuples from range(m), lexicographically ordered."""
    return tuple(combinations(range(m), q))


@lru_cache(maxsize=None)
def _basis_index(m, q):
    return {idx: pos for pos, idx in enumerate(exterior_basis(m, q))}


def insert_sign(index_tuple, i):
    """Insert i into the increasing tuple; returns (sign, new tuple) or (0, None)."""
    if i in index_tuple:
        return 0, None
    pos = sum(1 for x in index_tuple if x < i)
    sign = -1 if pos % 2 else 1
    return sign, tuple(sorted(index_tuple + (i,)))


def merge_sign(left, right):
    """Sign of sorting the concatenation of two increasing tuples; 0 on overlap.

    theta^left wedge theta^right = sign * theta^sorted; the sign is the parity
    of the inversions between the two blocks.
    """
    if set(left) & set(right):
        return 0, None
    inversions = sum(1 for x in left for y in right if x > y)
    return (-1) ** inversions, tuple(sorted(left + right))


def weight_of(alg, index_tuple):
    return sum(alg.weights[i] for i in index_tuple)


def ce_differential(alg, q):
    """Matrix of the CE differential Lambda^q g* -> Lambda^{q+1} g*."""
    m = alg.dim
    if q < 0 or q >= m:
        rows = len(exterior_basis(m, q + 1)) if 0 <= q + 1 <= m else 0
        cols = len(exterior_basis(m, q)) if 0 <= q <= m else 0
        return zeros(rows, cols)
    src = exterior_basis(m, q)
    dst_index = _basis_index(m, q + 1)
    d = zeros(len(dst_index), len(src))
    for col, idx in enumerate(src):
        for pos, i in enumerate(idx):
            rest = idx[:pos] + idx[pos + 1:]
            sgn_slot = -1 if pos % 2 else 1
            # d theta^i = -sum_{a<b} c^i_ab theta^a wedge theta^b
            for (a, b), terms in alg.brackets.items():
                c = terms.get(i)
                if c is None:
                    continue
                s, merged = merge_sign((a, b), rest)
                if s == 0:
                    continue
                d[dst_index[merged]][col] += -c * sgn_slot * s
    return d


class GradedInnerProduct:
    """Positive definite Gram matrix on g, block diagonal across degrees.

    The induced inner product on g* is the inverse Gram; on Lambda^q g* it is
    the usual Gram of q-minors.  Every minor is read off one memo of integer
    minors of s·G*, the dual Gram cleared once over one denominator s.
    """

    def __init__(self, alg, gram):
        self.algebra = alg
        self.gram = mat(gram)
        if len(self.gram) != alg.dim or any(len(r) != alg.dim for r in self.gram):
            raise DegenerateMetric(f"Gram matrix must be {alg.dim} x {alg.dim}")
        for i in range(alg.dim):
            for j in range(alg.dim):
                if self.gram[i][j] != self.gram[j][i]:
                    raise DegenerateMetric(f"Gram matrix not symmetric at ({i + 1}, {j + 1})")
                if alg.degrees[i] != alg.degrees[j] and self.gram[i][j] != 0:
                    raise GradingViolation(
                        f"Gram entry ({i + 1}, {j + 1}) couples degrees "
                        f"{alg.degrees[i]} and {alg.degrees[j]}"
                    )
        if not is_positive_definite(self.gram):
            raise NotPositiveDefinite("Gram matrix is not positive definite")
        self.dual_gram = inverse(self.gram)
        self._scale = lcm(*(x.denominator for row in self.dual_gram for x in row))
        # Row r of s·G* as its nonzero (column, integer) pairs: the degree
        # block of r, so a Laplace expansion never leaves equal degree multisets.
        self._support = [[(c, x.numerator * (self._scale // x.denominator))
                          for c, x in enumerate(row) if x] for row in self.dual_gram]
        self._minors = {}
        self._lambda_grams = {}

    def _minor(self, rows, cols):
        """Minor of s·G* on the index sets of two equal-size bitmasks, memoised.

        s·G* is symmetric, so a minor and its transpose share one entry.
        """
        if rows > cols:
            rows, cols = cols, rows
        key = rows << self.algebra.dim | cols
        value = self._minors.get(key)
        if value is None:
            value = self._minors[key] = self._expand(rows, cols)
        return value

    def _expand(self, rows, cols):
        """Laplace expansion along the first row; zero entries are skipped."""
        if not rows:
            return 1
        top = (rows & -rows).bit_length() - 1
        rest = rows & (rows - 1)
        value = 0
        for c, x in self._support[top]:
            bit = 1 << c
            if cols & bit:
                term = x * self._minor(rest, cols ^ bit)
                # (-1)^k for the k-th selected column
                value += -term if (cols & (bit - 1)).bit_count() & 1 else term
        return value

    def lambda_gram(self, q):
        """Gram matrix of the induced inner product on Lambda^q g*: the minors
        of the dual Gram, 0 unless I and J have the same multiset of degrees."""
        if q not in self._lambda_grams:
            basis = exterior_basis(self.algebra.dim, q)
            degs = self.algebra.degrees
            kinds = {}
            for i, I in enumerate(basis):
                kinds.setdefault(tuple(sorted(degs[a] for a in I)), []).append(i)
            masks = [sum(1 << a for a in I) for I in basis]
            scale = self._scale ** q
            zero = Fraction(0)
            out = [[zero] * len(basis) for _ in basis]
            for idx in kinds.values():
                for pos, i in enumerate(idx):
                    for j in idx[pos:]:
                        out[i][j] = out[j][i] = Fraction(self._minor(masks[i], masks[j]), scale)
            self._lambda_grams[q] = out
        return self._lambda_grams[q]

    def det_gram(self):
        """det G = s^m / det(s·G*), the full minor from the same memo."""
        m = self.algebra.dim
        full = (1 << m) - 1
        return Fraction(self._scale ** m, self._minor(full, full))


def identity_metric(alg):
    return GradedInnerProduct(alg, identity(alg.dim))


def extend_metric_235(alg, g):
    """Extend a 2x2 Gram on g_-1 of the (2,3,5) algebra to all of g.

    The extension is forced by the bracket identifications:
    <X3,X3> = 4 (g11 g22 - g12^2) and <[Xi,X3],[Xj,X3]> = 3 <X3,X3> g_ij.
    """
    if not alg.is_standard_235():
        raise GradingViolation("metric extension is specific to the (2,3,5) table")
    g = mat(g)
    if len(g) != 2 or g[0][1] != g[1][0]:
        raise DegenerateMetric("need a symmetric 2x2 Gram on g_-1")
    if not is_positive_definite(g):
        raise NotPositiveDefinite("Gram on g_-1 is not positive definite")
    g33 = 4 * (g[0][0] * g[1][1] - g[0][1] * g[1][0])
    full = zeros(5, 5)
    for i in range(2):
        for j in range(2):
            full[i][j] = g[i][j]
            # X4 = [X1, X3], X5 = [X2, X3]
            full[3 + i][3 + j] = 3 * g33 * g[i][j]
    full[2][2] = g33
    return GradedInnerProduct(alg, full)


@dataclass
class WeightedCohomology:
    """Betti numbers, grading-weight multisets and purity data of H^*(g)."""

    algebra: object
    betti: tuple
    weights: tuple          # per q: sorted tuple of weights with multiplicity
    harmonic: list          # per q: matrix whose columns span ker d_q ∩ ker d*_{q-1}
    ce: list                # per q = 0..m: the CE differential d_q the cohomology was read from
    pure: bool
    p: tuple | None         # weight p_q per degree when pure
    k: tuple | None         # Heisenberg orders k_q = p_{q+1} - p_q when pure
    homogeneous_dimension: int

    def weight_euler_polynomial(self):
        """Coefficients of sum_q (-1)^q sum_{w in weights_q} t^w, exact integers."""
        coeffs = [0] * (self.homogeneous_dimension + 1)
        for q, ws in enumerate(self.weights):
            for w in ws:
                coeffs[w] += (-1) ** q
        return coeffs


def betti_and_weights(alg, inner=None):
    """Cohomology of the CE complex with grading weights and purity data.

    d, d* and the Lambda^q Grams of a graded metric preserve the total weight,
    so the harmonic forms are found one (q, weight) block at a time; a block's
    count is the multiplicity of its weight in H^q, which is metric
    independent.  Column j of ``harmonic[q]`` has weight ``weights[q][j]``.
    """
    if inner is None:
        inner = identity_metric(alg)
    m = alg.dim
    blocks = [_weight_blocks(alg, q) for q in range(-1, m + 2)]  # blocks[q + 1]: Lambda^q
    weights, harmonic, ce = [], [], []
    for q in range(m + 1):
        d_q, gram, n = ce_differential(alg, q), inner.lambda_gram(q), len(exterior_basis(m, q))
        ws, cols = [], []
        for w, idx in blocks[q + 1].items():
            h = harmonic_basis(_block(d_q, blocks[q + 2].get(w, []), idx),
                               _block(ce[-1] if ce else None, idx, blocks[q].get(w, [])),
                               _block(gram, idx, idx), len(idx))
            for col in transpose(h):
                where = dict(zip(idx, col))
                cols.append([where.get(i, Fraction(0)) for i in range(n)])
                ws.append(w)
        weights.append(tuple(ws))
        harmonic.append(columns_to_matrix(cols, n))
        ce.append(d_q)
    pure = all(len(set(ws)) <= 1 for ws in weights)
    p = tuple(ws[0] for ws in weights) if pure and all(weights) else None
    k = tuple(p[q + 1] - p[q] for q in range(m)) if p is not None else None
    return WeightedCohomology(
        algebra=alg,
        betti=tuple(len(ws) for ws in weights),
        weights=tuple(weights),
        harmonic=harmonic,
        ce=ce,
        pure=pure,
        p=p,
        k=k,
        homogeneous_dimension=alg.homogeneous_dimension,
    )


def _weight_blocks(alg, q):
    """Indices of the Lambda^q basis by total weight, weights ascending."""
    wts = [weight_of(alg, I) for I in exterior_basis(alg.dim, q)] if q >= 0 else []
    return {w: [i for i, x in enumerate(wts) if x == w] for w in sorted(set(wts))}


def _block(a, rows, cols):
    return [[a[r][c] for c in cols] for r in rows]


def hodge_decomposition(alg, inner, q):
    """Orthogonal decomposition Lambda^q = img d_{q-1} ⊕ harmonic ⊕ img d*_q.

    Returns three matrices whose columns span the three summands.
    """
    m = alg.dim
    n_q = len(exterior_basis(m, q))
    d_q = ce_differential(alg, q)
    d_prev = ce_differential(alg, q - 1) if q > 0 else None
    img = column_space(d_prev) if d_prev else []
    coimg = []
    if q < m and d_q:
        dstar = adjoint(d_q, inner.lambda_gram(q), inner.lambda_gram(q + 1))
        coimg = column_space(dstar)
    harm = harmonic_basis(d_q, d_prev, inner.lambda_gram(q), n_q)
    return (
        columns_to_matrix(img, n_q),
        harm,
        columns_to_matrix(coimg, n_q),
    )


@dataclass
class StarOperator:
    """Hodge star Lambda^q -> Lambda^{m-q} as sqrt(det G) times a rational matrix.

    The metric volume form is mu = orientation * sqrt(det G) * theta^1...theta^m,
    so the star itself is irrational in general; every identity this package
    checks (conjugations, star∘star, isometry) closes over Q using the pair
    (matrix, det_scale) with star = sqrt(det_scale) * matrix.
    """

    q: int
    m: int
    matrix: list
    det_scale: Fraction
    orientation: int


def star(alg, inner, q, orientation=1):
    """Star operator characterized by alpha ∧ (star beta) = <alpha, beta> mu."""
    if orientation not in (1, -1):
        raise DegenerateMetric("orientation must be +1 or -1")
    m = alg.dim
    basis_q = exterior_basis(m, q)
    basis_c = _basis_index(m, m - q)
    gram_q = inner.lambda_gram(q)
    rows = zeros(len(basis_c), len(basis_q))
    for i, I in enumerate(basis_q):
        comp = tuple(x for x in range(m) if x not in I)
        s, _ = merge_sign(I, comp)
        # theta^I wedge theta^comp = s * theta^(1..m); force the pairing row
        for j in range(len(basis_q)):
            rows[basis_c[comp]][j] = Fraction(orientation * s) * gram_q[i][j]
    # rows is already the rational part: alpha wedge (R beta) = <alpha,beta> theta^(1..m)
    d = inner.det_gram()
    if d == 0:
        raise DegenerateMetric("metric volume vanishes")
    return StarOperator(q=q, m=m, matrix=rows, det_scale=d, orientation=orientation)


def duality_pairing(alg, q, inner=None):
    """Pairing matrix H^q x H^{m-q} -> H^m via wedge of harmonic representatives.

    Entry (a, b) is the theta^(1..m) coefficient of h_a ∧ h'_b; nondegeneracy
    is the algebraic Poincare duality of the nilpotent Lie algebra.
    """
    if inner is None:
        inner = identity_metric(alg)
    m = alg.dim
    _, hq, _ = hodge_decomposition(alg, inner, q)
    _, hc, _ = hodge_decomposition(alg, inner, m - q)
    basis_q = exterior_basis(m, q)
    basis_c = exterior_basis(m, m - q)
    bq = len(hq[0]) if hq and hq[0] else 0
    bc = len(hc[0]) if hc and hc[0] else 0
    out = zeros(bq, bc)
    for a in range(bq):
        for b in range(bc):
            acc = Fraction(0)
            for i, I in enumerate(basis_q):
                if hq[i][a] == 0:
                    continue
                for j, J in enumerate(basis_c):
                    if hc[j][b] == 0:
                        continue
                    s, merged = merge_sign(I, J)
                    if s:
                        acc += Fraction(s) * hq[i][a] * hc[j][b]
            out[a][b] = acc
    return out


def random_graded_inner_product(alg, rng, spread=2):
    """Random block-diagonal positive definite Gram, exact rationals.

    Each degree block is A^T A + I for a random small integer matrix A.
    Used by the metric-independence checks.
    """
    g = zeros(alg.dim, alg.dim)
    for d in sorted(set(alg.degrees)):
        idx = alg.degree_indices(d)
        nd = len(idx)
        a = [[Fraction(rng.randint(-spread, spread)) for _ in range(nd)] for _ in range(nd)]
        block = mat_mul(transpose(a), a)
        for i in range(nd):
            block[i][i] += 1
        for i in range(nd):
            for j in range(nd):
                g[idx[i]][idx[j]] = block[i][j]
    return GradedInnerProduct(alg, g)

"""Chevalley-Eilenberg cohomology, Hodge theory and the star operator.

Claims:
    - the CE differential dualizes the bracket table with the fixed sign
      convention and squares to zero for every validated algebra
    - Betti numbers, weight multisets and purity: (2,3,5), h3, abelian
    - the per-weight harmonic bases equal the dense kernel of
      [d_q; d_{q-1}^T G_q] exactly on pure algebras, and as a set of columns,
      grouped by weight, on a non-pure one; the Lambda^q Gram equals the Gram
      of all minors of the dual Gram, entry by entry against det and sympy,
      and inverts the compound of the Gram (Cauchy-Binet); it and det G come
      from one memo of integer minors, with no det call and no minor
      expanded twice
    - purity data is metric independent (20 random graded inner products)
    - Hodge decompositions are orthogonal with the expected dimensions
    - the star operator satisfies its defining wedge identity, is isometric,
      squares to (-1)^(q(m-q)) for the identity metric, and conjugates the
      CE differential to its adjoint with sign (-1)^q
    - the duality pairing on cohomology is nondegenerate
    - the (2,3,5) metric extension reproduces the forced constants 4 and 3
    - super-trace of weights equals the sieve polynomial (cross-module)
"""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from nilrumin.ce_cohomology import (
    betti_and_weights,
    ce_differential,
    duality_pairing,
    exterior_basis,
    extend_metric_235,
    hodge_decomposition,
    identity_metric,
    random_graded_inner_product,
    star,
    weight_of,
)
from nilrumin.errors import NotPositiveDefinite
from nilrumin.graded_lie import abelian, algebra_235, build_algebra, heisenberg
from nilrumin.purity_sieve import DimensionVector, poincare_polynomial
from nilrumin.rational import (
    adjoint,
    det,
    harmonic_basis,
    identity,
    inverse,
    mat_mul,
    rank,
    transpose,
)
from conftest import is_zero_matrix, mat_scale, random_graded_algebra


def lambda_index(m, q):
    return {idx: pos for pos, idx in enumerate(exterior_basis(m, q))}


class TestDifferential:
    def test_235_degree_one(self):
        alg = algebra_235()
        d1 = ce_differential(alg, 1)
        pos = lambda_index(5, 2)
        # d theta^3 = -theta^1 wedge theta^2, etc.; theta^1, theta^2 closed
        for col, (row, val) in {
            2: ((0, 1), -1),
            3: ((0, 2), -1),
            4: ((1, 2), -1),
        }.items():
            column = [d1[r][col] for r in range(len(d1))]
            assert column[pos[row]] == val
            assert sum(1 for x in column if x != 0) == 1
        for col in (0, 1):
            assert all(d1[r][col] == 0 for r in range(len(d1)))

    def test_h3_rank_one(self):
        assert rank(ce_differential(heisenberg(1), 1)) == 1

    def test_abelian_zero(self):
        alg = abelian(4)
        for q in range(4):
            assert is_zero_matrix(ce_differential(alg, q))

    def test_d_squared_zero_random(self, rng):
        for _ in range(20):
            alg = random_graded_algebra(rng)
            for q in range(alg.dim - 1):
                comp = mat_mul(ce_differential(alg, q + 1), ce_differential(alg, q))
                assert is_zero_matrix(comp)

    def test_weight_preserved(self, rng):
        alg = random_graded_algebra(rng)
        for q in range(alg.dim):
            d = ce_differential(alg, q)
            src = exterior_basis(alg.dim, q)
            dst = exterior_basis(alg.dim, q + 1)
            for j, idx_j in enumerate(src):
                for i, idx_i in enumerate(dst):
                    if d[i][j] != 0:
                        assert weight_of(alg, idx_i) == weight_of(alg, idx_j)

    def test_top_degree_vanishes(self, rng):
        for _ in range(10):
            alg = random_graded_algebra(rng)
            assert is_zero_matrix(ce_differential(alg, alg.dim - 1))


class TestBettiAndWeights:
    def test_235(self):
        coh = betti_and_weights(algebra_235())
        assert coh.betti == (1, 2, 3, 3, 2, 1)
        assert coh.pure
        assert coh.p == (0, 1, 4, 6, 9, 10)
        assert coh.k == (1, 3, 2, 3, 1)
        assert coh.homogeneous_dimension == 10

    def test_h3(self):
        coh = betti_and_weights(heisenberg(1))
        assert coh.betti == (1, 2, 2, 1)
        assert coh.p == (0, 1, 3, 4)
        assert coh.k == (1, 2, 1)

    def test_abelian(self):
        from math import comb

        m = 4
        coh = betti_and_weights(abelian(m))
        assert coh.betti == tuple(comb(m, q) for q in range(m + 1))
        assert coh.p == tuple(range(m + 1))
        assert coh.k == (1,) * m

    def test_euler_characteristic_zero(self, rng):
        for _ in range(10):
            alg = random_graded_algebra(rng)
            coh = betti_and_weights(alg)
            assert sum((-1) ** q * b for q, b in enumerate(coh.betti)) == 0
            assert coh.betti[0] == 1 and coh.betti[-1] == 1

    def test_purity_metric_independent(self, rng):
        alg = algebra_235()
        base = betti_and_weights(alg)
        for _ in range(20):
            inner = random_graded_inner_product(alg, rng)
            coh = betti_and_weights(alg, inner)
            assert coh.pure == base.pure
            assert coh.p == base.p
            assert coh.weights == base.weights

    def test_orders_palindromic(self):
        coh = betti_and_weights(algebra_235())
        m = 5
        assert all(coh.k[q] == coh.k[m - q - 1] for q in range(m))

    def test_weights_are_grading_eigenvalue_exponents(self, rng):
        # each harmonic column is weight homogeneous, so the grading
        # automorphism acts on it by t^w with w the recorded weight
        alg = algebra_235()
        inner = random_graded_inner_product(alg, rng)
        coh = betti_and_weights(alg, inner)
        for q in range(6):
            basis = exterior_basis(5, q)
            harm = coh.harmonic[q]
            for col in range(len(harm[0])):
                supports = {weight_of(alg, basis[i]) for i in range(len(basis))
                            if harm[i][col] != 0}
                assert supports == {coh.weights[q][col]}

    def test_supertrace_equals_sieve_polynomial(self, rng):
        algebras = [algebra_235(), heisenberg(1), heisenberg(2), abelian(3)]
        algebras += [random_graded_algebra(rng) for _ in range(20)]
        for alg in algebras:
            coh = betti_and_weights(alg)
            dv = DimensionVector(alg.dimension_vector())
            assert coh.weight_euler_polynomial() == poincare_polynomial(dv)


def _dense_harmonic(alg, inner, q):
    n = len(exterior_basis(alg.dim, q))
    d_prev = ce_differential(alg, q - 1) if q > 0 else None
    return harmonic_basis(ce_differential(alg, q), d_prev, inner.lambda_gram(q), n)


def _metrics(alg, rng):
    return (identity_metric(alg), random_graded_inner_product(alg, rng),
            random_graded_inner_product(alg, rng))


class TestWeightBlocks:
    @pytest.mark.parametrize("make", [algebra_235, lambda: heisenberg(1),
                                      lambda: heisenberg(2), lambda: heisenberg(3),
                                      lambda: abelian(4, -2)],
                             ids=["235", "heisenberg3", "heisenberg5", "heisenberg7",
                                  "abelian4"])
    def test_pure_equals_dense(self, make, rng):
        alg = make()
        for inner in _metrics(alg, rng):
            coh = betti_and_weights(alg, inner)
            assert coh.pure
            for q in range(alg.dim + 1):
                assert coh.harmonic[q] == _dense_harmonic(alg, inner, q)

    def test_non_pure_same_columns_grouped_by_weight(self, rng):
        alg = build_algebra((-1, -1, -2, -3), {(0, 1): {2: 1}, (0, 2): {3: 1}})
        for inner in _metrics(alg, rng):
            coh = betti_and_weights(alg, inner)
            assert coh.weights == ((0,), (1, 1), (3, 4), (6, 6), (7,))
            for q in range(alg.dim + 1):
                cols = transpose(coh.harmonic[q])
                dense = transpose(_dense_harmonic(alg, inner, q))
                assert sorted(map(tuple, cols)) == sorted(map(tuple, dense))
                basis = exterior_basis(alg.dim, q)
                for col, w in zip(cols, coh.weights[q]):
                    assert all(x == 0 for x, I in zip(col, basis) if weight_of(alg, I) != w)

    def test_lambda_gram_equals_all_minors(self, rng):
        for alg in (algebra_235(), heisenberg(2), random_graded_algebra(rng)):
            inner = random_graded_inner_product(alg, rng)
            g = inner.dual_gram
            for q in range(alg.dim + 1):
                basis = exterior_basis(alg.dim, q)
                minors = [[det([[g[a][b] for b in J] for a in I]) for J in basis]
                          for I in basis]
                assert inner.lambda_gram(q) == minors


def _explicit_minor(g, rows, cols):
    return [[g[a][b] for b in cols] for a in rows]


class TestLambdaGramMinors:
    """lambda_gram reads every minor off one memo of integer Laplace minors."""

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_entries_are_the_minors_of_the_dual_gram(self, seed):
        rng = random.Random(seed)
        alg = random_graded_algebra(rng)
        inner = random_graded_inner_product(alg, rng, spread=rng.randint(1, 3))
        g = inner.dual_gram
        for q in range(alg.dim + 1):
            basis = exterior_basis(alg.dim, q)
            gram = inner.lambda_gram(q)
            for i, I in enumerate(basis):
                for j, J in enumerate(basis):
                    assert type(gram[i][j]) is Fraction
                    assert gram[i][j] == det(_explicit_minor(g, I, J))
            # a second oracle on a few pairs of each degree
            for _ in range(3):
                i, j = rng.randrange(len(basis)), rng.randrange(len(basis))
                sym = sympy.Matrix(_explicit_minor(g, basis[i], basis[j])).det()
                assert gram[i][j] == Fraction(int(sym.p), int(sym.q))
        assert type(inner.det_gram()) is Fraction
        assert inner.det_gram() == det(inner.gram)

    def test_cauchy_binet_inverts_the_compound_of_the_gram(self, rng):
        # The q-th compound is multiplicative, so C_q(G*) C_q(G) = C_q(I) = I.
        for alg in [algebra_235(), heisenberg(2)] + [random_graded_algebra(rng)
                                                    for _ in range(6)]:
            inner = random_graded_inner_product(alg, rng)
            for q in range(alg.dim + 1):
                basis = exterior_basis(alg.dim, q)
                compound = [[det(_explicit_minor(inner.gram, I, J)) for J in basis]
                            for I in basis]
                assert mat_mul(inner.lambda_gram(q), compound) == identity(len(basis))

    def test_no_determinant_and_no_minor_expanded_twice(self, monkeypatch):
        from nilrumin import ce_cohomology, rational

        inner = random_graded_inner_product(heisenberg(3), random.Random(5))
        calls = {"det": 0}

        def counted_det(a):
            calls["det"] += 1
            return det(a)

        monkeypatch.setattr(rational, "det", counted_det)
        monkeypatch.setattr(ce_cohomology, "det", counted_det, raising=False)
        reached, expanded = set(), []
        minor, expand = inner._minor, inner._expand

        def counted_minor(rows, cols):
            reached.add((min(rows, cols), max(rows, cols)))
            return minor(rows, cols)

        def counted_expand(rows, cols):
            expanded.append((rows, cols))
            return expand(rows, cols)

        monkeypatch.setattr(inner, "_minor", counted_minor)
        monkeypatch.setattr(inner, "_expand", counted_expand)
        grams = [inner.lambda_gram(q) for q in range(8)]
        det_gram = inner.det_gram()
        assert calls["det"] == 0
        assert det_gram == det(inner.gram)
        assert len(expanded) == len(set(expanded)) == len(inner._minors) == len(reached)
        # the memo answers a repeated request without expanding
        assert [inner.lambda_gram(q) for q in range(8)] == grams
        assert len(expanded) == len(inner._minors)


class TestHodge:
    @pytest.mark.parametrize("q,dims", [(1, (0, 2, 3)), (2, (3, 3, 4))])
    def test_235_dimensions(self, q, dims):
        alg = algebra_235()
        img, harm, coimg = hodge_decomposition(alg, identity_metric(alg), q)
        got = tuple(len(m[0]) if m and m[0] else 0 for m in (img, harm, coimg))
        assert got == dims

    def test_abelian_everything_harmonic(self):
        alg = abelian(3)
        img, harm, coimg = hodge_decomposition(alg, identity_metric(alg), 2)
        assert (not img or not img[0]) and (not coimg or not coimg[0])
        assert len(harm[0]) == 3

    def test_orthogonal_and_spanning(self, rng):
        alg = algebra_235()
        inner = random_graded_inner_product(alg, rng)
        for q in range(6):
            img, harm, coimg = hodge_decomposition(alg, inner, q)
            g = inner.lambda_gram(q)
            blocks = [b for b in (img, harm, coimg) if b and b[0]]
            total = sum(len(b[0]) for b in blocks)
            assert total == len(exterior_basis(5, q))
            for i, a in enumerate(blocks):
                for b in blocks[i + 1:]:
                    cross = mat_mul(transpose(a), mat_mul(g, b))
                    assert is_zero_matrix(cross)


class TestStar:
    def test_star_of_one_is_volume(self):
        alg = algebra_235()
        st = star(alg, identity_metric(alg), 0)
        assert [row[0] for row in st.matrix] == [Fraction(1)]
        assert st.det_scale == 1

    def test_star_theta1(self):
        alg = algebra_235()
        st = star(alg, identity_metric(alg), 1)
        col = [st.matrix[i][0] for i in range(len(st.matrix))]
        idx = lambda_index(5, 4)
        assert col[idx[(1, 2, 3, 4)]] == 1
        assert sum(1 for x in col if x != 0) == 1

    def test_star_squared_sign(self):
        alg = algebra_235()
        inner = identity_metric(alg)
        for q in range(6):
            a, b = star(alg, inner, 5 - q), star(alg, inner, q)
            # the sqrt(det) factors of the two stars multiply to det_scale
            prod = mat_scale(mat_mul(a.matrix, b.matrix), a.det_scale)
            sign = (-1) ** (q * (5 - q))
            assert prod == mat_scale(identity(len(prod)), sign)

    def test_isometry_random_metric(self, rng):
        alg = algebra_235()
        inner = random_graded_inner_product(alg, rng)
        for q in range(6):
            st = star(alg, inner, q)
            # adjoint(star) = sqrt(det) * adj
            adj = adjoint(st.matrix, inner.lambda_gram(q), inner.lambda_gram(5 - q))
            prod = mat_scale(mat_mul(adj, st.matrix), st.det_scale)
            assert prod == identity(len(prod))

    def test_defining_wedge_identity(self, rng):
        from nilrumin.ce_cohomology import merge_sign

        alg = heisenberg(1)
        inner = random_graded_inner_product(alg, rng)
        q = 1
        basis = exterior_basis(3, q)
        gram = inner.lambda_gram(q)
        st = star(alg, inner, q)
        comp_basis = exterior_basis(3, 2)
        for i, I in enumerate(basis):
            for j, J in enumerate(basis):
                acc = Fraction(0)
                for kpos, K in enumerate(comp_basis):
                    s, _ = merge_sign(I, K)
                    if s:
                        acc += Fraction(s) * st.matrix[kpos][j]
                assert acc == gram[i][j]

    def test_adjoint_via_star(self, rng):
        for alg in (algebra_235(), heisenberg(2)):
            m = alg.dim
            inner = random_graded_inner_product(alg, rng)
            for q in range(1, m + 1):
                dstar = adjoint(
                    ce_differential(alg, q - 1),
                    inner.lambda_gram(q - 1),
                    inner.lambda_gram(q),
                )
                mid = mat_mul(ce_differential(alg, m - q), star(alg, inner, q).matrix)
                rhs = mat_scale(
                    mat_mul(inverse(star(alg, inner, q - 1).matrix), mid), (-1) ** q
                )
                assert dstar == rhs


class TestDualityPairing:
    def test_well_defined_on_classes(self, rng):
        # adding a coboundary to a representative leaves the pairing value
        # unchanged (top-degree component of  d(x) wedge closed form  is zero)
        from fractions import Fraction as F

        from nilrumin.ce_cohomology import merge_sign

        alg = algebra_235()
        inner = identity_metric(alg)
        q = 2
        _, harm_q, _ = hodge_decomposition(alg, inner, q)
        _, harm_c, _ = hodge_decomposition(alg, inner, 5 - q)
        d_prev = ce_differential(alg, q - 1)
        basis_q = exterior_basis(5, q)
        basis_c = exterior_basis(5, 5 - q)

        def pair(u, v):
            acc = F(0)
            for i, I in enumerate(basis_q):
                if u[i] == 0:
                    continue
                for j, J in enumerate(basis_c):
                    if v[j] == 0:
                        continue
                    s, _ = merge_sign(I, J)
                    if s:
                        acc += F(s) * u[i] * v[j]
            return acc

        for a in range(3):
            u = [harm_q[i][a] for i in range(len(basis_q))]
            x = [F(rng.randint(-3, 3)) for _ in range(len(exterior_basis(5, q - 1)))]
            boundary = [sum(d_prev[i][t] * x[t] for t in range(len(x)))
                        for i in range(len(basis_q))]
            shifted = [ui + bi for ui, bi in zip(u, boundary)]
            for b in range(3):
                v = [harm_c[j][b] for j in range(len(basis_c))]
                assert pair(u, v) == pair(shifted, v)

    def test_235_top_and_middle(self):
        alg = algebra_235()
        p0 = duality_pairing(alg, 0)
        assert len(p0) == 1 and p0[0][0] != 0
        p2 = duality_pairing(alg, 2)
        assert len(p2) == 3 and det(p2) != 0

    def test_h3_middle(self):
        p1 = duality_pairing(heisenberg(1), 1)
        assert len(p1) == 2 and det(p1) != 0

    def test_nondegenerate_random(self, rng):
        for _ in range(8):
            alg = random_graded_algebra(rng)
            coh = betti_and_weights(alg)
            for q in range(alg.dim + 1):
                p = duality_pairing(alg, q)
                assert len(p) == coh.betti[q]
                assert det(p) != 0


class TestMetricExtension235:
    def test_identity_block(self):
        alg = algebra_235()
        ext = extend_metric_235(alg, [[1, 0], [0, 1]])
        assert ext.gram[2][2] == 4
        assert ext.gram[3][3] == 12 and ext.gram[4][4] == 12
        assert ext.gram[3][4] == 0

    def test_diagonal_determinant(self):
        alg = algebra_235()
        a, b = Fraction(2), Fraction(5)
        ext = extend_metric_235(alg, [[a, 0], [0, b]])
        assert ext.gram[2][2] == 4 * a * b

    def test_scaling_homogeneity(self):
        alg = algebra_235()
        g = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]]
        s = Fraction(7, 3)
        base = extend_metric_235(alg, g)
        scaled = extend_metric_235(alg, [[s * x for x in row] for row in g])
        assert scaled.gram[2][2] == s ** 2 * base.gram[2][2]
        for i in (3, 4):
            for j in (3, 4):
                assert scaled.gram[i][j] == s ** 3 * base.gram[i][j]

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefinite):
            extend_metric_235(algebra_235(), [[1, 2], [2, 1]])

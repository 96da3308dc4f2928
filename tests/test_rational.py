"""Exact linear algebra kernel.

Claims:
    - Bareiss echelon gives ranks, kernels and column spaces exactly
    - solve returns exact solutions and detects inconsistency
    - det and charpoly agree with cofactor/eigen structure on small cases
    - every charpoly coefficient equals sympy's, rank-deficient inputs included
    - no floating point can leak in: frac rejects floats
    - the Hodge helpers need no Gram inverse: harmonic_basis equals the kernel
      of [d_q; d*_{q-1}], and d^T G d = G (d* d), on CE complexes of 235 and
      heisenberg5 with random graded metrics and on random finite complexes
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
    random_graded_inner_product,
)
from nilrumin.graded_lie import algebra_235, heisenberg
from nilrumin.rational import (
    adjoint,
    charpoly,
    column_space,
    columns_to_matrix,
    det,
    frac,
    identity,
    inverse,
    is_positive_definite,
    mat_mul,
    mat_vec,
    nullspace,
    rank,
    solve,
    transpose,
)
from conftest import random_complex

small = st.integers(min_value=-6, max_value=6)
entries = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@st.composite
def square_matrices(draw):
    """n x n rational matrices, n <= 6; about half are products of an n x r
    and an r x n factor with r < n, so rank-deficient."""
    n = draw(st.integers(min_value=1, max_value=6))
    if draw(st.booleans()):
        return draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    r = draw(st.integers(min_value=0, max_value=n - 1))
    left = draw(st.lists(st.lists(entries, min_size=r, max_size=r), min_size=n, max_size=n))
    right = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=r, max_size=r))
    if r == 0:
        return [[Fraction(0)] * n for _ in range(n)]
    return mat_mul(left, right)


def rand_matrix(rng, r, c, spread=4):
    return [[Fraction(rng.randint(-spread, spread), rng.randint(1, 3)) for _ in range(c)]
            for _ in range(r)]


class TestEchelon:
    @given(st.lists(st.lists(small, min_size=3, max_size=3), min_size=2, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_nullspace_annihilates(self, rows):
        m = [[Fraction(x) for x in row] for row in rows]
        for v in nullspace(m):
            assert all(x == 0 for x in mat_vec(m, v))

    def test_rank_plus_nullity(self):
        rng = random.Random(5)
        for _ in range(40):
            r, c = rng.randint(1, 5), rng.randint(1, 5)
            m = rand_matrix(rng, r, c)
            assert rank(m) + len(nullspace(m)) == c

    def test_column_space_dimension(self):
        rng = random.Random(6)
        for _ in range(30):
            m = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
            cols = column_space(m)
            assert len(cols) == rank(m)


class TestSolve:
    def test_exact_solution(self):
        rng = random.Random(7)
        for _ in range(30):
            n = rng.randint(1, 5)
            a = rand_matrix(rng, n, n)
            x = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
            b = mat_vec(a, x)
            got = solve(a, b)
            assert got is not None
            assert mat_vec(a, got) == b

    def test_inconsistent_returns_none(self):
        a = [[Fraction(1), Fraction(0)], [Fraction(1), Fraction(0)]]
        assert solve(a, [Fraction(0), Fraction(1)]) is None

    def test_inverse(self):
        rng = random.Random(8)
        for _ in range(20):
            n = rng.randint(1, 5)
            a = rand_matrix(rng, n, n)
            if det(a) == 0:
                continue
            assert mat_mul(a, inverse(a)) == identity(n)


class TestDeterminants:
    def test_det_2x2(self):
        a = [[Fraction(2), Fraction(3)], [Fraction(5), Fraction(7)]]
        assert det(a) == Fraction(-1)

    def test_charpoly_trace_det(self):
        rng = random.Random(9)
        for _ in range(20):
            n = rng.randint(1, 4)
            a = rand_matrix(rng, n, n)
            coeffs = charpoly(a)
            tr = sum(a[i][i] for i in range(n))
            assert coeffs[1] == -tr
            assert coeffs[n] == (-1) ** n * det(a)

    @given(square_matrices())
    @settings(max_examples=80, deadline=None)
    def test_charpoly_matches_sympy(self, a):
        x = sympy.Symbol("x")
        expected = sympy.Matrix(a).charpoly(x).all_coeffs()
        assert charpoly(a) == [Fraction(str(c)) for c in expected]

    def test_positive_definite(self):
        assert is_positive_definite([[Fraction(2), Fraction(1)], [Fraction(1), Fraction(2)]])
        assert not is_positive_definite([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(1)]])


class TestExactness:
    def test_frac_rejects_floats(self):
        with pytest.raises(TypeError):
            frac(0.5)

    def test_no_float_leak_in_nullspace(self):
        # regression: empty back-substitution sums once produced -0.0
        m = [[Fraction(9), Fraction(-4)], [Fraction(-4), Fraction(5)]]
        for v in nullspace([[Fraction(0), Fraction(0)]]):
            assert all(isinstance(x, Fraction) for x in v)
        sol = solve(m, [Fraction(1), Fraction(0)])
        assert all(isinstance(x, Fraction) for x in sol)


def _stacked_reference(d_q, d_prev, gram_prev, gram_q, n):
    """ker [d_q; G_{q-1}^-1 d_{q-1}^T G_q]: the harmonic basis with the adjoint formed."""
    rows = list(d_q)
    if d_prev:
        rows += mat_mul(inverse(gram_prev), mat_mul(transpose(d_prev), gram_q))
    if not rows:
        return identity(n)
    return columns_to_matrix(nullspace(rows), n)


class TestHodgeWithoutInverse:
    @staticmethod
    def _check_degree(harm, d_q, d_prev, dstar, gram_prev, gram_q, gram_next):
        assert harm == _stacked_reference(d_q, d_prev, gram_prev, gram_q, len(gram_q))
        if d_q and d_q[0]:
            assert mat_mul(transpose(d_q), mat_mul(gram_next, d_q)) == mat_mul(
                gram_q, mat_mul(dstar, d_q))

    @pytest.mark.parametrize("make_alg", [algebra_235, lambda: heisenberg(2)],
                             ids=["235", "heisenberg5"])
    def test_ce_complex_random_metrics(self, make_alg, rng):
        alg = make_alg()
        m = alg.dim
        for _ in range(3):
            inner = random_graded_inner_product(alg, rng)
            harmonic = betti_and_weights(alg, inner).harmonic
            g = [inner.lambda_gram(q) for q in range(m + 1)] + [[]]
            for q in range(m + 1):
                d_q = ce_differential(alg, q)
                self._check_degree(
                    harmonic[q], d_q, ce_differential(alg, q - 1) if q > 0 else None,
                    adjoint(d_q, g[q], g[q + 1]) if q < m else None,
                    g[q - 1] if q > 0 else None, g[q], g[q + 1])

    def test_random_finite_complexes(self, rng):
        for _ in range(30):
            cx, _ = random_complex(rng)
            for q in cx.degrees:
                self._check_degree(cx.harmonic_basis(q), cx.diff(q), cx.diff(q - 1),
                                   cx.adjoint(q), cx.gram(q - 1), cx.gram(q), cx.gram(q + 1))

"""Exact linear algebra kernel.

Claims:
    - Bareiss echelon gives ranks, kernels and column spaces exactly
    - solve returns exact solutions and detects inconsistency
    - det and charpoly agree with cofactor/eigen structure on small cases
    - every charpoly coefficient equals sympy's, rank-deficient inputs included
    - no floating point can leak in: frac rejects floats
    - the integer kernel agrees with sympy: mat_mul on Fraction and on plain
      int entries (1x1, n x 0 and 0-column shapes included, mismatched shapes
      raise), det, and is_positive_definite on positive definite, singular
      semidefinite, indefinite and non-symmetric inputs; every entry it
      returns is a Fraction
    - the reduced (Gauss–Jordan) elimination agrees with sympy on
      rank-deficient rectangular inputs up to 7x7: nullspace vector for
      vector, solve with every free parameter 0 (vector and matrix right-hand
      sides, None exactly when sympy finds no solution), inverse (singular
      inputs raise ZeroDivisionError), rank, and row_echelon equal to d times
      the rref with every pivot equal to d; empty shapes behave as before
    - adjoint equals G_src^-1 a^T G_dst without forming the inverse, empty
      shapes included
    - pseudo_inverse meets the four Penrose conditions weighted by the Grams
      (a a+ a = a, a+ a a+ = a+, G_dst a a+ and G_src a+ a symmetric) on
      sparse, rank-deficient, zero, full-row-rank and full-column-rank integer
      matrices with Grams B^T B + I, and equals sympy's pinv at identity Grams
    - the Hodge helpers need no Gram inverse: harmonic_basis equals the kernel
      of [d_q; d*_{q-1}], and d^T G d = G (d* d), on CE complexes of 235 and
      heisenberg5 with random graded metrics and on random finite complexes
"""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
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
    pseudo_inverse,
    rank,
    row_echelon,
    solve,
    transpose,
)
from conftest import random_complex, random_pos_def

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


def matrices(elements, rows, cols):
    return st.lists(st.lists(elements, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


@st.composite
def products(draw, elements):
    """(a, b) with a n x k and b k x m, 1 <= n, k, m <= 5."""
    n, k, m = (draw(st.integers(min_value=1, max_value=5)) for _ in range(3))
    return draw(matrices(elements, n, k)), draw(matrices(elements, k, m))


@st.composite
def symmetric_matrices(draw):
    """B B^T + c I with B n x r, r <= n, c in {-1, 0, 1}: positive definite,
    singular semidefinite (r < n, c = 0) and indefinite inputs."""
    n = draw(st.integers(min_value=1, max_value=5))
    r = draw(st.integers(min_value=0, max_value=n))
    b = draw(matrices(entries, n, r))
    c = draw(st.sampled_from((-1, 0, 1)))
    return [[sum((b[i][t] * b[j][t] for t in range(r)), Fraction(0)) + (c if i == j else 0)
             for j in range(n)] for i in range(n)]


@st.composite
def rectangular_matrices(draw, rows=None, cols=None):
    """n x m rational matrices, n, m <= 7, of any rank r: a product of an
    n x r and an r x m factor, so most are rank-deficient."""
    n = rows or draw(st.integers(min_value=1, max_value=7))
    m = cols or draw(st.integers(min_value=1, max_value=7))
    r = draw(st.integers(min_value=0, max_value=min(n, m)))
    if r == 0:
        return [[Fraction(0)] * m for _ in range(n)]
    return mat_mul(draw(matrices(entries, n, r)), draw(matrices(entries, r, m)))


@st.composite
def systems(draw):
    """(a, b) with b a vector or a matrix of up to 3 columns; b is a·x (so
    consistent) or drawn freely (often inconsistent when a is deficient)."""
    a = draw(rectangular_matrices())
    n, m = len(a), len(a[0])
    k = draw(st.integers(min_value=0, max_value=3))
    width = k or 1
    if draw(st.booleans()):
        b = mat_mul(a, draw(matrices(entries, m, width)))
    else:
        b = draw(matrices(entries, n, width))
    return a, (b if k else [row[0] for row in b])


def sympy_fractions(m):
    return [[Fraction(str(x)) for x in m.row(i)] for i in range(m.rows)]


def all_fractions(m):
    return all(type(x) is Fraction for row in m for x in row)


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


class TestReducedElimination:
    @given(rectangular_matrices())
    @settings(max_examples=80, deadline=None)
    def test_nullspace_matches_sympy(self, a):
        got = nullspace(a)
        want = [[Fraction(str(x)) for x in v] for v in sympy.Matrix(a).nullspace()]
        assert got == want
        assert all_fractions(got)

    @given(systems())
    @settings(max_examples=80, deadline=None)
    def test_solve_matches_sympy_with_free_parameters_zero(self, ab):
        a, b = ab
        vector_rhs = not isinstance(b[0], list)
        rhs = sympy.Matrix(b if not vector_rhs else [[x] for x in b])
        got = solve(a, b)
        try:
            sol, params = sympy.Matrix(a).gauss_jordan_solve(rhs)
        except ValueError:  # sympy: the system has no solution
            assert got is None
            return
        want = sympy_fractions(sol.subs({p: 0 for p in params}))
        assert got == ([row[0] for row in want] if vector_rhs else want)
        assert all(type(x) is Fraction for x in (got if vector_rhs else sum(got, [])))

    def test_inconsistent_rectangular_returns_none(self):
        a = [[Fraction(1), Fraction(2), Fraction(3)], [Fraction(2), Fraction(4), Fraction(6)]]
        assert solve(a, [Fraction(1), Fraction(3)]) is None
        assert solve(a, [[Fraction(1), Fraction(1)], [Fraction(2), Fraction(3)]]) is None
        assert solve(a, [Fraction(1, 2), Fraction(1)]) == [Fraction(1, 2), 0, 0]

    @given(st.integers(min_value=1, max_value=7).flatmap(
        lambda n: rectangular_matrices(rows=n, cols=n)))
    @settings(max_examples=40, deadline=None)
    def test_inverse_matches_sympy(self, a):
        m = sympy.Matrix(a)
        if m.det() == 0:
            with pytest.raises(ZeroDivisionError):
                inverse(a)
            return
        got = inverse(a)
        assert got == sympy_fractions(m.inv())
        assert all_fractions(got)

    @given(rectangular_matrices())
    @settings(max_examples=80, deadline=None)
    def test_rank_matches_sympy(self, a):
        assert rank(a) == sympy.Matrix(a).rank()

    @given(rectangular_matrices())
    @settings(max_examples=80, deadline=None)
    def test_row_echelon_is_reduced(self, a):
        ech, pivots = row_echelon(a)
        rref, want_pivots = sympy.Matrix(a).rref()
        assert pivots == list(want_pivots)
        if not pivots:
            assert all(x == 0 for row in ech for x in row)
            return
        d = ech[0][pivots[0]]
        for r, c in enumerate(pivots):
            assert ech[r][c] == d
            assert all(ech[i][c] == 0 for i in range(len(ech)) if i != r)
        assert [[Fraction(x, d) for x in row] for row in ech] == sympy_fractions(rref)

    def test_empty_shapes(self):
        assert row_echelon([]) == ([], [])
        assert row_echelon([[], []]) == ([[], []], [])
        assert rank([]) == rank([[], []]) == 0
        assert nullspace([]) == nullspace([[], []]) == []
        assert column_space([]) == column_space([[], []]) == []
        assert solve([], []) == []
        assert solve([[], []], [0, 0]) == []
        assert solve([[], []], [1, 0]) is None
        assert solve([[], []], [[], []]) == []
        assert solve([[1, 2]], [[]]) == [[], []]
        assert inverse([]) == []
        assert mat_vec([[], []], []) == [0, 0]


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


class TestIntegerKernel:
    @given(products(entries))
    @settings(max_examples=80, deadline=None)
    def test_mat_mul_matches_sympy(self, ab):
        a, b = ab
        got = mat_mul(a, b)
        assert got == sympy_fractions(sympy.Matrix(a) * sympy.Matrix(b))
        assert all_fractions(got)

    @given(products(st.integers(min_value=-50, max_value=50)))
    @settings(max_examples=40, deadline=None)
    def test_mat_mul_plain_ints(self, ab):
        a, b = ab
        got = mat_mul(a, b)
        assert got == sympy_fractions(sympy.Matrix(a) * sympy.Matrix(b))
        assert all_fractions(got)

    def test_mat_mul_one_by_one(self):
        got = mat_mul([[Fraction(2, 3)]], [[Fraction(9, 4)]])
        assert got == [[Fraction(3, 2)]] and all_fractions(got)
        assert mat_mul([[2]], [[3]]) == [[Fraction(6)]]

    def test_mat_mul_empty_shapes(self):
        one = [[Fraction(1)], [Fraction(2)]]
        assert mat_mul([[], []], []) == []          # 2x0 by 0x3
        assert mat_mul([], [[Fraction(1)]]) == []   # 0x1 by 1x1
        assert mat_mul(one, [[]]) == [[], []]       # 2x1 by 1x0
        assert mat_mul([[]], []) == []

    @pytest.mark.parametrize("a, b", [
        ([[1, 2]], [[1, 2]]),            # 1x2 by 1x2
        ([[1]], [[1], [2]]),             # 1x1 by 2x1
        ([[1, 2], [3]], [[1], [2]]),     # ragged a
        ([[1, 2]], [[1, 2], [3]]),       # ragged b
        ([[], []], [[1]]),               # 2x0 by 1x1
    ])
    def test_mat_mul_mismatch_raises(self, a, b):
        with pytest.raises(ValueError):
            mat_mul(a, b)

    @given(square_matrices())
    @settings(max_examples=80, deadline=None)
    def test_det_matches_sympy(self, a):
        got = det(a)
        assert type(got) is Fraction
        assert got == Fraction(str(sympy.Matrix(a).det()))

    @given(square_matrices())
    @settings(max_examples=20, deadline=None)
    def test_charpoly_entries_are_fractions(self, a):
        assert all(type(c) is Fraction for c in charpoly(a))

    @given(symmetric_matrices())
    @settings(max_examples=80, deadline=None)
    def test_positive_definite_matches_sympy(self, a):
        assert is_positive_definite(a) == sympy.Matrix(a).is_positive_definite

    @given(square_matrices())
    @settings(max_examples=40, deadline=None)
    def test_positive_definite_general_matches_sympy(self, a):
        # sympy calls a non-symmetric matrix positive definite when its
        # symmetric part is; Sylvester's criterion needs symmetry
        m = sympy.Matrix(a)
        assert is_positive_definite(a) == (m.is_symmetric() and m.is_positive_definite)

    @pytest.mark.parametrize("a, expected", [
        ([[Fraction(0), Fraction(0)], [Fraction(0), Fraction(1)]], False),  # singular PSD
        ([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(0)]], False),
        ([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 3), Fraction(1, 4)]], True),
        ([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(1)]], False),  # indefinite
        ([[Fraction(2), Fraction(1)], [Fraction(0), Fraction(2)]], False),  # non-symmetric
        ([[Fraction(-1)]], False),
        ([], True),
    ])
    def test_positive_definite_cases(self, a, expected):
        assert is_positive_definite(a) is expected
        if a:
            m = sympy.Matrix(a)
            assert expected == (m.is_symmetric() and m.is_positive_definite)


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


class TestAdjoint:
    @pytest.mark.parametrize("n_src,n_dst", [(0, 3), (3, 0), (0, 0), (1, 1), (3, 2), (4, 5)])
    def test_equals_inverse_formula(self, n_src, n_dst, rng):
        for _ in range(5):
            a = rand_matrix(rng, n_dst, n_src)
            gram_src, gram_dst = random_pos_def(rng, n_src), random_pos_def(rng, n_dst)
            assert adjoint(a, gram_src, gram_dst) == mat_mul(
                inverse(gram_src), mat_mul(transpose(a), gram_dst))


@st.composite
def pseudo_inverse_cases(draw):
    """(a, G_src, G_dst): a an n x m integer matrix, n, m <= 5, that is sparse,
    rank-deficient, zero, of full row rank or of full column rank, and Grams
    B^T B + I for integer B."""
    kind = draw(st.sampled_from(("sparse", "deficient", "zero", "full_row", "full_col")))
    n, m = (draw(st.integers(min_value=1, max_value=5)) for _ in range(2))
    ints = st.integers(min_value=-3, max_value=3)
    if kind == "sparse":
        a = draw(matrices(st.sampled_from((0, 0, 0, 0, 1, -1, 2)), n, m))
    elif kind == "deficient":
        assume(min(n, m) >= 2)
        r = draw(st.integers(min_value=1, max_value=min(n, m) - 1))
        a = [[sum(x * y for x, y in zip(row, col)) for col in zip(*draw(matrices(ints, r, m)))]
             for row in draw(matrices(ints, n, r))]
    elif kind == "zero":
        a = [[0] * m for _ in range(n)]
    else:
        n, m = sorted((n, m), reverse=kind == "full_col")
        a = draw(matrices(ints, n, m))
        assume(rank(a) == min(n, m))

    def gram(k):
        b = draw(matrices(ints, k, k))
        return [[sum(b[t][i] * b[t][j] for t in range(k)) + (i == j) for j in range(k)]
                for i in range(k)]

    return a, gram(m), gram(n)


class TestPseudoInverse:
    @given(pseudo_inverse_cases())
    @settings(max_examples=80, deadline=None)
    def test_weighted_penrose_conditions(self, case):
        a, gram_src, gram_dst = case
        ap = pseudo_inverse(a, gram_src, gram_dst)
        assert all_fractions(ap) and len(ap) == len(a[0]) and len(ap[0]) == len(a)
        assert mat_mul(a, mat_mul(ap, a)) == a
        assert mat_mul(ap, mat_mul(a, ap)) == ap
        for sym in (mat_mul(gram_dst, mat_mul(a, ap)), mat_mul(gram_src, mat_mul(ap, a))):
            assert sym == transpose(sym)

    @given(pseudo_inverse_cases())
    @settings(max_examples=60, deadline=None)
    def test_identity_grams_match_sympy(self, case):
        a = case[0]
        ap = pseudo_inverse(a, identity(len(a[0])), identity(len(a)))
        assert ap == sympy_fractions(sympy.Matrix(a).pinv())


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

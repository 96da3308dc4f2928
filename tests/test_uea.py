"""Universal enveloping algebra in PBW form.

Claims:
    - straightening reproduces the bracket relations of the (2,3,5) table
    - multiplication is associative and bilinear (randomized)
    - Heisenberg orders are subadditive under products and exact on monomials
    - the formal adjoint is an involutive anti-homomorphism with X_i* = -X_i
    - order-0 operator matrices adjoint to their Gram-conjugated transposes
    - mixing algebras raises AlgebraMismatch
    - element products, operator products (UEA @ UEA, rational @ UEA,
      UEA @ rational) and formal_adjoint equal a Fraction-only reference that
      shares no code with the uea kernel (it multiplies by one generator at a
      time from alg.bracket) on random sparse operators over (2,3,5), (2,3,5)
      with [X1, X2] = 2/3 X3, h5 and h7, with 0-row or 0-column shapes
    - mismatched shapes on either side, or algebras, raise AlgebraMismatch; a
      float entry on either side raises TypeError; products with a zero
      dimension, scaled or not, keep their row and column counts; operator
      products are associative
    - the adjoint equals the reversed product of generators with sign
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilrumin.errors import AlgebraMismatch
from nilrumin.graded_lie import algebra_235, build_algebra, heisenberg
from nilrumin.rational import mat_mul, inverse, transpose
from nilrumin.uea import UEA, UEAOperatorMatrix, formal_adjoint


@pytest.fixture
def u235():
    return UEA(algebra_235())


def random_element(uea, rng, max_terms=3, max_order=4):
    out = uea.zero()
    for _ in range(rng.randint(1, max_terms)):
        order = rng.randint(0, max_order)
        monos = uea.monomials_of_order(order)
        mono = monos[rng.randrange(len(monos))]
        out = out + uea.element({mono: Fraction(rng.randint(-4, 4), rng.randint(1, 3))})
    return out


class TestStraightening:
    def test_power(self, u235):
        x1 = u235.generator(0)
        assert (x1 * x1).coeffs == {(2, 0, 0, 0, 0): Fraction(1)}

    def test_single_step(self, u235):
        x1, x2 = u235.generator(0), u235.generator(1)
        assert (x2 * x1).coeffs == {
            (1, 1, 0, 0, 0): Fraction(1),
            (0, 0, 1, 0, 0): Fraction(-1),
        }

    def test_deeper_step(self, u235):
        x1, x3 = u235.generator(0), u235.generator(2)
        assert (x3 * x1).coeffs == {
            (1, 0, 1, 0, 0): Fraction(1),
            (0, 0, 0, 1, 0): Fraction(-1),
        }

    def test_associative(self, u235):
        rng = random.Random(2)
        for _ in range(60):
            a, b, c = (random_element(u235, rng) for _ in range(3))
            assert (a * b) * c == a * (b * c)

    def test_bilinear(self, u235):
        rng = random.Random(3)
        a, b, c = (random_element(u235, rng) for _ in range(3))
        s = Fraction(5, 7)
        assert (a + b) * c == a * c + b * c
        assert (a.scale(s)) * c == (a * c).scale(s)

    def test_commutator_matches_bracket(self, u235):
        alg = u235.algebra
        for i in range(5):
            for j in range(5):
                xi, xj = u235.generator(i), u235.generator(j)
                lhs = xi * xj - xj * xi
                rhs = u235.zero()
                for k, ck in alg.bracket(i, j).items():
                    rhs = rhs + u235.generator(k).scale(ck)
                assert lhs == rhs


class TestOrders:
    def test_monomial_order(self, u235):
        assert u235.monomial_order((1, 0, 0, 0, 0)) == 1
        assert u235.monomial_order((0, 0, 1, 1, 0)) == 5

    def test_subadditive(self, u235):
        rng = random.Random(4)
        for _ in range(40):
            a, b = random_element(u235, rng), random_element(u235, rng)
            p = a * b
            if p.is_zero():
                continue
            assert p.order() <= a.order() + b.order()

    def test_monomials_of_order(self, u235):
        # order 2 over weights (1,1,2,3,3): X1^2, X1X2, X2^2, X3
        assert len(u235.monomials_of_order(2)) == 4


class TestAdjoint:
    def test_generator_sign(self, u235):
        x1 = u235.generator(0)
        assert x1.adjoint() == -x1

    def test_product_reversal(self, u235):
        x1, x2 = u235.generator(0), u235.generator(1)
        # (X1 X2)* = X2 X1 with sign (-1)^2
        assert (x1 * x2).adjoint() == x2 * x1

    def test_involution(self, u235):
        rng = random.Random(5)
        for _ in range(30):
            a = random_element(u235, rng)
            assert a.adjoint().adjoint() == a

    def test_contravariant(self, u235):
        rng = random.Random(6)
        for _ in range(30):
            a, b = random_element(u235, rng), random_element(u235, rng)
            assert (a * b).adjoint() == b.adjoint() * a.adjoint()

    def test_order_zero_matrix_adjoint(self, u235):
        rng = random.Random(7)
        g_src = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(2)]]
        g_dst = [[Fraction(3)]]
        m = [[Fraction(rng.randint(-3, 3)) for _ in range(2)]]
        op = UEAOperatorMatrix.from_scalar(u235, m)
        adj = formal_adjoint(op, g_src, g_dst)
        expected = mat_mul(inverse(g_src), mat_mul(transpose(m), g_dst))
        assert adj.order_zero_part() == expected
        assert adj.order() == 0


class TestMatrices:
    def test_algebra_mismatch(self, u235):
        other = UEA(heisenberg(1))
        with pytest.raises(AlgebraMismatch):
            u235.generator(0) * other.generator(0)

    def test_composition_records(self, u235):
        a = UEAOperatorMatrix(u235, [[u235.generator(0)], [u235.generator(1)]])
        b = UEAOperatorMatrix(u235, [[u235.generator(1), u235.generator(0).scale(-1)]])
        prod = b @ a
        # X2 X1 - X1 X2 = -X3
        assert prod.entries[0][0] == -u235.generator(2)

    def test_adjoint_matrix_involution(self, u235):
        rng = random.Random(8)
        g2 = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]]
        g1 = [[Fraction(5)]]
        op = UEAOperatorMatrix(u235, [[random_element(u235, rng)],
                                      [random_element(u235, rng)]])
        back = formal_adjoint(formal_adjoint(op, g1, g2), g2, g1)
        assert back == op


# -- reference product: Fraction-only, sharing no code with the uea kernel ----

class Reference:
    """PBW products of one algebra, from ``alg.bracket`` and Fractions alone.

    The kernel straightens whole words by adjacent swaps; this reference
    multiplies a normal-form monomial on the left by one generator at a time:
    X_i X^e = X^(e + 1_i) when no index of e is below i, and otherwise
    X_i X_j X^e' = X_j (X_i X^e') + [X_i, X_j] X^e' for the least index j of
    e.  Brackets land on later basis vectors, so the recursion ends.
    """

    def __init__(self, alg):
        self.alg, self.m = alg, alg.dim
        self.zero = (0,) * alg.dim
        self._memo = {}

    def gen_times(self, i, e):
        """X_i X^e as {exponents: Fraction}."""
        key = (i, e)
        if key in self._memo:
            return self._memo[key]
        j = next((k for k, x in enumerate(e) if x), None)
        out = {}
        if j is None or i <= j:
            f = list(e)
            f[i] += 1
            out[tuple(f)] = Fraction(1)
        else:
            rest = list(e)
            rest[j] -= 1
            rest = tuple(rest)
            for f, c in self.gen_times(i, rest).items():
                for g, cg in self.gen_times(j, f).items():
                    out[g] = out.get(g, Fraction(0)) + c * cg
            for k, ck in self.alg.bracket(i, j).items():
                for f, c in self.gen_times(k, rest).items():
                    out[f] = out.get(f, Fraction(0)) + Fraction(ck) * c
        out = {f: c for f, c in out.items() if c}
        self._memo[key] = out
        return out

    def word_times(self, word, y):
        """X_{w_1} ... X_{w_n} · y for a coefficient dict y."""
        for i in reversed(word):
            out = {}
            for e, c in y.items():
                for f, cf in self.gen_times(i, e).items():
                    out[f] = out.get(f, Fraction(0)) + c * cf
            y = {f: c for f, c in out.items() if c}
        return y

    def mul(self, x, y):
        out = {}
        for ea, ca in x.items():
            word = [i for i, n in enumerate(ea) for _ in range(n)]
            for e, c in self.word_times(word, y).items():
                out[e] = out.get(e, Fraction(0)) + Fraction(ca) * c
        return {e: c for e, c in out.items() if c}

    def adjoint(self, x):
        """(c X^e)* = (-1)^|e| c X_m^(e_m) ... X_1^(e_1)."""
        out = {}
        for ea, ca in x.items():
            word = [i for i, n in enumerate(ea) for _ in range(n)][::-1]
            for e, c in self.word_times(word, {self.zero: Fraction(1)}).items():
                out[e] = out.get(e, Fraction(0)) + (-1) ** sum(ea) * Fraction(ca) * c
        return {e: c for e, c in out.items() if c}

    def lift(self, matrix):
        """A rational matrix as a grid of order-0 coefficient dicts."""
        return [[{self.zero: Fraction(x)} if x else {} for x in row] for row in matrix]

    def matmul(self, a, b, cols):
        """Grids of coefficient dicts (b has ``cols`` columns), entries summed."""
        out = []
        for row in a:
            out_row = []
            for j in range(cols):
                acc = {}
                for t, x in enumerate(row):
                    for e, c in self.mul(x, b[t][j]).items():
                        acc[e] = acc.get(e, Fraction(0)) + c
                out_row.append({e: c for e, c in acc.items() if c})
            out.append(out_row)
        return out


ALGEBRAS = {
    "235": algebra_235(),
    # non-integer structure constants: the pair table holds Fractions
    "235-two-thirds": build_algebra(
        (-1, -1, -2, -3, -3),
        {(0, 1): {2: Fraction(2, 3)}, (0, 2): {3: Fraction(1)}, (1, 2): {4: Fraction(1)}},
        name="235-two-thirds",
    ),
    "heisenberg5": heisenberg(2),
    "heisenberg7": heisenberg(3),
}


def coeffs(op):
    return [[e.coeffs for e in row] for row in op.entries]


def random_grid(uea, rng, rows, cols):
    """Sparse UEA entries: about half of them zero."""
    return [[random_element(uea, rng, max_order=3) if rng.random() < 0.5 else uea.zero()
             for _ in range(cols)] for _ in range(rows)]


def random_rational(rng, rows, cols):
    return [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.6 else 0
             for _ in range(cols)] for _ in range(rows)]


def random_gram(rng, n):
    """A positive definite rational n×n matrix: B Bᵀ + I."""
    b = random_rational(rng, n, n)
    return [[sum((b[i][t] * b[j][t] for t in range(n)), Fraction(i == j)) for j in range(n)]
            for i in range(n)]


shapes = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))


class TestFusedProduct:
    @given(st.sampled_from(sorted(ALGEBRAS)), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_element_product(self, name, seed):
        uea, rng = UEA(ALGEBRAS[name]), random.Random(seed)
        x, y = random_element(uea, rng), random_element(uea, rng)
        assert (x * y).coeffs == Reference(uea.algebra).mul(x.coeffs, y.coeffs)

    @given(st.sampled_from(sorted(ALGEBRAS)), shapes, st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_operator_product(self, name, shape, seed):
        r, k, c = shape
        uea, rng = UEA(ALGEBRAS[name]), random.Random(seed)
        a, b = random_grid(uea, rng, r, k), random_grid(uea, rng, k, c)
        prod = UEAOperatorMatrix(uea, a, k) @ UEAOperatorMatrix(uea, b, c)
        assert (prod.rows, prod.cols) == (r, c)
        ref = Reference(uea.algebra)
        assert coeffs(prod) == ref.matmul([[x.coeffs for x in row] for row in a],
                                          [[y.coeffs for y in row] for row in b], c)

    @given(st.sampled_from(sorted(ALGEBRAS)), shapes, st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_rational_matrix_on_either_side(self, name, shape, seed):
        r, k, c = shape
        uea, rng = UEA(ALGEBRAS[name]), random.Random(seed)
        ref = Reference(uea.algebra)
        s, b = random_rational(rng, r, k), random_grid(uea, rng, k, c)
        prod = s @ UEAOperatorMatrix(uea, b, c)
        assert (prod.rows, prod.cols) == (r, c)
        assert coeffs(prod) == ref.matmul(ref.lift(s), [[y.coeffs for y in row] for row in b], c)
        # a 0-row rational matrix carries no column count: k = 0 rows means 0 columns
        c = c if k else 0
        a, s = random_grid(uea, rng, r, k), random_rational(rng, k, c)
        prod = UEAOperatorMatrix(uea, a, k) @ s
        assert (prod.rows, prod.cols) == (r, c)
        assert coeffs(prod) == ref.matmul([[x.coeffs for x in row] for row in a], ref.lift(s), c)

    @given(st.sampled_from(sorted(ALGEBRAS)), st.integers(1, 3), st.integers(1, 3),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_formal_adjoint(self, name, rows, cols, seed):
        # G_s^-1 (op*)^T G_t, each entry star-reversed by the reference
        uea, rng = UEA(ALGEBRAS[name]), random.Random(seed)
        ref = Reference(uea.algebra)
        op = random_grid(uea, rng, rows, cols)
        g_src, g_dst = random_gram(rng, cols), random_gram(rng, rows)
        starred = [[ref.adjoint(op[j][i].coeffs) for j in range(rows)] for i in range(cols)]
        expected = ref.matmul(ref.lift(inverse(g_src)),
                              ref.matmul(starred, ref.lift(g_dst), rows), rows)
        adj = formal_adjoint(UEAOperatorMatrix(uea, op), g_src, g_dst)
        assert (adj.rows, adj.cols) == (cols, rows)
        assert coeffs(adj) == expected

    @given(shapes, st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_mismatch_raises(self, shape, seed):
        r, k, c = shape
        rng = random.Random(seed)
        u235, uh5 = UEA(ALGEBRAS["235"]), UEA(ALGEBRAS["heisenberg5"])
        a = UEAOperatorMatrix(u235, random_grid(u235, rng, r, k), k)
        with pytest.raises(AlgebraMismatch, match="shape"):
            a @ UEAOperatorMatrix(u235, random_grid(u235, rng, k + 1, c), c)
        with pytest.raises(AlgebraMismatch, match="shape"):
            random_rational(rng, 2, r + 1) @ a
        with pytest.raises(AlgebraMismatch, match="shape"):
            a @ random_rational(rng, k + 1, c + 1)
        with pytest.raises(AlgebraMismatch, match="algebras"):
            a @ UEAOperatorMatrix(uh5, random_grid(uh5, rng, k, c), c)

    @given(shapes, st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_float_raises(self, shape, seed):
        r, k, c = (n + 1 for n in shape)
        rng = random.Random(seed)
        uea = UEA(ALGEBRAS["235"])
        a = UEAOperatorMatrix(uea, random_grid(uea, rng, r, k), k)
        s = random_rational(rng, k, c)
        s[rng.randrange(k)][rng.randrange(c)] = 0.5
        with pytest.raises(TypeError, match="float"):
            a @ s
        s = random_rational(rng, c, r)
        s[rng.randrange(c)][rng.randrange(r)] = 0.0
        with pytest.raises(TypeError, match="float"):
            s @ a

    @pytest.mark.parametrize("r, k, c", [(0, 2, 3), (2, 0, 3), (2, 3, 0), (0, 0, 2)])
    def test_empty_shapes_survive(self, r, k, c):
        # a zero dimension on any side: an r×k times a k×c operand is r×c,
        # and so is the product scaled
        uea, rng = UEA(ALGEBRAS["235"]), random.Random(1)
        a = UEAOperatorMatrix(uea, random_grid(uea, rng, r, k), k)
        b = UEAOperatorMatrix(uea, random_grid(uea, rng, k, c), c)
        products = [a @ b, random_rational(rng, r, k) @ b, (a @ b).scale(Fraction(-2, 3))]
        if k:  # a rational matrix with 0 rows has no column count
            products.append(a @ random_rational(rng, k, c))
        for prod in products:
            assert (prod.rows, prod.cols) == (r, c)
            assert len(prod.entries) == r and all(len(row) == c for row in prod.entries)
            assert k or prod.is_zero()

    @given(st.sampled_from(sorted(ALGEBRAS)), st.lists(st.integers(1, 3), min_size=4,
                                                       max_size=4), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_associative(self, name, dims, seed):
        uea, rng = UEA(ALGEBRAS[name]), random.Random(seed)
        a, b, c = (UEAOperatorMatrix(uea, random_grid(uea, rng, dims[i], dims[i + 1]))
                   for i in range(3))
        assert (a @ b) @ c == a @ (b @ c)
        s = random_rational(rng, dims[1], dims[2])
        assert (a @ s) @ c == a @ (s @ c)


class TestAdjointReference:
    @pytest.mark.parametrize("name", sorted(ALGEBRAS))
    def test_matches_generator_product(self, name):
        # the adjoint of c·X^e is (-1)^|e| c X_m^(e_m) ... X_1^(e_1), the
        # product of generators taken one at a time
        uea, rng = UEA(ALGEBRAS[name]), random.Random(9)
        ref = Reference(uea.algebra)
        for _ in range(30):
            x = random_element(uea, rng)
            assert x.adjoint().coeffs == ref.adjoint(x.coeffs)

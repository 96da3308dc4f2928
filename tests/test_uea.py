"""Universal enveloping algebra in PBW form.

Claims:
    - straightening reproduces the bracket relations of the (2,3,5) table
    - multiplication is associative and bilinear (randomized)
    - Heisenberg orders are subadditive under products and exact on monomials
    - the formal adjoint is an involutive anti-homomorphism with X_i* = -X_i
    - order-0 operator matrices adjoint to their Gram-conjugated transposes
    - mixing algebras raises AlgebraMismatch
"""

import random
from fractions import Fraction

import pytest

from nilrumin.errors import AlgebraMismatch
from nilrumin.graded_lie import algebra_235, heisenberg
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

    def test_order_part(self, u235):
        x1, x3 = u235.generator(0), u235.generator(2)
        e = x1 + x3
        assert e.order_part(1) == x1
        assert e.order_part(2) == x3


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

"""Exact arithmetic in the (2,3,5) group and its standard lattice.

Claims:
    - the BCH product matches the displayed five-component formula:
      gamma_1 gamma_2 = (1, 1, 1/2, 1/12, -1/12), and is an exact group law
      (associativity, identity, inverses) on random rational points
    - commutators match both the closed form and the group word:
      [g1,g2] = (0,0,1,1/2,1/2), [g1,[g1,g2]] = e_4, [g2,[g1,g2]] = e_5
    - log(g1^k g2^l) = (k, l, kl/2, k^2 l/12, -k l^2/12), cross-checked by
      iterated multiplication for |k|, |l| <= 20
    - Gamma_0 membership: generators in, (0,0,1/2,0,0) out, closed under
      10^4 random generator words
    - automorphisms act as group homomorphisms; the grading scaling
      (0,0,a,b,c) -> (0,0,r^2 a, r^3 b, r^3 c)
    - the lattice embedding follows the normal-form proof: k = 1 on the
      standard generators, k = 6 on the 1/3 variant, images always in Gamma_0
    - the GL(2,Z) character action satisfies the group-action axioms exactly
      on rational points; the orbit density probe covers every 0.05-box;
      a walk length outside 1..MAX_ORBIT_WORDS is rejected before it starts
"""

import math
import random
from fractions import Fraction

import pytest

from nilrumin.errors import BadGeneratorShape, DegenerateGenerators, NotUnimodular, OutOfRange
from nilrumin.graded_lie import algebra_235, automorphism_from_generators, grading_automorphism
from nilrumin.nilgroup import (
    GAMMA1,
    GAMMA2,
    IDENTITY,
    MAX_ORBIT_WORDS,
    CharacterPoint,
    GroupElement,
    apply_automorphism,
    bch_multiply,
    character_action,
    character_orbit,
    commutator,
    embed_into_gamma0,
    in_gamma0,
    multiply_all,
    power_word,
)


def random_element(rng, den=6):
    return GroupElement([Fraction(rng.randint(-12, 12), rng.randint(1, den))
                         for _ in range(5)])


class TestBCH:
    def test_identity(self):
        x = GroupElement((1, 2, Fraction(1, 3), 4, 5))
        assert bch_multiply(x, IDENTITY) == x
        assert bch_multiply(IDENTITY, x) == x

    def test_inverse(self):
        rng = random.Random(1)
        for _ in range(50):
            x = random_element(rng)
            assert bch_multiply(x, x.inverse()) == IDENTITY
            assert bch_multiply(x.inverse(), x) == IDENTITY

    def test_gamma_product(self):
        z = bch_multiply(GAMMA1, GAMMA2)
        assert z.coords == (1, 1, Fraction(1, 2), Fraction(1, 12), Fraction(-1, 12))

    def test_associativity_1000(self):
        rng = random.Random(2)
        for _ in range(1000):
            x, y, z = (random_element(rng) for _ in range(3))
            assert bch_multiply(bch_multiply(x, y), z) == bch_multiply(x, bch_multiply(y, z))


class TestCommutator:
    def test_displayed_values(self):
        c12 = commutator(GAMMA1, GAMMA2)
        assert c12.coords == (0, 0, 1, Fraction(1, 2), Fraction(1, 2))
        assert commutator(GAMMA1, c12).coords == (0, 0, 0, 1, 0)
        assert commutator(GAMMA2, c12).coords == (0, 0, 0, 0, 1)

    def test_self_commutator(self):
        rng = random.Random(3)
        x = random_element(rng)
        assert commutator(x, x) == IDENTITY

    def test_matches_word_1000(self):
        rng = random.Random(4)
        for _ in range(1000):
            x, y = random_element(rng), random_element(rng)
            # the closed form against the group word x y x^-1 y^-1
            assert commutator(x, y) == multiply_all(x, y, x.inverse(), y.inverse())


class TestPowerWord:
    def test_generators(self):
        assert power_word(1, 0) == GAMMA1
        assert power_word(0, 1) == GAMMA2
        assert power_word(1, 1).coords == (1, 1, Fraction(1, 2), Fraction(1, 12),
                                           Fraction(-1, 12))

    def test_2_3(self):
        assert power_word(2, 3).coords == (2, 3, 3, 1, Fraction(-3, 2))

    def test_iterated_bch(self):
        for k in range(-20, 21):
            for l in range(-20, 21):
                word = [GAMMA1 if k >= 0 else GAMMA1.inverse()] * abs(k)
                word += [GAMMA2 if l >= 0 else GAMMA2.inverse()] * abs(l)
                assert power_word(k, l) == multiply_all(*word)


class TestGamma0:
    def test_generators_and_commutator(self):
        assert in_gamma0(GAMMA1)
        assert in_gamma0(GAMMA2)
        assert in_gamma0(commutator(GAMMA1, GAMMA2))

    def test_half_shift_excluded(self):
        assert not in_gamma0(GroupElement((0, 0, Fraction(1, 2), 0, 0)))

    def test_closed_under_10000_words(self):
        rng = random.Random(5)
        gens = [GAMMA1, GAMMA1.inverse(), GAMMA2, GAMMA2.inverse()]
        current = IDENTITY
        for _ in range(10_000):
            current = bch_multiply(current, gens[rng.randrange(4)])
            assert in_gamma0(current)
            if rng.random() < 0.02:
                current = IDENTITY

    def test_closed_under_inverse(self):
        rng = random.Random(6)
        for _ in range(200):
            word = [random.Random(rng.random()).choice(
                [GAMMA1, GAMMA2, GAMMA1.inverse(), GAMMA2.inverse()])
                for _ in range(rng.randint(1, 12))]
            g = multiply_all(*word)
            assert in_gamma0(g) and in_gamma0(g.inverse())


class TestAutomorphisms:
    def test_identity_action(self):
        alg = algebra_235()
        phi = automorphism_from_generators(alg, [1, 0, 0, 0, 0], [0, 1, 0, 0, 0])
        x = GroupElement((1, 2, 3, 4, 5))
        assert apply_automorphism(phi, x) == x

    def test_homomorphism_property(self):
        alg = algebra_235()
        phi = automorphism_from_generators(alg, [1, 1, 0, 1, 0], [0, 2, 1, 0, 0])
        rng = random.Random(7)
        for _ in range(100):
            x, y = random_element(rng), random_element(rng)
            lhs = apply_automorphism(phi, bch_multiply(x, y))
            rhs = bch_multiply(apply_automorphism(phi, x), apply_automorphism(phi, y))
            assert lhs == rhs

    def test_grading_scaling(self):
        alg = algebra_235()
        r = Fraction(5, 2)
        phi = grading_automorphism(alg, r)
        x = GroupElement((0, 0, 3, -2, 7))
        assert apply_automorphism(phi, x).coords == (0, 0, 3 * r ** 2, -2 * r ** 3, 7 * r ** 3)

    def test_swap_on_commutator(self):
        alg = algebra_235()
        swap = automorphism_from_generators(alg, [0, 1, 0, 0, 0], [1, 0, 0, 0, 0])
        c12 = commutator(GAMMA1, GAMMA2)
        image = apply_automorphism(swap, c12)
        assert image.coords[2] == -1
        # homomorphism: image must equal [gamma_2, gamma_1]
        assert image == commutator(GAMMA2, GAMMA1)

    def test_phi2_preserves_gamma0(self):
        alg = algebra_235()
        phi2 = grading_automorphism(alg, 2)
        rng = random.Random(8)
        gens = [GAMMA1, GAMMA2, GAMMA1.inverse(), GAMMA2.inverse()]
        for _ in range(300):
            g = multiply_all(*[gens[rng.randrange(4)] for _ in range(rng.randint(1, 10))])
            assert in_gamma0(apply_automorphism(phi2, g))


class TestEmbedding:
    def setup_method(self):
        self.alg = algebra_235()
        self.c12 = commutator(GAMMA1, GAMMA2)
        self.standard = [GAMMA1, GAMMA2, self.c12,
                         commutator(GAMMA1, self.c12), commutator(GAMMA2, self.c12)]

    def test_standard_generators(self):
        res = embed_into_gamma0(self.alg, self.standard)
        assert res.k == 1 and res.r == 2
        assert all(in_gamma0(g) for g in res.images)

    def test_third_fraction_variant(self):
        gens = list(self.standard)
        gens[2] = GroupElement((0, 0, Fraction(1, 3), 0, 0))
        res = embed_into_gamma0(self.alg, gens)
        assert res.k == 6
        assert all(in_gamma0(g) for g in res.images)

    def test_twisted_primary_generators(self):
        w1 = power_word(1, 1)
        w2 = GAMMA2
        w3 = commutator(w1, w2)
        w4 = commutator(w1, w3)
        w5 = commutator(w2, w3)
        res = embed_into_gamma0(self.alg, [w1, w2, w3, w4, w5])
        assert all(in_gamma0(g) for g in res.images)

    def test_bad_shape(self):
        gens = list(self.standard)
        gens[3] = GroupElement((0, 0, 1, 0, 0))  # not in [G,[G,G]]
        with pytest.raises(BadGeneratorShape):
            embed_into_gamma0(self.alg, gens)

    def test_degenerate_primaries(self):
        gens = list(self.standard)
        gens[1] = GAMMA1
        with pytest.raises(DegenerateGenerators):
            embed_into_gamma0(self.alg, gens)


class TestCharacterTorus:
    def test_identity(self):
        p = CharacterPoint(Fraction(1, 3), Fraction(2, 7))
        assert character_action(((1, 0), (0, 1)), p) == p

    def test_shear(self):
        p = CharacterPoint(Fraction(1, 3), Fraction(1, 5))
        q = character_action(((1, 1), (0, 1)), p)
        assert (q.s, q.t) == (Fraction(1, 3), Fraction(8, 15))

    def test_right_action_axiom(self):
        rng = random.Random(9)
        mats = [((1, 1), (0, 1)), ((1, 0), (1, 1)), ((0, 1), (1, 0)), ((1, -1), (0, 1))]
        for _ in range(200):
            a = mats[rng.randrange(len(mats))]
            b = mats[rng.randrange(len(mats))]
            p = CharacterPoint(Fraction(rng.randint(0, 11), 12), Fraction(rng.randint(0, 11), 12))
            ab = tuple(tuple(sum(a[i][t] * b[t][j] for t in range(2)) for j in range(2))
                       for i in range(2))
            assert character_action(b, character_action(a, p)) == character_action(ab, p)

    def test_not_unimodular(self):
        with pytest.raises(NotUnimodular):
            character_action(((2, 0), (0, 1)), CharacterPoint(0, 0))

    def test_mod_one_reduction(self):
        p = CharacterPoint(Fraction(7, 3), Fraction(-1, 4))
        assert (p.s, p.t) == (Fraction(1, 3), Fraction(3, 4))

    @pytest.mark.parametrize("words", [0, -5, MAX_ORBIT_WORDS + 1])
    def test_orbit_words_bounded_before_walk(self, words):
        class NoWalk:
            def randrange(self, n):
                raise AssertionError("the walk started")

        with pytest.raises(OutOfRange):
            character_orbit(CharacterPoint(0, 0), words, NoWalk())

    def test_orbit_density_probe(self):
        # numeric probe of the dense-orbit fact: every 0.05-box is visited
        p = CharacterPoint(math.sqrt(2) - 1, 0.0)
        rng = random.Random(10)
        points = character_orbit(p, 10_000, rng)
        boxes = {(int(q.s / 0.05) % 20, int(q.t / 0.05) % 20) for q in points}
        assert len(boxes) == 400

"""Analytic torsion of finite graded complexes.

Claims:
    - Laplacians respect the exponent constraint k_{q-1} a_{q-1} = k_q a_q,
      are Gram-self-adjoint positive semidefinite and commute with D
    - zeta'_lambda(0) matches hand values and the exact oracle at
      lambda = 0 to 1e-9 relative; a cutoff that is not finite and
      nonnegative is a ConstraintViolated in both zeta functions
    - the exact oracle's det'(Delta_q) = sdet_q^(a_q) sdet_(q-1)^(a_(q-1))
      equals sympy's pseudo-determinant of the Laplacian matrix exactly
    - torsion_norm is independent of lambda, of N shifts and of rescaling a
    - acyclic torsion equals torsion_norm on acyclic complexes (50 random);
      where T^2 or det'(Delta) leaves the float range, acyclic_torsion and the
      exact oracle raise NotFloatRepresentable
    - telescoping identity holds exactly on squared values
    - graded heat trace is constant in t and equals the Euler characteristic
    - duality inverts torsion (dual and shift complexes); direct sums multiply
    - on acyclic complexes from degree -3 up, T^2(dual) = 1/T^2 and the
      telescoping identity hold exactly, and T^2 and chi stay exact types
    - the Z2-graded form agrees; nonzero D*D and DD* spectra pair exactly
    - degenerate inputs and constraint violations raise the named errors; a
      complex above the size limits, direct sums and duals included, is
      OutOfRange before any matrix is formed
    - outside the stored degrees the dimension is 0 and the Gram is empty
"""

import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from nilrumin.errors import (
    ConstraintViolated,
    CutoffOnSpectrum,
    ExponentConstraintViolated,
    InvalidRepresentatives,
    NotAcyclic,
    NotFloatRepresentable,
    OutOfRange,
)
from nilrumin.fd_torsion import (
    MAX_DEGREE_DIM,
    MAX_DEGREES,
    FiniteComplex,
    acyclic_torsion,
    acyclic_torsion_squared,
    default_exponents,
    default_n_labels,
    delta_spectrum,
    direct_sum,
    dual_complex,
    dual_reference,
    euler_heat_trace,
    laplacians,
    shift_complex,
    spectrum_pairing_check,
    telescoping_check,
    torsion_norm,
    z2_check,
    zeta_at_zero,
    zeta_prime_zero,
    zeta_prime_zero_exact,
)
from nilrumin.rational import mat_mul, transpose
from conftest import is_zero_matrix, mat_sub, random_complex

TOL = 1e-9


def close(x, y, tol=TOL):
    return abs(x - y) <= tol * max(1.0, abs(x), abs(y))


def two_term(c=Fraction(3)):
    return FiniteComplex(0, [1, 1], [[[c]]])


def sympy_pseudo_det(m):
    """Product of the nonzero eigenvalues of a diagonalizable matrix: with
    charpoly x^k p(x), p(0) != 0, it is (-1)^deg(p) p(0)."""
    if not m:
        return Fraction(1)
    coeffs = sympy.Matrix(m).charpoly(sympy.Symbol("x")).all_coeffs()
    low = max(j for j, c in enumerate(coeffs) if c != 0)
    return (-1) ** low * Fraction(str(coeffs[low]))


class TestRange:
    def test_gram_empty_outside_degrees(self):
        cx = FiniteComplex(0, [1, 2], [[[1], [0]]])
        assert cx.gram(0) == [[1]] and len(cx.gram(1)) == 2
        for q in (-1, 2):
            assert cx.dim(q) == 0
            assert cx.gram(q) == []


class TestLaplacians:
    def test_zero_differential(self):
        cx = FiniteComplex(0, [2, 2], [[[0, 0], [0, 0]]])
        deltas, kappa = laplacians(cx)
        assert kappa == 1
        assert all(is_zero_matrix(d) for d in deltas)

    def test_two_term(self):
        deltas, kappa = laplacians(two_term())
        assert deltas[0] == [[Fraction(9)]] and deltas[1] == [[Fraction(9)]]

    def test_rumin_orders_admit_a(self):
        cx = FiniteComplex(0, [1, 2, 3, 3, 2, 1],
                           [[[0], [0]], [[0, 0]] * 3, [[0, 0, 0]] * 3,
                            [[0, 0, 0]] * 2, [[0, 0]]],
                           k=[1, 3, 2, 3, 1])
        a = default_exponents(cx)
        assert a == [6, 2, 3, 2, 6]
        _, kappa = laplacians(cx, a)
        assert kappa == 6

    def test_exponent_violation(self):
        cx = FiniteComplex(0, [1, 1, 1], [[[1]], [[0]]], k=[1, 2])
        with pytest.raises(ExponentConstraintViolated):
            laplacians(cx, [1, 1])

    def test_gram_selfadjoint_psd_commute(self, rng):
        for _ in range(10):
            cx, _ = random_complex(rng)
            a = default_exponents(cx)
            deltas, _ = laplacians(cx, a)
            for q in cx.degrees:
                i = cx.index(q)
                d_matrix = deltas[i]
                if not d_matrix:
                    continue
                g = cx.gram(q)
                gd = mat_mul(g, d_matrix)
                assert gd == transpose(gd)
                # commutes with D: D Delta_q = Delta_{q+1} D
                if cx.dim(q + 1):
                    lhs = mat_mul(cx.diff(q), d_matrix)
                    rhs = mat_mul(deltas[i + 1], cx.diff(q))
                    assert is_zero_matrix(mat_sub(lhs, rhs))


class TestZeta:
    def test_zero_differential_zero(self):
        cx = FiniteComplex(0, [2, 2], [[[0, 0], [0, 0]]])
        assert zeta_prime_zero(cx) == 0.0

    def test_two_term_value(self):
        c = Fraction(3)
        assert close(zeta_prime_zero(two_term(c)), math.log(float(c * c)))

    def test_constraint_violation(self):
        with pytest.raises(ConstraintViolated):
            zeta_prime_zero(two_term(), n_labels=[0, 2])

    def test_cutoff_on_spectrum(self):
        with pytest.raises(CutoffOnSpectrum):
            zeta_prime_zero(two_term(Fraction(3)), lam=9.0)

    def test_midgap_cutoffs_agree(self, rng):
        for _ in range(6):
            cx, ref = random_complex(rng)
            a = default_exponents(cx)
            spec = sorted(mu for q in cx.degrees for mu in delta_spectrum(cx, q, a))
            if not spec:
                continue
            base = torsion_norm(cx, ref, lam=0.0, a=a).total
            for lam in (spec[0] / 2, spec[len(spec) // 2] * 1.0000001, spec[-1] * 2):
                try:
                    val = torsion_norm(cx, ref, lam=lam, a=a).total
                except CutoffOnSpectrum:
                    continue
                assert close(val, base)

    @pytest.mark.parametrize("zeta", [zeta_prime_zero, zeta_at_zero])
    @pytest.mark.parametrize("lam", [-1.0, math.nan, math.inf, -math.inf])
    def test_cutoff_must_be_finite_nonnegative(self, zeta, lam):
        with pytest.raises(ConstraintViolated):
            zeta(two_term(), lam=lam)

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_laplacian_pseudo_det_is_coexact_product(self, seed, acyclic):
        # the full Laplacian matrices stay the independent route
        cx, _ = random_complex(random.Random(seed), acyclic=acyclic)
        a = default_exponents(cx)
        deltas, _ = laplacians(cx, a)
        for q in cx.degrees:
            i = cx.index(q)
            expect = Fraction(1)
            if i < len(a):
                expect *= cx.coexact_det(q) ** a[i]
            if i >= 1:
                expect *= cx.coexact_det(q - 1) ** a[i - 1]
            assert sympy_pseudo_det(deltas[i]) == expect

    def test_exact_oracle(self, rng):
        for _ in range(10):
            cx, _ = random_complex(rng)
            a = default_exponents(cx)
            assert close(zeta_prime_zero(cx, a=a), zeta_prime_zero_exact(cx, a=a))

    def test_zeta_at_zero_counts(self, rng):
        # zeta_lambda(0) = str(N) - str(N P_lambda) at finite dimension
        for _ in range(10):
            cx, _ = random_complex(rng)
            n_labels = default_n_labels(cx)
            got = zeta_at_zero(cx)
            expect = 0
            for q in cx.degrees:
                nq = n_labels[cx.index(q)]
                expect += (-1) ** q * nq * (cx.dim(q) - cx.betti(q))
            assert got == expect

    def test_n_shift_invariance(self, rng):
        for _ in range(10):
            cx, _ = random_complex(rng)
            n0 = default_n_labels(cx)
            shifted = [x + 5 for x in n0]
            assert zeta_at_zero(cx, n_labels=n0) == zeta_at_zero(cx, n_labels=shifted)
            assert close(zeta_prime_zero(cx, n_labels=n0),
                         zeta_prime_zero(cx, n_labels=shifted))


class TestTorsionNorm:
    def test_identity_map_complex(self):
        cx = FiniteComplex(0, [3, 3], [[[1, 0, 0], [0, 1, 0], [0, 0, 1]]])
        assert close(torsion_norm(cx).total, 1.0)

    def test_two_term_inverse_c(self):
        c = Fraction(5)
        assert close(torsion_norm(two_term(c)).total, 1 / float(c))

    def test_a_scaling_invariance(self, rng):
        for _ in range(10):
            cx, ref = random_complex(rng)
            a = default_exponents(cx)
            t1 = torsion_norm(cx, ref, a=a).total
            t2 = torsion_norm(cx, ref, a=[3 * x for x in a]).total
            assert close(t1, t2)

    def test_direct_sum_multiplicative(self, rng):
        for _ in range(8):
            cx1, r1 = random_complex(rng, k_choices=((1, 2, 1),))
            cx2, r2 = random_complex(rng, k_choices=((1, 2, 1),))
            both = direct_sum(cx1, cx2)
            ref = {}
            for q in both.degrees:
                vecs = []
                for v in r1.get(q, []):
                    vecs.append(list(v) + [Fraction(0)] * cx2.dim(q))
                for v in r2.get(q, []):
                    vecs.append([Fraction(0)] * cx1.dim(q) + list(v))
                if vecs:
                    ref[q] = vecs
            t = torsion_norm(both, ref).total
            t1 = torsion_norm(cx1, r1).total
            t2 = torsion_norm(cx2, r2).total
            assert close(t, t1 * t2)

    def test_invalid_representatives(self):
        cx = FiniteComplex(0, [1, 1], [[[0]]])  # two copies of R, zero map
        with pytest.raises(InvalidRepresentatives):
            torsion_norm(cx, {0: [[Fraction(1)]], 1: []})
        cx2 = two_term()
        with pytest.raises(InvalidRepresentatives):
            torsion_norm(cx2, {0: [[Fraction(1)]], 1: [[Fraction(1)]]})

    def test_reference_vector_length(self):
        cx = FiniteComplex(0, [2, 1], [[[0, 1]]])  # b_0 = 1, dim 2
        assert torsion_norm(cx, {0: [[Fraction(1), Fraction(0)]]}).total == 1.0
        for v in ([Fraction(1)], [Fraction(0), Fraction(1), Fraction(5)]):
            with pytest.raises(InvalidRepresentatives):
                torsion_norm(cx, {0: [v]})

    def test_empty_complex(self):
        cx = FiniteComplex(0, [0, 0], [[]])
        assert torsion_norm(cx).total == 1.0


class TestSizeLimits:
    def test_limits_accepted(self):
        n = MAX_DEGREES
        cx = FiniteComplex(0, [1] + [0] * (n - 1), [[]] * (n - 1))
        assert cx.betti(0) == 1
        assert FiniteComplex(0, [MAX_DEGREE_DIM], []).betti(0) == MAX_DEGREE_DIM

    @pytest.mark.parametrize("dims", [[MAX_DEGREE_DIM + 1], [0] * (MAX_DEGREES + 1), [-1]])
    def test_breach_is_out_of_range(self, dims):
        # no differentials given: the limits are checked before their count
        with pytest.raises(OutOfRange):
            FiniteComplex(0, dims, [])

    def test_direct_sum_and_dual_checked(self):
        half = MAX_DEGREE_DIM // 2 + 1
        cx = FiniteComplex(0, [half], [])
        with pytest.raises(OutOfRange):
            direct_sum(cx, cx)
        assert dual_complex(FiniteComplex(0, [MAX_DEGREE_DIM], [])).dims == [MAX_DEGREE_DIM]


class TestAcyclic:
    def test_identity(self):
        cx = FiniteComplex(0, [2, 2], [[[1, 0], [0, 1]]])
        assert close(acyclic_torsion(cx), 1.0)

    def test_two_term_sign_of_exponent(self):
        c = Fraction(4)
        assert close(acyclic_torsion(two_term(c)), 0.25)
        shifted = shift_complex(two_term(c))
        assert close(acyclic_torsion(shifted), 4.0)

    def test_not_acyclic(self):
        cx = FiniteComplex(0, [1, 1], [[[0]]])
        with pytest.raises(NotAcyclic):
            acyclic_torsion(cx)

    def test_matches_torsion_norm(self, rng):
        done = 0
        while done < 50:
            cx, _ = random_complex(rng, acyclic=True)
            if all(d == 0 for d in cx.dims):
                continue
            assert close(acyclic_torsion(cx), torsion_norm(cx, {}).total)
            done += 1

    def test_squared_value_rational(self, rng):
        cx, _ = random_complex(rng, acyclic=True)
        sq = acyclic_torsion_squared(cx)
        assert isinstance(sq, Fraction) and sq > 0

    @pytest.mark.parametrize("c", [10 ** 200, Fraction(1, 10 ** 200)])
    def test_beyond_floats_is_named(self, c):
        # T^2 = 1/c^2 and det'(Delta_0) = c^2 leave the float range; the exact
        # values stay exact
        cx = two_term(Fraction(c))
        assert acyclic_torsion_squared(cx) == 1 / Fraction(c) ** 2
        with pytest.raises(NotFloatRepresentable, match="acyclic torsion"):
            acyclic_torsion(cx)
        with pytest.raises(NotFloatRepresentable, match="Delta_0"):
            zeta_prime_zero_exact(cx)


class TestTelescoping:
    @pytest.mark.parametrize("k", [(1,), (1, 2, 1), (1, 3, 2, 3, 1)])
    def test_exact_identity(self, k, rng):
        done = 0
        while done < 3:
            cx, _ = random_complex(rng, k_choices=(k,), acyclic=True)
            if all(d == 0 for d in cx.dims):
                continue
            assert telescoping_check(cx)
            done += 1

    def test_requires_acyclic(self):
        cx = FiniteComplex(0, [1, 1], [[[0]]])
        with pytest.raises(NotAcyclic):
            telescoping_check(cx)


class TestHeatTrace:
    def test_zero_differential(self):
        cx = FiniteComplex(0, [2, 3], [[[0, 0], [0, 0], [0, 0]]])
        chi = cx.euler_characteristic()
        assert chi == -1
        for t in (0.1, 1.0, 10.0):
            assert close(euler_heat_trace(cx, None, t), chi)

    def test_constant_in_t(self, rng):
        for _ in range(8):
            cx, _ = random_complex(rng)
            chi = cx.euler_characteristic()
            betti_sum = sum((-1) ** q * cx.betti(q) for q in cx.degrees)
            assert chi == betti_sum
            for t in (0.1, 1.0, 10.0):
                assert close(euler_heat_trace(cx, None, t), chi)

    def test_two_term(self):
        cx = two_term()
        assert close(euler_heat_trace(cx, None, 0.7), 0.0)


class TestDuality:
    def test_dual_structure(self, rng):
        cx, _ = random_complex(rng)
        dual = dual_complex(cx)
        for q in cx.degrees:
            assert dual.dim(-q) == cx.dim(q)
        assert dual.k == list(reversed(cx.k))

    def test_inversion(self, rng):
        done = 0
        while done < 8:
            cx, ref = random_complex(rng)
            t = torsion_norm(cx, ref).total
            dual = dual_complex(cx)
            dref = dual_reference(cx, ref)
            td = torsion_norm(dual, dref, a=list(reversed(default_exponents(cx)))).total
            assert close(t * td, 1.0)
            done += 1

    def test_shift_inverts_acyclic(self, rng):
        cx, ref = random_complex(rng, acyclic=True)
        t = torsion_norm(cx, {}).total
        ts = torsion_norm(shift_complex(cx), {}).total
        assert close(t * ts, 1.0)

    def test_shift_inverts_with_reference(self, rng):
        # grading shift by one inverts the norm on the shifted reference
        for _ in range(5):
            cx, ref = random_complex(rng)
            t = torsion_norm(cx, ref).total
            shifted_ref = {q - 1: v for q, v in ref.items()}
            ts = torsion_norm(shift_complex(cx), shifted_ref,
                              a=default_exponents(cx)).total
            assert close(t * ts, 1.0)

    def test_self_dual_zero_complex(self):
        cx = FiniteComplex(0, [0], [])
        assert torsion_norm(cx).total == 1.0
        assert torsion_norm(dual_complex(cx)).total == 1.0

    def test_exact_on_negative_degrees(self):
        # the dual lives in degrees -1, 0: every sign there is an int
        dual = dual_complex(FiniteComplex(0, [1, 1], [[[3]]], [[[1]], [[2]]]))
        t2, chi = acyclic_torsion_squared(dual), dual.euler_characteristic()
        assert type(t2) is Fraction and t2 == 18
        assert type(chi) is int and chi == 0
        assert telescoping_check(dual) is True

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=-3, max_value=1))
    @settings(max_examples=40, deadline=None)
    def test_dual_inverts_exact_torsion(self, seed, min_degree):
        cx, _ = random_complex(random.Random(seed), acyclic=True, min_degree=min_degree)
        dual = dual_complex(cx)
        t2, t2_dual = acyclic_torsion_squared(cx), acyclic_torsion_squared(dual)
        assert type(t2) is Fraction and type(t2_dual) is Fraction
        assert t2_dual == 1 / t2
        assert telescoping_check(cx) and telescoping_check(dual)


class TestZ2AndPairing:
    def test_z2_random(self, rng):
        for _ in range(10):
            cx, _ = random_complex(rng)
            assert z2_check(cx)

    def test_z2_zero_differential(self):
        cx = FiniteComplex(0, [2, 2], [[[0, 0], [0, 0]]])
        assert z2_check(cx)

    def test_spectrum_pairing(self, rng):
        for _ in range(10):
            cx, _ = random_complex(rng)
            assert spectrum_pairing_check(cx)

    def test_graded_trace_off_kernel_vanishes(self, rng):
        # str(Q_lambda e^{-t Delta}) = 0: the nonzero spectra pair across
        # adjacent degrees, the mechanism behind the N-shift independence
        for _ in range(8):
            cx, _ = random_complex(rng)
            a = default_exponents(cx)
            for t in (0.5, 2.0):
                s = sum((-1) ** q * math.exp(-t * mu)
                        for q in cx.degrees
                        for mu in delta_spectrum(cx, q, a))
                assert abs(s) <= 1e-9

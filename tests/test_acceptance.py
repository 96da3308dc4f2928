"""Acceptance criteria.

Each test enforces one numbered criterion at its stated tolerance and prints
one PASS line; a failure anywhere fails the suite.  Times are wall-clock and
asserted against the stated budgets.

  1. (2,3,5) cohomology: b, purity, p, k, n — exact, < 1 s
  2. sieve regressions over n <= 10000 — exact, < 5 min single-threaded
  3. multi-parameter searches against the pinned family list — < 30 min
  4. Rumin flat model: D^2 = 0, orders = k, metric independence — < 30 s/preset
  5. star duality conjugation identity — exact
  6. torsion invariance battery on 100 random complexes — 1e-9 / exact, < 2 min
  7. (2,3,5) group arithmetic and lattice closure — exact, < 10 s
  8. cross-module oracle: weight super-trace equals the sieve polynomial
"""

import random
import time
from fractions import Fraction
from math import isqrt

import pytest

from nilrumin.ce_cohomology import betti_and_weights, identity_metric, random_graded_inner_product
from nilrumin.fd_torsion import (
    default_exponents,
    default_n_labels,
    delta_spectrum,
    direct_sum,
    dual_complex,
    dual_reference,
    euler_heat_trace,
    telescoping_check,
    torsion_norm,
    z2_check,
    zeta_at_zero,
    zeta_prime_zero,
    zeta_prime_zero_exact,
)
from nilrumin.graded_lie import abelian, algebra_235, heisenberg
from nilrumin.nilgroup import (
    GAMMA1,
    GAMMA2,
    IDENTITY,
    bch_multiply,
    commutator,
    in_gamma0,
    multiply_all,
    power_word,
)
from nilrumin.purity_sieve import (
    DimensionVector,
    integral_roots,
    lemma2_check,
    poincare_polynomial,
    scan_tails,
    sieve_range,
    two_step_passes,
    two_step_roots,
)
from nilrumin.rumin_flat import expressed_over, rumin_D, star_duality_check
from conftest import random_complex, random_graded_algebra

TOL = 1e-9


def close(x, y, tol=TOL):
    return abs(x - y) <= tol * max(1.0, abs(x), abs(y))


def report(number, text):
    print(f"\nACCEPTANCE {number}: PASS — {text}")


def test_criterion_1_cohomology_235():
    start = time.perf_counter()
    coh = betti_and_weights(algebra_235())
    elapsed = time.perf_counter() - start
    assert coh.betti == (1, 2, 3, 3, 2, 1)
    assert coh.pure
    assert coh.p == (0, 1, 4, 6, 9, 10)
    assert coh.k == (1, 3, 2, 3, 1)
    assert coh.homogeneous_dimension == 10
    assert elapsed < 1.0
    report(1, f"(2,3,5) cohomology exact in {elapsed:.3f}s")


def test_criterion_2_sieve_regressions():
    start = time.perf_counter()
    # closed-form radical tests over the full ranges
    squares = {n for n in range(4, 10001) if isqrt(n) ** 2 == n}
    pass2 = {n for n in range(4, 10001) if two_step_passes(2, n)}
    assert pass2 == squares
    cond3 = {n for n in range(6, 10001)
             if n % 2 == 0 and isqrt(3 * n - 2) ** 2 == 3 * n - 2}
    pass3 = {n for n in range(6, 10001) if two_step_passes(3, n)}
    assert pass3 == cond3
    assert [n for n in range(8, 10001) if two_step_passes(4, n)] == [8]
    assert [n for n in range(10, 10001) if two_step_passes(5, n)] == [10]
    # independent route: mod-p incremental scan with exact confirmation
    assert [dv.parts for dv, _ in scan_tails([(4,)], 9992)] == [(0, 4)]
    assert [dv.parts for dv, _ in scan_tails([(5,)], 9990)] == [(0, 5)]
    scan2 = {dv.n for dv, _ in scan_tails([(2,)], 9996)}
    assert scan2 == squares
    scan3 = {dv.n for dv, _ in scan_tails([(3,)], 9994)}
    assert scan3 == cond3
    # partial-root counts as reported
    assert two_step_roots(4, 17) == [7, 10]
    assert two_step_roots(4, 66) == [30, 36]
    assert two_step_roots(4, 1521) == [715, 806]
    for n in (17, 36, 289):
        assert len([r for r in two_step_roots(5, n) if 2 * r != n]) == 2
    assert len([r for r in two_step_roots(5, 67) if 2 * r != 67]) == 4
    # closed forms agree with the generic exact root evaluation on a sample
    for n2 in (2, 3, 4, 5):
        for n1 in range(0, 120):
            dv = DimensionVector((n1, n2))
            assert len(two_step_roots(n2, dv.n)) == len(integral_roots(dv))
    # (n1,1,2) family: n = 10 only among even n < 20
    passing = [n for n in range(8, 20, 2)
               if lemma2_check(DimensionVector((n - 8, 1, 2))).passes]
    assert passing == [10]
    elapsed = time.perf_counter() - start
    assert elapsed < 300
    report(2, f"sieve regressions over n <= 10000 exact in {elapsed:.1f}s")


def _pinned_shape1():
    pinned = set()
    for p in range(1, 6):
        top = 100 if p == 1 else 5
        for j in range(1, top + 1):
            vec = [0] * p
            vec[p - 1] = j
            pinned.add(tuple(vec))
    for k in range(1, 51):
        pinned.add((2 * k, 1))                      # Heisenberg
    for k in (1, 2):
        pinned.add((0, 2 * k, 0, 1))                # Heisenberg scaled into degree 2
    for n1 in (5, 12, 21, 32, 45, 60, 77, 96):
        pinned.add((n1, 2))                         # n2=2 family, n a square
    for n1 in (16, 28, 60, 80):
        pinned.add((n1, 3))                         # n2=3 family
    pinned.add((0, 5, 0, 2))                        # scaled n2=2 family at n=18
    pinned.add((2, 1, 2))                           # the (2,3,5) dimensions
    pinned.add((5, 1, 1))                           # n=10 of the (1,1) family
    return pinned


def _pinned_shape2():
    pinned = set()
    for j in range(1, 201):
        pinned.add((j,))
    for j in range(1, 51):
        pinned.add((0, j))
    for j in range(1, 21):
        pinned.add((0, 0, j))
    for k in range(1, 101):
        pinned.add((2 * k, 1))
    for n1 in (5, 12, 21, 32, 45, 60, 77, 96, 117, 140, 165, 192):
        pinned.add((n1, 2))
    for n1 in (16, 28, 60, 80, 128, 156):
        pinned.add((n1, 3))
    pinned.add((2, 1, 2))
    pinned.add((5, 1, 1))
    return pinned


def test_criterion_3_multi_parameter_searches():
    start = time.perf_counter()
    got1 = {dv.parts for dv, _ in sieve_range([(0, 100)] + [(0, 5)] * 4, jobs=1)}
    assert got1 == _pinned_shape1()
    got2 = {dv.parts for dv, _ in sieve_range([(0, 200), (0, 50), (0, 20)], jobs=1)}
    assert got2 == _pinned_shape2()
    elapsed = time.perf_counter() - start
    assert elapsed < 1800
    report(3, f"both searches match the pinned family lists in {elapsed:.1f}s "
              f"({len(got1)} + {len(got2)} vectors)")


@pytest.mark.parametrize("make,expected", [
    (algebra_235, (1, 3, 2, 3, 1)),
    (lambda: heisenberg(1), (1, 2, 1)),
    (lambda: abelian(3), (1, 1, 1)),
])
def test_criterion_4_rumin_flat(make, expected):
    start = time.perf_counter()
    alg = make()
    ref = identity_metric(alg)
    rc = rumin_D(alg, ref)
    for q in range(alg.dim - 1):
        assert (rc.D[q + 1] @ rc.D[q]).is_zero()
    assert rc.orders == expected
    assert tuple(rc.k) == expected
    rng = random.Random(101)
    for _ in range(5):
        inner = random_graded_inner_product(alg, rng)
        assert expressed_over(rumin_D(alg, inner), rc) == rc.D
    elapsed = time.perf_counter() - start
    assert elapsed < 30
    report(4, f"{alg.name}: D^2=0, orders {rc.orders}, metric independent "
              f"in {elapsed:.1f}s")


@pytest.mark.parametrize("make", [algebra_235, lambda: heisenberg(1)])
def test_criterion_5_star_duality(make):
    alg = make()
    result = star_duality_check(rumin_D(alg, identity_metric(alg)))
    assert result["all_hold"]
    assert all(result["degrees"].values())
    assert result["orders_palindromic"]
    report(5, f"{alg.name}: (D_q)* = (-1)^(q+1) star^-1 D_(m-q-1) star, all q")


def test_criterion_6_torsion_invariance_battery():
    start = time.perf_counter()
    rng = random.Random(2024)
    k_choices = ((1,), (1, 2, 1), (1, 3, 2, 3, 1))
    complexes = []
    while len(complexes) < 100:
        acyclic = len(complexes) % 2 == 0
        cx, ref = random_complex(rng, max_dim=6, k_choices=k_choices, acyclic=acyclic)
        if all(d == 0 for d in cx.dims):
            continue
        complexes.append((cx, ref))
    for idx, (cx, ref) in enumerate(complexes):
        a = default_exponents(cx)
        base = torsion_norm(cx, ref, lam=0.0, a=a)
        # lambda independence at midgap and above-spectrum cutoffs
        spec = sorted(mu for q in cx.degrees for mu in delta_spectrum(cx, q, a))
        if spec:
            for lam in (spec[0] / 2, spec[-1] * 2):
                assert close(torsion_norm(cx, ref, lam=lam, a=a).total, base.total)
        # N-shift independence
        n0 = default_n_labels(cx)
        shifted = [x + 3 for x in n0]
        assert zeta_at_zero(cx, n_labels=n0, a=a) == zeta_at_zero(cx, n_labels=shifted, a=a)
        assert close(zeta_prime_zero(cx, n_labels=n0, a=a),
                     zeta_prime_zero(cx, n_labels=shifted, a=a))
        # a-scaling independence
        assert close(torsion_norm(cx, ref, a=[2 * x for x in a]).total, base.total)
        # exact pseudo-determinant oracle
        assert close(zeta_prime_zero(cx, a=a), zeta_prime_zero_exact(cx, a=a))
        # telescoping (exact, acyclic complexes)
        if cx.is_acyclic():
            assert telescoping_check(cx, a=a)
        # Euler heat trace constancy
        chi = cx.euler_characteristic()
        for t in (0.1, 1.0, 10.0):
            assert close(euler_heat_trace(cx, a, t), chi)
        # duality inversion
        td = torsion_norm(dual_complex(cx), dual_reference(cx, ref),
                          a=list(reversed(a))).total
        assert close(td * base.total, 1.0)
        # Z2-graded form
        assert z2_check(cx, 0.0, None, a)
        # direct-sum multiplicativity on consecutive same-k pairs
        if idx + 1 < len(complexes):
            cx2, ref2 = complexes[idx + 1]
            if cx2.k == cx.k and cx2.min_degree == cx.min_degree \
                    and len(cx2.dims) == len(cx.dims):
                both = direct_sum(cx, cx2)
                ref_sum = {}
                for q in both.degrees:
                    vecs = [list(v) + [Fraction(0)] * cx2.dim(q) for v in ref.get(q, [])]
                    vecs += [[Fraction(0)] * cx.dim(q) + list(v) for v in ref2.get(q, [])]
                    if vecs:
                        ref_sum[q] = vecs
                t_sum = torsion_norm(both, ref_sum).total
                t2 = torsion_norm(cx2, ref2).total
                assert close(t_sum, base.total * t2)
    elapsed = time.perf_counter() - start
    assert elapsed < 120
    report(6, f"invariance battery on 100 random complexes in {elapsed:.1f}s")


def test_criterion_7_group_arithmetic():
    start = time.perf_counter()
    assert bch_multiply(GAMMA1, GAMMA2).coords == (
        1, 1, Fraction(1, 2), Fraction(1, 12), Fraction(-1, 12))
    c12 = commutator(GAMMA1, GAMMA2)
    assert c12.coords == (0, 0, 1, Fraction(1, 2), Fraction(1, 2))
    assert commutator(GAMMA1, c12).coords == (0, 0, 0, 1, 0)
    assert commutator(GAMMA2, c12).coords == (0, 0, 0, 0, 1)
    for k in (-7, -1, 0, 1, 2, 5):
        for l in (-3, 0, 1, 3, 8):
            word = [GAMMA1 if k >= 0 else GAMMA1.inverse()] * abs(k)
            word += [GAMMA2 if l >= 0 else GAMMA2.inverse()] * abs(l)
            assert power_word(k, l) == multiply_all(*word)
    rng = random.Random(7)
    gens = [GAMMA1, GAMMA1.inverse(), GAMMA2, GAMMA2.inverse()]
    g = IDENTITY
    for _ in range(10_000):
        g = bch_multiply(g, gens[rng.randrange(4)])
        assert in_gamma0(g)
    elapsed = time.perf_counter() - start
    assert elapsed < 10
    report(7, f"group displays and 10^4-word lattice closure in {elapsed:.1f}s")


def test_criterion_8_cross_module_oracle():
    rng = random.Random(99)
    algebras = [algebra_235(), heisenberg(1), heisenberg(2), abelian(3),
                abelian(2, -2)]
    algebras += [random_graded_algebra(rng) for _ in range(20)]
    for alg in algebras:
        coh = betti_and_weights(alg)
        dv = DimensionVector(alg.dimension_vector())
        assert coh.weight_euler_polynomial() == poincare_polynomial(dv)
    report(8, f"super-trace identity on {len(algebras)} algebras, exact")

"""Purity sieve on grading dimensions.

Claims:
    - poincare_polynomial expands prod (1-t^p)^(n_p) exactly
    - the a_l coefficients match every family shown in the worked examples
    - c(i) agrees with the coefficient identity P_i = (-1)^i d!/(i!(n-i)!) c(i)
      and, when the sieve passes, with the normalized product over non-weights
    - the closed-form radical tests agree with the generic root count
    - the pinned regressions: n2=2 iff square, n2=3 iff even and 3n-2 square,
      n2=4 only n=8, n2=5 only n=10 (n <= 10000); the partial-root counts
    - the nonzero-coefficient count is always at least d+1
    - sieve_range on a singleton equals lemma2_check and is parallel safe
    - sieve_range rejects jobs < 1 and starts at most min(jobs, CPUs, tails)
      workers
    - the blocked mod-p screen gives every tail the candidates of the
      one-tail-at-a-time reference screen, for any block size
    - scan_tails and sieve_range return each passing vector with the zero
      coefficients of its expansion as roots
    - integral_roots equals the exact prefix/suffix evaluation at every i, and
      both mod-p screens only add candidates that exact arithmetic rejects
    - a range scan above SCREEN_WORK_MAX, and an exact report above
      VECTOR_N_MAX, are refused at once
"""

import concurrent.futures
import os
import random
import time
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from nilrumin import purity_sieve
from nilrumin.errors import EmptyRange, OutOfRange
from nilrumin.purity_sieve import (
    DimensionVector,
    a_coefficients,
    binomial_weight,
    c_closed_form,
    c_value,
    family_vector,
    integral_root_count,
    integral_roots,
    lemma2_check,
    poincare_polynomial,
    scan_tails,
    sieve_range,
    two_step_passes,
    two_step_roots,
)

vectors = st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=5) \
    .map(lambda xs: xs + [1])


class TestPolynomials:
    def test_single_degree(self):
        assert poincare_polynomial(DimensionVector((1,))) == [1, -1]

    def test_235(self):
        dv = DimensionVector((2, 1, 2))
        assert poincare_polynomial(dv) == [1, -2, 0, 0, 3, 0, -3, 0, 0, 2, -1]

    def test_h3(self):
        assert poincare_polynomial(DimensionVector((2, 1))) == [1, -2, 0, 2, -1]

    @pytest.mark.parametrize("parts,expected", [
        ((3, 2), [1, 2, 1]),
        ((0, 3), [1, 3, 3, 1]),
        ((1, 4), [1, 4, 6, 4, 1]),
        ((0, 5), [1, 5, 10, 10, 5, 1]),
        ((4, 1, 1), [1, 2, 2, 1]),
        ((0, 2, 1), [1, 3, 4, 3, 1]),
        ((2, 1, 2), [1, 3, 5, 5, 3, 1]),
    ])
    def test_a_coefficients(self, parts, expected):
        assert a_coefficients(DimensionVector(parts)) == expected

    @given(vectors)
    @settings(max_examples=60, deadline=None)
    def test_a_positive_and_sum(self, parts):
        dv = DimensionVector(parts)
        a = a_coefficients(dv)
        assert all(x > 0 for x in a)
        total = 1
        for p, np_ in enumerate(dv.parts, start=1):
            if p >= 2:
                total *= p ** np_
        assert sum(a) == total

    @given(vectors)
    @settings(max_examples=60, deadline=None)
    def test_at_least_d_plus_one_nonzero(self, parts):
        dv = DimensionVector(parts)
        coeffs = poincare_polynomial(dv)
        assert sum(1 for c in coeffs if c) >= dv.d + 1


class TestCValues:
    def test_coefficient_identity_random(self):
        rng = random.Random(11)
        for _ in range(100):
            parts = [rng.randint(0, 3) for _ in range(rng.randint(1, 4))] + [rng.randint(1, 3)]
            dv = DimensionVector(parts)
            coeffs = poincare_polynomial(dv)
            for i in range(dv.n + 1):
                assert coeffs[i] == (-1) ** i * binomial_weight(dv, i) * c_value(dv, i)

    @pytest.mark.parametrize("n2,family", [(2, "n2-2"), (3, "n2-3"), (4, "n2-4"), (5, "n2-5")])
    def test_two_step_closed_forms(self, n2, family):
        for n1 in range(0, 15):
            dv = DimensionVector((n1, n2))
            for i in range(dv.n + 1):
                assert c_closed_form(family, dv.n, i) == c_value(dv, i)

    @pytest.mark.parametrize("tail,family", [
        ((1, 1), "step3-11"), ((2, 1), "step3-21"), ((1, 2), "step3-12"),
    ])
    def test_three_step_closed_forms(self, tail, family):
        for n1 in range(0, 12):
            dv = DimensionVector((n1,) + tail)
            for i in range(dv.n + 1):
                assert c_closed_form(family, dv.n, i) == c_value(dv, i)

    def test_out_of_range(self):
        dv = DimensionVector((2, 1))
        with pytest.raises(OutOfRange):
            c_value(dv, dv.n + 1)


class TestLemma2:
    def test_abelian_degree_two(self):
        report = lemma2_check(DimensionVector((0, 2)))
        assert report.passes and report.roots == [1, 3]
        assert report.weights == [0, 2, 4]
        assert report.normalization_checked

    def test_n9_case(self):
        report = lemma2_check(DimensionVector((5, 2)))
        assert report.passes and report.roots == [3, 6]

    def test_n17_fails_with_two_roots(self):
        report = lemma2_check(DimensionVector((9, 4)))
        assert not report.passes
        assert report.roots == [7, 10] and report.needed_roots == 4

    def test_235_weights(self):
        report = lemma2_check(DimensionVector((2, 1, 2)))
        assert report.passes
        assert report.weights == [0, 1, 4, 6, 9, 10]

    def test_235_weights_match_cohomology(self):
        from nilrumin.ce_cohomology import betti_and_weights
        from nilrumin.graded_lie import algebra_235

        report = lemma2_check(DimensionVector((2, 1, 2)))
        assert tuple(report.weights) == betti_and_weights(algebra_235()).p

    @given(vectors)
    @settings(max_examples=60, deadline=None)
    def test_integral_roots_match_reference(self, parts):
        assert integral_roots(DimensionVector(parts)) == reference_integral_roots(
            DimensionVector(parts))

    def test_root_count_matches_expansion(self):
        rng = random.Random(13)
        for _ in range(50):
            parts = [rng.randint(0, 3) for _ in range(rng.randint(1, 4))] + [rng.randint(1, 2)]
            dv = DimensionVector(parts)
            report = lemma2_check(dv)
            assert integral_root_count(dv) == len(report.roots)


class TestClosedFormFamilies:
    def test_n2_2_square_law(self):
        for n in range(4, 2000):
            assert two_step_passes(2, n) == (isqrt(n) ** 2 == n)

    def test_n2_3_law(self):
        for n in range(6, 2000):
            cond = n % 2 == 0 and isqrt(3 * n - 2) ** 2 == 3 * n - 2
            assert two_step_passes(3, n) == cond

    def test_n2_4_and_5_over_10000(self):
        assert [n for n in range(8, 10001) if two_step_passes(4, n)] == [8]
        assert [n for n in range(10, 10001) if two_step_passes(5, n)] == [10]

    def test_partial_root_regressions(self):
        assert two_step_roots(4, 17) == [7, 10]
        assert two_step_roots(4, 66) == [30, 36]
        assert two_step_roots(4, 1521) == [715, 806]
        for n in (17, 36, 289):
            outer = [r for r in two_step_roots(5, n) if 2 * r != n]
            assert len(outer) == 2
        outer67 = [r for r in two_step_roots(5, 67) if 2 * r != 67]
        assert len(outer67) == 4 and 67 % 2 == 1

    def test_closed_matches_generic_small(self):
        for n2 in (2, 3, 4, 5):
            for n1 in range(0, 40):
                dv = DimensionVector((n1, n2))
                assert len(two_step_roots(n2, dv.n)) == integral_root_count(dv)
                assert two_step_passes(n2, dv.n) == lemma2_check(dv).passes

    def test_step3_12_only_n10_below_20(self):
        passing = [n for n in range(8, 20, 2)
                   if lemma2_check(family_vector("step3-12", n)).passes]
        assert passing == [10]


class TestSieveRange:
    def test_singleton_equals_lemma2(self):
        rng = random.Random(17)
        for _ in range(20):
            parts = [rng.randint(0, 4) for _ in range(rng.randint(1, 3))] + [rng.randint(1, 3)]
            dv = DimensionVector(parts)
            ranges = [(x, x) for x in dv.parts]
            got = {hit: roots for hit, roots in sieve_range(ranges)}
            report = lemma2_check(dv)
            assert (dv in got) == report.passes
            if report.passes:
                assert got[dv] == report.roots

    def test_scan_matches_bruteforce(self):
        ranges = [(0, 8), (0, 3), (0, 2)]
        got = set(dv.parts for dv, _ in sieve_range(ranges))
        expect = set()
        for n1 in range(9):
            for n2 in range(4):
                for n3 in range(3):
                    parts = (n1, n2, n3)
                    while parts and parts[-1] == 0:
                        parts = parts[:-1]
                    if not parts:
                        continue
                    if lemma2_check(DimensionVector(parts)).passes:
                        expect.add(parts)
        assert got == expect

    def test_parallel_identical(self):
        ranges = [(0, 12), (0, 2), (0, 2)]
        assert sieve_range(ranges, jobs=1) == sieve_range(ranges, jobs=2)

    def test_empty_range(self):
        with pytest.raises(EmptyRange):
            sieve_range([(3, 1)])

    def test_jobs_below_one_rejected(self):
        for jobs in (0, -3):
            with pytest.raises(OutOfRange):
                sieve_range([(0, 4), (0, 2)], jobs=jobs)

    def test_jobs_clamped_to_cpus_and_tails(self, monkeypatch):
        # a fake pool that records its size and maps in-process: no worker starts
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return [fn(x) for x in items]

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        ranges = [(0, 12), (0, 2), (0, 2)]  # 9 tails
        assert sieve_range(ranges, jobs=10**9) == sieve_range(ranges, jobs=1)
        sieve_range([(0, 12), (0, 1)], jobs=10**9)  # 2 tails
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        sieve_range(ranges, jobs=10**9)
        assert sizes == [3, 2]

    def test_order_deterministic(self):
        ranges = [(0, 10), (0, 2)]
        out = sieve_range(ranges)
        assert out == sorted(out, key=lambda hit: (hit[0].parts + (0, 0))[:2])


def reference_integral_roots(dv):
    """The i in {0..n} with c(i) = 0, each c(i) by exact prefix/suffix
    products (the reference for the mod-p-screened integral_roots)."""
    a = a_coefficients(dv)
    d, n = dv.d, dv.n
    e = n - d
    roots = []
    for i in range(n + 1):
        prefix = [1] * (e + 1)
        for l in range(1, e + 1):
            prefix[l] = prefix[l - 1] * (l - 1 - i)
        suffix = [1] * (e + 1)
        for l in range(e - 1, -1, -1):
            suffix[l] = suffix[l + 1] * (d + l + 1 - i)
        if sum(a[l] * prefix[l] * suffix[l] for l in range(e + 1)) == 0:
            roots.append(i)
    return roots


def reference_scan_tail(tail, n1_max):
    """Candidate n_1 values of one tail, screened on its own (the reference
    for the blocked screen): P_{n_1} mod p by the recurrence P_{n_1} =
    (1 - t) P_{n_1 - 1}, kept only up to its own degree."""
    p = purity_sieve._PRIME
    base = np.zeros(sum(q * x for q, x in enumerate(tail, start=2)) + n1_max + 1,
                    dtype=np.int64)
    tail_exact = purity_sieve._expand_parts((0,) + tail)
    base[: len(tail_exact)] = [c % p for c in tail_exact]
    deg = len(tail_exact) - 1
    d_tail = sum(tail)
    candidates = []
    cur = base
    for n1 in range(n1_max + 1):
        if n1 > 0:
            deg += 1
            nxt = cur.copy()
            nxt[1: deg + 1] = (cur[1: deg + 1] - cur[: deg]) % p
            cur = nxt
        if np.count_nonzero(cur[: deg + 1]) <= n1 + d_tail + 1:
            candidates.append(n1)
    return candidates


tail_lists = st.lists(st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=3)
                      .map(tuple), min_size=1, max_size=12)


class TestBlockedScreen:
    @given(tail_lists, st.integers(min_value=0, max_value=40),
           st.sampled_from([1, 7, 64, 500, 1 << 16]))
    @settings(max_examples=80, deadline=None)
    def test_matches_reference_screen(self, tails, n1_max, cells):
        # tails of one length, as a range scan forms them; cells = 1 puts
        # every tail in a block of its own
        width = len(tails[0])
        tails = [(t + (0,) * width)[:width] for t in tails]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(purity_sieve, "SCREEN_BLOCK_CELLS", cells)
            got = purity_sieve._screen(tails, n1_max)
        assert got == [reference_scan_tail(t, n1_max) for t in tails]

    def test_mixed_tails_share_a_block(self):
        # rows of different degrees and lengths, and empty tails, in one block
        tails = [(a, b, c) for a in range(3) for b in range(3) for c in range(4)]
        assert purity_sieve._screen(tails, 30) == [reference_scan_tail(t, 30) for t in tails]
        tails = [(5,), (0, 0, 2), (), (1, 3)]
        assert purity_sieve._screen(tails, 12) == [reference_scan_tail(t, 12) for t in tails]
        assert purity_sieve._screen([(), ()], 5) == [list(range(6))] * 2

    def test_roots_are_the_zero_coefficients(self):
        for dv, roots in scan_tails([(0, 1), (1, 0), (2, 1), (1, 2)], 40):
            report = lemma2_check(dv)
            assert report.passes and roots == report.roots

    def test_small_prime_only_adds_candidates(self):
        # with p = 3 most residues vanish: the exact confirmations must
        # reject every false candidate of both screens
        ranges = [(0, 30), (0, 3), (0, 2)]
        expected = sieve_range(ranges)
        dvs = [DimensionVector(parts) for parts in ((9, 4), (2, 1, 2), (7, 0, 3), (0, 6))]
        roots = [integral_roots(dv) for dv in dvs]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(purity_sieve, "_PRIME", 3)
            assert sum(map(len, purity_sieve._screen([(1, 1), (0, 3)], 30))) > 20
            assert sieve_range(ranges) == expected
            assert [integral_roots(dv) for dv in dvs] == roots

    def test_oversized_scans_refused_at_once(self):
        # 2^60 tails: refused before the tail list is formed
        start = time.perf_counter()
        with pytest.raises(OutOfRange, match="SCREEN_WORK_MAX"):
            sieve_range([(0, 5)] + [(0, 1)] * 60)
        assert time.perf_counter() - start < 1
        with pytest.raises(OutOfRange, match="SCREEN_WORK_MAX"):
            scan_tails([(2,)], 10**6)

    def test_oversized_report_refused_at_once(self):
        start = time.perf_counter()
        with pytest.raises(OutOfRange, match="VECTOR_N_MAX"):
            lemma2_check(DimensionVector((purity_sieve.VECTOR_N_MAX - 1, 1)))
        assert time.perf_counter() - start < 1

"""Necessary condition on grading dimensions for pure cohomology.

For a graded nilpotent Lie algebra with n_p = dim of the degree -p component,
the super-trace of the grading automorphism on cohomology is

    P(t) = prod_p (1 - t^p)^(n_p)  =  (1 - t)^d * A(t),
    A(t) = prod_{p >= 2} (1 + t + ... + t^(p-1))^(n_p) = sum_l a_l t^l,

a polynomial of degree n = sum_p p*n_p with at least d + 1 = (sum_p n_p) + 1
nonzero coefficients.  Purity forces exactly d + 1 nonzero coefficients,
equivalently the degree-(n-d) polynomial

    c(i) = sum_l a_l Q_l(i),
    Q_l(i) = prod_{j=0}^{l-1} (j - i) * prod_{j=d+l+1}^{n} (j - i),

has n - d mutually different integral zeros in {0, ..., n}; the coefficient of
(-t)^i in P is d!/(i!(n-i)!) * c(i).

Range scans work coefficient-wise: P mod a fixed prime is expanded
incrementally in n_1 (multiplying by (1 - t) is one vectorized subtract), a
count of nonzero residues > d + 1 disproves purity outright, and the rare
candidates are confirmed by an exact big-integer expansion.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, isqrt, prod

import numpy as np

from .errors import EmptyRange, OutOfRange

_PRIME = (1 << 31) - 1  # Mersenne; products of residues fit in int64


@dataclass(frozen=True)
class DimensionVector:
    """Grading dimensions (n_1, ..., n_r) with n_r > 0."""

    parts: tuple

    def __init__(self, parts):
        parts = tuple(int(x) for x in parts)
        if not parts or parts[-1] == 0:
            raise OutOfRange(f"dimension vector {parts} must end with n_r > 0")
        if any(x < 0 for x in parts):
            raise OutOfRange(f"dimension vector {parts} has a negative entry")
        object.__setattr__(self, "parts", parts)

    @property
    def r(self):
        return len(self.parts)

    @property
    def d(self):
        return sum(self.parts)

    @property
    def n(self):
        return sum(p * np_ for p, np_ in enumerate(self.parts, start=1))


def poincare_polynomial(dv):
    """Exact integer coefficients of prod_p (1 - t^p)^(n_p), length n + 1."""
    return _expand_parts(dv.parts)


def _expand_parts(parts):
    """prod_p (1 - t^p)^(parts[p-1]) as exact integers; parts may be all zero."""
    coeffs = [1]
    for p, np_ in enumerate(parts, start=1):
        if np_ == 0:
            continue
        # sparse factor (1 - t^p)^(n_p) = sum_k (-1)^k C(n_p, k) t^(pk)
        factor = {p * k: (-1) ** k * comb(np_, k) for k in range(np_ + 1)}
        out = [0] * (len(coeffs) + p * np_)
        for shift, c in factor.items():
            for i, x in enumerate(coeffs):
                if x:
                    out[i + shift] += c * x
        coeffs = out
    return coeffs


def a_coefficients(dv):
    """Exact coefficients a_0..a_{n-d} of prod_{p>=2} (1 + ... + t^(p-1))^(n_p)."""
    coeffs = [1]
    for p, np_ in enumerate(dv.parts, start=1):
        if p == 1 or np_ == 0:
            continue
        for _ in range(np_):
            out = [0] * (len(coeffs) + p - 1)
            for shift in range(p):
                for i, x in enumerate(coeffs):
                    out[i + shift] += x
            coeffs = out
    return coeffs


def q_l(dv, l, i):
    """Q_l(i) = prod_{j=0}^{l-1}(j-i) * prod_{j=d+l+1}^{n}(j-i), exact."""
    d, n = dv.d, dv.n
    return prod(j - i for j in range(l)) * prod(j - i for j in range(d + l + 1, n + 1))


def c_value(dv, i):
    """c(i) = sum_l a_l Q_l(i); integer for 0 <= i <= n."""
    if not 0 <= i <= dv.n:
        raise OutOfRange(f"i = {i} outside 0..{dv.n}")
    a = a_coefficients(dv)
    return sum(a[l] * q_l(dv, l, i) for l in range(len(a)))


def binomial_weight(dv, i):
    """d!/(i!(n-i)!) as an exact Fraction; times c(i) it is the coefficient of (-t)^i."""
    return Fraction(factorial(dv.d), factorial(i) * factorial(dv.n - i))


@dataclass
class SieveReport:
    """Outcome of the purity condition for one dimension vector."""

    dv: DimensionVector
    coefficients: list
    nonzero_count: int
    a: list
    passes: bool
    roots: list                 # i with coefficient of t^i equal to zero
    needed_roots: int           # n - d
    weights: list | None        # complement set P of the roots, when passing
    normalization_checked: bool = False


def lemma2_check(dv):
    """Exact purity sieve for one dimension vector.

    Pass iff P(t) has exactly d + 1 nonzero coefficients; on a pass the
    normalization c(i) = 2^(n_2) 3^(n_3) ... r^(n_r) * prod_{j in roots}(j - i)
    is verified at one non-root.
    """
    coeffs = poincare_polynomial(dv)
    roots = [i for i, c in enumerate(coeffs) if c == 0]
    nonzero = len(coeffs) - len(roots)
    needed = dv.n - dv.d
    passes = nonzero == dv.d + 1
    weights = None
    norm_ok = False
    if passes:
        weights = [i for i, c in enumerate(coeffs) if c != 0]
        i0 = weights[0]
        lead = prod(p ** np_ for p, np_ in enumerate(dv.parts, start=1) if p >= 2)
        expected = lead * prod(j - i0 for j in roots)
        norm_ok = c_value(dv, i0) == expected
    return SieveReport(
        dv=dv,
        coefficients=coeffs,
        nonzero_count=nonzero,
        a=a_coefficients(dv),
        passes=passes,
        roots=roots,
        needed_roots=needed,
        weights=weights,
        normalization_checked=norm_ok,
    )


# -- closed-form two-step and three-step families -------------------------------


def _square_root_or_none(x):
    if x < 0:
        return None
    s = isqrt(x)
    return s if s * s == x else None


def two_step_roots(n2, n):
    """Distinct integral zeros of c(i) for the family (n_1, n_2), n = n_1 + 2 n_2.

    Uses the radical expressions for the quartic/quintic families: an integral
    root forces every nested radicand to be a perfect square, so integer
    square-root tests decide everything.  Returns a sorted list of roots.
    """
    n1 = n - 2 * n2
    if n1 < 0:
        raise OutOfRange(f"n = {n} too small for n2 = {n2}")
    roots = set()

    def outer(base):
        # roots (n +- u)/2 with u^2 = base
        u = _square_root_or_none(base)
        if u is not None and (n - u) % 2 == 0 and 0 <= (n - u) // 2:
            roots.add((n - u) // 2)
            roots.add((n + u) // 2)

    if n2 == 2:
        outer(n)                                   # c = (n-2i)^2 - n
    elif n2 == 3:
        if n % 2 == 0:
            roots.add(n // 2)                      # factor (n - 2i)
        outer(3 * n - 2)
    elif n2 == 4:
        s = _square_root_or_none(6 * n * n - 18 * n + 16)
        if s is not None:
            outer(3 * n - 4 + s)
            outer(3 * n - 4 - s)
    elif n2 == 5:
        if n % 2 == 0:
            roots.add(n // 2)
        s = _square_root_or_none(10 * n * n - 50 * n + 76)
        if s is not None:
            outer(5 * n - 10 + s)
            outer(5 * n - 10 - s)
    else:
        raise OutOfRange(f"no closed form recorded for n2 = {n2}")
    return sorted(r for r in roots if 0 <= r <= n)


def two_step_passes(n2, n):
    """Closed-form purity verdict for the (n_1, n_2) family."""
    return len(two_step_roots(n2, n)) == n2


def c_closed_form(family, n, i):
    """Closed-form c(i) of the worked families; exact Fraction.

    family is one of "n2-2", "n2-3", "n2-4", "n2-5", "step3-11", "step3-21",
    "step3-12" (the last three are (n_1, n_2, n_3) with (n_2, n_3) as named).
    """
    u = Fraction(n - 2 * i)
    n = Fraction(n)
    if family == "n2-2":
        return u * u - n
    if family == "n2-3":
        return u * (u * u - (3 * n - 2))
    if family == "n2-4":
        return (u * u - (3 * n - 4)) ** 2 - (6 * n * n - 18 * n + 16)
    if family == "n2-5":
        return u * ((u * u - (5 * n - 10)) ** 2 - (10 * n * n - 50 * n + 76))
    if family == "step3-11":
        return u * (Fraction(3, 4) * u * u + (n * n / 4 - 3 * n + 2))
    if family == "step3-21":
        return (3 * u ** 4 + (n * n - 23 * n + 30) * u * u - n * (n * n - 14 * n + 24)) / 4
    if family == "step3-12":
        return (9 * u ** 5 + (6 * n * n - 132 * n + 252) * u ** 3
                + (n ** 4 - 28 * n ** 3 + 308 * n * n - 800 * n + 384) * u) / 16
    raise OutOfRange(f"unknown family {family!r}")


FAMILY_SHAPES = {
    "n2-2": (2,),
    "n2-3": (3,),
    "n2-4": (4,),
    "n2-5": (5,),
    "step3-11": (1, 1),
    "step3-21": (2, 1),
    "step3-12": (1, 2),
}


def family_vector(family, n):
    """The DimensionVector of the named family at homogeneous dimension n."""
    tail = FAMILY_SHAPES[family]
    n_tail = sum(p * x for p, x in enumerate(tail, start=2))
    n1 = n - n_tail
    if n1 < 0:
        raise OutOfRange(f"n = {n} too small for family {family}")
    return DimensionVector((n1,) + tail)


# -- fast range scans ------------------------------------------------------------


def integral_roots(dv):
    """All i in {0..n} with c(i) = 0, by exact evaluation.

    Prefix/suffix products make each evaluation O(n - d); this is the exact
    confirmation route for scan candidates and the oracle dual to the
    coefficient expansion in poincare_polynomial.
    """
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


def integral_root_count(dv):
    return len(integral_roots(dv))


def _exact_pass(n1, tail):
    """Exact purity verdict for (n1, *tail): c has n - d integral zeros."""
    dv = _normalize(n1, tail)
    return integral_root_count(dv) == dv.n - dv.d


def _scan_tail(tail, n1_max):
    """Candidate n_1 values for one tail, by the mod-p coefficient count.

    A residue count greater than d + 1 disproves the pass exactly (nonzero
    mod p implies nonzero over Z, and d + 1 is the unconditional minimum);
    counts <= d + 1 are candidates for exact confirmation.
    """
    p = _PRIME
    base = np.zeros(sum(q * x for q, x in enumerate(tail, start=2)) + n1_max + 1,
                    dtype=np.int64)
    tail_exact = _expand_parts((0,) + tail)
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


def scan_tails(tails, n1_max):
    """Passing (n1, *tail) dimension vectors over the given tails, exact."""
    passing = []
    for tail in tails:
        tail = tuple(tail)
        for n1 in _scan_tail(tail, n1_max):
            if n1 == 0 and not any(tail):
                continue  # the empty vector
            if _exact_pass(n1, tail):
                passing.append(_normalize(n1, tail))
    return passing


def _normalize(n1, tail):
    parts = (n1,) + tuple(tail)
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    return DimensionVector(parts)


def sieve_range(ranges, jobs=1):
    """Exhaustive scan over inclusive ranges [(lo_1, hi_1), ..., (lo_r, hi_r)].

    Returns the passing DimensionVectors in lexicographic order of
    (n_1, ..., n_r).  The scan partitions by tail (n_2, ..., n_r); partitions
    may be evaluated in parallel with identical results.  At most
    min(jobs, CPU count, number of tails) worker processes are started.
    """
    if not ranges or any(lo > hi or lo < 0 for lo, hi in ranges):
        raise EmptyRange(f"invalid range specification {ranges}")
    if jobs < 1:
        raise OutOfRange(f"jobs = {jobs} must be at least 1")
    lo1, hi1 = ranges[0]
    tails = [()]
    for lo, hi in ranges[1:]:
        tails = [t + (x,) for t in tails for x in range(lo, hi + 1)]
    jobs = min(jobs, os.cpu_count() or 1, len(tails))
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        chunks = [tails[i::jobs] for i in range(jobs)]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = pool.map(_scan_chunk, [(c, hi1) for c in chunks])
        passing = [dv for part in results for dv in part]
    else:
        passing = _scan_chunk((tails, hi1))
    passing = [dv for dv in passing if _in_ranges(dv, ranges)]
    return sorted(set(passing), key=lambda dv: (dv.parts + (0,) * len(ranges))[: len(ranges)])


def _scan_chunk(args):
    tails, n1_max = args
    return scan_tails(tails, n1_max)


def _in_ranges(dv, ranges):
    parts = dv.parts + (0,) * (len(ranges) - len(dv.parts))
    if len(parts) > len(ranges):
        return False
    return all(lo <= x <= hi for x, (lo, hi) in zip(parts, ranges))

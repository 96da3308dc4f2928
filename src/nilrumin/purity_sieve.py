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

Range scans work coefficient-wise on blocks of tails (n_2, ..., n_r): one
int64 matrix holds P mod a fixed prime for every tail of the block, formed
from 1 by vectorized (1 - t^q) subtracts; one more subtract multiplies all
its rows by (1 - t) to step n_1, and a row with more than d + 1 nonzero
residues disproves purity outright.  The
rare candidates are confirmed exactly by the integral zeros of c, and those
zeros are the report's roots: a scan never expands P over Z.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from math import factorial, isqrt, prod
from operator import mul

import numpy as np

from .errors import EmptyRange, OutOfRange

_PRIME = (1 << 31) - 1  # Mersenne; products of residues fit in int64
SCREEN_BLOCK_CELLS = 1 << 15  # int64 cells per screen buffer; a block uses three (768 KiB)

# Input bounds, checked before any tail list or coefficient is formed.
SCREEN_WORK_MAX = 10**8  # tails x (n1_max + 1) x width: one tail up to n = 10^4
FAMILY_N_MAX = 10**4     # largest homogeneous dimension of a family run
VECTOR_N_MAX = 4000      # largest homogeneous dimension of one expanded report


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
        # sparse factor (1 - t^p)^(n_p) = sum_k (-1)^k C(n_p, k) t^(pk), with
        # C(n, k + 1) = C(n, k) (n - k) / (k + 1)
        out = [0] * (len(coeffs) + p * np_)
        c = 1
        for k in range(np_ + 1):
            shift = p * k
            for i, x in enumerate(coeffs):
                if x:
                    out[i + shift] += c * x
            c = -c * (np_ - k) // (k + 1)
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


def c_value(dv, i):
    """c(i) = sum_l a_l Q_l(i); integer for 0 <= i <= n."""
    if not 0 <= i <= dv.n:
        raise OutOfRange(f"i = {i} outside 0..{dv.n}")
    return _c_horner(dv, a_coefficients(dv), i)


def _c_horner(dv, a, i):
    """c(i) in O(n - d) exact products: with e = n - d, S_e = 1 and
    S_l = (d + l + 1 - i) S_{l+1} = prod_{j=d+l+1}^{n} (j - i),
    T_e = a_e and T_l = a_l S_l + (l - i) T_{l+1}, c(i) = T_0."""
    d, e = dv.d, dv.n - dv.d
    s, t = 1, a[e]
    for l in range(e - 1, -1, -1):
        s *= d + l + 1 - i
        t = a[l] * s + (l - i) * t
    return t


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
    is verified at one non-root.  Refused above VECTOR_N_MAX before P is
    expanded.
    """
    check_report_degree(dv.n)
    coeffs = poincare_polynomial(dv)
    a = a_coefficients(dv)
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
        norm_ok = _c_horner(dv, a, i0) == expected
    return SieveReport(
        dv=dv,
        coefficients=coeffs,
        nonzero_count=nonzero,
        a=a,
        passes=passes,
        roots=roots,
        needed_roots=needed,
        weights=weights,
        normalization_checked=norm_ok,
    )


def check_report_degree(n):
    """OutOfRange when an exact report would expand P of degree n > VECTOR_N_MAX."""
    if n > VECTOR_N_MAX:
        raise OutOfRange(f"an exact report of degree n = {n} is above "
                         f"VECTOR_N_MAX = {VECTOR_N_MAX}")


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

    The Horner form of c is first run mod p for every i at once; a nonzero
    residue proves c(i) != 0, and the i with residue 0 are evaluated
    exactly.  This is the exact confirmation route for scan candidates and
    the oracle dual to the coefficient expansion in poincare_polynomial.
    """
    a = a_coefficients(dv)
    d, e = dv.d, dv.n - dv.d
    p = _PRIME
    i = np.arange(dv.n + 1, dtype=np.int64)
    s = np.ones_like(i)
    t = np.full_like(i, a[e] % p)
    for l in range(e - 1, -1, -1):
        # s, t and the reduced factors lie in [0, p) and |d + l + 1 - i| <= n,
        # far below 2^32, so each product is below 2^62 and the sum below 2^63
        s = s * (d + l + 1 - i) % p
        t = (a[l] % p * s + (l - i) % p * t) % p
    return [int(x) for x in np.flatnonzero(t == 0) if _c_horner(dv, a, int(x)) == 0]


def integral_root_count(dv):
    return len(integral_roots(dv))


def _exact_pass(n1, tail):
    """(dv, roots) for (n1, *tail) when c has n - d integral zeros, else None."""
    dv = _normalize(n1, tail)
    roots = integral_roots(dv)
    return (dv, roots) if len(roots) == dv.n - dv.d else None


def _tail_degree(tail):
    return sum(map(mul, tail, count(2)))


def _screen(tails, n1_max):
    """Candidate n_1 values for each tail, by the mod-p coefficient count.

    A residue count greater than d + 1 disproves the pass exactly (nonzero
    mod p implies nonzero over Z, and d + 1 is the unconditional minimum);
    counts <= d + 1 are candidates for exact confirmation.  Tails are
    screened in blocks of at most SCREEN_BLOCK_CELLS cells: row r of a block
    holds P_{n_1}(t) mod p for tail r, zero-padded to a common width.  A
    block starts from 1 and multiplies its rows by (1 - t^q) once per unit
    of each part n_q, then by (1 - t) once per step of n_1, each a
    vectorized subtract over the whole block.
    """
    width = max(map(_tail_degree, tails)) + n1_max + 1
    rows = min(len(tails), max(1, SCREEN_BLOCK_CELLS // width))
    # block buffers for the whole scan, so no step allocates a block: two
    # for P and a contiguous one for the p-correction of the subtract
    bufs = [np.empty((rows, width), dtype=np.int64) for _ in range(2)]
    scratch = np.empty(rows * width, dtype=np.int64)
    candidates = []
    for start in range(0, len(tails), rows):
        block = tails[start: start + rows]
        cur, nxt = (b[: len(block)] for b in bufs)
        cur.fill(0)
        nxt.fill(0)
        cur[:, 0] = 1
        length = max(map(len, block))
        parts = np.array([t + (0,) * (length - len(t)) for t in block],
                         dtype=np.int64).reshape(len(block), length)
        # top bounds every row's degree, so columns past it hold zeros and
        # are never touched; deg is the block's largest tail degree
        deg = int((parts @ np.arange(2, length + 2)).max(initial=0))
        top = 0
        for q, n_q in enumerate(parts.T, start=2):
            for k in range(1, int(n_q.max()) + 1):
                top = min(top + q, deg)
                _times_one_minus(cur, nxt, q, top, scratch)
                np.copyto(cur[:, : top + 1], nxt[:, : top + 1], where=(n_q >= k)[:, None])
        top = deg
        bound = parts.sum(axis=1) + 1
        hits = [[] for _ in block]
        for n1 in range(n1_max + 1):
            if n1 > 0:
                top += 1
                _times_one_minus(cur, nxt, 1, top, scratch)
                cur, nxt = nxt, cur
            counts = np.count_nonzero(cur[:, : top + 1], axis=1)
            for r in np.flatnonzero(counts <= bound + n1):
                hits[r].append(n1)
        candidates.extend(hits)
    return candidates


def _times_one_minus(src, dst, q, top, scratch):
    """dst = (1 - t^q) src mod p on columns 0..top, rows of residues in [0, p)."""
    dst[:, :q] = src[:, :q]
    view = dst[:, q: top + 1]
    np.subtract(src[:, q: top + 1], src[:, : top + 1 - q], out=view)
    # x >> 63 is -1 exactly where x < 0: add p there
    neg = scratch[: view.size].reshape(view.shape)
    np.right_shift(view, 63, out=neg)
    np.bitwise_and(neg, _PRIME, out=neg)
    view += neg


def scan_tails(tails, n1_max):
    """Passing (dv, roots) pairs of (n1, *tail) over the given tails, exact.

    roots are the integral zeros of c, so the coefficient of t^i in P is zero
    exactly for i in roots.
    """
    tails = [tuple(tail) for tail in tails]
    if not tails:
        return []
    _check_screen_work(len(tails), n1_max, max(map(_tail_degree, tails)))
    passing = []
    for tail, n1s in zip(tails, _screen(tails, n1_max)):
        for n1 in n1s:
            if n1 == 0 and not any(tail):
                continue  # the empty vector
            hit = _exact_pass(n1, tail)
            if hit is not None:
                passing.append(hit)
    return passing


def _check_screen_work(tail_count, n1_max, tail_degree):
    work = tail_count * (n1_max + 1) * (tail_degree + n1_max + 1)
    if work > SCREEN_WORK_MAX:
        raise OutOfRange(f"range scan needs {tail_count} tails x {n1_max + 1} values of n1 "
                         f"x {tail_degree + n1_max + 1} coefficients = {work} screen "
                         f"cells, above SCREEN_WORK_MAX = {SCREEN_WORK_MAX}")


def _normalize(n1, tail):
    parts = (n1,) + tuple(tail)
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    return DimensionVector(parts)


def sieve_range(ranges, jobs=1):
    """Exhaustive scan over inclusive ranges [(lo_1, hi_1), ..., (lo_r, hi_r)].

    Returns the passing (DimensionVector, roots) pairs in lexicographic order
    of (n_1, ..., n_r).  The scan partitions by tail (n_2, ..., n_r);
    partitions may be evaluated in parallel with identical results.  At most
    min(jobs, CPU count, number of tails) worker processes are started.  A
    scan above SCREEN_WORK_MAX screen cells is refused before any tail is
    formed.
    """
    if not ranges or any(lo > hi or lo < 0 for lo, hi in ranges):
        raise EmptyRange(f"invalid range specification {ranges}")
    if jobs < 1:
        raise OutOfRange(f"jobs = {jobs} must be at least 1")
    lo1, hi1 = ranges[0]
    _check_screen_work(prod(hi - lo + 1 for lo, hi in ranges[1:]), hi1,
                       _tail_degree(hi for _, hi in ranges[1:]))
    tails = [()]
    for lo, hi in ranges[1:]:
        tails = [t + (x,) for t in tails for x in range(lo, hi + 1)]
    jobs = min(jobs, os.cpu_count() or 1, len(tails))
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        chunks = [tails[i::jobs] for i in range(jobs)]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = pool.map(_scan_chunk, [(c, hi1) for c in chunks])
        passing = [hit for part in results for hit in part]
    else:
        passing = _scan_chunk((tails, hi1))
    passing = [hit for hit in passing if _in_ranges(hit[0], ranges)]
    return sorted(passing, key=lambda hit: (hit[0].parts + (0,) * len(ranges))[: len(ranges)])


def _scan_chunk(args):
    tails, n1_max = args
    return scan_tails(tails, n1_max)


def _in_ranges(dv, ranges):
    parts = dv.parts + (0,) * (len(ranges) - len(dv.parts))
    if len(parts) > len(ranges):
        return False
    return all(lo <= x <= hi for x, (lo, hi) in zip(parts, ranges))

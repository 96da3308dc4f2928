"""Output checks: each op's output against goldens and independent results.

Golden digests were recorded from the CLI at the commit that added this
benchmark; the pinned sieve lists and the two-step closed forms restate the
acceptance criteria without importing the package or its tests.
"""

from __future__ import annotations

import hashlib
import json
import os
from math import isqrt

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
TORSION_RTOL = 1e-9


def load_golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def pinned_shape1():
    """Passing vectors of n1:0..100, n2..n5:0..5 (acceptance 3)."""
    pinned = set()
    for p in range(1, 6):
        top = 100 if p == 1 else 5
        for j in range(1, top + 1):
            pinned.add((0,) * (p - 1) + (j,))
    pinned.update((2 * k, 1) for k in range(1, 51))
    pinned.update({(0, 2, 0, 1), (0, 4, 0, 1), (0, 5, 0, 2), (2, 1, 2), (5, 1, 1)})
    pinned.update((n1, 2) for n1 in (5, 12, 21, 32, 45, 60, 77, 96))
    pinned.update((n1, 3) for n1 in (16, 28, 60, 80))
    return pinned


def pinned_shape2():
    """Passing vectors of n1:0..200, n2:0..50, n3:0..20 (acceptance 3)."""
    pinned = {(j,) for j in range(1, 201)}
    pinned.update((0, j) for j in range(1, 51))
    pinned.update((0, 0, j) for j in range(1, 21))
    pinned.update((2 * k, 1) for k in range(1, 101))
    pinned.update((n1, 2) for n1 in (5, 12, 21, 32, 45, 60, 77, 96, 117, 140, 165, 192))
    pinned.update((n1, 3) for n1 in (16, 28, 60, 80, 128, 156))
    pinned.update({(2, 1, 2), (5, 1, 1)})
    return pinned


def two_step_tail(n1_max):
    """Passing (n1, n2) for n2 in {2, 3}, n1 <= n1_max, from the closed forms:
    n2 = 2 passes iff n is a square, n2 = 3 iff n is even and 3n - 2 a square."""
    out = set()
    for n1 in range(n1_max + 1):
        n = n1 + 4
        if isqrt(n) ** 2 == n:
            out.add((n1, 2))
        n = n1 + 6
        if n % 2 == 0 and isqrt(3 * n - 2) ** 2 == 3 * n - 2:
            out.add((n1, 3))
    return out


PINNED_SIEVE = {
    "n1:0..100,n2:0..5,n3:0..5,n4:0..5,n5:0..5": pinned_shape1,
    "n1:0..200,n2:0..50,n3:0..20": pinned_shape2,
    "n1:0..2500,n2:2..3": lambda: two_step_tail(2500),
}


class Checker:
    """Returns None for a correct output, else a one-line reason."""

    def __init__(self, golden):
        self.golden = golden
        self._sieve_sets = {}

    def check(self, op, code, out):
        if code != 0:
            return f"exit code {code}: {out.strip()[:200]}"
        try:
            return getattr(self, f"_{op.kind}")(op, out)
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            return f"unreadable output: {type(exc).__name__}: {exc}"

    def _rumin(self, op, out):
        checks = json.loads(out)["results"]["checks"]
        if not all(checks.values()):
            return f"failed checks {sorted(k for k, v in checks.items() if not v)}"
        if _sha256(out) != self.golden["rumin"][op.key]:
            return "report differs from the golden digest"
        return None

    def _cohomology(self, op, out):
        results = json.dumps(json.loads(out)["results"], sort_keys=True)
        if results != json.dumps(self.golden["cohomology"][op.key], sort_keys=True):
            return f"results block differs from the golden: {results[:200]}"
        return None

    def _sieve(self, op, out):
        if _sha256(out) != self.golden["sieve"][op.key]:
            return "rows differ from the golden digest"
        if op.key not in self._sieve_sets:
            self._sieve_sets[op.key] = PINNED_SIEVE[op.key]()
        got = {tuple(int(x) for x in line.split(";")[0].split())
               for line in out.splitlines()[1:]}
        if got != self._sieve_sets[op.key]:
            return f"rows differ from the pinned list: {len(got)} vectors"
        return None

    def _torsion(self, op, out):
        results = json.loads(out)["results"]
        checks = results["checks"]
        if not all(checks.values()):
            return f"failed checks {sorted(k for k, v in checks.items() if not v)}"
        total = float(results["total"])
        if abs(total - op.expected) > TORSION_RTOL * max(1.0, abs(op.expected)):
            return f"total {total!r} != expected {op.expected!r}"
        return None

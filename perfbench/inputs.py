"""Seeded benchmark inputs, built with plain ``fractions.Fraction``.

Nothing here imports the package under test: the complexes, their reference
cocycles, the expected torsion values and the graded Gram files are derived
from the seed alone, so a parent commit and a change run identical inputs
(compare the printed input digest).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from fractions import Fraction

import numpy as np

# Degree lists of the presets the cohomology workload runs; a Gram file must
# be block diagonal across these degrees.
PRESET_DEGREES = {
    "235": (-1, -1, -2, -3, -3),
    "heisenberg5": (-1,) * 4 + (-2,),
    "heisenberg7": (-1,) * 6 + (-2,),
}
COHOMOLOGY_PRESETS = ("235", "heisenberg5", "heisenberg7")
GRAMS_PER_PRESET = 3

RUMIN_PRESETS = ("235", "heisenberg5")

SIEVE_SHAPES = (
    "n1:0..100,n2:0..5,n3:0..5,n4:0..5,n5:0..5",
    "n1:0..200,n2:0..50,n3:0..20",
    "n1:0..2500,n2:2..3",
)

# The acceptance-6 recipe: max_dim 6, these order labels, alternately acyclic.
TORSION_COMPLEXES = 100
TORSION_MAX_DIM = 6
K_CHOICES = ((1,), (1, 2, 1), (1, 3, 2, 3, 1))
SHAPE_SEED = 2024
# The recipe's shears are meant to give a moderate condition number, so that
# the float spectra meet the package's 1e-9 invariance checks (float error
# grows like eps * cond^2).  A few draws in a thousand are far worse: at
# cond 1486 (seed 208, complex 44) `torsion --check-invariance` misses its
# own 1e-9 checks.  Base changes are redrawn until every differential's
# largest over smallest nonzero singular value is at most this.
MAX_CONDITION = 300


# -- small exact linear algebra ---------------------------------------------


def _identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def _mul(a, b):
    if not a or not b:
        return [[] for _ in a]
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def _transpose(a):
    return [list(col) for col in zip(*a)]


def _det(a):
    n = len(a)
    m = [row[:] for row in a]
    out = Fraction(1)
    for c in range(n):
        pr = next((r for r in range(c, n) if m[r][c] != 0), None)
        if pr is None:
            return Fraction(0)
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            out = -out
        out *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            if f:
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return out


def _inverse(a):
    n = len(a)
    m = [row[:] + e for row, e in zip(a, _identity(n))]
    for c in range(n):
        pr = next(r for r in range(c, n) if m[r][c] != 0)
        m[c], m[pr] = m[pr], m[c]
        piv = m[c][c]
        m[c] = [x / piv for x in m[c]]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return [row[n:] for row in m]


def _cols(b, start, stop):
    """Columns start..stop-1 of b as an n x (stop-start) matrix."""
    return [row[start:stop] for row in b]


def _gram_det(x, g):
    """det(X^T G X); 1 for an empty column set."""
    if not x or not x[0]:
        return Fraction(1)
    return _det(_mul(_mul(_transpose(x), g), x))


def _rat(x):
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# -- finite complexes ---------------------------------------------------------


def _condition(d, rank):
    """Largest over smallest nonzero singular value of a rank-``rank`` matrix."""
    if rank == 0:
        return 1.0
    sv = np.linalg.svd(np.array(d, dtype=float), compute_uv=False)
    return sv[0] / sv[rank - 1]


def _well_conditioned(rng, n):
    """Product of unipotent shears: integer entries, integer inverse."""
    m = _identity(n)
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            s = rng.choice((-1, 1))
            for row in m:
                row[j] += s * row[i]
    return m


def _pos_def(rng, n):
    a = [[Fraction(rng.randint(-1, 1)) for _ in range(n)] for _ in range(n)]
    g = _mul(_transpose(a), a)
    for i in range(n):
        g[i][i] += 1
    return g


def _dims_and_ranks(rng, length, acyclic):
    while True:
        dims = [rng.randint(1 if acyclic else 0, TORSION_MAX_DIM) for _ in range(length)]
        ranks, prev = [], 0
        for i in range(length - 1):
            if acyclic:
                r = dims[i] - prev
                if r > dims[i + 1]:
                    break
            else:
                hi = min(dims[i] - prev, dims[i + 1])
                r = rng.randint(0, hi) if hi > 0 else 0
            ranks.append(r)
            prev = r
        else:
            if (not acyclic or dims[-1] == prev) and any(dims):
                return dims, ranks


def torsion_complex(shape_rng, rng, kvec, acyclic):
    """One complex in normal form conjugated by integer base changes.

    In the basis B_q of degree q the first r_{q-1} columns span the image of
    D_{q-1}, the next b_q are the reference cocycles and the last r_q are
    mapped by D_q onto the first r_q columns of B_{q+1}.  That fixes the
    kernel, image and complement bases, so the expected torsion norm is an
    exact rational square computed from Gram determinants alone:

        total^2 = prod_q pdet(D*_q D_q)^(-(-1)^q) * det(P_q^T G_q P_q)^((-1)^q)

    with P_q the harmonic projection of the reference cocycles.

    Returns (document for ``torsion --input``, expected total as a float).
    """
    length = len(kvec) + 1
    dims, ranks = _dims_and_ranks(shape_rng, length, acyclic)
    r_prev = [0] + ranks
    r_next = ranks + [0]
    betti = [dims[q] - r_prev[q] - r_next[q] for q in range(length)]
    while True:
        bases = [_well_conditioned(rng, d) for d in dims]
        diffs = []
        for q in range(length - 1):
            model = [[Fraction(0)] * dims[q] for _ in range(dims[q + 1])]
            for t in range(ranks[q]):
                model[t][r_prev[q] + betti[q] + t] = Fraction(1)
            diffs.append(_mul(bases[q + 1], _mul(model, _inverse(bases[q]))))
        if all(_condition(d, r) <= MAX_CONDITION for d, r in zip(diffs, ranks)):
            break
    grams = [_pos_def(rng, d) for d in dims]

    square = Fraction(1)
    reference = {}
    for q in range(length):
        b, g = bases[q], grams[q]
        sign = 1 if q % 2 == 0 else -1
        if r_next[q]:
            kernel = _cols(b, 0, r_prev[q] + betti[q])
            image_next = _cols(bases[q + 1], 0, r_next[q])
            pdet = (_gram_det(image_next, grams[q + 1]) * _gram_det(kernel, g)
                    / _gram_det(b, g))
            square *= pdet ** (-sign)
        if betti[q]:
            image = _cols(b, 0, r_prev[q])
            cocycles = _cols(b, 0, r_prev[q] + betti[q])
            square *= (_gram_det(cocycles, g) / _gram_det(image, g)) ** sign
            reference[str(q)] = [[_rat(row[r_prev[q] + j]) for row in b]
                                 for j in range(betti[q])]
    doc = {
        "min_degree": 0,
        "dims": dims,
        "differentials": [[[_rat(x) for x in row] for row in d] for d in diffs],
        "grams": [[[_rat(x) for x in row] for row in g] for g in grams],
        "k": list(kvec),
        "reference": reference,
    }
    return doc, math.sqrt(square)


def torsion_inputs(seed):
    """The 100-complex battery; the (k, acyclic) mix is fixed, the rest seeded.

    Order labels and acyclicity cycle deterministically so every seed runs
    the same mix of costly and cheap complexes; dimensions, ranks, base
    changes and Gram matrices come from the seed.
    """
    shape_rng = random.Random(SHAPE_SEED)
    rng = random.Random(seed)
    out = []
    for i in range(TORSION_COMPLEXES):
        kvec = K_CHOICES[(i // 2) % len(K_CHOICES)]
        out.append(torsion_complex(shape_rng, rng, kvec, acyclic=(i % 2 == 0)))
    return out


# -- graded Gram files ---------------------------------------------------------


def graded_gram(rng, degrees):
    """Random positive definite Gram, block diagonal across degrees."""
    n = len(degrees)
    gram = [[Fraction(0)] * n for _ in range(n)]
    for d in sorted(set(degrees)):
        idx = [i for i, x in enumerate(degrees) if x == d]
        block = _pos_def(rng, len(idx))
        for a, ia in enumerate(idx):
            for b, ib in enumerate(idx):
                gram[ia][ib] = block[a][b]
    return {"gram": [[_rat(x) for x in row] for row in gram]}


# -- workloads -----------------------------------------------------------------


class Op:
    """One CLI invocation and what its output is checked against."""

    __slots__ = ("argv", "kind", "key", "expected")

    def __init__(self, argv, kind, key, expected=None):
        self.argv = argv
        self.kind = kind
        self.key = key
        self.expected = expected


def _write_json(path, doc):
    data = json.dumps(doc, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(data)
    return data


def build_workload(name, seed, directory):
    """Write the workload's input files under ``directory``.

    Returns (ops, SHA-256 hex digest of every argv and input file byte).
    """
    digest = hashlib.sha256()
    ops = []
    if name == "rumin":
        for preset in RUMIN_PRESETS:
            ops.append(Op(["rumin", "--preset", preset, "--check", "--seed", str(seed),
                           "--format", "json"], "rumin", preset))
    elif name == "cohomology":
        rng = random.Random(seed)
        for preset in COHOMOLOGY_PRESETS:
            ops.append(Op(["cohomology", "--preset", preset, "--format", "json"],
                          "cohomology", preset))
            for j in range(GRAMS_PER_PRESET):
                path = os.path.join(directory, f"gram-{preset}-{j}.json")
                digest.update(_write_json(path, graded_gram(rng, PRESET_DEGREES[preset])))
                ops.append(Op(["cohomology", "--preset", preset, "--metric", path,
                               "--format", "json"], "cohomology", preset))
    elif name == "torsion":
        for i, (doc, total) in enumerate(torsion_inputs(seed)):
            path = os.path.join(directory, f"complex-{i:03d}.json")
            digest.update(_write_json(path, doc))
            ops.append(Op(["torsion", "--input", path, "--check-invariance",
                           "--format", "json"], "torsion", i, total))
    elif name == "sieve":
        for shape in SIEVE_SHAPES:
            ops.append(Op(["sieve", "--shape", shape, "--jobs", "1"], "sieve", shape))
    else:
        raise ValueError(f"unknown workload {name!r}")
    for op in ops:
        # file paths differ between runs; hash the argv without them
        digest.update(" ".join(os.path.basename(a) for a in op.argv).encode())
    return ops, digest.hexdigest()

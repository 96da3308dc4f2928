"""Shared randomized generators for the test suite.

Random complexes are built from a normal-form model (exact ⊕ harmonic ⊕
coexact per degree, the differential an identity block) conjugated by random
integer changes of basis, so ranks and cohomology are known by construction
and every matrix stays exact.  Random graded algebras draw from the validated
families (abelian, Heisenberg, scaled (2,3,5), filiform) twisted by random
graded automorphisms.  The small matrix helpers (zero test, difference,
scaling) are used by the tests only.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from nilrumin.fd_torsion import FiniteComplex
from nilrumin.graded_lie import (
    GradedAutomorphism,
    abelian,
    algebra_235,
    build_algebra,
    heisenberg,
)
from nilrumin.rational import det, identity, inverse, mat_mul, transpose, zeros


def is_zero_matrix(a):
    return all(x == 0 for row in a for x in row)


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a, s):
    return [[s * x for x in row] for row in a]


def random_invertible(rng, n, spread=2):
    while True:
        m = [[Fraction(rng.randint(-spread, spread)) for _ in range(n)] for _ in range(n)]
        if n == 0 or det(m) != 0:
            return m


def random_well_conditioned(rng, n):
    """Product of unipotent shears: integer inverse, moderate condition number.

    Keeps the singular values of conjugated differentials well away from zero
    so float spectra meet the 1e-9 tolerances.
    """
    m = identity(n)
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        shear = identity(n)
        shear[i][j] = Fraction(rng.choice((-1, 1)))
        m = mat_mul(m, shear)
    return m


def random_pos_def(rng, n, spread=1):
    a = [[Fraction(rng.randint(-spread, spread)) for _ in range(n)] for _ in range(n)]
    g = mat_mul(transpose(a), a)
    for i in range(n):
        g[i][i] += 1
    return g


def random_complex(rng, max_len=5, max_dim=4, k_choices=((1,), (1, 2, 1), (1, 3, 2, 3, 1)),
                   acyclic=False, min_degree=0):
    """Random exact FiniteComplex with known cohomology, plus a reference.

    Returns (complex, reference dict) where the reference lists cocycle
    vectors spanning each nonzero H^q.
    """
    kvec = list(rng.choice(k_choices))
    length = len(kvec) + 1
    dims = [rng.randint(1 if acyclic else 0, max_dim) for _ in range(length)]
    # choose ranks; acyclic forces r_{i-1} + r_i = dims[i]
    ranks = []
    prev = 0
    for i in range(length - 1):
        hi = min(dims[i] - prev, dims[i + 1])
        if acyclic:
            r = dims[i] - prev
            if r > dims[i + 1]:
                return random_complex(rng, max_len, max_dim, k_choices, acyclic, min_degree)
        else:
            r = rng.randint(0, max(hi, 0)) if hi > 0 else 0
        ranks.append(r)
        prev = r
    if acyclic and dims[-1] != prev:
        return random_complex(rng, max_len, max_dim, k_choices, acyclic, min_degree)

    base_changes = [random_well_conditioned(rng, d) for d in dims]
    diffs = []
    for i in range(length - 1):
        model = zeros(dims[i + 1], dims[i])
        r_prev = ranks[i - 1] if i > 0 else 0
        betti_i = dims[i] - r_prev - ranks[i]
        for t in range(ranks[i]):
            model[t][r_prev + betti_i + t] = Fraction(1)
        diffs.append(mat_mul(base_changes[i + 1], mat_mul(model, inverse(base_changes[i]))))
    grams = [random_pos_def(rng, d) for d in dims]
    cx = FiniteComplex(min_degree, dims, diffs, grams, kvec)

    reference = {}
    for i in range(length):
        r_prev = ranks[i - 1] if i > 0 else 0
        r_here = ranks[i] if i < length - 1 else 0
        betti_i = dims[i] - r_prev - r_here
        if betti_i <= 0:
            continue
        vecs = []
        for j in range(betti_i):
            col = [base_changes[i][row][r_prev + j] for row in range(dims[i])]
            vecs.append(col)
        reference[min_degree + i] = vecs
    return cx, reference


def twist_algebra(alg, rng):
    """Conjugate the structure constants by a random graded automorphism."""
    m = alg.dim
    phi = zeros(m, m)
    for d in sorted(set(alg.degrees)):
        idx = alg.degree_indices(d)
        block = random_invertible(rng, len(idx))
        for a, ia in enumerate(idx):
            for b, ib in enumerate(idx):
                phi[ia][ib] = block[a][b]
    inv = inverse(phi)
    cols = [[phi[i][j] for i in range(m)] for j in range(m)]
    brackets = {}
    for i in range(m):
        for j in range(i + 1, m):
            w = alg.bracket_vectors(cols[i], cols[j])
            coords = [sum(inv[a][b] * w[b] for b in range(m)) for a in range(m)]
            terms = {kk: c for kk, c in enumerate(coords) if c != 0}
            if terms:
                brackets[(i, j)] = terms
    return build_algebra(alg.degrees, brackets, name=alg.name + ":twisted")


def scaled_235(rng):
    a = Fraction(rng.randint(1, 5))
    b = Fraction(rng.randint(1, 5), rng.randint(1, 3))
    c = Fraction(-rng.randint(1, 4))
    return build_algebra(
        (-1, -1, -2, -3, -3),
        {(0, 1): {2: a}, (0, 2): {3: b}, (1, 2): {4: c}},
        name="235-scaled",
    )


def filiform5():
    return build_algebra(
        (-1, -1, -2, -3, -4),
        {(0, 1): {2: Fraction(1)}, (0, 2): {3: Fraction(1)}, (0, 3): {4: Fraction(1)}},
        name="filiform5",
    )


def random_graded_algebra(rng):
    choice = rng.randrange(6)
    if choice == 0:
        return abelian(rng.randint(1, 4), -rng.randint(1, 3))
    if choice == 1:
        return heisenberg(rng.randint(1, 2))
    if choice == 2:
        return scaled_235(rng)
    if choice == 3:
        return filiform5()
    if choice == 4:
        return twist_algebra(heisenberg(rng.randint(1, 2)), rng)
    return twist_algebra(scaled_235(rng), rng)


@pytest.fixture
def rng():
    return random.Random(20240817)

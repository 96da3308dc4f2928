"""Graded nilpotent Lie algebras from validated structure constants.

A GradedLieAlgebra is a basis X_1,...,X_m (0-based internally), a strictly
negative degree for each basis vector, and a sparse bracket table
[X_i, X_j] = sum_k c^k_ij X_k.  Construction checks antisymmetry, the Jacobi
identity and grading compatibility; each failure names the offending pair or
triple.  Nilpotency needs no check of its own: every bracket lands in the
summed degree, so it lowers the degree by at least 1, and the lower central
series reaches 0 after max-weight steps.

The basis must be ordered by non-increasing degree (weights |deg| ascending).
This costs no generality and guarantees that straightening in the universal
enveloping algebra terminates: a bracket always lands on later basis vectors.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    AntisymmetryViolation,
    DegenerateGenerators,
    DependentVectors,
    GradingViolation,
    JacobiViolation,
    OutOfRange,
    ZeroScale,
)
from .rational import frac, inverse, mat_mul, mat_vec, rank

# Lambda^5 of an 11-dimensional algebra has C(11, 5) = 462 forms; its
# cohomology takes about 5 s on a 2-CPU machine (heisenberg11 and abelian:11).
MAX_DIMENSION = 11


def _check_dimension(m):
    if m > MAX_DIMENSION:
        raise OutOfRange(f"algebra dimension {m} exceeds the limit {MAX_DIMENSION}")


class GradedLieAlgebra:
    """Immutable graded nilpotent Lie algebra over Q."""

    def __init__(self, degrees, brackets, name=""):
        # brackets: {(i, j): {k: Fraction}} with i < j, 0-based, validated
        _check_dimension(len(degrees))
        self.dim = len(degrees)
        self.degrees = tuple(int(d) for d in degrees)
        self.weights = tuple(-d for d in self.degrees)
        self.brackets = {
            pair: {k: frac(c) for k, c in terms.items() if c != 0}
            for pair, terms in brackets.items()
        }
        self.brackets = {p: t for p, t in self.brackets.items() if t}
        self.name = name
        _validate(self)

    def bracket(self, i, j):
        """[X_i, X_j] as a sparse {k: coefficient} dict."""
        if i == j:
            return {}
        if i < j:
            return dict(self.brackets.get((i, j), {}))
        return {k: -c for k, c in self.brackets.get((j, i), {}).items()}

    def bracket_vectors(self, u, v):
        """[u, v] for coordinate vectors u, v."""
        out = [Fraction(0)] * self.dim
        for i in range(self.dim):
            if u[i] == 0:
                continue
            for j in range(self.dim):
                if v[j] == 0:
                    continue
                for k, c in self.bracket(i, j).items():
                    out[k] += u[i] * v[j] * c
        return out

    def degree_indices(self, d):
        return [i for i, di in enumerate(self.degrees) if di == d]

    @property
    def homogeneous_dimension(self):
        return sum(self.weights)

    def dimension_vector(self):
        """(n_1, ..., n_r) with n_p = dim of the degree -p component."""
        r = max(self.weights)
        return tuple(sum(1 for w in self.weights if w == p) for p in range(1, r + 1))

    def is_standard_235(self):
        return (
            self.degrees == (-1, -1, -2, -3, -3)
            and self.brackets == _BRACKETS_235
        )

    def __repr__(self):
        label = self.name or f"dim {self.dim}"
        return f"GradedLieAlgebra({label}, degrees={self.degrees})"


def _validate(alg):
    m = alg.dim
    if m == 0:
        raise GradingViolation("algebra must have positive dimension")
    for i, d in enumerate(alg.degrees):
        if d >= 0:
            raise GradingViolation(f"degree of X_{i + 1} is {d}, must be negative")
    for i in range(m - 1):
        if alg.degrees[i] < alg.degrees[i + 1]:
            raise GradingViolation(
                f"basis must be ordered by non-increasing degree, "
                f"but deg X_{i + 1} = {alg.degrees[i]} < deg X_{i + 2} = {alg.degrees[i + 1]}"
            )
    for (i, j), terms in alg.brackets.items():
        if not (0 <= i < j < m):
            raise AntisymmetryViolation(f"bracket pair ({i + 1}, {j + 1}) out of order or range")
        for k in terms:
            if not 0 <= k < m:
                raise GradingViolation(f"bracket [X_{i + 1}, X_{j + 1}] hits invalid index {k + 1}")
            if alg.degrees[k] != alg.degrees[i] + alg.degrees[j]:
                raise GradingViolation(
                    f"[X_{i + 1}, X_{j + 1}] has a component on X_{k + 1}: "
                    f"deg {alg.degrees[k]} != {alg.degrees[i]} + {alg.degrees[j]}"
                )
    # Jacobi on all basis triples
    for i in range(m):
        for j in range(i + 1, m):
            for k in range(j + 1, m):
                acc = [Fraction(0)] * m
                for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                    inner = alg.bracket(a, b)
                    for t, ct in inner.items():
                        for s, cs in alg.bracket(t, c).items():
                            acc[s] += ct * cs
                if any(x != 0 for x in acc):
                    raise JacobiViolation(
                        f"Jacobi identity fails on (X_{i + 1}, X_{j + 1}, X_{k + 1})"
                    )


_BRACKETS_235 = {
    (0, 1): {2: Fraction(1)},
    (0, 2): {3: Fraction(1)},
    (1, 2): {4: Fraction(1)},
}


def build_algebra(degrees, brackets, name=""):
    """Construct and validate a GradedLieAlgebra.

    ``brackets`` maps 0-based pairs (i, j) with i < j to {k: coefficient}.
    """
    return GradedLieAlgebra(degrees, brackets, name=name)


def algebra_235():
    """The (2,3,5) algebra: [X1,X2]=X3, [X1,X3]=X4, [X2,X3]=X5."""
    return build_algebra((-1, -1, -2, -3, -3), _BRACKETS_235, name="235")


def heisenberg(n=1):
    """Heisenberg algebra h_{2n+1}: [X_{2i-1}, X_{2i}] = Z, degrees (-1,..,-1,-2)."""
    _check_dimension(2 * n + 1)
    degrees = (-1,) * (2 * n) + (-2,)
    brackets = {(2 * i, 2 * i + 1): {2 * n: Fraction(1)} for i in range(n)}
    return build_algebra(degrees, brackets, name=f"heisenberg{2 * n + 1}")


def abelian(m, degree=-1):
    """Abelian algebra of dimension m concentrated in one degree."""
    if degree >= 0:
        raise GradingViolation(f"degree {degree} must be negative")
    _check_dimension(m)
    return build_algebra((degree,) * m, {}, name=f"abelian:{m}:{degree}")


class GradedAutomorphism:
    """Lie algebra automorphism given by its matrix on the chosen basis.

    ``graded`` records whether the matrix is block diagonal with respect to
    the degree decomposition.
    """

    def __init__(self, alg, matrix, check=True):
        self.algebra = alg
        self.matrix = [[frac(x) for x in row] for row in matrix]
        if check:
            self._check()
        self.graded = all(
            self.matrix[i][j] == 0
            for i in range(alg.dim)
            for j in range(alg.dim)
            if alg.degrees[i] != alg.degrees[j]
        )

    def _check(self):
        alg = self.algebra
        if rank(self.matrix) != alg.dim:
            raise DegenerateGenerators("automorphism matrix is singular")
        cols = [[self.matrix[i][j] for i in range(alg.dim)] for j in range(alg.dim)]
        for i in range(alg.dim):
            for j in range(i + 1, alg.dim):
                lhs = alg.bracket_vectors(cols[i], cols[j])
                rhs = [Fraction(0)] * alg.dim
                for k, c in alg.bracket(i, j).items():
                    for t in range(alg.dim):
                        rhs[t] += c * cols[k][t]
                if lhs != rhs:
                    raise JacobiViolation(
                        f"map does not intertwine brackets on (X_{i + 1}, X_{j + 1})"
                    )

    def apply(self, v):
        return mat_vec(self.matrix, [frac(x) for x in v])

    def compose(self, other):
        if other.algebra is not self.algebra:
            raise DegenerateGenerators("automorphisms live on different algebras")
        return GradedAutomorphism(self.algebra, mat_mul(self.matrix, other.matrix), check=False)

    def inverse(self):
        return GradedAutomorphism(self.algebra, inverse(self.matrix), check=False)


def grading_automorphism(alg, t):
    """phi_t: multiplies the degree -k component by t^k.

    The sign convention follows the nonnegative cohomology weights: a basis
    vector of degree -k is scaled by t^k, so phi_t acts by t^(p_q) on pure H^q.
    """
    t = frac(t)
    if t == 0:
        raise ZeroScale("grading automorphism needs t != 0")
    matrix = [
        [t ** alg.weights[i] if i == j else Fraction(0) for j in range(alg.dim)]
        for i in range(alg.dim)
    ]
    return GradedAutomorphism(alg, matrix, check=False)


def automorphism_from_generators(alg, y1, y2):
    """The unique automorphism of the (2,3,5) algebra with X1 -> y1, X2 -> y2.

    Requires that y1, y2 project to a basis of g/[g,g]; the images of the
    remaining basis vectors are forced:
    X3 -> [y1,y2], X4 -> [y1,[y1,y2]], X5 -> [y2,[y1,y2]].
    The result is generally not graded.
    """
    if not alg.is_standard_235():
        raise GradingViolation("generator construction is specific to the (2,3,5) table")
    y1 = [frac(x) for x in y1]
    y2 = [frac(x) for x in y2]
    d = y1[0] * y2[1] - y1[1] * y2[0]
    if d == 0:
        raise DegenerateGenerators(
            f"degree -1 components {y1[:2]} and {y2[:2]} do not span g/[g,g]"
        )
    y3 = alg.bracket_vectors(y1, y2)
    y4 = alg.bracket_vectors(y1, y3)
    y5 = alg.bracket_vectors(y2, y3)
    cols = [y1, y2, y3, y4, y5]
    matrix = [[cols[j][i] for j in range(5)] for i in range(5)]
    return GradedAutomorphism(alg, matrix)


def is_generic_plane(alg, v1, v2):
    """True iff span(v1, v2) meets [g,g] = g_-2 + g_-3 trivially (for (2,3,5))."""
    if alg.degrees != (-1, -1, -2, -3, -3):
        raise GradingViolation("genericity test is specific to (2,3,5) gradings")
    v1 = [frac(x) for x in v1]
    v2 = [frac(x) for x in v2]
    if rank([v1, v2]) < 2:
        raise DependentVectors(f"vectors {v1} and {v2} are linearly dependent")
    return rank([v1[:2], v2[:2]]) == 2

"""Exact arithmetic in the simply connected (2,3,5) group.

Group elements are exponential coordinates (x_1, ..., x_5), exact rationals;
the product is the closed Baker-Campbell-Hausdorff evaluation

    z_1 = x_1 + y_1
    z_2 = x_2 + y_2
    z_3 = x_3 + y_3 + (x_1 y_2 - x_2 y_1)/2
    z_4 = x_4 + y_4 + (x_1 y_3 - x_3 y_1)/2 + (x_1 - y_1)(x_1 y_2 - x_2 y_1)/12
    z_5 = x_5 + y_5 + (x_2 y_3 - x_3 y_2)/2 + (x_2 - y_2)(x_1 y_2 - x_2 y_1)/12.

The lattice Gamma_0 generated by gamma_1 = exp(X_1) and gamma_2 = exp(X_2) is
cut out by four integrality congruences in these coordinates; characters of
Gamma_0 identify with the torus via the abelianization sending the two
generators to the standard basis of Z^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import BadGeneratorShape, DegenerateGenerators, NotUnimodular, OutOfRange
from .graded_lie import automorphism_from_generators, grading_automorphism
from .rational import frac


@dataclass(frozen=True)
class GroupElement:
    """Point of the (2,3,5) group in exponential coordinates."""

    coords: tuple

    def __init__(self, coords):
        coords = tuple(frac(x) for x in coords)
        if len(coords) != 5:
            raise BadGeneratorShape(f"need 5 coordinates, got {len(coords)}")
        object.__setattr__(self, "coords", coords)

    def inverse(self):
        return GroupElement(tuple(-x for x in self.coords))

    def power(self, k):
        """exp(x)^k = exp(k x): powers stay on the one-parameter subgroup."""
        return GroupElement(tuple(k * x for x in self.coords))

    def __repr__(self):
        return "(" + ", ".join(str(x) for x in self.coords) + ")"


IDENTITY = GroupElement((0, 0, 0, 0, 0))
GAMMA1 = GroupElement((1, 0, 0, 0, 0))
GAMMA2 = GroupElement((0, 1, 0, 0, 0))


def bch_multiply(x, y):
    """Exact BCH product in exponential coordinates."""
    x1, x2, x3, x4, x5 = x.coords
    y1, y2, y3, y4, y5 = y.coords
    w = x1 * y2 - x2 * y1
    return GroupElement((
        x1 + y1,
        x2 + y2,
        x3 + y3 + w / 2,
        x4 + y4 + (x1 * y3 - x3 * y1) / 2 + (x1 - y1) * w / 12,
        x5 + y5 + (x2 * y3 - x3 * y2) / 2 + (x2 - y2) * w / 12,
    ))


def multiply_all(*elements):
    out = IDENTITY
    for e in elements:
        out = bch_multiply(out, e)
    return out


def commutator(x, y):
    """[x, y] = x y x^(-1) y^(-1), by the closed form.

    log[exp x, exp y] has vanishing first two coordinates and
    (x1 y2 - x2 y1, x1 y3 - x3 y1 + (x1+y1)(x1 y2 - x2 y1)/2,
     x2 y3 - x3 y2 + (x2+y2)(x1 y2 - x2 y1)/2) above.
    """
    x1, x2, x3, _, _ = x.coords
    y1, y2, y3, _, _ = y.coords
    w = x1 * y2 - x2 * y1
    return GroupElement((
        0,
        0,
        w,
        x1 * y3 - x3 * y1 + (x1 + y1) * w / 2,
        x2 * y3 - x3 * y2 + (x2 + y2) * w / 2,
    ))


def power_word(k, l):
    """log(gamma_1^k gamma_2^l) = (k, l, kl/2, k^2 l/12, -k l^2/12)."""
    k, l = frac(k), frac(l)
    return GroupElement((k, l, k * l / 2, k * k * l / 12, -k * l * l / 12))


def gamma0_defects(x):
    """The four congruence expressions whose integrality defines Gamma_0."""
    x1, x2, x3, x4, x5 = x.coords
    u = x3 - x1 * x2 / 2
    return (
        x1,
        x2,
        u,
        x4 - x1 * x1 * x2 / 12 - (x1 + 1) / 2 * u,
        x5 + x1 * x2 * x2 / 12 + (x2 + 1) / 2 * u,
    )


def in_gamma0(x):
    """Membership in the lattice generated by exp(X_1) and exp(X_2)."""
    return all(v.denominator == 1 for v in gamma0_defects(x))


def apply_automorphism(phi, x):
    """exp . phi . log: automorphisms act linearly on exponential coordinates."""
    matrix = phi.matrix if hasattr(phi, "matrix") else phi
    coords = [sum(matrix[i][j] * x.coords[j] for j in range(5)) for i in range(5)]
    return GroupElement(coords)


@dataclass
class EmbeddingResult:
    phi: object             # automorphism with phi(Gamma) inside Gamma_0
    normalizer: object      # the generator-normalizing automorphism psi^(-1)
    k: int                  # smallest power putting the commutator generators in Gamma_0
    r: Fraction             # grading scale used, r = 2k
    images: list            # phi(omega_i), all members of Gamma_0


def embed_into_gamma0(alg235, generators):
    """Automorphism phi with phi(<omega_1..omega_5>) contained in Gamma_0.

    Requires generators in normal form: omega_3 in [G,G] and omega_4, omega_5
    in [G,[G,G]], with log omega_1, log omega_2 projecting onto a basis of
    g/[g,g].  Steps: normalize omega_1, omega_2 to gamma_1, gamma_2 by the
    generator automorphism, find the smallest k >= 1 with omega_i^k in
    Gamma_0 for i = 3,4,5, and compose with the grading automorphism at
    r = 2k; membership of every image is verified.
    """
    if len(generators) != 5:
        raise BadGeneratorShape(f"need 5 generators, got {len(generators)}")
    w1, w2, w3, w4, w5 = generators
    if any(x != 0 for x in w3.coords[:2]):
        raise BadGeneratorShape(f"omega_3 = {w3} is not in [G,G]")
    for name, w in (("omega_4", w4), ("omega_5", w5)):
        if any(x != 0 for x in w.coords[:3]):
            raise BadGeneratorShape(f"{name} = {w} is not in [G,[G,G]]")
    psi = automorphism_from_generators(alg235, list(w1.coords), list(w2.coords))
    norm = psi.inverse()
    normalized = [apply_automorphism(norm, w) for w in (w1, w2, w3, w4, w5)]
    tail = normalized[2:]
    k = _smallest_power_in_gamma0(tail)
    r = Fraction(2 * k)
    phi = grading_automorphism(alg235, r).compose(norm)
    images = [apply_automorphism(phi, w) for w in (w1, w2, w3, w4, w5)]
    outside = [g for g in images if not in_gamma0(g)]
    if outside:
        raise DegenerateGenerators(f"images {outside} escaped Gamma_0")
    return EmbeddingResult(phi=phi, normalizer=norm, k=k, r=r, images=images)


def _smallest_power_in_gamma0(elements):
    denominators = [x.denominator for e in elements for x in e.coords]
    bound = 2 * lcm(*denominators) if denominators else 2
    for k in range(1, bound + 1):
        if all(in_gamma0(e.power(k)) for e in elements):
            return k
    raise DegenerateGenerators("no power lands in Gamma_0")  # unreachable


# -- character torus ------------------------------------------------------------


@dataclass(frozen=True)
class CharacterPoint:
    """Point (s, t) of hom(Gamma_0, U(1)) = (R/Z)^2, with chi(gamma_i) = e^(2 pi i s_i).

    Coordinates are kept exact if given as rationals and float otherwise,
    always reduced mod 1.
    """

    s: object
    t: object

    def __init__(self, s, t):
        object.__setattr__(self, "s", _mod1(s))
        object.__setattr__(self, "t", _mod1(t))


def _mod1(x):
    if isinstance(x, float):
        return x - math.floor(x)
    x = frac(x)
    return x - (x.numerator // x.denominator)


def character_action(a, p):
    """Right action of GL(2, Z) on characters: (s, t) -> A^T (s, t) mod 1.

    chi . A evaluates chi on the images of the generators under the graded
    automorphism with matrix A on g_-1.
    """
    rows = [list(r) for r in a]
    if len(rows) != 2 or any(len(r) != 2 for r in rows):
        raise NotUnimodular(f"need a 2x2 matrix, got {a}")
    if any(int(x) != x for r in rows for x in r):
        raise NotUnimodular(f"matrix {a} must be integral")
    d = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    if d not in (1, -1):
        raise NotUnimodular(f"determinant {d} must be +1 or -1")
    s, t = p.s, p.t
    return CharacterPoint(rows[0][0] * s + rows[1][0] * t,
                          rows[0][1] * s + rows[1][1] * t)


# Longest walk character_orbit takes: each step keeps one exact point.
MAX_ORBIT_WORDS = 1_000_000


def character_orbit(p, words, rng):
    """Visit the orbit of p along a random walk of `words` generator steps.

    Each emitted point is the image of p under one prefix word in the
    standard generators of GL(2, Z); a numeric density probe, not a proof.
    Raises OutOfRange unless 1 <= words <= MAX_ORBIT_WORDS.
    """
    if not 1 <= words <= MAX_ORBIT_WORDS:
        raise OutOfRange(f"words = {words} outside 1..{MAX_ORBIT_WORDS}")
    gens = [
        ((1, 1), (0, 1)),
        ((1, 0), (1, 1)),
        ((0, 1), (1, 0)),
        ((1, -1), (0, 1)),
        ((1, 0), (-1, 1)),
    ]
    out = []
    q = p
    for _ in range(words):
        q = character_action(gens[rng.randrange(len(gens))], q)
        out.append(q)
    return out

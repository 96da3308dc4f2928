"""Analytic torsion of finite-dimensional graded complexes with inner products.

A FiniteComplex carries per degree a dimension, an exact positive definite
Gram matrix and a differential with D_{q+1} D_q = 0, plus order labels
k_q >= 1.  With exponents a_q subject to k_{q-1} a_{q-1} = k_q a_q = kappa,
the generalized Laplacians are

    Delta_q = (D_{q-1} D*_{q-1})^(a_{q-1}) + (D*_q D_q)^(a_q),

and the zeta derivative at zero of str(N Q_lambda Delta^{-s}) reduces to the
finite sum  zeta'_lambda(0) = -sum_q (-1)^q N_q sum_{mu > lambda} log mu.
The analytic torsion norm on the graded determinant line of cohomology is
exp(-zeta'_lambda(0) / 2 kappa) times the norm of the lambda-small subcomplex;
it is independent of lambda, of the N_q (subject to N_{q+1} - N_q = k_q) and
of rescaling the a_q, and all of those invariances are exposed as checks.

Adjoints D*_q = G_q^(-1) D_q^T G_{q+1} are formed once, exactly, for the
Laplacians; harmonic bases use D^T G instead, and spec+(D*_q D_q) is solved
as the symmetric-definite pencil (D_q^T G_{q+1} D_q, G_q).  At lambda = 0 an
exact oracle over the rationals arbitrates: det'(Delta_q) is
sdet_q^(a_q) sdet_(q-1)^(a_(q-1)), with sdet_q the determinant of D*_q D_q on
the coexact part (ker D_q)-perp, formed once per complex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np
import scipy.linalg

from .errors import (
    ConstraintViolated,
    CutoffOnSpectrum,
    ExponentConstraintViolated,
    InvalidRepresentatives,
    NotAcyclic,
    NotFloatRepresentable,
    NotPositiveDefinite,
    OutOfRange,
)
from .rational import (
    adjoint,
    charpoly,
    columns_to_matrix,
    det,
    harmonic_basis,
    identity,
    inverse,
    is_positive_definite,
    mat,
    mat_mul,
    nullspace,
    orthogonal_projection,
    rank,
    solve,
    transpose,
    zeros,
)

_SPECTRAL_TOL = 1e-12
_FLOAT_TINY = np.finfo(float).tiny

# Every complex in the tests has degrees of dimension <= 12 and at most 6
# degrees (the benchmark's: 6 and 6).  At the limits, a dense complex with
# small entries takes about 6 s through `torsion --check-invariance` on a
# 2-CPU machine.
MAX_DEGREE_DIM = 24
MAX_DEGREES = 12


class FiniteComplex:
    """Finite graded complex over Q with Gram inner products.

    Degrees run over min_degree .. min_degree + len(dims) - 1; diffs[i] maps
    degree min_degree + i to the next one and carries order label k[i].
    The complex is immutable: adjoints, ranks and harmonic projectors are
    formed once at construction, spectra and coexact determinants on first use.
    """

    def __init__(self, min_degree, dims, diffs, grams=None, k=None):
        self.min_degree = int(min_degree)
        self.dims = [int(x) for x in dims]
        n = len(self.dims)
        if n > MAX_DEGREES:
            raise OutOfRange(f"{n} degrees exceed the limit {MAX_DEGREES}")
        if any(not 0 <= d <= MAX_DEGREE_DIM for d in self.dims):
            raise OutOfRange(f"dimensions {self.dims} outside 0..{MAX_DEGREE_DIM}")
        self.diffs = [mat(d) if d else zeros(self.dims[i + 1], self.dims[i])
                      for i, d in enumerate(diffs)]
        if len(self.diffs) != max(n - 1, 0):
            raise ConstraintViolated(
                f"need {n - 1} differentials for {n} degrees, got {len(self.diffs)}"
            )
        self.grams = [mat(g) for g in grams] if grams else [identity(d) for d in self.dims]
        self.k = [int(x) for x in k] if k else [1] * max(n - 1, 0)
        if len(self.k) != max(n - 1, 0):
            raise ConstraintViolated(f"need {n - 1} order labels, got {len(self.k)}")
        if any(x < 1 for x in self.k):
            raise ConstraintViolated(f"order labels {self.k} must be >= 1")
        self._validate()
        self._adjoints = {self.degree(i): adjoint(d, self.grams[i], self.grams[i + 1])
                          for i, d in enumerate(self.diffs)}
        self._ranks = [rank(d) for d in self.diffs]
        self._harmonic = {}
        self._projectors = {}
        for q in self.degrees:
            if self.betti(q):
                h = harmonic_basis(self.diff(q), self.diff(q - 1), self.gram(q), self.dim(q))
                self._harmonic[q] = h
                self._projectors[q] = mat_mul(h, orthogonal_projection(h, self.gram(q)))
        self._spec_plus = {}
        self._coexact_det = {}

    def _validate(self):
        for i, (d, g) in enumerate(zip(self.dims, self.grams)):
            if len(g) != d or any(len(row) != d for row in g):
                raise ConstraintViolated(f"Gram at degree {self.degree(i)} has wrong shape")
            if d and not is_positive_definite(g):
                raise NotPositiveDefinite(f"Gram at degree {self.degree(i)} not positive definite")
        for i, dmat in enumerate(self.diffs):
            rows, cols = self.dims[i + 1], self.dims[i]
            if len(dmat) != rows or (rows and any(len(r) != cols for r in dmat)):
                raise ConstraintViolated(f"differential at degree {self.degree(i)} has wrong shape")
        for i in range(len(self.diffs) - 1):
            comp = mat_mul(self.diffs[i + 1], self.diffs[i])
            if any(x != 0 for row in comp for x in row):
                raise ConstraintViolated(
                    f"D_{self.degree(i + 1)} D_{self.degree(i)} != 0"
                )

    # -- indexing helpers -------------------------------------------------

    def degree(self, i):
        return self.min_degree + i

    @property
    def degrees(self):
        return range(self.min_degree, self.min_degree + len(self.dims))

    def index(self, q):
        return q - self.min_degree

    def dim(self, q):
        i = self.index(q)
        return self.dims[i] if 0 <= i < len(self.dims) else 0

    def gram(self, q):
        """Gram matrix of C^q; empty outside the stored range."""
        i = self.index(q)
        return self.grams[i] if 0 <= i < len(self.grams) else []

    def diff(self, q):
        """D_q: C^q -> C^(q+1); zero outside the stored range."""
        i = self.index(q)
        if 0 <= i < len(self.diffs):
            return self.diffs[i]
        return zeros(self.dim(q + 1), self.dim(q))

    def order(self, q):
        i = self.index(q)
        if 0 <= i < len(self.k):
            return self.k[i]
        return 1

    def adjoint(self, q):
        """D*_q = G_q^(-1) D_q^T G_{q+1}, exact, formed once per complex."""
        return self._adjoints.get(q) or zeros(self.dim(q), self.dim(q + 1))

    # -- exact structure ---------------------------------------------------

    def rank(self, q):
        """rank(D_q), formed once per complex; 0 outside the stored range."""
        i = self.index(q)
        return self._ranks[i] if 0 <= i < len(self._ranks) else 0

    def betti(self, q):
        return self.dim(q) - self.rank(q) - self.rank(q - 1)

    def is_acyclic(self):
        return all(self.betti(q) == 0 for q in self.degrees)

    def euler_characteristic(self):
        return sum(_sign(q) * self.dim(q) for q in self.degrees)

    def harmonic_basis(self, q):
        """Columns spanning ker D_q ∩ ker D*_{q-1}; exact, formed once per complex."""
        return self._harmonic.get(q) or [[] for _ in range(self.dim(q))]

    def harmonic_projection_of(self, q, vectors):
        """Exact orthogonal projections of columns onto the harmonic subspace.

        The projector H (H^T G H)^(-1) H^T G is formed once per complex.
        """
        p = self._projectors.get(q)
        if p is None:
            return [[] for _ in range(self.dim(q))]
        return mat_mul(p, vectors)

    def coexact_det(self, q):
        """det(D*_q D_q restricted to (ker D_q)-perp), exact; 1 when D_q = 0.

        On a basis C of the coexact part this is det(C^T D^T G D C) / det(C^T G C).
        Formed on first use.
        """
        if q in self._coexact_det:
            return self._coexact_det[q]
        out = Fraction(1)
        if self.rank(q):
            d, g = self.diff(q), self.gram(q)
            ker = nullspace(d)
            # rows spanning the coexact part: G-orthogonal to every kernel vector
            basis = nullspace(mat_mul(ker, g)) if ker else identity(self.dim(q))
            c = transpose(basis)
            dc = mat_mul(d, c)
            out = (det(mat_mul(transpose(dc), mat_mul(self.gram(q + 1), dc)))
                   / det(mat_mul(basis, mat_mul(g, c))))
        self._coexact_det[q] = out
        return out

    # -- spectra -------------------------------------------------------------

    def spec_plus(self, q):
        """Positive spectrum of D*_q D_q (floats, ascending).

        The count is pinned exactly to rank(D_q), so no floating tolerance
        decides what is zero.  NotFloatRepresentable names q when floats
        cannot hold the pencil or the float solver fails on it.
        """
        if q in self._spec_plus:
            return self._spec_plus[q]
        r = self.rank(q)
        if r == 0:
            self._spec_plus[q] = []
            return []
        d = self.diff(q)
        s = _float_matrix(mat_mul(transpose(d), mat_mul(self.gram(q + 1), d)), f"degree {q}")
        b = _float_matrix(self.gram(q), f"degree {q}")
        try:
            eigs = scipy.linalg.eigh(s, b, eigvals_only=True)
            if not np.isfinite(eigs).all():
                raise np.linalg.LinAlgError("non-finite eigenvalues")
        except np.linalg.LinAlgError as exc:
            raise NotFloatRepresentable(f"degree {q}: the float eigen-solve failed: {exc}") from None
        out = sorted(float(x) for x in eigs[-r:])
        self._spec_plus[q] = out
        return out


def _sign(q):
    """(-1)^q as an int, for negative q too."""
    return 1 - 2 * (q % 2)


def _float_matrix(m, where):
    """m as floats; NotFloatRepresentable, naming ``where``, if an entry over- or underflows."""
    try:
        out = np.array(m, dtype=float)
    except OverflowError:
        raise NotFloatRepresentable(f"{where}: an entry exceeds the float range") from None
    if np.count_nonzero(np.abs(out) >= _FLOAT_TINY) != sum(x != 0 for row in m for x in row):
        raise NotFloatRepresentable(f"{where}: a nonzero entry underflows the float range")
    return out


def _float(x, where):
    """The exact x as a float, through the range check of ``_float_matrix``."""
    return float(_float_matrix([[x]], where)[0, 0])


@dataclass
class TorsionResult:
    zeta_part: float
    finite_part: float
    total: float
    kappa: int
    cutoff: float
    zeta_prime: float  # zeta'_lambda(0) behind zeta_part; not in the report


def default_exponents(cx):
    """The minimal a with k_{q-1} a_{q-1} = k_q a_q: a_q = lcm(k)/k_q."""
    if not cx.k:
        return []
    kap = lcm(*cx.k)
    return [kap // kq for kq in cx.k]


def default_n_labels(cx):
    """N with N_{q+1} - N_q = k_q and N at the lowest degree equal to 0."""
    out = [0]
    for kq in cx.k:
        out.append(out[-1] + kq)
    return out


def _check_exponents(cx, a):
    if len(a) != len(cx.k):
        raise ExponentConstraintViolated(f"need {len(cx.k)} exponents, got {len(a)}")
    if any(x < 1 for x in a):
        raise ExponentConstraintViolated(f"exponents {a} must be positive integers")
    kappas = {cx.k[i] * a[i] for i in range(len(a))}
    if len(kappas) > 1:
        raise ExponentConstraintViolated(
            f"k_q a_q not constant: {[cx.k[i] * a[i] for i in range(len(a))]}"
        )
    return kappas.pop() if kappas else 1


def _check_n_labels(cx, n_labels):
    if len(n_labels) != len(cx.dims):
        raise ConstraintViolated(f"need {len(cx.dims)} N labels, got {len(n_labels)}")
    for i, kq in enumerate(cx.k):
        if n_labels[i + 1] - n_labels[i] != kq:
            raise ConstraintViolated(
                f"N_{cx.degree(i + 1)} - N_{cx.degree(i)} != k = {kq}"
            )


def _labels(cx, n_labels, a):
    """(a, kappa, n_labels) with the defaults filled in and both checked."""
    a = list(a) if a is not None else default_exponents(cx)
    kappa = _check_exponents(cx, a)
    n_labels = list(n_labels) if n_labels is not None else default_n_labels(cx)
    _check_n_labels(cx, n_labels)
    return a, kappa, n_labels


def laplacians(cx, a=None):
    """Exact matrices of Delta_q for all degrees; records kappa.

    Returns (list of matrices aligned with cx.degrees, kappa).
    """
    a, kappa, _ = _labels(cx, None, a)
    out = []
    for q in cx.degrees:
        n = cx.dim(q)
        acc = zeros(n, n)
        i = cx.index(q)
        if 0 <= i - 1 < len(a) and cx.dim(q - 1) > 0:
            m = mat_mul(cx.diff(q - 1), cx.adjoint(q - 1))
            acc = mat_add_power(acc, m, a[i - 1])
        if 0 <= i < len(a) and cx.dim(q + 1) > 0:
            m = mat_mul(cx.adjoint(q), cx.diff(q))
            acc = mat_add_power(acc, m, a[i])
        out.append(acc)
    return out, kappa


def mat_add_power(acc, m, e):
    p = m
    for _ in range(e - 1):
        p = mat_mul(p, m)
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(acc, p)]


def delta_spectrum(cx, q, a):
    """Nonzero spectrum of Delta_q assembled from the D*D spectra.

    Delta_q block-decomposes over the coexact part (eigenvalues nu^(a_q),
    nu in spec+(D*_q D_q)) and the exact part (nu^(a_{q-1}),
    nu in spec+(D*_{q-1} D_{q-1}), by the spectrum pairing with D D*).
    """
    i = cx.index(q)
    out = []
    if 0 <= i < len(a):
        out.extend(nu ** a[i] for nu in cx.spec_plus(q))
    if 0 <= i - 1 < len(a):
        out.extend(nu ** a[i - 1] for nu in cx.spec_plus(q - 1))
    return sorted(out)


def _guard_cutoff(spectra, lam):
    if not math.isfinite(lam) or lam < 0:
        raise ConstraintViolated(f"cutoff {lam} must be finite and nonnegative")
    # at lam = 0 the zero/positive split is pinned exactly by ranks
    if lam == 0:
        return
    for mu in spectra:
        if abs(mu - lam) <= _SPECTRAL_TOL * max(abs(mu), abs(lam)):
            raise CutoffOnSpectrum(f"cutoff {lam} collides with eigenvalue {mu}")


def zeta_prime_zero(cx, lam=0.0, n_labels=None, a=None):
    """zeta'_lambda(0) = -sum_q (-1)^q N_q sum_{mu in spec(Delta_q), mu > lambda} log mu."""
    a, _, n_labels = _labels(cx, n_labels, a)
    total = 0.0
    for q in cx.degrees:
        mus = delta_spectrum(cx, q, a)
        _guard_cutoff(mus, lam)
        s = sum(math.log(mu) for mu in mus if mu > lam)
        total -= _sign(q) * n_labels[cx.index(q)] * s
    return total


def zeta_at_zero(cx, lam=0.0, n_labels=None, a=None):
    """zeta_lambda(0) = str(N Q_lambda) as an exact integer."""
    a, _, n_labels = _labels(cx, n_labels, a)
    total = 0
    for q in cx.degrees:
        mus = delta_spectrum(cx, q, a)
        _guard_cutoff(mus, lam)
        total += _sign(q) * n_labels[cx.index(q)] * sum(1 for mu in mus if mu > lam)
    return total


def zeta_prime_zero_exact(cx, n_labels=None, a=None):
    """Exact oracle at lambda = 0: -sum (-1)^q N_q log det'(Delta_q).

    Delta_q is (D*_q D_q)^(a_q) on the coexact part and, by the spectrum
    pairing, (D*_(q-1) D_(q-1))^(a_(q-1)) on the exact part, so
    det'(Delta_q) = sdet_q^(a_q) sdet_(q-1)^(a_(q-1)) over Q; only the
    final logs, of numerator and denominator apart, are float, so det' may
    lie beyond the float range.
    """
    a, _, n_labels = _labels(cx, n_labels, a)
    total = 0.0
    for q in cx.degrees:
        i = cx.index(q)
        pd = Fraction(1)
        if i < len(a):
            pd *= cx.coexact_det(q) ** a[i]
        if i >= 1:
            pd *= cx.coexact_det(q - 1) ** a[i - 1]
        total -= _sign(q) * n_labels[i] * (math.log(pd.numerator) - math.log(pd.denominator))
    return total


def validate_reference(cx, reference):
    """Check cocycle bases: reference[q] is a list of vectors in C^q.

    Each vector must satisfy D_q v = 0 and the classes must form a basis of
    H^q; degrees with b_q = 0 may be omitted.
    """
    cleaned = {}
    for q in cx.degrees:
        vecs = reference.get(q, [])
        b = cx.betti(q)
        if len(vecs) != b:
            raise InvalidRepresentatives(
                f"degree {q} needs {b} representatives, got {len(vecs)}"
            )
        if not vecs:
            continue
        if any(len(v) != cx.dim(q) for v in vecs):
            raise InvalidRepresentatives(
                f"degree-{q} representatives need {cx.dim(q)} entries each, "
                f"got {[len(v) for v in vecs]}"
            )
        cols = columns_to_matrix([[Fraction(x) for x in v] for v in vecs], cx.dim(q))
        dq = cx.diff(q)
        img = mat_mul(dq, cols)
        if any(x != 0 for row in img for x in row):
            raise InvalidRepresentatives(f"a degree-{q} representative is not a cocycle")
        proj = cx.harmonic_projection_of(q, cols)
        g = mat_mul(mat_mul(transpose(proj), cx.gram(q)), proj)
        if det(g) == 0:
            raise InvalidRepresentatives(f"degree-{q} classes are linearly dependent")
        cleaned[q] = (cols, g)
    return cleaned


def torsion_norm(cx, reference=None, lam=0.0, n_labels=None, a=None):
    """Analytic torsion norm of the reference element of sdet H^*(C).

    reference maps q to a list of cocycle vectors spanning H^q; for acyclic
    complexes it may be omitted.  The finite part combines the exact harmonic
    Gram determinants with the (0, lambda] subcomplex torsion; the zeta part
    is exp(-zeta'_lambda(0)/2 kappa).
    """
    a, kappa, n_labels = _labels(cx, n_labels, a)
    reference = reference or {}
    cleaned = validate_reference(cx, reference)

    zp = zeta_prime_zero(cx, lam, n_labels, a)
    try:
        zeta_part = math.exp(-zp / (2 * kappa))
    except OverflowError:
        zeta_part = math.inf

    finite = 1.0
    for q, (_, gram_h) in cleaned.items():
        finite *= _float(det(gram_h), f"degree {q} harmonic Gram determinant") ** (_sign(q) / 2.0)
    # torsion of the (0, lambda] subcomplex: sdet(D*D restricted)^(-1/2)
    for q in cx.degrees:
        i = cx.index(q)
        if 0 <= i < len(a):
            small = [nu for nu in cx.spec_plus(q) if nu ** a[i] <= lam]
            for nu in small:
                finite *= nu ** (-_sign(q) / 2.0)
    # the norm is positive: 0.0 or inf is an underflow or overflow, not a value
    total = zeta_part * finite
    if not 0 < total < math.inf:
        raise NotFloatRepresentable(
            f"the torsion norm exp({-zp / (2 * kappa)!r}) * {finite!r} leaves the float range")
    return TorsionResult(
        zeta_part=zeta_part,
        finite_part=finite,
        total=total,
        kappa=kappa,
        cutoff=lam,
        zeta_prime=zp,
    )


def acyclic_torsion_squared(cx):
    """Exact square of the acyclic torsion: prod det(D*D|_L)^((-1)^(q+1))."""
    if not cx.is_acyclic():
        bad = [q for q in cx.degrees if cx.betti(q) != 0]
        raise NotAcyclic(f"nonzero cohomology in degrees {bad}")
    out = Fraction(1)
    for q in cx.degrees:
        out *= cx.coexact_det(q) ** -_sign(q)
    return out


def acyclic_torsion(cx):
    return math.sqrt(_float(acyclic_torsion_squared(cx), "acyclic torsion squared"))


def telescoping_check(cx, n_labels=None, a=None):
    """prod det(Delta_q)^((-1)^q N_q) == acyclic_torsion_squared^kappa, exactly.

    Both sides are rational for an acyclic complex; equality is exact.
    """
    if not cx.is_acyclic():
        raise NotAcyclic("telescoping identity needs an acyclic complex")
    a, kappa, n_labels = _labels(cx, n_labels, a)
    deltas, _ = laplacians(cx, a)
    lhs = Fraction(1)
    for q in cx.degrees:
        dq = deltas[cx.index(q)]
        if not dq:
            continue
        lhs *= Fraction(det(dq)) ** (_sign(q) * n_labels[cx.index(q)])
    return lhs == acyclic_torsion_squared(cx) ** kappa


def euler_heat_trace(cx, a=None, t=1.0):
    """str(e^(-t Delta)) evaluated spectrally; constant in t and equal to chi."""
    a, _, _ = _labels(cx, None, a)
    total = 0.0
    for q in cx.degrees:
        mus = delta_spectrum(cx, q, a)
        harmonic = cx.betti(q)
        total += _sign(q) * (harmonic + sum(math.exp(-t * mu) for mu in mus))
    return total


def z2_check(cx, lam=0.0, n_labels=None, a=None, tol=1e-9):
    """(1/2 kappa) zeta'_lambda(0) equals the Z2-graded form
    -(1/2) d/ds|_0 str_lambda((D*D)^(-s)), evaluated spectrally."""
    a, kappa, n_labels = _labels(cx, n_labels, a)
    lhs = zeta_prime_zero(cx, lam, n_labels, a) / (2 * kappa)
    rhs = 0.0
    for q in cx.degrees:
        i = cx.index(q)
        if 0 <= i < len(a):
            s = sum(math.log(nu) for nu in cx.spec_plus(q) if nu ** a[i] > lam)
            rhs += 0.5 * _sign(q) * s
    return _close(lhs, rhs, tol)


def _close(x, y, tol):
    return abs(x - y) <= tol * max(1.0, abs(x), abs(y))


def spectrum_pairing_check(cx):
    """mult(mu, D*_q D_q) = mult(mu, D_q D*_q) for mu > 0, via exact
    characteristic polynomials: they differ by a power of x."""
    for q in cx.degrees:
        if cx.dim(q) == 0 or cx.dim(q + 1) == 0:
            continue
        p1 = charpoly(mat_mul(cx.adjoint(q), cx.diff(q)))
        p2 = charpoly(mat_mul(cx.diff(q), cx.adjoint(q)))
        # x^m p1 = x^n p2 (n, m the two dimensions), as highest-first lists
        if p1 + [0] * len(p2) != p2 + [0] * len(p1):
            return False
    return True


# -- structural constructions ------------------------------------------------


def dual_complex(cx):
    """Transposed complex: (C')^q = (C^(-q))* with inverse Gram,
    (D')_q = (D_{-q-1})^T and k'_q = k_{-q-1}."""
    lo, hi = cx.min_degree, cx.min_degree + len(cx.dims) - 1
    min_degree = -hi
    dims = [cx.dim(-q) for q in range(min_degree, min_degree + len(cx.dims))]
    grams = [inverse(cx.gram(-q)) if cx.dim(-q) else []
             for q in range(min_degree, min_degree + len(cx.dims))]
    diffs = []
    korders = []
    for q in range(min_degree, min_degree + len(cx.dims) - 1):
        diffs.append(transpose(cx.diff(-q - 1)))
        korders.append(cx.order(-q - 1))
    return FiniteComplex(min_degree, dims, diffs, grams, korders)


def dual_reference(cx, reference):
    """Reference of the dual complex pairing dually with the given one.

    In degree q of the dual, representatives w in ker (D_{-q-1})^T satisfy
    <w, v_i> = delta_i against the degree -q reference classes.
    """
    cleaned = validate_reference(cx, reference or {})
    out = {}
    for q in cx.degrees:
        b = cx.betti(q)
        if b == 0:
            continue
        cols, _ = cleaned[q]
        rows = transpose(cx.diff(q - 1))
        ker_cols = nullspace(rows) if rows and rows[0] else identity(cx.dim(q))
        if not ker_cols:
            raise InvalidRepresentatives(f"dual kernel empty in degree {q}")
        # pairing matrix: rows = kernel basis, cols = reference vectors
        pairing = mat_mul(ker_cols, cols)
        coeffs = solve(transpose(pairing), identity(b))
        if coeffs is None:
            raise InvalidRepresentatives(f"dual pairing degenerate in degree {q}")
        out[-q] = mat_mul(transpose(coeffs), ker_cols)
    return out


def direct_sum(cx1, cx2):
    """Block direct sum; requires identical degree ranges and order labels."""
    if (cx1.min_degree, len(cx1.dims)) != (cx2.min_degree, len(cx2.dims)):
        raise ConstraintViolated("direct sum needs matching degree ranges")
    if cx1.k != cx2.k:
        raise ConstraintViolated("direct sum needs matching order labels")
    dims = [a + b for a, b in zip(cx1.dims, cx2.dims)]
    grams, diffs = [], []
    for i in range(len(dims)):
        g = zeros(dims[i], dims[i])
        _embed(g, cx1.grams[i], 0, 0)
        _embed(g, cx2.grams[i], cx1.dims[i], cx1.dims[i])
        grams.append(g)
    for i in range(len(dims) - 1):
        d = zeros(dims[i + 1], dims[i])
        _embed(d, cx1.diffs[i], 0, 0)
        _embed(d, cx2.diffs[i], cx1.dims[i + 1], cx1.dims[i])
        diffs.append(d)
    return FiniteComplex(cx1.min_degree, dims, diffs, grams, list(cx1.k))


def _embed(target, block, row0, col0):
    for i, row in enumerate(block):
        for j, x in enumerate(row):
            target[row0 + i][col0 + j] = x


def shift_complex(cx):
    """Shift the grading by one: new degree q holds the old degree q + 1."""
    return FiniteComplex(cx.min_degree - 1, list(cx.dims),
                         [ [row[:] for row in d] for d in cx.diffs],
                         [ [row[:] for row in g] for g in cx.grams],
                         list(cx.k))

"""Universal enveloping algebra of a graded nilpotent Lie algebra in PBW form.

Elements are finite rational combinations of ordered monomials
X_1^(e_1) ... X_m^(e_m), stored as {exponent tuple: coefficient}.  Products
are straightened with X_j X_i = X_i X_j - sum_k c^k_ij X_k for i < j; because
the basis is ordered by ascending weight, every bracket lands on strictly
later basis vectors and the recursion terminates.  The Heisenberg order of a
monomial is sum_i e_i * weight(i), where a degree -k direction has weight k.

Every product goes through one integer kernel, ``UEA._product``, as
``rational.mat_mul`` does for rational matrices.  Each row of the left factor
and each column of the right factor is cleared once to integer coefficients
over one denominator; entry (i, j) of A @ B collects sum_t A[i][t]·B[t][j]
in one integer dict and becomes one Fraction per nonzero coefficient, over
d_row·d_col.  Two UEA entries meet through the memoised table of
straightened monomial pairs.  A rational entry on either side is an integer
that scales the other entry's dict, so a rational matrix times an operator
matrix needs no monomial product.  Element products are 1×1 operator
products.  The structure constants are read once per ``UEA``, integral ones
as ints, so on every preset the pair table holds integers; a rational
constant stays a Fraction there, and the result is exact either way.

The formal adjoint convention is X_i* = -X_i (integration by parts against
the bi-invariant Haar measure of the nilpotent group), extended as an
anti-automorphism: each monomial's reversed word is straightened once.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import AlgebraMismatch
from .rational import frac


class UEA:
    """Straightening context for one algebra; memoizes words and monomial pairs."""

    def __init__(self, alg):
        self.algebra = alg
        self.m = alg.dim
        self.weights = alg.weights
        # [X_b, X_a] for b > a, integral constants as ints
        self._brackets = {
            (b, a): {k: c.numerator if c.denominator == 1 else c
                     for k, c in alg.bracket(b, a).items()}
            for b in range(self.m) for a in range(b)
        }
        self._gen_cache = {}
        self._pair_cache = {}

    def element(self, coeffs=None):
        return UEAElement(self, dict(coeffs) if coeffs else {})

    def zero(self):
        return UEAElement(self, {})

    def generator(self, i):
        e = [0] * self.m
        e[i] = 1
        return UEAElement(self, {tuple(e): Fraction(1)})

    def scalar(self, c):
        c = frac(c)
        return UEAElement(self, {(0,) * self.m: c} if c else {})

    def monomial_order(self, exps):
        return sum(e * w for e, w in zip(exps, self.weights))

    def monomials_of_order(self, k):
        """All exponent tuples of Heisenberg order exactly k, deterministic order."""
        out = []

        def rec(i, remaining, acc):
            if i == self.m:
                if remaining == 0:
                    out.append(tuple(acc))
                return
            w = self.weights[i]
            for e in range(remaining // w + 1):
                rec(i + 1, remaining - e * w, acc + [e])

        rec(0, k, [])
        return out

    def _straighten(self, word):
        """PBW normal form of the product of generators indexed by ``word``.

        The rewrite X_b X_a -> X_a X_b + [X_b, X_a] (b > a) either removes an
        adjacent inversion or shortens the word, so the recursion terminates;
        brackets only hit heavier basis vectors by the degree-ordering of the
        basis.  Returns {exponent tuple: coefficient}, the coefficients
        integers when the structure constants are.
        """
        cached = self._gen_cache.get(word)
        if cached is not None:
            return cached
        inv = next((i for i in range(len(word) - 1) if word[i] > word[i + 1]), None)
        if inv is None:
            exps = [0] * self.m
            for i in word:
                exps[i] += 1
            result = {tuple(exps): 1}
        else:
            b, a = word[inv], word[inv + 1]
            left, right = word[:inv], word[inv + 2:]
            result = {}
            for exps, c in self._straighten(left + (a, b) + right).items():
                _acc(result, exps, c)
            for k, ck in self._brackets[b, a].items():
                for exps, c in self._straighten(left + (k,) + right).items():
                    _acc(result, exps, c * ck)
        self._gen_cache[word] = result
        return result

    @staticmethod
    def _word(exps):
        return tuple(i for i, e in enumerate(exps) for _ in range(e))

    def _mono_mul(self, a, b):
        """X^a · X^b straightened, as a tuple of (exponents, coefficient)."""
        out = self._pair_cache.get((a, b))
        if out is None:
            out = tuple(self._straighten(self._word(a) + self._word(b)).items())
            self._pair_cache[a, b] = out
        return out

    def _product(self, left, right):
        """Rows of UEAElements: the product of cleared rows ``left`` by cleared
        columns ``right`` (see ``_cleared``).

        A UEA entry is an integer dict, a rational one an int that scales the
        dict it meets.  The sum over t stays in integers; each nonzero
        coefficient becomes one Fraction over d_row·d_col, so a zero product
        builds no Fraction at all.
        """
        pairs, mono_mul, zero = self._pair_cache, self._mono_mul, self.zero()
        rows = []
        for xs, dx in left:
            row = []
            for ys, dy in right:
                acc = {}
                for t, x in xs.items():
                    y = ys.get(t)
                    if y is None:
                        continue
                    if type(x) is int:
                        for e, c in y.items():
                            acc[e] = acc.get(e, 0) + x * c
                    elif type(y) is int:
                        for e, c in x.items():
                            acc[e] = acc.get(e, 0) + c * y
                    else:
                        for ea, ca in x.items():
                            for eb, cb in y.items():
                                c = ca * cb
                                mono = pairs.get((ea, eb))
                                for e, cm in mono_mul(ea, eb) if mono is None else mono:
                                    acc[e] = acc.get(e, 0) + c * cm
                den = dx * dy
                out = {e: Fraction(v, den) for e, v in acc.items() if v}
                row.append(UEAElement(self, out) if out else zero)
            rows.append(row)
        return rows


def _cleared(vectors):
    """Each vector of entries as ({t: ints}, d), entry t being ints / d.

    d > 0 is the lcm of every denominator in the vector.  A UEAElement's ints
    is an {exponents: int} dict, a rational entry's an int (``frac`` refuses
    a float).  Zero entries are left out.
    """
    out = []
    for v in vectors:
        nz = {}
        for t, x in enumerate(v):
            x = x.coeffs if isinstance(x, UEAElement) else frac(x)
            if x:
                nz[t] = x
        d = lcm(*(c.denominator for x in nz.values()
                  for c in (x.values() if isinstance(x, dict) else (x,))))
        out.append(({t: {e: c.numerator * (d // c.denominator) for e, c in x.items()}
                     if isinstance(x, dict) else x.numerator * (d // x.denominator)
                     for t, x in nz.items()}, d))
    return out


def _acc(d, key, val):
    new = d.get(key, 0) + val
    if new:
        d[key] = new
    else:
        d.pop(key, None)


def same_algebra(a, b):
    return a is b or (a.degrees == b.degrees and a.brackets == b.brackets)


class UEAElement:
    """Finitely supported rational combination of PBW monomials."""

    __slots__ = ("uea", "coeffs")

    def __init__(self, uea, coeffs):
        self.uea = uea
        self.coeffs = {k: v for k, v in coeffs.items() if v}

    def _check(self, other):
        if not same_algebra(self.uea.algebra, other.uea.algebra):
            raise AlgebraMismatch("operands live over different algebras")

    def __add__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            _acc(out, k, v)
        return UEAElement(self.uea, out)

    def __sub__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            _acc(out, k, -v)
        return UEAElement(self.uea, out)

    def __neg__(self):
        return UEAElement(self.uea, {k: -v for k, v in self.coeffs.items()})

    def scale(self, c):
        c = frac(c)
        if c == 0:
            return self.uea.zero()
        return UEAElement(self.uea, {k: c * v for k, v in self.coeffs.items()})

    def __mul__(self, other):
        if not isinstance(other, UEAElement):
            return self.scale(other)
        self._check(other)
        return self.uea._product(_cleared([[self]]), _cleared([[other]]))[0][0]

    def __eq__(self, other):
        return (isinstance(other, UEAElement)
                and same_algebra(self.uea.algebra, other.uea.algebra)
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def is_zero(self):
        return not self.coeffs

    def order(self):
        """Heisenberg order: max weighted degree of the support; None for 0."""
        if not self.coeffs:
            return None
        return max(self.uea.monomial_order(e) for e in self.coeffs)

    def constant_term(self):
        return self.coeffs.get((0,) * self.uea.m, Fraction(0))

    def adjoint(self):
        """Formal adjoint: anti-automorphism with X_i* = -X_i."""
        uea = self.uea
        out = {}
        for exps, c in self.coeffs.items():
            c = -c if sum(exps) % 2 else c
            # reversed monomial X_m^(e_m) ... X_1^(e_1), straightened once
            for e, cm in uea._straighten(uea._word(exps)[::-1]).items():
                out[e] = out.get(e, 0) + c * cm
        return UEAElement(uea, out)

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for exps in sorted(self.coeffs):
            c = self.coeffs[exps]
            mono = "·".join(
                f"X{i + 1}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(exps) if e
            ) or "1"
            parts.append(f"({c})·{mono}")
        return " + ".join(parts)


class UEAOperatorMatrix:
    """Matrix of UEA elements acting between graded spaces.

    Rows index the target basis, columns the source basis.  Composition is
    the usual matrix product with noncommutative entry multiplication; UEA
    coefficients of the left factor act after (to the left of) the right's.
    """

    def __init__(self, uea, entries, cols=0):
        self.uea = uea
        self.entries = entries
        self.rows = len(entries)
        self.cols = len(entries[0]) if entries else cols

    @classmethod
    def from_scalar(cls, uea, matrix, cols=0):
        """A rational matrix as order-0 operators; ``cols`` sizes a 0-row matrix."""
        return cls(uea, [[uea.scalar(x) for x in row] for row in matrix], cols)

    def order(self):
        orders = [e.order() for row in self.entries for e in row if not e.is_zero()]
        return max(orders) if orders else 0

    def __matmul__(self, other):
        """Operator product; ``other`` is an operator or a rational matrix."""
        if isinstance(other, UEAOperatorMatrix):
            if not same_algebra(self.uea.algebra, other.uea.algebra):
                raise AlgebraMismatch("operands live over different algebras")
            rows, cols, entries = other.rows, other.cols, other.entries
        else:
            # a 0-row rational matrix carries no column count: it has 0 columns
            rows, cols, entries = len(other), len(other[0]) if other else 0, other
        if self.cols != rows or any(len(row) != cols for row in entries):
            raise AlgebraMismatch(f"shape mismatch: {self.rows}x{self.cols} @ {rows}x{cols}")
        return self._times(_cleared(self.entries), entries, cols)

    def __rmatmul__(self, scalar_matrix):
        """A rational matrix on the left times this operator."""
        inner = len(scalar_matrix[0]) if scalar_matrix else self.rows
        if inner != self.rows or any(len(row) != inner for row in scalar_matrix):
            raise AlgebraMismatch(f"shape mismatch: {len(scalar_matrix)}x{inner} @ "
                                  f"{self.rows}x{self.cols}")
        return self._times(_cleared(scalar_matrix), self.entries, self.cols)

    def _times(self, left, entries, cols):
        """Cleared rows ``left`` times the ``cols`` columns of ``entries``."""
        right = _cleared([row[j] for row in entries] for j in range(cols))
        return UEAOperatorMatrix(self.uea, self.uea._product(left, right), cols)

    def scale(self, c):
        return UEAOperatorMatrix(self.uea, [[e.scale(c) for e in row] for row in self.entries],
                                 self.cols)

    def is_zero(self):
        return all(e.is_zero() for row in self.entries for e in row)

    def __eq__(self, other):
        return (isinstance(other, UEAOperatorMatrix)
                and self.rows == other.rows and self.cols == other.cols
                and all(a == b for ra, rb in zip(self.entries, other.entries)
                        for a, b in zip(ra, rb)))

    def order_zero_part(self):
        """The associated-graded (order 0) part as a rational matrix."""
        return [[e.constant_term() for e in row] for row in self.entries]

    def entry_records(self):
        """Sorted (row, col, exponent tuple, coefficient) records; deterministic."""
        records = []
        for i, row in enumerate(self.entries):
            for j, e in enumerate(row):
                for exps in sorted(e.coeffs):
                    records.append((i, j, exps, e.coeffs[exps]))
        return records


def formal_adjoint(op, gram_source, gram_target):
    """Adjoint of op: (source, G_s) -> (target, G_t) with X_i* = -X_i.

    For an order-0 operator this is the Gram-conjugated transpose
    G_s^(-1) op^T G_t; UEA entries are additionally star-reversed.
    """
    from .rational import inverse

    uea = op.uea
    starred = [[op.entries[j][i].adjoint() for j in range(op.rows)]
               for i in range(op.cols)]
    mid = UEAOperatorMatrix(uea, starred)
    gs_inv = inverse(gram_source)
    return gs_inv @ (mid @ gram_target)

"""Universal enveloping algebra of a graded nilpotent Lie algebra in PBW form.

Elements are finite rational combinations of ordered monomials
X_1^(e_1) ... X_m^(e_m), stored as {exponent tuple: coefficient}.  Products
are straightened with X_j X_i = X_i X_j - sum_k c^k_ij X_k for i < j; because
the basis is ordered by ascending weight, every bracket lands on strictly
later basis vectors and the recursion terminates.  The Heisenberg order of a
monomial is sum_i e_i * weight(i), where a degree -k direction has weight k.

The formal adjoint convention is X_i* = -X_i (integration by parts against
the bi-invariant Haar measure of the nilpotent group), extended as an
anti-automorphism.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import AlgebraMismatch
from .rational import frac


class UEA:
    """Straightening context for one algebra; memoizes monomial * generator."""

    def __init__(self, alg):
        self.algebra = alg
        self.m = alg.dim
        self.weights = alg.weights
        self._gen_cache = {}

    def element(self, coeffs=None):
        return UEAElement(self, dict(coeffs) if coeffs else {})

    def zero(self):
        return UEAElement(self, {})

    def one(self):
        return UEAElement(self, {(0,) * self.m: Fraction(1)})

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
        basis.  Returns {exponent tuple: coefficient}.
        """
        cached = self._gen_cache.get(word)
        if cached is not None:
            return cached
        inv = next((i for i in range(len(word) - 1) if word[i] > word[i + 1]), None)
        if inv is None:
            exps = [0] * self.m
            for i in word:
                exps[i] += 1
            result = {tuple(exps): Fraction(1)}
        else:
            b, a = word[inv], word[inv + 1]
            left, right = word[:inv], word[inv + 2:]
            result = {}
            for exps, c in self._straighten(left + (a, b) + right).items():
                _acc(result, exps, c)
            for k, ck in self.algebra.bracket(b, a).items():
                for exps, c in self._straighten(left + (k,) + right).items():
                    _acc(result, exps, c * ck)
        self._gen_cache[word] = result
        return result

    @staticmethod
    def _word(exps):
        return tuple(i for i, e in enumerate(exps) for _ in range(e))

    def _mono_mul(self, a, b):
        """X^a · X^b as a dict, straightened."""
        return self._straighten(self._word(a) + self._word(b))


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
        out = {}
        for ea, ca in self.coeffs.items():
            for eb, cb in other.coeffs.items():
                c = ca * cb
                for e, cm in self.uea._mono_mul(ea, eb).items():
                    _acc(out, e, c * cm)
        return UEAElement(self.uea, out)

    def __rmul__(self, other):
        return self.scale(other)

    def __eq__(self, other):
        return (isinstance(other, UEAElement)
                and same_algebra(self.uea.algebra, other.uea.algebra)
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def is_zero(self):
        return not self.coeffs

    def order(self):
        """Heisenberg order: max weighted degree of the support; -inf for 0."""
        if not self.coeffs:
            return None
        return max(self.uea.monomial_order(e) for e in self.coeffs)

    def order_part(self, k):
        """Component of Heisenberg order exactly k."""
        return UEAElement(self.uea, {
            e: c for e, c in self.coeffs.items() if self.uea.monomial_order(e) == k
        })

    def constant_term(self):
        return self.coeffs.get((0,) * self.uea.m, Fraction(0))

    def adjoint(self):
        """Formal adjoint: anti-automorphism with X_i* = -X_i."""
        out = self.uea.zero()
        for exps, c in self.coeffs.items():
            total = sum(exps)
            acc = self.uea.scalar(c * (-1) ** total)
            # reversed monomial: X_m^(e_m) ... X_1^(e_1), re-straightened
            for i in range(self.uea.m - 1, -1, -1):
                for _ in range(exps[i]):
                    acc = acc * self.uea.generator(i)
            out = out + acc
        return out

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

    def __init__(self, uea, entries):
        self.uea = uea
        self.entries = entries
        self.rows = len(entries)
        self.cols = len(entries[0]) if entries else 0

    @classmethod
    def zero(cls, uea, rows, cols):
        return cls(uea, [[uea.zero() for _ in range(cols)] for _ in range(rows)])

    @classmethod
    def from_scalar(cls, uea, matrix):
        return cls(uea, [[uea.scalar(x) for x in row] for row in matrix])

    def order(self):
        orders = [e.order() for row in self.entries for e in row if not e.is_zero()]
        return max(orders) if orders else 0

    def __matmul__(self, other):
        if isinstance(other, UEAOperatorMatrix):
            if self.cols != other.rows:
                raise AlgebraMismatch(
                    f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}"
                )
            entries = [
                [
                    _sum_elements(self.uea,
                                  [self.entries[i][t] * other.entries[t][j]
                                   for t in range(self.cols)])
                    for j in range(other.cols)
                ]
                for i in range(self.rows)
            ]
            return UEAOperatorMatrix(self.uea, entries)
        # scalar rational matrix on the right
        entries = [
            [
                _sum_elements(self.uea,
                              [self.entries[i][t].scale(other[t][j])
                               for t in range(self.cols)])
                for j in range(len(other[0]))
            ]
            for i in range(self.rows)
        ]
        return UEAOperatorMatrix(self.uea, entries)

    def __rmatmul__(self, scalar_matrix):
        entries = [
            [
                _sum_elements(self.uea,
                              [self.entries[t][j].scale(scalar_matrix[i][t])
                               for t in range(self.rows)])
                for j in range(self.cols)
            ]
            for i in range(len(scalar_matrix))
        ]
        return UEAOperatorMatrix(self.uea, entries)

    def __add__(self, other):
        entries = [[a + b for a, b in zip(ra, rb)]
                   for ra, rb in zip(self.entries, other.entries)]
        return UEAOperatorMatrix(self.uea, entries)

    def __sub__(self, other):
        entries = [[a - b for a, b in zip(ra, rb)]
                   for ra, rb in zip(self.entries, other.entries)]
        return UEAOperatorMatrix(self.uea, entries)

    def scale(self, c):
        return UEAOperatorMatrix(self.uea, [[e.scale(c) for e in row] for row in self.entries])

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


def _sum_elements(uea, elements):
    out = uea.zero()
    for e in elements:
        out = out + e
    return out


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

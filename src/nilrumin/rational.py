"""Exact linear algebra over the rationals.

Matrices are lists of rows, entries fractions.Fraction (plain ints are
accepted); vectors are lists.  The kernel computes in integers: each operand
row (or column) is cleared once to integer entries over one denominator by
``_cleared``, and a Fraction is built only for each output entry.
``mat_mul`` (and ``mat_vec`` through it) sums integer products and divides
once per entry.  ``row_echelon`` is the one elimination: fraction-free
Gauss–Jordan, whose integer rows over the last pivot d are the reduced row
echelon form.  ``rank`` and ``column_space`` read its pivots; ``nullspace``,
``solve`` and ``inverse`` read each output entry off it as one Fraction
(entry / d), with no back-substitution.  ``det`` and ``is_positive_definite``
run their own Bareiss passes; ``charpoly`` runs Faddeev–LeVerrier on the
integer matrix s·a and rescales its coefficients by powers of s.  Nothing in
this module touches floating point.

The exact Hodge theory of a complex with Gram matrices (adjoint,
pseudo-inverse, harmonic basis, orthogonal projection) is here too, shared by
every caller.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from operator import mul


def frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError(f"float {x!r} in exact arithmetic; pass a Fraction or 'p/q' string")
    return Fraction(x)


def mat(rows):
    """Deep-copy a matrix, coercing entries to Fraction."""
    return [[frac(x) for x in row] for row in rows]


def zeros(r, c):
    return [[Fraction(0)] * c for _ in range(r)]


def identity(n):
    return [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]


def transpose(a):
    return [list(col) for col in zip(*a)] if a else []


def mat_mul(a, b):
    """a·b with Fraction entries; [] when either factor has no rows.

    The rows of a and the columns of b are cleared once, so each entry is one
    integer dot product over the product of two denominators.
    """
    if not a or not b:
        return []
    k, m = len(b), len(b[0])
    if any(len(row) != k for row in a) or any(len(row) != m for row in b):
        raise ValueError(f"cannot multiply: {len(a)}x{len(a[0])} by {k}x{m} "
                         "(or ragged rows)")
    cols = _cleared(zip(*b))
    return [[Fraction(sum(map(mul, ra, cb)), da * db) for cb, db in cols]
            for ra, da in _cleared(a)]


def mat_vec(a, v):
    return [row[0] for row in mat_mul(a, [[x] for x in v])] if v else [Fraction(0)] * len(a)


def _cleared(vectors):
    """Each vector v as (ints, d) with v = ints / d, d the lcm of v's denominators.

    Scaling a row by d > 0 changes neither its kernel, its row space nor the
    sign of any minor it enters.
    """
    out = []
    for v in vectors:
        d = lcm(*(x.denominator for x in v))
        out.append(([x.numerator * (d // x.denominator) for x in v], d))
    return out


def row_echelon(a):
    """Fraction-free (Bareiss) Gauss–Jordan on the denominator-cleared copy of a.

    Returns (integer rows, pivot columns).  Each pivot step eliminates its
    column from every other row, above and below, with the exact
    (x·piv − f·y) // prev; at the end every pivot equals the last one, d, the
    rest of each pivot column is 0, and rows / d is the reduced echelon form.
    """
    m = [ints for ints, _ in _cleared(a)]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    prev = 1
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        top = m[r]
        piv = top[c]
        for i in range(rows):
            fi = m[i][c]
            if i == r or (fi == 0 and piv == prev):
                continue
            m[i] = [(x * piv - fi * y) // prev for x, y in zip(m[i], top)]
        prev = piv
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rank(a):
    return len(row_echelon(a)[1])


def nullspace(a):
    """Basis of ker(a) as a list of Fraction column vectors: one per free
    column f, with 1 at f and 0 at the other free columns."""
    ech, pivots = row_echelon(a)
    cols = len(a[0]) if a else 0
    d = ech[0][pivots[0]] if pivots else 1
    basis = []
    for f in sorted(set(range(cols)) - set(pivots)):
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for row, c in zip(ech, pivots):
            v[c] = Fraction(-row[f], d)
        basis.append(v)
    return basis


def column_space(a):
    """Basis of the column space: the pivot columns of ``a`` itself."""
    return [[row[c] for row in a] for c in row_echelon(a)[1]]


def columns_to_matrix(cols, nrows=None):
    if not cols:
        return [[] for _ in range(nrows)] if nrows else []
    return [[col[i] for col in cols] for i in range(len(cols[0]))]


def solve(a, b):
    """One solution of a·x = b, or None if inconsistent; free variables are 0.

    ``b`` may be a vector or a matrix (multiple right-hand sides); the result
    has the matching shape.  Read off the reduced form of [a | b].
    """
    vector_rhs = b and not isinstance(b[0], list)
    bm = [[x] for x in b] if vector_rhs else b
    rows, cols = len(a), (len(a[0]) if a else 0)
    rhs = len(bm[0]) if bm else 0
    aug = [[frac(x) for x in a[i]] + [frac(y) for y in bm[i]] for i in range(rows)]
    ech, pivots = row_echelon(aug)
    if pivots and pivots[-1] >= cols:
        return None
    d = ech[0][pivots[0]] if pivots else 1
    sol = [[Fraction(0)] * rhs for _ in range(cols)]
    for row, c in zip(ech, pivots):
        sol[c] = [Fraction(x, d) for x in row[cols:]]
    if vector_rhs:
        return [row[0] for row in sol]
    return sol


def inverse(a):
    inv = solve(a, identity(len(a)))
    if inv is None:
        raise ZeroDivisionError("matrix is singular")
    return inv


def det(a):
    """Determinant via Bareiss on the row-cleared matrix, over the product of
    the row denominators."""
    n = len(a)
    if n == 0:
        return Fraction(1)
    cleared = _cleared(a)
    m = [ints for ints, _ in cleared]
    scale = prod(d for _, d in cleared)
    prev = 1
    sign = 1
    for c in range(n - 1):
        pr = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pr is None:
            return Fraction(0)
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            sign = -sign
        for i in range(c + 1, n):
            for j in range(c + 1, n):
                m[i][j] = (m[i][j] * m[c][c] - m[i][c] * m[c][j]) // prev
            m[i][c] = 0
        prev = m[c][c]
    return Fraction(sign * m[n - 1][n - 1], scale)


def charpoly(a):
    """Coefficients of det(x·I − a), highest power first (monic), exact.

    Faddeev–LeVerrier on the integer matrix A = s·a, s the lcm of a's
    denominators: every M_k is an integer matrix, each c_k(A) an integer
    (the division by k is exact), and c_k(a) = c_k(A)/s^k.  O(n^4) integer
    arithmetic, fine for the small matrices this package handles.
    """
    n = len(a)
    cleared = _cleared(a)
    s = lcm(*(d for _, d in cleared))
    big = [[x * (s // d) for x in ints] for ints, d in cleared]
    coeffs = [Fraction(1)]
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        # c_k = -tr(A·M_k)/k, then M_{k+1} = A·M_k + c_k·I
        cols = list(zip(*m))
        am = [[sum(map(mul, row, col)) for col in cols] for row in big]
        c = -sum(am[i][i] for i in range(n)) // k
        coeffs.append(Fraction(c, s ** k))
        for i in range(n):
            am[i][i] += c
        m = am
    return coeffs


def adjoint(a, gram_src, gram_dst):
    """Adjoint of a: (src, gram_src) -> (dst, gram_dst), i.e. G_src^-1 aT G_dst,
    solved with no inverse formed; [] for an empty a, as mat_mul gives."""
    if not a or not a[0]:
        return []
    return solve(gram_src, mat_mul(transpose(a), gram_dst))


def pseudo_inverse(a, gram_src, gram_dst):
    """Moore–Penrose inverse a⁺ of a: (src, gram_src) -> (dst, gram_dst).  a⁺y
    is the x G_src-orthogonal to ker a with a·x the G_dst-projection of y onto
    img a: one solve of aT G_dst a x = aT G_dst y, K G_src x = 0 (K's rows span ker a)."""
    at_g = mat_mul(transpose(a), gram_dst)
    kernel = nullspace(a)
    return solve(mat_mul(at_g, a) + mat_mul(kernel, gram_src),
                 at_g + zeros(len(kernel), len(a)))


def harmonic_basis(d_q, d_prev, gram_q, n):
    """Columns spanning ker d_q ∩ ker d*_{q-1} in a degree of dimension n.

    ker d*_{q-1} = ker(d_{q-1}T G_q), as G_{q-1}^-1 is invertible: no inverse.
    """
    rows = d_q + mat_mul(transpose(d_prev), gram_q) if d_prev else d_q
    if not rows:
        return identity(n)
    return columns_to_matrix(nullspace(rows), n)


def orthogonal_projection(h, gram):
    """(HT G H)^-1 HT G: coordinates, in the columns of h, of the
    G-orthogonal projection onto their span."""
    ht_g = mat_mul(transpose(h), gram)
    return mat_mul(inverse(mat_mul(ht_g, h)), ht_g)


def is_positive_definite(a):
    """Sylvester's criterion on a symmetric matrix, in one Bareiss pass.

    With no pivoting, the k-th Bareiss pivot of the row-cleared matrix is its
    k-th leading principal minor, which has the sign of a's (each row was
    scaled by a positive denominator).
    """
    n = len(a)
    if any(a[i][j] != a[j][i] for i in range(n) for j in range(i)):
        return False
    m = [ints for ints, _ in _cleared(a)]
    prev = 1
    for c in range(n):
        piv = m[c][c]
        if piv <= 0:
            return False
        for i in range(c + 1, n):
            fi = m[i][c]
            m[i] = [0] * (c + 1) + [(x * piv - fi * y) // prev
                                    for x, y in zip(m[i][c + 1:], m[c][c + 1:])]
        prev = piv
    return True


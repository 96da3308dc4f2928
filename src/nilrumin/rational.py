"""Exact linear algebra over the rationals.

Matrices are lists of rows, entries fractions.Fraction; vectors are lists.
Row reduction first clears denominators per row and then runs the
fraction-free Bareiss elimination, so all intermediate entries are integers.
Nothing in this module touches floating point.

The exact Hodge theory of a complex with Gram matrices (adjoint, harmonic
basis, orthogonal projection) is here too, shared by every caller.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


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
    if not a or not b:
        return []
    n, k, m = len(a), len(b), len(b[0])
    bt = transpose(b)
    return [[sum(ra[t] * cb[t] for t in range(k)) for cb in bt] for ra in a]


def mat_vec(a, v):
    return [sum(row[j] * v[j] for j in range(len(v))) for row in a]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a, s):
    s = frac(s)
    return [[s * x for x in row] for row in a]


def mat_eq(a, b):
    if len(a) != len(b):
        return False
    return all(ra == rb for ra, rb in zip(a, b))


def is_zero_matrix(a):
    return all(x == 0 for row in a for x in row)


def _integer_rows(a):
    """Scale each row by the lcm of denominators; kernels and row spaces are unchanged."""
    out = []
    for row in a:
        m = lcm(*(x.denominator for x in row)) if row else 1
        out.append([int(x * m) for x in row])
    return out


def row_echelon(a):
    """Fraction-free (Bareiss) row echelon form.

    Returns (echelon rows as ints, pivot column list).  The input is not
    modified.  Works on the denominator-cleared copy of ``a``.
    """
    m = _integer_rows(a)
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
        piv = m[r][c]
        for i in range(r + 1, rows):
            fi = m[i][c]
            if fi == 0 and piv == prev:
                continue
            for j in range(cols):
                m[i][j] = (m[i][j] * piv - fi * m[r][j]) // prev
        prev = piv
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rank(a):
    if not a or not a[0]:
        return 0
    return len(row_echelon(a)[1])


def nullspace(a):
    """Basis of ker(a) as a list of Fraction column vectors."""
    if not a:
        return []
    cols = len(a[0])
    ech, pivots = row_echelon(a)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        # back-substitute the pivot coordinates
        for r in range(len(pivots) - 1, -1, -1):
            c = pivots[r]
            s = sum((Fraction(ech[r][j]) * v[j] for j in range(c + 1, cols)),
                    start=Fraction(0))
            v[c] = -s / Fraction(ech[r][c])
        basis.append(v)
    return basis


def column_space(a):
    """Basis of the column space: the pivot columns of ``a`` itself."""
    if not a or not a[0]:
        return []
    _, pivots = row_echelon(a)
    return [[row[c] for row in a] for c in pivots]


def columns_to_matrix(cols, nrows=None):
    if not cols:
        return [[] for _ in range(nrows)] if nrows else []
    return [[col[i] for col in cols] for i in range(len(cols[0]))]


def solve(a, b):
    """One solution of a·x = b, or None if inconsistent.

    ``b`` may be a vector or a matrix (multiple right-hand sides); the result
    has the matching shape.
    """
    vector_rhs = b and not isinstance(b[0], list)
    bm = [[x] for x in b] if vector_rhs else b
    rows, cols = len(a), (len(a[0]) if a else 0)
    rhs = len(bm[0]) if bm else 0
    aug = [[frac(x) for x in a[i]] + [frac(y) for y in bm[i]] for i in range(rows)]
    ech, pivots = row_echelon(aug)
    if any(p >= cols for p in pivots):
        return None
    sol = [[Fraction(0)] * rhs for _ in range(cols)]
    for k in range(rhs):
        for r in range(len(pivots) - 1, -1, -1):
            c = pivots[r]
            s = Fraction(ech[r][cols + k])
            for j in range(c + 1, cols):
                s -= Fraction(ech[r][j]) * sol[j][k]
            sol[c][k] = s / ech[r][c]
    # consistency: rows of zeros in a-part must have zero rhs
    for r in range(len(pivots), rows):
        for k in range(rhs):
            if ech[r][cols + k] != 0:
                return None
    if vector_rhs:
        return [row[0] for row in sol]
    return sol


def inverse(a):
    n = len(a)
    inv = solve(a, identity(n))
    if inv is None:
        raise ZeroDivisionError("matrix is singular")
    return inv


def det(a):
    """Determinant via Bareiss on the Fraction matrix (denominators tracked)."""
    n = len(a)
    if n == 0:
        return Fraction(1)
    scale = Fraction(1)
    m = []
    for row in a:
        mult = lcm(*(x.denominator for x in row))
        scale *= mult
        m.append([int(x * mult) for x in row])
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
    return Fraction(sign * m[n - 1][n - 1]) / scale


def charpoly(a):
    """Coefficients of det(x·I − a), highest power first (monic), exact.

    Faddeev–LeVerrier recursion; O(n^4) Fraction arithmetic, fine for the
    small matrices this package handles.
    """
    n = len(a)
    coeffs = [Fraction(1)]
    m = identity(n)
    for k in range(1, n + 1):
        # c_k = -tr(a·M_k)/k, then M_{k+1} = a·M_k + c_k·I
        am = mat_mul(a, m)
        c = -sum(am[i][i] for i in range(n)) / k
        coeffs.append(c)
        for i in range(n):
            am[i][i] += c
        m = am
    return coeffs


def adjoint(a, gram_src, gram_dst):
    """Adjoint of a: (src, gram_src) -> (dst, gram_dst), i.e. G_src^-1 aT G_dst."""
    return mat_mul(inverse(gram_src), mat_mul(transpose(a), gram_dst))


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


def leading_principal_minors(a):
    return [det([row[:k] for row in a[:k]]) for k in range(1, len(a) + 1)]


def is_positive_definite(a):
    """Sylvester's criterion on a symmetric matrix."""
    if any(a[i][j] != a[j][i] for i in range(len(a)) for j in range(i)):
        return False
    return all(m > 0 for m in leading_principal_minors(a))


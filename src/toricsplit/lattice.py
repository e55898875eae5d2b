"""Exact integer linear algebra on numpy object arrays.

Everything here works over Z with arbitrary-precision Python ints: matrices
and vectors are numpy arrays of dtype=object, so intermediate values (Smith
multipliers in particular) can grow without silent overflow.  Matrices are
row-major; a vector is a 1-d array.
"""

import math

import numpy as np


class NotSquare(ValueError):
    """Matrix inversion was asked for a non-square matrix."""


class NotUnimodular(ValueError):
    """Matrix has determinant different from +1 or -1."""


def _as_array(data, ndim, what):
    a = np.array(data, dtype=object)
    if a.ndim != ndim:
        raise ValueError(f"expected a {ndim}-d {what}, got ndim={a.ndim}")
    for x in a.flat:
        if not isinstance(x, (int, np.integer)):
            raise ValueError(f"non-integer entry {x!r}")
    return a


def as_matrix(data):
    """Coerce nested sequences (or an array) to a 2-d object array of ints."""
    return _as_array(data, 2, "matrix")


def as_vector(data):
    """Coerce a sequence (or an array) to a 1-d object array of ints."""
    return _as_array(data, 1, "vector")


def identity(n):
    m = np.zeros((n, n), dtype=object)
    np.fill_diagonal(m, 1)
    return m


def _eliminate(m):
    """Fraction-free Gauss-Jordan elimination (Bareiss-Montante) on [m | I].

    Step k swaps in a nonzero pivot from below if needed, then replaces
    every other row r by (a_kk * r - a_rk * row k) / (previous pivot); the
    division is exact by Sylvester's identity.  Afterwards the left half is
    det * I and the right half det * m^-1, both up to the swaps' sign.
    Returns (det, adj), or (0, None) when some column has no pivot.
    """
    a = as_matrix(m)
    n, cols = a.shape
    if n != cols:
        raise NotSquare(f"expected a square matrix, got {n}x{cols}")
    a = np.concatenate([a, identity(n)], axis=1)
    sign, prev = 1, 1
    for k in range(n):
        piv = next((r for r in range(k, n) if a[r, k] != 0), None)
        if piv is None:
            return 0, None
        if piv != k:
            a[[k, piv]] = a[[piv, k]]
            sign = -sign
        pivot_row = a[k].copy()
        a = (a[k, k] * a - a[:, k:k + 1] * pivot_row) // prev
        a[k] = pivot_row
        prev = pivot_row[k]
    return sign * prev, sign * a[:, n:]


def determinant(m):
    """Exact determinant of a square matrix."""
    return _eliminate(m)[0]


def adjugate(m):
    """(det m, adj m) of a square matrix, with m @ adj == adj @ m == det * I.

    One elimination gives both; a singular matrix, which has no pivot in
    some column, gets its adjugate from the determinants of its minors.
    """
    det, adj = _eliminate(m)
    if adj is None:
        a = as_matrix(m)
        n = len(a)
        adj = np.array([[(-1) ** (i + j) * determinant(np.delete(np.delete(a, j, 0), i, 1))
                         for j in range(n)] for i in range(n)], dtype=object)
    return det, adj


def unimodular_inverse(m):
    """Exact inverse of a matrix in GL_n(Z), which is det * adj."""
    det, adj = _eliminate(m)
    if det not in (1, -1):
        raise NotUnimodular(f"matrix has determinant {det}")
    return det * adj


def _exgcd(a, b):
    """Return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def smith_normal_form(m):
    """Smith normal form with transforms.

    Returns (U, S, V) with U, V unimodular, S = U @ m @ V diagonal,
    diagonal entries non-negative and d_1 | d_2 | ... .
    """
    s = as_matrix(m).copy()
    rows, cols = s.shape
    u = identity(rows)
    v = identity(cols)

    def row_op(t, i):
        # plain elimination when the pivot divides; a gcd combination
        # otherwise, which strictly shrinks the pivot (termination)
        if s[i, t] % s[t, t] == 0:
            q = s[i, t] // s[t, t]
            s[i] = s[i] - q * s[t]
            u[i] = u[i] - q * u[t]
            return
        g, x, y = _exgcd(s[t, t], s[i, t])
        p, q = s[t, t] // g, s[i, t] // g
        rt, ri = s[t].copy(), s[i].copy()
        s[t], s[i] = x * rt + y * ri, -q * rt + p * ri
        rt, ri = u[t].copy(), u[i].copy()
        u[t], u[i] = x * rt + y * ri, -q * rt + p * ri

    def col_op(t, j):
        if s[t, j] % s[t, t] == 0:
            q = s[t, j] // s[t, t]
            s[:, j] = s[:, j] - q * s[:, t]
            v[:, j] = v[:, j] - q * v[:, t]
            return
        g, x, y = _exgcd(s[t, t], s[t, j])
        p, q = s[t, t] // g, s[t, j] // g
        ct, cj = s[:, t].copy(), s[:, j].copy()
        s[:, t], s[:, j] = x * ct + y * cj, -q * ct + p * cj
        ct, cj = v[:, t].copy(), v[:, j].copy()
        v[:, t], v[:, j] = x * ct + y * cj, -q * ct + p * cj

    t = 0
    while t < min(rows, cols):
        # smallest nonzero entry of the trailing block as pivot
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if s[i, j] != 0 and (best is None or abs(s[i, j]) < best[0]):
                    best = (abs(s[i, j]), i, j)
        if best is None:
            break
        _, bi, bj = best
        if bi != t:
            s[[t, bi]] = s[[bi, t]]
            u[[t, bi]] = u[[bi, t]]
        if bj != t:
            s[:, [t, bj]] = s[:, [bj, t]]
            v[:, [t, bj]] = v[:, [bj, t]]
        while True:
            for i in range(t + 1, rows):
                if s[i, t] != 0:
                    row_op(t, i)
            for j in range(t + 1, cols):
                if s[t, j] != 0:
                    col_op(t, j)
            if all(s[i, t] == 0 for i in range(t + 1, rows)) and \
               all(s[t, j] == 0 for j in range(t + 1, cols)):
                d = s[t, t]
                bad = next(((i, j) for i in range(t + 1, rows)
                            for j in range(t + 1, cols) if s[i, j] % d != 0),
                           None)
                if bad is None:
                    break
                s[t] = s[t] + s[bad[0]]
                u[t] = u[t] + u[bad[0]]
        t += 1
    for i in range(min(rows, cols)):
        if s[i, i] < 0:
            s[i] = -s[i]
            u[i] = -u[i]
    return u, s, v


def solve_integral(a, b):
    """Some integer solution x of a @ x = b, or None if there is none.

    When the solution is not unique, the free parameters of the Smith
    back-substitution are set to zero, so the result is deterministic.
    """
    mat = as_matrix(a)
    vec = as_vector(b)
    rows, cols = mat.shape
    if len(vec) != rows:
        raise ValueError(f"shape mismatch: {rows} rows vs vector of length {len(vec)}")
    u, s, v = smith_normal_form(mat)
    c = u @ vec
    y = np.zeros(cols, dtype=object)
    for i in range(min(rows, cols)):
        d = s[i, i]
        if d == 0:
            if c[i] != 0:
                return None
        else:
            if c[i] % d != 0:
                return None
            y[i] = c[i] // d
    for i in range(min(rows, cols), rows):
        if c[i] != 0:
            return None
    return v @ y


def rank(m):
    """Exact rank over Q via fraction-free row elimination."""
    a = as_matrix(m).copy()
    rows, cols = a.shape
    rk = 0
    row = 0
    for col in range(cols):
        piv = next((r for r in range(row, rows) if a[r, col] != 0), None)
        if piv is None:
            continue
        if piv != row:
            a[[row, piv]] = a[[piv, row]]
        for r in range(row + 1, rows):
            if a[r, col] != 0:
                a[r] = a[r] * a[row, col] - a[row] * a[r, col]
                # keep entries small
                g = math.gcd(*a[r])
                if g > 1:
                    a[r] = a[r] // g
        rk += 1
        row += 1
        if row == rows:
            break
    return rk

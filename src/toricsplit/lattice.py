"""Exact integer linear algebra on numpy arrays.

Everything here works over Z without silent overflow.  Matrices and vectors
are numpy arrays of dtype=object holding Python ints, so intermediate values
(Smith multipliers in particular) can grow freely.  int64 results come only
from the batched elimination `_bareiss` and the products `_exact_matmul` and
`_exact_product`, each when a checked bound proves every value fits, and from
`_narrow`; no other module chooses between int64 and Python ints.  Matrices
are row-major; a vector is a 1-d array.
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


def _narrow(a):
    """An exact integer array in int64 when every entry fits, else unchanged."""
    try:
        return a.astype(np.int64)
    except OverflowError:
        return a


def _largest(a):
    """The largest |entry| of an integer array, as a Python int (0 if empty)."""
    return max(int(a.max(initial=0)), -int(a.min(initial=0)))


def _exact_matmul(a, b):
    """a @ b exactly, with numpy's broadcasting, for int64 or object arrays:
    in int64 when k * max|a| * max|b| < 2^63 (k = a.shape[-1], each maximum
    taken at least 1), which bounds every partial sum, else in Python ints."""
    bound = a.shape[-1] * max(_largest(a), 1) * max(_largest(b), 1)
    dtype = np.int64 if bound < 2 ** 63 else object
    return a.astype(dtype, copy=False) @ b.astype(dtype, copy=False)


def _exact_product(*factors):
    """The elementwise product of the factors exactly, with numpy's
    broadcasting, for int64 or object arrays: in int64 when the product of
    their largest |entries| (each taken at least 1) is below 2^63, which
    bounds every entry, else in Python ints."""
    bound = math.prod(max(_largest(f), 1) for f in factors)
    dtype = np.int64 if bound < 2 ** 63 else object
    out = factors[0].astype(dtype, copy=False)
    for f in factors[1:]:
        out = out * f.astype(dtype, copy=False)
    return out


def _fits_elimination(n, e):
    """Whether `_bareiss` runs in int64 on n x n matrices of largest |entry| e."""
    return (math.isqrt(n * e * e) + 1) ** n < 2 ** 31


def _bareiss(mats, adjugates):
    """(dets, adjs) of a stack of square integer matrices, exactly.

    One fraction-free elimination (Bareiss) runs on the whole (k, n, n)
    stack.  Step c swaps a row with a nonzero entry in column c up to row
    c, then replaces each later row r by (a_cc * r - a_rc * row c) /
    (previous pivot), exactly by Sylvester's identity; the last pivot is
    the determinant up to the swaps' sign.  At a step where every previous
    pivot of the stack is +-1, as on unimodular cones, the division is a
    multiplication by it, skipped when all are 1.  A matrix with no pivot
    in some column has det 0 and is set to the identity for the remaining
    steps.

    With `adjugates` the identity is appended and the rows above the pivot
    are updated too (Montante), so the appended block ends as the adjugate
    up to sign; otherwise adjs is None.  Before step c only its first c
    columns differ from (previous pivot) * I, so only those are stored; a
    row swap swaps the columns not yet stored instead, undone at the end.
    Singular matrices get their adjugates from the determinants of their
    minors, in one further call.

    Every entry written is a minor of m, or of [m | I], which is one of m
    up to sign.  By Hadamard a j x j minor is below (isqrt(n e^2) + 1)^j,
    e the largest |entry|.  When (isqrt(n e^2) + 1)^n < 2^31 every product
    of two minors is below 2^62, and the elimination runs in int64;
    otherwise in Python ints.
    """
    k, n = len(mats), mats.shape[1]
    dtype = np.int64 if _fits_elimination(n, _largest(mats)) else object
    # a[row, column, matrix]: every update runs along the stack, contiguously
    a = np.zeros((n, 2 * n if adjugates else n, k), dtype=dtype)
    a[:, :n] = mats.transpose(1, 2, 0)
    reset = np.zeros(a.shape[:2] + (1,), dtype=dtype)
    reset[:, :n, 0] = np.eye(n, dtype=np.int64)
    sign = np.ones(k, dtype=np.int64)
    prev = np.ones(k, dtype=dtype)
    singular = np.zeros(k, dtype=bool)
    perm = np.tile(np.arange(n)[:, None], (1, k))
    for c in range(n):
        stored = n + c if adjugates else n
        r = c + np.argmax(a[c:, c] != 0, axis=0)
        swap = np.flatnonzero(r != c)
        row = a[c, :stored, swap].copy()
        a[c, :stored, swap] = a[r[swap], :stored, swap]
        a[r[swap], :stored, swap] = row
        perm[c, swap], perm[r[swap], swap] = perm[r[swap], swap], perm[c, swap]
        sign[swap] *= -1
        dead = a[c, c] == 0
        singular |= dead
        a[:, :, dead] = reset
        prev[dead] = 1
        pivot = a[c, c].copy()
        pivot_row = a[c].copy()
        low = 0 if adjugates else c + 1
        rest = pivot * a[low:, c + 1:stored] - a[low:, c:c + 1] * pivot_row[c + 1:stored]
        if (abs(prev) != 1).any():
            rest //= prev
        elif (prev != 1).any():
            rest *= prev  # x // p == x * p when every p is +-1
        a[low:, c + 1:stored] = rest
        a[c] = pivot_row
        if adjugates:
            a[:, stored] = -a[:, c]
            a[c, stored] = prev
        prev = pivot
    dets = np.where(singular, 0, sign * prev)
    if not adjugates:
        return dets, None
    adjs = np.empty((k, n, n), dtype=dtype)
    adjs[np.arange(k), :, perm] = a[:, n:].transpose(1, 2, 0)
    adjs *= sign[:, None, None]
    dead = np.flatnonzero(singular)
    if len(dead):
        # adj[i, j] = (-1)^(i+j) det(m without row j and column i)
        keep = np.array([[j for j in range(n) if j != i] for i in range(n)],
                        dtype=np.intp).reshape(n, n - 1)
        minors = mats[dead][:, keep[:, None, :, None], keep[None, :, None, :]]
        cofactors, _ = _bareiss(minors.reshape(len(dead) * n * n, n - 1, n - 1), False)
        signs = (-1) ** np.add.outer(np.arange(n), np.arange(n))
        adjs[dead] = (signs * cofactors.reshape(len(dead), n, n)).transpose(0, 2, 1)
    return dets, adjs


def determinant(m):
    """Exact determinant of a square matrix."""
    return adjugate(m)[0]


def adjugate(m):
    """(det m, adj m) of a square matrix, with m @ adj == adj @ m == det * I."""
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise NotSquare(f"expected a square matrix, got {a.shape[0]}x{a.shape[1]}")
    dets, adjs = _bareiss(a[None], True)
    return int(dets[0]), adjs[0].astype(object)


def unimodular_inverse(m):
    """Exact inverse of a matrix in GL_n(Z), which is det * adj."""
    det, adj = adjugate(m)
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

    def op(s, u, t, i):
        # clear s[i, t] by row operations, recorded in u; on the views s.T,
        # v.T it clears s[t, i] by column operations.  Plain elimination when
        # the pivot divides; a gcd combination otherwise, which strictly
        # shrinks the pivot (termination)
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
                    op(s, u, t, i)
            for j in range(t + 1, cols):
                if s[t, j] != 0:
                    op(s.T, v.T, t, j)
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


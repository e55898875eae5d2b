"""Reference Smith normal form with separate row and column elimination.

This is the earlier library `smith_normal_form`, kept as a test oracle for
`toricsplit.lattice.smith_normal_form`, which runs one elimination step on
the matrix and on its transpose.  U fixes the class vectors the CLI prints,
so the two must agree entry by entry, not only up to unimodular change.
"""

from toricsplit.lattice import _exgcd, as_matrix, identity


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

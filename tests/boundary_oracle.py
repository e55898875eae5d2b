"""Dense reference for the reduced cohomology of full subcomplexes.

This is the earlier library path, kept as a test oracle for the sparse
elimination in `toricsplit.cohomology`: each boundary map is a dense
Python-list matrix over the faces listed by size, and its rank comes from a
row-by-row fraction-free elimination over Q.
"""

import functools
import math

from toricsplit.lattice import as_matrix


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


def reduced_dims(faces_by_size):
    """Reduced rational cohomology dims, index k -> dim of degree k-1.

    faces_by_size[k] lists the size-k faces as sorted tuples; the empty face
    is always present, so the empty complex has a single unit in degree -1.
    """
    top = len(faces_by_size) - 1
    ranks = []
    for s in range(top + 1):
        rows = faces_by_size[s + 1] if s + 1 <= top else ()
        cols = faces_by_size[s]
        if not rows or not cols:
            ranks.append(0)
            continue
        col_index = {f: i for i, f in enumerate(cols)}
        mat = [[0] * len(cols) for _ in rows]
        for ri, face in enumerate(rows):
            for pos in range(len(face)):
                sub = face[:pos] + face[pos + 1:]
                mat[ri][col_index[sub]] = (-1) ** pos
        ranks.append(rank(mat))
    dims = []
    for s in range(top + 1):
        below = ranks[s - 1] if s >= 1 else 0
        dims.append(len(faces_by_size[s]) - ranks[s] - below)
    return tuple(dims)


@functools.cache
def _sized_faces(complex_):
    """Per size, the complex's faces as (sorted tuple, vertex mask) pairs."""
    return [[(f, sum(1 << j for j in f)) for f in faces] for faces in complex_.faces_by_size]


def subset_dims(complex_, mask, top):
    """Padded dims (length top+1, index i -> degree i-1) of the full
    subcomplex on the vertices of `mask`."""
    buckets = [[f for f, bits in faces if bits & ~mask == 0]
               for faces in _sized_faces(complex_)]
    while len(buckets) > 1 and not buckets[-1]:
        buckets.pop()
    dims = reduced_dims(buckets)
    return tuple(dims[i] if i < len(dims) else 0 for i in range(top + 1))

"""Line-bundle cohomology on smooth complete toric fans, exactly.

The cohomology of O(D) decomposes over the character lattice: the piece in
degree m is the reduced simplicial cohomology (one degree down) of the full
subcomplex of the fan's face complex on the rays with <m, v_j> < -a_j, so it
depends only on that sign mask.  The degree box [-R, R]^n is scanned in fixed
blocks: each block counts its degrees per distinct mask and weights the counts
by the mask's cohomology.  The adaptive radius doubles, rescanning the box,
until neither of the two outermost shells contributes.  A box of more than
2^30 degrees is refused with ValueError.  All ranks are exact.

On top of that sit the (strongly) exceptional collection checks: Ext groups
between line bundles are cohomology of coefficient differences.
"""

import heapq
import itertools
from dataclasses import dataclass

import numpy as np

from . import lattice
from .divisor import _coeffs, divisor_class
from .fan import fan_product

_INT64_SAFE = 2 ** 31
_BLOCK = 2 ** 18
_MAX_BOX_POINTS = 2 ** 30


class FactorNotStronglyExceptional(RuntimeError):
    """A factor collection passed to a product is not strongly exceptional."""


class NotExceptionalMember(RuntimeError):
    """A line bundle with nonvanishing higher self-Ext; impossible on a valid fan."""


# ---------------------------------------------------------------------------
# reduced simplicial cohomology


def _reduced_dims(faces_by_size):
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
        ranks.append(lattice.rank(mat))
    dims = []
    for s in range(top + 1):
        below = ranks[s - 1] if s >= 1 else 0
        dims.append(len(faces_by_size[s]) - ranks[s] - below)
    return tuple(dims)


def reduced_cohomology(complex_, vertices=None):
    """Dims of reduced cohomology (degree -1 first) of a full subcomplex.

    With vertices=None the complex itself is used; otherwise the full
    subcomplex on the given vertex subset.
    """
    if vertices is None:
        return _reduced_dims(complex_.faces_by_size)
    return _reduced_dims(_restricted_faces_by_size(complex_, frozenset(vertices)))


def _restricted_faces_by_size(complex_, keep):
    top = max((len(f) for f in complex_.faces if f <= keep), default=0)
    buckets = [[] for _ in range(top + 1)]
    for f in complex_.faces:
        if f <= keep:
            buckets[len(f)].append(tuple(sorted(f)))
    return tuple(tuple(sorted(b)) for b in buckets)


def _subset_dims(complex_, mask, top):
    """Cached: padded dims (length top+1, index i -> degree i-1) for a vertex mask."""
    cache = complex_._cohomology_cache
    key = (mask, top)
    hit = cache.get(key)
    if hit is not None:
        return hit
    keep = frozenset(j for j in range(complex_.vertex_count) if mask >> j & 1)
    dims = _reduced_dims(_restricted_faces_by_size(complex_, keep))
    padded = tuple(dims[i] if i < len(dims) else 0 for i in range(top + 1))
    cache[key] = padded
    return padded


# ---------------------------------------------------------------------------
# line bundle cohomology


@dataclass(frozen=True)
class CohomologyTable:
    """h^0..h^n plus the radius of the degree box that was scanned."""
    dims: tuple
    box: int

    @property
    def euler(self):
        return sum((-1) ** i * h for i, h in enumerate(self.dims))

    def higher_vanish(self):
        return all(h == 0 for h in self.dims[1:])


def line_bundle_cohomology(fan, divisor, box=None):
    """Exact cohomology table of O(D) on a smooth complete fan.

    The degree box [-R, R]^n is scanned in blocks of _BLOCK flat indices.
    The adaptive radius starts at 1 + max|a_j| * max|v_j| and doubles while
    a degree of sup-norm R or R-1 contributes; `box` forces a fixed radius
    instead.  Raises ValueError for a negative `box`, a coefficient of
    absolute value 2^31 or more, a box whose pairings <m, v_j> reach 2^31,
    and a box of more than _MAX_BOX_POINTS degrees.
    """
    a = _coeffs(fan, divisor)
    if box is not None and box < 0:
        raise ValueError(f"box radius must be >= 0, got {box}")
    cached = fan._cache.get(("cohomology", a, box))
    if cached is not None:
        return cached
    n = fan.dim
    nrays = len(fan.rays)
    if nrays > 62:
        raise ValueError("bitmask fast path supports at most 62 rays")
    complex_ = fan.face_complex
    if max((abs(x) for x in a), default=0) >= _INT64_SAFE:
        raise ValueError("divisor coefficients must be below 2^31 in absolute "
                         "value for the int64 degree scan")
    rmat = np.array([list(r) for r in fan.rays], dtype=np.int64)
    avec = np.array(a, dtype=np.int64)
    weights = (np.int64(1) << np.arange(nrays, dtype=np.int64))
    # max of |<m, v_j>| over the box [-R, R]^n is R * max_j |v_j|_1
    ray_l1 = max(sum(abs(int(x)) for x in r) for r in fan.rays)

    def scan(radius):
        """h^0..h^n over [-R, R]^n and the largest sup-norm that contributes."""
        side = 2 * radius + 1
        total = side ** n
        if total > _MAX_BOX_POINTS:
            raise ValueError(f"degree box of radius {radius} has {total} points, "
                             f"more than the budget of {_MAX_BOX_POINTS}")
        if radius * ray_l1 >= _INT64_SAFE:
            raise ValueError(f"degree box of radius {radius} leaves the int64 "
                             "scan range")
        hs = [0] * (n + 1)
        top = -1
        for start in range(0, total, _BLOCK):
            flat = np.arange(start, min(start + _BLOCK, total), dtype=np.int64)
            pts = np.empty((len(flat), n), dtype=np.int64)
            for k in range(n - 1, -1, -1):
                flat, digit = np.divmod(flat, side)
                pts[:, k] = digit - radius
            masks, inverse, counts = np.unique(
                (pts @ rmat.T < -avec) @ weights,
                return_inverse=True, return_counts=True)
            dims = np.array([_subset_dims(complex_, int(m), n) for m in masks],
                            dtype=np.int64)
            hs = [h + int(c) for h, c in zip(hs, counts @ dims)]
            hit = dims.any(axis=1)[inverse]
            if hit.any():
                top = max(top, int(np.abs(pts[hit]).max()))
        return tuple(hs), top

    if box is not None:
        radius = int(box)
        hs, _ = scan(radius)
    else:
        ray_span = max(abs(int(x)) for r in fan.rays for x in r)
        radius = 1 + max((abs(x) for x in a), default=0) * ray_span
        hs, top = scan(radius)
        while top >= radius - 1:
            radius *= 2
            hs, top = scan(radius)
    table = CohomologyTable(hs, radius)
    fan._cache[("cohomology", a, box)] = table
    return table


def _difference(d1, d2):
    return tuple(x - y for x, y in zip(d1, d2))


def ext_table(fan, collection, box=None):
    """Matrix of cohomology tables: entry (j, k) is H^*(d_k - d_j).

    Ext^i between the j-th and k-th line bundles is the i-th entry of table
    (j, k); the diagonal is the cohomology of the structure sheaf.
    """
    bundles = [_coeffs(fan, d) for d in collection]
    if not bundles:
        raise ValueError("collection must be nonempty")
    return [[line_bundle_cohomology(fan, _difference(dk, dj), box=box)
             for dk in bundles] for dj in bundles]


@dataclass(frozen=True)
class ExceptionalityReport:
    passed: bool
    violations: tuple  # (kind, j, k, dims) entries

    def __bool__(self):
        return self.passed


def is_strongly_exceptional(fan, collection, box=None):
    """Check the strong exceptionality of an ordered collection.

    Requires: every member exceptional (automatic for line bundles on a
    valid fan), no Homs or Exts from later to earlier members, and no higher
    Exts forward.
    """
    bundles = [_coeffs(fan, d) for d in collection]
    if not bundles:
        raise ValueError("collection must be nonempty")
    violations = []
    o_table = line_bundle_cohomology(fan, tuple(0 for _ in fan.rays), box=box)
    if o_table.dims[0] != 1 or not o_table.higher_vanish():
        violations.append(("structure-sheaf", None, None, o_table.dims))
    for j, k in itertools.combinations(range(len(bundles)), 2):
        backward = line_bundle_cohomology(fan, _difference(bundles[j], bundles[k]),
                                          box=box)
        if any(backward.dims):
            violations.append(("backward", j, k, backward.dims))
        forward = line_bundle_cohomology(fan, _difference(bundles[k], bundles[j]),
                                         box=box)
        if not forward.higher_vanish():
            violations.append(("forward-higher", j, k, forward.dims))
    return ExceptionalityReport(not violations, tuple(violations))


@dataclass(frozen=True)
class StrongOrderResult:
    ok: bool
    order: tuple          # ordered bundles when ok
    witness: tuple        # ('pair', j, k, dims_jk, dims_kj) or ('cycle', nodes)

    def __bool__(self):
        return self.ok


def find_strong_order(fan, bundles, box=None):
    """Order a set of line bundles into a strongly exceptional collection.

    Orientation "j before k" is admissible when H^*(d_j - d_k) vanishes
    entirely and H^{>=1}(d_k - d_j) vanishes.  Pairs with a single admissible
    orientation force an edge; a topological sort with lexicographic
    tie-break produces the order, or the obstructing pair/cycle is reported.
    """
    bundles = [_coeffs(fan, d) for d in bundles]
    if not bundles:
        raise ValueError("need at least one bundle")
    classes = [divisor_class(fan, d) for d in bundles]
    if len(set(classes)) != len(classes):
        raise ValueError("bundles must be pairwise non-equivalent")
    o_table = line_bundle_cohomology(fan, tuple(0 for _ in fan.rays), box=box)
    if not o_table.higher_vanish():
        raise NotExceptionalMember(
            f"structure sheaf has higher cohomology {o_table.dims}")

    m = len(bundles)
    successors = [[] for _ in range(m)]
    indegree = [0] * m
    edges = set()
    for j, k in itertools.combinations(range(m), 2):
        t_jk = line_bundle_cohomology(fan, _difference(bundles[j], bundles[k]),
                                      box=box)
        t_kj = line_bundle_cohomology(fan, _difference(bundles[k], bundles[j]),
                                      box=box)
        j_first = not any(t_jk.dims) and t_kj.higher_vanish()
        k_first = not any(t_kj.dims) and t_jk.higher_vanish()
        if not j_first and not k_first:
            return StrongOrderResult(False, (),
                                     ("pair", j, k, t_jk.dims, t_kj.dims))
        if j_first and not k_first:
            edges.add((j, k))
        elif k_first and not j_first:
            edges.add((k, j))
    for a, b in edges:
        successors[a].append(b)
        indegree[b] += 1

    ready = [i for i in range(m) if indegree[i] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        i = heapq.heappop(ready)
        order.append(i)
        for nxt in successors[i]:
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                heapq.heappush(ready, nxt)
    if len(order) != m:
        stuck = tuple(i for i in range(m) if indegree[i] > 0)
        return StrongOrderResult(False, (), ("cycle", stuck))
    return StrongOrderResult(True, tuple(bundles[i] for i in order), None)


def box_product(f1, c1, f2, c2):
    """External tensor products of two strongly exceptional collections.

    Returns the product fan and the collection ordered with the first factor
    varying fastest; coefficients of an external product are the two factors'
    coefficients concatenated.  Both factors are verified first.
    """
    for fan, coll, name in ((f1, c1, "first"), (f2, c2, "second")):
        report = is_strongly_exceptional(fan, coll)
        if not report.passed:
            raise FactorNotStronglyExceptional(
                f"{name} factor is not strongly exceptional: {report.violations[0]}")
    product = fan_product(f1, f2)
    bundles = tuple(tuple(b1) + tuple(b2) for b2 in c2 for b1 in c1)
    return product, bundles

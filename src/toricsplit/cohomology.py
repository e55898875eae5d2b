"""Line-bundle cohomology on smooth complete toric fans, exactly.

The cohomology of O(D) decomposes over the character lattice: the piece in
degree m is the reduced simplicial cohomology (one degree down) of the full
subcomplex of the fan's face complex on the rays with <m, v_j> < -a_j, so it
depends only on that sign mask.  A degree contributes only if its mask cell
is bounded: an unbounded cell has an integral recession ray, and so holds
infinitely many degrees with the same cohomology.  The closure of a bounded
cell is a polytope whose vertices solve <m, v_j> = -a_j for n linearly
independent rays, so every contributing degree has |m|_inf at most the floor
B(D) of the largest vertex sup-norm.  The box [-B(D), B(D)]^n is scanned
once in fixed blocks, counting degrees per sign mask and marking the
sup-norms at which some degree contributes; the dims are the whole scan,
and the reported box replays the earlier doubling rule on those sup-norms.
A scan of more than 2^30 degrees is refused with ValueError before it
starts.  Faces are vertex masks; every boundary rank comes from one exact
sparse elimination.

A fan that is the product of fans on disjoint blocks of coordinates (the
components of the graph joining two coordinates when some ray is nonzero in
both, accepted when the cones' distinct restrictions to the blocks multiply
to the number of cones) is not scanned whole.  Each factor is scanned at
its own B(D) and caches its dims and its contributing sup-norms.  By
Kunneth the product's dims are the convolution of the factors'.  A product
degree contributes exactly when each factor's part does, and its sup-norm
is the largest of the parts', so the product's contributing sup-norms are
the factors' that reach every factor's smallest one.

On top of that sit the (strongly) exceptional collection checks.  Ext groups
between line bundles are cohomology of coefficient differences, and both
checks read only two predicates of each: all of H^* vanishes, and H^{>=1}
vanishes.  `_pair_predicates` gathers them factor by factor: by Kunneth the
dims of a product table are the product of the factors', which cannot
cancel, so each factor scans only the differences of the bundles' distinct
restrictions.  Tables with dims are formed only for O and for the pairs a
check reports.  Every scan, for a table or a check, is at the proven
radius B(D) and at no other: a smaller box could miss a degree and report
a wrong number, and a larger one gives the same dims at more cost.
"""

import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import lattice
from .divisor import _coeffs, _pic_projection
from .fan import _factors, _faces, _mask, _per_fan, _poly_mul, fan_product

_INT64_SAFE = 2 ** 31
_BLOCK = 2 ** 16
_SUBSET_BLOCK = 2 ** 12
_MAX_BOX_POINTS = 2 ** 30


class FactorNotStronglyExceptional(RuntimeError):
    """A factor collection passed to a product is not strongly exceptional."""


class NotExceptionalMember(RuntimeError):
    """A line bundle with nonvanishing higher self-Ext; impossible on a valid fan."""


# ---------------------------------------------------------------------------
# reduced simplicial cohomology


def _boundary_pivots(faces):
    """Pivots of the boundary map (face -> sum of (-1)^i * face without its
    i-th vertex) on increasing face masks; their count is its rank over Q.
    Fraction-free: a sparse row {face: coefficient} whose leading (largest)
    face c has a pivot row p becomes (p[c] * row - row[c] * p) / gcd."""
    pivots = {}
    for face in faces:
        row, sign, rest = {}, 1, face
        while rest:
            bit = rest & -rest
            row[face ^ bit] = sign
            sign, rest = -sign, rest ^ bit
        while row:
            col = max(row)
            pivot = pivots.setdefault(col, row)
            if pivot is row:
                break
            a, b = pivot[col], row[col]
            row = {c: a * v for c, v in row.items()}
            for c, v in pivot.items():
                row[c] = row.get(c, 0) - b * v
            g = math.gcd(*row.values())
            row = {c: v // g for c, v in row.items() if v}
    return pivots.keys()


def _reduced_dims(facets, keep):
    """Reduced rational cohomology dims of the full subcomplex on the vertex
    mask `keep`, index k -> dim of degree k-1, up to the largest face size.
    `facets` are vertex masks and the faces those of `fan._faces`, the empty
    face included, so the empty complex gives (1,).  The maps are reduced
    from the top size down with clearing: a face's own faces have smaller
    masks, so the row of a pivot of one map reduces to zero in the next.
    """
    faces = sorted(_faces(facets, keep), key=lambda f: (f.bit_count(), f))
    by_size = [list(size) for _, size in itertools.groupby(faces, int.bit_count)]
    ranks, cleared = [0] * (len(by_size) + 1), ()
    for k in range(len(by_size) - 1, 0, -1):
        cleared = _boundary_pivots(f for f in by_size[k] if f not in cleared)
        ranks[k] = len(cleared)
    return tuple(len(size) - ranks[k] - ranks[k + 1] for k, size in enumerate(by_size))


def reduced_cohomology(complex_, vertices=None):
    """Dims of reduced cohomology (degree -1 first) of a full subcomplex.

    With vertices=None the complex itself is used; otherwise the full
    subcomplex on the given vertex subset.
    """
    return _reduced_dims(complex_._facet_masks, -1 if vertices is None else _mask(vertices))


def _subset_dims(facets, mask, top):
    """Padded dims (length top+1, index i -> degree i-1) for a vertex mask."""
    dims = _reduced_dims(facets, mask)
    return dims + (0,) * (top + 1 - len(dims))


@_per_fan
def _mask_dims(fan, mask):
    """Padded dims (index i -> degree i-1) of the full subcomplex of the
    fan's face complex on the vertex mask."""
    return _subset_dims(fan.face_complex._facet_masks, mask, fan.dim)


# ---------------------------------------------------------------------------
# line bundle cohomology


@dataclass(frozen=True)
class CohomologyTable:
    """h^0..h^n plus `box`, the radius where the earlier doubling rule stops."""
    dims: tuple
    box: int

    @property
    def euler(self):
        return sum((-1) ** i * h for i, h in enumerate(self.dims))

    def higher_vanish(self):
        return all(h == 0 for h in self.dims[1:])


@_per_fan
def _scan_constants(fan):
    """(rays as int64 rows, max |v|_1, max |v|_inf)."""
    # |<m, v_j>| over the box [-R, R]^n is at most R * max_j |v_j|_1
    ray_l1 = max(sum(abs(x) for x in r) for r in fan.rays)
    if ray_l1 >= 2 ** 62:
        raise ValueError("ray generators leave the int64 scan range")
    return np.array(fan.rays, dtype=np.int64), ray_l1, max(abs(x) for r in fan.rays for x in r)


@_per_fan
def _vertex_data(fan):
    """(J, det B_J, adj B_J) for every independent n-subset J, in
    lexicographic order.

    B_J has the rays of J as rows, and B_J @ adj_J == det_J * I exactly.
    The n-subsets of rays go in blocks of _SUBSET_BLOCK, so memory stays
    bounded however many there are: one `lattice._bareiss` takes a block's
    determinants and a second the adjugates of its nonsingular rows.
    """
    rays = lattice._narrow(fan.ray_matrix)
    subsets = itertools.combinations(range(len(fan.rays)), fan.dim)
    parts = []
    while block := list(itertools.islice(subsets, _SUBSET_BLOCK)):
        block = np.array(block, dtype=np.intp)
        dets, _ = lattice._bareiss(rays[block], False)
        block = block[dets != 0]
        parts.append((block, *lattice._bareiss(rays[block], True)))
    return tuple(np.concatenate(column) for column in zip(*parts))


def _degree_bound(fan, a):
    """B(D): every degree contributing to H^*(O(D)) has |m|_inf <= B(D).

    A vertex of a contributing cell solves B_J m = -a_J, so its coordinates
    are adj_J @ (-a_J) / det_J; B(D) is the floor of their largest norm.
    """
    subsets, dets, adjs = _vertex_data(fan)
    rhs = lattice._narrow(-np.array(a, dtype=object))[subsets]
    numerators = np.abs(lattice._exact_matmul(adjs, rhs[:, :, None])[:, :, 0])
    return int((numerators.max(axis=1, initial=0) // np.abs(dets)).max(initial=0))


@_per_fan
def _scan(fan, a):
    """(dims, norms) over the degrees in [-R, R]^n, R = B(D): h^0..h^n and
    the sorted sup-norms at which some degree contributes, as tuples of
    Python ints.

    The box is walked in blocks of _BLOCK flat indices.  Each block takes
    its distinct sign masks (bit j for ray j), counts its degrees per mask
    with one bincount and reads each mask's dims from `_mask_dims`.
    """
    n = fan.dim
    rmat, ray_l1, _ = _scan_constants(fan)
    radius = _degree_bound(fan, a)
    side = 2 * radius + 1
    total = side ** n
    if total > _MAX_BOX_POINTS:
        raise ValueError(f"degree box of radius {radius} has {total} points, "
                         f"more than the budget of {_MAX_BOX_POINTS}")
    if radius * ray_l1 >= _INT64_SAFE:
        raise ValueError(f"degree box of radius {radius} leaves the int64 "
                         "scan range")
    weights = np.int64(1) << np.arange(len(fan.rays), dtype=np.int64)
    avec = np.array(a, dtype=np.int64)
    hs = np.zeros(n + 1, dtype=np.int64)
    seen = np.zeros(radius + 1, dtype=bool)
    for start in range(0, total, _BLOCK):
        flat = np.arange(start, min(start + _BLOCK, total), dtype=np.int64)
        pts = np.empty((len(flat), n), dtype=np.int64)
        for k in range(n - 1, -1, -1):
            flat, digit = np.divmod(flat, side)
            pts[:, k] = digit - radius
        masks, index = np.unique((pts @ rmat.T < -avec) @ weights, return_inverse=True)
        dims = np.array([_mask_dims(fan, m) for m in masks.tolist()])
        hs += np.bincount(index, minlength=len(masks)) @ dims
        seen[np.abs(pts).max(axis=1)[dims.any(axis=1)[index]]] = True
    return tuple(hs.tolist()), tuple(np.flatnonzero(seen).tolist())


def line_bundle_cohomology(fan, divisor):
    """Exact cohomology table of O(D) on a smooth complete fan.

    The table scans the box [-B, B]^n once, at the proven radius B = B(D)
    of `_degree_bound`, so its dims are the whole cohomology.  It
    reports as `box` the radius the earlier doubling rule stopped at,
    replayed on the sup-norms at which some degree contributes: start at
    R = 1 + max|a_j| * max|v_j| and double while a degree of sup-norm R or
    R-1 contributes.

    A product of fans on disjoint blocks of coordinates (`fan._factors`)
    is scanned factor by factor instead, each at its own B(D).  By Kunneth
    its dims are the convolution of the factors'.  A product degree
    contributes exactly when each factor's part does, and its sup-norm is
    the largest of the parts', so the product's contributing sup-norms are
    those of the factors' that reach every factor's smallest.

    Raises ValueError for a coefficient of absolute value 2^31 or more,
    and, for each scanned fan, more than 62 rays, a scanned box whose
    pairings <m, v_j> reach 2^31, or one of more than _MAX_BOX_POINTS
    degrees; all decided before that fan's scan.
    """
    return _table(fan, _coeffs(fan, divisor))


def _scanned_factors(fan, largest):
    """`fan._factors` of the fan once the scan guards pass for coefficients
    of absolute value at most `largest`."""
    factors = _factors(fan)
    if max(len(f.rays) for f, _ in factors) > 62:
        raise ValueError("bitmask fast path supports at most 62 rays")
    if largest >= _INT64_SAFE:
        raise ValueError("divisor coefficients must be below 2^31 in absolute "
                         "value for the int64 degree scan")
    return factors


@_per_fan
def _table(fan, a):
    """`line_bundle_cohomology` of the checked coefficients `a`."""
    largest = max(map(abs, a), default=0)
    factors = _scanned_factors(fan, largest)
    scans = [_scan(f, tuple(a[j] for j in rays)) for f, rays in factors]
    lowest = max(part[0] if part else math.inf for _, part in scans)
    norms = {s for _, part in scans for s in part if s >= lowest}
    radius = 1 + largest * _scan_constants(fan)[2]
    # the doubling rule: the largest contributing sup-norm <= R is R-1 or R
    while radius in norms or radius - 1 in norms:
        radius *= 2
    dims = [1]
    for hs, _ in scans:
        dims = _poly_mul(dims, hs)
    return CohomologyTable(tuple(dims), radius)


def ext_table(fan, collection):
    """Matrix of cohomology tables: entry (j, k) is H^*(d_k - d_j).

    Ext^i between the j-th and k-th line bundles is the i-th entry of table
    (j, k); the diagonal is the cohomology of the structure sheaf.  Every
    table is read at the proven radius B(D), so it holds the whole
    cohomology.  The collection checks do not read this matrix: they read
    only two predicates of each entry, from `_pair_predicates`.
    """
    bundles = [_coeffs(fan, d) for d in collection]
    if not bundles:
        raise ValueError("collection must be nonempty")
    return [[_ext(fan, dj, dk) for dk in bundles] for dj in bundles]


def _ext(fan, dj, dk):
    """The table H^*(d_k - d_j), entry (j, k) of `ext_table`."""
    return line_bundle_cohomology(fan, tuple(x - y for x, y in zip(dk, dj)))


def _pair_predicates(fan, bundles):
    """(zero, higher): (m, m) boolean arrays for the checked coefficient
    tuples `bundles`, entry (j, k) true when all of H^*(d_k - d_j),
    respectively all of H^{>=1}(d_k - d_j), vanishes.

    By Kunneth H^*(X, L) is the tensor product of the factors' H^*(X_f, L_f)
    over the coordinate factors (a fan that is no product is one factor),
    and dims are nonnegative, so nothing cancels: all of H^* vanishes
    exactly when it vanishes on some factor, and H^{>=1} exactly then or
    when it vanishes on every factor.  Each factor scans one difference per
    ordered pair of the bundles' distinct restrictions, at its B(D), and
    the (m, m) arrays are gathered from those small tables.  The guards of
    `_table` run on the largest difference before any scan.
    """
    factors = _scanned_factors(fan, max(max(c) - min(c) for c in zip(*bundles)))
    zero = np.zeros((len(bundles), len(bundles)), dtype=bool)
    higher = np.ones_like(zero)
    for f, rays in factors:
        # distinct restrictions in order of first appearance: within a factor
        # the first refused difference is then the one `ext_table` meets first
        index = {}
        inverse = [index.setdefault(tuple(b[j] for j in rays), len(index)) for b in bundles]
        dims = np.array([[_scan(f, tuple(x - y for x, y in zip(rk, rj)))[0]
                          for rk in index] for rj in index])
        gather = np.ix_(inverse, inverse)
        zero |= ~dims.any(axis=2)[gather]
        higher &= ~dims[:, :, 1:].any(axis=2)[gather]
    return zero, zero | higher


@dataclass(frozen=True)
class ExceptionalityReport:
    passed: bool
    violations: tuple  # (kind, j, k, dims) entries

    def __bool__(self):
        return self.passed


def is_strongly_exceptional(fan, collection):
    """Check the strong exceptionality of an ordered collection.

    Requires: every member exceptional (automatic for line bundles on a
    valid fan), no Homs or Exts from later to earlier members, and no higher
    Exts forward.  Both pair conditions are read from `_pair_predicates`,
    at the proven radius; tables, and so dims, are computed only for O and
    for the violating pairs.  Violations are listed in
    `itertools.combinations` order, backward before forward-higher.
    """
    bundles = [_coeffs(fan, d) for d in collection]
    if not bundles:
        raise ValueError("collection must be nonempty")
    o_table = line_bundle_cohomology(fan, tuple(0 for _ in fan.rays))
    zero, higher = _pair_predicates(fan, bundles)
    violations = []
    if o_table.dims[0] != 1 or not o_table.higher_vanish():
        violations.append(("structure-sheaf", None, None, o_table.dims))
    # bad[j, k] = (backward, forward-higher) for the pairs j < k, which
    # np.argwhere lists in `itertools.combinations` order
    bad = np.stack([np.triu(~zero.T, 1), np.triu(~higher, 1)], axis=2)
    for j, k, forward in np.argwhere(bad).tolist():
        if forward:
            violations.append(("forward-higher", j, k, _ext(fan, bundles[j], bundles[k]).dims))
        else:
            violations.append(("backward", j, k, _ext(fan, bundles[k], bundles[j]).dims))
    return ExceptionalityReport(not violations, tuple(violations))


@dataclass(frozen=True)
class StrongOrderResult:
    ok: bool
    order: tuple          # ordered bundles when ok
    witness: tuple        # ('pair', j, k, dims_jk, dims_kj) or ('cycle', nodes)

    def __bool__(self):
        return self.ok


def find_strong_order(fan, bundles):
    """Order a set of line bundles into a strongly exceptional collection.

    Orientation "j before k" is admissible, first[j, k], when H^*(d_j - d_k)
    vanishes entirely and H^{>=1}(d_k - d_j) vanishes, as read from
    `_pair_predicates` at the proven radius.  The first pair j < k (in
    `itertools.combinations` order) with neither admissible is the witness,
    and only its two tables are computed; pairs with a single admissible
    orientation force an edge, and a topological sort with lexicographic
    tie-break produces the order or the obstructing cycle.
    """
    bundles = [_coeffs(fan, d) for d in bundles]
    if not bundles:
        raise ValueError("need at least one bundle")
    classes = lattice._exact_matmul(np.array(bundles, dtype=object), _pic_projection(fan).T)
    if len(set(map(tuple, classes.tolist()))) != len(bundles):
        raise ValueError("bundles must be pairwise non-equivalent")
    zero, higher = _pair_predicates(fan, bundles)
    if not higher[0, 0]:
        o_table = line_bundle_cohomology(fan, tuple(0 for _ in fan.rays))
        raise NotExceptionalMember(f"structure sheaf has higher cohomology {o_table.dims}")

    first = zero.T & higher
    bad = np.argwhere(np.triu(~first & ~first.T, 1))
    if len(bad):
        j, k = bad[0].tolist()
        return StrongOrderResult(False, (), ("pair", j, k, _ext(fan, bundles[k], bundles[j]).dims,
                                             _ext(fan, bundles[j], bundles[k]).dims))
    forced = first & ~first.T
    successors = [np.flatnonzero(row).tolist() for row in forced]
    indegree = forced.sum(axis=0).tolist()
    ready = [i for i, d in enumerate(indegree) if d == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        i = heapq.heappop(ready)
        order.append(i)
        for nxt in successors[i]:
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                heapq.heappush(ready, nxt)
    if len(order) != len(bundles):
        stuck = tuple(i for i, d in enumerate(indegree) if d > 0)
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

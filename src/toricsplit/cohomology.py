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
once in fixed blocks, counting degrees per (mask class, sup-norm) pair; the
reported box replays the earlier doubling rule on those counts.  A scan of
more than 2^30 degrees is refused with ValueError before it starts.  All
ranks are exact.

The masks are reduced block by block.  Take the components of the graph
whose edges are the ray pairs in no common cone.  If #maximal cones equals
the product over blocks of the number of distinct sets cone & block, then
every choice of one such set per block is a cone (a cone is the union of
its restrictions, so the map to the product is injective, and onto by
count): the face complex is the join of its blocks.  A full subcomplex of a
join is the join of the blocks' full subcomplexes, and by Kunneth for joins
its reduced cohomology dims, indexed by degree + 1, are the convolution of
the blocks' dims.  Each block reduces only the sub-masks it has not seen
before, on its own small complex; a fan that is no join is one block.

A fan that is the product of fans on disjoint blocks of coordinates (the
components of the graph joining two coordinates when some ray is nonzero in
both, accepted by the same cone count as the join blocks) is not scanned
whole.  Each factor is scanned at its own B(D), or at the fixed box, and
caches its cumulative dims and contributing counts per sup-norm.  The box
[-s, s]^n is the product of the factors' boxes, so by Kunneth the product's
dims at s are the convolution of the factors' and its contributing degrees
number the product of theirs; its B(D) is the largest of the factors'.

On top of that sit the (strongly) exceptional collection checks: Ext groups
between line bundles are cohomology of coefficient differences.
"""

import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import lattice
from .divisor import _coeffs, divisor_class
from .fan import FaceComplex, Fan, _poly_mul, fan_product

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
    """Padded dims (length top+1, index i -> degree i-1) for a vertex mask."""
    keep = frozenset(j for j in range(complex_.vertex_count) if mask >> j & 1)
    dims = _reduced_dims(_restricted_faces_by_size(complex_, keep))
    return tuple(dims[i] if i < len(dims) else 0 for i in range(top + 1))


# ---------------------------------------------------------------------------
# join blocks of the face complex


def _components(adjacent):
    """Connected components of the graph with boolean adjacency matrix
    `adjacent`, each sorted, in the order of their smallest vertices."""
    label = [-1] * len(adjacent)
    components = []
    for root in range(len(adjacent)):
        if label[root] >= 0:
            continue
        label[root] = len(components)
        component, stack = [], [root]
        while stack:
            j = stack.pop()
            component.append(j)
            for k in np.flatnonzero(adjacent[j]).tolist():
                if label[k] < 0:
                    label[k] = len(components)
                    stack.append(k)
        components.append(sorted(component))
    return components


def _restrictions(cones, blocks):
    """Per block of rays: the sorted distinct sets `cone & block` of the
    cones, in block-local indices."""
    local = {j: (b, i) for b, block in enumerate(blocks) for i, j in enumerate(block)}
    found = [set() for _ in blocks]
    for cone in cones:
        parts = [[] for _ in blocks]
        for j in cone:
            b, i = local[j]
            parts[b].append(i)
        for seen, part in zip(found, parts):
            seen.add(tuple(part))
    return [sorted(seen) for seen in found]


def _join_blocks(fan):
    """(blocks, facets): a partition of the rays whose face complexes the
    fan's face complex is the join of, with each block's distinct facets
    `cone & block` in block-local indices.

    The candidate blocks are the components of the graph whose edges are the
    ray pairs in no common cone.  Each maximal cone is the union of its
    restrictions, so cone -> (cone & b)_b is injective into the product of
    the blocks' facet sets; when #cones equals the size of that product it
    is onto, every choice of one facet per block is a cone, and the complex
    is the join.  Otherwise all rays form one block.
    """
    count = len(fan.rays)
    together = np.eye(count, dtype=bool)
    for cone in fan.max_cones:
        together[np.ix_(cone, cone)] = True
    blocks = _components(~together)
    facets = _restrictions(fan.max_cones, blocks)
    if math.prod(map(len, facets)) != len(fan.max_cones):
        return [list(range(count))], [list(fan.max_cones)]
    return blocks, facets


def _coordinate_factors(fan):
    """Cached per fan: [(factor fan, its ray indices)] when the fan is the
    product of fans on disjoint blocks of coordinates, else None.

    The blocks are the components of the graph on the coordinates in which
    two coordinates are joined when some ray is nonzero in both, so every
    ray lies in the coordinate span of one block.  The fan is accepted as
    the product of its blocks' sub-fans when there are at least two blocks,
    every restriction `cone & rays(block)` has as many rays as the block has
    coordinates, and #cones equals the product of the numbers of distinct
    restrictions: then every choice of one restriction per block is a cone,
    as in `_join_blocks`.  Equal factors share one fan, and so one cache.
    """
    key = ("cohomology", "factors")
    if key in fan._cache:
        return fan._cache[key]
    support = np.array([[x != 0 for x in r] for r in fan.rays], dtype=np.int64)
    coordinates = _components(support.T @ support > 0)
    owner = np.empty(fan.dim, dtype=np.int64)
    for b, block in enumerate(coordinates):
        owner[block] = b
    first = owner[support.argmax(axis=1)]
    groups = [np.flatnonzero(first == b).tolist() for b in range(len(coordinates))]
    facets = _restrictions(fan.max_cones, groups)
    factors = None
    if len(coordinates) >= 2 and \
            all(len(f) == len(block) for block, fs in zip(coordinates, facets) for f in fs) and \
            math.prod(map(len, facets)) == len(fan.max_cones):
        shared = {}
        factors = []
        for block, group, fs in zip(coordinates, groups, facets):
            rays = tuple(tuple(fan.rays[j][c] for c in block) for j in group)
            factor = shared.get((rays, tuple(fs)))
            if factor is None:
                factor = shared[rays, tuple(fs)] = Fan(len(block), rays, fs)
            factors.append((factor, group))
    fan._cache[key] = factors
    return factors


class _Block:
    """One join block: its bit range in a scan mask, its own face complex,
    and a lookup from sub-masks to cohomology classes that grows with the
    sub-masks seen."""

    def __init__(self, offset, width, facets):
        self.offset = offset
        self.low = np.int64((1 << width) - 1)
        self.top = max(map(len, facets))
        self.complex_ = FaceComplex.from_facets(width, facets)
        self.keys = np.empty(0, dtype=np.int64)    # sorted sub-masks seen
        self.ids = np.empty(0, dtype=np.int64)     # their class ids
        self.classes = {}                          # padded dims -> class id
        self.polys = []                            # class id -> padded dims

    def class_ids(self, masks):
        """Class id of each mask's sub-mask on this block."""
        sub = (masks >> self.offset) & self.low
        pos = np.searchsorted(self.keys, sub)
        seen = np.zeros(len(sub), dtype=bool)
        inside = pos < len(self.keys)
        seen[inside] = self.keys[pos[inside]] == sub[inside]
        if not seen.all():
            # sort and drop repeats by hand: np.unique without an inverse
            # imports numpy.ma, about 1 MiB and 15 ms in every process
            new = np.sort(sub[~seen])
            new = new[np.diff(new, prepend=-1) != 0]
            ids = []
            for m in new.tolist():
                dims = _subset_dims(self.complex_, m, self.top)
                if dims not in self.classes:
                    self.classes[dims] = len(self.polys)
                    self.polys.append(dims)
                ids.append(self.classes[dims])
            keys = np.concatenate([self.keys, new])
            order = np.argsort(keys)
            self.keys = keys[order]
            self.ids = np.concatenate([self.ids, np.array(ids, dtype=np.int64)])[order]
            pos = np.searchsorted(self.keys, sub)
        return self.ids[pos]


class _JoinLookup:
    """Per fan: reduced cohomology of full subcomplexes, factorised over the
    join blocks of `_join_blocks`.

    A scan mask numbers its bits block by block (`weights[j]` is ray j's
    bit), so each block reads a contiguous sub-mask.  The dims of a whole
    mask are the convolution of its blocks' padded dims in index
    coordinates (index i = degree i-1), memoised per tuple of class ids.
    """

    def __init__(self, fan):
        blocks, facets = _join_blocks(fan)
        order = [j for block in blocks for j in block]
        position = np.empty(len(order), dtype=np.int64)
        position[order] = np.arange(len(order))
        self.weights = np.int64(1) << position
        offsets = itertools.accumulate(map(len, blocks), initial=0)
        self.blocks = [_Block(off, len(block), f)
                       for off, block, f in zip(offsets, blocks, facets)]
        self.memo = {}

    def keys(self, masks):
        """(key per mask, class count per block): the blocks' class ids
        mixed into one key, the first block's id varying fastest."""
        key = np.zeros(len(masks), dtype=np.int64)
        stride = 1
        counts = []
        for block in self.blocks:
            key += block.class_ids(masks) * stride
            counts.append(len(block.polys))
            stride *= counts[-1]
        return key, counts

    def dims(self, key, counts):
        """Padded dims of a mixed key from `keys`."""
        ids = []
        for c in counts:
            key, rest = divmod(key, c)
            ids.append(rest)
        ids = tuple(ids)
        hit = self.memo.get(ids)
        if hit is None:
            hit = np.ones(1, dtype=np.int64)
            for block, i in zip(self.blocks, ids):
                hit = np.convolve(hit, block.polys[i])
            self.memo[ids] = hit
        return hit


def _join_lookup(fan):
    key = ("cohomology", "join")
    hit = fan._cache.get(key)
    if hit is None:
        hit = fan._cache[key] = _JoinLookup(fan)
    return hit


# ---------------------------------------------------------------------------
# line bundle cohomology


@dataclass(frozen=True)
class CohomologyTable:
    """h^0..h^n plus `box`: the fixed radius, or where the doubling rule stops."""
    dims: tuple
    box: int

    @property
    def euler(self):
        return sum((-1) ** i * h for i, h in enumerate(self.dims))

    def higher_vanish(self):
        return all(h == 0 for h in self.dims[1:])


def _scan_constants(fan):
    """Cached per fan: (rays as int64 rows, max |v|_1, max |v|_inf)."""
    key = ("cohomology", "scan")
    hit = fan._cache.get(key)
    if hit is not None:
        return hit
    # |<m, v_j>| over the box [-R, R]^n is at most R * max_j |v_j|_1
    ray_l1 = max(sum(abs(x) for x in r) for r in fan.rays)
    if ray_l1 >= 2 ** 62:
        raise ValueError("ray generators leave the int64 scan range")
    hit = (np.array(fan.rays, dtype=np.int64),
           ray_l1,
           max(abs(x) for r in fan.rays for x in r))
    fan._cache[key] = hit
    return hit


def _extension_blocks(subsets, count):
    """Each row of `subsets` extended by every index above its last, in
    lexicographic order, in blocks of about _SUBSET_BLOCK rows."""
    last = subsets[:, -1] if subsets.shape[1] else np.full(len(subsets), -1)
    grow = count - 1 - last
    cuts = np.searchsorted(np.cumsum(grow), np.arange(_SUBSET_BLOCK, grow.sum(), _SUBSET_BLOCK))
    for part, tail, more in zip(np.split(subsets, cuts), np.split(last, cuts),
                                np.split(grow, cuts)):
        rows = np.repeat(np.arange(len(part)), more)
        first = np.cumsum(more) - more
        if len(rows):
            yield np.column_stack([part[rows], tail[rows] + 1 + np.arange(len(rows)) - first[rows]])


def _int64_if_fits(a):
    """An exact integer array in int64 when every entry fits, else unchanged."""
    try:
        return a.astype(np.int64)
    except OverflowError:
        return a


def _vertex_data(fan):
    """Cached per fan: (J, det B_J, adj B_J) for every independent n-subset J,
    in lexicographic order.

    B_J has the rays of J as rows, and B_J @ adj_J == det_J * I exactly.
    The independent sets grow level by level: each independent k-subset is
    extended only by rays of larger index, and kept when its Gram matrix
    B B^T (a submatrix of all rays' Gram matrix) has a nonzero determinant.
    Candidates go in blocks of about _SUBSET_BLOCK, so memory stays bounded
    however many there are.  All eliminations are `lattice._bareiss`.
    """
    key = ("cohomology", "vertices")
    hit = fan._cache.get(key)
    if hit is not None:
        return hit
    count = len(fan.rays)
    rays = _int64_if_fits(fan.ray_matrix)
    gram = _int64_if_fits(fan.ray_matrix @ fan.ray_matrix.T)
    level = np.empty((1, 0), dtype=np.intp)
    for k in range(1, fan.dim):
        parts = [np.empty((0, k), dtype=np.intp)]
        for subsets in _extension_blocks(level, count):
            dets, _ = lattice._bareiss(gram[subsets[:, :, None], subsets[:, None, :]], False)
            parts.append(subsets[dets != 0])
        level = np.concatenate(parts)
    parts = []
    for subsets in _extension_blocks(level, count):
        dets, _ = lattice._bareiss(rays[subsets], False)
        subsets = subsets[dets != 0]
        parts.append((subsets, *lattice._bareiss(rays[subsets], True)))
    hit = tuple(np.concatenate(column) for column in zip(*parts))
    fan._cache[key] = hit
    return hit


def _degree_bound(fan, a):
    """B(D): every degree contributing to H^*(O(D)) has |m|_inf <= B(D).

    A vertex of a contributing cell solves B_J m = -a_J, so its coordinates
    are adj_J @ (-a_J) / det_J; B(D) is the floor of their largest norm.
    """
    subsets, dets, adjs = _vertex_data(fan)
    if adjs.dtype != object and \
            fan.dim * int(np.abs(adjs).max(initial=0)) * max(map(abs, a)) >= 2 ** 62:
        adjs, dets = adjs.astype(object), dets.astype(object)
    rhs = -np.array(a, dtype=adjs.dtype)[subsets]
    numerators = np.abs((adjs @ rhs[:, :, None])[:, :, 0]).max(axis=1, initial=0)
    return int((numerators // np.abs(dets)).max(initial=0))


def _scan(fan, a, radius):
    """Per sup-norm s <= R of the degrees in [-R, R]^n: h^0..h^n and the
    number of contributing degrees, as arrays of R+1 rows.

    The box is walked in blocks of _BLOCK flat indices; each block mixes
    its degrees' join-block class ids into one key and counts the degrees
    per (key, sup-norm) pair with one bincount.
    """
    n = fan.dim
    rmat, ray_l1, _ = _scan_constants(fan)
    side = 2 * radius + 1
    total = side ** n
    if total > _MAX_BOX_POINTS:
        raise ValueError(f"degree box of radius {radius} has {total} points, "
                         f"more than the budget of {_MAX_BOX_POINTS}")
    if radius * ray_l1 >= _INT64_SAFE:
        raise ValueError(f"degree box of radius {radius} leaves the int64 "
                         "scan range")
    lookup = _join_lookup(fan)
    avec = np.array(a, dtype=np.int64)
    hs = np.zeros((radius + 1, n + 1), dtype=np.int64)
    contributing = np.zeros(radius + 1, dtype=np.int64)
    for start in range(0, total, _BLOCK):
        flat = np.arange(start, min(start + _BLOCK, total), dtype=np.int64)
        pts = np.empty((len(flat), n), dtype=np.int64)
        for k in range(n - 1, -1, -1):
            flat, digit = np.divmod(flat, side)
            pts[:, k] = digit - radius
        key, classes = lookup.keys((pts @ rmat.T < -avec) @ lookup.weights)
        counts = np.bincount(key * (radius + 1) + np.abs(pts).max(axis=1),
                             minlength=math.prod(classes) * (radius + 1)
                             ).reshape(-1, radius + 1)
        live = np.flatnonzero(counts.any(axis=1))
        dims = np.array([lookup.dims(int(k), classes) for k in live])
        hs += counts[live].T @ dims
        contributing += counts[live].T @ dims.any(axis=1)
    return hs, contributing


def _cumulative_scan(fan, a, box):
    """Per sup-norm s up to the scanned radius (B(D), or `box`): h^0..h^n
    and the number of contributing degrees over [-s, s]^n, as lists of
    Python ints."""
    hs, contributing = _scan(fan, a, _degree_bound(fan, a) if box is None else box)
    return np.cumsum(hs, axis=0).tolist(), np.cumsum(contributing).tolist()


def _factor_scan(fan, a, box):
    """`_cumulative_scan` of a coordinate factor, cached in its own fan."""
    key = ("cohomology", "factor", a, box)
    hit = fan._cache.get(key)
    if hit is None:
        hit = fan._cache[key] = _cumulative_scan(fan, a, box)
    return hit


def line_bundle_cohomology(fan, divisor, box=None):
    """Exact cohomology table of O(D) on a smooth complete fan.

    The adaptive table scans the box [-B, B]^n once, at the proven radius
    B = B(D) of `_degree_bound`, and reports as `box` the radius the earlier
    doubling rule stopped at, replayed on the contributing degrees counted
    per sup-norm: start at R = 1 + max|a_j| * max|v_j| and double while a
    degree of sup-norm R or R-1 contributes.  `box` forces a fixed radius
    instead, and the table counts that box only.

    A product of fans on disjoint blocks of coordinates (`_coordinate_factors`)
    is scanned factor by factor instead, each at its own B(D) or at `box`.
    Its box [-s, s]^n is the product of the factors' boxes, so by Kunneth
    its cumulative dims at s are the convolution of the factors' and its
    contributing degrees of sup-norm <= s number the product of theirs; its
    B(D) is the largest of the factors'.

    Raises ValueError for a negative `box`, a coefficient of absolute value
    2^31 or more, and, for each scanned fan, more than 62 rays, a scanned box
    whose pairings <m, v_j> reach 2^31, or one of more than _MAX_BOX_POINTS
    degrees; all of these are decided before that fan's scan.
    """
    a = _coeffs(fan, divisor)
    if box is not None and box < 0:
        raise ValueError(f"box radius must be >= 0, got {box}")
    cached = fan._cache.get(("cohomology", a, box))
    if cached is not None:
        return cached
    factors = _coordinate_factors(fan)
    scanned = [fan] if factors is None else [f for f, _ in factors]
    if max(len(f.rays) for f in scanned) > 62:
        raise ValueError("bitmask fast path supports at most 62 rays")
    largest = max(map(abs, a), default=0)
    if largest >= _INT64_SAFE:
        raise ValueError("divisor coefficients must be below 2^31 in absolute "
                         "value for the int64 degree scan")
    if factors is None:
        sums = [_cumulative_scan(fan, a, box)]
    else:
        sums = [_factor_scan(f, tuple(a[j] for j in rays), box) for f, rays in factors]
    if box is not None:
        radius = int(box)
    else:
        counts = [math.prod(c[min(s, len(c) - 1)] for _, c in sums)
                  for s in range(max(len(c) for _, c in sums))]
        norms = [s for s, c in enumerate(counts) if c > (counts[s - 1] if s else 0)]
        _, _, ray_span = _scan_constants(fan)
        radius = 1 + largest * ray_span
        # the doubling rule: the largest contributing sup-norm <= R is R-1 or R
        while max((s for s in norms if s <= radius), default=-1) >= radius - 1:
            radius *= 2
    dims = [1]
    for hs, _ in sums:
        dims = _poly_mul(dims, hs[min(radius, len(hs) - 1)])
    table = CohomologyTable(tuple(dims), radius)
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

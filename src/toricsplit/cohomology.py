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
from .fan import FaceComplex, fan_product

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
    label = [-1] * count
    blocks = []
    for root in range(count):
        if label[root] >= 0:
            continue
        label[root] = len(blocks)
        block, stack = [], [root]
        while stack:
            j = stack.pop()
            block.append(j)
            for k in np.flatnonzero(~together[j]).tolist():
                if label[k] < 0:
                    label[k] = len(blocks)
                    stack.append(k)
        blocks.append(sorted(block))
    local = {j: i for block in blocks for i, j in enumerate(block)}
    facets = [sorted({tuple(local[j] for j in cone if label[j] == b)
                      for cone in fan.max_cones}) for b in range(len(blocks))]
    if math.prod(map(len, facets)) != len(fan.max_cones):
        return [list(range(count))], [list(fan.max_cones)]
    return blocks, facets


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


def _determinants(mats):
    """Exact determinants of a stack of square integer matrices (Bareiss).

    Every entry the fraction-free elimination writes is a minor of its
    matrix, so int64 input whose minors are below 2^31 cannot overflow.
    """
    m = mats.copy()
    k, n, _ = m.shape
    sign = np.ones(k, dtype=np.int64)
    prev = np.ones(k, dtype=m.dtype)
    singular = np.zeros(k, dtype=bool)
    for c in range(n):
        # swap a row with a nonzero entry in column c up to row c
        r = c + np.argmax(m[:, c:, c] != 0, axis=1)
        swap = np.flatnonzero(r != c)
        row = m[swap, c].copy()
        m[swap, c] = m[swap, r[swap]]
        m[swap, r[swap]] = row
        sign[swap] *= -1
        singular |= m[:, c, c] == 0
        pivot = np.where(singular, 1, m[:, c, c])
        m[:, c + 1:, c + 1:] = (pivot[:, None, None] * m[:, c + 1:, c + 1:]
                                - m[:, c + 1:, c:c + 1] * m[:, c:c + 1, c + 1:]
                                ) // prev[:, None, None]
        prev = pivot
    return np.where(singular, 0, sign * m[:, n - 1, n - 1])


def _adjugates(mats, dets, minor_bound, exact_int64):
    """Adjugates of nonsingular integer matrices with known determinants.

    Each is det * inverse in floats, rounded, and kept where B @ adj ==
    det * I holds exactly; the rest are redone with `lattice.adjugate`.
    With `exact_int64`, every entry of a true adjugate is at most
    `minor_bound` and the check cannot overflow int64; otherwise it runs in
    Python ints.
    """
    n = mats.shape[1]
    with np.errstate(all="ignore"):
        try:
            approx = np.rint(dets.astype(float)[:, None, None]
                             * np.linalg.inv(mats.astype(float)))
        except (np.linalg.LinAlgError, OverflowError):
            approx = np.full(mats.shape, np.nan)
        limit = float(minor_bound) if exact_int64 else np.inf
        ok = (np.isfinite(approx) & (np.abs(approx) <= limit)).all(axis=(1, 2))
    approx[~ok] = 0
    adj = (approx.astype(np.int64) if exact_int64
           else np.frompyfunc(int, 1, 1)(approx))
    ok &= (mats @ adj == dets[:, None, None] * np.eye(n, dtype=np.int64)).all(axis=(1, 2))
    for i in np.flatnonzero(~ok):
        adj[i] = lattice.adjugate(mats[i])[1]
    return adj


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


def _vertex_data(fan):
    """Cached per fan: (J, det B_J, adj B_J) for every independent n-subset J,
    in lexicographic order.

    B_J has the rays of J as rows, and B_J @ adj_J == det_J * I exactly.
    The independent sets grow level by level: each independent k-subset is
    extended only by rays of larger index, and kept when its Gram matrix
    B B^T has a nonzero determinant.  Candidates go in blocks of about
    _SUBSET_BLOCK, so memory stays bounded however many there are.
    """
    key = ("cohomology", "vertices")
    hit = fan._cache.get(key)
    if hit is not None:
        return hit
    n = fan.dim
    count = len(fan.rays)
    # Hadamard: a minor is at most the product of its rows' norms, each < norm
    norm = max(math.isqrt(sum(x * x for x in r)) + 1 for r in fan.rays)
    minor_bound = norm ** n
    entry = max(abs(x) for r in fan.rays for x in r)
    exact_int64 = minor_bound < _INT64_SAFE and n * entry * minor_bound < 2 ** 62
    # Hadamard for a Gram matrix of k < n rays: each row has norm at most
    # sqrt(k) * max |v|^2, so its minors are at most that to the k
    square = max(sum(x * x for x in r) for r in fan.rays)
    gram_int64 = exact_int64 and (n - 1) ** (n - 1) * square ** (2 * n - 2) < _INT64_SAFE ** 2
    rays = np.array(fan.rays, dtype=np.int64 if exact_int64 else object)
    level = np.empty((1, 0), dtype=np.intp)
    for k in range(1, n):
        parts = [np.empty((0, k), dtype=np.intp)]
        for subsets in _extension_blocks(level, count):
            mats = rays[subsets].astype(np.int64 if gram_int64 else object)
            parts.append(subsets[_determinants(mats @ mats.transpose(0, 2, 1)) != 0])
        level = np.concatenate(parts)
    parts = []
    for subsets in _extension_blocks(level, count):
        mats = rays[subsets]
        dets = _determinants(mats)
        keep = dets != 0
        mats, dets = mats[keep], dets[keep]
        parts.append((subsets[keep], dets, _adjugates(mats, dets, minor_bound, exact_int64)))
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


def line_bundle_cohomology(fan, divisor, box=None):
    """Exact cohomology table of O(D) on a smooth complete fan.

    The adaptive table scans the box [-B, B]^n once, at the proven radius
    B = B(D) of `_degree_bound`, and reports as `box` the radius the earlier
    doubling rule stopped at, replayed on the contributing degrees counted
    per sup-norm: start at R = 1 + max|a_j| * max|v_j| and double while a
    degree of sup-norm R or R-1 contributes.  `box` forces a fixed radius
    instead, and the table counts that box only.  Raises ValueError for a
    negative `box`, a coefficient of absolute value 2^31 or more, a scanned
    box whose pairings <m, v_j> reach 2^31, and a scanned box of more than
    _MAX_BOX_POINTS degrees; all of these are decided before any scan.
    """
    a = _coeffs(fan, divisor)
    if box is not None and box < 0:
        raise ValueError(f"box radius must be >= 0, got {box}")
    cached = fan._cache.get(("cohomology", a, box))
    if cached is not None:
        return cached
    if len(fan.rays) > 62:
        raise ValueError("bitmask fast path supports at most 62 rays")
    if max((abs(x) for x in a), default=0) >= _INT64_SAFE:
        raise ValueError("divisor coefficients must be below 2^31 in absolute "
                         "value for the int64 degree scan")
    if box is not None:
        radius = int(box)
        hs, _ = _scan(fan, a, radius)
    else:
        hs, contributing = _scan(fan, a, _degree_bound(fan, a))
        norms = np.flatnonzero(contributing)
        _, _, ray_span = _scan_constants(fan)
        radius = 1 + max((abs(x) for x in a), default=0) * ray_span
        # the doubling rule: the largest contributing sup-norm <= R is R-1 or R
        while norms[norms <= radius].max(initial=-1) >= radius - 1:
            radius *= 2
        hs = hs[:radius + 1]
    table = CohomologyTable(tuple(int(h) for h in hs.sum(axis=0)), radius)
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

"""Smooth complete simplicial fans and their combinatorics.

A fan is stored as primitive ray generators plus maximal cones given by ray
index sets.  Builders cover the varieties needed here: projective spaces,
del Pezzo surfaces dP(1..3) (dP3 is the hexagon, dP1/dP2 its sub-fans),
Hirzebruch surfaces, products, and the odd-dimensional toric Fano varieties
with maximal Picard number (del Pezzo-6 towers over P^1).
"""

import itertools
import json
import math
import operator
import re
from dataclasses import dataclass
from functools import cache, cached_property, wraps

import numpy as np

from .lattice import (NotUnimodular, _bareiss, _exact_matmul, _fits_elimination, _narrow,
                      as_matrix)


class InvalidSpec(ValueError):
    """Unparseable or out-of-range variety descriptor."""


class ConstructionFailed(RuntimeError):
    """A builder produced data that fails validation."""


class NotComplete(RuntimeError):
    """A wall candidate is not shared by exactly two maximal cones."""


def _per_fan(fn):
    """Memoise fn(fan, *args) in `fan._cache` under the key (fn, *args).

    Every per-fan result is cached this way and nowhere else.  A call that
    raises stores nothing, so it raises again on the next call.
    """
    @wraps(fn, updated=())
    def cached(fan, *args):
        key = (fn, *args)
        if key not in fan._cache:
            fan._cache[key] = fn(fan, *args)
        return fan._cache[key]
    return cached


def _integers(values, what):
    """The values as a tuple of Python ints; ValueError for a non-integer."""
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        raise ValueError(f"{what} must be integers, got {values!r}") from None


def _cone_rows(max_cones, dim, count):
    """The cones as sorted tuples of Python ints, read one by one; the
    messages name the first cone, in the given order, that is not `dim`
    distinct integers in range(count)."""
    cones = []
    for cone in max_cones:
        c = tuple(sorted(_integers(cone, "cone indices")))
        if len(c) != dim or len(set(c)) != dim:
            raise ValueError(f"maximal cone {c} must consist of {dim} distinct rays")
        if c and (c[0] < 0 or c[-1] >= count):
            raise ValueError(f"cone {c} references a ray out of range")
        cones.append(c)
    return cones


def _cone_array(max_cones, dim, count):
    """The maximal cones as a (#cones, dim) intp array, each row sorted and
    the rows sorted, with ValueError on an invalid or repeated cone.

    A numpy integer (#cones, dim) array, as the product builders pass, is
    checked in array passes, with the messages of `_cone_rows`: the first
    row that repeats an index or leaves range(count) is named.  Anything
    else (lists, generators, float, bool or object arrays) goes through
    `_cone_rows` one cone at a time first, so that a list mixing numpy
    bools with ints is refused as before rather than promoted by numpy.
    """
    if not (isinstance(max_cones, np.ndarray) and max_cones.dtype.kind in "iu"
            and max_cones.shape[1:] == (dim,)):
        cones = np.array(_cone_rows(max_cones, dim, count), dtype=np.intp).reshape(-1, dim)
    else:
        cones = np.sort(max_cones, axis=1)
        repeated = (cones[:, 1:] == cones[:, :-1]).any(axis=1)
        bad = np.flatnonzero(repeated | (cones[:, 0] < 0) | (cones[:, -1] >= count))
        if len(bad):
            c = tuple(cones[bad[0]].tolist())
            if repeated[bad[0]]:
                raise ValueError(f"maximal cone {c} must consist of {dim} distinct rays")
            raise ValueError(f"cone {c} references a ray out of range")
    cones = cones.astype(np.intp)[np.lexsort(cones.T[::-1])]
    equal = np.flatnonzero((cones[1:] == cones[:-1]).all(axis=1))
    if len(equal):
        raise ValueError(f"duplicate maximal cone {tuple(cones[equal[0]].tolist())}")
    return cones


class Fan:
    """Immutable simplicial fan: ray generators plus maximal cone index sets.

    Rays keep the builder's order (divisors are addressed by ray index);
    maximal cones are normalised to sorted rows and sorted overall, so cone
    indices are canonical for a given ray order.  `cone_indices` holds them
    as a (#cones, dim) intp array (`_cone_array`), `max_cones` as tuples,
    formed on first use for export, messages and library callers.
    """

    def __init__(self, dim, rays, max_cones):
        dim = _integers((dim,), "fan dimension")[0]
        if dim < 1:
            raise ValueError("fan dimension must be positive")
        rays = tuple(_integers(r, "ray coordinates") for r in rays)
        if not rays:
            raise ValueError("a fan needs at least one ray")
        for r in rays:
            if len(r) != dim:
                raise ValueError(f"ray {r} does not have dimension {dim}")
            if math.gcd(*r) != 1:
                raise ValueError(f"ray {r} is not primitive")
        if len(set(rays)) != len(rays):
            raise ValueError("ray generators must be pairwise distinct")
        self.dim = dim
        self.rays = rays
        self.cone_indices = _cone_array(max_cones, dim, len(rays))
        self._cache = {}

    def __repr__(self):
        return (f"Fan(dim={self.dim}, rays={len(self.rays)}, "
                f"max_cones={len(self.cone_indices)})")

    @cached_property
    def max_cones(self):
        """`cone_indices` as a tuple of sorted tuples."""
        return tuple(map(tuple, self.cone_indices.tolist()))

    @cached_property
    def ray_matrix(self):
        """Rays as rows, an object-dtype (#rays x dim) matrix."""
        return as_matrix(self.rays)

    @cached_property
    def cone_matrices(self):
        """(#cones, dim, dim) array: each maximal cone's rays as rows, in
        int64 when every ray entry fits (`lattice._narrow`), Python ints
        otherwise."""
        return _narrow(self.ray_matrix)[self.cone_indices]

    @cached_property
    def cone_adjugates(self):
        """(dets, adjs) of all cone matrices, a (#cones,) and a (#cones, dim,
        dim) array, from one batched exact elimination (`lattice._bareiss`).
        On a product of fans, `validate` and the CLI read the factors' own."""
        return _bareiss(self.cone_matrices, True)

    @cached_property
    def cone_inverses(self):
        """(#cones, dim, dim) stack of the inverses det * adj, in the dtype of
        `cone_adjugates`; raises NotUnimodular unless the fan is smooth."""
        dets, adjs = self.cone_adjugates
        for i, det in enumerate(dets.tolist()):
            if det not in (1, -1):
                raise NotUnimodular(f"cone {self.max_cones[i]} has determinant {det}")
        return dets[:, None, None] * adjs

    @cached_property
    def face_complex(self):
        return FaceComplex.from_facets(len(self.rays), self.cone_indices.tolist())

    def to_json_dict(self):
        return {
            "dim": self.dim,
            "rays": [list(r) for r in self.rays],
            "max_cones": [list(c) for c in self.max_cones],
        }

    def to_json(self, **kwargs):
        return json.dumps(self.to_json_dict(), **kwargs)

    @classmethod
    def from_json_dict(cls, data):
        return cls(data["dim"], data["rays"], data["max_cones"])

    @classmethod
    def from_json(cls, text):
        return cls.from_json_dict(json.loads(text))


@dataclass(frozen=True)
class Wall:
    """Codimension-1 cone with its two adjacent maximal cones.

    `rays` are the wall's ray indices; u_plus/u_minus are the ray indices that
    complete the adjacent cones, with u_plus the smaller index.
    """
    rays: tuple
    plus_cone: int
    minus_cone: int
    u_plus: int
    u_minus: int


@dataclass(frozen=True)
class PrimitiveCollection:
    """Minimal non-face with its primitive relation.

    The relation states sum(rays) == sum(coeff * relation ray) exactly, with
    positive integer coefficients; both sides are empty when the rays sum to
    zero.
    """
    rays: tuple
    relation_cone: tuple
    relation_coeffs: tuple


@dataclass(frozen=True)
class ValidationReport:
    smooth: bool
    complete: bool
    simplicial: bool
    messages: tuple = ()

    @property
    def ok(self):
        return self.smooth and self.complete and self.simplicial


def _mask(vertices):
    """The vertex mask of an index set: bit j set for each vertex j."""
    mask = 0
    for j in vertices:
        mask |= 1 << j
    return mask


def _faces(facets, keep=-1):
    """The set of faces inside the vertex mask `keep`, as vertex masks: the
    submasks of `facet & keep` over the facet masks, the empty face included."""
    faces = {0}
    for top in sorted({f & keep for f in facets}, key=int.bit_count, reverse=True):
        sub = 0 if top in faces else top  # if in, so are all its submasks
        while sub:
            faces.add(sub)
            sub = (sub - 1) & top
    return faces


class FaceComplex:
    """Abstract simplicial complex of a fan's cones, on ray indices.

    Faces are vertex masks (bit j for vertex j); `_faces` builds the set of
    the facets' submasks, the empty face included, on first use, and
    `reduced_cohomology` ranks its boundary maps by sparse exact elimination.
    """

    def __init__(self, vertex_count, facets):
        self.vertex_count = vertex_count
        self.facets = tuple(sorted(tuple(sorted(f)) for f in facets))
        self._facet_masks = tuple(map(_mask, self.facets))

    @classmethod
    def from_facets(cls, vertex_count, facets):
        return cls(vertex_count, facets)

    @cached_property
    def _face_masks(self):
        return _faces(self._facet_masks)

    def is_face(self, vertices):
        return _mask(vertices) in self._face_masks

    @cached_property
    def faces_by_size(self):
        """faces_by_size[k] = sorted tuple of the size-k faces (as sorted tuples)."""
        buckets = [[] for _ in range(max(map(int.bit_count, self._face_masks)) + 1)]
        for f in self._face_masks:
            buckets[f.bit_count()].append(tuple(j for j in range(f.bit_length()) if f >> j & 1))
        return tuple(tuple(sorted(b)) for b in buckets)


# ---------------------------------------------------------------------------
# builders


def _validated(fan, what):
    report = validate(fan)
    if not report.ok:
        raise ConstructionFailed(f"{what}: {'; '.join(report.messages)}")
    return fan


def projective_space(n):
    """P^n: rays e_0..e_{n-1} and -(e_0+...+e_{n-1}), all n-subsets as cones."""
    n = _integers((n,), "projective space dimension")[0]
    if n < 1:
        raise InvalidSpec(f"projective space needs n >= 1, got {n}")
    rays = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    rays.append(tuple(-1 for _ in range(n)))
    cones = itertools.combinations(range(n + 1), n)
    return _validated(Fan(n, rays, cones), f"P^{n}")


_HEXAGON = ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))


def del_pezzo(r):
    """Blow-up of P^2 in r torus-fixed points, r in 1..3, as hexagon sub-fans.

    dP3 is the full hexagon fan on +-e0, +-e1, +-(e0-e1); dP2 and dP1 drop
    one and two rays of it.
    """
    r = _integers((r,), "del Pezzo blow-up count")[0]
    if r not in (1, 2, 3):
        raise InvalidSpec(f"del Pezzo surfaces are built for r in 1..3, got {r}")
    drop = {3: (), 2: ((1, -1),), 1: ((1, -1), (-1, 0))}[r]
    rays = [v for v in _HEXAGON if v not in drop]
    return _validated(Fan(2, rays, _cycle(len(rays))), f"dP({r})")


def _cycle(m):
    """The maximal cones of a polygon fan on m rays listed around it."""
    return [(i, (i + 1) % m) for i in range(m)]


def hirzebruch(a):
    """Hirzebruch surface F_a: rays e0, e1, -e0 + a*e1, -e1."""
    a = _integers((a,), "Hirzebruch parameter")[0]
    if a < 0:
        raise InvalidSpec(f"Hirzebruch surface needs a >= 0, got {a}")
    rays = [(1, 0), (0, 1), (-1, a), (0, -1)]
    cones = [(0, 1), (1, 2), (2, 3), (3, 0)]
    return _validated(Fan(2, rays, cones), f"F{a}")


def tower_rays(d):
    """Ray generators of the d-dimensional del Pezzo-6 tower over P^1.

    Order: v_0 = e_0, then v_{2k-1} = e_k and v_{2k} = -e_k for k = 1..d-1,
    then w_0 = e_1 - e_0 followed by w_{2j-1} = e_{2j-1} - e_{2j} and
    w_{2j} = -w_{2j-1} for j = 1..(d-1)/2.
    """
    def e(i, sign=1):
        return tuple(sign if j == i else 0 for j in range(d))

    def diff(i, k):
        return tuple((1 if j == i else 0) - (1 if j == k else 0) for j in range(d))

    rays = [e(0)]
    for k in range(1, d):
        rays.append(e(k))
        rays.append(e(k, -1))
    rays.append(diff(1, 0))
    for j in range(1, (d - 1) // 2 + 1):
        rays.append(diff(2 * j - 1, 2 * j))
        rays.append(diff(2 * j, 2 * j - 1))
    return tuple(rays)


def tower_primitive_pairs(d):
    """Primitive pairs of the d-dimensional tower, as ray index pairs.

    With v/w indexed as in tower_rays: v_i is ray i, w_i is ray 2d-1+i.
    Per hexagon block j these are the nine non-edges of the hexagon on
    {+-e_{2j-1}, +-e_{2j}, +-(e_{2j-1}-e_{2j})}, plus the pair {w_0, v_0}
    for the twisted P^1 direction.
    """
    def v(i):
        return i

    def w(i):
        return 2 * d - 1 + i

    l = (d - 1) // 2
    pairs = [(w(0), v(0))]
    for k in range(1, 2 * l + 1):
        pairs.append((v(2 * k - 1), v(2 * k)))
    for j in range(1, l + 1):
        pairs.append((w(2 * j - 1), w(2 * j)))
        pairs.append((w(2 * j - 1), v(4 * j - 2)))
        pairs.append((w(2 * j - 1), v(4 * j - 1)))
        pairs.append((w(2 * j), v(4 * j - 3)))
        pairs.append((w(2 * j), v(4 * j)))
        pairs.append((v(4 * j - 3), v(4 * j)))
        pairs.append((v(4 * j - 2), v(4 * j - 1)))
    return tuple(tuple(sorted(p)) for p in pairs)


def del_pezzo_bundle(d):
    """The d-dimensional (dP3)^((d-1)/2)-fiber bundle over P^1, d odd >= 3.

    Each hexagon takes its own pair of coordinates (1, 2), (3, 4), ..., and
    every maximal cone joins one of v_0 = e_0 and w_0 = e_1 - e_0 with one
    cone of each hexagon: the cones are the `_outer_rows` of [[v_0], [w_0]]
    and the hexagons' cycles, in `tower_rays(d)` indices.  Xd:3 is no
    product (w_0 couples coordinates 0 and 1); for d >= 5 the fan is
    Xd:3 x dP3^((d-3)/2) with the rays in another order.  The result is
    validated before being returned.
    """
    d = _integers((d,), "tower dimension")[0]
    if d < 3 or d % 2 == 0:
        raise InvalidSpec(f"the tower is defined for odd d >= 3, got {d}")
    rays = tower_rays(d)
    index = {r: i for i, r in enumerate(rays)}

    cycle = np.asarray(_cycle(len(_HEXAGON)))
    # each hexagon's cones in tower ray indices, on its coordinates k, k + 1
    hexagons = [np.array([index[(0,) * k + r + (0,) * (d - k - 2)] for r in _HEXAGON])[cycle]
                for k in range(1, d, 2)]
    cones = _outer_rows(np.array([[0], [2 * d - 1]]), *hexagons)
    return _validated(Fan(d, rays, cones), f"tower d={d}")


def maximal_cones_from_primitive_pairs(rays, forbidden_pairs):
    """All size-n independent sets of the non-face pair graph.

    For a fan whose primitive collections are all pairs, the faces are the
    index sets containing no forbidden pair, and the maximal cones are the
    size-n ones.  They grow level by level as sorted rows: each independent
    k-set, kept with a boolean row of the rays it conflicts with, extends by
    every larger ray it does not block that leaves enough larger rays to
    reach size n.  Rows extend in order, so the cones come out in
    lexicographic order.  Whether they form a smooth complete fan is left
    to `validate`.
    """
    rays = [tuple(r) for r in rays]
    n, count = len(rays[0]), len(rays)
    conflicts = np.zeros((count, count), dtype=bool)
    for p in forbidden_pairs:
        p = tuple(p)
        if len(p) != 2:
            raise ValueError(f"forbidden set {p} must be a pair")
        if not all(0 <= i < count for i in p):
            raise ValueError(f"forbidden pair {p} references a ray out of range")
        conflicts[p[0], p[1]] = conflicts[p[1], p[0]] = True
    index = np.arange(count)
    free = ~np.diagonal(conflicts)
    sets = np.zeros((1, 0), dtype=np.intp)
    blocked = np.zeros((1, count), dtype=bool)
    for k in range(n):
        last = sets[:, -1:] if k else np.full((1, 1), -1)
        ok = ~blocked & free & (index > last) & (index < count - n + k + 1)
        rows, new = np.nonzero(ok)
        sets = np.column_stack([sets[rows], new])
        blocked = blocked[rows] | conflicts[new]
    return tuple(map(tuple, sets.tolist()))


def _outer_rows(*parts):
    """Every concatenation of one row of each 2-d array, in
    `itertools.product` order (the first array's row varies slowest): a
    (prod #rows, sum #columns) array, in the arrays' common dtype."""
    rows = np.zeros((1, 0), dtype=np.result_type(*parts))
    for part in parts:
        rows = np.concatenate([np.repeat(rows, len(part), axis=0),
                               np.tile(part, (len(rows), 1))], axis=1)
    return rows


def fan_product(f1, f2):
    """Product fan: embedded rays of f1 then f2, every union of a maximal
    cone of f1 with one of f2 (`_outer_rows` of their cone arrays)."""
    n1, n2 = f1.dim, f2.dim
    rays = [r + (0,) * n2 for r in f1.rays]
    rays += [(0,) * n1 + r for r in f2.rays]
    cones = _outer_rows(f1.cone_indices, f2.cone_indices + len(f1.rays))
    return Fan(n1 + n2, rays, cones)


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


@_per_fan
def _coordinate_factors(fan):
    """[(factor fan, its ray indices)] when the fan is the product of fans
    on disjoint blocks of coordinates, else None.

    The blocks are the components of the graph on the coordinates in which
    two coordinates are joined when some ray is nonzero in both, so every
    ray lies in the coordinate span of one block.  The fan is accepted as
    the product of its blocks' sub-fans when it has maximal cones, there
    are at least two blocks, every cone has as many rays of each block as
    the block has coordinates, and the numbers of distinct restrictions of
    the cones to the blocks multiply to the number of cones.  A stable
    argsort of each cone's rays by their block puts block b's rays in a run
    of positions, and a lexsort of that run with one compare pass gives the
    factor's distinct cones.

    A factor fan has the block's rays, in the fan's order and restricted to
    the block's coordinates, and those cones.  Equal factors share one fan,
    and so one cache.  `validate`, Bondal's check, cohomology scans and
    Frobenius splittings all run factor by factor on these.
    """
    if not len(fan.cone_indices):
        return None
    support = (fan.ray_matrix != 0).astype(np.int64)
    coordinates = _components(support.T @ support > 0)
    if len(coordinates) < 2:
        return None
    owner = np.empty(fan.dim, dtype=np.intp)
    for b, block in enumerate(coordinates):
        owner[block] = b
    ray_owner = owner[support.argmax(axis=1)]
    # (dim, #cones), column c cone c's rays block by block: lexsort keys are rows
    n, k = fan.dim, len(fan.cone_indices)
    rows = np.argsort(ray_owner[fan.cone_indices.T], axis=0, kind="stable")
    ordered = np.take(fan.cone_indices, rows + np.arange(0, n * k, n))
    dims = list(map(len, coordinates))
    if (ray_owner[ordered] != np.repeat(np.arange(len(dims)), dims)[:, None]).any():
        return None
    shared, factors = {}, []
    for b, (block, end) in enumerate(zip(coordinates, itertools.accumulate(dims))):
        part = ordered[end - len(block):end]
        part = part[:, np.lexsort(part[::-1])]
        new = np.arange(k) == 0
        for row in part:
            new[1:] |= row[1:] != row[:-1]
        group = np.flatnonzero(ray_owner == b).tolist()
        rays = tuple(tuple(fan.rays[j][c] for c in block) for j in group)
        cones = np.searchsorted(group, part[:, new].T)
        key = rays, cones.tobytes()
        if key not in shared:
            shared[key] = Fan(len(block), rays, cones)
        factors.append((shared[key], group))
    if math.prod(len(factor.cone_indices) for factor, _ in factors) != k:
        return None
    return factors


def _factors(fan):
    """`_coordinate_factors`, a fan that is no product being its own single
    factor.  Not memoised: a cached list would hold the fan in its own
    cache, a cycle that outlives the last reference to the fan."""
    return _coordinate_factors(fan) or [(fan, tuple(range(len(fan.rays))))]


_DESCRIPTOR = re.compile(r"^([A-Za-z]+):?(\d+)$")
_MAX_DIM = 2 ** 8
_MAX_CONES = 2 ** 19
_MAX_EXACT_WORK = 2 ** 25


def build_named(spec):
    """Build a variety from a descriptor: P:n, dP:r, Xd:d, F:a, or products A*B.

    The colon is optional (P2 == P:2); products multiply left to right.  A
    descriptor of dimension above _MAX_DIM or with more than _MAX_CONES
    maximal cones is refused with InvalidSpec before anything is built, and
    so is one whose cone elimination would run in Python ints (the rule of
    `lattice._bareiss`) at a cost #cones * dim^3 above _MAX_EXACT_WORK.
    """
    spec = spec.strip()
    parts = [part.strip() for part in spec.split("*")]
    named = [part for part in parts if _named_size(part)]
    sizes = list(map(_named_size, named))
    # a count is None only on a part above _MAX_DIM, which the dimension refuses
    cones = math.prod(count or 1 for _, count in sizes)
    # every named ray has entries in {-1, 0, 1}, except -e0 + a*e1 on F:a
    entry = max([1] + [num for kind, num in map(_parse, named) if kind == "F"])
    _refuse_oversized(f"variety {spec!r}", sum(d for d, _ in sizes), cones, entry)
    fan = _build_one(parts[0])
    for part in parts[1:]:
        fan = fan_product(fan, _build_one(part))
    return fan


def _refuse_oversized(what, dim, cones, entry):
    """Raise InvalidSpec for `what`, a fan of dimension `dim` with `cones`
    maximal cones and rays of largest |entry| `entry`, when its dimension is
    above _MAX_DIM, its cone count above _MAX_CONES, or its cone elimination
    would run in Python ints at a cost #cones * dim^3 above _MAX_EXACT_WORK."""
    if dim > _MAX_DIM:
        raise InvalidSpec(f"{what} has dimension {dim}, more than the limit of {_MAX_DIM}")
    if cones > _MAX_CONES:
        raise InvalidSpec(f"{what} has {cones} maximal cones, "
                          f"more than the limit of {_MAX_CONES}")
    if cones * dim ** 3 > _MAX_EXACT_WORK and not _fits_elimination(dim, entry):
        raise InvalidSpec(f"{what} needs Python-int work #cones * dim^3 = "
                          f"{cones * dim ** 3}, more than the limit of {_MAX_EXACT_WORK}")


def _parse(spec):
    """(family, parameter) of a descriptor without products."""
    m = _DESCRIPTOR.match(spec)
    if not m:
        raise InvalidSpec(f"cannot parse variety descriptor {spec!r}")
    try:
        return m.group(1), int(m.group(2))
    except ValueError:
        raise InvalidSpec(f"the parameter of {spec!r} has too many digits") from None


def _named_size(spec):
    """(dimension, number of maximal cones) of a descriptor without
    products, or None when its builder refuses it.  Above _MAX_DIM, where
    the dimension alone refuses it, the count is None: Xd:d has
    12 * 6^((d-3)/2) cones, too large to form for a huge d."""
    try:
        kind, num = _parse(spec)
    except InvalidSpec:
        return None
    if kind == "P" and num >= 1:
        return num, num + 1
    if kind == "dP" and num in (1, 2, 3):
        return 2, num + 3
    if kind == "F":
        return 2, 4
    if kind == "Xd" and num >= 3 and num % 2:
        return num, 12 * 6 ** ((num - 3) // 2) if num <= _MAX_DIM else None
    return None


def _build_one(spec):
    """The fan of a descriptor without products."""
    kind, num = _parse(spec)
    if kind == "P":
        return projective_space(num)
    if kind == "dP":
        return del_pezzo(num)
    if kind == "Xd":
        return del_pezzo_bundle(num)
    if kind == "F":
        return hirzebruch(num)
    raise InvalidSpec(f"unknown variety family {kind!r} in {spec!r}")


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class _FacetTable:
    """The facets (dim - 1 rays) of all maximal cones, sorted into runs.

    Unsorted row r is cone r // dim without its column dim - 1 - r % dim,
    so each cone's facets come in `itertools.combinations` order and
    r % dim rays of the facet are larger than the completing ray.  The rows
    are sorted lexicographically and stably: a run of equal facets lists
    its cones in the order they first meet it.
    """
    facets: np.ndarray      # (rows, dim - 1) facet ray indices, sorted
    order: np.ndarray       # unsorted row index of each sorted row
    completing: np.ndarray  # the cone's ray off the facet, per sorted row
    starts: np.ndarray      # first sorted row of each run
    sizes: np.ndarray       # number of cones in each run


@cache
def _kept_columns(n):
    """(n, n - 1) table: row t lists the columns of a cone without column n - 1 - t."""
    return np.array([[j for j in range(n) if j != n - 1 - t] for t in range(n)],
                    dtype=np.intp).reshape(n, n - 1)


@_per_fan
def _facet_table(fan):
    n, cones = fan.dim, fan.cone_indices
    # the facet rows are gathered and sorted in the narrowest type that holds
    # every ray index, which np.lexsort sorts fastest; it takes the last key
    # as primary and needs at least one key
    keys = cones.astype(np.min_scalar_type(len(fan.rays)))[:, _kept_columns(n)]
    keys = keys.reshape(len(cones) * n, n - 1)
    order = np.lexsort(keys.T[::-1]) if n > 1 else np.arange(len(keys))
    facets = keys[order]
    new = np.arange(len(facets)) == 0
    for column in facets.T:
        new[1:] |= column[1:] != column[:-1]
    starts = np.flatnonzero(new)
    return _FacetTable(facets.astype(np.intp), order, cones[:, ::-1].reshape(-1)[order], starts,
                       np.diff(np.append(starts, len(facets))))


@_per_fan
def validate(fan):
    """Check smoothness and completeness; simpliciality holds by representation.

    The fan is complete exactly when all five of these hold:

    1. every maximal cone has a nonzero determinant;
    2. every wall candidate (dim - 1 rays of a maximal cone) lies in exactly
       two maximal cones;
    3. those two cones lie on opposite sides of the wall;
    4. the sum of cone 0's rays lies in exactly one closed maximal cone;
    5. every ray lies in some maximal cone, so that the rays, which index
       the torus-invariant divisors, are the fan's own.

    1 and 4 read the cones' determinants and adjugates, which
    `Fan.cone_adjugates` computes and caches, from one batched exact
    elimination of all cone matrices: a point's coordinates on a cone's
    rays are (point @ adj) / det.
    2 and 3 read the sorted facet table.  The side of cone C at a
    wall is whether det(wall rays, u) > 0, u the ray of C off the wall:
    moving u from its sorted place in C to the last row takes one row swap
    per wall ray above u.  A fan without maximal cones is not complete.

    By 1-3 a path that leaves a cone through a facet enters exactly one
    other cone, so all points off the codimension-2 faces lie in the same
    number of cones: the cones cover space with some degree.  Near the point
    of 4 only cone 0 covers, so the degree is one: every point is covered
    and no two cones overlap.  A multi-fan winding twice around the origin
    passes 1-3 and fails 4.  All five tests are exact; 5 runs only once 1-4
    pass.

    A product of fans on disjoint blocks of coordinates
    (`_coordinate_factors`) passes when every factor passes: up to row and
    column order its cone matrices are block-diagonal in its factors', so
    their determinants are the factors' products up to sign; its cones, one
    cone of each factor, cover the product space and meet in products of
    faces; and each ray lies in a cone of its factor.  When a factor fails,
    the whole fan is checked as above, so the messages name its own cones.
    """
    factors = _coordinate_factors(fan)
    if factors is not None and all(validate(factor).ok for factor, _ in factors):
        return ValidationReport(True, True, True)
    messages = []
    det_array = fan.cone_adjugates[0]
    dets = det_array.tolist()
    bad = [(fan.max_cones[i], d) for i, d in enumerate(dets) if d not in (1, -1)]
    smooth = not bad
    for cone, d in bad[:5]:
        messages.append(f"cone {cone} has determinant {d}")

    complete = bool(dets) and 0 not in dets
    if not dets:
        messages.append("the fan has no maximal cones")
    elif not complete:
        messages.append(f"cone {fan.max_cones[dets.index(0)]} is not full-dimensional")
    table = _facet_table(fan)
    first_seen = table.order[table.starts]
    odd = table.sizes != 2
    for run in np.flatnonzero(odd)[np.argsort(first_seen[odd])]:
        complete = False
        facet = tuple(table.facets[table.starts[run]].tolist())
        messages.append(f"wall candidate {facet} lies in {table.sizes[run]} maximal cones")
    if complete:
        n = fan.dim
        side = (det_array > 0).astype(bool)[table.order // n] ^ (table.order % n % 2 == 1)
        same = side[table.starts] == side[table.starts + 1]
        if same.any():
            complete = False
            run = np.flatnonzero(same)[np.argmin(first_seen[same])]
            facet = tuple(table.facets[table.starts[run]].tolist())
            messages.append(f"the two cones at wall {facet} lie on the same side of it")
    if complete:
        point = fan.ray_matrix[fan.cone_indices[0]].sum(axis=0)
        coords = _exact_matmul(point, fan.cone_adjugates[1])
        count = int(np.where((det_array > 0)[:, None], coords >= 0, coords <= 0).all(axis=1).sum())
        if count != 1:
            complete = False
            messages.append(f"point {tuple(int(x) for x in point)} of cone "
                            f"{fan.max_cones[0]} lies in {count} maximal cones")
    if complete:
        used = np.zeros(len(fan.rays), dtype=bool)
        used[fan.cone_indices] = True
        for j in np.flatnonzero(~used)[:5].tolist():
            complete = False
            messages.append(f"ray {j} {fan.rays[j]} lies in no maximal cone")
    return ValidationReport(smooth, complete, True, tuple(messages))


# ---------------------------------------------------------------------------
# walls, primitive collections, Poincare polynomial


@dataclass(frozen=True)
class _WallArrays:
    """All walls as arrays, one row each, in the order of `walls(fan)`."""
    rays: np.ndarray         # (walls, dim - 1)
    plus_cone: np.ndarray
    minus_cone: np.ndarray
    u_plus: np.ndarray
    u_minus: np.ndarray
    plus_column: np.ndarray  # column of u_plus in the plus cone
    columns: np.ndarray      # (walls, dim - 1) columns of the wall's rays there


@_per_fan
def _wall_arrays(fan):
    """The walls from the facet table; raises NotComplete at the first
    facet, in sorted order, that does not lie in exactly two cones."""
    table = _facet_table(fan)
    odd = np.flatnonzero(table.sizes != 2)
    if len(odd):
        run = odd[0]
        facet = tuple(table.facets[table.starts[run]].tolist())
        raise NotComplete(f"wall candidate {facet} lies in {table.sizes[run]} maximal cones")
    n, first, second = fan.dim, table.starts, table.starts + 1
    swap = table.completing[first] > table.completing[second]
    plus, minus = np.where(swap, second, first), np.where(swap, first, second)
    cone, drop = np.divmod(table.order, n)
    return _WallArrays(table.facets[first], cone[plus], cone[minus],
                       table.completing[plus], table.completing[minus],
                       n - 1 - drop[plus], _kept_columns(n)[drop[plus]])


@_per_fan
def walls(fan):
    """All codimension-1 cones with their two adjacent maximal cones.

    Sorted by ray index set; u_plus is the completing ray of smaller index.
    """
    a = _wall_arrays(fan)
    return tuple(Wall(tuple(rays), *rest) for rays, *rest in zip(
        a.rays.tolist(), a.plus_cone.tolist(), a.minus_cone.tolist(),
        a.u_plus.tolist(), a.u_minus.tolist()))


@_per_fan
def primitive_collections(fan):
    """All minimal non-faces, each with its primitive relation, by size and
    then lexicographically.

    Dropping its largest vertex from a minimal non-face leaves a face, so
    every minimal non-face is a face f plus one vertex above all of f's.
    The candidates f | 1 << v, v >= f.bit_length(), are kept when they are
    no face and every one-vertex drop is.
    """
    faces = fan.face_complex._face_masks
    found = []
    for face in faces:
        for v in range(face.bit_length(), len(fan.rays)):
            mask = face | 1 << v
            if mask not in faces and all(mask ^ 1 << j in faces
                                         for j in range(v) if face >> j & 1):
                found.append(tuple(j for j in range(v + 1) if mask >> j & 1))
    found.sort(key=lambda combo: (len(combo), combo))
    return tuple(_relation_for(fan, combo) for combo in found)


def _relation_for(fan, combo):
    """The relation of `combo`: its ray sum in the basis of the first maximal
    cone that contains the sum, from one product with the cone inverses."""
    s = fan.ray_matrix[list(combo)].sum(axis=0)
    if not s.any():
        return PrimitiveCollection(combo, (), ())
    lam = _exact_matmul(s, fan.cone_inverses)
    inside = np.flatnonzero((lam >= 0).astype(bool).all(axis=1))
    if not len(inside):
        raise ConstructionFailed(
            f"sum of primitive collection {combo} lies in no maximal cone; fan not complete")
    cone = fan.max_cones[inside[0]]
    support = sorted((cone[t], c) for t, c in enumerate(lam[inside[0]].tolist()) if c > 0)
    return PrimitiveCollection(combo, tuple(j for j, _ in support), tuple(c for _, c in support))


@dataclass(frozen=True)
class PoincarePolynomial:
    """Integer polynomial in t, coeffs[k] = coefficient of t^k."""
    coeffs: tuple

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def euler_characteristic(self):
        return self(-1)


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _face_counts(fan):
    """Number of cones of each size k: the distinct k-subsets of the maximal cones.

    The k-subsets are sorted rows of ray indices; after a lexicographic sort,
    each distinct row starts where it differs from its predecessor.
    """
    cones = fan.cone_indices
    counts = [1]
    for k in range(1, fan.dim + 1):
        rows = cones[:, list(itertools.combinations(range(fan.dim), k))].reshape(-1, k)
        rows = rows[np.lexsort(rows.T)]
        counts.append(int(np.any(rows[1:] != rows[:-1], axis=1).sum()) + (len(rows) > 0))
    return tuple(counts)


def poincare_polynomial(fan):
    """P(t) = sum_k d_k (t^2-1)^(n-k) where d_k counts k-dimensional cones.

    P(-1) is the Euler characteristic, which equals the number of maximal
    cones for a smooth complete fan.
    """
    n = fan.dim
    counts = _face_counts(fan)
    total = [0] * (2 * n + 1)
    base = [-1, 0, 1]  # t^2 - 1
    for k, d_k in enumerate(counts):
        power = [1]
        for _ in range(n - k):
            power = _poly_mul(power, base)
        for i, c in enumerate(power):
            total[i] += d_k * c
    while len(total) > 1 and total[-1] == 0:
        total.pop()
    return PoincarePolynomial(tuple(total))

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
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .lattice import NotUnimodular, _bareiss, as_matrix


class InvalidSpec(ValueError):
    """Unparseable or out-of-range variety descriptor."""


class ConstructionFailed(RuntimeError):
    """A builder produced data that fails validation."""


class NotComplete(RuntimeError):
    """A wall candidate is not shared by exactly two maximal cones."""


class Fan:
    """Immutable simplicial fan: ray generators plus maximal cone index sets.

    Rays keep the builder's order (divisors are addressed by ray index);
    maximal cones are normalised to sorted tuples and sorted overall, so cone
    indices are canonical for a given ray order.
    """

    def __init__(self, dim, rays, max_cones):
        if dim < 1:
            raise ValueError("fan dimension must be positive")
        rays = tuple(tuple(int(x) for x in r) for r in rays)
        if not rays:
            raise ValueError("a fan needs at least one ray")
        for r in rays:
            if len(r) != dim:
                raise ValueError(f"ray {r} does not have dimension {dim}")
            if math.gcd(*r) != 1:
                raise ValueError(f"ray {r} is not primitive")
        if len(set(rays)) != len(rays):
            raise ValueError("ray generators must be pairwise distinct")
        cones = []
        for cone in max_cones:
            c = tuple(sorted(int(i) for i in cone))
            if len(c) != dim or len(set(c)) != dim:
                raise ValueError(f"maximal cone {c} must consist of {dim} distinct rays")
            if c and (c[0] < 0 or c[-1] >= len(rays)):
                raise ValueError(f"cone {c} references a ray out of range")
            cones.append(c)
        cones.sort()
        for a, b in zip(cones, cones[1:]):
            if a == b:
                raise ValueError(f"duplicate maximal cone {a}")
        self.dim = dim
        self.rays = rays
        self.max_cones = tuple(cones)
        self._cache = {}

    def __repr__(self):
        return (f"Fan(dim={self.dim}, rays={len(self.rays)}, "
                f"max_cones={len(self.max_cones)})")

    @cached_property
    def ray_matrix(self):
        """Rays as rows, an object-dtype (#rays x dim) matrix."""
        return as_matrix(self.rays)

    @cached_property
    def cone_matrices(self):
        """(#cones, dim, dim) object array: each maximal cone's rays as rows."""
        cones = np.array(self.max_cones, dtype=np.intp).reshape(-1, self.dim)
        return self.ray_matrix[cones]

    @cached_property
    def cone_adjugates(self):
        """Per maximal cone: (det, adj) of its matrix, as a Python int and an
        object array, from one batched exact elimination of all cones."""
        dets, adjs = _bareiss(self.cone_matrices, True)
        return tuple(zip(dets.tolist(), adjs.astype(object)))

    @cached_property
    def cone_inverses(self):
        """Inverse of each cone matrix; raises NotUnimodular unless the fan is smooth."""
        for cone, (det, _) in zip(self.max_cones, self.cone_adjugates):
            if det not in (1, -1):
                raise NotUnimodular(f"cone {cone} has determinant {det}")
        return tuple(det * adj for det, adj in self.cone_adjugates)

    @cached_property
    def face_complex(self):
        return FaceComplex.from_facets(len(self.rays), self.max_cones)

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


class FaceComplex:
    """Abstract simplicial complex of a fan's cones, on ray indices.

    Faces are stored as frozensets (the empty face included) and are closed
    under subsets by construction.
    """

    def __init__(self, vertex_count, faces, facets):
        self.vertex_count = vertex_count
        self.faces = frozenset(faces)
        self.facets = tuple(sorted(tuple(sorted(f)) for f in facets))

    @classmethod
    def from_facets(cls, vertex_count, facets):
        faces = {frozenset()}
        for facet in facets:
            facet = tuple(facet)
            for k in range(len(facet) + 1):
                faces.update(frozenset(c) for c in itertools.combinations(facet, k))
        return cls(vertex_count, faces, facets)

    def is_face(self, vertices):
        return frozenset(vertices) in self.faces

    @cached_property
    def faces_by_size(self):
        """faces_by_size[k] = sorted tuple of the size-k faces (as sorted tuples)."""
        top = max((len(f) for f in self.faces), default=0)
        buckets = [[] for _ in range(top + 1)]
        for f in self.faces:
            buckets[len(f)].append(tuple(sorted(f)))
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
    if r not in (1, 2, 3):
        raise InvalidSpec(f"del Pezzo surfaces are built for r in 1..3, got {r}")
    drop = {3: (), 2: ((1, -1),), 1: ((1, -1), (-1, 0))}[r]
    rays = [v for v in _HEXAGON if v not in drop]
    m = len(rays)
    cones = [(i, (i + 1) % m) for i in range(m)]
    return _validated(Fan(2, rays, cones), f"dP({r})")


def hirzebruch(a):
    """Hirzebruch surface F_a: rays e0, e1, -e0 + a*e1, -e1."""
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

    This is the unique smooth toric Fano d-fold with Picard number 2d-1 that
    is not a product; maximal cones are derived from the primitive pair list
    and the result is validated before being returned.
    """
    if d < 3 or d % 2 == 0:
        raise InvalidSpec(f"the tower is defined for odd d >= 3, got {d}")
    rays = tower_rays(d)
    cones = maximal_cones_from_primitive_pairs(rays, tower_primitive_pairs(d))
    return _validated(Fan(d, rays, cones), f"tower d={d}")


def maximal_cones_from_primitive_pairs(rays, forbidden_pairs):
    """All size-n independent sets of the non-face pair graph.

    For a fan whose primitive collections are all pairs, the faces are the
    index sets containing no forbidden pair, and the maximal cones are the
    size-n ones.  They are found by a backtracking walk in increasing ray
    order, which keeps a bitmask of the rays that conflict with the set so
    far, so they come out in lexicographic order.  Whether they form a
    smooth complete fan is left to `validate`.
    """
    rays = [tuple(r) for r in rays]
    n, count = len(rays[0]), len(rays)
    conflicts = [0] * count
    for p in forbidden_pairs:
        p = tuple(p)
        if len(p) != 2:
            raise ValueError(f"forbidden set {p} must be a pair")
        if not all(0 <= i < count for i in p):
            raise ValueError(f"forbidden pair {p} references a ray out of range")
        conflicts[p[0]] |= 1 << p[1]
        conflicts[p[1]] |= 1 << p[0]

    def extend(chosen, blocked):
        if len(chosen) == n:
            yield tuple(chosen)
            return
        for i in range((chosen[-1] + 1) if chosen else 0, count - n + len(chosen) + 1):
            if not (blocked | conflicts[i]) >> i & 1:
                yield from extend(chosen + [i], blocked | conflicts[i])

    return tuple(extend([], 0))


def fan_product(f1, f2):
    """Product fan: embedded rays of f1 then f2, all unions of maximal cones."""
    n1, n2 = f1.dim, f2.dim
    rays = [r + (0,) * n2 for r in f1.rays]
    rays += [(0,) * n1 + r for r in f2.rays]
    off = len(f1.rays)
    cones = [c1 + tuple(off + i for i in c2)
             for c1 in f1.max_cones for c2 in f2.max_cones]
    return Fan(n1 + n2, rays, cones)


_DESCRIPTOR = re.compile(r"^([A-Za-z]+):?(\d+)$")


def build_named(spec):
    """Build a variety from a descriptor: P:n, dP:r, Xd:d, F:a, or products A*B.

    The colon is optional (P2 == P:2); products multiply left to right.
    """
    spec = spec.strip()
    if "*" in spec:
        factors = [build_named(part) for part in spec.split("*")]
        fan = factors[0]
        for f in factors[1:]:
            fan = fan_product(fan, f)
        return fan
    m = _DESCRIPTOR.match(spec)
    if not m:
        raise InvalidSpec(f"cannot parse variety descriptor {spec!r}")
    kind, num = m.group(1), int(m.group(2))
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


def _facet_incidence(fan):
    """Map facet (sorted (n-1)-subset of a maximal cone) -> adjacent cone indices."""
    inc = {}
    for ci, cone in enumerate(fan.max_cones):
        for facet in itertools.combinations(cone, fan.dim - 1):
            inc.setdefault(facet, []).append(ci)
    return inc


def _side(fan, facet, ci, dets):
    """Side of the facet that cone ci lies on: whether det(facet rays, u) > 0.

    Moving u, the cone's ray off the facet, from its sorted place in the
    cone's matrix to the last row takes one row swap per facet ray above u.
    """
    (u,) = set(fan.max_cones[ci]) - set(facet)
    return (dets[ci] > 0) ^ (sum(j > u for j in facet) % 2)


def _cones_containing(fan, point):
    """Number of closed maximal cones that contain `point`.

    The point's coordinates on a cone's rays are (point @ adj) / det, so
    coordinate i has the sign of (point @ adj)[i] * det; (point @ adj)[i]
    is Cramer's det(cone, row i replaced by the point).  Every cone
    determinant must be nonzero.
    """
    return sum(all(x * det >= 0 for x in point @ adj) for det, adj in fan.cone_adjugates)


def validate(fan):
    """Check smoothness and completeness; simpliciality holds by representation.

    The fan is complete exactly when all four of these hold:

    1. every maximal cone has a nonzero determinant;
    2. every wall candidate (dim - 1 rays of a maximal cone) lies in exactly
       two maximal cones;
    3. those two cones lie on opposite sides of the wall;
    4. the sum of cone 0's rays lies in exactly one closed maximal cone.

    All four read the cones' determinants and adjugates, which one batched
    exact elimination of all cone matrices computes and `Fan.cone_adjugates`
    caches.  A fan without maximal cones is not complete.

    By 1-3 a path that leaves a cone through a facet enters exactly one
    other cone, so all points off the codimension-2 faces lie in the same
    number of cones: the cones cover space with some degree.  Near the point
    of 4 only cone 0 covers, so the degree is one: every point is covered
    and no two cones overlap.  A multi-fan winding twice around the origin
    passes 1-3 and fails 4.  All four tests are exact.
    """
    key = "validation"
    if key in fan._cache:
        return fan._cache[key]
    messages = []
    dets = [det for det, _ in fan.cone_adjugates]
    bad = [(fan.max_cones[i], d) for i, d in enumerate(dets) if d not in (1, -1)]
    smooth = not bad
    for cone, d in bad[:5]:
        messages.append(f"cone {cone} has determinant {d}")

    complete = bool(dets) and 0 not in dets
    if not dets:
        messages.append("the fan has no maximal cones")
    elif not complete:
        messages.append(f"cone {fan.max_cones[dets.index(0)]} is not full-dimensional")
    incidence = _facet_incidence(fan)
    for facet, adj in incidence.items():
        if len(adj) != 2:
            complete = False
            messages.append(f"wall candidate {facet} lies in {len(adj)} maximal cones")
    if complete:
        for facet, (a, b) in incidence.items():
            if _side(fan, facet, a, dets) == _side(fan, facet, b, dets):
                complete = False
                messages.append(f"the two cones at wall {facet} lie on the same side of it")
                break
    if complete:
        point = sum(fan.ray_matrix[j] for j in fan.max_cones[0])
        count = _cones_containing(fan, point)
        if count != 1:
            complete = False
            messages.append(f"point {tuple(int(x) for x in point)} of cone "
                            f"{fan.max_cones[0]} lies in {count} maximal cones")
    report = ValidationReport(smooth, complete, True, tuple(messages))
    fan._cache[key] = report
    return report


# ---------------------------------------------------------------------------
# walls, primitive collections, Poincare polynomial


def walls(fan):
    """All codimension-1 cones with their two adjacent maximal cones.

    Sorted by ray index set; u_plus is the completing ray of smaller index.
    """
    key = "walls"
    if key in fan._cache:
        return fan._cache[key]
    result = []
    for facet, adj in sorted(_facet_incidence(fan).items()):
        if len(adj) != 2:
            raise NotComplete(
                f"wall candidate {facet} lies in {len(adj)} maximal cones")
        extras = []
        for ci in adj:
            (extra,) = set(fan.max_cones[ci]) - set(facet)
            extras.append((extra, ci))
        extras.sort()
        (u_plus, plus_cone), (u_minus, minus_cone) = extras
        result.append(Wall(facet, plus_cone, minus_cone, u_plus, u_minus))
    result = tuple(result)
    fan._cache[key] = result
    return result


def primitive_collections(fan):
    """All minimal non-faces, each with its primitive relation.

    Enumerates candidate sets by increasing cardinality up to dim + 1; for a
    complete simplicial fan every non-face contains a minimal one of size at
    most dim + 1.
    """
    key = "primitive_collections"
    if key in fan._cache:
        return fan._cache[key]
    complex_ = fan.face_complex
    found = []
    nrays = len(fan.rays)
    for k in range(1, fan.dim + 2):
        for combo in itertools.combinations(range(nrays), k):
            if complex_.is_face(combo):
                continue
            if all(complex_.is_face(combo[:i] + combo[i + 1:]) for i in range(k)):
                found.append(combo)
    result = tuple(_relation_for(fan, combo) for combo in found)
    fan._cache[key] = result
    return result


def _relation_for(fan, combo):
    s = np.zeros(fan.dim, dtype=object)
    for i in combo:
        s = s + np.array(fan.rays[i], dtype=object)
    if not s.any():
        return PrimitiveCollection(combo, (), ())
    for ci, cone in enumerate(fan.max_cones):
        lam = fan.cone_inverses[ci].T @ s
        if all(x >= 0 for x in lam):
            support = [(cone[t], int(lam[t])) for t in range(fan.dim) if lam[t] > 0]
            support.sort()
            return PrimitiveCollection(
                combo,
                tuple(j for j, _ in support),
                tuple(c for _, c in support),
            )
    raise ConstructionFailed(
        f"sum of primitive collection {combo} lies in no maximal cone; fan not complete")


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
    cones = np.array(fan.max_cones, dtype=np.intp).reshape(-1, fan.dim)
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

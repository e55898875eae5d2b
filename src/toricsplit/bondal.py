"""Wall relations and Bondal's criterion.

Across every wall there is a unique integer relation
u_plus + u_minus + sum a_i * u_i = 0 over the wall's rays; the a_i are the
intersection numbers of the wall's divisors with the corresponding toric
curve.  The criterion asks that every relation have all a_i >= -1 with at
most one equal to -1; fans passing it are the candidates whose Frobenius
summands order into a strongly exceptional collection.

All relations of a fan come from one memoised array kernel, `_relations`:
the wall table, one coefficient row per wall and the inadmissible rows.
`bondal_criterion` wraps its rows into `WallRelation` objects.  The CLI
runs the kernel on each coordinate factor only (`_violations`): a
product's walls are a factor's walls times the other factors' cones, and
their relations the factor's, padded with zeros.
"""

import math
from dataclasses import dataclass

import numpy as np

from .fan import _factors, _outer_rows, _per_fan, _wall_arrays, walls
from .lattice import NotUnimodular, _exact_matmul, _narrow


class BasisDegenerate(RuntimeError):
    """Wall rays plus u_plus do not form a lattice basis; fan not smooth."""


@dataclass(frozen=True)
class WallRelation:
    wall: object
    coeffs: tuple

    @property
    def admissible(self):
        """All coefficients >= -1 and at most one equal to -1."""
        return (all(c >= -1 for c in self.coeffs)
                and sum(1 for c in self.coeffs if c == -1) <= 1)


def _coefficients(fan, inverses, plus_cone, u_plus, u_minus, plus_column,
                  wall_rays, columns):
    """Relation coefficients of a batch of walls, one row each.

    Row w solves u_minus = -u_plus - sum a_i u_i in the basis of its plus
    cone: the coordinates of u_minus are rays[u_minus] @ inverses[plus_cone],
    the one in `plus_column` must be -1, and the ones in `columns` (those of
    `wall_rays`), negated, are the a_i.  A wall is the facet of its plus
    cone off the u_plus column, so each (cone, column) pair holds at most
    one wall: rays[u_minus] goes to that row of a (#cones, n, n) stack, one
    product of the stack with the inverses gives all coordinates, and the
    walls' rows are read back.  The relation's sum is one product of its
    coefficients, a row over all rays, with the rays.  Raises
    BasisDegenerate at the first wall whose u_plus coordinate is not -1 or
    whose relation does not close.
    """
    rays = _narrow(fan.ray_matrix)
    stack = np.zeros((len(inverses), fan.dim, fan.dim), dtype=rays.dtype)
    stack[plus_cone, plus_column] = rays[u_minus]
    coords = _exact_matmul(stack, inverses)[plus_cone, plus_column]
    rows = np.arange(len(plus_cone))
    coeffs = -coords[rows[:, None], columns]
    terms = np.zeros((len(rows), len(rays)), dtype=coeffs.dtype)
    terms[rows[:, None], wall_rays] = coeffs
    terms[rows, u_plus] = terms[rows, u_minus] = 1
    total = _exact_matmul(terms, rays)
    plus = coords[rows, plus_column]
    wrong = (plus != -1).astype(bool)
    failed = np.flatnonzero(wrong | (total != 0).astype(bool).any(axis=1))
    if len(failed):
        w = failed[0]
        rays_w = tuple(wall_rays[w].tolist())
        if wrong[w]:
            raise BasisDegenerate(
                f"wall {rays_w}: u_plus coordinate is {plus[w]}, expected -1")
        raise BasisDegenerate(f"wall relation for {rays_w} does not close")
    return coeffs


def _smooth_inverses(fan, rays):
    """The cone inverses; BasisDegenerate, naming the wall `rays`, on a fan
    that is not smooth."""
    try:
        return fan.cone_inverses
    except NotUnimodular as exc:
        raise BasisDegenerate(f"wall {rays}: the fan is not smooth ({exc})") from exc


def wall_relation(fan, wall):
    """Solve u_minus = -u_plus - sum a_i u_i in the basis (wall rays, u_plus).

    The basis consists of the rays of the plus cone, so the coordinates of
    u_minus come from that cone's cached exact inverse, which exists on a
    smooth fan; the u_plus coordinate must be -1.  This is a one-row call of
    the kernel `_relations` runs on all walls at once.
    """
    cone = fan.max_cones[wall.plus_cone]
    if set(cone) != {*wall.rays, wall.u_plus}:
        raise BasisDegenerate(
            f"wall {wall.rays} with u_plus {wall.u_plus}: plus cone is {cone}")
    inverse = _smooth_inverses(fan, wall.rays)[wall.plus_cone]
    n = fan.dim
    coeffs = _coefficients(
        fan, inverse[None], [0], [wall.u_plus], [wall.u_minus], [cone.index(wall.u_plus)],
        np.array(wall.rays, dtype=np.intp).reshape(1, n - 1),
        np.array([cone.index(j) for j in wall.rays], dtype=np.intp).reshape(1, n - 1))
    return WallRelation(wall, tuple(coeffs[0].tolist()))


@dataclass(frozen=True)
class BondalVerdict:
    passed: bool
    relations: tuple
    violations: tuple

    def __bool__(self):
        return self.passed


@_per_fan
def _relations(fan):
    """(walls, coeffs, inadmissible) of every wall of the fan, as arrays.

    `walls` is the fan's `_WallArrays`, `coeffs` one relation row per wall
    from one batched `_coefficients` call on the stacked cone inverses, in
    their dtype, and `inadmissible` the rows, in order, that fail the
    criterion.  Raises NotComplete, then BasisDegenerate naming the first
    wall; a fan without walls has no rows.
    """
    a = _wall_arrays(fan)
    if not len(a.plus_cone):
        return a, np.zeros((0, fan.dim - 1), dtype=np.int64), np.zeros(0, dtype=np.intp)
    inverses = _smooth_inverses(fan, tuple(a.rays[0].tolist()))
    coeffs = _coefficients(fan, inverses, a.plus_cone, a.u_plus, a.u_minus,
                           a.plus_column, a.rays, a.columns)
    admissible = ((coeffs >= -1).all(axis=1) & ((coeffs == -1).sum(axis=1) <= 1)).astype(bool)
    return a, coeffs, np.flatnonzero(~admissible)


def bondal_criterion(fan):
    """Evaluate the criterion on every wall; violations carry full relations.

    The relations are the rows of `_relations`, one batched array pass over
    all walls, wrapped into `WallRelation` objects in the order of
    `walls(fan)`.
    """
    _, coeffs, inadmissible = _relations(fan)
    relations = tuple(WallRelation(w, tuple(c)) for w, c in zip(walls(fan), coeffs.tolist()))
    violations = tuple(relations[i] for i in inadmissible)
    return BondalVerdict(not violations, relations, violations)


@dataclass(frozen=True)
class _Violations:
    """The wall count and the inadmissible walls of a fan, one row each, in
    the order of `walls(fan)`."""
    walls: int
    rays: np.ndarray     # (violations, dim - 1)
    u_plus: np.ndarray
    u_minus: np.ndarray
    coeffs: np.ndarray   # (violations, dim - 1), the relation on `rays`


def _violations(fan):
    """`_Violations` of a smooth complete fan from its factors' `_relations`.

    Over `fan._factors`, a wall of the product is a wall of one factor f
    joined with one maximal cone of every other factor g, so the product
    has sum_f walls_f * prod_{g != f} cones_g walls.  Its two cones are the
    factor wall's two cones joined with the same cones, and its relation is
    the factor's, zero on the other factors' rays, which are in the wall's
    span; so it is admissible exactly when the factor's is.  Each failing
    factor row is crossed with the other factors' cones (`_outer_rows`),
    mapped through the factor's increasing ray group, which keeps u_plus
    the smaller completing ray, and each row is sorted by ray; the rows of
    all factors are then sorted, as the walls are.  A fan that is no
    product is its own single factor, with its own rows.
    """
    factors = _factors(fan)
    count, found = 0, []
    for f, (factor, group) in enumerate(factors):
        a, coeffs, bad = _relations(factor)
        others = factors[:f] + factors[f + 1:]
        copies = math.prod(len(other.max_cones) for other, _ in others)
        count += len(coeffs) * copies
        group = np.asarray(group, dtype=np.intp)
        rays = _outer_rows(group[a.rays[bad]],
                           *(np.asarray(g, dtype=np.intp)[other.cone_indices]
                             for other, g in others))
        coeffs = _outer_rows(coeffs[bad], *(np.zeros_like(other.cone_indices)
                                            for other, _ in others))
        order = np.argsort(rays, axis=1)
        found.append((np.take_along_axis(rays, order, axis=1),
                      np.repeat(group[a.u_plus[bad]], copies),
                      np.repeat(group[a.u_minus[bad]], copies),
                      np.take_along_axis(coeffs, order, axis=1)))
    rays, u_plus, u_minus, coeffs = (np.concatenate(part) for part in zip(*found))
    # np.lexsort takes the last key as primary and needs at least one key;
    # a curve's walls are points, and relations without coefficients pass
    order = np.lexsort(rays.T[::-1]) if fan.dim > 1 else np.arange(len(rays))
    return _Violations(count, rays[order], u_plus[order], u_minus[order], coeffs[order])

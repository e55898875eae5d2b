"""Wall relations and Bondal's criterion.

Across every wall there is a unique integer relation
u_plus + u_minus + sum a_i * u_i = 0 over the wall's rays; the a_i are the
intersection numbers of the wall's divisors with the corresponding toric
curve.  The criterion asks that every relation have all a_i >= -1 with at
most one equal to -1; fans passing it are the candidates whose Frobenius
summands order into a strongly exceptional collection.
"""

from dataclasses import dataclass

import numpy as np

from .fan import _wall_arrays, walls
from .lattice import NotUnimodular


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
    `wall_rays`), negated, are the a_i.  With e the largest |ray entry| and
    c = dim * e * (largest |inverse entry|), which bounds every coordinate,
    every partial sum of the relation stays below e * (2 + (dim - 1) * c);
    the products run in int64 when that is below 2^63 and in Python ints
    otherwise.  Raises BasisDegenerate at the first wall whose u_plus
    coordinate is not -1 or whose relation does not close.
    """
    n = fan.dim
    e = int(np.abs(fan.ray_matrix).max())
    c = n * e * int(np.abs(inverses).max(initial=0))
    dtype = np.int64 if e * (2 + (n - 1) * c) < 2 ** 63 else object
    rays, inverses = fan.ray_matrix.astype(dtype), inverses.astype(dtype)
    coords = np.zeros((len(plus_cone), n), dtype=dtype)
    for i in range(n):
        coords += rays[u_minus, i][:, None] * inverses[plus_cone, i]
    rows = np.arange(len(plus_cone))
    coeffs = -coords[rows[:, None], columns]
    total = rays[u_plus] + rays[u_minus]
    for t in range(n - 1):
        total += coeffs[:, t, None] * rays[wall_rays[:, t]]
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


def _smooth_inverses(fan, wall):
    """The cone inverses; BasisDegenerate, naming `wall`, on a fan that is not smooth."""
    try:
        return fan.cone_inverses
    except NotUnimodular as exc:
        raise BasisDegenerate(
            f"wall {wall.rays}: the fan is not smooth ({exc})") from exc


def wall_relation(fan, wall):
    """Solve u_minus = -u_plus - sum a_i u_i in the basis (wall rays, u_plus).

    The basis consists of the rays of the plus cone, so the coordinates of
    u_minus come from that cone's cached exact inverse, which exists on a
    smooth fan; the u_plus coordinate must be -1.  This is a one-row call of
    the kernel `bondal_criterion` runs on all walls at once.
    """
    cone = fan.max_cones[wall.plus_cone]
    if set(cone) != {*wall.rays, wall.u_plus}:
        raise BasisDegenerate(
            f"wall {wall.rays} with u_plus {wall.u_plus}: plus cone is {cone}")
    inverse = _smooth_inverses(fan, wall)[wall.plus_cone]
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


def bondal_criterion(fan):
    """Evaluate the criterion on every wall; violations carry full relations.

    All relations come from one batched call of the `wall_relation` kernel
    on the wall table and the stacked cone inverses, det * adj; the
    admissibility test is one array pass.
    """
    all_walls = walls(fan)
    if not all_walls:
        return BondalVerdict(True, (), ())
    dets, adjs = fan.cone_adjugates
    if (abs(dets) != 1).any():
        _smooth_inverses(fan, all_walls[0])  # raises BasisDegenerate
    a = _wall_arrays(fan)
    coeffs = _coefficients(fan, dets[:, None, None] * adjs, a.plus_cone, a.u_plus,
                           a.u_minus, a.plus_column, a.rays, a.columns)
    admissible = ((coeffs >= -1).all(axis=1) & ((coeffs == -1).sum(axis=1) <= 1)).astype(bool)
    relations = tuple(WallRelation(w, tuple(c)) for w, c in zip(all_walls, coeffs.tolist()))
    violations = tuple(relations[i] for i in np.flatnonzero(~admissible))
    return BondalVerdict(not violations, relations, violations)

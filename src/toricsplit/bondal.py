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

from .fan import walls
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


def wall_relation(fan, wall):
    """Solve u_minus = -u_plus - sum a_i u_i in the basis (wall rays, u_plus).

    The basis consists of the rays of the plus cone, so the coordinates of
    u_minus come from that cone's cached exact inverse, which exists on a
    smooth fan; the u_plus coordinate must be -1.
    """
    cone = fan.max_cones[wall.plus_cone]
    if set(cone) != {*wall.rays, wall.u_plus}:
        raise BasisDegenerate(
            f"wall {wall.rays} with u_plus {wall.u_plus}: plus cone is {cone}")
    try:
        inv = fan.cone_inverses[wall.plus_cone]
    except NotUnimodular as exc:
        raise BasisDegenerate(
            f"wall {wall.rays}: the fan is not smooth ({exc})") from exc
    coords = dict(zip(cone, np.array(fan.rays[wall.u_minus], dtype=object) @ inv))
    if coords[wall.u_plus] != -1:
        raise BasisDegenerate(
            f"wall {wall.rays}: u_plus coordinate is {coords[wall.u_plus]}, expected -1")
    coeffs = tuple(-int(coords[j]) for j in wall.rays)
    # the relation must hold on the nose
    total = (np.array(fan.rays[wall.u_plus], dtype=object)
             + np.array(fan.rays[wall.u_minus], dtype=object))
    for a, j in zip(coeffs, wall.rays):
        total = total + a * np.array(fan.rays[j], dtype=object)
    if total.any():
        raise BasisDegenerate(f"wall relation for {wall.rays} does not close")
    return WallRelation(wall, coeffs)


@dataclass(frozen=True)
class BondalVerdict:
    passed: bool
    relations: tuple
    violations: tuple

    def __bool__(self):
        return self.passed


def bondal_criterion(fan):
    """Evaluate the criterion on every wall; violations carry full relations."""
    relations = tuple(wall_relation(fan, w) for w in walls(fan))
    violations = tuple(r for r in relations if not r.admissible)
    return BondalVerdict(not violations, relations, violations)

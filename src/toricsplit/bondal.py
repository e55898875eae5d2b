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
from .lattice import NotUnimodular, unimodular_inverse


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

    The basis consists of the rays of the plus cone, hence is unimodular on a
    smooth fan; the u_plus coordinate of the solution must be -1.
    """
    basis = list(wall.rays) + [wall.u_plus]
    mat = np.array([[fan.rays[j][k] for j in basis] for k in range(fan.dim)],
                   dtype=object)
    try:
        inv = unimodular_inverse(mat)
    except NotUnimodular as exc:
        raise BasisDegenerate(
            f"wall {wall.rays} with u_plus {wall.u_plus}: {exc}") from exc
    target = np.array(fan.rays[wall.u_minus], dtype=object)
    x = inv @ target
    if x[-1] != -1:
        raise BasisDegenerate(
            f"wall {wall.rays}: u_plus coordinate is {x[-1]}, expected -1")
    coeffs = tuple(-int(c) for c in x[:-1])
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

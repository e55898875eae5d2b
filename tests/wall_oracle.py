"""Per-wall reference for the wall table, `validate` and wall relations.

These are the dict-and-loop forms that the library replaced by array passes
over the stacked cone array.  Facets are collected in a dict keyed by ray
tuple, in the order the cones first meet them.  Each cone's side of a wall
and each cone of the point test come from that cone's own determinant and
adjugate.  Each wall relation is a Smith-form solve of (wall rays, u_plus)
x = u_minus, independent of the cached cone inverses.
"""

import itertools

import numpy as np

from toricsplit.fan import NotComplete, ValidationReport, Wall
from toricsplit.lattice import adjugate, solve_integral


def facet_incidence(fan):
    """facet (sorted dim - 1 rays of a maximal cone) -> adjacent cone indices."""
    inc = {}
    for ci, cone in enumerate(fan.max_cones):
        for facet in itertools.combinations(cone, fan.dim - 1):
            inc.setdefault(facet, []).append(ci)
    return inc


def side(fan, facet, ci, dets):
    """Whether det(facet rays, u) > 0, u the ray of cone ci off the facet."""
    (u,) = set(fan.max_cones[ci]) - set(facet)
    return (dets[ci] > 0) ^ (sum(j > u for j in facet) % 2)


def validate(fan):
    pairs = [adjugate(fan.cone_matrices[i]) for i in range(len(fan.max_cones))]
    dets = [det for det, _ in pairs]
    messages = []
    bad = [(fan.max_cones[i], d) for i, d in enumerate(dets) if d not in (1, -1)]
    for cone, d in bad[:5]:
        messages.append(f"cone {cone} has determinant {d}")
    complete = bool(dets) and 0 not in dets
    if not dets:
        messages.append("the fan has no maximal cones")
    elif not complete:
        messages.append(f"cone {fan.max_cones[dets.index(0)]} is not full-dimensional")
    incidence = facet_incidence(fan)
    for facet, adj in incidence.items():
        if len(adj) != 2:
            complete = False
            messages.append(f"wall candidate {facet} lies in {len(adj)} maximal cones")
    if complete:
        for facet, (a, b) in incidence.items():
            if side(fan, facet, a, dets) == side(fan, facet, b, dets):
                complete = False
                messages.append(f"the two cones at wall {facet} lie on the same side of it")
                break
    if complete:
        point = sum(fan.ray_matrix[j] for j in fan.max_cones[0])
        count = sum(all(x * det >= 0 for x in point @ adj) for det, adj in pairs)
        if count != 1:
            complete = False
            messages.append(f"point {tuple(int(x) for x in point)} of cone "
                            f"{fan.max_cones[0]} lies in {count} maximal cones")
    return ValidationReport(not bad, complete, True, tuple(messages))


def walls(fan):
    result = []
    for facet, adj in sorted(facet_incidence(fan).items()):
        if len(adj) != 2:
            raise NotComplete(f"wall candidate {facet} lies in {len(adj)} maximal cones")
        extras = sorted((*(set(fan.max_cones[ci]) - set(facet)), ci) for ci in adj)
        (u_plus, plus_cone), (u_minus, minus_cone) = extras
        result.append(Wall(facet, plus_cone, minus_cone, u_plus, u_minus))
    return tuple(result)


def relation(fan, wall):
    """The a_i of u_plus + u_minus + sum a_i u_i = 0 over the wall's rays."""
    basis = [fan.rays[j] for j in wall.rays] + [fan.rays[wall.u_plus]]
    x = solve_integral(np.array(basis, dtype=object).T.reshape(fan.dim, fan.dim),
                       fan.rays[wall.u_minus])
    assert x is not None and x[-1] == -1
    return tuple(-int(c) for c in x[:-1])

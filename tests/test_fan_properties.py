"""Property tests of the exact completeness criterion in `validate`.

Complete fans come from star subdivisions of named fans and from toric
blow-ups of unimodular 2-D cycles that wind once; multi-fans come from the
same blow-ups of a cycle that winds twice (Hattori-Masuda).  The winding
number is computed here, independently of the library.
"""

import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from toricsplit.fan import Fan, build_named, poincare_polynomial, validate

SETTINGS = settings(max_examples=60, deadline=None, database=None, derandomize=True)

# unimodular cycles: consecutive rays have determinant 1
ONCE = (
    ((1, 0), (0, 1), (-1, -1)),
    ((1, 0), (0, 1), (-1, 0), (0, -1)),
    ((1, 0), (0, 1), (-1, 3), (0, -1)),
    ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)),
)
TWICE = (((1, 0), (0, 1), (-1, -2), (2, 3), (-1, -1), (0, -1)),)

# generators of GL_2(Z): two shears and a reflection
MATRICES = (((1, 1), (0, 1)), ((1, 0), (1, 1)), ((1, -1), (0, 1)), ((0, 1), (1, 0)))


def winding(rays):
    """Turns of the closed polygonal path through the rays, in order."""
    total = 0.0
    for (a, b), (c, d) in zip(rays, rays[1:] + rays[:1]):
        total += math.atan2(a * d - b * c, a * c + b * d)
    turns = total / (2 * math.pi)
    assert abs(turns - round(turns)) < 1e-6
    return round(turns)


@st.composite
def cycle_fans(draw, bases):
    """A fan on a transformed, blown-up base cycle, with shuffled ray indices.

    Returns the fan and the winding number of its cycle.
    """
    rays = list(draw(st.sampled_from(bases)))
    for m in draw(st.lists(st.sampled_from(MATRICES), max_size=4)):
        rays = [(m[0][0] * x + m[0][1] * y, m[1][0] * x + m[1][1] * y) for x, y in rays]
    for pos in draw(st.lists(st.integers(0, 100), max_size=5)):
        # toric blow-up: insert u + v between consecutive rays u, v
        i = pos % len(rays)
        u, v = rays[i], rays[(i + 1) % len(rays)]
        rays.insert(i + 1, (u[0] + v[0], u[1] + v[1]))
    assume(len(set(rays)) == len(rays))
    k = len(rays)
    order = draw(st.permutations(range(k)))  # ray i of the cycle is order[i]
    shuffled = [None] * k
    for i, j in enumerate(order):
        shuffled[j] = rays[i]
    fan = Fan(2, shuffled, [(order[i], order[(i + 1) % k]) for i in range(k)])
    return fan, winding(rays)


@SETTINGS
@given(cycle_fans(ONCE))
def test_cycles_winding_once_validate(drawn):
    fan, turns = drawn
    assert abs(turns) == 1
    assert validate(fan).ok


@SETTINGS
@given(cycle_fans(TWICE))
def test_cycles_winding_twice_do_not_validate(drawn):
    fan, turns = drawn
    assert abs(turns) == 2
    report = validate(fan)
    assert report.smooth and not report.complete


def star_subdivide(fan, face):
    """Star subdivision at a cone: a new ray, the sum of the cone's rays."""
    new = len(fan.rays)
    ray = tuple(sum(fan.rays[j][k] for j in face) for k in range(fan.dim))
    cones = []
    for cone in fan.max_cones:
        if set(face) <= set(cone):
            cones.extend(tuple(sorted(set(cone) - {t} | {new})) for t in face)
        else:
            cones.append(cone)
    return Fan(fan.dim, fan.rays + (ray,), cones)


@SETTINGS
@given(st.sampled_from(["P:3", "Xd:3", "P:1*dP:3"]),
       st.lists(st.tuples(st.integers(2, 3), st.integers(0, 1000)), min_size=1, max_size=3))
def test_star_subdivisions_validate(spec, steps):
    fan = build_named(spec)
    for size, index in steps:
        faces = fan.face_complex.faces_by_size[size]
        fan = star_subdivide(fan, faces[index % len(faces)])
        assert validate(fan).ok, validate(fan).messages
        assert poincare_polynomial(fan).euler_characteristic == len(fan.max_cones)

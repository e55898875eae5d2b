"""Property tests of the exact completeness criterion in `validate`, of the
cone counts behind the Poincare polynomial, of line-bundle cohomology and
of the Frobenius splitting of O.

Complete fans come from star subdivisions of named fans and from toric
blow-ups of unimodular 2-D cycles that wind once; multi-fans come from the
same blow-ups of a cycle that winds twice (Hattori-Masuda).  The winding
number is computed here, independently of the library.  Cohomology tables
of star subdivisions are checked degree by degree against the oracle, and
tables on products of blown-up cycles, whose face complexes are joins,
against the Kunneth formula.  Star subdivisions also check Serre duality
and the invariants of the splitting of O at p = 2 and 3.
"""

import math
from unittest import mock

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cohomology_oracle import box_scan, oracle_cohomology
from toricsplit import cohomology
from toricsplit.cohomology import line_bundle_cohomology
from toricsplit.divisor import canonical_divisor
from toricsplit.fan import (
    Fan,
    _face_counts,
    build_named,
    fan_product,
    poincare_polynomial,
    validate,
)
from toricsplit.frobenius import thomsen_split, verify_splitting_invariants

SETTINGS = settings(max_examples=60, deadline=None, database=None, derandomize=True)
FEW = settings(SETTINGS, max_examples=12)

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


def blow_up(rays, positions):
    """Toric blow-ups of a 2-D cycle: for each position, insert u + v
    between the consecutive rays u, v it picks."""
    rays = list(rays)
    for pos in positions:
        i = pos % len(rays)
        u, v = rays[i], rays[(i + 1) % len(rays)]
        rays.insert(i + 1, (u[0] + v[0], u[1] + v[1]))
    return rays


def cycle_fan(rays):
    """The complete 2-D fan whose maximal cones join consecutive rays."""
    return Fan(2, rays, [(i, (i + 1) % len(rays)) for i in range(len(rays))])


@st.composite
def cycle_fans(draw, bases):
    """A fan on a transformed, blown-up base cycle, with shuffled ray indices.

    Returns the fan and the winding number of its cycle.
    """
    rays = list(draw(st.sampled_from(bases)))
    for m in draw(st.lists(st.sampled_from(MATRICES), max_size=4)):
        rays = [(m[0][0] * x + m[0][1] * y, m[1][0] * x + m[1][1] * y) for x, y in rays]
    rays = blow_up(rays, draw(st.lists(st.integers(0, 100), max_size=5)))
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
        # cones counted from the maximal cones alone, against the face complex
        assert _face_counts(fan) == tuple(len(b) for b in fan.face_complex.faces_by_size)


@st.composite
def star_subdivisions(draw):
    """A named fan after one to three star subdivisions at 2- or 3-cones."""
    fan = build_named(draw(st.sampled_from(["P:3", "Xd:3", "P:1*dP:3"])))
    for _ in range(draw(st.integers(1, 3))):
        faces = fan.face_complex.faces_by_size[draw(st.integers(2, 3))]
        fan = star_subdivide(fan, draw(st.sampled_from(faces)))
    return fan


def divisors(fan, span):
    return st.tuples(*(st.integers(-span, span) for _ in fan.rays))


@FEW
@given(st.data())
def test_star_subdivision_cohomology_matches_oracle(data):
    fan = data.draw(star_subdivisions())
    d = data.draw(divisors(fan, 1))
    bound = cohomology._degree_bound(fan, d)
    # no degree beyond the proven radius contributes
    assert box_scan(fan, d, bound + 1)[1] <= bound
    table = line_bundle_cohomology(fan, d)
    assert (table.dims, table.box) == oracle_cohomology(fan, d)


@FEW
@given(st.data())
def test_star_subdivision_serre_duality(data):
    # h^i(D) = h^{n-i}(K - D)
    fan = data.draw(star_subdivisions())
    d = data.draw(divisors(fan, 1))
    dual = tuple(k - a for k, a in zip(canonical_divisor(fan), d))
    assert line_bundle_cohomology(fan, d).dims == \
        line_bundle_cohomology(fan, dual).dims[::-1]


@FEW
@given(star_subdivisions(), st.sampled_from([2, 3]))
def test_star_subdivision_splitting_invariants(fan, p):
    # the multiplicity, c1 and base-cone identities of the splitting of O
    report = verify_splitting_invariants(thomsen_split(fan, tuple(0 for _ in fan.rays), p))
    assert report.ok, report.messages


@FEW
@given(st.data())
def test_product_cohomology_is_kunneth(data):
    # H^k(D1 x D2) is the sum over i + j = k of H^i(D1) (x) H^j(D2)
    f1, _ = data.draw(cycle_fans(ONCE[1:]))
    f2, _ = data.draw(cycle_fans(ONCE[1:]))
    d1, d2 = data.draw(divisors(f1, 1)), data.draw(divisors(f2, 1))
    product = fan_product(f1, f2)
    assert len(cohomology._join_blocks(product)[0]) >= 2
    factored = line_bundle_cohomology(product, d1 + d2)
    # the whole-fan scan, which reads the face complex as a join; a product
    # fan is otherwise scanned factor by factor
    with mock.patch.object(cohomology, "_coordinate_factors", lambda fan: None):
        table = line_bundle_cohomology(fan_product(f1, f2), d1 + d2)
    expected = np.convolve(line_bundle_cohomology(f1, d1).dims,
                           line_bundle_cohomology(f2, d2).dims)
    assert table.dims == tuple(int(x) for x in expected)
    assert factored == table

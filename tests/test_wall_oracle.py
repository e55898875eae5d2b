"""The array passes over the cone stack against the per-wall reference.

`walls`, `validate`, `bondal_criterion` and the one-row `wall_relation` are
compared with tests/wall_oracle.py on named fans, products, star
subdivisions, blown-up 2-D cycles (winding once and twice), folded cycles
and their products with P^1 (every wall in two cones, on sides that vary),
and fans with cones removed or added, whose validation messages must agree
in order.
"""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wall_oracle
from test_fan_properties import ONCE, TWICE, cycle_fans, star_subdivisions
from toricsplit.bondal import bondal_criterion, wall_relation
from toricsplit.fan import (
    Fan,
    NotComplete,
    build_named,
    fan_product,
    hirzebruch,
    maximal_cones_from_primitive_pairs,
    validate,
    walls,
)

SETTINGS = settings(max_examples=40, deadline=None, database=None, derandomize=True)

NAMED = ["P:1", "P:2", "P:3", "dP:1", "dP:2", "dP:3", "Xd:3", "Xd:5",
         "P:1*P:1", "P:1*dP:3", "dP:3*dP:3", "F:2*P:2", "P:2*P:2", "P:1*P:1*P:1"]
NAMED += [f"F:{a}" for a in range(1, 6)]


def assert_matches_reference(fan):
    """validate, walls and (on smooth complete fans) every relation agree."""
    report = validate(fan)
    assert report == wall_oracle.validate(fan)
    try:
        expected = wall_oracle.walls(fan)
    except NotComplete as exc:
        with pytest.raises(NotComplete) as caught:
            walls(fan)
        assert str(caught.value) == str(exc)
        return
    assert walls(fan) == expected
    if not report.ok:
        return
    verdict = bondal_criterion(fan)
    coeffs = [wall_oracle.relation(fan, w) for w in expected]
    assert [r.wall for r in verdict.relations] == list(expected)
    assert [r.coeffs for r in verdict.relations] == coeffs
    assert [wall_relation(fan, w).coeffs for w in expected] == coeffs
    assert verdict.violations == tuple(r for r in verdict.relations if not r.admissible)


@pytest.mark.parametrize("spec", NAMED)
def test_named(spec):
    assert_matches_reference(build_named(spec))


@SETTINGS
@given(star_subdivisions())
def test_star_subdivisions(fan):
    assert_matches_reference(fan)


@SETTINGS
@given(cycle_fans(ONCE + TWICE))
def test_cycles(drawn):
    assert_matches_reference(drawn[0])


@SETTINGS
@given(st.sampled_from(["P:2", "P:3", "dP:3", "Xd:3", "P:1*dP:3", "F:3"]), st.data())
def test_cones_removed_or_added(spec, data):
    # broken fans: the messages, and their order, must match the reference
    fan = build_named(spec)
    cones = list(fan.max_cones)
    drop = data.draw(st.sets(st.integers(0, len(cones) - 1), max_size=3))
    extra = data.draw(st.lists(st.sampled_from(
        list(itertools.combinations(range(len(fan.rays)), fan.dim))), max_size=2))
    cones = [c for i, c in enumerate(cones) if i not in drop]
    cones += [c for c in dict.fromkeys(extra) if c not in cones]
    assert_matches_reference(Fan(fan.dim, fan.rays, cones))


@st.composite
def folded_cycles(draw):
    """A 2-D cycle through random primitive rays, in any order and winding,
    with shuffled ray indices, times P^1 when drawn."""
    vectors = [(x, y) for x in range(-3, 4) for y in range(-3, 4) if math.gcd(x, y) == 1]
    rays = draw(st.lists(st.sampled_from(vectors), min_size=3, max_size=7, unique=True))
    k = len(rays)
    order = draw(st.permutations(range(k)))
    shuffled = [None] * k
    for i, j in enumerate(order):
        shuffled[j] = rays[i]
    fan = Fan(2, shuffled, [(order[i], order[(i + 1) % k]) for i in range(k)])
    return fan_product(fan, build_named("P:1")) if draw(st.booleans()) else fan


@settings(SETTINGS, max_examples=150)
@given(folded_cycles())
def test_folded_cycles(fan):
    assert_matches_reference(fan)


def test_first_same_side_wall_in_cone_order():
    # the cones at (1,) and at (2,) lie on one side; cone (0, 2) meets (2,)
    # before cone (1, 2) meets (1,)
    fan = Fan(2, [(-1, 0), (0, 1), (1, 1), (1, -1)], [(0, 2), (0, 3), (1, 2), (1, 3)])
    assert validate(fan).messages == ("the two cones at wall (2,) lie on the same side of it",)
    assert_matches_reference(fan)


def test_line_fans():
    # dim 1: every facet is the empty wall, so the table sorts on no key
    line = Fan(1, [(1,), (-1,)], [(0,), (1,)])
    assert_matches_reference(line)
    (wall,) = walls(line)
    assert (wall.rays, wall.u_plus, wall.u_minus) == ((), 0, 1)
    assert bondal_criterion(line).relations[0].coeffs == ()
    half = Fan(1, [(1,), (-1,)], [(0,)])
    assert_matches_reference(half)
    assert validate(half).messages == ("wall candidate () lies in 1 maximal cones",)


def test_fan_without_cones():
    fan = Fan(2, [(1, 0), (0, 1)], [])
    assert_matches_reference(fan)
    assert validate(fan).messages == ("the fan has no maximal cones",)
    assert walls(fan) == ()
    assert bondal_criterion(fan).relations == ()


@pytest.mark.parametrize("a", [2 ** 20, 2 ** 40, 2 ** 70])
def test_huge_hirzebruch_exact(a):
    # the -a section: coordinates beyond int64 take the Python-int path
    fan = hirzebruch(a)
    verdict = bondal_criterion(fan)
    assert [r.coeffs for r in verdict.relations] == [(0,), (-a,), (0,), (a,)]
    assert [r.coeffs for r in verdict.violations] == [(-a,)]
    assert [wall_relation(fan, w).coeffs for w in walls(fan)] == [(0,), (-a,), (0,), (a,)]


def test_cones_from_pairs_beyond_62_rays():
    # 70 rays in dimension 3 with a seeded pair graph: the same cones, in the
    # same order, as filtering every 3-subset; self-pairs block their ray
    rays = [(i, 1, 0) for i in range(70)]
    pairs = [(i, (7 * i + 3) % 70) for i in range(70)] + [(5, 5), (66, 66)]
    bad = {frozenset(p) for p in pairs}
    expected = tuple(c for c in itertools.combinations(range(70), 3)
                     if not any(frozenset(q) in bad for q in itertools.combinations(c, 2))
                     and 5 not in c and 66 not in c)
    assert maximal_cones_from_primitive_pairs(rays, pairs) == expected

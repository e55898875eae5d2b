"""`fan._per_fan`, the one memo for per-fan results."""

import pytest

from toricsplit import cohomology
from toricsplit.fan import Fan, NotComplete, _per_fan, build_named, primitive_collections, walls


def test_second_call_returns_the_same_object():
    fan = build_named("dP:3")
    assert walls(fan) is walls(fan)
    assert primitive_collections(fan) is primitive_collections(fan)
    a = (1, 0, -1, 0, 2, 0)
    assert cohomology.line_bundle_cohomology(fan, a) is \
        cohomology.line_bundle_cohomology(fan, list(a))


def test_a_raising_call_stores_nothing():
    calls = []

    @_per_fan
    def flaky(fan, x):
        calls.append(x)
        if len(calls) == 1:
            raise RuntimeError("first call fails")
        return [x]

    fan = build_named("P:1")
    with pytest.raises(RuntimeError):
        flaky(fan, 3)
    assert flaky(fan, 3) == [3]
    assert flaky(fan, 3) is flaky(fan, 3)
    assert calls == [3, 3]


def test_incomplete_fan_raises_on_every_call():
    dp3 = build_named("dP:3")
    broken = Fan(2, dp3.rays, dp3.max_cones[1:])
    for _ in range(2):
        with pytest.raises(NotComplete):
            walls(broken)


def test_equal_arguments_do_not_collide():
    fan = build_named("dP:3")
    a = (1, 0, -1, 0, 2, 0)
    scan = cohomology._scan(fan, a)
    table = cohomology._table(fan, a)
    assert isinstance(scan, tuple)
    assert isinstance(table, cohomology.CohomologyTable)
    assert cohomology._scan(fan, a) is scan
    assert cohomology._table(fan, a) is table

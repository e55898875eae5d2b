"""Differential tests: `validate` of a product, answered from its factors,
against the whole-fan checks.

A product of fans on disjoint blocks of coordinates whose factors all pass
is reported valid without forming its own cone adjugates or facet table;
one with a failing factor runs the whole-fan checks.  The reference is
`validate` on a fresh copy of the fan with `fan._coordinate_factors`
patched to find no product, so that every check runs on the whole fan, and
the two reports must be equal, messages included.  Permuted copies shuffle
the rays and the coordinates, so the factors' rays interleave in the cones.
The CLI commands on named products must never eliminate a product's cone
matrices or sort its facets.  The facet table's narrow sort keys are
checked against a plain Python sort where the key type widens from uint8
to uint16.
"""

import random
import sys

import numpy as np
import pytest

from toricsplit import cli
from toricsplit import fan as fan_mod
from toricsplit.fan import Fan, _coordinate_factors, _facet_table, build_named, fan_product, validate

from test_factored_split import permuted
from test_thomsen_oracle import SPECS

PRODUCTS = [spec for spec in SPECS if _coordinate_factors(build_named(spec))]

# (1, 0) and (-1, 0) span a line: cone (0, 1) has determinant 0
SINGULAR = Fan(2, [(1, 0), (-1, 0), (0, 1), (1, 1)], [(0, 1), (0, 2), (1, 3), (2, 3)])


def whole_fan_report(monkeypatch, fan):
    with monkeypatch.context() as patch:
        patch.setattr(fan_mod, "_coordinate_factors", lambda fan: None)
        return validate(Fan(fan.dim, fan.rays, fan.max_cones))


def assert_matches_whole(monkeypatch, fan):
    """The factored report equals the whole-fan one; a passing product has
    not formed its own adjugates, a failing one has."""
    factors = _coordinate_factors(fan)
    assert factors is not None
    report = validate(fan)
    assert report == whole_fan_report(monkeypatch, fan)
    assert report.ok == all(validate(factor).ok for factor, _ in factors)
    assert ("cone_adjugates" in vars(fan)) != report.ok
    return report


@pytest.mark.parametrize("spec", PRODUCTS + ["Xd:7", "P:1*P:1", "F:2*P:1", "P:2*P:2*P:1",
                                             "dP:3*dP:3*dP:3"])
def test_products_match_whole_elimination(spec, monkeypatch):
    assert assert_matches_whole(monkeypatch, build_named(spec)).ok


@pytest.mark.parametrize("spec", PRODUCTS + ["F:2*P:1", "P:1*dP:3*dP:3"])
def test_permuted_copies_match_whole_elimination(spec, monkeypatch):
    rng = random.Random(f"adjugates/{spec}")
    for _ in range(6):
        assert assert_matches_whole(monkeypatch, permuted(build_named(spec), rng)).ok


@pytest.mark.parametrize("other", ["P:1", "dP:3", "F:2"])
def test_singular_factor_cone(other, monkeypatch):
    # a det-0 factor cone fails its factor, so the product's own cones are
    # checked and named
    rng = random.Random(f"adjugates/singular/{other}")
    for fan in (fan_product(SINGULAR, build_named(other)),
                fan_product(build_named(other), SINGULAR)):
        for copy in (fan, permuted(fan, rng)):
            report = assert_matches_whole(monkeypatch, copy)
            assert not report.smooth and 0 in copy.cone_adjugates[0].tolist()


def test_failing_products_keep_their_messages(monkeypatch):
    dp3 = build_named("dP:3")
    fans = [fan_product(Fan(2, dp3.rays, dp3.max_cones[1:]), build_named("P:1")),
            fan_product(build_named("P:1"), Fan(1, [(1,), (-1,)], [(0,)])),
            fan_product(Fan(2, [(1, 0), (1, 2), (-1, -1)], [(0, 1), (1, 2), (0, 2)]),
                        build_named("P:1")),
            # P:2 with the ray (1, 1) in no cone
            fan_product(build_named("P:1"),
                        Fan(2, [(1, 0), (0, 1), (-1, -1), (1, 1)], [(0, 1), (1, 2), (0, 2)]))]
    for fan in fans:
        assert not assert_matches_whole(monkeypatch, fan).ok
    assert validate(fans[3]).messages == ("ray 5 (0, 1, 1) lies in no maximal cone",)


def test_fan_without_cones_is_no_product():
    fan = Fan(2, [(1, 0), (0, 1), (-1, 0), (0, -1)], [])
    assert _coordinate_factors(fan) is None
    assert validate(fan).messages == ("the fan has no maximal cones",)


@pytest.mark.parametrize("argv", [
    ["variety", "info", "Xd:9"],
    ["bondal", "check", "--variety", "Xd:9"],
    ["frobenius", "split", "--variety", "Xd:7", "--p", "2"],
    ["frobenius", "verify", "--variety", "Xd:5", "--p", "3"],
])
def test_cli_never_eliminates_a_product(argv, monkeypatch):
    # every fan that reaches the facet table or the cone elimination of
    # `Fan.cone_adjugates` (the caller's `self`) is recorded
    seen = []

    def facet_table(fan, table=fan_mod._facet_table):
        seen.append(fan)
        return table(fan)

    def bareiss(mats, adjugates, eliminate=fan_mod._bareiss):
        seen.append(sys._getframe(1).f_locals["self"])
        return eliminate(mats, adjugates)

    monkeypatch.setattr(fan_mod, "_facet_table", facet_table)
    monkeypatch.setattr(fan_mod, "_bareiss", bareiss)
    assert cli.main(argv) == 0
    assert seen  # the factors are checked
    assert all(_coordinate_factors(fan) is None for fan in seen)


@pytest.mark.parametrize("count", [255, 256, 257])
def test_facet_table_matches_python_sort(count):
    # cones over the rays around the uint8 limit, many sharing facets
    rng = random.Random(f"facets/{count}")
    rays = [(1, i, 0) for i in range(count)]
    high = range(count - 12, count)
    cones = {tuple(sorted(rng.sample(high, 3))) for _ in range(150)}
    cones |= {tuple(sorted((rng.randrange(count - 12), *rng.sample(high, 2)))) for _ in range(150)}
    fan = Fan(3, rays, cones)
    rows = [tuple(j for i, j in enumerate(cone) if i != 2 - t)
            for cone in fan.max_cones for t in range(3)]
    order = sorted(range(len(rows)), key=rows.__getitem__)
    table = _facet_table(fan)
    assert table.order.tolist() == order
    assert table.facets.dtype == np.intp
    assert table.facets.tolist() == [list(rows[r]) for r in order]
    assert max(max(c) for c in fan.max_cones) == count - 1

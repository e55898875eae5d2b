"""Differential tests: `Fan.cone_adjugates` of a product, assembled from its
factors' eliminations, against one elimination of all its cone matrices.

The values must agree exactly; the dtype may be narrower, because the
assembled products are bounded by the factors' own values.  Permuted copies
shuffle the rays and the coordinates, so the factors' rays interleave in the
cones and the row and column permutations have both signs.  The facet
table's narrow sort keys are checked against a plain Python sort where the
key type widens from uint8 to uint16.
"""

import random

import numpy as np
import pytest

from toricsplit import fan as fan_mod
from toricsplit.fan import (Fan, _coordinate_factors, _facet_table, _factor_layout, build_named,
                            fan_product, validate)
from toricsplit.lattice import _bareiss

from test_factored_split import permuted
from test_thomsen_oracle import SPECS

PRODUCTS = [spec for spec in SPECS if _coordinate_factors(build_named(spec))]

# (1, 0) and (-1, 0) span a line: cone (0, 1) has determinant 0
SINGULAR = Fan(2, [(1, 0), (-1, 0), (0, 1), (1, 1)], [(0, 1), (0, 2), (1, 3), (2, 3)])


def assert_matches_whole(fan):
    assert _coordinate_factors(fan) is not None
    dets, adjs = fan.cone_adjugates
    whole_dets, whole_adjs = _bareiss(fan.cone_matrices, True)
    assert dets.shape == whole_dets.shape and adjs.shape == whole_adjs.shape
    assert dets.tolist() == whole_dets.tolist()
    assert adjs.tolist() == whole_adjs.tolist()


def whole_fan_messages(monkeypatch, fan):
    with monkeypatch.context() as patch:
        patch.setattr(fan_mod, "_factor_layout", lambda fan: None)
        return validate(Fan(fan.dim, fan.rays, fan.max_cones)).messages


@pytest.mark.parametrize("spec", PRODUCTS + ["Xd:7", "P:1*P:1", "F:2*P:1", "P:2*P:2*P:1",
                                             "dP:3*dP:3*dP:3"])
def test_products_match_whole_elimination(spec):
    assert_matches_whole(build_named(spec))


@pytest.mark.parametrize("spec", PRODUCTS + ["F:2*P:1", "P:1*dP:3*dP:3"])
def test_permuted_copies_match_whole_elimination(spec):
    rng = random.Random(f"adjugates/{spec}")
    signs = set()
    for _ in range(6):
        fan = permuted(build_named(spec), rng)
        assert_matches_whole(fan)
        signs |= set(_factor_layout(fan).sign.tolist())
    assert signs == {-1, 1}


@pytest.mark.parametrize("other", ["P:1", "dP:3", "F:2"])
def test_singular_factor_cone(other, monkeypatch):
    # a det-0 factor cone sends its products' adjugates through the minors
    # of the factor elimination
    rng = random.Random(f"adjugates/singular/{other}")
    for fan in (fan_product(SINGULAR, build_named(other)),
                fan_product(build_named(other), SINGULAR)):
        for copy in (fan, permuted(fan, rng)):
            assert_matches_whole(copy)
            assert 0 in copy.cone_adjugates[0].tolist()
            assert validate(copy).messages == whole_fan_messages(monkeypatch, copy)


def test_failing_products_keep_their_messages(monkeypatch):
    dp3 = build_named("dP:3")
    fans = [fan_product(Fan(2, dp3.rays, dp3.max_cones[1:]), build_named("P:1")),
            fan_product(build_named("P:1"), Fan(1, [(1,), (-1,)], [(0,)])),
            fan_product(Fan(2, [(1, 0), (1, 2), (-1, -1)], [(0, 1), (1, 2), (0, 2)]),
                        build_named("P:1"))]
    for fan in fans:
        assert _coordinate_factors(fan) is not None
        assert not validate(fan).ok
        assert validate(fan).messages == whole_fan_messages(monkeypatch, fan)


def test_fan_without_cones_is_no_product():
    fan = Fan(2, [(1, 0), (0, 1), (-1, 0), (0, -1)], [])
    assert _coordinate_factors(fan) is None
    assert validate(fan).messages == ("the fan has no maximal cones",)


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

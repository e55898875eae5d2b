"""Cohomology of coordinate products, scanned factor by factor, against the
scan of the whole fan."""

import functools
import random

import numpy as np
import pytest

from toricsplit import cohomology
from toricsplit import fan as fan_mod
from toricsplit.cohomology import line_bundle_cohomology
from toricsplit.fan import Fan, _coordinate_factors, _factors, build_named

# factor dimensions in coordinate order, or None for a fan that is no product
FACTORS = {
    "Xd:5": [3, 2],
    "Xd:7": [3, 2, 2],
    "dP:3*dP:3": [2, 2],
    "P:1*dP:3*dP:3": [1, 2, 2],
    "P:2*P:2": [2, 2],
    "P:1*P:1": [1, 1],
    "P:2": None,
    "dP:3": None,
    "F:2": None,
    "Xd:3": None,
}


def moved_dp3_squared():
    # dP3 x dP3 moved by a unimodular shear that mixes all four coordinates
    g = np.array([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [0, 0, 0, 1]], dtype=object)
    base = build_named("dP:3*dP:3")
    return Fan(4, [tuple(int(x) for x in g @ np.array(r, dtype=object)) for r in base.rays],
               base.max_cones)


def tables(monkeypatch, make_fan, cases, factored=True):
    """Tables of the cases, with the factoring switched off unless
    `factored`.  A case (d, None) is read at the proven radius on one fresh
    fan, and a case (d, r) on a fresh fan of its own whose scans all run at
    radius r."""
    with monkeypatch.context() as patch:
        if not factored:
            patch.setattr(fan_mod, "_coordinate_factors", lambda fan: None)
        fan = make_fan()
        # the patch must reach the scan: a product has factors without it
        # and is its own single factor under it
        if factored:
            assert len(_factors(fan)) >= 2
        else:
            assert _factors(fan) == [(fan, tuple(range(len(fan.rays))))]
        out = [line_bundle_cohomology(fan, d) for d, radius in cases if radius is None]
        for d, radius in cases:
            if radius is not None:
                patch.setattr(cohomology, "_degree_bound", lambda fan, a: radius)
                out.append(line_bundle_cohomology(make_fan(), d))
        return out


@pytest.mark.parametrize("spec", sorted(FACTORS))
def test_detection(spec):
    factors = _coordinate_factors(build_named(spec))
    dims = None if factors is None else [f.dim for f, _ in factors]
    assert dims == FACTORS[spec]


def test_cone_count_decides():
    # P1 x P1 without one of its four cones: the coordinates still split,
    # but 3 cones are not all 2 x 2 choices of restrictions
    base = build_named("P:1*P:1")
    assert _coordinate_factors(Fan(2, base.rays, base.max_cones[1:])) is None


def test_moved_product_is_not_detected():
    fan = moved_dp3_squared()
    assert _coordinate_factors(fan) is None
    rng = random.Random("moved")
    divisors = [tuple(rng.randint(-2, 2) for _ in fan.rays) for _ in range(4)]
    product = build_named("dP:3*dP:3")
    assert _coordinate_factors(product) is not None
    # the same coefficients on corresponding rays give the same dims; the
    # box is a sup-norm in the moved coordinates, so it may differ
    assert [line_bundle_cohomology(fan, d).dims for d in divisors] == \
        [line_bundle_cohomology(product, d).dims for d in divisors]


@pytest.mark.parametrize("spec, span, count", [
    ("Xd:5", 2, 5),
    ("dP:3*dP:3", 2, 5),
    ("P:1*dP:3*dP:3", 2, 5),
    ("P:2*P:2", 2, 5),
    ("P:1*P:1", 3, 5),
    ("Xd:7", 1, 2),
])
def test_matches_unfactored_scan(spec, span, count, monkeypatch):
    fan = build_named(spec)
    rng = random.Random(spec)
    cases = [(tuple(0 for _ in fan.rays), None)]
    for _ in range(count):
        d = tuple(rng.randint(-span, span) for _ in fan.rays)
        cases += [(d, None), (d, 0), (d, rng.randint(1, 2 if fan.dim > 5 else 4))]
    make_fan = functools.partial(build_named, spec)
    assert tables(monkeypatch, make_fan, cases) == \
        tables(monkeypatch, make_fan, cases, factored=False)

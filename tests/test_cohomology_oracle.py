"""Blocked box scan of line_bundle_cohomology against the per-degree oracle."""

import random

import pytest

from cohomology_oracle import box_scan, oracle_cohomology
from toricsplit import cohomology
from toricsplit.cohomology import line_bundle_cohomology
from toricsplit.fan import build_named

SPECS = ["P:1", "P:2", "dP:3", "F:2", "Xd:3", "P:1*P:1", "P:2*P:1"]


def cases(spec, fan):
    """Seeded divisors, each with the proven radius (None), one random
    radius and B(D) itself as a fixed radius."""
    rng = random.Random(spec)
    span = 3 if fan.dim <= 2 else 2
    out = [(tuple(0 for _ in fan.rays), None)]
    for _ in range(6):
        d = tuple(rng.randint(-span, span) for _ in fan.rays)
        out += [(d, None), (d, rng.randint(0, 6)), (d, cohomology._degree_bound(fan, d))]
    return out


# the factors' contributing sup-norms are {3} on P:1 and {0, ..., 4} on
# dP:3, so the product's drop 0-2
NAMED = {"P:1*dP:3": [((3, -3, 2, 0, -1, 2, 3, -2), None)]}


def dims_at(monkeypatch, spec, d, radius):
    """Dims of O(d) on a fresh fan whose scans all run at `radius`."""
    with monkeypatch.context() as patch:
        patch.setattr(cohomology, "_degree_bound", lambda fan, a: radius)
        return line_bundle_cohomology(build_named(spec), d).dims


@pytest.mark.parametrize("block", [None, 7])
@pytest.mark.parametrize("spec", SPECS + sorted(NAMED))
def test_matches_oracle(spec, block, monkeypatch):
    # block 7 makes every box span many blocks and end in a ragged one
    if block is not None:
        monkeypatch.setattr(cohomology, "_BLOCK", block)
    fan = build_named(spec)
    for d, radius in NAMED.get(spec) or cases(spec, fan):
        if radius is None:
            table = line_bundle_cohomology(fan, d)
            assert (table.dims, table.box) == oracle_cohomology(fan, d), d
        else:
            assert dims_at(monkeypatch, spec, d, radius) == box_scan(fan, d, radius)[0], \
                (d, radius)


@pytest.mark.parametrize("spec", SPECS + ["dP:3*dP:3", "P:1*dP:3"])
def test_proven_radius(spec):
    # no degree outside [-B, B]^n contributes, and the replayed box reaches
    # past the largest contributing sup-norm T, so no contribution is cut off;
    # on the coordinate products the box is replayed from the factors' counts
    fan = build_named(spec)
    for d in {d for d, radius in cases(spec, fan) if radius is None}:
        bound = cohomology._degree_bound(fan, d)
        dims, top = box_scan(fan, d, bound + 2)
        assert top <= bound, (d, bound, top)
        table = line_bundle_cohomology(fan, d)
        assert table.dims == dims and table.box > top, (d, table, top)

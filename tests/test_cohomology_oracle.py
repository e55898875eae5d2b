"""Blocked box scan of line_bundle_cohomology against the per-degree oracle."""

import random

import pytest

from cohomology_oracle import box_scan, oracle_cohomology
from toricsplit import cohomology
from toricsplit.cohomology import line_bundle_cohomology
from toricsplit.fan import build_named

SPECS = ["P:1", "P:2", "dP:3", "F:2", "Xd:3", "P:1*P:1", "P:2*P:1"]


def cases(spec, fan):
    """Seeded divisors, each with the adaptive box, one fixed box and the
    proven radius B(D) as a fixed box."""
    rng = random.Random(spec)
    span = 3 if fan.dim <= 2 else 2
    out = [(tuple(0 for _ in fan.rays), None)]
    for _ in range(6):
        d = tuple(rng.randint(-span, span) for _ in fan.rays)
        out += [(d, None), (d, rng.randint(0, 6)), (d, cohomology._degree_bound(fan, d))]
    return out


@pytest.mark.parametrize("block", [None, 7])
@pytest.mark.parametrize("spec", SPECS)
def test_matches_oracle(spec, block, monkeypatch):
    # block 7 makes every box span many blocks and end in a ragged one
    if block is not None:
        monkeypatch.setattr(cohomology, "_BLOCK", block)
    fan = build_named(spec)
    for d, box in cases(spec, fan):
        table = line_bundle_cohomology(fan, d, box=box)
        assert (table.dims, table.box) == oracle_cohomology(fan, d, box), (d, box)


@pytest.mark.parametrize("spec", SPECS)
def test_proven_radius(spec):
    # no degree outside [-B, B]^n contributes, and the replayed box reaches
    # past the largest contributing sup-norm T, so no contribution is cut off
    fan = build_named(spec)
    for d in {d for d, box in cases(spec, fan) if box is None}:
        bound = cohomology._degree_bound(fan, d)
        dims, top = box_scan(fan, d, bound + 2)
        assert top <= bound, (d, bound, top)
        table = line_bundle_cohomology(fan, d)
        assert table.dims == dims and table.box > top, (d, table, top)

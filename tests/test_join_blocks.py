"""The join-factorised mask dims of the degree scan against the reduced
cohomology of full subcomplexes of the whole face complex."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from cohomology_oracle import oracle_cohomology
from test_coordinate_factors import moved_dp3_squared
from test_fan_properties import ONCE, blow_up, cycle_fan
import toricsplit
from toricsplit import cohomology
from toricsplit.cohomology import line_bundle_cohomology
from toricsplit.fan import _coordinate_factors, _mask, build_named

BLOCKS = {
    "Xd:3": [2, 6],
    "Xd:5": [2, 6, 6],
    "Xd:7": [2, 6, 6, 6],
    "dP:3*dP:3": [6, 6],
    "P:1*dP:3*dP:3": [2, 6, 6],
    "F:2": [2, 2],
    "P:2": [3],
    "P:3": [4],
    "dP:3": [6],
    "P:2*P:2": [6],
}


def factorised_dims(fan, subsets):
    """Padded dims of each ray subset, read through the join blocks."""
    return [cohomology._mask_dims(fan, _mask(s)) for s in subsets]


def whole_dims(fan, subsets):
    """Padded dims of each ray subset on the whole face complex."""
    return [cohomology._subset_dims(fan.face_complex._facet_masks, _mask(s), fan.dim)
            for s in subsets]


@pytest.mark.parametrize("spec", sorted(BLOCKS))
def test_blocks(spec):
    blocks, _ = cohomology._join_blocks(build_named(spec))
    assert sorted(map(int.bit_count, blocks)) == sorted(BLOCKS[spec])


@pytest.mark.parametrize("spec", ["F:2", "Xd:3", "dP:3*dP:3"])
def test_every_mask(spec):
    fan = build_named(spec)
    count = len(fan.rays)
    subsets = [[j for j in range(count) if mask >> j & 1] for mask in range(1 << count)]
    assert factorised_dims(fan, subsets) == whole_dims(fan, subsets)


@pytest.mark.parametrize("spec", ["Xd:5", "Xd:7"])
def test_seeded_masks(spec):
    fan = build_named(spec)
    rng = random.Random(spec)
    count = len(fan.rays)
    subsets = [[j for j in range(count) if rng.random() < 0.5] for _ in range(500)]
    assert factorised_dims(fan, subsets) == whole_dims(fan, subsets)


def test_moved_product_is_a_join():
    # dP3 x dP3 moved by GL_4(Z) is no coordinate product, but its face
    # complex is still the join of the two hexagons
    fan = moved_dp3_squared()
    assert _coordinate_factors(fan) is None
    assert [block.bit_count() for block in cohomology._join_blocks(fan)[0]] == [6, 6]
    subsets = [[j for j in range(12) if mask >> j & 1] for mask in range(1 << 12)]
    assert factorised_dims(fan, subsets) == whole_dims(fan, subsets)


def test_scan_leaves_numpy_ma_unloaded():
    # importing numpy.ma costs about 1 MiB of peak memory in every process
    code = ("import sys\n"
            "from toricsplit.cohomology import line_bundle_cohomology\n"
            "from toricsplit.fan import build_named\n"
            "fan = build_named('Xd:5')\n"
            "print(line_bundle_cohomology(fan, (-2,) * len(fan.rays)).dims)\n"
            "print('numpy.ma' in sys.modules)\n")
    src = str(Path(toricsplit.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": src})
    assert done.stdout.split("\n")[1] == "False", done.stdout


def test_product_of_projective_planes_is_one_block():
    # the minimal non-faces of P^2 x P^2 are two triples, so no ray pair
    # misses a common cone and the graph has no edge; the six singletons
    # would allow 2^6 cones, not 9, so all rays form one block
    fan = build_named("P:2*P:2")
    facets = tuple(sorted(map(_mask, fan.max_cones)))
    assert cohomology._join_blocks(fan) == ([0b111111], [facets])
    table = line_bundle_cohomology(fan, (1,) * 6)
    assert table.dims == (100, 0, 0, 0, 0)


def test_blown_up_cycle_matches_oracle():
    # a 2-D fan of 26 rays: one block, wider than any block of the towers
    rng = random.Random("cycle")
    fan = cycle_fan(blow_up(ONCE[3], [rng.randrange(100) for _ in range(20)]))
    assert len(fan.rays) >= 24
    assert len(cohomology._join_blocks(fan)[0]) == 1
    for d in [(0,) * len(fan.rays), tuple(rng.randint(-1, 1) for _ in fan.rays)]:
        table = line_bundle_cohomology(fan, d)
        assert (table.dims, table.box) == oracle_cohomology(fan, d), d

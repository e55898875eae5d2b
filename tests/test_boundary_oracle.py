"""The sparse exact elimination behind all reduced cohomology, checked
against the dense boundary-matrix oracle and against Alexander duality."""

import functools
import random

import pytest

from boundary_oracle import reduced_dims, subset_dims
from test_fan_properties import ONCE, blow_up, cycle_fan, star_subdivide
from toricsplit import cohomology
from toricsplit.cohomology import reduced_cohomology
from toricsplit.fan import build_named


def kernel_dims(fan, mask):
    """Padded dims of the full subcomplex on a ray mask, from the kernel."""
    return cohomology._subset_dims(fan.face_complex._facet_masks, mask, fan.dim)


def seeded_masks(fan, count, seed):
    rng = random.Random(seed)
    return [rng.getrandbits(len(fan.rays)) for _ in range(count)]


def subdivided():
    """Xd:3 after one star subdivision at its first 2-cone."""
    fan = build_named("Xd:3")
    return star_subdivide(fan, fan.face_complex.faces_by_size[2][0])


def blown_up_cycle():
    """A 2-D fan of 26 rays, the one-block case of the join lookup."""
    rng = random.Random("cycle")
    return cycle_fan(blow_up(ONCE[3], [rng.randrange(100) for _ in range(20)]))


def fan_for(name):
    return {"cycle": blown_up_cycle, "star": subdivided}.get(name, lambda: build_named(name))()


@pytest.mark.parametrize("name", ["P:3", "dP:3", "F:2", "Xd:3", "dP:3*dP:3", "star"])
def test_every_mask_matches_dense_oracle(name):
    fan = fan_for(name)
    complex_ = fan.face_complex
    for mask in range(1 << len(fan.rays)):
        assert kernel_dims(fan, mask) == subset_dims(complex_, mask, fan.dim), mask


@pytest.mark.parametrize("name", ["Xd:5", "cycle"])
def test_seeded_masks_match_dense_oracle(name):
    fan = fan_for(name)
    complex_ = fan.face_complex
    full = (1 << len(fan.rays)) - 1
    for mask in [0, full] + seeded_masks(fan, 300, name):
        assert kernel_dims(fan, mask) == subset_dims(complex_, mask, fan.dim), mask


@pytest.mark.parametrize("spec", ["P:2", "dP:3", "Xd:3", "P:1*dP:3"])
def test_whole_complex_matches_dense_oracle(spec):
    complex_ = build_named(spec).face_complex
    assert reduced_cohomology(complex_) == reduced_dims(complex_.faces_by_size)


@pytest.mark.parametrize("spec, count", [
    ("F:2", None), ("Xd:3", None), ("dP:3*dP:3", None), ("Xd:5", 300)])
def test_alexander_duality(spec, count):
    # the face complex of a complete n-dimensional fan is a triangulated
    # (n-1)-sphere, so reduced H^(d) of the full subcomplex on M is reduced
    # H^(n-2-d) on the complement: padded index i on M is index n - i on it
    fan = build_named(spec)
    full = (1 << len(fan.rays)) - 1
    masks = range(full + 1) if count is None else seeded_masks(fan, count, spec)
    dims = functools.cache(lambda mask: kernel_dims(fan, mask))
    for mask in masks:
        assert dims(mask) == dims(full ^ mask)[::-1], mask

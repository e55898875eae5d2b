"""Differential tests: product fans split factor by factor against the
whole-fan split.

`thomsen_split` splits a coordinate product one factor at a time.  The
whole-fan path is the same function with `fan._coordinate_factors`
patched to find no product, which makes the fan its own single factor;
both must give the same classes,
multiplicities and representatives in the same dict order.  The permuted
copies put the factors' rays, and so their base-cone positions, in
interleaved order.
"""

import gc
import random
import weakref

import pytest

from toricsplit import fan as fan_mod
from toricsplit import frobenius
from toricsplit.cohomology import line_bundle_cohomology
from toricsplit.fan import Fan, _coordinate_factors, _factors, build_named
from toricsplit.frobenius import thomsen_split

from test_thomsen_oracle import SPECS, cases, zero

PRODUCTS = [spec for spec in SPECS if _coordinate_factors(build_named(spec))]


def whole_fan_split(monkeypatch, fan, divisor, p, base):
    # the patch must reach the split: a product has factors without it and
    # is its own single factor under it
    assert len(_factors(fan)) >= 2
    with monkeypatch.context() as patch:
        patch.setattr(fan_mod, "_coordinate_factors", lambda fan: None)
        assert _factors(fan) == [(fan, tuple(range(len(fan.rays))))]
        return thomsen_split(fan, divisor, p, base)


def assert_matches_whole_fan(monkeypatch, fan, divisor, p, base):
    factored = thomsen_split(fan, divisor, p, base)
    whole = whole_fan_split(monkeypatch, fan, divisor, p, base)
    assert list(factored.classes.items()) == list(whole.classes.items())
    assert factored.sorted_items() == whole.sorted_items()


def test_products_are_found():
    assert PRODUCTS == ["Xd:5", "P:1*dP:3", "dP:3*dP:3"]


@pytest.mark.parametrize("spec,p", [(spec, p) for spec in PRODUCTS for p in (1, 2, 3, 5)])
def test_products_match_whole_fan(spec, p, monkeypatch):
    fan = build_named(spec)
    rng = random.Random(f"factored/{spec}/{p}")
    for divisor, base in cases(fan, rng):
        assert_matches_whole_fan(monkeypatch, fan, divisor, p, base)


def test_every_base_cone_of_dp3_squared(monkeypatch):
    fan = build_named("dP:3*dP:3")
    rng = random.Random("factored/bases")
    divisor = tuple(rng.randint(-3, 3) for _ in fan.rays)
    for base in range(len(fan.max_cones)):
        for d in (zero(fan), divisor):
            assert_matches_whole_fan(monkeypatch, fan, d, 3, base)


@pytest.mark.parametrize("spec,p", [("Xd:5", 3), ("dP:3*dP:3", 2), ("P:1*dP:3", 3)])
def test_coefficients_beyond_int64(spec, p, monkeypatch):
    fan = build_named(spec)
    rng = random.Random(f"factored/huge/{spec}")
    for _ in range(3):
        divisor = tuple(rng.choice((-1, 1)) * rng.randint(2 ** 62, 2 ** 70)
                        for _ in fan.rays)
        assert_matches_whole_fan(monkeypatch, fan, divisor,
                                 p, rng.randrange(len(fan.max_cones)))


def permuted(fan, rng):
    """A copy with its rays and its coordinates shuffled."""
    rays = rng.sample(range(len(fan.rays)), len(fan.rays))
    coordinates = rng.sample(range(fan.dim), fan.dim)
    index = {old: new for new, old in enumerate(rays)}
    return Fan(fan.dim, [tuple(fan.rays[j][c] for c in coordinates) for j in rays],
               [[index[j] for j in cone] for cone in fan.max_cones])


def interleaved(fan, base):
    """Whether the base cone's positions of some factor are not contiguous."""
    cone = fan.max_cones[base]
    for _, group in _coordinate_factors(fan):
        positions = [i for i, j in enumerate(cone) if j in group]
        if positions[-1] - positions[0] + 1 != len(positions):
            return True
    return False


@pytest.mark.parametrize("spec", ["dP:3*dP:3", "P:1*dP:3*dP:3", "Xd:5", "F:2*P:1"])
def test_permuted_copies_match_whole_fan(spec, monkeypatch):
    base_fan = build_named(spec)
    rng = random.Random(f"factored/permuted/{spec}")
    seen = 0
    for _ in range(10):
        fan = permuted(base_fan, rng)
        assert _coordinate_factors(fan) is not None
        for p in (2, 3):
            for divisor, base in cases(fan, rng, bound=3):
                seen += interleaved(fan, base)
                assert_matches_whole_fan(monkeypatch, fan, divisor, p, base)
    assert seen


def test_xd9_forms_only_factor_rows(monkeypatch):
    # Xd:9 = Xd:3 x dP:3^3: 4^3 rows for Xd:3 and at most 4^2 for each dP:3
    # factor (equal factors at equal base cones share one split), against
    # the 4^9 = 262,144 rows of the whole fan
    rows = []

    def counted(*args, _blocks=frobenius._summand_blocks):
        for block in _blocks(*args):
            rows.append(len(block))
            yield block

    monkeypatch.setattr(frobenius, "_summand_blocks", counted)
    fan = build_named("Xd:9")
    result = thomsen_split(fan, zero(fan), 4)
    assert (result.class_count, result.total_multiplicity) == (2592, 4 ** 9)
    assert sum(rows) <= 4 ** 3 + 3 * 4 ** 2


@pytest.mark.parametrize("spec", ["Xd:3", "dP:3*dP:3"])
def test_fans_are_freed_by_reference_counting(spec):
    # no memo may hold a fan in its own cache: the cycle would keep the fan
    # and all its caches alive until a full collection
    enabled = gc.isenabled()
    gc.disable()
    try:
        fan = build_named(spec)
        thomsen_split(fan, zero(fan), 3)
        line_bundle_cohomology(fan, zero(fan))
        ref = weakref.ref(fan)
        del fan
        assert ref() is None
    finally:
        if enabled:
            gc.enable()

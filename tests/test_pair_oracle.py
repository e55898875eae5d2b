"""Differential tests: the collection checks read from one Ext matrix
against the earlier pair loop kept in `pair_oracle`.

Both sides must agree on `ok`, `order` and `witness` (dims included) of
`find_strong_order`, and on the full `violations` tuple of
`is_strongly_exceptional`.  The cycle witness is not reached by any input
here.
"""

import random

import pytest

from toricsplit.cohomology import find_strong_order, is_strongly_exceptional
from toricsplit.fan import build_named
from toricsplit.frobenius import thomsen_split

import pair_oracle
from test_coordinate_factors import moved_dp3_squared

# the fans whose Frobenius summand classes of O are ordered, with their p
SUMMAND_FANS = {
    "Xd:3": (lambda: build_named("Xd:3"), 5),
    "dP:3*dP:3": (lambda: build_named("dP:3*dP:3"), 3),
    "Xd:5": (lambda: build_named("Xd:5"), 4),
    # three factors, the two dP:3 blocks sharing one factor fan
    "P:1*dP:3*dP:3": (lambda: build_named("P:1*dP:3*dP:3"), 3),
    "moved dP:3*dP:3": (moved_dp3_squared, 3),
}

# sets whose pair check fails, each with only forward-higher violations
FORWARD_HIGHER = {
    "P:1*P:1": [(-1, -1, 1, 1), (1, -2, 0, -1), (-2, 1, -2, 2)],
    "F:1": [(2, 0, -1, 2), (1, 1, 2, 1), (-2, 1, -1, 2)],
    "dP:2": [(-1, 1, 2, 0, 0), (-1, 0, 1, 0, 2), (-1, -1, 0, 1, -1)],
    "F:2": [(0, -2, 1, 1), (1, -2, 1, 1), (2, -1, -2, 1)],
}


def summand_classes(fan, p, rng):
    """One representative per class of the summands of F_*O, shuffled."""
    result = thomsen_split(fan, tuple(0 for _ in fan.rays), p)
    bundles = [rep for _, _, rep in result.sorted_items()]
    rng.shuffle(bundles)
    return bundles


def twisted(bundles, i):
    """The set with member i twisted by -K, the sum of all toric divisors."""
    return [tuple(x + 1 for x in b) if k == i else b for k, b in enumerate(bundles)]


def assert_agree(fan, bundles):
    """Order and verify the set on both sides; verify the reversed order
    when one is found.  Returns the library's order result."""
    got, want = find_strong_order(fan, bundles), pair_oracle.find_strong_order(fan, bundles)
    assert (got.ok, got.order, got.witness) == (want.ok, want.order, want.witness)
    collections = [bundles] + ([list(reversed(got.order))] if got.ok else [])
    for collection in collections:
        got_report = is_strongly_exceptional(fan, collection)
        want_report = pair_oracle.is_strongly_exceptional(fan, collection)
        assert (got_report.passed, got_report.violations) == \
            (want_report.passed, want_report.violations)
    return got


@pytest.mark.parametrize("name", sorted(SUMMAND_FANS))
def test_summand_classes(name):
    make_fan, p = SUMMAND_FANS[name]
    fan = make_fan()
    rng = random.Random(f"pair-oracle:{name}")
    bundles = summand_classes(fan, p, rng)
    assert assert_agree(fan, bundles).ok
    assert_agree(fan, twisted(bundles, rng.randrange(len(bundles))))


def test_one_factor_twisted():
    # one member twisted by -K of the first dP:3 block only (rays 0-5), so
    # every bad table is bad on that one coordinate factor
    fan = build_named("dP:3*dP:3")
    rng = random.Random("pair-oracle:block twist")
    bundles = summand_classes(fan, 3, rng)
    i = rng.randrange(len(bundles))
    bundles[i] = tuple(x + (j < 6) for j, x in enumerate(bundles[i]))
    assert not assert_agree(fan, bundles).ok
    assert not is_strongly_exceptional(fan, bundles)


def test_one_bundle():
    fan = build_named("dP:3")
    result = assert_agree(fan, [(1, 0, -1, 2, 0, 0)])
    assert result.order == ((1, 0, -1, 2, 0, 0),)


def test_pair_witness():
    fan = build_named("P:2")
    result = assert_agree(fan, [(0, 0, 0), (3, 0, 0), (1, 0, 0)])
    assert result.witness == ("pair", 0, 1, (0, 0, 1), (10, 0, 0))


@pytest.mark.parametrize("spec", sorted(FORWARD_HIGHER))
def test_forward_higher(spec):
    fan = build_named(spec)
    bundles = FORWARD_HIGHER[spec]
    assert_agree(fan, bundles)
    kinds = {kind for kind, *_ in is_strongly_exceptional(fan, bundles).violations}
    assert kinds == {"forward-higher"}


def test_duplicate_class_refused():
    # on P:2 the divisors Z_0 and Z_1 are linearly equivalent
    fan = build_named("P:2")
    bundles = [(1, 0, 0), (0, 1, 0), (0, 0, 2)]
    for find in (find_strong_order, pair_oracle.find_strong_order):
        with pytest.raises(ValueError, match="non-equivalent"):
            find(fan, bundles)

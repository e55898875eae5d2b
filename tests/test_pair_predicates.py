"""`cohomology._pair_predicates`, the two Kunneth predicates of every Ext
table of a collection, gathered factor by factor, against the same
predicates read from the product tables of `ext_table`."""

import random

import numpy as np
import pytest

from toricsplit import cohomology
from toricsplit.cohomology import ext_table, find_strong_order
from toricsplit.fan import build_named
from toricsplit.frobenius import thomsen_split

from test_coordinate_factors import moved_dp3_squared

FANS = {
    "dP:3*dP:3": lambda: build_named("dP:3*dP:3"),
    "P:1*dP:3*dP:3": lambda: build_named("P:1*dP:3*dP:3"),
    "P:1*P:1*P:1": lambda: build_named("P:1*P:1*P:1"),
    "Xd:5": lambda: build_named("Xd:5"),
    "moved dP:3*dP:3": moved_dp3_squared,
    # no coordinate products: one factor
    "P:2": lambda: build_named("P:2"),
    "dP:3": lambda: build_named("dP:3"),
    "F:2": lambda: build_named("F:2"),
}


def table_predicates(fan, bundles):
    """(zero, higher) read from the dims of `ext_table`."""
    ext = ext_table(fan, bundles)
    zero = np.array([[not any(t.dims) for t in row] for row in ext])
    higher = np.array([[t.higher_vanish() for t in row] for row in ext])
    return zero, higher


@pytest.mark.parametrize("name", sorted(FANS))
@pytest.mark.parametrize("seed", range(2))
def test_matches_ext_table(name, seed):
    fan = FANS[name]()
    rng = random.Random(f"pair-predicates:{name}:{seed}")
    # 6 to 10 bundles, one of them a duplicate, as a collection to verify allows
    bundles = [tuple(rng.randint(-2, 2) for _ in fan.rays) for _ in range(rng.randint(5, 9))]
    bundles.append(rng.choice(bundles))
    zero, higher = cohomology._pair_predicates(fan, bundles)
    want_zero, want_higher = table_predicates(fan, bundles)
    assert np.array_equal(zero, want_zero)
    assert np.array_equal(higher, want_higher)


def test_guard_reads_differences():
    # bundles far beyond int64 are scanned when their differences are small,
    # and a difference of 2^31 is refused before any scan
    fan = build_named("P:2")
    far = 2 ** 100
    got = cohomology._pair_predicates(fan, [(far, 0, 0), (far + 1, 0, 0)])
    want = cohomology._pair_predicates(fan, [(0, 0, 0), (1, 0, 0)])
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    with pytest.raises(ValueError, match="below 2\\^31"):
        cohomology._pair_predicates(fan, [(2 ** 30, 0, 0), (-2 ** 30, 0, 0)])


def keys_of(fan, fn):
    return sum(1 for key in fan._cache if key[0] is fn.__wrapped__)


def test_order_forms_no_product_table():
    # the 72 summand classes of O on Xd:5 at p = 4 scan 93 differences on the
    # Xd:3 factor and 31 on the dP:3 factor, and no table of Xd:5 itself
    fan = build_named("Xd:5")
    bundles = [rep for _, _, rep in thomsen_split(fan, (0,) * 14, 4).sorted_items()]
    assert len(bundles) == 72
    assert find_strong_order(fan, bundles).ok
    assert keys_of(fan, cohomology._table) == 0
    xd3, dp3 = (f for f, _ in cohomology._coordinate_factors(fan))
    assert (len(xd3.rays), len(dp3.rays)) == (8, 6)
    assert (keys_of(xd3, cohomology._scan), keys_of(dp3, cohomology._scan)) == (93, 31)

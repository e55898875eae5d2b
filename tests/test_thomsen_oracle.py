"""Differential tests: the closed-form splitting against the per-cone oracle.

`summand_divisors` must reproduce, row for row, the summands that the
per-cone algorithm in `thomsen_oracle` glues together, and `thomsen_split`
must give the same classes, multiplicities and representatives as grouping
the oracle's summands one `divisor_class` call at a time.  On star
subdivisions, which are no products, every summand vanishes on the rays of
its base cone, and `thomsen_split`, which groups equal summands, gives the
classes of that one-at-a-time grouping, in the same order.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricsplit import frobenius
from toricsplit.fan import build_named, del_pezzo_bundle, projective_space
from toricsplit.frobenius import SplittingResult, summand_divisors, thomsen_split
from toricsplit.lattice import identity

from test_fan_properties import star_subdivisions
from thomsen_oracle import (
    InconsistentGluing,
    ThomsenContext,
    oracle_classes,
    oracle_summands,
    summand_divisor,
)

SPECS = ["P:1", "P:2", "P:3", "dP:1", "dP:3", "F:2", "F:3", "Xd:3", "Xd:5",
         "P:1*dP:3", "dP:3*dP:3"]


def zero(fan):
    return tuple(0 for _ in fan.rays)


def cases(fan, rng, bound=4):
    """(divisor, base cone) pairs: zero and one random divisor; every base
    cone of a curve or surface, cone 0 and one sampled cone elsewhere."""
    divisors = [zero(fan), tuple(rng.randint(-bound, bound) for _ in fan.rays)]
    cones = range(len(fan.max_cones))
    if fan.dim > 2:
        cones = [0, rng.randrange(1, len(cones))]
    return [(d, base) for d in divisors for base in cones]


def assert_matches_oracle(fan, divisor, p, base):
    rows = summand_divisors(fan, divisor, p, base)
    expected = oracle_summands(fan, divisor, p, base)
    assert [tuple(r) for r in rows.tolist()] == expected
    result = thomsen_split(fan, divisor, p, base)
    oracle = SplittingResult(fan, divisor, p, base, oracle_classes(fan, expected))
    assert list(result.classes.items()) == list(oracle.classes.items())
    assert result.sorted_items() == oracle.sorted_items()


# the per-cone oracle needs about 4 s per case for Xd:5 at p=5, so that
# fan stops at p=3
@pytest.mark.parametrize("spec,p", [(spec, p) for spec in SPECS for p in (1, 2, 3, 5)
                                    if (spec, p) != ("Xd:5", 5)])
def test_closed_form_matches_oracle(spec, p):
    fan = build_named(spec)
    rng = random.Random(f"{spec}/{p}")
    for divisor, base in cases(fan, rng):
        assert_matches_oracle(fan, divisor, p, base)


@pytest.mark.parametrize("spec,p", [("Xd:5", 3), ("dP:3*dP:3", 2)])
def test_coefficients_beyond_int64(spec, p):
    # products of such coefficients with the cone inverses leave int64
    fan = build_named(spec)
    rng = random.Random(spec)
    divisor = tuple(rng.choice((-1, 1)) * rng.randint(2 ** 40, 2 ** 45)
                    for _ in fan.rays)
    assert_matches_oracle(fan, divisor, p, rng.randrange(len(fan.max_cones)))


@pytest.mark.parametrize("spec,p", [("P:2", 5), ("Xd:3", 5), ("dP:3*dP:3", 2), ("Xd:5", 3)])
def test_blocks_match_oracle(spec, p, monkeypatch):
    # blocks of 7 exponent vectors: every split spans several blocks and
    # ends in a ragged one, and a class's representative may come from any.
    # A product splits its factors, so dP:3*dP:3 at p=2 reads 4-row blocks
    # and Xd:5 at p=3 the 27 rows of its Xd:3 factor in 4 blocks.
    monkeypatch.setattr(frobenius, "_BLOCK", 7)
    fan = build_named(spec)
    rng = random.Random(f"blocks/{spec}/{p}")
    for divisor, base in cases(fan, rng):
        assert_matches_oracle(fan, divisor, p, base)


@settings(max_examples=25, deadline=None, database=None, derandomize=True)
@given(st.data())
def test_summands_are_their_own_classes(data):
    # D_v is 0 on the base cone's rays, so two summands are linearly
    # equivalent only when equal, and grouping equal rows is grouping classes
    fan = data.draw(star_subdivisions())
    divisor = data.draw(st.tuples(*(st.integers(-3, 3) for _ in fan.rays)))
    p = data.draw(st.sampled_from([2, 3]))
    for base, cone in enumerate(fan.max_cones):
        rows = summand_divisors(fan, divisor, p, base)
        assert not rows[:, list(cone)].any()
        expected = oracle_classes(fan, [tuple(r) for r in rows.tolist()])
        assert list(thomsen_split(fan, divisor, p, base).classes.items()) == \
            list(expected.items())


class TestContext:
    def test_trivial_divisor(self):
        for spec in ["P:1", "dP:3", "Xd:3"]:
            fan = build_named(spec)
            ctx = ThomsenContext(fan, zero(fan))
            n = fan.dim
            for i in range(len(fan.max_cones)):
                assert (ctx.A[i] @ ctx.B[i] == identity(n)).all()
                assert not ctx.u_loc[i].any()
            assert (ctx.C[ctx.base_cone] == identity(n)).all()

    def test_tower3_base_cone_matches_identity(self):
        fan = del_pezzo_bundle(3)
        ctx = ThomsenContext(fan, zero(fan), base_cone=0)
        # base cone (0,1,3) has the standard basis as rays, so C_i = A_i
        for i in range(len(fan.max_cones)):
            assert (ctx.C[i] == ctx.A[i]).all()

    def test_corrupted_context_detected(self):
        # shifting one cone's local data by a multiple of p moves its
        # functional, so the per-ray coefficients no longer glue
        fan = projective_space(2)
        ctx = ThomsenContext(fan, zero(fan))
        ctx.u_loc = tuple(
            u + 3 if i == 1 else u for i, u in enumerate(ctx.u_loc))
        with pytest.raises(InconsistentGluing):
            summand_divisor(ctx, 3, (1, 1))

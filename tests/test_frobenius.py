import itertools
import random

import numpy as np
import pytest

from toricsplit.divisor import canonical_divisor, divisor_class, linearly_equivalent
from toricsplit.fan import build_named, del_pezzo, del_pezzo_bundle, projective_space
from toricsplit.frobenius import (
    stabilization_check,
    summand_divisors,
    thomsen_split,
    verify_splitting_invariants,
)

from thomsen_oracle import ThomsenContext

# The twelve summand representatives of the d=3 tower splitting, written in
# the canonical ray order v0..v4, w0, w1, w2.  Shorthand: Z1m = ray 2 (-e1),
# Z2m = ray 4 (-e2), D0 = ray 5, D1p = ray 6, D1m = ray 7.
TOWER3_SUMMANDS = [
    (0, 0, 0, 0, 0, 0, 0, 0),  # O
    (0, 0, 0, 0, 0, 1, 0, 0),  # D0
    (0, 0, 1, 0, 0, 0, 0, 1),  # Z1m + D1m
    (0, 0, 1, 0, 0, 1, 0, 1),  # Z1m + D1m + D0
    (0, 0, 0, 0, 1, 0, 1, 0),  # Z2m + D1p
    (0, 0, 0, 0, 1, 1, 1, 0),  # Z2m + D1p + D0
    (0, 0, 1, 0, 1, 0, 0, 0),  # Z1m + Z2m
    (0, 0, 1, 0, 1, 0, 1, 0),  # Z1m + Z2m + D1p
    (0, 0, 1, 0, 1, 0, 0, 1),  # Z1m + Z2m + D1m
    (0, 0, 1, 0, 1, 1, 0, 0),  # Z1m + Z2m + D0
    (0, 0, 1, 0, 1, 1, 1, 0),  # Z1m + Z2m + D1p + D0
    (0, 0, 1, 0, 1, 1, 0, 1),  # Z1m + Z2m + D1m + D0
]


def zero(fan):
    return tuple(0 for _ in fan.rays)


def summand_row(fan, p, v):
    """The summand of O for the exponent vector v: its row of summand_divisors."""
    index = sum(x * p ** k for k, x in enumerate(reversed(v)))
    return tuple(summand_divisors(fan, zero(fan), p)[index])


class TestSummand:
    def test_p1_zero_vector(self):
        fan = projective_space(1)
        assert summand_row(fan, 3, (0,)) == (0, 0)

    def test_p1_hand_run(self):
        # base cone <e0>: m = v, and <m, -e0> = -1 = 3*(-1) + 2, so the
        # coefficient on -e0 is -floor(-1/3) = 1
        fan = projective_space(1)
        assert summand_row(fan, 3, (1,)) == (0, 1)

    def test_tower3_axis_cases(self):
        fan = del_pezzo_bundle(3)
        p = 5
        for a0 in (1, 2, 4):
            assert summand_row(fan, p, (a0, 0, 0)) == (0, 0, 0, 0, 0, 1, 0, 0)
        for a1 in (1, 3):
            assert summand_row(fan, p, (0, a1, 0)) == (0, 0, 1, 0, 0, 0, 0, 1)
        for a2 in (2, 4):
            assert summand_row(fan, p, (0, 0, a2)) == (0, 0, 0, 0, 1, 0, 1, 0)

    def test_zero_vector_gives_zero_divisor(self):
        for spec in ["P:1", "P:2", "dP:3", "F:2", "Xd:3"]:
            fan = build_named(spec)
            v = tuple(0 for _ in range(fan.dim))
            assert summand_row(fan, 4, v) == zero(fan)

    def test_rejects_bad_p_and_base_cone(self):
        fan = projective_space(1)
        for p, base in ((0, 0), (2, 2), (2, -1)):
            with pytest.raises(ValueError):
                summand_divisors(fan, zero(fan), p, base)
        # floats raised a TypeError from numpy, not the ValueError of bad input
        for p, base in ((2.0, 0), (2, 1.0)):
            for split in (summand_divisors, thomsen_split):
                with pytest.raises(ValueError, match="must be integers"):
                    split(fan, zero(fan), p, base)
        rows = summand_divisors(fan, zero(fan), np.int64(2), np.int64(1))
        assert rows.tolist() == summand_divisors(fan, zero(fan), 2, 1).tolist()

    def test_summand_limit(self):
        # 4097^2 > 2^24 summands: refused before any is enumerated
        fan = projective_space(2)
        for split in (summand_divisors, thomsen_split):
            with pytest.raises(ValueError, match="exceed the limit"):
                split(fan, zero(fan), 4097)


class TestSplit:
    def test_p1_classic(self):
        fan = projective_space(1)
        result = thomsen_split(fan, zero(fan), 3)
        assert result.class_count == 2
        assert result.total_multiplicity == 3
        by_class = {divisor_class(fan, (0, 0)): 1, divisor_class(fan, (0, 1)): 2}
        assert {c: m for c, (m, _) in result.classes.items()} == by_class

    def test_p_one_is_trivial(self):
        for spec in ["P:1", "P:2", "dP:3", "Xd:3"]:
            fan = build_named(spec)
            result = thomsen_split(fan, zero(fan), 1)
            assert result.class_count == 1
            assert result.total_multiplicity == 1

    def test_tower3_reproduces_twelve_summands(self):
        fan = del_pezzo_bundle(3)
        result = thomsen_split(fan, zero(fan), 5)
        assert result.class_count == 12
        expected = {divisor_class(fan, d) for d in TOWER3_SUMMANDS}
        assert set(result.classes) == expected
        for _, rep in result.classes.values():
            assert any(linearly_equivalent(fan, rep, d) for d in TOWER3_SUMMANDS)

    def test_dp3_has_six_classes(self):
        fan = del_pezzo(3)
        result = thomsen_split(fan, zero(fan), 5)
        assert result.class_count == 6
        assert result.total_multiplicity == 25

    def test_representative_is_first_lexicographic(self):
        fan = projective_space(1)
        result = thomsen_split(fan, zero(fan), 3)
        rep_of_o = result.classes[divisor_class(fan, (0, 0))][1]
        assert rep_of_o == (0, 0)


class TestBaseConeIndependence:
    @pytest.mark.parametrize("spec,p", [("P:1", 3), ("P:2", 2), ("dP:3", 2)])
    def test_all_base_cones(self, spec, p):
        fan = build_named(spec)
        reference = None
        for base in range(len(fan.max_cones)):
            result = thomsen_split(fan, zero(fan), p, base_cone=base)
            table = {c: m for c, (m, _) in result.classes.items()}
            if reference is None:
                reference = table
            else:
                assert table == reference

    def test_tower3_sample_base_cones(self):
        fan = del_pezzo_bundle(3)
        tables = []
        for base in (0, 5, 11):
            result = thomsen_split(fan, zero(fan), 3, base_cone=base)
            tables.append({c: m for c, (m, _) in result.classes.items()})
        assert tables[0] == tables[1] == tables[2]


class TestInvariants:
    def test_p1_report(self):
        fan = projective_space(1)
        report = verify_splitting_invariants(thomsen_split(fan, zero(fan), 3))
        assert report.ok, report.messages

    def test_tower3_report(self):
        fan = del_pezzo_bundle(3)
        report = verify_splitting_invariants(thomsen_split(fan, zero(fan), 5))
        assert report.ok, report.messages

    @pytest.mark.parametrize("p", [2, 4, 6])
    def test_p1_at_even_p(self, p):
        # p^(n-1) (p-1) = p - 1 is odd, so -(p-1)/2 K is no integral divisor
        fan = projective_space(1)
        report = verify_splitting_invariants(thomsen_split(fan, zero(fan), p))
        assert report.ok, report.messages

    @pytest.mark.parametrize("spec,p", [("P:1", 2), ("P:1", 3), ("dP:3", 2)])
    def test_corrupted_representative_fails_c1(self, spec, p):
        fan = build_named(spec)
        result = thomsen_split(fan, zero(fan), p)
        c, (mult, rep) = next(iter(result.classes.items()))
        result.classes[c] = (mult, (rep[0] + 1,) + rep[1:])
        report = verify_splitting_invariants(result)
        assert (report.multiplicity_ok, report.c1_ok, report.base_cone_ok) == (True, False, True)

    def test_p_one_c1(self):
        fan = del_pezzo(3)
        report = verify_splitting_invariants(thomsen_split(fan, zero(fan), 1))
        assert report.ok

    def test_requires_trivial_divisor(self):
        fan = projective_space(1)
        result = thomsen_split(fan, (1, 1), 2)
        with pytest.raises(ValueError):
            verify_splitting_invariants(result)


class TestGeneralDivisor:
    def test_p1_anticanonical(self):
        # dual pushforward of O(2) under squaring: O(-1) + O
        fan = projective_space(1)
        minus_k = tuple(-x for x in canonical_divisor(fan))
        result = thomsen_split(fan, minus_k, 2)
        expected = {divisor_class(fan, (0, -1)), divisor_class(fan, (0, 0))}
        assert set(result.classes) == expected

    def test_multiplicity_conservation(self):
        rng = random.Random(13)
        for spec in ["P:1", "P:2", "dP:3"]:
            fan = build_named(spec)
            for _ in range(5):
                d = tuple(rng.randint(-2, 2) for _ in fan.rays)
                p = rng.choice([2, 3])
                result = thomsen_split(fan, d, p)
                assert result.total_multiplicity == p ** fan.dim

    def test_base_cone_independence_nontrivial(self):
        fan = del_pezzo(3)
        d = (1, 0, -1, 2, 0, 1)
        tables = []
        for base in (0, 3):
            result = thomsen_split(fan, d, 3, base_cone=base)
            tables.append({c: m for c, (m, _) in result.classes.items()})
        assert tables[0] == tables[1]


class TestOracle:
    """Per-cone h computed by repeated subtraction must match the closed form."""

    @staticmethod
    def euclid_by_subtraction(value, p):
        h = 0
        while value >= p:
            value -= p
            h += 1
        while value < 0:
            value += p
            h -= 1
        return h, value

    @pytest.mark.parametrize("spec", ["P:1", "P:2", "dP:3", "Xd:3"])
    @pytest.mark.parametrize("p", [2, 3])
    def test_matches_floor_division(self, spec, p):
        # the per-cone functionals, divided by repeated subtraction, glue to
        # the rows of the closed form
        fan = build_named(spec)
        ctx = ThomsenContext(fan, zero(fan))
        rows = summand_divisors(fan, zero(fan), p)
        for row, v in zip(rows, itertools.product(range(p), repeat=fan.dim)):
            betas = [None] * len(fan.rays)
            vv = np.array(v, dtype=object)
            for i, cone in enumerate(fan.max_cones):
                t = ctx.C[i] @ vv + ctx.u_loc[i]
                h = np.array([self_h for self_h, _ in
                              (self.euclid_by_subtraction(int(x), p) for x in t)],
                             dtype=object)
                functional = ctx.B[i] @ h
                for j in cone:
                    beta = -int(np.dot(functional,
                                       np.array(fan.rays[j], dtype=object)))
                    assert betas[j] in (None, beta)
                    betas[j] = beta
            assert tuple(betas) == tuple(row)


class TestStabilization:
    def test_p1(self):
        fan = projective_space(1)
        assert stabilization_check(fan, zero(fan), (2, 3, 5))
        assert not stabilization_check(fan, zero(fan), (1, 2))

    def test_tower3(self):
        fan = del_pezzo_bundle(3)
        assert stabilization_check(fan, zero(fan), (5, 7))

    def test_empty_ps(self):
        with pytest.raises(ValueError):
            stabilization_check(projective_space(1), (0, 0), ())


class TestStabilizationThreshold:
    """The tower splitting stabilises at p = 4, not before.

    The summand Z1- + Z2- + D1- + D0 only arises from exponent vectors with
    a strictly decreasing chain a2 < a1 < a0 of nonzero entries, so p = 3
    misses exactly that class (and its block companions in higher
    dimension).
    """

    MISSING_AT_P3 = (0, 0, 1, 0, 1, 1, 0, 1)  # Z1m + Z2m + D1m + D0

    def test_tower3_counts_by_p(self):
        fan = del_pezzo_bundle(3)
        counts = {p: thomsen_split(fan, zero(fan), p).class_count
                  for p in (2, 3, 4, 5)}
        assert counts == {2: 6, 3: 11, 4: 12, 5: 12}

    def test_missing_class_identity(self):
        fan = del_pezzo_bundle(3)
        at3 = set(thomsen_split(fan, zero(fan), 3).classes)
        at4 = set(thomsen_split(fan, zero(fan), 4).classes)
        assert at4 - at3 == {divisor_class(fan, self.MISSING_AT_P3)}
        assert at3 < at4

    def test_first_chain_vector(self):
        fan = del_pezzo_bundle(3)
        assert summand_row(fan, 4, (3, 2, 1)) == self.MISSING_AT_P3

    def test_stabilization_check_reflects_threshold(self):
        fan = del_pezzo_bundle(3)
        assert not stabilization_check(fan, zero(fan), (3, 5))
        assert stabilization_check(fan, zero(fan), (4, 5, 7))

    def test_tower5_counts(self):
        fan = del_pezzo_bundle(5)
        assert thomsen_split(fan, zero(fan), 3).class_count == 66
        assert thomsen_split(fan, zero(fan), 4).class_count == 72

    @pytest.mark.parametrize("spec,p,count", [
        ("P:2", 2, 2), ("P:2", 3, 3),        # P^n saturates at p = n+1
        ("P:3", 3, 3), ("P:3", 4, 4),
        ("dP:3", 2, 4), ("dP:3", 3, 6),
    ])
    def test_thresholds_vary_by_variety(self, spec, p, count):
        fan = build_named(spec)
        assert thomsen_split(fan, zero(fan), p).class_count == count

import random

import pytest

from toricsplit.divisor import (
    TorsionDetected,
    canonical_divisor,
    cartier_data,
    divisor_class,
    is_fano,
    linearly_equivalent,
    picard_rank,
    positivity,
    principal_divisor,
)
from toricsplit.fan import (
    Fan,
    build_named,
    del_pezzo_bundle,
    hirzebruch,
    projective_space,
)
from toricsplit.frobenius import thomsen_split
from toricsplit.lattice import NotUnimodular


def random_divisor(rng, fan, span=3):
    return tuple(rng.randint(-span, span) for _ in fan.rays)


class TestCartierData:
    def test_p1_point(self):
        fan = projective_space(1)
        data = cartier_data(fan, (1, 0))
        # cones are ((0,), (1,)): <m, e0> = -1 and <m, -e0> = 0
        assert data == ((-1,), (0,))

    def test_zero_divisor(self):
        for spec in ["P:2", "dP:3", "Xd:3"]:
            fan = build_named(spec)
            data = cartier_data(fan, tuple(0 for _ in fan.rays))
            assert all(all(x == 0 for x in m) for m in data)

    def test_anticanonical_system(self):
        fan = del_pezzo_bundle(3)
        minus_k = tuple(1 for _ in fan.rays)
        data = cartier_data(fan, minus_k)
        for cone, m in zip(fan.max_cones, data):
            for j in cone:
                assert sum(a * b for a, b in zip(m, fan.rays[j])) == -1

    def test_roundtrip(self):
        rng = random.Random(3)
        for spec in ["P:1", "P:2", "dP:3", "F:2", "Xd:3"]:
            fan = build_named(spec)
            for _ in range(10):
                d = random_divisor(rng, fan)
                data = cartier_data(fan, d)
                recovered = [None] * len(fan.rays)
                for cone, m in zip(fan.max_cones, data):
                    for j in cone:
                        val = -sum(a * b for a, b in zip(m, fan.rays[j]))
                        assert recovered[j] in (None, val)
                        recovered[j] = val
                assert tuple(recovered) == d


class TestDivisorClass:
    def test_p1_points_equivalent(self):
        fan = projective_space(1)
        assert divisor_class(fan, (1, 0)) == divisor_class(fan, (0, 1))
        assert linearly_equivalent(fan, (1, 0), (0, 1))

    def test_p2_anticanonical_is_triple(self):
        fan = projective_space(2)
        ray = divisor_class(fan, (1, 0, 0))
        mk = divisor_class(fan, (1, 1, 1))
        assert tuple(3 * x for x in ray) == mk

    def test_tower3_rank(self):
        fan = del_pezzo_bundle(3)
        assert picard_rank(fan) == 5
        assert len(divisor_class(fan, tuple(0 for _ in fan.rays))) == 5

    def test_additivity_and_principal(self):
        rng = random.Random(17)
        for spec in ["P:2", "dP:3", "Xd:3"]:
            fan = build_named(spec)
            for _ in range(15):
                d1 = random_divisor(rng, fan)
                d2 = random_divisor(rng, fan)
                s = tuple(a + b for a, b in zip(d1, d2))
                c1 = divisor_class(fan, d1)
                c2 = divisor_class(fan, d2)
                assert divisor_class(fan, s) == tuple(a + b for a, b in zip(c1, c2))
                m = tuple(rng.randint(-3, 3) for _ in range(fan.dim))
                assert divisor_class(fan, principal_divisor(fan, m)) == \
                    tuple(0 for _ in range(picard_rank(fan)))

    def test_equivalence_matches_classes(self):
        rng = random.Random(29)
        for spec in ["P:2", "dP:3", "Xd:3"]:
            fan = build_named(spec)
            for _ in range(15):
                d1 = random_divisor(rng, fan, span=2)
                d2 = random_divisor(rng, fan, span=2)
                same = divisor_class(fan, d1) == divisor_class(fan, d2)
                assert linearly_equivalent(fan, d1, d2) == same
                shifted = tuple(a + b for a, b in zip(
                    d1, principal_divisor(fan, tuple(rng.randint(-2, 2)
                                                     for _ in range(fan.dim)))))
                assert linearly_equivalent(fan, d1, shifted)

    def test_fractional_coefficients_are_refused(self):
        # int() truncated 1.9 to 1 and 0.7 to 0 without an error
        fan = projective_space(2)
        with pytest.raises(ValueError, match="must be integers"):
            divisor_class(fan, (1.9, 0, 0))
        with pytest.raises(ValueError, match="must be integers"):
            thomsen_split(fan, (0.7, 0, 0), 2)

    def test_torsion_detected(self):
        # two primitive rays spanning an index-2 sublattice: not a complete
        # fan, and the class group has Z/2 torsion
        fan = Fan(2, [(1, 2), (1, 0)], [(0, 1)])
        with pytest.raises(TorsionDetected):
            divisor_class(fan, (0, 0))


class TestCanonical:
    def test_values(self):
        fan = projective_space(1)
        assert canonical_divisor(fan) == (-1, -1)
        fan = del_pezzo_bundle(3)
        assert canonical_divisor(fan) == tuple(-1 for _ in range(8))

    def test_p2_class(self):
        fan = projective_space(2)
        mk = tuple(-x for x in canonical_divisor(fan))
        assert divisor_class(fan, mk) == tuple(3 * x for x in divisor_class(fan, (1, 0, 0)))


class TestPositivity:
    def test_p2_fano(self):
        fan = projective_space(2)
        assert positivity(fan, (1, 1, 1), "ample").ok
        assert is_fano(fan)

    def test_f2_nef_not_ample(self):
        fan = hirzebruch(2)
        minus_k = (1, 1, 1, 1)
        amp = positivity(fan, minus_k, "ample")
        assert not amp.ok
        assert amp.witness is not None
        assert positivity(fan, minus_k, "nef").ok
        assert not is_fano(fan)

    def test_tower5_fano(self):
        assert is_fano(del_pezzo_bundle(5))

    @pytest.mark.parametrize("spec", ["Xd:3", "dP:1", "dP:2", "dP:3",
                                      "P:1", "P:2", "P:3", "P:4", "P:1*dP:3"])
    def test_fano_classification(self, spec):
        assert is_fano(build_named(spec))

    def test_ample_implies_nef(self):
        rng = random.Random(41)
        for spec in ["P:2", "dP:3", "F:2"]:
            fan = build_named(spec)
            for _ in range(20):
                d = random_divisor(rng, fan, span=2)
                if positivity(fan, d, "ample").ok:
                    assert positivity(fan, d, "nef").ok

    @staticmethod
    def first_violation(fan, d, mode):
        # the per-cone, per-ray loop over the Cartier data, as a reference
        for ci, (cone, m) in enumerate(zip(fan.max_cones, cartier_data(fan, d))):
            for j, ray in enumerate(fan.rays):
                val = sum(x * y for x, y in zip(m, ray))
                if j not in cone and (val < -d[j] or (mode == "ample" and val == -d[j])):
                    return ci, j
        return None

    @pytest.mark.parametrize("spec", ["P:2", "dP:3", "F:2", "Xd:3", "P:1*dP:3"])
    def test_first_witness_matches_loop(self, spec):
        rng = random.Random(f"witness/{spec}")
        fan = build_named(spec)
        for _ in range(30):
            d = random_divisor(rng, fan, span=3)
            for mode in ("nef", "ample"):
                report = positivity(fan, d, mode)
                assert report.witness == self.first_violation(fan, d, mode)
                assert report.ok == (report.witness is None)

    @pytest.mark.parametrize("scale", [2 ** 20, 2 ** 61, 2 ** 70], ids=["2^20", "2^61", "2^70"])
    def test_large_coefficients_stay_exact(self, scale):
        # positivity is invariant under positive scaling; the larger scales
        # leave the int64 bound and run in Python ints
        rng = random.Random(f"scale/{scale}")
        for spec in ["P:2", "F:2", "Xd:3"]:
            fan = build_named(spec)
            for _ in range(5):
                d = random_divisor(rng, fan)
                big = tuple(scale * x for x in d)
                for mode in ("nef", "ample"):
                    assert positivity(fan, big, mode) == positivity(fan, d, mode)
                assert cartier_data(fan, big) == tuple(
                    tuple(scale * x for x in m) for m in cartier_data(fan, d))

    def test_singular_fan_is_refused(self):
        # P(1,1,2) has a cone of determinant 2
        fan = Fan(2, [(1, 0), (0, 1), (-1, -2)], [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(NotUnimodular, match="determinant"):
            positivity(fan, (1, 1, 1), "ample")

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            positivity(projective_space(1), (0, 0), "very-ample")

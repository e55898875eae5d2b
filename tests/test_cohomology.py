import itertools
import random

import numpy as np
import pytest

from toricsplit import cohomology, lattice
from toricsplit.cohomology import (
    FactorNotStronglyExceptional,
    box_product,
    ext_table,
    find_strong_order,
    is_strongly_exceptional,
    line_bundle_cohomology,
    reduced_cohomology,
)
from toricsplit.divisor import canonical_divisor, cartier_data, positivity
from toricsplit.fan import FaceComplex, Fan, build_named, del_pezzo, projective_space
from toricsplit.frobenius import thomsen_split


def zero(fan):
    return tuple(0 for _ in fan.rays)


def polytope_sections(fan, d):
    """Independent h^0 oracle: count lattice points m with <m, v_j> >= -a_j.

    For a nef divisor the polytope is the convex hull of the Cartier data,
    so its sup-norm radius bounds the enumeration box.
    """
    data = cartier_data(fan, d)
    bound = max((abs(x) for m in data for x in m), default=0)
    count = 0
    for m in itertools.product(range(-bound, bound + 1), repeat=fan.dim):
        if all(sum(a * b for a, b in zip(m, ray)) >= -coeff
               for ray, coeff in zip(fan.rays, d)):
            count += 1
    return count


def random_nef_divisors(rng, fan, amount):
    """Nef classes with randomised coefficients: nef picks plus principal shifts."""
    found = []
    attempts = 0
    while len(found) < amount and attempts < 400:
        attempts += 1
        d = tuple(rng.randint(0, 2) for _ in fan.rays)
        if positivity(fan, d, "nef").ok:
            found.append(d)
    while len(found) < amount:
        k = rng.randint(0, 2)
        d = tuple(k for _ in fan.rays)
        found.append(d)
    out = []
    for d in found[:amount]:
        m = tuple(rng.randint(-1, 1) for _ in range(fan.dim))
        shift = np.array(fan.ray_matrix @ np.array(m, dtype=object), dtype=object)
        out.append(tuple(int(a + s) for a, s in zip(d, shift)))
    return out


class TestReducedCohomology:
    def test_empty_complex(self):
        c = FaceComplex.from_facets(4, [])
        dims = reduced_cohomology(c)
        assert dims[0] == 1
        assert all(x == 0 for x in dims[1:])

    def test_two_isolated_vertices(self):
        c = FaceComplex.from_facets(2, [(0,), (1,)])
        dims = reduced_cohomology(c)
        assert dims[0] == 0
        assert dims[1] == 1

    def test_hexagon_boundary_is_circle(self):
        fan = del_pezzo(3)
        dims = reduced_cohomology(fan.face_complex, vertices=range(6))
        assert dims[0] == 0  # connected
        assert dims[1] == 0
        assert dims[2] == 1  # one loop

    def test_filled_triangle_contractible(self):
        c = FaceComplex.from_facets(3, [(0, 1, 2)])
        dims = reduced_cohomology(c)
        assert all(x == 0 for x in dims)

    def test_restriction(self):
        fan = del_pezzo(3)
        dims = reduced_cohomology(fan.face_complex, vertices=[0, 3])
        # two opposite hexagon rays: isolated points
        assert dims[1] == 1


class TestLineBundles:
    def test_p1_classics(self):
        fan = projective_space(1)
        assert line_bundle_cohomology(fan, (-1, -1)).dims == (0, 1)
        assert line_bundle_cohomology(fan, (1, 1)).dims == (3, 0)
        assert line_bundle_cohomology(fan, (0, -1)).dims == (0, 0)
        assert line_bundle_cohomology(fan, (0, 0)).dims == (1, 0)
        assert line_bundle_cohomology(fan, (2, 3)).dims == (6, 0)

    def test_p2_canonical(self):
        fan = projective_space(2)
        assert line_bundle_cohomology(fan, canonical_divisor(fan)).dims == (0, 0, 1)
        assert line_bundle_cohomology(fan, zero(fan)).dims == (1, 0, 0)
        assert line_bundle_cohomology(fan, (1, 0, 0)).dims == (3, 0, 0)

    def test_dp3_structure_sheaf(self):
        fan = del_pezzo(3)
        table = line_bundle_cohomology(fan, zero(fan))
        assert table.dims == (1, 0, 0)
        # start radius 1 contributes at sup-norm 0 = R - 1, so it doubles once
        assert table.box == 2

    def test_structure_sheaf_everywhere(self):
        for spec in ["P:1", "P:2", "P:3", "dP:1", "dP:2", "dP:3", "F:2",
                     "Xd:3", "P:1*P:1"]:
            fan = build_named(spec)
            dims = line_bundle_cohomology(fan, zero(fan)).dims
            assert dims == (1,) + (0,) * fan.dim

    def test_euler_is_alternating_sum(self):
        fan = projective_space(2)
        table = line_bundle_cohomology(fan, (2, 1, 0))
        assert table.euler == sum((-1) ** i * h for i, h in enumerate(table.dims))

    def test_fixed_box_override(self):
        fan = projective_space(1)
        adaptive = line_bundle_cohomology(fan, (-2, -1))
        fixed = line_bundle_cohomology(fan, (-2, -1), box=2 * adaptive.box)
        assert fixed.dims == adaptive.dims
        assert fixed.box == 2 * adaptive.box

    def test_box_over_budget(self):
        # (2R + 1)^n degrees above the point budget are refused, fixed or adaptive
        fan = projective_space(2)
        with pytest.raises(ValueError, match="budget"):
            line_bundle_cohomology(fan, (3, 0, 0), box=2 ** 15)
        with pytest.raises(ValueError, match="budget"):
            line_bundle_cohomology(fan, (100000, 0, 0))
        with pytest.raises(ValueError, match="budget"):
            line_bundle_cohomology(projective_space(1), (0, 0), box=2 ** 29)

    def test_serre_duality_samples(self):
        rng = random.Random(101)
        for spec in ["P:1", "P:2", "dP:3"]:
            fan = build_named(spec)
            k = canonical_divisor(fan)
            for _ in range(15):
                d = tuple(rng.randint(-2, 2) for _ in fan.rays)
                hd = line_bundle_cohomology(fan, d).dims
                kd = tuple(a - b for a, b in zip(k, d))
                hk = line_bundle_cohomology(fan, kd).dims
                assert hd == tuple(reversed(hk))

    def test_nef_vanishing_and_sections(self):
        rng = random.Random(7)
        for spec in ["P:2", "dP:3"]:
            fan = build_named(spec)
            for d in random_nef_divisors(rng, fan, 8):
                assert positivity(fan, d, "nef").ok
                table = line_bundle_cohomology(fan, d)
                assert table.higher_vanish(), (d, table.dims)
                assert table.dims[0] == polytope_sections(fan, d)

    def test_adaptive_box_agrees_with_doubled_fixed_box(self):
        rng = random.Random(55)
        for spec in ["P:1", "P:2", "dP:3", "F:2", "Xd:3"]:
            fan = build_named(spec)
            for _ in range(6):
                d = tuple(rng.randint(-2, 2) for _ in fan.rays)
                adaptive = line_bundle_cohomology(fan, d)
                fixed = line_bundle_cohomology(fan, d, box=2 * adaptive.box)
                assert fixed.dims == adaptive.dims, (spec, d)

    def test_pushforward_finite_morphism_identity(self):
        # the degree-p map is finite, so cohomology is preserved:
        # h^i(O(D)) equals the sum of h^i over the dual summands negated
        for spec, p in [("P:1", 2), ("P:1", 3), ("dP:3", 2)]:
            fan = build_named(spec)
            for d in [zero(fan), tuple(1 for _ in fan.rays),
                      canonical_divisor(fan)]:
                split = thomsen_split(fan, d, p)
                direct = line_bundle_cohomology(fan, d).dims
                summed = [0] * (fan.dim + 1)
                for _, (mult, rep) in split.classes.items():
                    dims = line_bundle_cohomology(
                        fan, tuple(-x for x in rep)).dims
                    for i, h in enumerate(dims):
                        summed[i] += mult * h
                assert tuple(summed) == direct, (spec, p, d)


class TestExtTable:
    def test_p1_pair(self):
        fan = projective_space(1)
        table = ext_table(fan, [(0, 0), (0, 1)])
        assert table[0][0].dims == (1, 0)
        assert table[1][1].dims == (1, 0)
        assert table[0][1].dims == (2, 0)   # H(O(1))
        assert table[1][0].dims == (0, 0)   # H(O(-1))

    def test_single_member(self):
        fan = del_pezzo(3)
        table = ext_table(fan, [zero(fan)])
        assert table[0][0].dims == (1, 0, 0)

    def test_diagonal_invariant(self):
        fan = projective_space(2)
        coll = [(0, 0, 0), (1, 0, 0), (2, 0, 0)]
        table = ext_table(fan, coll)
        for j in range(3):
            assert table[j][j].dims == (1, 0, 0)

    def test_empty_collection(self):
        with pytest.raises(ValueError):
            ext_table(projective_space(1), [])


class TestStrongExceptionality:
    def test_p1_good_order(self):
        fan = projective_space(1)
        assert is_strongly_exceptional(fan, [(0, 0), (0, 1)]).passed

    def test_p1_bad_order(self):
        fan = projective_space(1)
        report = is_strongly_exceptional(fan, [(0, 1), (0, 0)])
        assert not report.passed
        assert any(v[0] == "backward" for v in report.violations)

    def test_p2_beilinson(self):
        fan = projective_space(2)
        coll = [(0, 0, 0), (1, 0, 0), (2, 0, 0)]
        assert is_strongly_exceptional(fan, coll).passed

    def test_twist_invariance(self):
        fan = del_pezzo(3)
        result = thomsen_split(fan, zero(fan), 5)
        bundles = [rep for _, rep in result.classes.values()]
        order = find_strong_order(fan, bundles)
        assert order.ok
        twist = (1, 0, 0, 1, 0, 0)
        twisted = [tuple(a + t for a, t in zip(b, twist)) for b in order.order]
        assert is_strongly_exceptional(fan, order.order).passed
        assert is_strongly_exceptional(fan, twisted).passed


class TestFindStrongOrder:
    def test_p1_orders_the_pair(self):
        fan = projective_space(1)
        result = find_strong_order(fan, [(0, 1), (0, 0)])
        assert result.ok
        assert result.order == ((0, 0), (0, 1))

    def test_p1_gap_two_fails(self):
        fan = projective_space(1)
        result = find_strong_order(fan, [(0, 0), (0, 2)])
        assert not result.ok
        assert result.witness[0] == "pair"

    def test_requires_distinct_classes(self):
        # (1, 0) and (0, 1) are both O(1): equivalent members are rejected
        fan = projective_space(1)
        with pytest.raises(ValueError):
            find_strong_order(fan, [(1, 0), (0, 1)])

    def test_dp3_frobenius_classes(self):
        fan = del_pezzo(3)
        result = thomsen_split(fan, zero(fan), 5)
        bundles = [rep for _, rep in result.classes.values()]
        order = find_strong_order(fan, bundles)
        assert order.ok
        assert is_strongly_exceptional(fan, order.order).passed


class TestBoxProduct:
    def test_trivial(self):
        f1 = projective_space(1)
        product, bundles = box_product(f1, [zero(f1)], f1, [zero(f1)])
        assert bundles == ((0, 0, 0, 0),)
        assert product.dim == 2

    def test_p1_times_p1(self):
        f1 = projective_space(1)
        coll = [(0, 0), (0, 1)]
        product, bundles = box_product(f1, coll, f1, coll)
        assert len(bundles) == 4
        # first factor varies fastest
        assert bundles[0] == (0, 0, 0, 0)
        assert bundles[1] == (0, 1, 0, 0)
        assert bundles[2] == (0, 0, 0, 1)
        assert is_strongly_exceptional(product, bundles).passed

    def test_rejects_bad_factor(self):
        f1 = projective_space(1)
        with pytest.raises(FactorNotStronglyExceptional):
            box_product(f1, [(0, 0), (0, 2)], f1, [(0, 0)])


class TestVertexData:
    """The cached (det, adj) of every independent n-subset of rays is exact."""

    @staticmethod
    def expected(fan):
        out = {}
        for subset in itertools.combinations(range(len(fan.rays)), fan.dim):
            det, adj = lattice.adjugate([fan.rays[j] for j in subset])
            if det != 0:
                out[subset] = (det, adj.tolist())
        return out

    @staticmethod
    def cached(fan):
        subsets, dets, adjs = cohomology._vertex_data(fan)
        return {tuple(s): (int(d), [[int(x) for x in row] for row in a])
                for s, d, a in zip(subsets.tolist(), dets, adjs)}

    @staticmethod
    def moved_projective_space():
        # P^3 moved by a unimodular matrix with entries near 2^20
        n = 2 ** 10
        shear_up = np.array([[1, n, 0], [0, 1, n], [0, 0, 1]], dtype=object)
        shear_down = np.array([[1, 0, 0], [n, 1, 0], [0, n, 1]], dtype=object)
        g = shear_up @ shear_down
        base = projective_space(3)
        return Fan(3, [tuple(int(x) for x in g @ np.array(r, dtype=object))
                       for r in base.rays], base.max_cones)

    @pytest.mark.parametrize("spec", ["P:3", "F:2", "Xd:3", "Xd:5", "dP:3*dP:3", "moved P:3"])
    def test_matches_lattice_adjugate(self, spec):
        # the level-by-level growth keeps exactly the independent n-subsets
        # of the all-combinations enumeration, in its lexicographic order
        fan = self.moved_projective_space() if spec == "moved P:3" else build_named(spec)
        assert list(self.cached(fan).items()) == list(self.expected(fan).items())

    def test_inexact_float_adjugate_falls_back(self, monkeypatch):
        # the float inverses of three of the four cone matrices of the moved
        # P^3 round to wrong adjugates, which fail the exact check and are
        # redone exactly
        fan = self.moved_projective_space()
        calls = []
        exact = lattice.adjugate
        monkeypatch.setattr(lattice, "adjugate", lambda m: calls.append(1) or exact(m))
        cached = self.cached(fan)
        assert calls
        assert cached == self.expected(fan)
        assert len(cached) == 4
        assert line_bundle_cohomology(fan, zero(fan)).dims == (1, 0, 0, 0)

import itertools

import numpy as np
import pytest

from toricsplit import fan as fan_module
from toricsplit.lattice import NotUnimodular
from toricsplit.fan import (
    ConstructionFailed,
    Fan,
    InvalidSpec,
    NotComplete,
    build_named,
    del_pezzo,
    del_pezzo_bundle,
    fan_product,
    hirzebruch,
    maximal_cones_from_primitive_pairs,
    poincare_polynomial,
    primitive_collections,
    projective_space,
    tower_primitive_pairs,
    tower_rays,
    validate,
    walls,
)

# Hattori-Masuda multi-fan: unimodular cyclic rays that wind twice.
HATTORI_MASUDA_RAYS = ((1, 0), (0, 1), (-1, -2), (2, 3), (-1, -1), (0, -1))

# d=3 tower ray order: v0..v4 are indices 0..4, w0..w2 are 5..7.
TOWER3_RAYS = (
    (1, 0, 0),    # v0 = e0
    (0, 1, 0),    # v1 = e1
    (0, -1, 0),   # v2 = -e1
    (0, 0, 1),    # v3 = e2
    (0, 0, -1),   # v4 = -e2
    (-1, 1, 0),   # w0 = e1 - e0
    (0, 1, -1),   # w1 = e1 - e2
    (0, -1, 1),   # w2 = e2 - e1
)

# wall table of the d=3 tower: (wall rays, u_plus, u_minus)
TOWER3_WALL_TABLE = {
    ((1, 3), 0, 5),
    ((0, 1), 3, 6),
    ((1, 5), 3, 6),
    ((1, 6), 0, 5),
    ((2, 4), 0, 5),
    ((0, 2), 4, 7),
    ((2, 5), 4, 7),
    ((2, 7), 0, 5),
    ((3, 5), 1, 7),
    ((0, 3), 1, 7),
    ((3, 7), 0, 5),
    ((0, 4), 2, 6),
    ((4, 5), 2, 6),
    ((4, 6), 0, 5),
    ((0, 6), 1, 4),
    ((0, 7), 2, 3),
    ((5, 6), 1, 4),
    ((5, 7), 2, 3),
}


class TestProjectiveSpace:
    def test_p1(self):
        fan = projective_space(1)
        assert fan.rays == ((1,), (-1,))
        assert fan.max_cones == ((0,), (1,))
        assert validate(fan).ok

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_counts(self, n):
        fan = projective_space(n)
        assert len(fan.rays) == n + 1
        assert len(fan.max_cones) == n + 1
        assert validate(fan).ok

    def test_invalid(self):
        with pytest.raises(InvalidSpec):
            projective_space(0)


class TestDelPezzo:
    @pytest.mark.parametrize("r,nrays", [(1, 4), (2, 5), (3, 6)])
    def test_counts(self, r, nrays):
        fan = del_pezzo(r)
        assert len(fan.rays) == nrays
        assert len(fan.max_cones) == nrays
        assert validate(fan).ok

    def test_dp3_is_hexagon(self):
        fan = del_pezzo(3)
        assert set(fan.rays) == {(1, 0), (0, 1), (-1, 0), (0, -1), (1, -1), (-1, 1)}

    def test_invalid(self):
        with pytest.raises(InvalidSpec):
            del_pezzo(4)


class TestHirzebruch:
    def test_f2(self):
        fan = hirzebruch(2)
        assert fan.rays == ((1, 0), (0, 1), (-1, 2), (0, -1))
        assert validate(fan).ok

    def test_f0_is_quadric(self):
        fan = hirzebruch(0)
        assert len(fan.max_cones) == 4


class TestTower:
    def test_d3_rays(self):
        assert tower_rays(3) == TOWER3_RAYS

    def test_d3_counts(self):
        fan = del_pezzo_bundle(3)
        assert len(fan.rays) == 8
        assert len(fan.max_cones) == 12
        assert validate(fan).ok

    def test_d3_contains_reference_cones(self):
        fan = del_pezzo_bundle(3)
        for cone in [(0, 1, 3), (2, 5, 7), (0, 4, 6)]:
            assert cone in fan.max_cones
        # canonical cone order puts (0,1,3) first: the natural base cone
        assert fan.max_cones[0] == (0, 1, 3)

    @pytest.mark.parametrize("d,nrays,ncones", [(3, 8, 12), (5, 14, 72), (7, 20, 432)])
    def test_size_formula(self, d, nrays, ncones):
        fan = del_pezzo_bundle(d)
        assert len(fan.rays) == 3 * d - 1 == nrays
        assert len(fan.max_cones) == 2 * 6 ** ((d - 1) // 2) == ncones

    @pytest.mark.parametrize("d", [5, 7, 9, 11])
    def test_product_matches_primitive_pairs(self, d):
        # the tower is built as Xd:3 x dP3^((d-3)/2); the primitive-pair
        # construction over all its rays is the reference
        rays = tower_rays(d)
        reference = Fan(d, rays, maximal_cones_from_primitive_pairs(
            rays, tower_primitive_pairs(d)))
        fan = del_pezzo_bundle(d)
        assert fan.rays == reference.rays
        assert fan.max_cones == reference.max_cones
        assert validate(fan).ok

    def test_even_d_rejected(self):
        with pytest.raises(InvalidSpec):
            del_pezzo_bundle(4)
        with pytest.raises(InvalidSpec):
            del_pezzo_bundle(1)

    def test_incomplete_pair_list_fails_loudly(self, monkeypatch):
        # dropping the two extra hexagon pairs (as in a well-known transcription
        # slip) leaves a degenerate independent triple like {e1, -e2, e1-e2},
        # which the builder's validation refuses
        pairs = tower_primitive_pairs(3)
        monkeypatch.setattr(fan_module, "tower_primitive_pairs", lambda d: tuple(
            p for p in pairs if p not in ((1, 4), (2, 3))))
        with pytest.raises(ConstructionFailed, match="determinant"):
            del_pezzo_bundle(3)


class TestConesFromPairs:
    def test_p1_analog(self):
        cones = maximal_cones_from_primitive_pairs([(1,), (-1,)], [(0, 1)])
        assert cones == ((0,), (1,))

    def test_square(self):
        rays = [(1, 0), (0, 1), (-1, 0), (0, -1)]
        cones = maximal_cones_from_primitive_pairs(rays, [(0, 2), (1, 3)])
        assert len(cones) == 4

    def test_tower3(self):
        cones = maximal_cones_from_primitive_pairs(
            tower_rays(3), tower_primitive_pairs(3))
        assert len(cones) == 12
        # independent recount: triples avoiding the pairs
        pairs = set(tower_primitive_pairs(3))
        count = 0
        for combo in itertools.combinations(range(8), 3):
            if not any(tuple(sorted(p)) in pairs
                       for p in itertools.combinations(combo, 2)):
                count += 1
        assert count == 12

    @pytest.mark.parametrize("d", [3, 5, 7])
    def test_matches_subset_filter(self, d):
        # the backtracking walk gives the same cones, in the same order, as
        # filtering every d-subset of rays through the pair masks
        rays, pairs = tower_rays(d), tower_primitive_pairs(d)
        masks = [(1 << a) | (1 << b) for a, b in pairs]
        expected = tuple(
            combo for combo in itertools.combinations(range(len(rays)), d)
            if not any(m & sum(1 << i for i in combo) == m for m in masks))
        assert maximal_cones_from_primitive_pairs(rays, pairs) == expected

    def test_rejects_bad_pairs(self):
        with pytest.raises(ValueError):
            maximal_cones_from_primitive_pairs([(1,), (-1,)], [(0, 1, 1)])
        with pytest.raises(ValueError):
            maximal_cones_from_primitive_pairs([(1,), (-1,)], [(0, 2)])


class TestProduct:
    def test_p1_p1(self):
        fan = fan_product(projective_space(1), projective_space(1))
        assert len(fan.rays) == 4
        assert len(fan.max_cones) == 4
        assert validate(fan).ok

    def test_p2_p1(self):
        fan = fan_product(projective_space(2), projective_space(1))
        assert len(fan.rays) == 5
        assert len(fan.max_cones) == 6

    def test_p1_dp3(self):
        fan = fan_product(projective_space(1), del_pezzo(3))
        assert len(fan.rays) == 8
        assert len(fan.max_cones) == 12
        assert validate(fan).ok

    def test_euler_multiplicative(self):
        for f1, f2 in [(projective_space(1), del_pezzo(3)),
                       (projective_space(2), projective_space(1))]:
            chi1 = poincare_polynomial(f1).euler_characteristic
            chi2 = poincare_polynomial(f2).euler_characteristic
            chi = poincare_polynomial(fan_product(f1, f2)).euler_characteristic
            assert chi == chi1 * chi2


class TestBuildNamed:
    @pytest.mark.parametrize("spec,nrays,ncones", [
        ("P:1", 2, 2),
        ("P2", 3, 3),
        ("dP:3", 6, 6),
        ("Xd:3", 8, 12),
        ("F:2", 4, 4),
        ("F2", 4, 4),
        ("P:1*dP:3", 8, 12),
        ("P:1*P:1*P:1", 6, 8),
    ])
    def test_grammar(self, spec, nrays, ncones):
        fan = build_named(spec)
        assert len(fan.rays) == nrays
        assert len(fan.max_cones) == ncones

    @pytest.mark.parametrize("spec", ["P:1", "P:4", "dP:1", "dP:2", "dP:3", "F:0", "F:3",
                                      "Xd:3", "Xd:5", "Xd:7", "P:2*dP:3*Xd:3"])
    def test_size_from_descriptor(self, spec):
        # the limits read each factor's dimension and cone count off the
        # descriptor; the product of the counts is the product fan's
        sizes = [fan_module._named_size(part) for part in spec.split("*")]
        fan = build_named(spec)
        assert sum(d for d, _ in sizes) == fan.dim
        assert np.prod([c for _, c in sizes]) == len(fan.max_cones)

    def test_size_limits(self):
        # Xd:13 (93,312 cones) and dP:3^7 (279,936) are under the cone limit,
        # Xd:15 (559,872) is over it; nothing is built here
        assert fan_module._named_size("Xd:13") == (13, 93312)
        assert fan_module._named_size("Xd:15") == (15, 559872)
        assert 6 ** 7 <= fan_module._MAX_CONES < 559872
        assert fan_module._named_size("P:256") == (256, 257) and fan_module._MAX_DIM == 256
        assert fan_module._named_size("Xd:999")[1] is None
        assert fan_module._named_size("Xd:4") is None and fan_module._named_size("Q:3") is None

    def test_exact_work_limit(self, monkeypatch):
        # Xd:13, dP:3^7 and F:1 x dP:3^6 eliminate their cones in int64, and
        # P:64 in Python ints at 65 * 64^3 < 2^25; the entry 3 of F:3 puts
        # F:3 x dP:3^6 in Python ints at 4 * 6^6 * 14^3 > 2^28.  Nothing is
        # built here.
        monkeypatch.setattr(fan_module, "_build_one", lambda part: part)
        monkeypatch.setattr(fan_module, "fan_product", lambda f1, f2: f2)
        dp6 = "*".join(["dP:3"] * 6)
        for spec in ("Xd:13", "dP:3*" + dp6, "P:64", "F:1*" + dp6):
            build_named(spec)
        for spec in ("P:80", "P:24*P:24", "P:256", "F:3*" + dp6):
            with pytest.raises(InvalidSpec, match="Python-int work"):
                build_named(spec)

    @pytest.mark.parametrize("spec", ["P:1", "P:16", "dP:1", "dP:2", "dP:3", "F:0", "F:5",
                                      "Xd:3", "Xd:9", "P:2*dP:3*Xd:3"])
    def test_cone_matrices_in_int64(self, spec):
        # the rays are narrowed before the gather, also on P:16, whose
        # elimination runs in Python ints
        fan = build_named(spec)
        assert fan.cone_indices.tolist() == [list(c) for c in fan.max_cones]
        assert fan.cone_matrices.dtype == np.int64
        assert fan.cone_matrices.tolist() == [[list(fan.rays[j]) for j in c]
                                              for c in fan.max_cones]

    @pytest.mark.parametrize("bad", ["Xd:4", "dP:0", "P:0", "Q:3", "P:", "", "Xd:3**P:1"])
    def test_rejects(self, bad):
        with pytest.raises(InvalidSpec):
            build_named(bad)


class TestValidate:
    def test_cone_inverses_need_a_smooth_fan(self):
        # P(1,1,2): the cone (0, 2) spanned by (1, 0) and (-1, -2) has index 2
        fan = Fan(2, [(1, 0), (0, 1), (-1, -2)], [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(NotUnimodular, match=r"cone \(0, 2\) has determinant -2"):
            fan.cone_inverses

    def test_ray_in_no_maximal_cone(self):
        # checks 1-4 pass on P^2's cones; the fifth finds the unused ray
        fan = Fan(2, [(1, 0), (0, 1), (-1, -1), (1, 1)], [(0, 1), (1, 2), (0, 2)])
        report = validate(fan)
        assert report.smooth and not report.complete
        assert report.messages == ("ray 3 (1, 1) lies in no maximal cone",)

    def test_named_all_valid(self):
        for spec in ["P:1", "P:3", "dP:1", "dP:2", "dP:3", "F:2", "Xd:3", "P:1*dP:3"]:
            report = validate(build_named(spec))
            assert report.smooth and report.complete and report.simplicial

    def test_missing_cone_not_complete(self):
        p2 = projective_space(2)
        broken = Fan(2, p2.rays, p2.max_cones[:-1])
        report = validate(broken)
        assert not report.complete
        assert report.messages

    def test_non_smooth_detected(self):
        # weighted projective plane P(1,1,2): complete but singular
        fan = Fan(2, [(1, 0), (0, 1), (-1, -2)], [(0, 1), (1, 2), (0, 2)])
        report = validate(fan)
        assert not report.smooth
        assert report.complete

    def test_overlapping_cones_not_complete(self):
        # two cones overlap: the wall or the point test must fail
        fan = Fan(2, [(1, 0), (0, 1), (-1, -1), (1, 1)],
                  [(0, 1), (1, 2), (0, 2), (0, 3)])
        assert not validate(fan).complete

    @pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
    def test_non_smooth_complete_in_any_ray_order(self, order):
        # P(1,1,2) again: the ray order moves the signs of the cone
        # determinants, which the side and point tests must follow
        rays = [[(1, 0), (0, 1), (-1, -2)][i] for i in order]
        report = validate(Fan(2, rays, [(0, 1), (1, 2), (0, 2)]))
        assert not report.smooth and report.complete

    def test_multi_fan_winding_twice_not_complete(self):
        # consecutive determinants are all 1 and every wall has its two cones
        # on opposite sides, but the cones wind twice around the origin
        fan = Fan(2, HATTORI_MASUDA_RAYS, [(i, (i + 1) % 6) for i in range(6)])
        report = validate(fan)
        assert report.smooth and not report.complete
        assert report.messages == ("point (1, 1) of cone (0, 1) lies in 2 maximal cones",)

    def test_singular_multi_fan_not_complete(self):
        # the image of that multi-fan under (x, y) -> (2x + y, x + 2y): the
        # cones are not unimodular, so the point test divides by determinants of +-3
        fan = Fan(2, [(2, 1), (1, 2), (-4, -5), (7, 8), (-1, -1), (-1, -2)],
                  [(i, (i + 1) % 6) for i in range(6)])
        report = validate(fan)
        assert not report.smooth and not report.complete
        assert report.messages[-1] == "point (3, 3) of cone (0, 1) lies in 2 maximal cones"

    def test_cones_on_one_side_not_complete(self):
        # rays (1,0), (0,1), (2,1), (0,-1): every ray lies in two cones, but
        # the cones at (0,1) both lie to its right
        fan = Fan(2, [(1, 0), (0, 1), (2, 1), (0, -1)],
                  [(0, 1), (1, 2), (2, 3), (0, 3)])
        report = validate(fan)
        assert not report.complete
        assert report.messages[-1] == "the two cones at wall (1,) lie on the same side of it"

    def test_degenerate_cone_not_complete(self):
        fan = Fan(2, [(1, 0), (0, 1), (-1, 0), (0, -1)],
                  [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
        report = validate(fan)
        assert not report.smooth and not report.complete
        assert "cone (0, 2) is not full-dimensional" in report.messages

    def test_line(self):
        assert validate(Fan(1, [(1,), (-1,)], [(0,), (1,)])).complete
        assert not validate(Fan(1, [(1,)], [(0,)])).complete

    def test_structural_errors(self):
        with pytest.raises(ValueError):
            Fan(2, [(2, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(ValueError):
            Fan(2, [(1, 0), (1, 0), (0, 1)], [(0, 2), (1, 2)])
        with pytest.raises(ValueError):
            Fan(2, [(1, 0), (0, 1)], [(0, 1), (0, 1)])

    def test_non_integer_entries_are_refused(self):
        # int() would truncate 1.7 to 1 and build the line
        with pytest.raises(ValueError, match="ray coordinates must be integers"):
            Fan(1, [(1.7,), (-1,)], [(0,), (1,)])
        with pytest.raises(ValueError, match="cone indices must be integers"):
            Fan(1, [(1,), (-1,)], [(0.0,), (1,)])

    def test_numpy_integers_pass(self):
        fan = Fan(1, np.array([[1], [-1]], dtype=np.int64), np.array([[1], [0]], dtype=np.int32))
        assert fan.rays == ((1,), (-1,)) and fan.max_cones == ((0,), (1,))
        assert all(type(x) is int for r in fan.rays for x in r)
        assert all(type(i) is int for c in fan.max_cones for i in c)

    def test_non_integer_dimension_is_refused(self):
        # a float dimension was kept and failed later with a numpy TypeError,
        # and del_pezzo(2.0) returned dP2
        with pytest.raises(ValueError, match="fan dimension must be integers"):
            Fan(2.0, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)])
        for build, arg in ((projective_space, 2.0), (del_pezzo, 2.0),
                             (hirzebruch, 2.0), (del_pezzo_bundle, 5.0)):
            with pytest.raises(ValueError, match="must be integers"):
                build(arg)

    def test_bool_and_numpy_dimensions_become_ints(self):
        line = Fan(True, [(1,), (-1,)], [(0,), (1,)])
        assert type(line.dim) is int and line.dim == 1 and validate(line).ok
        for build, arg in ((projective_space, np.int64(2)), (del_pezzo, np.int32(2)),
                             (hirzebruch, np.int64(2)), (del_pezzo_bundle, np.int64(3))):
            fan, plain = build(arg), build(int(arg))
            assert type(fan.dim) is int
            assert (fan.dim, fan.rays, fan.max_cones) == (plain.dim, plain.rays, plain.max_cones)


class TestWalls:
    def test_p1_single_wall(self):
        fan = projective_space(1)
        ws = walls(fan)
        assert len(ws) == 1
        assert ws[0].rays == ()
        assert (ws[0].u_plus, ws[0].u_minus) == (0, 1)

    def test_p2(self):
        assert len(walls(projective_space(2))) == 3

    def test_tower3_table(self):
        fan = del_pezzo_bundle(3)
        ws = walls(fan)
        assert len(ws) == 18
        table = {(w.rays, w.u_plus, w.u_minus) for w in ws}
        assert table == TOWER3_WALL_TABLE

    def test_wall_cone_consistency(self):
        for spec in ["P:2", "dP:3", "F:2", "Xd:3"]:
            fan = build_named(spec)
            for w in walls(fan):
                assert set(w.rays) | {w.u_plus} == set(fan.max_cones[w.plus_cone])
                assert set(w.rays) | {w.u_minus} == set(fan.max_cones[w.minus_cone])
                assert w.u_plus != w.u_minus

    def test_incidence_count(self):
        for spec in ["P:2", "P:3", "dP:3", "Xd:3", "Xd:5"]:
            fan = build_named(spec)
            assert 2 * len(walls(fan)) == fan.dim * len(fan.max_cones)

    def test_not_complete_raises(self):
        p2 = projective_space(2)
        broken = Fan(2, p2.rays, p2.max_cones[:-1])
        with pytest.raises(NotComplete):
            walls(broken)


class TestPrimitiveCollections:
    def test_p1xp1(self):
        fan = fan_product(projective_space(1), projective_space(1))
        pcs = primitive_collections(fan)
        assert sorted(pc.rays for pc in pcs) == [(0, 1), (2, 3)]
        for pc in pcs:
            assert pc.relation_cone == ()
            assert pc.relation_coeffs == ()

    def test_p2(self):
        pcs = primitive_collections(projective_space(2))
        assert len(pcs) == 1
        assert pcs[0].rays == (0, 1, 2)
        assert pcs[0].relation_cone == ()

    def test_tower3(self):
        fan = del_pezzo_bundle(3)
        pcs = primitive_collections(fan)
        assert sorted(pc.rays for pc in pcs) == sorted(tower_primitive_pairs(3))
        by_rays = {pc.rays: pc for pc in pcs}
        # w0 + v0 = e1 = v1
        assert by_rays[(0, 5)].relation_cone == (1,)
        assert by_rays[(0, 5)].relation_coeffs == (1,)
        # v1 + v4 = e1 - e2 = w1
        assert by_rays[(1, 4)].relation_cone == (6,)
        # opposite rays sum to zero
        assert by_rays[(1, 2)].relation_cone == ()

    def test_relation_identity(self):
        for spec in ["P:2", "dP:3", "F:2", "Xd:3", "Xd:5"]:
            fan = build_named(spec)
            for pc in primitive_collections(fan):
                total = np.zeros(fan.dim, dtype=object)
                for i in pc.rays:
                    total = total + np.array(fan.rays[i], dtype=object)
                for c, j in zip(pc.relation_coeffs, pc.relation_cone):
                    total = total - c * np.array(fan.rays[j], dtype=object)
                assert not total.any()
                assert all(c > 0 for c in pc.relation_coeffs)

    def test_minimality(self):
        for spec in ["dP:3", "Xd:3"]:
            fan = build_named(spec)
            complex_ = fan.face_complex
            for pc in primitive_collections(fan):
                assert not complex_.is_face(pc.rays)
                for i in range(len(pc.rays)):
                    assert complex_.is_face(pc.rays[:i] + pc.rays[i + 1:])

    @pytest.mark.parametrize("spec", ["P:1", "P:2", "P:3", "dP:3", "F:2", "F:3", "Xd:3",
                                      "Xd:5", "P:1*dP:3", "dP:3*dP:3", "P:2*P:2", "Xd:7"])
    def test_matches_subset_scan(self, spec):
        # the reference: every k-subset for k up to dim + 1, kept when it is
        # no face and every one-vertex drop is
        fan = build_named(spec)
        faces = fan.face_complex._face_masks
        expected = []
        for k in range(1, fan.dim + 2):
            for combo in itertools.combinations(range(len(fan.rays)), k):
                mask = fan_module._mask(combo)
                if mask not in faces and all(mask ^ 1 << j in faces for j in combo):
                    expected.append(combo)
        assert [pc.rays for pc in primitive_collections(fan)] == expected

    @pytest.mark.parametrize("d", [5, 9])
    def test_tower_collections_are_its_pairs(self, d):
        # the tower's cones are the independent sets of its pair graph
        fan = del_pezzo_bundle(d)
        assert [pc.rays for pc in primitive_collections(fan)] == \
            sorted(tower_primitive_pairs(d))


class TestPoincare:
    def test_p1(self):
        poly = poincare_polynomial(projective_space(1))
        assert poly.coeffs == (1, 0, 1)
        assert poly.euler_characteristic == 2

    def test_dp3(self):
        poly = poincare_polynomial(del_pezzo(3))
        assert poly.coeffs == (1, 0, 4, 0, 1)
        assert poly.euler_characteristic == 6

    def test_tower3_product_formula(self):
        poly = poincare_polynomial(del_pezzo_bundle(3))
        dp3 = (1, 0, 4, 0, 1)
        p1 = (1, 0, 1)
        expected = np.convolve(dp3, p1).tolist()
        assert list(poly.coeffs) == expected
        assert poly.euler_characteristic == 12

    def test_euler_equals_cone_count(self):
        for spec in ["P:1", "P:2", "P:3", "dP:1", "dP:2", "dP:3", "F:2",
                     "Xd:3", "Xd:5", "P:1*P:1"]:
            fan = build_named(spec)
            assert poincare_polynomial(fan).euler_characteristic == len(fan.max_cones)


class TestJson:
    def test_roundtrip(self):
        fan = del_pezzo_bundle(3)
        again = Fan.from_json(fan.to_json())
        assert again.dim == fan.dim
        assert again.rays == fan.rays
        assert again.max_cones == fan.max_cones

import numpy as np
import pytest

from toricsplit.bondal import BasisDegenerate, bondal_criterion, wall_relation
from toricsplit.fan import build_named, del_pezzo_bundle, hirzebruch, projective_space, walls
from toricsplit.fan import Fan, Wall


def relation_closes(fan, rel):
    total = (np.array(fan.rays[rel.wall.u_plus], dtype=object)
             + np.array(fan.rays[rel.wall.u_minus], dtype=object))
    for a, j in zip(rel.coeffs, rel.wall.rays):
        total = total + a * np.array(fan.rays[j], dtype=object)
    return not total.any()


class TestWallRelation:
    def test_p2(self):
        # e1 + (-e0-e1) + 1*e0 = 0 across every wall of the plane
        fan = projective_space(2)
        for w in walls(fan):
            rel = wall_relation(fan, w)
            assert rel.coeffs == (1,)

    def test_f2_special_wall(self):
        fan = hirzebruch(2)
        special = next(w for w in walls(fan) if w.rays == (1,))
        rel = wall_relation(fan, special)
        assert rel.coeffs == (-2,)

    def test_tower3_first_row(self):
        fan = del_pezzo_bundle(3)
        wall = next(w for w in walls(fan) if w.rays == (1, 3))
        assert (wall.u_plus, wall.u_minus) == (0, 5)
        rel = wall_relation(fan, wall)
        assert rel.coeffs == (-1, 0)

    def test_identity_everywhere(self):
        for spec in ["P:1", "P:2", "P:3", "dP:1", "dP:2", "dP:3", "F:2",
                     "Xd:3", "P:1*dP:3"]:
            fan = build_named(spec)
            for w in walls(fan):
                assert relation_closes(fan, wall_relation(fan, w))

    def test_swap_symmetry(self):
        # the relation is symmetric in u_plus and u_minus
        for spec in ["P:2", "F:2", "Xd:3"]:
            fan = build_named(spec)
            for w in walls(fan):
                swapped = Wall(w.rays, w.minus_cone, w.plus_cone,
                               w.u_minus, w.u_plus)
                assert wall_relation(fan, w).coeffs == \
                    wall_relation(fan, swapped).coeffs

    def test_p1_empty_relation(self):
        fan = projective_space(1)
        (w,) = walls(fan)
        assert wall_relation(fan, w).coeffs == ()


    def test_relation_that_does_not_close(self):
        # a wrong cached inverse that keeps the u_plus coordinate at -1
        # yields a relation that does not close; that is an error, not a result
        fan = projective_space(2)
        wall = walls(fan)[0]
        cone = fan.max_cones[wall.plus_cone]
        inverses = list(fan.cone_inverses)
        skewed = inverses[wall.plus_cone].copy()
        first, plus = cone.index(wall.rays[0]), cone.index(wall.u_plus)
        skewed[:, first] = skewed[:, first] + skewed[:, plus]
        inverses[wall.plus_cone] = skewed
        fan.cone_inverses = tuple(inverses)
        with pytest.raises(BasisDegenerate, match="does not close"):
            wall_relation(fan, wall)

    def test_singular_fan_is_degenerate(self):
        # P(1,1,2) has no unimodular cone inverses
        fan = Fan(2, [(1, 0), (0, 1), (-1, -2)], [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(BasisDegenerate, match="not smooth"):
            wall_relation(fan, walls(fan)[0])

    def test_wall_with_wrong_plus_cone(self):
        fan = projective_space(2)
        w = walls(fan)[0]
        wrong = Wall(w.rays, w.minus_cone, w.plus_cone, w.u_plus, w.u_minus)
        with pytest.raises(BasisDegenerate, match="plus cone"):
            wall_relation(fan, wrong)


class TestSurfaceSelfIntersections:
    def test_p2_lines(self):
        fan = projective_space(2)
        assert [wall_relation(fan, w).coeffs[0] for w in walls(fan)] == [1, 1, 1]

    def test_f2_curve_grades(self):
        fan = hirzebruch(2)
        values = sorted(wall_relation(fan, w).coeffs[0] for w in walls(fan))
        # section with self-intersection -2, two fibres, and the +2 section
        assert values == [-2, 0, 0, 2]

    def test_dp3_exceptional_curves(self):
        fan = build_named("dP:3")
        values = [wall_relation(fan, w).coeffs[0] for w in walls(fan)]
        assert values == [-1] * 6


class TestCriterion:
    def test_tower3_passes(self):
        verdict = bondal_criterion(del_pezzo_bundle(3))
        assert verdict.passed
        assert len(verdict.relations) == 18
        assert verdict.violations == ()

    def test_tower5_passes(self):
        verdict = bondal_criterion(del_pezzo_bundle(5))
        assert verdict.passed
        assert len(verdict.relations) == 180

    def test_f2_fails_with_witness(self):
        verdict = bondal_criterion(hirzebruch(2))
        assert not verdict.passed
        assert any(-2 in v.coeffs for v in verdict.violations)

    @pytest.mark.parametrize("spec", ["P:1", "P:2", "dP:1", "dP:2", "dP:3",
                                      "P:1*dP:3"])
    def test_fano_fixtures_pass(self, spec):
        assert bondal_criterion(build_named(spec)).passed

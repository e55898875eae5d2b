"""Build the named fans and check their combinatorial fingerprints.

The stars of the show are the odd-dimensional toric Fano varieties with
maximal Picard number: towers of del Pezzo-6 surfaces fibred over P^1.
Their maximal cones are reconstructed purely from the primitive-pair list,
then validated before anything else runs: smoothness from the cone
determinants, and completeness exactly, from the walls (two cones on
opposite sides of each) and one interior point of cone 0 that no other
cone may contain.
"""

from toricsplit import (
    build_named,
    picard_rank,
    poincare_polynomial,
    primitive_collections,
    validate,
    walls,
)

for spec in ["P:1", "P:2", "dP:3", "F:2", "Xd:3", "Xd:5", "P:1*dP:3"]:
    fan = build_named(spec)
    report = validate(fan)
    poly = poincare_polynomial(fan)
    print(f"{spec:>8}: dim {fan.dim}, {len(fan.rays):2} rays, "
          f"{len(fan.max_cones):3} maximal cones, rho = {picard_rank(fan)}, "
          f"smooth = {report.smooth}, complete = {report.complete}")
    print(f"          Poincare polynomial {poly.coeffs}, chi = "
          f"{poly.euler_characteristic}")

# The Euler characteristic counts maximal cones, which is also the rank of
# the Grothendieck group: for the towers it is 2 * 6^((d-1)/2).
for d in (3, 5, 7):
    fan = build_named(f"Xd:{d}")
    assert len(fan.max_cones) == 2 * 6 ** ((d - 1) // 2)
    print(f"Xd:{d}: 3d-1 = {len(fan.rays)} rays, "
          f"2 * 6^((d-1)/2) = {len(fan.max_cones)} cones")

# Primitive collections of the d=3 tower: ten pairs.  Nine non-edges per
# hexagon block plus the pair coupling the base P^1 direction.
fan = build_named("Xd:3")
print("\nprimitive collections of Xd:3 (ray indices; v0..v4 = 0..4, w0..w2 = 5..7):")
for pc in primitive_collections(fan):
    relation = " + ".join(f"{c}*ray{j}" for c, j in
                          zip(pc.relation_coeffs, pc.relation_cone)) or "0"
    print(f"  {pc.rays}  ->  sum of rays = {relation}")

print(f"\nXd:3 has {len(walls(fan))} walls (codimension-1 cones)")

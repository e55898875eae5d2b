"""Per-degree reference for line-bundle cohomology, used as a test oracle.

Every degree m of the box [-R, R]^n is visited one at a time: the rays with
<m, v_j> < -a_j are found by direct comparison, and the reduced cohomology of
their full subcomplex (one degree down) is added into h^0..h^n.  The adaptive
radius starts at 1 + max|a_j| * max|v_j| and doubles while a degree of
sup-norm R or R - 1 contributes, the rule the library states.
"""

import itertools

from toricsplit.cohomology import reduced_cohomology


def box_scan(fan, a, radius):
    """(h^0..h^n over [-R, R]^n, largest sup-norm of a contributing degree)."""
    hs = [0] * (fan.dim + 1)
    top = -1
    memo = {}
    for m in itertools.product(range(-radius, radius + 1), repeat=fan.dim):
        neg = tuple(j for j, (ray, c) in enumerate(zip(fan.rays, a))
                    if sum(x * y for x, y in zip(m, ray)) < -c)
        if neg not in memo:
            memo[neg] = reduced_cohomology(fan.face_complex, neg)
        dims = memo[neg]
        for i, d in enumerate(dims):
            hs[i] += d
        if any(dims):
            top = max(top, max(abs(x) for x in m))
    return tuple(hs), top


def oracle_cohomology(fan, a):
    """(dims, box) as line_bundle_cohomology reports them."""
    radius = 1 + max(abs(x) for x in a) * max(abs(x) for r in fan.rays for x in r)
    hs, top = box_scan(fan, a, radius)
    while top >= radius - 1:
        radius *= 2
        hs, top = box_scan(fan, a, radius)
    return hs, radius

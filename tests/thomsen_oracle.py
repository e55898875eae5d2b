"""Per-cone Thomsen algorithm, kept as a differential oracle for the tests.

This is the original cone-by-cone computation of the Frobenius summands:
fix a base cone l, divide C_i v + u_loc_i by p componentwise for every
maximal cone i, and read the summand's coefficient on each ray off the
resulting per-cone lattice functional.  Every cone containing a ray must
give the same coefficient; `summand_divisor` checks that gluing.  The
library computes the same summands with one closed-form array expression
(`toricsplit.frobenius.summand_divisors`); the tests compare the two.
"""

import itertools

import numpy as np

from toricsplit.divisor import _coeffs, divisor_class


class InconsistentGluing(RuntimeError):
    """Two cones containing a ray disagree on its summand coefficient."""


class ThomsenContext:
    """Per-cone change-of-basis data for one fan, divisor and base cone.

    A_i has the cone's rays as rows, B_i = A_i^{-1}, C_i = B_i^{-1} B_l =
    A_i B_l, and u_i is the divisor's coefficient vector restricted to the
    cone's rays; u_loc_i = u_i - C_i u_l vanishes for the trivial divisor.
    """

    def __init__(self, fan, divisor, base_cone=0):
        if not 0 <= base_cone < len(fan.max_cones):
            raise ValueError(f"base cone index {base_cone} out of range")
        a = _coeffs(fan, divisor)
        self.fan = fan
        self.divisor = a
        self.base_cone = base_cone
        self.A = fan.cone_matrices
        self.B = fan.cone_inverses
        b_l = self.B[base_cone]
        self.C = tuple(ai @ b_l for ai in self.A)
        u = tuple(np.array([a[j] for j in cone], dtype=object)
                  for cone in fan.max_cones)
        u_l = u[base_cone]
        self.u_loc = tuple(u[i] - self.C[i] @ u_l for i in range(len(u)))


def summand_divisor(ctx, p, v):
    """Coefficients of the summand D_v for one exponent vector v in [0,p)^n.

    For each cone, h = floor((C v + u_loc)/p) and the functional is B h; the
    coefficient on ray j is -<B_k h_k, v_j> for any cone k containing j, and
    the cones are required to agree.
    """
    fan = ctx.fan
    v = np.array([int(x) for x in v], dtype=object)
    betas = [None] * len(fan.rays)
    ray_vecs = fan.ray_matrix
    for i, cone in enumerate(fan.max_cones):
        h = (ctx.C[i] @ v + ctx.u_loc[i]) // p
        functional = ctx.B[i] @ h
        for j in cone:
            beta = -int(np.dot(functional, ray_vecs[j]))
            if betas[j] is None:
                betas[j] = beta
            elif betas[j] != beta:
                raise InconsistentGluing(
                    f"ray {j}: cone {cone} gives {beta}, earlier cones gave {betas[j]}")
    return tuple(betas)


def oracle_summands(fan, divisor, p, base_cone=0):
    """All p^n summands, one per v in itertools.product order."""
    ctx = ThomsenContext(fan, divisor, base_cone)
    return [summand_divisor(ctx, p, v)
            for v in itertools.product(range(p), repeat=fan.dim)]


def oracle_classes(fan, summands):
    """Class -> (multiplicity, first summand of the class), in first-seen order."""
    classes = {}
    for dv in summands:
        c = divisor_class(fan, dv)
        mult, rep = classes.get(c, (0, dv))
        classes[c] = (mult + 1, rep)
    return classes

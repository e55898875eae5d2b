"""Torus-invariant divisors: Cartier data, Picard classes, positivity.

A divisor is a plain tuple of integer coefficients, one per fan ray.  The
class map into Z^rho (rho = #rays - dim) is the cokernel projection of the
principal divisor map m |-> (<m, v_j>)_j, fixed once per fan from the Smith
normal form of the ray matrix.  Class vectors are stable within a process
but depend on the ray order; cross-run comparisons should go through
linearly_equivalent.
"""

from dataclasses import dataclass

import numpy as np

from .fan import _factors, _integers, _per_fan
from .lattice import _exact_matmul, _narrow, as_vector, smith_normal_form, solve_integral


class TorsionDetected(RuntimeError):
    """The divisor class group has torsion: the fan cannot be smooth complete."""


def _coeffs(fan, divisor):
    d = _integers(divisor, "divisor coefficients")
    if len(d) != len(fan.rays):
        raise ValueError(
            f"divisor has {len(d)} coefficients but the fan has {len(fan.rays)} rays")
    return d


def canonical_divisor(fan):
    """K = -(Z_1 + ... + Z_m): every coefficient is -1."""
    return tuple(-1 for _ in fan.rays)


def principal_divisor(fan, m):
    """div(chi^m) = sum <m, v_j> Z_j for a lattice functional m."""
    mv = as_vector(m)
    return tuple(int(x) for x in fan.ray_matrix @ mv)


def _cartier(fan, a):
    """Rows m_sigma = inverse_sigma @ -a_sigma over the stacked cone inverses;
    raises NotUnimodular unless the fan is smooth."""
    rhs = _narrow(-np.array(a, dtype=object))[fan.cone_indices]
    return _exact_matmul(fan.cone_inverses, rhs[:, :, None])[:, :, 0]


def cartier_data(fan, divisor):
    """Per maximal cone, the functional m_sigma with <m_sigma, v_j> = -a_j.

    On a smooth fan every divisor is Cartier and each m_sigma is the unique
    integral solution over the cone's ray basis.
    """
    return tuple(map(tuple, _cartier(fan, _coeffs(fan, divisor)).tolist()))


@_per_fan
def _pic_projection(fan):
    n = fan.dim
    u, s, _ = smith_normal_form(fan.ray_matrix)
    for i in range(n):
        if s[i, i] != 1:
            raise TorsionDetected(
                f"ray matrix has invariant factor {s[i, i]}; "
                "the divisor class group is not free of rank #rays - dim")
    return u[n:]


def picard_rank(fan):
    return len(fan.rays) - fan.dim


def divisor_class(fan, divisor):
    """Image of the divisor in Pic, a length-rho integer vector."""
    a = _coeffs(fan, divisor)
    proj = _pic_projection(fan)
    return tuple(int(x) for x in proj @ np.array(a, dtype=object))


def linearly_equivalent(fan, d1, d2):
    """True when d1 - d2 is the divisor of a character."""
    a = np.array(_coeffs(fan, d1), dtype=object) - np.array(_coeffs(fan, d2), dtype=object)
    return solve_integral(fan.ray_matrix, a) is not None


@dataclass(frozen=True)
class PositivityReport:
    ok: bool
    mode: str
    witness: tuple = None  # (cone index, ray index) violating the inequality

    def __bool__(self):
        return self.ok


def positivity(fan, divisor, mode):
    """Nef/ample test by convexity of the Cartier data.

    ample:  <m_sigma, v_j> > -a_j for every maximal cone and every ray not
    in the cone; nef: the same with >=.  All <m_sigma, v_j> + a_j come from
    one product [m | 1] @ [rays^T ; a]; the witness is the first violating
    pair, cones first.
    """
    if mode not in ("nef", "ample"):
        raise ValueError(f"mode must be 'nef' or 'ample', got {mode!r}")
    a = _coeffs(fan, divisor)
    m = _cartier(fan, a)
    values = _exact_matmul(np.column_stack([m, np.ones(len(m), dtype=np.int64)]),
                           np.vstack([fan.ray_matrix.T, np.array(a, dtype=object)]))
    bad = values <= 0 if mode == "ample" else values < 0
    np.put_along_axis(bad, fan.cone_indices, False, 1)
    hits = np.argwhere(bad)
    if len(hits):
        return PositivityReport(False, mode, tuple(hits[0].tolist()))
    return PositivityReport(True, mode)


def is_fano(fan):
    """Fano means the anticanonical divisor -K is ample.

    It is decided on each coordinate factor (`fan._factors`): -K of a
    product is the exterior product of its factors' -K, and the ample test
    of `positivity` on a product cone and a ray of one factor reads only
    that factor's cone and ray, so a product is Fano exactly when every
    factor is.  On a product that is not smooth, the NotUnimodular raised
    names a factor's cone.
    """
    return all(positivity(factor, (1,) * len(factor.rays), "ample").ok
               for factor, _ in _factors(fan))

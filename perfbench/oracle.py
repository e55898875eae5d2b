"""Reference computations the benchmark checks the program's output against.

Nothing here imports toricsplit.  Ray generators follow the ray order that
the program documents for its variety descriptors; everything else is
derived from the rays alone:

- the Picard class of a divisor is keyed by its normal form against a
  lattice basis of rays (the coefficients left after subtracting the unique
  principal divisor that clears the basis rays);
- the Frobenius summands come from Thomsen's closed form
  D_m = -floor((D + div chi^m) / p) for m in [0, p)^n;
- h^0(O(D)) is the number of lattice points of the section polytope
  {m : <m, v_j> >= -a_j}, and h^n(O(D)) = h^0(O(K - D)) by Serre duality;
- fan counts come from closed forms: 2 * 6^l maximal cones and Poincare
  polynomial (1 + t^2)(1 + 4t^2 + t^4)^l for the tower of dimension
  2l + 1, products multiply, and a smooth complete fan of dimension n
  with c maximal cones has n * c / 2 walls.
"""

import itertools
import re
from collections import Counter

import numpy as np

HEXAGON = ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))
_DESCRIPTOR = re.compile(r"^([A-Za-z]+):?(\d+)$")


def _unit(d, i, sign=1):
    return tuple(sign if j == i else 0 for j in range(d))


def _factor_rays(kind, num):
    if kind == "P":
        return [_unit(num, i) for i in range(num)] + [tuple(-1 for _ in range(num))]
    if kind == "dP":
        drop = {3: (), 2: ((1, -1),), 1: ((1, -1), (-1, 0))}[num]
        return [v for v in HEXAGON if v not in drop]
    if kind == "F":
        return [(1, 0), (0, 1), (-1, num), (0, -1)]
    if kind == "Xd":
        d = num
        rays = [_unit(d, 0)]
        for k in range(1, d):
            rays += [_unit(d, k), _unit(d, k, -1)]
        rays.append(tuple(a - b for a, b in zip(_unit(d, 1), _unit(d, 0))))
        for j in range(1, (d - 1) // 2 + 1):
            w = tuple(a - b for a, b in zip(_unit(d, 2 * j - 1), _unit(d, 2 * j)))
            rays += [w, tuple(-x for x in w)]
        return rays
    raise ValueError(f"no reference data for variety family {kind!r}")


def _factors(descriptor):
    out = []
    for part in descriptor.split("*"):
        m = _DESCRIPTOR.match(part.strip())
        if not m:
            raise ValueError(f"cannot parse descriptor {part!r}")
        out.append((m.group(1), int(m.group(2))))
    return out


def rays_of(descriptor):
    """Ray generators of a (product) descriptor, as an int64 (#rays x n) array."""
    blocks = [_factor_rays(kind, num) for kind, num in _factors(descriptor)]
    dims = [len(b[0]) for b in blocks]
    rows = []
    for k, block in enumerate(blocks):
        before, after = sum(dims[:k]), sum(dims[k + 1:])
        rows += [(0,) * before + tuple(r) + (0,) * after for r in block]
    return np.array(rows, dtype=np.int64)


# ---------------------------------------------------------------------------
# closed-form fan data


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _factor_info(kind, num):
    """(dim, #rays, Poincare polynomial in t, Fano) of one factor."""
    if kind == "P":
        return num, num + 1, [1 if k % 2 == 0 else 0 for k in range(2 * num + 1)], True
    if kind == "dP":
        return 2, 3 + num, [1, 0, 1 + num, 0, 1], True
    if kind == "F":
        return 2, 4, [1, 0, 2, 0, 1], num <= 1
    if kind == "Xd":
        poly = [1, 0, 1]
        for _ in range((num - 1) // 2):
            poly = _poly_mul(poly, [1, 0, 4, 0, 1])
        return num, 3 * num - 1, poly, True
    raise ValueError(f"no reference data for variety family {kind!r}")


def fan_facts(descriptor):
    """Closed-form invariants of a product of the supported factors."""
    dim, nrays, poly, fano = 0, 0, [1], True
    for kind, num in _factors(descriptor):
        d, r, p, f = _factor_info(kind, num)
        dim, nrays, poly, fano = dim + d, nrays + r, _poly_mul(poly, p), fano and f
    cones = sum(poly)  # P(1) counts the maximal cones of a smooth complete fan
    euler = sum(c * (-1) ** k for k, c in enumerate(poly))
    return {"dim": dim, "rays": nrays, "max_cones": cones, "picard_rank": nrays - dim,
            "fano": fano, "euler_characteristic": euler, "walls": dim * cones // 2}


def surface_wall_relations(descriptor):
    """Wall relations of a complete 2-d fan from the cyclic order of its rays.

    Each ray v_j with angular neighbours v_a, v_b satisfies
    v_a + v_b + c_j v_j = 0; returned as (j, u_plus, u_minus, c_j).
    """
    rays = [tuple(int(x) for x in r) for r in rays_of(descriptor)]
    if len(rays[0]) != 2:
        raise ValueError("wall relations are computed here for surfaces only")
    order = sorted(range(len(rays)),
                   key=lambda j: float(np.arctan2(rays[j][1], rays[j][0])))
    out = []
    for pos, j in enumerate(order):
        a, b = order[pos - 1], order[(pos + 1) % len(order)]
        s = (rays[a][0] + rays[b][0], rays[a][1] + rays[b][1])
        # s = -c * v_j; v_j is primitive so the ratio is an integer
        k = 1 if rays[j][0] == 0 else 0
        c = -s[k] // rays[j][k]
        if (s[0] + c * rays[j][0], s[1] + c * rays[j][1]) != (0, 0):
            raise ValueError(f"neighbours of ray {j} do not give a wall relation")
        out.append((j, min(a, b), max(a, b), c))
    return sorted(out)


# ---------------------------------------------------------------------------
# divisors on a fixed ray set


class RayGeometry:
    """Class keys, Thomsen summands and section counts for one ray matrix."""

    def __init__(self, rays):
        self.rays = np.asarray(rays, dtype=np.int64)
        self.nrays, self.dim = self.rays.shape
        self.basis = self._unimodular_basis()
        basis = self.rays[list(self.basis)]
        self.basis_inverse = np.rint(np.linalg.inv(basis.astype(float))).astype(np.int64)
        if not (basis @ self.basis_inverse == np.eye(self.dim, dtype=np.int64)).all():
            raise ValueError("rounding did not give the exact inverse of the ray basis")
        self.directions = self._direction_weights()

    def _unimodular_basis(self):
        for combo in itertools.combinations(range(self.nrays), self.dim):
            det = round(np.linalg.det(self.rays[list(combo)].astype(float)))
            if abs(det) == 1:
                return combo
        raise ValueError("the rays contain no lattice basis")

    def _direction_weights(self):
        """For each of +-e_i, weights lam >= 0 with sum lam_j v_j = +-e_i.

        Any such weights bound the section polytope in direction e_i:
        <m, +-e_i> = sum lam_j <m, v_j> >= -sum lam_j a_j.
        """
        out = []
        for i in range(self.dim):
            for sign in (1, -1):
                target = np.array(_unit(self.dim, i, sign), dtype=float)
                out.append(self._nonnegative_weights(target))
        return np.array(out)

    def _nonnegative_weights(self, target):
        for size in range(1, self.dim + 1):
            for combo in itertools.combinations(range(self.nrays), size):
                sub = self.rays[list(combo)].astype(float)
                lam, *_ = np.linalg.lstsq(sub.T, target, rcond=None)
                if np.abs(sub.T @ lam - target).max() < 1e-9 and lam.min() > -1e-12:
                    full = np.zeros(self.nrays)
                    full[list(combo)] = np.maximum(lam, 0.0)
                    return full
        raise ValueError(f"direction {target} is not in the cone over the rays")

    # -- classes -----------------------------------------------------------

    def normal_forms(self, divisors):
        """Rows: D - div(chi^u) with u chosen so the basis rays get coefficient 0.

        Two divisors are linearly equivalent exactly when their normal forms
        agree, because a character vanishing on a lattice basis is trivial.
        """
        a = np.atleast_2d(np.asarray(divisors, dtype=np.int64))
        u = a[:, list(self.basis)] @ self.basis_inverse.T
        return a - u @ self.rays.T

    def class_key(self, divisor):
        return tuple(int(x) for x in self.normal_forms(divisor)[0])

    # -- Frobenius splitting -----------------------------------------------

    def thomsen_summands(self, divisor, p):
        """All p^n summands D_m = -floor((D + div chi^m)/p), m in [0,p)^n."""
        m = np.array(list(itertools.product(range(p), repeat=self.dim)), dtype=np.int64)
        a = np.asarray(divisor, dtype=np.int64)
        return -np.floor_divide(m @ self.rays.T + a, p)

    def split_classes(self, divisor, p):
        """Counter: normal form of the summand class -> multiplicity."""
        return Counter(map(tuple, self.normal_forms(self.thomsen_summands(divisor, p))
                           .tolist()))

    def c1_holds(self, p):
        """Sum of all summands of F_*O is equivalent to p^(n-1)(p-1)/2 * (-K)."""
        total = self.thomsen_summands(np.zeros(self.nrays, dtype=np.int64), p).sum(axis=0)
        scale = p ** (self.dim - 1) * (p - 1) // 2
        return self.class_key(total) == self.class_key(np.full(self.nrays, scale))

    # -- sections ----------------------------------------------------------

    def polytope_points(self, divisor):
        """Lattice points m with <m, v_j> >= -a_j for every ray, as rows."""
        a = np.asarray(divisor, dtype=np.int64)
        bounds = self.directions @ a.astype(float)
        lo = np.floor(-bounds[0::2] - 1e-9).astype(np.int64)
        hi = np.ceil(bounds[1::2] + 1e-9).astype(np.int64)
        if (hi < lo).any():
            return np.zeros((0, self.dim), dtype=np.int64)
        grids = np.meshgrid(*[np.arange(l, h + 1, dtype=np.int64)
                              for l, h in zip(lo, hi)], indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=1)
        return pts[(pts @ self.rays.T >= -a).all(axis=1)]

    def section_count(self, divisor):
        """h^0(O(D)): the number of lattice points of the section polytope."""
        return len(self.polytope_points(divisor))

    def top_count(self, divisor):
        """h^n(O(D)) = h^0(O(K - D)), K = -(sum of all toric divisors)."""
        return self.section_count(-1 - np.asarray(divisor, dtype=np.int64))

    def certified_not_nef(self, divisor):
        """True when D is provably not nef.

        A nef divisor on a smooth complete toric variety has, for each
        maximal cone, a lattice point of its section polytope on which every
        ray of the cone is tight; so every inequality is attained at a
        lattice point.  An empty polytope, or one with an inequality never
        attained, certifies that D is not nef.
        """
        a = np.asarray(divisor, dtype=np.int64)
        inside = self.polytope_points(a)
        if len(inside) == 0:
            return True
        return bool(((inside @ self.rays.T).min(axis=0) > -a).any())

"""Splitting of Frobenius pushforwards of line bundles into line bundles.

For the degree-p toric self-map (t -> t^p on the torus), the dual of the
pushforward of a line bundle O(D) = O(sum a_j Z_j) splits as a direct sum
of p^n line bundles O(D_v), one per exponent vector v in [0,p)^n.  Thomsen's
description gives every summand in closed form: fix a base cone l with ray
matrix A_l (rays as rows), B_l = A_l^{-1}, and u_l the coefficients of D on
the rays of l; then

    D_v = -floor((D + div chi^m) / p),   m = B_l (v - u_l),

so the coefficient of D_v on ray v_j is -floor((<m, v_j> + a_j) / p).  The
summands come out of one exact object-dtype array expression per block of
_BLOCK exponent vectors, so grouping them by Picard class takes memory
O(_BLOCK * #rays).  At most _MAX_SUMMANDS summands are allowed.

A fan that is the product of fans on disjoint blocks of coordinates
(`fan._coordinate_factors`) is split factor by factor: the pushforward of
an external product is the external product of the pushforwards,
F_*(L x M) = F_*L x F_*M.  Each ray of the base cone lies in one factor, so
a product v joins one exponent vector per factor, each factor's coordinates
in their order inside the base cone, and every summand D_v joins the
factors' summands.  The product's classes are therefore all choices of one
class per factor, multiplicities multiply, and the lexicographically
smallest v of a product class joins the factors' smallest v.  The class
vectors are those of the joined representatives under the product's own
class map; the factors' class vectors are in other bases.  Only the
factors' summands are enumerated, and each factor's split is memoised on
the factor fan, which equal factors share: Xd:9 at p = 4 forms at most
4^3 + 3 * 4^2 rows instead of 4^9.
"""

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .divisor import _coeffs, _pic_projection, linearly_equivalent
from .fan import _coordinate_factors, _integers, _per_fan
from .lattice import _exact_matmul


_BLOCK = 2 ** 14
_MAX_SUMMANDS = 2 ** 24


def _checked(fan, divisor, p, base_cone):
    """(coefficients of the divisor, p, base cone) once the arguments pass
    their checks, the summand count p^n against _MAX_SUMMANDS included."""
    p, base_cone = _integers((p, base_cone), "p and base cone")
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if not 0 <= base_cone < len(fan.max_cones):
        raise ValueError(f"base cone index {base_cone} out of range")
    if p ** fan.dim > _MAX_SUMMANDS:
        raise ValueError(f"p^n = {p}^{fan.dim} summands exceed the limit of "
                         f"2^24 = {_MAX_SUMMANDS}")
    return _coeffs(fan, divisor), p, base_cone


def _summand_blocks(fan, a, p, base_cone):
    """The summands D_v as object-dtype arrays of at most _BLOCK rows each,
    for checked arguments.

    Rows follow the exponent vectors v of itertools.product(range(p),
    repeat=n), i.e. v in lexicographic order.
    """
    a = np.array(a, dtype=object)
    # -D_v = floor((v @ pairing - shift) / p), with m = (v - u_l) @ B_l^T
    pairing = fan.cone_inverses[base_cone].T @ fan.ray_matrix.T
    shift = a[list(fan.max_cones[base_cone])] @ pairing - a
    vectors = itertools.product(range(p), repeat=fan.dim)
    while block := list(itertools.islice(vectors, _BLOCK)):
        yield -((np.array(block, dtype=object) @ pairing - shift) // p)


def summand_divisors(fan, divisor, p, base_cone=0):
    """All p^n summands D_v as the rows of an object-dtype (p^n, #rays) array.

    Row k belongs to the k-th exponent vector v of
    itertools.product(range(p), repeat=n), i.e. v in lexicographic order.
    p is any integer >= 1 with p^n <= _MAX_SUMMANDS; primality plays no
    role in the combinatorics.
    """
    return np.concatenate(list(_summand_blocks(fan, *_checked(fan, divisor, p, base_cone))))


def _grouped(fan, a, p, base_cone):
    """{class: [multiplicity, representative, row]} over all p^n summands in
    one pass over the blocks of rows, in the order of the classes' first
    rows, which give the representatives."""
    projection = _pic_projection(fan).T
    classes, start = {}, 0
    for summands in _summand_blocks(fan, a, p, base_cone):
        class_vectors = summands @ projection
        for row, c, dv in zip(itertools.count(start), map(tuple, class_vectors.tolist()),
                              map(tuple, summands.tolist())):
            if c in classes:
                classes[c][0] += 1
            else:
                classes[c] = [1, dv, row]
        start += len(summands)
    return classes


@_per_fan
def _factor_classes(factor, a, p, base_cone):
    """(multiplicities, representatives, smallest exponent vectors) of the
    classes of one coordinate factor, as arrays in the factor's dict order."""
    mults, reps, rows = zip(*_grouped(factor, a, p, base_cone).values())
    digits = p ** np.arange(factor.dim - 1, -1, -1, dtype=np.int64)
    return (np.array(mults, dtype=np.int64), np.array(reps, dtype=object),
            np.array(rows, dtype=np.int64)[:, None] // digits % p)


def _factored_classes(fan, factors, a, p, base_cone, projection):
    """{class: (multiplicity, representative)} of a product fan, assembled
    from its factors' splittings at the restrictions of the base cone.

    The product classes are the choices of one class per factor, first
    factor slowest; their multiplicities are the outer product of the
    factors', and their representatives and smallest exponent vectors are
    the factors' scattered to the factor's rays and base-cone positions.
    One lexsort of those vectors gives the dict order.
    """
    fan.cone_inverses  # NotUnimodular from the product's own cones, as unfactored
    cone = fan.max_cones[base_cone]
    splits = []
    for factor, group in factors:
        local = {j: i for i, j in enumerate(group)}
        sub = factor.max_cones.index(tuple(local[j] for j in cone if j in local))
        splits.append(_factor_classes(factor, tuple(a[j] for j in group), p, sub))
    factor_mults, factor_reps, factor_vectors = zip(*splits)
    choices = np.indices([len(m) for m in factor_mults]).reshape(len(splits), -1)
    mults = functools.reduce(np.multiply.outer, factor_mults).ravel()
    reps = np.empty((len(mults), len(fan.rays)), dtype=object)
    vectors = np.empty((len(mults), fan.dim), dtype=np.int64)
    for (_, group), rep, vector, choice in zip(factors, factor_reps, factor_vectors, choices):
        reps[:, group] = rep[choice]
        vectors[:, np.isin(cone, group)] = vector[choice]
    # np.lexsort takes the last key as primary
    order = np.lexsort(vectors.T[::-1])
    reps = reps[order]
    class_vectors = _exact_matmul(reps, projection)
    return dict(zip(map(tuple, class_vectors.tolist()),
                    zip(mults[order].tolist(), map(tuple, reps.tolist()))))


@dataclass
class SplittingResult:
    """Splitting of the dual pushforward, grouped by divisor class.

    classes maps each class vector to (multiplicity, representative divisor);
    the representative comes from the lexicographically smallest exponent
    vector attaining the class.
    """
    fan: object
    divisor: tuple
    p: int
    base_cone: int
    classes: dict

    @property
    def class_count(self):
        return len(self.classes)

    @property
    def total_multiplicity(self):
        return sum(mult for mult, _ in self.classes.values())

    def sorted_items(self):
        """(class, multiplicity, representative) sorted by representative."""
        return sorted(((c, m, rep) for c, (m, rep) in self.classes.items()),
                      key=lambda item: item[2])


def thomsen_split(fan, divisor, p, base_cone=0):
    """All p^n summands grouped by Picard class.

    p is any integer >= 1 with p^n <= _MAX_SUMMANDS, checked before any
    summand is formed.  The classes are in the order of their
    lexicographically smallest exponent vectors, whose summands are their
    representatives.  A fan that is no product has its rows grouped in one
    pass; a product is split factor by factor (see the module docstring).
    """
    projection = _pic_projection(fan).T
    a, p, base_cone = _checked(fan, divisor, p, base_cone)
    factors = _coordinate_factors(fan)
    if factors is None:
        classes = {c: (m, rep) for c, (m, rep, _) in _grouped(fan, a, p, base_cone).items()}
    else:
        classes = _factored_classes(fan, factors, a, p, base_cone, projection)
    return SplittingResult(fan, a, p, base_cone, classes)


@dataclass(frozen=True)
class SplittingReport:
    multiplicity_ok: bool
    c1_ok: bool
    base_cone_ok: bool
    messages: tuple = ()

    @property
    def ok(self):
        return self.multiplicity_ok and self.c1_ok and self.base_cone_ok


def verify_splitting_invariants(result):
    """Structural checks for a splitting of the trivial bundle.

    (a) multiplicities sum to p^n; (b) the sum of all summands is linearly
    equivalent to -(p^(n-1) (p-1) / 2) K, checked as 2 sum D_v ~
    -p^(n-1) (p-1) K; (c) a rerun from a different base cone yields the
    identical class-to-multiplicity association.
    """
    fan = result.fan
    if any(result.divisor):
        raise ValueError("splitting invariants are stated for the trivial divisor")
    n = fan.dim
    p = result.p
    messages = []

    expected = p ** n
    mult_ok = result.total_multiplicity == expected
    if not mult_ok:
        messages.append(
            f"multiplicities sum to {result.total_multiplicity}, expected {expected}")

    # first Chern class: compare class vectors, which is linear equivalence.
    # Doubled, 2 sum D_v ~ p^(n-1) (p-1) (-K) needs no halving of an odd
    # p^(n-1) (p-1), and as Pic of a smooth complete fan is free it is the
    # same identity.
    mults = np.array([mult for mult, _ in result.classes.values()], dtype=object)
    reps = np.array([rep for _, rep in result.classes.values()], dtype=object)
    total = mults @ reps.reshape(len(mults), len(fan.rays))
    target = tuple(p ** (n - 1) * (p - 1) for _ in fan.rays)  # -2 scale * K
    c1_ok = linearly_equivalent(fan, tuple(2 * int(x) for x in total), target)
    if not c1_ok:
        messages.append("sum of summands is not equivalent to -(p^(n-1)(p-1)/2) K")

    other = (result.base_cone + 1) % len(fan.max_cones)
    rerun = thomsen_split(fan, result.divisor, p, base_cone=other)
    base_ok = ({c: m for c, (m, _) in result.classes.items()} ==
               {c: m for c, (m, _) in rerun.classes.items()})
    if not base_ok:
        messages.append(f"class multiset differs when computed from base cone {other}")

    return SplittingReport(mult_ok, c1_ok, base_ok, tuple(messages))


def stabilization_check(fan, divisor, ps):
    """True when the class sets of the splitting agree for all listed p."""
    ps = list(ps)
    if not ps:
        raise ValueError("need at least one value of p")
    sets = [frozenset(thomsen_split(fan, divisor, p).classes) for p in ps]
    return all(s == sets[0] for s in sets[1:])

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
O(_BLOCK * #rays).  At most _MAX_SUMMANDS summands are enumerated.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .divisor import _coeffs, _pic_projection, linearly_equivalent


_BLOCK = 2 ** 14
_MAX_SUMMANDS = 2 ** 24


def _summand_blocks(fan, divisor, p, base_cone):
    """The summands D_v as object-dtype arrays of at most _BLOCK rows each.

    Rows follow the exponent vectors v of itertools.product(range(p),
    repeat=n), i.e. v in lexicographic order.  The arguments are checked,
    the summand count p^n against _MAX_SUMMANDS included, before the first
    block is made.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if not 0 <= base_cone < len(fan.max_cones):
        raise ValueError(f"base cone index {base_cone} out of range")
    if p ** fan.dim > _MAX_SUMMANDS:
        raise ValueError(f"p^n = {p}^{fan.dim} summands exceed the limit of "
                         f"2^24 = {_MAX_SUMMANDS}")
    a = np.array(_coeffs(fan, divisor), dtype=object)
    # -D_v = floor((v @ pairing - shift) / p), with m = (v - u_l) @ B_l^T
    pairing = fan.cone_inverses[base_cone].T @ fan.ray_matrix.T
    shift = a[list(fan.max_cones[base_cone])] @ pairing - a
    vectors = itertools.product(range(p), repeat=fan.dim)

    def blocks():
        while block := list(itertools.islice(vectors, _BLOCK)):
            yield -((np.array(block, dtype=object) @ pairing - shift) // p)

    return blocks()


def summand_divisors(fan, divisor, p, base_cone=0):
    """All p^n summands D_v as the rows of an object-dtype (p^n, #rays) array.

    Row k belongs to the k-th exponent vector v of
    itertools.product(range(p), repeat=n), i.e. v in lexicographic order.
    p is any integer >= 1 with p^n <= _MAX_SUMMANDS; primality plays no
    role in the combinatorics.
    """
    return np.concatenate(list(_summand_blocks(fan, divisor, p, base_cone)))


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
    """All p^n summands grouped by Picard class, in one pass over the rows.

    p is any integer >= 1 with p^n <= _MAX_SUMMANDS; the first row of each
    class is its representative.
    """
    projection = _pic_projection(fan).T
    classes = {}
    for summands in _summand_blocks(fan, divisor, p, base_cone):
        class_vectors = summands @ projection
        for c, dv in zip(map(tuple, class_vectors.tolist()), map(tuple, summands.tolist())):
            if c in classes:
                classes[c][0] += 1
            else:
                classes[c] = [1, dv]
    return SplittingResult(fan, _coeffs(fan, divisor), p, base_cone,
                           {c: (m, rep) for c, (m, rep) in classes.items()})


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
    equivalent to -(p^(n-1) (p-1) / 2) K; (c) a rerun from a different base
    cone yields the identical class-to-multiplicity association.
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

    # first Chern class: compare class vectors, which is linear equivalence
    scale = p ** (n - 1) * (p - 1) // 2 if n >= 1 else 0
    total = np.zeros(len(fan.rays), dtype=object)
    for c, (mult, rep) in result.classes.items():
        total = total + mult * np.array(rep, dtype=object)
    target = tuple(scale for _ in fan.rays)  # -scale * K
    c1_ok = linearly_equivalent(fan, tuple(int(x) for x in total), target)
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

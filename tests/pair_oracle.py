"""The pair loop of the collection checks, kept as a differential oracle.

The library reads both collection checks from one Ext matrix
(`toricsplit.cohomology.ext_table`).  This module keeps the earlier
formulation: one generator walks the pairs j < k in
`itertools.combinations` order and asks for the two tables of each pair,
and each check builds its own structure-sheaf table.  `is_strongly_exceptional`
and `find_strong_order` here are that code, unchanged; the tests compare
their results with the library's.
"""

import heapq
import itertools

from toricsplit.cohomology import (
    ExceptionalityReport,
    NotExceptionalMember,
    StrongOrderResult,
    line_bundle_cohomology,
)
from toricsplit.divisor import _coeffs, divisor_class


def _difference(d1, d2):
    return tuple(x - y for x, y in zip(d1, d2))


def _pair_tables(fan, bundles):
    """(j, k, H^*(d_j - d_k), H^*(d_k - d_j)) for each pair j < k, in
    `itertools.combinations` order.  The tables come through the public
    `line_bundle_cohomology`, so perfbench's trace counts every one."""
    for j, k in itertools.combinations(range(len(bundles)), 2):
        yield (j, k, line_bundle_cohomology(fan, _difference(bundles[j], bundles[k])),
               line_bundle_cohomology(fan, _difference(bundles[k], bundles[j])))


def is_strongly_exceptional(fan, collection):
    """Check the strong exceptionality of an ordered collection.

    Requires: every member exceptional (automatic for line bundles on a
    valid fan), no Homs or Exts from later to earlier members, and no higher
    Exts forward.
    """
    bundles = [_coeffs(fan, d) for d in collection]
    if not bundles:
        raise ValueError("collection must be nonempty")
    violations = []
    o_table = line_bundle_cohomology(fan, tuple(0 for _ in fan.rays))
    if o_table.dims[0] != 1 or not o_table.higher_vanish():
        violations.append(("structure-sheaf", None, None, o_table.dims))
    for j, k, backward, forward in _pair_tables(fan, bundles):
        if any(backward.dims):
            violations.append(("backward", j, k, backward.dims))
        if not forward.higher_vanish():
            violations.append(("forward-higher", j, k, forward.dims))
    return ExceptionalityReport(not violations, tuple(violations))


def find_strong_order(fan, bundles):
    """Order a set of line bundles into a strongly exceptional collection.

    Orientation "j before k" is admissible when H^*(d_j - d_k) vanishes
    entirely and H^{>=1}(d_k - d_j) vanishes.  Pairs with a single admissible
    orientation force an edge; a topological sort with lexicographic
    tie-break produces the order, or the obstructing pair/cycle is reported.
    """
    bundles = [_coeffs(fan, d) for d in bundles]
    if not bundles:
        raise ValueError("need at least one bundle")
    classes = [divisor_class(fan, d) for d in bundles]
    if len(set(classes)) != len(classes):
        raise ValueError("bundles must be pairwise non-equivalent")
    o_table = line_bundle_cohomology(fan, tuple(0 for _ in fan.rays))
    if not o_table.higher_vanish():
        raise NotExceptionalMember(
            f"structure sheaf has higher cohomology {o_table.dims}")

    m = len(bundles)
    successors = [[] for _ in range(m)]
    indegree = [0] * m
    edges = set()
    for j, k, t_jk, t_kj in _pair_tables(fan, bundles):
        j_first = not any(t_jk.dims) and t_kj.higher_vanish()
        k_first = not any(t_kj.dims) and t_jk.higher_vanish()
        if not j_first and not k_first:
            return StrongOrderResult(False, (),
                                     ("pair", j, k, t_jk.dims, t_kj.dims))
        if j_first and not k_first:
            edges.add((j, k))
        elif k_first and not j_first:
            edges.add((k, j))
    for a, b in edges:
        successors[a].append(b)
        indegree[b] += 1

    ready = [i for i in range(m) if indegree[i] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        i = heapq.heappop(ready)
        order.append(i)
        for nxt in successors[i]:
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                heapq.heappush(ready, nxt)
    if len(order) != m:
        stuck = tuple(i for i in range(m) if indegree[i] > 0)
        return StrongOrderResult(False, (), ("cycle", stuck))
    return StrongOrderResult(True, tuple(bundles[i] for i in order), None)

"""Seeded inputs and the fixed operation list of each workload.

A workload is a list of CLI invocations (one pass).  Its sizes are the
constants below; the seed only draws the random divisors of `split`, moves
the non-nef twists by symmetries of the fan, shuffles bundle and operation
orders and picks product factor orders, so the work a pass does barely
depends on it.  Every file the program reads is written under the
work directory, together with `ops.json`, the pass itself.
"""

import json
import os
import random
from dataclasses import asdict, dataclass, field

import numpy as np

import oracle

WORKLOADS = ("split", "order", "twists", "build")

# (descriptor, p): default `frobenius split`, which re-splits at p and p+2
SPLIT_DEFAULT = (("Xd:3", 3), ("Xd:3", 4), ("dP:3*dP:3", 3), ("Xd:5", 3))
# (descriptor, p): `frobenius verify` of O
SPLIT_VERIFY = (("Xd:3", 5), ("dP:3*dP:3", 4), ("Xd:5", 3))
# (descriptor, p): seeded divisor, `--no-stabilization-check`
SPLIT_SEEDED = (("Xd:3", 5), ("dP:3*dP:3", 5), ("Xd:5", 4), ("Xd:7", 2), ("Xd:7", 2))
SPLIT_COEFFS = 3

# (descriptor, p): the classes of F_*O at p form the collection to order
ORDER_SETS = (("Xd:3", 5), ("dP:3*dP:3", 3), ("Xd:5", 4))
# O, O(Z4+Z5), O(Z2+Z3), O(Z3+Z4), O(Z3+Z4+Z5), O(Z2+Z3+Z4) on dP3, rays
# numbered from 0 in the order (1,0), (0,1), (-1,1), (-1,0), (0,-1), (1,-1): a
# strongly exceptional order of its six Frobenius summands; the test suite
# checks it with Riemann-Roch.  Its square orders the summands of dP3 x dP3.
DP3_ORDER = ((0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 1, 1), (0, 0, 1, 1, 0, 0),
             (0, 0, 0, 1, 1, 0), (0, 0, 0, 1, 1, 1), (0, 0, 1, 1, 1, 0))

# (descriptor, k): the ample twist -k K
TWISTS_ANTICANONICAL = (("Xd:5", 1), ("Xd:5", 2), ("Xd:5", 3), ("dP:3*dP:3", 3),
                        ("dP:3*dP:3", 4), ("P:1*dP:3*dP:3", 2), ("P:1*dP:3*dP:3", 3))
# Non-nef divisors on Xd:5 with coefficients in [-3, 3], drawn once with
# random.Random("twists:fixed").  Each table takes 1.5-2 s and ends at degree
# box radius 8, but a draw of this kind can reach radius 16, where one table
# takes 25 s and 4.8 GB (see CHANGES.md).  So that a pass does the same work
# for every seed, the run's seed only moves these four by symmetries of the fan.
TWISTS_NONNEF = ((-2, 1, 3, -1, 2, 0, 3, 1, -3, -1, 2, -3, 1, 0),
                 (0, -2, -1, 2, -2, 0, 3, -3, 3, 3, 0, -1, 1, -3),
                 (0, 2, 2, -2, 0, 2, 0, -2, 1, 2, 3, -1, 2, 1),
                 (0, 3, 1, 1, -1, 2, -3, 1, 3, 3, -2, -2, -2, -2))
# Signed permutations (perm, signs) of the coordinates that map the fan of
# Xd:5 to itself: swapping and negating the last two.  They keep the sup-norm,
# so the program scans as many degrees for a divisor as for its image.
XD5_SYMMETRIES = (((0, 1, 2, 3, 4), (1, 1, 1, 1, 1)), ((0, 1, 2, 3, 4), (1, 1, 1, -1, -1)),
                  ((0, 1, 2, 4, 3), (1, 1, 1, 1, 1)), ((0, 1, 2, 4, 3), (1, 1, 1, -1, -1)))

BUILD_TOWERS = ("Xd:3", "Xd:5", "Xd:7", "Xd:9")
BUILD_PRODUCTS = (("dP:3", "dP:3"), ("dP:3", "dP:3", "dP:3"), ("P:1", "dP:3", "dP:3"))
BUILD_FAILING = "F:2"   # Bondal's criterion fails with coefficient -2


@dataclass
class Op:
    """One CLI invocation, what it should return, and what to check."""
    argv: list
    kind: str
    expect_status: int
    items: int
    params: dict = field(default_factory=dict)


class _Writer:
    def __init__(self, workdir):
        self.workdir = workdir
        self.count = 0

    def write(self, stem, payload):
        self.count += 1
        path = os.path.join(self.workdir, f"{self.count:02d}-{stem}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        return path


def _dim(descriptor):
    return oracle.fan_facts(descriptor)["dim"]


def _nrays(descriptor):
    return oracle.fan_facts(descriptor)["rays"]


def _summand_classes(descriptor, p):
    """One representative per class of F_*O, the summand of smallest m."""
    geo = oracle.RayGeometry(oracle.rays_of(descriptor))
    summands = geo.thomsen_summands(np.zeros(geo.nrays, dtype=np.int64), p)
    keys = geo.normal_forms(summands)
    seen, reps = set(), []
    for key, row in zip(map(tuple, keys.tolist()), summands.tolist()):
        if key not in seen:
            seen.add(key)
            reps.append([int(x) for x in row])
    return reps


def _probe(writer, rng):
    """Seven small P:2 operations that touch every layer of the program.

    They run at the start of every pass of every workload, so that each
    per-layer time is measured on every workload; they carry no items.
    """
    bundles = [[0, 0, 0], [1, 0, 0], [2, 0, 0]]
    shuffled = bundles[:]
    rng.shuffle(shuffled)
    order_in = writer.write("probe-collection", {"bundles": shuffled})
    verify_in = writer.write("probe-order", {"bundles": bundles})
    twist = writer.write("probe-divisor", {"coeffs": [2, 0, 0]})
    return [
        Op(["variety", "info", "P:2"], "info", 0, 0, {"descriptor": "P:2"}),
        Op(["bondal", "check", "--variety", "P:2"], "bondal", 0, 0, {"descriptor": "P:2"}),
        Op(["frobenius", "split", "--variety", "P:2", "--p", "3"], "split", 0, 0,
           {"descriptor": "P:2", "p": 3, "divisor": [0, 0, 0]}),
        Op(["frobenius", "verify", "--variety", "P:2", "--p", "2"], "fverify", 0, 0,
           {"descriptor": "P:2", "p": 2}),
        Op(["cohomology", "compute", "--variety", "P:2", "--divisor", twist], "twist", 0, 0,
           {"descriptor": "P:2", "divisor": [2, 0, 0], "nef": True}),
        Op(["collection", "order", "--variety", "P:2", "--collection", order_in], "order",
           0, 0, {"descriptor": "P:2", "bundles": shuffled, "sample": 3,
                  "sample_seed": rng.randrange(2 ** 32)}),
        Op(["collection", "verify", "--variety", "P:2", "--collection", verify_in],
           "cverify", 0, 0, {"descriptor": "P:2", "bundles": bundles, "sample": 3,
                             "sample_seed": rng.randrange(2 ** 32)}),
    ]


def _split_ops(writer, rng):
    ops = []
    for descriptor, p in SPLIT_DEFAULT:
        ops.append(Op(["frobenius", "split", "--variety", descriptor, "--p", str(p)],
                      "split", 0, p ** _dim(descriptor),
                      {"descriptor": descriptor, "p": p, "divisor": [0] * _nrays(descriptor)}))
    for descriptor, p in SPLIT_VERIFY:
        ops.append(Op(["frobenius", "verify", "--variety", descriptor, "--p", str(p)],
                      "fverify", 0, p ** _dim(descriptor), {"descriptor": descriptor, "p": p}))
    for descriptor, p in SPLIT_SEEDED:
        coeffs = [rng.randint(-SPLIT_COEFFS, SPLIT_COEFFS) for _ in range(_nrays(descriptor))]
        path = writer.write("divisor", {"coeffs": coeffs})
        ops.append(Op(["frobenius", "split", "--variety", descriptor, "--p", str(p),
                       "--divisor", path, "--no-stabilization-check"],
                      "split", 0, p ** _dim(descriptor),
                      {"descriptor": descriptor, "p": p, "divisor": coeffs}))
    return ops


def _pairs(m):
    return m * (m - 1) // 2


def _order_ops(writer, rng):
    ops = []
    for descriptor, p in ORDER_SETS:
        bundles = _summand_classes(descriptor, p)
        rng.shuffle(bundles)
        path = writer.write("collection", {"bundles": bundles})
        ops.append(Op(["collection", "order", "--variety", descriptor, "--collection", path],
                      "order", 0, _pairs(len(bundles)),
                      {"descriptor": descriptor, "bundles": bundles, "sample": 40,
                       "sample_seed": rng.randrange(2 ** 32)}))
    # either lexicographic order of the box product is strongly exceptional
    outer, inner = (0, 1) if rng.random() < 0.5 else (1, 0)
    product = []
    for a in DP3_ORDER:
        for b in DP3_ORDER:
            pair = (a, b)
            product.append(list(pair[outer]) + list(pair[inner]))
    path = writer.write("strong-order", {"bundles": product})
    ops.append(Op(["collection", "verify", "--variety", "dP:3*dP:3", "--collection", path],
                  "cverify", 0, _pairs(len(product)),
                  {"descriptor": "dP:3*dP:3", "bundles": product, "sample": 40,
                   "sample_seed": rng.randrange(2 ** 32)}))
    return ops


def _twist_ops(writer, rng):
    ops = []
    for descriptor, k in TWISTS_ANTICANONICAL:
        coeffs = [k] * _nrays(descriptor)
        path = writer.write("divisor", {"coeffs": coeffs})
        ops.append(Op(["cohomology", "compute", "--variety", descriptor, "--divisor", path],
                      "twist", 0, 1, {"descriptor": descriptor, "divisor": coeffs, "nef": True}))
    geo = oracle.RayGeometry(oracle.rays_of("Xd:5"))
    for divisor in TWISTS_NONNEF:
        coeffs = _transport(divisor, *rng.choice(XD5_SYMMETRIES), geo.rays)
        if not geo.certified_not_nef(coeffs):
            raise ValueError(f"twist {coeffs} is not certified non-nef")
        path = writer.write("divisor", {"coeffs": coeffs})
        ops.append(Op(["cohomology", "compute", "--variety", "Xd:5", "--divisor", path],
                      "twist", 0, 1, {"descriptor": "Xd:5", "divisor": coeffs,
                                      "nef": False}))
    return ops


def _transport(coeffs, perm, signs, rays):
    """Coefficients of the image of sum a_j D_j under a signed permutation of
    the coordinates; a KeyError means it does not map the rays to rays."""
    rows = [tuple(r) for r in rays.tolist()]
    index = {row: j for j, row in enumerate(rows)}
    out = [0] * len(rows)
    for a, row in zip(coeffs, rows):
        out[index[tuple(signs[i] * row[perm[i]] for i in range(len(row)))]] = a
    return out


def _build_ops(writer, rng):
    descriptors = list(BUILD_TOWERS)
    for factors in BUILD_PRODUCTS:
        factors = list(factors)
        rng.shuffle(factors)
        descriptors.append("*".join(factors))
    descriptors.append(BUILD_FAILING)
    ops = []
    for descriptor in descriptors:
        cones = oracle.fan_facts(descriptor)["max_cones"]
        ops.append(Op(["variety", "info", descriptor], "info", 0, cones,
                      {"descriptor": descriptor}))
        failing = descriptor == BUILD_FAILING
        ops.append(Op(["bondal", "check", "--variety", descriptor], "bondal",
                      1 if failing else 0, cones, {"descriptor": descriptor}))
    rng.shuffle(ops)
    return ops


_OPERATIONS = {"split": _split_ops, "order": _order_ops, "twists": _twist_ops,
             "build": _build_ops}


def generate(workload, seed, workdir):
    """Write the workload's inputs under workdir and return its pass."""
    if workload not in _OPERATIONS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    os.makedirs(workdir, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    writer = _Writer(workdir)
    ops = _probe(writer, rng) + _OPERATIONS[workload](writer, rng)
    with open(os.path.join(workdir, "ops.json"), "w", encoding="utf-8") as handle:
        json.dump([asdict(op) for op in ops], handle, indent=1)
    return ops

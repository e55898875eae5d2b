"""Checks of each CLI report against the reference computations in oracle.py.

`Checker.check(op, status, stdout)` returns a list of problems; an empty
list means the output is right.  The verdict for a given (operation, exit
status, stdout) is cached, so repeated passes that print the same bytes are
not checked twice.
"""

import hashlib
import json
import random
from dataclasses import asdict

import numpy as np

import oracle


class Checker:
    def __init__(self):
        self._geometry = {}
        self._verdicts = {}

    def geometry(self, descriptor):
        if descriptor not in self._geometry:
            self._geometry[descriptor] = oracle.RayGeometry(oracle.rays_of(descriptor))
        return self._geometry[descriptor]

    def check(self, op, status, stdout):
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        key = (json.dumps(asdict(op), sort_keys=True), status, digest)
        if key not in self._verdicts:
            self._verdicts[key] = self._check(op, status, stdout)
        return self._verdicts[key]

    def _check(self, op, status, stdout):
        if status != op.expect_status:
            return [f"exit status {status}, expected {op.expect_status}"]
        try:
            report = json.loads(stdout)
            result = report["result"]
        except (ValueError, KeyError, TypeError) as exc:
            return [f"unreadable report: {exc}"]
        if report.get("exit_status") != status:
            return [f"report says exit status {report.get('exit_status')}, process gave {status}"]
        try:
            return getattr(self, "_" + op.kind)(op.params, result)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            return [f"malformed {op.kind} result: {exc!r}"]

    # -- frobenius -----------------------------------------------------------

    def _split(self, params, result):
        geo = self.geometry(params["descriptor"])
        p = params["p"]
        problems = []
        if result["p"] != p or result["n"] != geo.dim:
            problems.append(f"p, n = {result['p']}, {result['n']}; expected {p}, {geo.dim}")
        classes = result["classes"]
        reps = [tuple(c["representative"]) for c in classes]
        if reps != sorted(reps):
            problems.append("classes are not sorted by representative")
        if len({tuple(c["class"]) for c in classes}) != len(classes):
            problems.append("two classes share a class vector")
        got = {}
        for c in classes:
            key = geo.class_key(c["representative"])
            if key in got:
                problems.append(f"representatives of two classes are equivalent: {key}")
            got[key] = c["multiplicity"]
        expected = dict(geo.split_classes(params["divisor"], p))
        if got != expected:
            missing = len(set(expected) - set(got))
            extra = len(set(got) - set(expected))
            wrong = sum(1 for k in set(got) & set(expected) if got[k] != expected[k])
            problems.append(f"class multiset differs from Thomsen's closed form: "
                            f"{missing} missing, {extra} extra, {wrong} wrong multiplicities")
        return problems

    def _fverify(self, params, result):
        geo = self.geometry(params["descriptor"])
        expected = {"multiplicity_ok": True,
                    "c1_ok": geo.c1_holds(params["p"]),
                    "base_cone_ok": True, "messages": []}
        got = {k: result[k] for k in expected}
        return [] if got == expected else [f"verify report {got}, expected {expected}"]

    # -- cohomology ----------------------------------------------------------

    def _twist(self, params, result):
        geo = self.geometry(params["descriptor"])
        dims = result["dims"]
        n = geo.dim
        if len(dims) != n + 1 or any(not isinstance(h, int) or h < 0 for h in dims):
            return [f"dims {dims} is not n + 1 = {n + 1} non-negative integers"]
        problems = []
        h0 = geo.section_count(params["divisor"])
        hn = geo.top_count(params["divisor"])
        if dims[0] != h0:
            problems.append(f"h^0 = {dims[0]}, section polytope has {h0} lattice points")
        if dims[n] != hn:
            problems.append(f"h^{n} = {dims[n]}, h^0(K - D) = {hn}")
        if params["nef"] and any(dims[1:]):
            problems.append(f"higher cohomology {dims[1:]} of a nef divisor")
        return problems

    def _backward_sample(self, params, ordered):
        """Seeded pairs j < k of an ordered collection with H^0 or H^n of
        O(d_j - d_k) nonzero; a strongly exceptional order has none."""
        geo = self.geometry(params["descriptor"])
        pairs = [(j, k) for j in range(len(ordered)) for k in range(j + 1, len(ordered))]
        rng = random.Random(params["sample_seed"])
        sample = rng.sample(pairs, min(params["sample"], len(pairs)))
        problems = []
        for j, k in sample:
            diff = np.asarray(ordered[j], dtype=np.int64) - np.asarray(ordered[k], dtype=np.int64)
            h0, hn = geo.section_count(diff), geo.top_count(diff)
            if h0 or hn:
                problems.append(f"bundles {j} < {k}: backward h^0 = {h0}, h^n = {hn}")
        return problems

    def _order(self, params, result):
        if result.get("ok") is not True:
            return [f"no order found: {result.get('witness')}"]
        order = [tuple(b) for b in result["order"]]
        problems = []
        if sorted(order) != sorted(tuple(b) for b in params["bundles"]):
            problems.append("the order is not a permutation of the input bundles")
        cones = oracle.fan_facts(params["descriptor"])["max_cones"]
        if len(order) != cones:
            problems.append(f"order has {len(order)} bundles, the variety has {cones} "
                            f"maximal cones")
        return problems + self._backward_sample(params, order)

    def _cverify(self, params, result):
        problems = []
        if result["pass"] is not True or result["violations"]:
            problems.append(f"strongly exceptional input rejected: "
                            f"{result['violations'][:3]}")
        return problems + self._backward_sample(params, params["bundles"])

    # -- fans and walls -----------------------------------------------------

    def _info(self, params, result):
        facts = oracle.fan_facts(params["descriptor"])
        expected = {k: facts[k] for k in ("dim", "rays", "max_cones", "picard_rank", "fano",
                                          "euler_characteristic")}
        expected["descriptor"] = params["descriptor"]
        got = {k: result[k] for k in expected}
        return [] if got == expected else [f"variety info {got}, expected {expected}"]

    def _bondal(self, params, result):
        facts = oracle.fan_facts(params["descriptor"])
        if facts["dim"] == 2:
            violations = [{"rays": [j], "u_plus": a, "u_minus": b, "coeffs": [c]}
                          for j, a, b, c in oracle.surface_wall_relations(params["descriptor"])
                          if c < -1]
        else:
            # the towers and the del Pezzo products satisfy the criterion
            violations = []
        expected = {"pass": not violations, "walls": facts["walls"], "violations": violations}
        got = {k: result[k] for k in expected}
        return [] if got == expected else [f"bondal report {got}, expected {expected}"]

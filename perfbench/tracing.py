"""Spans around the public functions of the program's modules.

`Tracer.install()` replaces every public function of the layer modules, in
every layer module namespace that refers to it, by a wrapper that records a
span: name, parent span, CLI operation, start and end.  Spans are kept in
memory, turned into per-layer metrics, and written out once at the end.
Nothing is wrapped unless a traced run asks for it.
"""

import functools
import importlib
import inspect
import json
import time

LAYERS = ("cli", "fan", "lattice", "divisor", "frobenius", "bondal", "cohomology")

# metric name -> (kind, qualified function name); kind "s" sums the time of
# the outermost spans of the function, "calls" counts every call
_FUNCTION_METRICS = {
    "frobenius.split_s": ("s", "frobenius.thomsen_split"),
    "frobenius.split_calls": ("calls", "frobenius.thomsen_split"),
    "frobenius.summand_s": ("s", "frobenius.summand_divisor"),
    "frobenius.stabilization_s": ("s", "frobenius.stabilization_check"),
    "frobenius.verify_s": ("s", "frobenius.verify_splitting_invariants"),
    "divisor.class_s": ("s", "divisor.divisor_class"),
    "divisor.class_calls": ("calls", "divisor.divisor_class"),
    "divisor.positivity_s": ("s", "divisor.positivity"),
    "cohomology.table_s": ("s", "cohomology.line_bundle_cohomology"),
    "cohomology.table_calls": ("calls", "cohomology.line_bundle_cohomology"),
    "cohomology.order_s": ("s", "cohomology.find_strong_order"),
    "cohomology.verify_s": ("s", "cohomology.is_strongly_exceptional"),
    "lattice.rank_s": ("s", "lattice.rank"),
    "lattice.rank_calls": ("calls", "lattice.rank"),
    "lattice.determinant_s": ("s", "lattice.determinant"),
    "lattice.determinant_calls": ("calls", "lattice.determinant"),
    "lattice.inverse_s": ("s", "lattice.unimodular_inverse"),
    "lattice.snf_s": ("s", "lattice.smith_normal_form"),
    "fan.build_s": ("s", "fan.build_named"),
    "fan.cones_s": ("s", "fan.maximal_cones_from_primitive_pairs"),
    "fan.validate_s": ("s", "fan.validate"),
    "fan.walls_s": ("s", "fan.walls"),
    "fan.poincare_s": ("s", "fan.poincare_polynomial"),
    "bondal.criterion_s": ("s", "bondal.bondal_criterion"),
    "bondal.relation_s": ("s", "bondal.wall_relation"),
    "bondal.relations": ("calls", "bondal.wall_relation"),
    "cli.calls": ("calls", "cli.main"),
}
# counts taken from arguments and results rather than from span times
_COUNTED = ("frobenius.summands", "cohomology.tables_distinct", "cohomology.points_scanned")
METRICS = tuple(_FUNCTION_METRICS) + _COUNTED + ("cli.self_s",)


class Tracer:
    """Records spans for one traced run; see the module docstring."""

    def __init__(self):
        self.names = []
        self.spans = []          # (name index, parent, op, pass, start, end, nested)
        self.counts = []         # per pass: counter name -> value
        self._stack = []
        self._active = []
        self._saved = []
        self._tables_seen = set()
        self.op = -1
        self.pass_index = -1

    # -- recording -----------------------------------------------------------

    def start_pass(self):
        self.pass_index += 1
        self.counts.append(dict.fromkeys(_COUNTED, 0))

    def _wrap(self, qualified, fn):
        index = len(self.names)
        self.names.append(qualified)
        self._active.append(0)
        hook = {"frobenius.thomsen_split": self._count_summands,
                "cohomology.line_bundle_cohomology": self._count_table}.get(qualified)
        spans, stack, active = self.spans, self._stack, self._active
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            slot = len(spans)
            spans.append(None)
            stack.append(slot)
            nested = active[index] > 0
            active[index] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                active[index] -= 1
                stack.pop()
                spans[slot] = (index, parent, self.op, self.pass_index, start, end, nested)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def _count_summands(self, args, kwargs, result):
        fan, p = args[0], (args[2] if len(args) > 2 else kwargs["p"])
        self.counts[-1]["frobenius.summands"] += p ** fan.dim

    def _count_table(self, args, kwargs, result):
        # one CLI operation builds its fans afresh, so a table is distinct
        # per (pass, operation, divisor, box settings)
        fan, divisor = args[0], tuple(int(x) for x in args[1])
        key = (self.pass_index, self.op, divisor, args[2:], tuple(sorted(kwargs.items())))
        if key in self._tables_seen:
            return
        self._tables_seen.add(key)
        counts = self.counts[-1]
        counts["cohomology.tables_distinct"] += 1
        counts["cohomology.points_scanned"] += max(0, 2 * result.box + 1) ** fan.dim

    # -- installing ----------------------------------------------------------

    def install(self):
        modules = [importlib.import_module(f"toricsplit.{layer}") for layer in LAYERS]
        modules.append(importlib.import_module("toricsplit"))
        wrapped = {}
        for layer, module in zip(LAYERS, modules):
            for name, value in vars(module).items():
                if (inspect.isfunction(value) and value.__module__ == module.__name__
                        and not name.startswith("_")):
                    wrapped[value] = self._wrap(f"{layer}.{name}", value)
        for module in modules:
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._saved.append((module, name, value))
                    setattr(module, name, wrapped[value])

    def uninstall(self):
        for module, name, value in reversed(self._saved):
            setattr(module, name, value)
        self._saved.clear()

    # -- results ---------------------------------------------------------------

    def pass_metrics(self, pass_index):
        """Per-layer metrics of one traced pass."""
        spans = [s for s in self.spans if s[3] == pass_index]
        seconds, calls = {}, {}
        for index, _parent, _op, _pass, start, end, nested in spans:
            name = self.names[index]
            calls[name] = calls.get(name, 0) + 1
            if not nested:
                seconds[name] = seconds.get(name, 0.0) + (end - start)
        out = {}
        for metric, (kind, name) in _FUNCTION_METRICS.items():
            out[metric] = seconds.get(name, 0.0) if kind == "s" else calls.get(name, 0)
        out.update(self.counts[pass_index])
        # cli self time: main's spans minus the spans they called directly
        main = {i for i, s in enumerate(self.spans)
                if s[3] == pass_index and self.names[s[0]] == "cli.main"}
        self_s = sum(self.spans[i][5] - self.spans[i][4] for i in main)
        self_s -= sum(s[5] - s[4] for s in spans if s[1] in main)
        out["cli.self_s"] = self_s
        return out

    def write(self, path, ops):
        payload = {
            "fields": ["name", "parent", "op", "pass", "start_s", "end_s"],
            "ops": [" ".join(op.argv) for op in ops],
            "names": self.names,
            "spans": [list(s[:6]) for s in self.spans],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)

"""Benchmark of the toricsplit command line: one workload per process.

Run from the root of a checkout:

    python3 perfbench/run.py --workload split --seed 1 --seconds 30 --trace 0

The program is driven only through `toricsplit.cli.main(argv)`, in this
process, with stdout captured; every operation therefore builds its fans
afresh, as a command-line user pays.  A pass is the workload's fixed list
of operations.  Passes repeat until the next one would end after
`--seconds`; at least one always runs.  Every output is checked against
the reference computations in oracle.py.

`--trace 0` prints the end-to-end metrics, `--trace 1` runs one untraced
pass and then traced passes, and prints the per-layer metrics.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.

`--setup-only` writes the seeded inputs to perfbench/work/ and exits; the
timed run starts a few such processes to measure set-up time.
"""

import os

# one thread per process, whatever numpy was built with
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import io
import json
import resource
import statistics
import subprocess
import sys
import time

import checks
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
# set-up samples taken before and after the timed passes
SETUP_SAMPLES = 4


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def _workdir(args):
    return os.path.join("perfbench", "work", f"{args.workload}-seed{args.seed}")


def _set_up(args):
    """Import the program and write the seeded inputs: everything before the
    first timed operation.  Returns (cli module, operations)."""
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "toricsplit", "cli.py")):
        raise SystemExit(f"error: no toricsplit sources under {src}; "
                         "run from the root of a checkout")
    sys.path.insert(0, src)
    from toricsplit import cli
    return cli, workloads.generate(args.workload, args.seed, _workdir(args))


def _setup_seconds(args):
    """Wall times of fresh processes that only set up."""
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def _run_pass(cli, ops, tracer=None):
    """One pass: (wall seconds, [(exit status, stdout)] per operation)."""
    gc.collect()
    if tracer:
        tracer.start_pass()
    outputs = []
    start = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer:
            tracer.op = i
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                status = cli.main(list(op.argv))
            except Exception as exc:  # an escaped exception is a failed operation
                status = f"raised {type(exc).__name__}: {exc}"
        outputs.append((status, out.getvalue()))
    return time.perf_counter() - start, outputs


class _Tally:
    """Attempted, failed and wrongly answered operations across passes."""

    def __init__(self, checker):
        self.checker = checker
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.messages = []

    def add(self, ops, outputs):
        for op, (status, stdout) in zip(ops, outputs):
            self.attempted += 1
            problems = self.checker.check(op, status, stdout)
            if problems:
                self.failed += 1
                if status == op.expect_status:
                    self.wrong += 1
                if len(self.messages) < 10:
                    self.messages.append(f"{' '.join(op.argv)}: {'; '.join(problems)}")


def _passes(cli, ops, seconds, tally, elapsed_from, tracer=None):
    """Run passes until the next one would end after `seconds`."""
    times = []
    while True:
        wall, outputs = _run_pass(cli, ops, tracer)
        times.append(wall)
        tally.add(ops, outputs)
        if time.perf_counter() - elapsed_from + statistics.median(times) > seconds:
            return times


def _end_to_end(args, cli, ops, tally):
    setup = _setup_seconds(args)
    times = _passes(cli, ops, args.seconds, tally, time.perf_counter())
    setup += _setup_seconds(args)
    items = sum(op.items for op in ops)
    metrics = {
        "job_s": (statistics.median(times), "s"),
        "items_per_s": (items * len(times) / sum(times), "items/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    return times, metrics


def _per_layer(args, cli, ops, tally):
    start = time.perf_counter()
    baseline = _passes(cli, ops, 0, tally, start)[0]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        times = _passes(cli, ops, args.seconds, tally, start, tracer)
    finally:
        tracer.uninstall()
    per_pass = [tracer.pass_metrics(i) for i in range(len(times))]
    metrics = {name: (statistics.median(p[name] for p in per_pass),
                      "s" if name.endswith("_s") else "count")
               for name in tracing.METRICS}
    metrics["trace.overhead_s"] = (statistics.median(times) - baseline, "s")
    out_dir = os.path.join("perfbench", "out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.write(os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json"), ops)
    return times, metrics


def main(argv=None):
    args = _parse(argv)
    cli, ops = _set_up(args)
    if args.setup_only:
        return 0
    tally = _Tally(checks.Checker())
    times, metrics = (_per_layer if args.trace else _end_to_end)(args, cli, ops, tally)
    print(f"{args.workload}: passes of {', '.join(f'{t:.3f}' for t in times)} s",
          file=sys.stderr)
    for message in tally.messages:
        print(f"check failed: {message}", file=sys.stderr)
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

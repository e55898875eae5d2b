"""Command-line interface emitting machine-readable reports.

Exit codes: 0 success, 1 verification failure (a checked property does not
hold), 2 usage or input error.  JSON output on stdout is byte-identical for
identical inputs; timing goes to stderr.
"""

import argparse
import contextlib
import functools
import json
import os
import sys
import time

from . import bondal as bondal_mod
from . import cohomology as cohomology_mod
from . import divisor as divisor_mod
from . import fan as fan_mod
from . import frobenius as frobenius_mod
from .fan import Fan, InvalidSpec, build_named, validate


class InputError(Exception):
    """Bad file, descriptor, or flag combination: exit code 2."""


@contextlib.contextmanager
def _input_errors():
    """Report a library ValueError about the inputs as an InputError."""
    try:
        yield
    except ValueError as exc:
        raise InputError(str(exc)) from exc


@functools.cache
def _build_parser():
    """The argument parser, built on first use and reused: parsing leaves
    it unchanged."""
    parser = argparse.ArgumentParser(
        prog="toricsplit",
        description="Exact toric fans, Frobenius splittings, wall relations, "
                    "and exceptional collections.")

    def add_common(p, fan_source=True, divisor=False, collection=False):
        p.add_argument("--format", choices=("json", "table"), default="json")
        if fan_source:
            p.add_argument("--variety", help="descriptor such as P:2, dP:3, "
                                             "Xd:3, F:2, or products A*B")
            p.add_argument("--fan", help="path to a fan JSON file")
        if divisor:
            p.add_argument("--divisor", help="path to a divisor JSON file "
                                             "({\"coeffs\": [...]})")
        if collection:
            p.add_argument("--collection", help="path to a collection JSON "
                                                "file ({\"bundles\": [[...]]})")

    sub = parser.add_subparsers(dest="command", required=True)

    variety = sub.add_parser("variety", help="build and inspect named varieties")
    vsub = variety.add_subparsers(dest="action", required=True)
    for action in ("info", "export"):
        p = vsub.add_parser(action)
        p.add_argument("descriptor", nargs="?",
                       help="variety descriptor; alternatively pass --fan")
        add_common(p, fan_source=False)
        p.add_argument("--fan", help="path to a fan JSON file")

    frob = sub.add_parser("frobenius", help="Frobenius pushforward splittings")
    fsub = frob.add_subparsers(dest="action", required=True)
    for action in ("split", "verify"):
        p = fsub.add_parser(action)
        add_common(p, divisor=True)
        p.add_argument("--p", type=int, default=5)
        p.add_argument("--base-cone", type=int, default=0, dest="base_cone")
        if action == "split":
            p.add_argument("--no-stabilization-check", action="store_true",
                           help="skip the class-set comparison against p+2")

    bond = sub.add_parser("bondal", help="wall relations and Bondal's criterion")
    bsub = bond.add_subparsers(dest="action", required=True)
    p = bsub.add_parser("check")
    add_common(p)

    cohom = sub.add_parser("cohomology", help="line bundle cohomology")
    csub = cohom.add_subparsers(dest="action", required=True)
    p = csub.add_parser("compute")
    add_common(p, divisor=True)

    coll = sub.add_parser("collection", help="exceptional collections")
    osub = coll.add_subparsers(dest="action", required=True)
    for action in ("verify", "order"):
        p = osub.add_parser(action)
        add_common(p, collection=True)
    p = osub.add_parser("product")
    add_common(p, collection=True)
    p.add_argument("--variety2", help="descriptor of the second factor")
    p.add_argument("--fan2", help="fan JSON file of the second factor")
    p.add_argument("--collection2", help="collection file of the second factor")

    return parser


def _load_json(path, what):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read {what} file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{what} file {path} is not valid JSON: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # bytes that are not UTF-8, an integer over Python's digit limit for
        # int-string conversion, or nesting deeper than the recursion limit
        raise InputError(f"cannot read {what} file {path}: {exc}") from exc


def _integers(data, key, depth, what, path):
    """data[key], which must hold JSON integers in lists nested `depth` deep.

    Floats, strings and booleans are refused rather than truncated or cast.
    """
    def ok(value, level):
        if level == 0:
            return type(value) is int
        return isinstance(value, list) and all(ok(v, level - 1) for v in value)

    if not (isinstance(data, dict) and key in data and ok(data[key], depth)):
        shape = ("an integer", "a list of integers", "a list of integer lists")[depth]
        raise InputError(f"bad {what} file {path}: {key!r} must be {shape}")
    return data[key]


def _load_fan(args, variety_attr="variety", fan_attr="fan"):
    descriptor = getattr(args, variety_attr, None)
    path = getattr(args, fan_attr, None)
    if (descriptor is None) == (path is None):
        label = ("a variety descriptor" if variety_attr == "descriptor"
                 else f"--{variety_attr}")
        raise InputError(f"exactly one of {label} and --{fan_attr} is required")
    if descriptor is not None:
        try:
            return build_named(descriptor)
        except (InvalidSpec, fan_mod.ConstructionFailed) as exc:
            raise InputError(str(exc)) from exc
    data = _load_json(path, "fan")
    try:
        fan = Fan(_integers(data, "dim", 0, "fan", path),
                  _integers(data, "rays", 2, "fan", path),
                  _integers(data, "max_cones", 2, "fan", path))
    except ValueError as exc:
        raise InputError(f"bad fan file {path}: {exc}") from exc
    with _input_errors():
        fan_mod._refuse_oversized(f"fan in {path}", fan.dim, len(fan.max_cones),
                                  max(abs(x) for ray in fan.rays for x in ray))
    report = validate(fan)
    if not report.ok:
        raise InputError(f"fan in {path} is not smooth and complete: "
                         f"{'; '.join(report.messages)}")
    return fan


def _load_divisor(args, fan):
    path = getattr(args, "divisor", None)
    if path is None:
        return tuple(0 for _ in fan.rays)
    coeffs = tuple(_integers(_load_json(path, "divisor"), "coeffs", 1, "divisor", path))
    if len(coeffs) != len(fan.rays):
        raise InputError(f"divisor has {len(coeffs)} coefficients, "
                         f"fan has {len(fan.rays)} rays")
    return coeffs


def _load_collection(args, fan, attr="collection"):
    path = getattr(args, attr, None)
    if path is None:
        raise InputError(f"--{attr} is required")
    data = _load_json(path, "collection")
    bundles = [tuple(b) for b in _integers(data, "bundles", 2, "collection", path)]
    for b in bundles:
        if len(b) != len(fan.rays):
            raise InputError(f"bundle {list(b)} does not match the fan's "
                             f"{len(fan.rays)} rays")
    return bundles


def _inputs_echo(args):
    skip = {"command", "action", "format"}
    out = {}
    for key, value in sorted(vars(args).items()):
        if key in skip or value is None:
            continue
        out[key] = value
    return out


# ---------------------------------------------------------------------------
# command handlers: return (result dict, exit status)


def _cmd_variety(args):
    fan = _load_fan(args, variety_attr="descriptor")
    if args.action == "export":
        return fan.to_json_dict(), 0
    info = {
        "descriptor": args.descriptor,
        "dim": fan.dim,
        "rays": len(fan.rays),
        "max_cones": len(fan.max_cones),
        "picard_rank": divisor_mod.picard_rank(fan),
        "fano": divisor_mod.is_fano(fan),
        # P(-1) of the Poincare polynomial: one torus-fixed point per maximal cone
        "euler_characteristic": len(fan.max_cones),
    }
    return info, 0


def _split_payload(result):
    classes = [{"class": list(c), "multiplicity": mult, "representative": list(rep)}
               for c, mult, rep in result.sorted_items()]
    return {"p": result.p, "n": result.fan.dim, "classes": classes}


def _cmd_frobenius(args):
    fan = _load_fan(args)
    div = _load_divisor(args, fan)
    if args.p < 1:
        raise InputError(f"--p must be >= 1, got {args.p}")
    if not 0 <= args.base_cone < len(fan.max_cones):
        raise InputError(f"--base-cone must be in [0, {len(fan.max_cones)})")
    if args.action == "verify" and any(div):
        raise InputError("frobenius verify checks the splitting of O: use the zero divisor")
    check = args.action == "split" and not args.no_stabilization_check and args.p >= 2
    try:
        # the larger split at p+2 goes first, so that the summand limit
        # refuses an input before any work is done
        ahead = frobenius_mod.thomsen_split(fan, div, args.p + 2) if check else None
    except ValueError as exc:
        raise InputError(f"{exc}; the stabilization check splits at p+2 = {args.p + 2} "
                         "(--no-stabilization-check skips it)") from exc
    with _input_errors():
        result = frobenius_mod.thomsen_split(fan, div, args.p, args.base_cone)
    if args.action == "split":
        if check and ahead.classes.keys() != result.classes.keys():
            print(f"warning: splitting class set differs between "
                  f"p={args.p} and p={args.p + 2}", file=sys.stderr)
        return _split_payload(result), 0
    report = frobenius_mod.verify_splitting_invariants(result)
    payload = {
        "multiplicity_ok": report.multiplicity_ok,
        "c1_ok": report.c1_ok,
        "base_cone_ok": report.base_cone_ok,
        "messages": list(report.messages),
    }
    return payload, 0 if report.ok else 1


def _cmd_bondal(args):
    fan = _load_fan(args)
    # the rows of bondal_criterion, read from the factors' arrays without
    # per-wall objects
    found = bondal_mod._violations(fan)
    violations = [{"rays": rays, "u_plus": u_plus, "u_minus": u_minus, "coeffs": row}
                  for rays, u_plus, u_minus, row in zip(
                      found.rays.tolist(), found.u_plus.tolist(),
                      found.u_minus.tolist(), found.coeffs.tolist())]
    payload = {"pass": not violations, "walls": found.walls, "violations": violations}
    return payload, 1 if violations else 0


def _cmd_cohomology(args):
    fan = _load_fan(args)
    div = _load_divisor(args, fan)
    with _input_errors():
        table = cohomology_mod.line_bundle_cohomology(fan, div)
    return {"dims": list(table.dims), "box": table.box}, 0


def _cmd_collection(args):
    fan = _load_fan(args)
    bundles = _load_collection(args, fan)
    if args.action == "verify":
        with _input_errors():
            report = cohomology_mod.is_strongly_exceptional(fan, bundles)
        payload = {
            "pass": report.passed,
            "violations": [{"kind": kind, "j": j, "k": k, "dims": list(dims)}
                           for kind, j, k, dims in report.violations],
        }
        return payload, 0 if report.passed else 1
    if args.action == "order":
        with _input_errors():
            result = cohomology_mod.find_strong_order(fan, bundles)
        if result.ok:
            return {"ok": True, "order": [list(b) for b in result.order]}, 0
        witness = [x if isinstance(x, (int, str)) else list(x)
                   for x in result.witness]
        return {"ok": False, "witness": witness}, 1
    # product
    fan2 = _load_fan(args, variety_attr="variety2", fan_attr="fan2")
    bundles2 = _load_collection(args, fan2, attr="collection2")
    try:
        with _input_errors():
            product, combined = cohomology_mod.box_product(fan, bundles, fan2, bundles2)
    except cohomology_mod.FactorNotStronglyExceptional as exc:
        return {"ok": False, "error": str(exc)}, 1
    payload = {
        "ok": True,
        "fan": product.to_json_dict(),
        "bundles": [list(b) for b in combined],
    }
    return payload, 0


_HANDLERS = {
    "variety": _cmd_variety,
    "frobenius": _cmd_frobenius,
    "bondal": _cmd_bondal,
    "cohomology": _cmd_cohomology,
    "collection": _cmd_collection,
}


def _format_table(report):
    lines = [f"command: {report['command']}"]
    for key, value in report["inputs"].items():
        lines.append(f"input {key}: {value}")

    def walk(prefix, value):
        if isinstance(value, dict):
            for k, v in value.items():
                walk(f"{prefix}{k}.", v) if isinstance(v, (dict, list)) \
                    else lines.append(f"{prefix}{k}: {v}")
        elif isinstance(value, list):
            for i, v in enumerate(value):
                if isinstance(v, (dict, list)):
                    walk(f"{prefix}{i}.", v)
                else:
                    lines.append(f"{prefix}{i}: {v}")

    walk("", report["result"])
    lines.append(f"exit_status: {report['exit_status']}")
    return "\n".join(lines)


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    started = time.monotonic()
    try:
        result, status = _HANDLERS[args.command](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    command = args.command + (f" {args.action}" if getattr(args, "action", None) else "")
    report = {
        "command": command,
        "inputs": _inputs_echo(args),
        "result": result,
        "exit_status": status,
    }
    try:
        text = (json.dumps(report, sort_keys=True, indent=2) if args.format == "json"
                else _format_table(report))
    except ValueError as exc:
        # an integer over Python's digit limit for int-string conversion
        print(f"error: cannot write the result: {exc}", file=sys.stderr)
        return 2
    print(text)
    elapsed = time.monotonic() - started
    print(f"wall-clock: {elapsed:.3f}s", file=sys.stderr)
    return status


def console_entry():
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early; send what is still buffered to
        # devnull so that the interpreter's final flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    sys.exit(status)


if __name__ == "__main__":
    console_entry()

"""Byte-for-byte CLI goldens: stdout or stderr plus the exit code.

Each file under tests/golden/ starts with a line `exit <code>` followed by
the captured stream verbatim.  Named varieties compare stdout; `--fan` runs
compare stderr without its `wall-clock:` line.  Input files are written to a
temporary directory and their paths replaced by `<fan>`, `<divisor>` or
`<collection>`.  After a deliberate change of output, regenerate the files
with `PYTHONPATH=src python tests/test_cli_golden.py`.

The d = 7 collection verdict is pinned by the sha256 of its stdout instead:
`collection order` on the 432 Frobenius summand classes of O on Xd:7 at
p = 4, read from `frobenius split`, and `collection verify` on the order it
returns.  The pins were generated while the collection checks still read
all m^2 product tables, so they are an independent reference.  The stdout
of the Xd:9 split and verify and of the default Xd:7 split is pinned the
same way, from before products were split factor by factor.
"""

import contextlib
import hashlib
import io
import json
import pathlib
import tempfile

import pytest

from toricsplit.cli import main
from toricsplit.fan import build_named
from toricsplit.frobenius import thomsen_split

GOLDEN = pathlib.Path(__file__).parent / "golden"

# the fans of tests/test_fan.py: P(1,1,2), the Hattori-Masuda multi-fan
# winding twice around the origin, and its singular image
FANS = {
    "p112": {"dim": 2, "rays": [[1, 0], [0, 1], [-1, -2]],
             "max_cones": [[0, 1], [1, 2], [0, 2]]},
    "hattori_masuda": {"dim": 2,
                       "rays": [[1, 0], [0, 1], [-1, -2], [2, 3], [-1, -1], [0, -1]],
                       "max_cones": [[i, (i + 1) % 6] for i in range(6)]},
    "singular_multi_fan": {"dim": 2,
                           "rays": [[2, 1], [1, 2], [-4, -5], [7, 8], [-1, -1], [-1, -2]],
                           "max_cones": [[i, (i + 1) % 6] for i in range(6)]},
    # dP3 without its cone (4, 5): the walls (5,) and (4,) lie in one cone
    # each, and validate reports them in the order the cones first meet them
    "dp3_missing_cone": {"dim": 2,
                         "rays": [[1, 0], [0, 1], [-1, 1], [-1, 0], [0, -1], [1, -1]],
                         "max_cones": [[0, 1], [1, 2], [2, 3], [3, 4], [5, 0]]},
}


def summand_set(spec, p):
    """One representative per class of the Frobenius summands of O."""
    fan = build_named(spec)
    result = thomsen_split(fan, tuple(0 for _ in fan.rays), p)
    return [list(rep) for _, _, rep in result.sorted_items()]


# divisor and collection files, built when a case needs them
INPUTS = {
    # -3K on Xd:5: the proven radius 9 lies above the box 8 the CLI reports
    "xd5_minus_3k": lambda: {"coeffs": [3] * 14},
    # a non-nef divisor of the benchmark's twists, box 8
    "xd5_non_nef": lambda: {"coeffs": [-2, 1, 3, -1, 2, 0, 3, 1, -3, -1, 2, -3, 1, 0]},
    "dp3_dp3_minus_3k": lambda: {"coeffs": [3] * 12},
    "p2_minus_5": lambda: {"coeffs": [-5, 0, 0]},
    # -K on P:2*P:2, whose face complex is no join of smaller blocks
    "p2_p2_minus_k": lambda: {"coeffs": [1] * 6},
    # a non-nef divisor on F:2 with h^1 = 9
    "f2_non_nef": lambda: {"coeffs": [0, 3, 0, -1]},
    # the difference of two Frobenius summands of O on Xd:7 (p=3): h^0 = 12
    "xd7_summand_difference": lambda: {"coeffs": [0, 0, 1, 0, 1, 0, 1, 0, 0, 0,
                                                  1, 0, 1, 0, 0, 0, 0, 1, 0, 0]},
    "xd3_summands": lambda: {"bundles": summand_set("Xd:3", 5)},
    "dp3_dp3_summands": lambda: {"bundles": summand_set("dP:3*dP:3", 3)},
    # failing collections: a pair with no admissible orientation, two
    # forward-higher violations, and backward violations
    "p2_pair_witness": lambda: {"bundles": [[0, 0, 0], [3, 0, 0], [1, 0, 0]]},
    "f2_forward_higher": lambda: {"bundles": [[0, -2, 1, 1], [1, -2, 1, 1], [2, -1, -2, 1]]},
    "dp3_backward": lambda: {"bundles": [[0, 0, 1, 1, 1, 0], [0, 0, 0, 1, 1, 1],
                                         [0, 0, 0, 1, 1, 0], [0, 0, 1, 1, 0, 0],
                                         [0, 0, 0, 0, 1, 1], [0, 0, 0, 0, 0, 0]]},
}

CASES = {}
for _spec in ("Xd:3", "Xd:5", "Xd:7", "Xd:9", "dP:3*dP:3", "F:2", "P:3"):
    _name = _spec.replace(":", "").replace("*", "_")
    CASES[f"info_{_name}"] = ("variety", "info", _spec)
    CASES[f"bondal_{_name}"] = ("bondal", "check", "--variety", _spec)
# F:3 fails at one wall; the triple product has 3 * 18 * 6 * 6 walls
for _spec in ("F:3", "dP:3*dP:3*dP:3"):
    _name = _spec.replace(":", "").replace("*", "_")
    CASES[f"bondal_{_name}"] = ("bondal", "check", "--variety", _spec)
CASES["split_Xd3_p3"] = ("frobenius", "split", "--variety", "Xd:3", "--p", "3")
CASES["split_Xd5_p3"] = ("frobenius", "split", "--variety", "Xd:5", "--p", "3",
                         "--no-stabilization-check")
for _fan in FANS:
    CASES[f"fan_info_{_fan}"] = ("variety", "info", "--fan", _fan)
for _spec, _divisor in (("Xd:5", "xd5_minus_3k"), ("Xd:5", "xd5_non_nef"),
                        ("dP:3*dP:3", "dp3_dp3_minus_3k"), ("P:2", "p2_minus_5"),
                        ("P:2*P:2", "p2_p2_minus_k"), ("F:2", "f2_non_nef"),
                        ("Xd:7", "xd7_summand_difference")):
    CASES[f"cohomology_{_divisor}"] = ("cohomology", "compute", "--variety", _spec,
                                       "--divisor", _divisor)
for _spec, _collection in (("Xd:3", "xd3_summands"), ("dP:3*dP:3", "dp3_dp3_summands")):
    CASES[f"order_{_collection}"] = ("collection", "order", "--variety", _spec,
                                     "--collection", _collection)
CASES["order_p2_pair_witness"] = ("collection", "order", "--variety", "P:2",
                                  "--collection", "p2_pair_witness")
for _spec, _collection in (("F:2", "f2_forward_higher"), ("dP:3", "dp3_backward")):
    CASES[f"verify_{_collection}"] = ("collection", "verify", "--variety", _spec,
                                      "--collection", _collection)


def capture(name, workdir):
    """(exit status, compared stream) of one case, run in-process."""
    argv = list(CASES[name])
    paths = {}
    for flag in ("--fan", "--divisor", "--collection"):
        if flag in argv:
            i = argv.index(flag) + 1
            data = FANS[argv[i]] if flag == "--fan" else INPUTS[argv[i]]()
            path = str(pathlib.Path(workdir) / f"{flag[2:]}.json")
            pathlib.Path(path).write_text(json.dumps(data))
            argv[i] = path
            paths[path] = f"<{flag[2:]}>"
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    if "--fan" in CASES[name]:
        lines = err.getvalue().splitlines(keepends=True)
        text = "".join(line for line in lines if not line.startswith("wall-clock:"))
    else:
        text = out.getvalue()
    for path, label in paths.items():
        text = text.replace(path, label)
    return status, text


def render(status, text):
    return f"exit {status}\n{text}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, tmp_path):
    expected = (GOLDEN / f"{name}.txt").read_text()
    assert render(*capture(name, tmp_path)) == expected


# (exit status, sha256 of stdout with the collection path as `<collection>`)
XD7_PINS = {
    "order": (0, "b4dfd6cf320f95e93326d23c6188513624590a937675c441361b8266d0cc6dda"),
    "verify": (0, "2f8c171869dee2d42343a414cab8ed149982734788e3fc169b576eac61b7c55c"),
}


# (exit status, sha256 of stdout) of the splittings of O on the towers past
# d = 5, pinned before products were split factor by factor
SPLIT_PINS = {
    "frobenius split --variety Xd:9 --p 4 --no-stabilization-check":
        (0, "826f0378520bffaf7086e6bc4e578ff3c9382e1959987355c55631c88460375a"),
    "frobenius verify --variety Xd:9 --p 4":
        (0, "9d9e75a8d07e59503e1c67325f63bdbe80fe7145a7e9e9ab61b2e0d4abbeaf41"),
    "frobenius split --variety Xd:7 --p 4":
        (0, "74a6c201318aceb1762056403bd67d10380757b2c3ff546b4c5767120ca14f67"),
}


def run_main(argv):
    """(exit status, stdout) of one in-process CLI run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        status = main(argv)
    return status, out.getvalue()


def xd7_verdicts(workdir):
    """{action: (exit status, sha256)} for `collection order` on the Xd:7
    summand classes at p = 4 and `collection verify` on its order."""
    status, out = run_main(["frobenius", "split", "--variety", "Xd:7", "--p", "4",
                            "--no-stabilization-check"])
    assert status == 0
    bundles = [c["representative"] for c in json.loads(out)["result"]["classes"]]
    assert len(bundles) == 432
    path = str(pathlib.Path(workdir) / "collection.json")
    verdicts = {}
    for action in ("order", "verify"):
        pathlib.Path(path).write_text(json.dumps({"bundles": bundles}))
        status, out = run_main(["collection", action, "--variety", "Xd:7",
                                "--collection", path])
        digest = hashlib.sha256(out.replace(path, "<collection>").encode()).hexdigest()
        verdicts[action] = (status, digest)
        if action == "order":
            bundles = json.loads(out)["result"]["order"]
    return verdicts


def test_xd7_summand_collection(tmp_path):
    assert xd7_verdicts(tmp_path) == XD7_PINS


@pytest.mark.parametrize("command", sorted(SPLIT_PINS))
def test_split_pins(command, capsys):
    # the default split re-splits at p+2 = 6 and warns on stderr only when
    # the class sets differ
    status = main(command.split())
    out, err = capsys.readouterr()
    assert (status, hashlib.sha256(out.encode()).hexdigest()) == SPLIT_PINS[command]
    assert "warning" not in err


def regenerate():
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as workdir:
        for name in sorted(CASES):
            (GOLDEN / f"{name}.txt").write_text(render(*capture(name, workdir)))


if __name__ == "__main__":
    regenerate()

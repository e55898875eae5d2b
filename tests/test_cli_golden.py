"""Byte-for-byte CLI goldens: stdout or stderr plus the exit code.

Each file under tests/golden/ starts with a line `exit <code>` followed by
the captured stream verbatim.  Named varieties compare stdout; `--fan` runs
compare stderr without its `wall-clock:` line.  Input files are written to a
temporary directory and their paths replaced by `<fan>`, `<divisor>` or
`<collection>`.  After a deliberate change of output, regenerate the files
with `PYTHONPATH=src python tests/test_cli_golden.py`.
"""

import contextlib
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


def regenerate():
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as workdir:
        for name in sorted(CASES):
            (GOLDEN / f"{name}.txt").write_text(render(*capture(name, workdir)))


if __name__ == "__main__":
    regenerate()

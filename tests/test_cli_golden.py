"""Byte-for-byte CLI goldens: stdout or stderr plus the exit code.

Each file under tests/golden/ starts with a line `exit <code>` followed by
the captured stream verbatim.  Named varieties compare stdout; `--fan` runs
compare stderr without its `wall-clock:` line, with the fan file's path
replaced by `<fan>`.  After a deliberate change of output, regenerate the
files with `PYTHONPATH=src python tests/test_cli_golden.py`.
"""

import contextlib
import io
import json
import pathlib
import tempfile

import pytest

from toricsplit.cli import main

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
}

CASES = {}
for _spec in ("Xd:3", "Xd:5", "Xd:7", "dP:3*dP:3", "F:2", "P:3"):
    _name = _spec.replace(":", "").replace("*", "_")
    CASES[f"info_{_name}"] = ("variety", "info", _spec)
    CASES[f"bondal_{_name}"] = ("bondal", "check", "--variety", _spec)
CASES["split_Xd3_p3"] = ("frobenius", "split", "--variety", "Xd:3", "--p", "3")
CASES["split_Xd5_p3"] = ("frobenius", "split", "--variety", "Xd:5", "--p", "3",
                         "--no-stabilization-check")
for _fan in FANS:
    CASES[f"fan_info_{_fan}"] = ("variety", "info", "--fan", _fan)


def capture(name, workdir):
    """(exit status, compared stream) of one case, run in-process."""
    argv = list(CASES[name])
    fan_path = None
    if "--fan" in argv:
        i = argv.index("--fan") + 1
        fan_path = str(pathlib.Path(workdir) / "fan.json")
        pathlib.Path(fan_path).write_text(json.dumps(FANS[argv[i]]))
        argv[i] = fan_path
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    if fan_path is None:
        return status, out.getvalue()
    lines = err.getvalue().splitlines(keepends=True)
    text = "".join(line for line in lines if not line.startswith("wall-clock:"))
    return status, text.replace(fan_path, "<fan>")


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

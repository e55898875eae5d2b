"""`bondal check` against `bondal_criterion`.

The CLI reads the wall arrays of `bondal._relations` and builds no `Wall` or
`WallRelation`; its payload must still be the one `bondal_criterion`'s
objects give, on named varieties and on fan files.
"""

import contextlib
import io
import json
import pathlib
import tempfile
from collections import Counter

import pytest
from hypothesis import given, settings

from test_cli_golden import CASES
from test_fan_properties import star_subdivisions
from toricsplit import bondal, fan as fan_module
from toricsplit.bondal import bondal_criterion
from toricsplit.cli import main
from toricsplit.fan import Fan, build_named, hirzebruch


def expected(fan):
    """(exit status, result) of `bondal check`, from the criterion's objects."""
    verdict = bondal_criterion(fan)
    violations = [{"rays": list(r.wall.rays), "u_plus": r.wall.u_plus,
                   "u_minus": r.wall.u_minus, "coeffs": list(r.coeffs)}
                  for r in verdict.violations]
    result = {"pass": verdict.passed, "walls": len(verdict.relations),
              "violations": violations}
    return 0 if verdict.passed else 1, result


def check(*argv):
    """(exit status, result, stdout) of one in-process `bondal check`."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        status = main(["bondal", "check", *argv])
    return status, json.loads(out.getvalue())["result"], out.getvalue()


def check_file(fan):
    with tempfile.TemporaryDirectory() as workdir:
        path = pathlib.Path(workdir) / "fan.json"
        path.write_text(fan.to_json())
        return check("--fan", str(path))


def golden_varieties():
    """Every variety descriptor a CLI golden names."""
    specs = []
    for argv in CASES.values():
        if "--variety" in argv:
            specs.append(argv[argv.index("--variety") + 1])
        elif argv[:2] == ("variety", "info") and "--fan" not in argv:
            specs.append(argv[2])
    return sorted(set(specs))


def test_golden_varieties_found():
    assert {"Xd:9", "F:3", "dP:3*dP:3*dP:3", "P:2"} <= set(golden_varieties())


@pytest.mark.parametrize("spec", sorted({*golden_varieties(), *(f"F:{a}" for a in range(5))}))
def test_named(spec):
    assert check("--variety", spec)[:2] == expected(build_named(spec))


@settings(max_examples=15, deadline=None, database=None, derandomize=True)
@given(star_subdivisions())
def test_star_subdivisions(fan):
    assert check_file(fan)[:2] == expected(fan)


def test_line_fan():
    line = Fan(1, [(1,), (-1,)], [(0,), (1,)])
    status, result, _ = check_file(line)
    assert (status, result) == expected(line)
    assert result == {"pass": True, "walls": 1, "violations": []}


def test_huge_hirzebruch_prints_exact_coefficient():
    a = 2 ** 70
    fan = hirzebruch(a)
    status, result, out = check_file(fan)
    assert (status, result) == expected(fan)
    assert status == 1
    assert [v["coeffs"] for v in result["violations"]] == [[-a]]
    assert str(-a) in out


def test_cli_builds_no_wall_objects(monkeypatch):
    made = Counter()
    for cls in (fan_module.Wall, bondal.WallRelation):
        def counted(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            made[_name] += 1
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)
    status, result, _ = check("--variety", "Xd:9")
    assert (status, result["walls"], result["violations"]) == (0, 11664, [])
    assert made == Counter()
    # the counters do see the objects the library API makes
    bondal_criterion(build_named("P:2"))
    assert made == Counter({"Wall": 3, "WallRelation": 3})

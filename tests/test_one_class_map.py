"""Each CLI operation derives at most one Picard class map, and the named
builds leave `Fan.max_cones` unformed.

The class map is the cached `divisor._pic_projection` of the fan the
operation answers, one Smith normal form.  A Frobenius summand is its own
class (see the `frobenius` module docstring), so splitting a product's
factors needs no factor's class map, and the c1 check of `frobenius verify`
and the non-equivalence check of `collection order` read the fan's cached
one.  The counter wraps `lattice.smith_normal_form` in every module that
refers to it, so a call through `solve_integral` is counted too.

`Fan.max_cones`, a tuple of tuples, is formed on first use; the commands
below, the cohomology scans included, read `Fan.cone_indices` only, so
neither the built fan's `__dict__` nor its factor fans' may hold it.
"""

import contextlib
import io
import json
import sys

import pytest

import toricsplit
from toricsplit import cli, lattice
from toricsplit.fan import _factors, build_named
from toricsplit.frobenius import thomsen_split


def run(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()):
        status = cli.main(argv)
    return status, out.getvalue()


@pytest.fixture
def snf_calls(monkeypatch):
    """The number of `smith_normal_form` calls so far, as a one-item list."""
    calls = [0]
    original = lattice.smith_normal_form

    def counted(m):
        calls[0] += 1
        return original(m)

    modules = [m for name, m in sys.modules.items() if name.startswith("toricsplit")]
    for module in modules:
        if getattr(module, "smith_normal_form", None) is original:
            monkeypatch.setattr(module, "smith_normal_form", counted)
    assert lattice.smith_normal_form is counted
    return calls


@pytest.fixture
def xd5_summands(tmp_path):
    """A collection file of the 72 summand classes of O on Xd:5 at p = 4."""
    fan = build_named("Xd:5")
    result = thomsen_split(fan, tuple(0 for _ in fan.rays), 4)
    assert result.class_count == 72
    path = tmp_path / "summands.json"
    path.write_text(json.dumps({"bundles": [list(rep) for _, _, rep in result.sorted_items()]}))
    return path


@pytest.mark.parametrize("argv", [
    ["frobenius", "split", "--variety", "Xd:7", "--p", "3"],
    ["frobenius", "split", "--variety", "dP:3*dP:3", "--p", "4"],
    ["frobenius", "verify", "--variety", "Xd:5", "--p", "3"],
])
def test_frobenius_runs_one_smith_form(argv, snf_calls):
    assert run(argv)[0] == 0
    assert snf_calls[0] <= 1


def test_collection_checks_run_one_smith_form(xd5_summands, tmp_path, snf_calls):
    status, out = run(["collection", "order", "--variety", "Xd:5",
                       "--collection", str(xd5_summands)])
    assert status == 0
    assert snf_calls[0] <= 1
    ordered = tmp_path / "ordered.json"
    ordered.write_text(json.dumps({"bundles": json.loads(out)["result"]["order"]}))
    snf_calls[0] = 0
    assert run(["collection", "verify", "--variety", "Xd:5",
                "--collection", str(ordered)])[0] == 0
    assert snf_calls[0] <= 1


@pytest.fixture
def built(monkeypatch):
    """The fans the CLI builds from descriptors, in order."""
    fans = []

    def capture(spec):
        fans.append(build_named(spec))
        return fans[-1]

    monkeypatch.setattr(cli, "build_named", capture)
    return fans


@pytest.fixture
def anticanonical(tmp_path):
    """A divisor file of -K on Xd:5, every coefficient 1."""
    path = tmp_path / "anticanonical.json"
    path.write_text(json.dumps({"coeffs": [1] * len(build_named("Xd:5").rays)}))
    return path


def unformed(fan):
    """Whether `max_cones` is missing from the fan and its factor fans."""
    return all("max_cones" not in vars(f) for f in [fan, *(f for f, _ in _factors(fan))])


@pytest.mark.parametrize("argv", [
    ["variety", "info", "Xd:9"],
    ["bondal", "check", "--variety", "Xd:9"],
    ["frobenius", "split", "--variety", "Xd:7", "--p", "2"],
])
def test_max_cones_stays_unformed(argv, built):
    assert run(argv)[0] == 0
    assert len(built) == 1
    assert unformed(built[0])


@pytest.mark.parametrize("command, option, source", [
    ("cohomology compute", "--divisor", "anticanonical"),
    ("collection order", "--collection", "xd5_summands"),
], ids=["cohomology-compute", "collection-order"])
def test_scans_leave_max_cones_unformed(command, option, source, request, built):
    path = request.getfixturevalue(source)
    assert run([*command.split(), "--variety", "Xd:5", option, str(path)])[0] == 0
    assert len(built) == 1
    assert unformed(built[0])


def test_max_cones_formed_on_first_use():
    fan = build_named("Xd:5")
    assert "max_cones" not in vars(fan)
    assert fan.max_cones == tuple(map(tuple, fan.cone_indices.tolist()))
    assert "max_cones" in vars(fan)
    assert toricsplit.Fan.from_json(fan.to_json()).max_cones == fan.max_cones

"""Each output check accepts the program's real output and rejects a corrupted one.

Run from the root of a checkout:  python3 -m pytest -q perfbench/test_checks.py
"""

import contextlib
import io
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from toricsplit import cli  # noqa: E402
from workloads import Op  # noqa: E402


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        status = cli.main(argv)
    return status, out.getvalue()


def corrupt(stdout, edit):
    report = json.loads(stdout)
    edit(report["result"])
    return json.dumps(report)


@pytest.fixture(scope="module")
def checker():
    return checks.Checker()


@pytest.fixture
def files(tmp_path):
    def write(payload):
        path = tmp_path / f"input{len(list(tmp_path.iterdir()))}.json"
        path.write_text(json.dumps(payload))
        return str(path)
    return write


def assert_detects(checker, op, edit):
    status, stdout = run_cli(op.argv)
    assert checker.check(op, status, stdout) == []
    assert checker.check(op, status, corrupt(stdout, edit))


# -- frobenius ---------------------------------------------------------------


def split_op(files, descriptor="Xd:3", p=3, coeffs=(1, -2, 0, 3, -1, 2, 0, -3)):
    path = files({"coeffs": list(coeffs)})
    return Op(["frobenius", "split", "--variety", descriptor, "--p", str(p), "--divisor", path,
               "--no-stabilization-check"], "split", 0, p ** 3,
              {"descriptor": descriptor, "p": p, "divisor": list(coeffs)})


def test_split_detects_moved_multiplicity(checker, files):
    def edit(result):
        result["classes"][0]["multiplicity"] += 1
        result["classes"][1]["multiplicity"] -= 1
    assert_detects(checker, split_op(files), edit)


def test_split_detects_missing_class(checker, files):
    assert_detects(checker, split_op(files), lambda r: r["classes"].pop())


def test_split_detects_inequivalent_representative(checker, files):
    def edit(result):
        result["classes"][-1]["representative"][0] += 1
    assert_detects(checker, split_op(files), edit)


def test_frobenius_verify_detects_false_claim(checker):
    op = Op(["frobenius", "verify", "--variety", "Xd:3", "--p", "3"], "fverify", 0, 27,
            {"descriptor": "Xd:3", "p": 3})
    assert_detects(checker, op, lambda r: r.update(c1_ok=False))


# -- cohomology --------------------------------------------------------------


def twist_op(files, coeffs, nef, descriptor="Xd:3"):
    path = files({"coeffs": list(coeffs)})
    return Op(["cohomology", "compute", "--variety", descriptor, "--divisor", path], "twist",
              0, 1, {"descriptor": descriptor, "divisor": list(coeffs), "nef": nef})


def test_twist_detects_wrong_h0(checker, files):
    op = twist_op(files, [2] * 8, True)
    assert_detects(checker, op, lambda r: r["dims"].__setitem__(0, r["dims"][0] + 1))


def test_twist_detects_higher_cohomology_of_nef(checker, files):
    op = twist_op(files, [1] * 8, True)
    assert_detects(checker, op, lambda r: r["dims"].__setitem__(1, 1))


def test_twist_detects_wrong_top_cohomology(checker, files):
    op = twist_op(files, [-3] * 8, False)
    status, stdout = run_cli(op.argv)
    assert json.loads(stdout)["result"]["dims"][3] > 0
    assert_detects(checker, op, lambda r: r["dims"].__setitem__(3, r["dims"][3] - 1))


# -- collections ---------------------------------------------------------------


def order_op(files):
    bundles = workloads._summand_classes("Xd:3", 5)
    path = files({"bundles": bundles})
    return Op(["collection", "order", "--variety", "Xd:3", "--collection", path], "order", 0,
              66, {"descriptor": "Xd:3", "bundles": bundles, "sample": 66, "sample_seed": 1})


def test_order_detects_backward_homs(checker, files):
    assert_detects(checker, order_op(files), lambda r: r["order"].reverse())


def test_order_detects_foreign_bundle(checker, files):
    def edit(result):
        result["order"][-1] = [5] * 8
    assert_detects(checker, order_op(files), edit)


def test_order_detects_short_order(checker, files):
    assert_detects(checker, order_op(files), lambda r: r["order"].pop())


def test_collection_verify_detects_rejection(checker, files):
    bundles = [list(b) for b in workloads.DP3_ORDER]
    path = files({"bundles": bundles})
    op = Op(["collection", "verify", "--variety", "dP:3", "--collection", path], "cverify", 0,
            15, {"descriptor": "dP:3", "bundles": bundles, "sample": 15, "sample_seed": 1})
    assert_detects(checker, op, lambda r: r.update({"pass": False}))


# -- fans and walls ------------------------------------------------------------


def test_info_detects_wrong_cone_count(checker):
    op = Op(["variety", "info", "Xd:5"], "info", 0, 72, {"descriptor": "Xd:5"})
    assert_detects(checker, op, lambda r: r.update(max_cones=r["max_cones"] - 1))


def test_bondal_detects_wrong_witness(checker):
    op = Op(["bondal", "check", "--variety", "F:2"], "bondal", 1, 4, {"descriptor": "F:2"})
    assert_detects(checker, op, lambda r: r["violations"][0].update(coeffs=[-3]))


def test_bondal_detects_wrong_wall_count(checker):
    op = Op(["bondal", "check", "--variety", "Xd:3"], "bondal", 0, 12, {"descriptor": "Xd:3"})
    assert_detects(checker, op, lambda r: r.update(walls=r["walls"] + 1))


def test_unexpected_exit_status_fails(checker):
    op = Op(["bondal", "check", "--variety", "F:2"], "bondal", 0, 4, {"descriptor": "F:2"})
    status, stdout = run_cli(op.argv)
    assert status == 1
    assert checker.check(op, status, stdout)


# -- the reference data itself -------------------------------------------------


@pytest.mark.parametrize("descriptor", ["P:2", "F:2", "Xd:3", "Xd:5", "Xd:7", "dP:3*dP:3",
                                        "P:1*dP:3*dP:3", "dP:3*P:1*dP:3"])
def test_reference_rays_follow_the_program_order(descriptor):
    status, stdout = run_cli(["variety", "export", descriptor])
    assert status == 0
    assert json.loads(stdout)["result"]["rays"] == oracle.rays_of(descriptor).tolist()


def test_dp3_order_is_strongly_exceptional():
    """All Ext^i between the six dP3 bundles, from Riemann-Roch on the surface.

    chi(D) = 1 + (D.D - D.K)/2 with D_j^2 = c_j from v_a + v_b + c_j v_j = 0
    and D_j . D_k = 1 for neighbouring rays; h^1 = h^0 + h^2 - chi.
    """
    geo = oracle.RayGeometry(oracle.rays_of("dP:3"))
    inter = np.zeros((6, 6), dtype=np.int64)
    for j, a, b, c in oracle.surface_wall_relations("dP:3"):
        inter[j, j] = c
        inter[j, a] = inter[a, j] = inter[j, b] = inter[b, j] = 1
    canonical = -np.ones(6, dtype=np.int64)

    def dims(d):
        chi = 1 + (d @ inter @ d - d @ inter @ canonical) // 2
        h0, h2 = geo.section_count(d), geo.top_count(d)
        return h0, h0 + h2 - chi, h2

    order = [np.array(b, dtype=np.int64) for b in workloads.DP3_ORDER]
    assert dims(np.zeros(6, dtype=np.int64)) == (1, 0, 0)
    for j in range(6):
        for k in range(j + 1, 6):
            assert dims(order[j] - order[k]) == (0, 0, 0)
            assert dims(order[k] - order[j])[1:] == (0, 0)

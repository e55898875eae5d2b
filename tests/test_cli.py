import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from toricsplit import cli
from toricsplit.cli import main

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def run_json(capsys, *argv):
    status, out, _ = run(capsys, *argv)
    return status, json.loads(out)


class TestVariety:
    def test_info_tower3(self, capsys):
        status, report = run_json(capsys, "variety", "info", "Xd:3")
        assert status == 0
        result = report["result"]
        assert result["rays"] == 8
        assert result["max_cones"] == 12
        assert result["picard_rank"] == 5
        assert result["fano"] is True

    def test_export_then_reimport_agrees(self, capsys, tmp_path):
        status, report = run_json(capsys, "variety", "export", "dP:3")
        assert status == 0
        fan_file = tmp_path / "fan.json"
        fan_file.write_text(json.dumps(report["result"]))
        s1, out1, _ = run(capsys, "bondal", "check", "--variety", "dP:3")
        s2, out2, _ = run(capsys, "bondal", "check", "--fan", str(fan_file))
        assert s1 == s2 == 0
        r1 = json.loads(out1)["result"]
        r2 = json.loads(out2)["result"]
        assert r1 == r2

    def test_bad_descriptor(self, capsys):
        status, _, err = run(capsys, "variety", "info", "Xd:4")
        assert status == 2
        assert "error" in err

    def test_info_from_fan_file(self, capsys, tmp_path):
        _, report = run_json(capsys, "variety", "export", "P:2")
        fan_file = tmp_path / "p2.json"
        fan_file.write_text(json.dumps(report["result"]))
        status, report = run_json(capsys, "variety", "info",
                                  "--fan", str(fan_file))
        assert status == 0
        assert report["result"]["picard_rank"] == 1
        # descriptor and --fan are mutually exclusive
        assert main(["variety", "info", "P:2", "--fan", str(fan_file)]) == 2
        capsys.readouterr()


class TestFrobenius:
    def test_split_p1(self, capsys):
        status, report = run_json(capsys, "frobenius", "split",
                                  "--variety", "P:1", "--p", "3")
        assert status == 0
        result = report["result"]
        assert result["p"] == 3
        assert result["n"] == 1
        assert sum(c["multiplicity"] for c in result["classes"]) == 3
        # classes sorted lexicographically by representative
        reps = [c["representative"] for c in result["classes"]]
        assert reps == sorted(reps)

    def test_split_tower3(self, capsys):
        status, report = run_json(capsys, "frobenius", "split",
                                  "--variety", "Xd:3", "--p", "5")
        assert status == 0
        result = report["result"]
        assert len(result["classes"]) == 12
        assert sum(c["multiplicity"] for c in result["classes"]) == 125

    def test_verify(self, capsys):
        status, report = run_json(capsys, "frobenius", "verify",
                                  "--variety", "dP:3", "--p", "3")
        assert status == 0
        assert report["result"]["multiplicity_ok"] is True
        assert report["result"]["c1_ok"] is True

    def test_verify_p1_at_even_p(self, capsys):
        # p^(n-1) (p-1) = 1 is odd: c1 holds as 2 sum D_v ~ -K, not as a
        # floor-halved multiple of -K
        status, report = run_json(capsys, "frobenius", "verify",
                                  "--variety", "P:1", "--p", "2")
        assert status == 0
        assert report["result"]["c1_ok"] is True

    def test_divisor_file(self, capsys, tmp_path):
        div = tmp_path / "d.json"
        div.write_text(json.dumps({"coeffs": [1, 1]}))
        status, report = run_json(capsys, "frobenius", "split", "--variety", "P:1",
                                  "--p", "2", "--divisor", str(div),
                                  "--no-stabilization-check")
        assert status == 0
        assert len(report["result"]["classes"]) == 2

    def test_bad_p(self, capsys):
        status, _, err = run(capsys, "frobenius", "split",
                             "--variety", "P:1", "--p", "0")
        assert status == 2

    def test_stabilization_warning(self, capsys):
        # the tower's class set grows from 11 at p=3 to 12 at p=5
        status, _, err = run(capsys, "frobenius", "split",
                             "--variety", "Xd:3", "--p", "3")
        assert status == 0
        assert "warning: splitting class set differs between p=3 and p=5" in err
        status, _, err = run(capsys, "frobenius", "split",
                             "--variety", "Xd:3", "--p", "4", "--base-cone", "5")
        assert status == 0
        assert "warning" not in err


class TestBondal:
    def test_f2_fails_exit_one(self, capsys):
        status, report = run_json(capsys, "bondal", "check", "--variety", "F2")
        assert status == 1
        result = report["result"]
        assert result["pass"] is False
        assert any(-2 in v["coeffs"] for v in result["violations"])

    def test_tower3_passes(self, capsys):
        status, report = run_json(capsys, "bondal", "check", "--variety", "Xd:3")
        assert status == 0
        assert report["result"]["walls"] == 18
        assert report["result"]["violations"] == []


class TestCohomology:
    def test_compute(self, capsys, tmp_path):
        div = tmp_path / "d.json"
        div.write_text(json.dumps({"coeffs": [-1, -1]}))
        status, report = run_json(capsys, "cohomology", "compute",
                                  "--variety", "P:1", "--divisor", str(div))
        assert status == 0
        assert report["result"]["dims"] == [0, 1]
        assert report["result"]["box"] >= 1

    def test_box_override(self, capsys, tmp_path):
        # --box 1 printed dims [3, 0, 0] for O(3) on P^2, whose h^0 is 10;
        # every table is read at the proven radius, and a fixed one is refused
        div = tmp_path / "d.json"
        div.write_text(json.dumps({"coeffs": [1, 1]}))
        status, _, err = run(capsys, "cohomology", "compute", "--variety", "P:1",
                             "--divisor", str(div), "--box", "7")
        assert status == 2 and "--box" in err

    @pytest.mark.parametrize("variety, coeffs, dims, box", [
        ("P:1", [-10, 10], [1, 0], 22),
        ("P:2", [60, 0, 0], [1891, 0, 0], 122),
        ("P:2", [-150, 0, 0], [0, 0, 11026], 151),
        ("dP:3", [5, -7, 3, 0, -4, 6], [0, 115, 0], 16),
        ("Xd:3", [1, -1, 2, 0, -2, 1, 1, -1], [0, 49, 0, 0], 6),
    ])
    def test_pinned_dims_and_box(self, capsys, tmp_path, variety, coeffs, dims, box):
        # the adaptive radius is part of the JSON report, so it is pinned too
        div = tmp_path / "d.json"
        div.write_text(json.dumps({"coeffs": coeffs}))
        status, report = run_json(capsys, "cohomology", "compute",
                                  "--variety", variety, "--divisor", str(div))
        assert status == 0
        assert report["result"] == {"dims": dims, "box": box}

    def test_product_scanned_per_factor(self, capsys, tmp_path):
        # 16(-K) on dP3^3 has B(D) = 32: the whole box would hold 65^6 > 2^30
        # degrees, but each hexagon factor scans only 65^2.  Its sections are
        # the lattice points of 16 times the hexagon, 3*16^2 + 3*16 + 1 = 817
        # per factor, and 545338513 = 817^3.
        div = tmp_path / "d.json"
        div.write_text(json.dumps({"coeffs": [16] * 18}))
        status, report = run_json(capsys, "cohomology", "compute",
                                  "--variety", "dP:3*dP:3*dP:3", "--divisor", str(div))
        assert status == 0
        assert report["result"] == {"dims": [545338513, 0, 0, 0, 0, 0, 0], "box": 34}


def assert_input_error(capsys, *argv):
    """Exit 2 with exactly one line on stderr, an `error:` message."""
    status, out, err = run(capsys, *argv)
    assert status == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


class TestBadInput:
    def write(self, tmp_path, name, data):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    def test_coefficient_beyond_scan_range(self, capsys, tmp_path):
        for coeff in (2 ** 31, -2 ** 31, 2 ** 70):
            div = self.write(tmp_path, "d.json", {"coeffs": [coeff, 0, 0]})
            assert_input_error(capsys, "cohomology", "compute", "--variety", "P:2",
                               "--divisor", div)

    def test_box_over_point_budget(self, capsys, tmp_path):
        # a proven radius of 100000 asks for more than 2^30 degrees on P^2,
        # and is refused at once
        div = self.write(tmp_path, "d.json", {"coeffs": [100000, 0, 0]})
        start = time.perf_counter()
        assert_input_error(capsys, "cohomology", "compute", "--variety", "P:2",
                           "--divisor", div)
        assert time.perf_counter() - start < 1.0

    def test_summands_over_limit(self, capsys):
        # p^n = 10^10 summands are refused before any is enumerated; with the
        # default stabilization check the message names the flag that skips it
        start = time.perf_counter()
        assert_input_error(capsys, "frobenius", "split", "--variety", "P:2",
                           "--p", "100000")
        assert time.perf_counter() - start < 1.0
        status, _, err = run(capsys, "frobenius", "split", "--variety", "P:2",
                             "--p", "100000")
        assert "--no-stabilization-check" in err
        assert_input_error(capsys, "frobenius", "split", "--variety", "P:2",
                           "--p", "100000", "--no-stabilization-check")
        assert_input_error(capsys, "frobenius", "verify", "--variety", "P:2",
                           "--p", "5000")

    def test_verify_nonzero_divisor(self, capsys, tmp_path):
        # the invariants are stated for O, so a nonzero divisor is refused
        # before any split; a zero one is verified
        div = self.write(tmp_path, "d.json", {"coeffs": [1, 0, 0]})
        assert_input_error(capsys, "frobenius", "verify", "--variety", "P:2",
                           "--p", "2", "--divisor", div)
        div = self.write(tmp_path, "d.json", {"coeffs": [0, 0, 0]})
        status, _, _ = run(capsys, "frobenius", "verify", "--variety", "P:2",
                           "--p", "2", "--divisor", div)
        assert status == 0

    def test_empty_collection(self, capsys, tmp_path):
        coll = self.write(tmp_path, "c.json", {"bundles": []})
        for action in ("order", "verify"):
            assert_input_error(capsys, "collection", action, "--variety", "P:2",
                               "--collection", coll)
        assert_input_error(capsys, "collection", "product", "--variety", "P:2",
                           "--collection", coll, "--variety2", "P:1",
                           "--collection2", coll)

    def test_equivalent_bundles(self, capsys, tmp_path):
        coll = self.write(tmp_path, "c.json", {"bundles": [[1, 0, 0], [0, 1, 0]]})
        assert_input_error(capsys, "collection", "order", "--variety", "P:2",
                           "--collection", coll)

    def test_multi_fan(self, capsys, tmp_path):
        # unimodular cones that wind twice around the origin (Hattori-Masuda)
        fan = self.write(tmp_path, "f.json", {
            "dim": 2, "rays": [[1, 0], [0, 1], [-1, -2], [2, 3], [-1, -1], [0, -1]],
            "max_cones": [[i, (i + 1) % 6] for i in range(6)]})
        for argv in (("variety", "info", "--fan", fan),
                     ("frobenius", "split", "--fan", fan, "--p", "3"),
                     ("cohomology", "compute", "--fan", fan),
                     ("bondal", "check", "--fan", fan)):
            assert_input_error(capsys, *argv)

    def test_missing_and_overlapping_cones(self, capsys, tmp_path):
        for rays, cones in (([[1, 0], [0, 1], [-1, -1]], [[0, 1], [1, 2]]),
                            ([[1, 0], [0, 1], [-1, -1], [1, 1]],
                             [[0, 1], [1, 2], [0, 2], [0, 3]])):
            fan = self.write(tmp_path, "f.json",
                             {"dim": 2, "rays": rays, "max_cones": cones})
            assert_input_error(capsys, "variety", "info", "--fan", fan)

    def test_ray_in_no_maximal_cone(self, capsys, tmp_path):
        # P^2's cones with a fourth ray (1, 1) that no cone uses: info
        # reported Picard rank 2 and not Fano for P^2, with exit 0
        fan = self.write(tmp_path, "f.json",
                         {"dim": 2, "rays": [[1, 0], [0, 1], [-1, -1], [1, 1]],
                          "max_cones": [[0, 1], [1, 2], [0, 2]]})
        status, out, err = run(capsys, "variety", "info", "--fan", fan)
        assert status == 2 and out == "" and err == (
            f"error: fan in {fan} is not smooth and complete: "
            "ray 3 (1, 1) lies in no maximal cone\n")

    @pytest.mark.parametrize("descriptor", [
        "Xd:99", "Xd:15", "P:99999999999999999999", "P:257", "*".join(["dP:3"] * 8),
        "P:" + "9" * 5000, "P:256", "P:120"])
    def test_descriptor_over_limits(self, descriptor):
        # Xd:99 ended in a numpy memory error, P:99999999999999999999 was
        # killed for memory, P:256 ended in a numpy memory error in the cone
        # elimination and P:120 took about 20 s: each is refused before any
        # fan is built, here checked under a 1 GiB address-space cap
        script = ("import resource, sys, time; "
                  "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
                  "from toricsplit.cli import main; "
                  "start = time.perf_counter(); "
                  "status = main(['variety', 'info', sys.argv[1]]); "
                  "print(time.perf_counter() - start); sys.exit(status)")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run([sys.executable, "-c", script, descriptor], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
        assert "limit" in proc.stderr or "too many digits" in proc.stderr
        assert float(proc.stdout) < 1.0

    def test_no_maximal_cones(self, capsys, tmp_path):
        fan = self.write(tmp_path, "f.json",
                         {"dim": 2, "rays": [[1, 0], [0, 1], [-1, -1]], "max_cones": []})
        for argv in (("variety", "info", "--fan", fan),
                     ("cohomology", "compute", "--fan", fan),
                     ("bondal", "check", "--fan", fan)):
            assert_input_error(capsys, *argv)
        status, out, err = run(capsys, "variety", "info", "--fan", fan)
        assert status == 2 and err == (f"error: fan in {fan} is not smooth and "
                                       "complete: the fan has no maximal cones\n")

    @pytest.mark.parametrize("data", [
        {"dim": 2.0, "rays": [[1, 0], [0, 1], [-1, -1]],
         "max_cones": [[0, 1], [1, 2], [0, 2]]},
        {"dim": 2, "rays": [[1, 0], [0, 1.7], [-1, -1]],
         "max_cones": [[0, 1], [1, 2], [0, 2]]},
        {"dim": 2, "rays": [[1, 0], [0, 1], [-1, -1]],
         "max_cones": [[0, 1], [1, "2"], [0, 2]]},
        {"rays": [[1, 0], [0, 1], [-1, -1]], "max_cones": [[0, 1], [1, 2], [0, 2]]},
    ])
    def test_non_integer_fan(self, capsys, tmp_path, data):
        fan = self.write(tmp_path, "f.json", data)
        assert_input_error(capsys, "variety", "info", "--fan", fan)

    @pytest.mark.parametrize("coeffs", [[1.9, 0, 0], ["3", 0, 0], [True, 0, 0],
                                        [1.0, 0, 0], 3])
    def test_non_integer_divisor(self, capsys, tmp_path, coeffs):
        div = self.write(tmp_path, "d.json", {"coeffs": coeffs})
        assert_input_error(capsys, "cohomology", "compute", "--variety", "P:2",
                           "--divisor", div)

    @pytest.mark.parametrize("bundles", [[[0, 0, 0], [1.0, 0, 0]],
                                         [[0, 0, 0], [False, 0, 0]],
                                         [[0, 0, 0], "100"], [0, 1]])
    def test_non_integer_collection(self, capsys, tmp_path, bundles):
        coll = self.write(tmp_path, "c.json", {"bundles": bundles})
        assert_input_error(capsys, "collection", "verify", "--variety", "P:2",
                           "--collection", coll)

    def test_fan_beyond_int64_is_validated_exactly(self, capsys, tmp_path):
        # the Hirzebruch surface F_a with a = 2^40: its cone inverses hold
        # entries of 2^40, and validation works on them in exact integers
        a = 2 ** 40
        fan = self.write(tmp_path, "f.json", {
            "dim": 2, "rays": [[1, 0], [0, 1], [-1, a], [0, -1]],
            "max_cones": [[0, 1], [1, 2], [2, 3], [0, 3]]})
        status, report = run_json(capsys, "variety", "info", "--fan", fan)
        assert status == 0
        assert report["result"]["picard_rank"] == 2
        assert report["result"]["max_cones"] == 4

    def test_collection_refusals(self, capsys, tmp_path):
        # on dP:3*dP:3 a difference of 100000 Z_0 asks for (2 * 100000 + 1)^2
        # degrees of the first factor, and one of 2^31 Z_0 leaves int64
        zero = [0] * 12
        far = [100000] + [0] * 11
        near = [0, 0, 0, 1, 1] + [0] * 7
        coll = self.write(tmp_path, "c.json", {"bundles": [zero, far, near]})
        for action in ("order", "verify"):
            status, out, err = run(capsys, "collection", action, "--variety", "dP:3*dP:3",
                                   "--collection", coll)
            assert (status, out) == (2, "")
            assert err == ("error: degree box of radius 100000 has 40000400001 points, "
                           "more than the budget of 1073741824\n")
        half = 2 ** 30
        coll = self.write(tmp_path, "c.json",
                          {"bundles": [[half] + [0] * 11, [-half] + [0] * 11]})
        status, out, err = run(capsys, "collection", "order", "--variety", "dP:3*dP:3",
                               "--collection", coll)
        assert (status, out) == (2, "")
        assert err == ("error: divisor coefficients must be below 2^31 in absolute value "
                       "for the int64 degree scan\n")

    def test_cohomology_on_fans_beyond_int64(self, capsys, tmp_path):
        # O on F_a contributes only in degree 0, the proven radius: it is
        # answered for a = 2^40, and a = 2^70 leaves int64 with exit 2
        def hirzebruch(a):
            return self.write(tmp_path, "f.json", {
                "dim": 2, "rays": [[1, 0], [0, 1], [-1, a], [0, -1]],
                "max_cones": [[0, 1], [1, 2], [2, 3], [0, 3]]})
        status, report = run_json(capsys, "cohomology", "compute", "--fan", hirzebruch(2 ** 40))
        assert status == 0
        assert report["result"] == {"dims": [1, 0, 0], "box": 2}
        assert_input_error(capsys, "cohomology", "compute", "--fan", hirzebruch(2 ** 70))


class TestCollection:
    def write_collection(self, tmp_path, bundles, name="c.json"):
        path = tmp_path / name
        path.write_text(json.dumps({"bundles": [list(b) for b in bundles]}))
        return str(path)

    def test_verify_pass(self, capsys, tmp_path):
        coll = self.write_collection(tmp_path, [(0, 0), (0, 1)])
        status, report = run_json(capsys, "collection", "verify",
                                  "--variety", "P:1", "--collection", coll)
        assert status == 0
        assert report["result"]["pass"] is True

    def test_verify_fail(self, capsys, tmp_path):
        coll = self.write_collection(tmp_path, [(0, 1), (0, 0)])
        status, report = run_json(capsys, "collection", "verify",
                                  "--variety", "P:1", "--collection", coll)
        assert status == 1
        assert report["result"]["pass"] is False

    def test_order(self, capsys, tmp_path):
        coll = self.write_collection(tmp_path, [(0, 1), (0, 0)])
        status, report = run_json(capsys, "collection", "order",
                                  "--variety", "P:1", "--collection", coll)
        assert status == 0
        assert report["result"]["order"] == [[0, 0], [0, 1]]

    def test_order_failure(self, capsys, tmp_path):
        coll = self.write_collection(tmp_path, [(0, 0), (0, 2)])
        status, report = run_json(capsys, "collection", "order",
                                  "--variety", "P:1", "--collection", coll)
        assert status == 1
        assert report["result"]["ok"] is False

    def test_no_fixed_box(self, capsys, tmp_path):
        # with --box 0 verify passed this pair and order put O(2, -1, 0)
        # before O; at the proven radius Hom(O(2, -1, 0), O) has dims [3, 0, 0]
        coll = self.write_collection(tmp_path, [(2, -1, 0), (0, 0, 0)])
        for action in ("verify", "order"):
            status, _, err = run(capsys, "collection", action, "--variety", "P:2",
                                 "--collection", coll, "--box", "0")
            assert status == 2 and "--box" in err
        status, report = run_json(capsys, "collection", "verify",
                                  "--variety", "P:2", "--collection", coll)
        assert status == 1
        assert report["result"]["violations"] == [
            {"kind": "backward", "j": 0, "k": 1, "dims": [3, 0, 0]}]

    def test_product(self, capsys, tmp_path):
        c1 = self.write_collection(tmp_path, [(0, 0), (0, 1)], "c1.json")
        c2 = self.write_collection(tmp_path, [(0, 0), (0, 1)], "c2.json")
        status, report = run_json(capsys, "collection", "product",
                                  "--variety", "P:1", "--collection", c1,
                                  "--variety2", "P:1", "--collection2", c2)
        assert status == 0
        assert len(report["result"]["bundles"]) == 4
        assert report["result"]["fan"]["dim"] == 2


class TestInterface:
    def test_byte_identical_json(self, capsys):
        _, out1, _ = run(capsys, "frobenius", "split", "--variety", "Xd:3",
                         "--p", "5", "--format", "json")
        _, out2, _ = run(capsys, "frobenius", "split", "--variety", "Xd:3",
                         "--p", "5", "--format", "json")
        assert out1 == out2

    def test_table_format(self, capsys):
        status, out, _ = run(capsys, "variety", "info", "P:2",
                             "--format", "table")
        assert status == 0
        assert "picard_rank: 1" in out

    def test_usage_error_exit_2(self, capsys):
        assert main(["frobenius", "split"]) == 2          # no fan source
        assert main(["no-such-command"]) == 2
        assert main(["frobenius", "split", "--variety", "P:1",
                     "--fan", "x.json"]) == 2             # both sources

    def test_missing_file(self, capsys):
        status, _, err = run(capsys, "cohomology", "compute", "--variety", "P:1",
                             "--divisor", "/nonexistent/d.json")
        assert status == 2

    def test_threads_flag_rejected(self, capsys):
        status, _, err = run(capsys, "variety", "info", "P:1", "--threads", "4")
        assert status == 2
        assert "--threads" in err


class TestParserReuse:
    COMMANDS = (("variety", "info", "Xd:3"),
                ("bondal", "check", "--variety", "F:2", "--format", "table"))

    def outputs(self, capsys, fresh):
        results = []
        for argv in (("no-such-command",),) + self.COMMANDS:
            if fresh:
                cli._build_parser.cache_clear()
            results.append(run(capsys, *argv))
        return results

    def test_same_bytes_as_fresh_parsers(self, capsys):
        # a usage error, a good command and another subcommand through one
        # parser print what fresh parsers print
        reused = self.outputs(capsys, fresh=False)
        fresh = self.outputs(capsys, fresh=True)
        assert reused[0][0] == 2
        strip = [(status, out, err.split("wall-clock:")[0]) for status, out, err in reused]
        assert strip == [(status, out, err.split("wall-clock:")[0])
                         for status, out, err in fresh]
        assert cli._build_parser() is cli._build_parser()


class TestBrokenPipe:
    @pytest.mark.parametrize("unbuffered", ["", "1"])
    def test_reader_closing_early(self, unbuffered):
        # like `toricsplit frobenius split ... | head -2`: the reader is gone
        # before the report is written
        env = dict(os.environ, PYTHONUNBUFFERED=unbuffered)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        proc = subprocess.Popen(
            [sys.executable, "-m", "toricsplit.cli", "frobenius", "split",
             "--variety", "Xd:3", "--p", "3"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert "Traceback" not in err

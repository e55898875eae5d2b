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
        div = tmp_path / "d.json"
        div.write_text(json.dumps({"coeffs": [1, 1]}))
        status, report = run_json(capsys, "cohomology", "compute",
                                  "--variety", "P:1", "--divisor", str(div),
                                  "--box", "7")
        assert status == 0
        assert report["result"] == {"dims": [3, 0], "box": 7}

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

    def test_negative_box(self, capsys, tmp_path):
        div = self.write(tmp_path, "d.json", {"coeffs": [3, 0, 0]})
        assert_input_error(capsys, "cohomology", "compute", "--variety", "P:2",
                           "--divisor", div, "--box", "-1")

    def test_coefficient_beyond_scan_range(self, capsys, tmp_path):
        for coeff in (2 ** 31, -2 ** 31, 2 ** 70):
            div = self.write(tmp_path, "d.json", {"coeffs": [coeff, 0, 0]})
            assert_input_error(capsys, "cohomology", "compute", "--variety", "P:2",
                               "--divisor", div)

    def test_box_over_point_budget(self, capsys, tmp_path):
        # an adaptive start radius of 100001 and a fixed radius of 10^6 both
        # ask for more than 2^30 degrees on P^2; each is refused at once
        for coeffs, extra in (([100000, 0, 0], ()), ([3, 0, 0], ("--box", "1000000"))):
            div = self.write(tmp_path, "d.json", {"coeffs": coeffs})
            start = time.perf_counter()
            assert_input_error(capsys, "cohomology", "compute", "--variety", "P:2",
                               "--divisor", div, *extra)
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

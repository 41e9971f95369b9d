"""Command-line interface: exit codes, file outputs, reproducibility."""

import argparse
import ast
import inspect
import json
import math
import subprocess
import sys
import time
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from monogamy import (
    Behavior,
    Scenario,
    behavior_to_json_dict,
    is_no_signalling,
    localpoly,
    model,
    pr_box,
    sharing,
    state_to_json_dict,
    uniform_box,
)
from monogamy import cli
from monogamy.cli import main
from conftest import chsh_scenario, child_env, random_behavior


def write_behavior(path, behavior):
    path.write_text(json.dumps(behavior_to_json_dict(behavior)))
    return str(path)


def write_state(path, rho):
    path.write_text(json.dumps(state_to_json_dict(rho)))
    return str(path)


@pytest.fixture
def pr_path(tmp_path):
    return write_behavior(tmp_path / "pr.json", pr_box())


@pytest.fixture
def uniform_path(tmp_path):
    return write_behavior(tmp_path / "uniform.json", uniform_box(chsh_scenario()))


class TestValidate:
    def test_pass(self, uniform_path, capsys):
        assert main(["validate", "--in", uniform_path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"]

    def test_failing_table(self, tmp_path, capsys):
        data = behavior_to_json_dict(uniform_box(chsh_scenario()))
        data["table"]["0,0"] = [0.3, 0.3, 0.3, 0.3]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert main(["validate", "--in", str(path)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["normalization_deviations"][0]["context"] == [0, 0]

    def test_malformed_json_diagnostics(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"parties": 2,\n  "settings": [2 2]}')
        assert main(["validate", "--in", str(path)]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err and "column" in err

    def test_missing_table_key(self, tmp_path, capsys):
        path = tmp_path / "nokey.json"
        path.write_text('{"parties": 2, "settings": [2, 2], "outcomes": [2, 2]}')
        assert main(["validate", "--in", str(path)]) == 2
        assert "table" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tol_rejected(self, tmp_path, capsys, tol):
        # A NaN tolerance would pass every comparison and report a table with
        # negative entries as valid.
        data = behavior_to_json_dict(uniform_box(chsh_scenario()))
        data["table"]["0,0"] = [-0.5, 0.5, 0.5, 0.5]
        path = tmp_path / "negative.json"
        path.write_text(json.dumps(data))
        assert main(["validate", "--in", str(path), "--tol", tol]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--tol" in captured.err


class TestNsAndLocal:
    def test_pr_is_ns(self, pr_path, capsys):
        assert main(["nstest", "--in", pr_path]) == 0
        assert json.loads(capsys.readouterr().out)["is_no_signalling"]

    def test_nstest_makes_one_definition_pass(self, tmp_path, pr_path, capsys, rng,
                                              definition_passes):
        # Validity and signalling come from one pass at --tol; the payloads,
        # messages and exit codes are those of the two checks run apart.
        signalling = random_behavior(rng, chsh_scenario())
        report = is_no_signalling(signalling, 1e-9)
        unnormalized = Behavior(chsh_scenario(), np.full((2, 2, 2, 2), 0.3))
        cases = [
            (pr_path, 0, {"is_no_signalling": True, "max_violation": 0.0}, ""),
            (write_behavior(tmp_path / "signalling.json", signalling), 1,
             {"is_no_signalling": False, "max_violation": report.max_violation,
              "witness": json.loads(json.dumps(asdict(report.witness)))}, ""),
            (write_behavior(tmp_path / "unnormalized.json", unnormalized), 2, None,
             "error: input behavior failed validation: max positivity violation 0.000e+00, "
             "max normalization deviation 2.000e-01\n"),
        ]
        for path, code, payload, err in cases:
            definition_passes.clear()
            assert main(["nstest", "--in", path]) == code
            captured = capsys.readouterr()
            assert (json.loads(captured.out) if captured.out else None) == payload
            assert captured.err == err
            assert len(definition_passes) == 1

    def test_pr_not_local(self, pr_path, capsys):
        assert main(["localtest", "--in", pr_path]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert not payload["local"] and payload["score"] > 0

    def test_uniform_local(self, uniform_path, capsys):
        assert main(["localtest", "--in", uniform_path]) == 0

    def test_wide_box_refused_before_allocating(self, tmp_path, monkeypatch, capsys):
        # 1 960 entries and 2^19 strategies, but an 8.2 GB strategy matrix.
        # The peak is read above the memory held when the membership call
        # starts, past the file's parse.
        wide = uniform_box(Scenario(3, (7, 7, 5), (2, 2, 2)))
        path = write_behavior(tmp_path / "wide.json", wide)
        decompose = localpoly.local_decomposition
        held = []

        def from_here(b):
            tracemalloc.reset_peak()
            held.append(tracemalloc.get_traced_memory()[0])
            return decompose(b)

        monkeypatch.setattr(localpoly, "local_decomposition", from_here)
        start = time.perf_counter()
        tracemalloc.start()
        try:
            assert main(["localtest", "--in", path]) == 2
            peak = tracemalloc.get_traced_memory()[1] - held[0]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 1.0
        assert peak < 2**16
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: strategy matrix size exceeds cap {localpoly.STRATEGY_CAP}\n"


class TestShare:
    def test_pr_infeasible_at_two(self, pr_path, capsys):
        assert main(["share", "--in", pr_path, "--n", "2", "--mode", "ns"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "infeasible"
        assert payload["score"] > 0

    def test_uniform_feasible_with_certificate(self, uniform_path, tmp_path, capsys):
        cert = tmp_path / "cert.json"
        code = main([
            "share", "--in", uniform_path, "--n", "3", "--mode", "ns",
            "--cert-out", str(cert),
        ])
        assert code == 0
        # Round trip: the certificate parses as a behavior file.
        assert main(["validate", "--in", str(cert)]) == 0

    def test_uniform_feasible_at_five(self, uniform_path, capsys):
        # 224 x 63 positivity rows x columns for a 4 096-entry certificate.
        assert main(["share", "--in", uniform_path, "--n", "5", "--mode", "ns"]) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "feasible"

    def test_unrestricted_always_succeeds(self, pr_path, capsys):
        assert main(["share", "--in", pr_path, "--n", "4",
                     "--mode", "unrestricted"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["symmetry_residual"] == 0.0

    def test_seven_clones_finish(self, uniform_path, pr_path, capsys):
        # 480 x 108 positivity rows x columns for a 65 536-entry certificate.
        for path, code in ((uniform_path, 0), (pr_path, 1)):
            start = time.perf_counter()
            assert main(["share", "--in", path, "--n", "7", "--mode", "ns"]) == code
            assert time.perf_counter() - start < 10.0
        capsys.readouterr()

    def test_eight_clones_finish(self, uniform_path, pr_path, capsys):
        # 660 x 135 positivity rows x columns for a 262 144-entry certificate.
        assert main(["share", "--in", uniform_path, "--n", "8", "--mode", "ns"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "feasible"
        assert payload["symmetry_residual"] <= 1e-6 and payload["marginal_residual"] <= 1e-6
        assert main(["share", "--in", pr_path, "--n", "8", "--mode", "ns"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "infeasible"
        assert payload["score"] == pytest.approx(361 / 900, abs=1e-9)

    def test_nine_clones_refused_before_rows(self, uniform_path, monkeypatch, capsys):
        # 4^10 = 1 048 576 certificate entries exceed the table cap.
        built = []
        for name in ("symmetric_cg_marginal_split", "symmetric_cg_index"):
            monkeypatch.setattr(sharing, name, lambda *args: built.append(args))
        assert main(["share", "--in", uniform_path, "--n", "9", "--mode", "ns"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: table size exceeds cap {model.DEFAULT_TABLE_CAP}\n"
        assert built == []

    def test_huge_clone_count_refused_at_once(self, pr_path, capsys):
        # The refusal stops multiplying at the cap, so a million clones
        # cost no million-digit table size.
        start = time.perf_counter()
        assert main(["share", "--in", pr_path, "--n", "1000000", "--mode", "ns"]) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: table size exceeds cap {model.DEFAULT_TABLE_CAP}\n"

    @pytest.mark.parametrize("mode", ["ns", "unrestricted"])
    def test_input_checked_once(self, tmp_path, mode, capsys, definition_passes):
        # --tol is the LP threshold; the input is checked once, at the
        # library's tolerance, and the refusal names the deviation.
        table = uniform_box(chsh_scenario()).table.copy()
        table[0, 0, 0, 0] += 5e-9
        path = write_behavior(tmp_path / "off.json", Behavior(chsh_scenario(), table))
        assert main(["share", "--in", path, "--n", "2", "--mode", mode]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: input behavior failed validation: max positivity violation 0.000e+00, "
            "max normalization deviation 5.000e-09\n"
        )
        assert len(definition_passes) == 1
        definition_passes.clear()
        assert main(["share", "--in", write_behavior(tmp_path / "pr.json", pr_box()),
                     "--n", "2", "--mode", mode]) == (1 if mode == "ns" else 0)
        capsys.readouterr()
        assert len(definition_passes) == 1

    def test_out_of_memory_is_an_error(self, uniform_path, monkeypatch, capsys):
        # Exit 1 would read as "not shareable".
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(sharing, "is_n_shareable", exhausted)
        assert main(["share", "--in", uniform_path, "--n", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: out of memory\n"


class TestChsh:
    def test_tsirelson_print(self, capsys):
        code = main([
            "chsh", "--state", "phi_plus",
            "--angles", "0,1.5708,0.7854,-0.7854",
        ])
        assert code == 0
        value = float(capsys.readouterr().out.strip())
        assert value == pytest.approx(2.828427, abs=1e-5)

    def test_behavior_input(self, pr_path, capsys):
        assert main(["chsh", "--in", pr_path]) == 0
        assert float(capsys.readouterr().out.strip()) == pytest.approx(4.0)

    def test_three_party_check_report_array(self, tmp_path, capsys):
        from monogamy import Scenario, mixture, product_box

        u1 = uniform_box(Scenario(1, (2,), (2,)))
        mild = product_box([mixture([pr_box(), uniform_box(chsh_scenario())],
                                    [0.5, 0.5]), u1])
        path = write_behavior(tmp_path / "mild.json", mild)
        assert main(["chsh", "--in", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["chsh_ab"] == pytest.approx(2.0)
        names = [c["inequality"] for c in payload["checks"]]
        assert names == ["NS-13", "TV-14", "KEY-31"]
        assert all(c["passed"] for c in payload["checks"])

        # The extremal box passes the no-signalling trade-off but fails the
        # quantum one; the command reports that with exit code 1.
        extremal = product_box([pr_box(), u1])
        path = write_behavior(tmp_path / "extremal.json", extremal)
        assert main(["chsh", "--in", path]) == 1
        payload = json.loads(capsys.readouterr().out)
        by_name = {c["inequality"]: c for c in payload["checks"]}
        assert by_name["NS-13"]["passed"]
        assert not by_name["TV-14"]["passed"]

    @pytest.mark.parametrize("tol, code", [("1e-9", 1), ("1e-6", 0)])
    def test_three_party_checks_use_tol(self, tol, code, tmp_path, capsys):
        # CHSH_ab is 2 sqrt(2) + 2e-8, so TV-14 and KEY-31 miss by 1.13e-7:
        # a failure at 1e-9, within 1e-6.
        from monogamy import Scenario, mixture, product_box

        p = math.sqrt(2) / 2 + 5e-9
        box = product_box([mixture([pr_box(), uniform_box(chsh_scenario())], [p, 1 - p]),
                           uniform_box(Scenario(1, (2,), (2,)))])
        path = write_behavior(tmp_path / "edge.json", box)
        assert main(["chsh", "--in", path, "--tol", tol]) == code
        by_name = {c["inequality"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
        for name in ("TV-14", "KEY-31"):
            assert by_name[name]["slack"] == pytest.approx(-1.13e-7, abs=1e-9)
            assert by_name[name]["passed"] == (code == 0)

    def test_missing_angles(self, capsys):
        assert main(["chsh", "--state", "phi_plus"]) == 2

    def test_negative_first_angle_as_separate_value(self, capsys):
        angles = "-0.7854,0,0.7854,1.5708"
        assert main(["chsh", "--state", "phi_plus", f"--angles={angles}"]) == 0
        joined = capsys.readouterr().out
        assert main(["chsh", "--state", "phi_plus", "--angles", angles]) == 0
        assert capsys.readouterr().out == joined

    def test_state_file_input(self, tmp_path, capsys):
        from monogamy import phi_plus

        path = write_state(tmp_path / "phi_plus.json", phi_plus())
        angles = ",".join(str(a) for a in (0.0, math.pi / 2, math.pi / 4, -math.pi / 4))
        code = main(["chsh", "--in", path, "--angles", angles])
        assert code == 0
        value = float(capsys.readouterr().out.strip())
        assert value == pytest.approx(2 * math.sqrt(2), abs=1e-9)


class TestCg:
    def test_state_evaluation(self, capsys):
        angles = ",".join(str(a) for a in [0.5, 2.1, 0.0, -1.0, 1.0, 0.0, -1.0, 1.0, 0.0])
        code = main(["cg", "--state", "cg", "--mu", "0.9", "--angles", angles])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cg_ab"] == pytest.approx(payload["cg_ac"], abs=1e-9)

    def test_state_file_input(self, tmp_path, capsys):
        from monogamy import cg_state

        path = write_state(tmp_path / "cg.json", cg_state(0.9))
        angles = ",".join(str(a) for a in [0.5, 2.1, 0.0, -1.0, 1.0, 0.0, -1.0, 1.0, 0.0])
        assert main(["cg", "--in", path, "--angles", angles]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cg_ab"] == pytest.approx(payload["cg_ac"], abs=1e-9)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_angles_rejected(self, capsys, bad):
        angles = ",".join(["0", bad] + ["0"] * 7)
        assert main(["cg", "--state", "w", "--angles", angles]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--angles" in captured.err

    def test_negative_first_angle_as_separate_value(self, capsys):
        angles = "-0.5,2.1,0,-1,1,0,-1,1,0"
        args = ["cg", "--state", "cg", "--mu", "0.9"]
        assert main(args + [f"--angles={angles}"]) == 0
        joined = capsys.readouterr().out
        assert main(args + ["--angles", angles]) == 0
        assert capsys.readouterr().out == joined

    def test_behavior_evaluation(self, tmp_path, capsys):
        from monogamy import Scenario, deterministic_box

        b = deterministic_box(Scenario(2, (3, 3), (2, 2)), ((0, 0, 0), (0, 0, 0)))
        path = write_behavior(tmp_path / "det.json", b)
        assert main(["cg", "--in", path]) == 0
        assert json.loads(capsys.readouterr().out)["cg"] == pytest.approx(4.0)


class TestCkw:
    def test_w_state_report(self, capsys):
        assert main(["ckw", "--state", "w", "--pivot", "0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cut_tangle"] == pytest.approx(8 / 9, abs=1e-9)
        assert payload["pairwise_tangles"] == pytest.approx([4 / 9, 4 / 9], abs=1e-9)
        assert payload["residual"] == pytest.approx(0.0, abs=1e-9)

    def test_state_file_input(self, tmp_path, capsys):
        from monogamy import ghz, state_to_json_dict

        path = tmp_path / "ghz.json"
        path.write_text(json.dumps(state_to_json_dict(ghz())))
        assert main(["ckw", "--in", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["residual"] == pytest.approx(1.0, abs=1e-9)

    def test_two_qubit_rejected(self, capsys):
        assert main(["ckw", "--state", "phi_plus"]) == 2

    @pytest.mark.parametrize("command", ["ckw", "cg"])
    def test_non_finite_state_file_refused(self, command, tmp_path, capsys):
        from monogamy import ghz

        data = state_to_json_dict(ghz())
        data["entries"][0] = [math.nan, 0.0]
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(data))
        assert main([command, "--in", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: density matrix has non-finite entries\n"


    ANGLES = {
        "chsh": ["--angles", "0,1.5708,0.7854,-0.7854"],
        "cg": ["--angles", "0.5,2.1,0,-1,1,0,-1,1,0"],
        "ckw": [],
    }

    @pytest.mark.parametrize("command", ["ckw", "chsh", "cg"])
    @pytest.mark.parametrize("entry", [["a", 0.0], 1.0, [1.0, 0.0, 0.0]],
                             ids=["string", "bare-number", "three-numbers"])
    def test_malformed_entry_refused(self, command, entry, tmp_path, capsys):
        from monogamy import ghz, phi_plus

        data = state_to_json_dict(phi_plus() if command == "chsh" else ghz())
        data["entries"][1] = entry
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert main([command, "--in", str(path), *self.ANGLES[command]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: entry 1 must be a pair of real numbers (re, im)\n"


class TestSweep:
    def test_ns_csv_values(self, tmp_path):
        out = tmp_path / "ns.csv"
        code = main(["sweep", "--class", "ns", "--grid", "8", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "theta,max_value,class"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 8
        by_theta = {float(r[0]): float(r[1]) for r in rows}
        assert by_theta[0.0] == pytest.approx(4.0, abs=1e-6)
        assert by_theta[math.pi / 2] == pytest.approx(4.0, abs=1e-6)
        assert all(r[2] == "ns" for r in rows)

    @pytest.mark.parametrize("argv", [
        ["sweep", "--class", "separable-orthogonal", "--grid", "4",
         "--restarts", "3", "--seed", "11"],
        ["cgsearch", "--grid", "11", "--restarts", "2", "--seed", "5"],
    ], ids=["sweep", "cgsearch"])
    def test_byte_identical_reruns(self, argv, tmp_path):
        out1, out2 = tmp_path / "a.out", tmp_path / "b.out"
        for out in (out1, out2):
            assert main(argv + ["--out", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("argv, message", [
        (["sweep", "--class", "ns", "--grid", "100000000"], "--grid must be at most 10000"),
        (["sweep", "--class", "local", "--grid", "10001"], "--grid must be at most 10000"),
        (["cgsearch", "--grid", "100000000", "--restarts", "0"], "--grid must be at most 10000"),
        (["sweep", "--class", "quantum", "--grid", "2", "--restarts", "100000000"],
         "--grid * (--restarts + 3) must be at most 10000"),
        (["sweep", "--class", "separable-orthogonal", "--grid", "1000", "--restarts", "8"],
         "--grid * (--restarts + 3) must be at most 10000"),
        (["cgsearch", "--grid", "3334", "--restarts", "0"],
         "--grid * (--restarts + 3) must be at most 10000"),
    ], ids=["ns-huge-grid", "local-grid", "cgsearch-grid", "quantum-restarts",
            "separable-starts", "cgsearch-starts"])
    def test_loop_sizes_above_the_ceiling_are_refused(self, argv, message, monkeypatch, capsys):
        """Refused with exit 2 before the command runs."""
        import monogamy.cli as cli

        def refuse(args):
            raise AssertionError("the command should not run")

        monkeypatch.setattr(cli, "cmd_sweep", refuse)
        monkeypatch.setattr(cli, "cmd_cgsearch", refuse)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}")

    def test_loop_sizes_at_the_ceiling_are_admitted(self, monkeypatch):
        """The largest admitted loops reach their command, with the grid
        and restarts as given; restarts do not count for an NS sweep."""
        import monogamy.cli as cli

        calls = []
        for name in ("cmd_sweep", "cmd_cgsearch"):
            monkeypatch.setattr(cli, name, lambda args: calls.append(args) or 0)
        assert main(["sweep", "--class", "ns", "--grid", "10000", "--restarts", "100000"]) == 0
        assert main(["sweep", "--class", "quantum", "--grid", "2", "--restarts", "4997"]) == 0
        assert main(["cgsearch", "--grid", "3333", "--restarts", "0"]) == 0
        assert [(args.grid, args.restarts) for args in calls] == [
            (10000, 100000), (2, 4997), (3333, 0)
        ]

    def test_separable_without_restarts_is_an_error(self, capsys):
        code = main(["sweep", "--class", "separable-orthogonal", "--grid", "4", "--restarts", "0"])
        assert code == 2
        captured = capsys.readouterr()
        assert "at least one restart" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("grid", ["0", "-1"])
    def test_grid_below_one_is_an_error(self, grid, capsys):
        assert main(["sweep", "--class", "ns", "--grid", grid]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --grid must be at least 1")
        assert captured.out == ""

    def test_negative_restarts_is_an_error(self, capsys):
        assert main(["sweep", "--class", "quantum", "--grid", "2", "--restarts", "-1"]) == 2
        assert capsys.readouterr().err == "error: --restarts must be non-negative\n"

    def test_negative_seed_is_an_error(self, capsys):
        assert main(["sweep", "--class", "quantum", "--grid", "2", "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "error: --seed must be non-negative\n"

    def test_local_sweep(self, tmp_path):
        out = tmp_path / "local.csv"
        assert main(["sweep", "--class", "local", "--grid", "4", "--out", str(out)]) == 0
        values = [float(line.split(",")[1]) for line in out.read_text().splitlines()[1:]]
        assert values[0] == pytest.approx(2.0)


class TestPbProbeCommand:
    def test_findings(self, capsys):
        assert main(["pbprobe"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["sign_values"]) == 8
        assert payload["max_abs_sum"] == pytest.approx(24.0, abs=1e-6)
        assert payload["t_star"] == pytest.approx(10.0, abs=1e-6)


class TestCgSearchCommand:
    def test_finds_violation(self, capsys):
        code = main(["cgsearch", "--grid", "11", "--restarts", "2", "--seed", "5"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["double_violation"]
        assert payload["min_value"] > 4.0

    def test_empty_grid_is_an_error(self, capsys):
        # Exit 1 means a failed check; an empty mu grid is a usage error.
        assert main(["cgsearch", "--grid", "0"]) == 2
        assert "mu" in capsys.readouterr().err

    def test_negative_grid_and_restarts_are_errors(self, capsys):
        assert main(["cgsearch", "--grid", "-1"]) == 2
        assert capsys.readouterr().err.startswith("error: --grid must be at least 1")
        assert main(["cgsearch", "--grid", "2", "--restarts", "-1"]) == 2
        assert capsys.readouterr().err == "error: --restarts must be non-negative\n"

    def test_negative_seed_is_an_error(self, capsys):
        assert main(["cgsearch", "--grid", "2", "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "error: --seed must be non-negative\n"

    def test_tol_is_not_an_option(self, capsys):
        # The search reads no tolerance, so it offers none to set.
        assert main(["cgsearch", "--grid", "1", "--restarts", "0", "--tol", "1e-9"]) == 2
        assert "unrecognized arguments: --tol 1e-9" in capsys.readouterr().err


class TestUsage:
    def test_unknown_flag_rejected(self, capsys):
        assert main(["validate", "--bogus", "x"]) == 2

    def test_unknown_command_rejected(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_file(self, capsys):
        assert main(["validate", "--in", "/nonexistent/behavior.json"]) == 2

    @pytest.mark.parametrize("argv", [["validate"], ["nstest"], ["localtest"], ["share", "--n", "2"]],
                             ids=["validate", "nstest", "localtest", "share"])
    def test_missing_in_refused(self, argv, capsys):
        # Refused as chsh refuses a missing state, not with a TypeError.
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: a behavior file is required (--in)\n"

    @pytest.mark.parametrize("argv", [
        ["chsh", "--state", "singlet", "--mu", "0.3", "--angles=0,1,2,3"],
        ["cg", "--in", "BOX", "--mu", "0.5"],
        ["ckw", "--state", "w", "--mu", "0.9"],
        ["cg", "--mu", "0.9", "--angles=0,0,0,0,0,0,0,0,0"],
    ], ids=["chsh-singlet", "cg-file", "ckw-w", "cg-no-state"])
    def test_mu_without_cg_state_refused(self, argv, pr_path, capsys):
        # --mu parametrizes only the cg family; elsewhere it would be ignored.
        assert main([pr_path if arg == "BOX" else arg for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --mu applies only to --state cg\n"

    @pytest.mark.parametrize("argv", [
        ["chsh", "--in", "BOX", "--angles", "9,9,9,9"],
        ["cg", "--in", "BOX", "--angles", "0,0,0,0,0,0,0,0,0"],
    ], ids=["chsh", "cg"])
    def test_angles_with_behavior_refused(self, argv, pr_path, capsys):
        # A behavior file has no measurements to set; the angles would be ignored.
        assert main([pr_path if arg == "BOX" else arg for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --angles applies only to a state\n"

    def test_unreadable_in_refused(self, tmp_path, capsys):
        # A directory given as --in is an error naming the path, not a traceback.
        assert main(["validate", "--in", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot read {tmp_path}: Is a directory\n"

    @pytest.mark.parametrize("argv, flag", [
        (["nstest", "--in", "BOX"], "--out"),
        (["share", "--in", "BOX", "--n", "2"], "--out"),
        (["share", "--in", "BOX", "--n", "2"], "--cert-out"),
    ], ids=["nstest-out", "share-out", "share-cert-out"])
    def test_unwritable_output_refused(self, argv, flag, uniform_path, tmp_path, capsys):
        target = tmp_path / "missing" / "x.json"
        argv = [uniform_path if arg == "BOX" else arg for arg in argv]
        assert main(argv + [flag, str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: cannot write {target}: No such file or directory\n"
        assert captured.out == ""
        assert not target.parent.exists()

    @pytest.mark.parametrize("key, value, message", [
        ("settings", [2.7, 2], "behavior JSON 'settings' entry must be a JSON integer, got 2.7"),
        ("outcomes", [2, "2"], "behavior JSON 'outcomes' entry must be a JSON integer, got '2'"),
        ("parties", True, "behavior JSON 'parties' must be a JSON integer, got True"),
    ], ids=["settings-float", "outcomes-string", "parties-bool"])
    def test_non_integer_behavior_counts_refused(self, key, value, message, tmp_path, capsys):
        data = behavior_to_json_dict(pr_box())
        data[key] = value
        path = tmp_path / "box.json"
        path.write_text(json.dumps(data))
        for command in ("validate", "nstest", "localtest", "chsh"):
            assert main([command, "--in", str(path)]) == 2, command
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", f"error: {path}: {message}\n"), command

    def test_non_integer_state_dimension_refused(self, tmp_path, capsys):
        from monogamy import ghz

        data = state_to_json_dict(ghz())
        data["dimension"] = 8.9
        path = tmp_path / "state.json"
        path.write_text(json.dumps(data))
        assert main(["ckw", "--in", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {path}: state JSON 'dimension' must be a JSON integer, got 8.9\n")

    @pytest.mark.parametrize("row, refused", [
        ([{"a": 1}, 0, 0, 0], "entry 0 must be a JSON number, got {'a': 1}"),
        (["0.5", "0", "0", "0.5"], "entry 0 must be a JSON number, got '0.5'"),
        ([0.5, False, 0, 0.5], "entry 1 must be a JSON number, got False"),
        ([0.5, 0, None, 0.5], "entry 2 must be a JSON number, got None"),
        ({"0": 0.5}, "needs a list of 4 probabilities"),
    ], ids=["object", "string", "bool", "null", "object-row"])
    def test_non_number_probability_refused(self, row, refused, tmp_path, capsys):
        data = behavior_to_json_dict(pr_box())
        data["table"]["1,0"] = row
        path = tmp_path / "box.json"
        path.write_text(json.dumps(data))
        assert main(["validate", "--in", str(path)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {path}: context '1,0' {refused}\n")

    def test_duplicate_context_refused(self, tmp_path, capsys):
        # "0, 1" and "0,1" parse to one context; the later row would replace
        # the earlier one.
        data = behavior_to_json_dict(pr_box())
        data["table"]["0, 1"] = [0.5, 0.5, 0.0, 0.0]
        path = tmp_path / "box.json"
        path.write_text(json.dumps(data))
        assert main(["validate", "--in", str(path)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", f"error: {path}: context keys '0,1' and '0, 1' both name context (0, 1)\n")

    def test_non_positive_state_dimension_refused(self, tmp_path, capsys):
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"dimension": -2, "entries": [[1.0, 0.0]] * 4}))
        assert main(["ckw", "--in", str(path)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", f"error: {path}: state JSON 'dimension' must be positive, got -2\n")

    def test_non_utf8_in_refused(self, tmp_path, capsys):
        path = tmp_path / "box.json"
        path.write_bytes(b"\xff\xfe\x00{")
        assert main(["validate", "--in", str(path)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", (
            f"error: cannot read {path}: 'utf-8' codec can't decode byte 0xff in position 0: "
            "invalid start byte\n"))

    def test_console_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "monogamy.cli", "--help"],
            capture_output=True, text=True, env=child_env(),
        )
        assert result.returncode == 0
        assert "monogamy" in result.stdout


class TestRefusals:
    def test_invalid_behavior_refused_alike(self, tmp_path, capsys):
        # One invalid file gets one refusal, from the library and from every
        # command that checks its input.
        table = uniform_box(chsh_scenario()).table.copy()
        table[0, 0, 0, 0] += 1e-3
        b = Behavior(chsh_scenario(), table)
        path = write_behavior(tmp_path / "raised.json", b)
        refusal = ("input behavior failed validation: max positivity violation 0.000e+00, "
                   "max normalization deviation 1.000e-03")
        commands = [["nstest"], ["localtest"], ["chsh"], ["cg"],
                    ["share", "--n", "2", "--mode", "ns"],
                    ["share", "--n", "2", "--mode", "unrestricted"]]
        for argv in commands:
            assert main(argv + ["--in", path]) == 2, argv
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", f"error: {refusal}\n"), argv
        for extension in (sharing.ns_extension, sharing.unrestricted_extension):
            with pytest.raises(ValueError) as raised:
                extension(b, 2)
            assert str(raised.value) == refusal

    @pytest.mark.parametrize("value", [10 ** 400, 1e308], ids=["400-digit-integer", "1e308"])
    @pytest.mark.parametrize("command", ["validate", "nstest", "localtest", "chsh"])
    def test_probability_above_1e300_refused(self, command, value, tmp_path, capsys):
        # One line and exit 2: no traceback for an integer too large for
        # float64, no Infinity in a report and no overflow warning for 1e308.
        data = behavior_to_json_dict(pr_box())
        data["table"]["1,1"][1:] = [value, 0.0, value]
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(data))
        assert main([command, "--in", str(path)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", f"error: {path}: context '1,1' entry 1 exceeds 1e300 in magnitude\n")

    @pytest.mark.parametrize("value", [10 ** 400, 1e308], ids=["400-digit-integer", "1e308"])
    @pytest.mark.parametrize("argv", [["chsh", "--angles", "0,1,0,1"], ["ckw"]],
                             ids=["chsh", "ckw"])
    def test_state_entry_above_1e300_refused(self, argv, value, tmp_path, capsys):
        from monogamy import ghz, phi_plus

        data = state_to_json_dict(phi_plus() if argv[0] == "chsh" else ghz())
        data["entries"][0] = [value, 0.0]
        data["entries"][-1] = [value, 0.0]
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(data))
        assert main([argv[0], "--in", str(path), *argv[1:]]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", f"error: {path}: entry 0 exceeds 1e300 in magnitude\n")

    def test_entries_at_1e300_read(self, tmp_path, capsys):
        # At the bound every sum stays finite: a strict JSON report, or one
        # refusal line, and no warning.
        data = behavior_to_json_dict(pr_box())
        data["table"]["1,1"] = [-1e300, 1e300, 0.0, 1e300]
        path = tmp_path / "bound.json"
        path.write_text(json.dumps(data))
        assert main(["validate", "--in", str(path)]) == 1
        captured = capsys.readouterr()
        report = json.loads(captured.out, parse_constant=pytest.fail)
        assert report["max_normalization_deviation"] == 1e300 and captured.err == ""
        assert main(["nstest", "--in", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1

    def test_cli_raises_only_value_error(self):
        # main's one handler sees every refusal of the module as a ValueError.
        tree = ast.parse(inspect.getsource(cli))
        exception_classes = [
            node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            and any(ast.unparse(base).endswith(("Error", "Exception")) for base in node.bases)
        ]
        assert exception_classes == []
        raised = [ast.unparse(node.exc) if node.exc else "raise" for node in ast.walk(tree)
                  if isinstance(node, ast.Raise)]
        assert raised and all(text.startswith("ValueError(") for text in raised), raised


def _args_read(function) -> set[str]:
    """The names ``x`` that ``function``'s source reads as ``args.x``."""
    tree = ast.parse(inspect.getsource(function))
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "args"}


class TestOptionsAreRead:
    def test_every_option_is_read_by_its_command(self):
        # A flag that its command never reads is a setting nobody can vary;
        # range checks in _check_arguments do not count as reading it.
        parser = cli.build_parser()
        (commands,) = [action for action in parser._actions
                       if isinstance(action, argparse._SubParsersAction)]
        unread = {}
        for name, sub in commands.choices.items():
            func = sub.get_default("func")
            read = _args_read(func)
            if "_resolve_state(" in inspect.getsource(func):
                read |= _args_read(cli._resolve_state)
            dests = [action.dest for action in sub._actions
                     if not isinstance(action, argparse._HelpAction)]
            assert dests, name
            missing = [dest for dest in dests if dest not in read]
            if missing:
                unread[name] = missing
        assert unread == {}


# Runs CLI commands in order and prints, after the import and after each
# command, its exit code and the scipy modules loaded so far.
SCIPY_PROBE = """
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import monogamy
from monogamy.cli import main

report = [["import", None, scipy_modules()]]
for argv in json.loads(sys.argv[1]):
    report.append([argv[0], main(argv), scipy_modules()])
sys.stderr.write(json.dumps(report))
"""


class TestScipyLoading:
    def test_only_lp_commands_load_scipy(self, pr_path):
        # A fresh process: this one has loaded scipy already.
        commands = [
            ["validate", "--in", pr_path],
            ["nstest", "--in", pr_path],
            ["chsh", "--state", "phi_plus", "--angles", "0,1.5708,0.7854,-0.7854"],
            ["cg", "--state", "cg", "--mu", "0.9", "--angles", "0,1,2,0,1,2,0,1,2"],
            ["ckw", "--state", "w"],
            ["localtest", "--in", pr_path],
        ]
        result = subprocess.run(
            [sys.executable, "-c", SCIPY_PROBE, json.dumps(commands)],
            capture_output=True, text=True, env=child_env(),
        )
        assert result.returncode == 0, result.stderr
        report = json.loads(result.stderr)
        assert [step[0] for step in report] == ["import"] + [argv[0] for argv in commands]
        assert [step[1] for step in report] == [None, 0, 0, 0, 0, 0, 1]
        for name, _, loaded in report[:-1]:
            assert loaded == [], f"{name} loaded {loaded}"
        # localtest loads scipy.sparse and the HiGHS binding, not the
        # package scipy.optimize.
        loaded = report[-1][2]
        assert "scipy.sparse" in loaded and "scipy.optimize._highspy._core" in loaded
        assert "scipy.optimize" not in loaded
        assert not [m for m in loaded if m.startswith("scipy.optimize") and "_highspy._core" not in m]

"""End-to-end CLI tests: exit codes, artifact contents, diagnostics."""

import csv
import json
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from fuzzydock.cli import load_scenario_file, main
from fuzzydock.controllers import ControllerSet, build_flc_c, build_flc_t, controllers_to_json
from fuzzydock.controllers import PEAKS
from fuzzydock.simulation import run

REPO_SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def scenario_doc(x, y, alpha, beta, **over):
    doc = {
        "label": "case",
        "initial": {"x": x, "y": y, "alpha_deg": alpha, "beta_deg": beta},
        "max_steps": 1000,
        "mode": "cascade",
    }
    doc.update(over)
    return doc


def write_doc(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc), encoding="utf-8")
    return p


def read_csv(path):
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


class TestRunCommand:
    def test_docked_scenario_exits_zero_and_writes_artifacts(self, tmp_path, capsys):
        doc = write_doc(tmp_path, "s.json", scenario_doc(-60.0, 120.0, 30.0, 0.0))
        out = tmp_path / "nested" / "out"
        code = main(["run", "--scenario", str(doc), "--out", str(out)])
        assert code == 0
        assert (out / "trajectory.csv").exists()
        assert (out / "outcome.json").exists()
        assert (out / "trajectory.svg").exists()
        assert "docked" in capsys.readouterr().out

    def test_csv_header_and_first_row(self, tmp_path):
        doc = write_doc(
            tmp_path, "s.json", scenario_doc(80.0, 180.0, 60.0, 30.0, mode="both")
        )
        main(["run", "--scenario", str(doc), "--out", str(tmp_path)])
        rows = read_csv(tmp_path / "trajectory.csv")
        assert rows[0] == [
            "step", "x", "y", "alpha_deg", "beta_deg",
            "beta_prime_deg", "gamma_deg", "theta_deg", "mode",
        ]
        assert rows[1][:5] == ["0", "80", "180", "60", "30"]
        assert rows[1][8] == "cascade"
        assert {r[8] for r in rows[1:]} == {"cascade", "reference"}

    def test_aligned_start_keeps_x_column_constant(self, tmp_path):
        doc = write_doc(tmp_path, "s.json", scenario_doc(0.0, 50.0, 0.0, 0.0))
        code = main(["run", "--scenario", str(doc), "--out", str(tmp_path)])
        assert code == 0
        rows = read_csv(tmp_path / "trajectory.csv")
        assert all(r[1] == "0" for r in rows[1:])
        assert all(r[7] == "0" for r in rows[1:])

    def test_csv_floats_round_trip_exactly(self, tmp_path):
        doc = write_doc(tmp_path, "s.json", scenario_doc(10.0, 40.0, 5.0, 0.0))
        main(["run", "--scenario", str(doc), "--out", str(tmp_path)])
        trajectory = run(load_scenario_file(doc))
        rows = read_csv(tmp_path / "trajectory.csv")[1:]
        assert len(rows) == len(trajectory.samples)
        for row, s in zip(rows, trajectory.samples):
            assert int(row[0]) == s.step
            assert float(row[1]) == s.state.x
            assert float(row[2]) == s.state.y
            assert float(row[3]) == s.state.alpha
            assert float(row[4]) == s.state.beta
            assert float(row[5]) == s.beta_prime
            assert float(row[6]) == s.gamma
            assert float(row[7]) == s.theta

    def test_outcome_json_shape(self, tmp_path):
        doc = write_doc(
            tmp_path, "s.json", scenario_doc(-40.0, 170.0, 20.0, 15.0, mode="both")
        )
        code = main(["run", "--scenario", str(doc), "--out", str(tmp_path)])
        assert code == 0
        summary = json.loads((tmp_path / "outcome.json").read_text(encoding="utf-8"))
        assert summary["label"] == "case"
        assert set(summary["outcomes"]) == {"cascade", "reference"}
        for entry in summary["outcomes"].values():
            assert entry["kind"] == "docked"
            assert entry["steps"] > 0
            assert set(entry["final_state"]) == {"x", "y", "alpha_deg", "beta_deg"}

    def test_svg_parses_with_one_polyline_per_mode(self, tmp_path):
        doc = write_doc(
            tmp_path, "s.json", scenario_doc(-60.0, 120.0, 30.0, 0.0, mode="both")
        )
        main(["run", "--scenario", str(doc), "--out", str(tmp_path)])
        text = (tmp_path / "trajectory.svg").read_text(encoding="utf-8")
        ET.fromstring(text)
        assert text.count("<polyline") == 2
        assert text.count("<circle") == 1

        single = write_doc(tmp_path, "s1.json", scenario_doc(-60.0, 120.0, 30.0, 0.0))
        main(["run", "--scenario", str(single), "--out", str(tmp_path / "single")])
        text = (tmp_path / "single" / "trajectory.svg").read_text(encoding="utf-8")
        assert text.count("<polyline") == 1

    def test_failure_outcome_exits_two(self, tmp_path):
        doc = write_doc(
            tmp_path, "s.json", scenario_doc(80.0, 180.0, 60.0, 30.0, max_steps=10)
        )
        code = main(["run", "--scenario", str(doc), "--out", str(tmp_path)])
        assert code == 2
        summary = json.loads((tmp_path / "outcome.json").read_text(encoding="utf-8"))
        assert summary["outcomes"]["cascade"]["kind"] == "timeout"
        assert summary["outcomes"]["cascade"]["steps"] == 10

    def test_mode_and_max_steps_flags_override_the_file(self, tmp_path):
        doc = write_doc(tmp_path, "s.json", scenario_doc(80.0, 180.0, 60.0, 30.0))
        code = main(
            ["run", "--scenario", str(doc), "--out", str(tmp_path),
             "--mode", "both", "--max-steps", "20"]
        )
        assert code == 2
        summary = json.loads((tmp_path / "outcome.json").read_text(encoding="utf-8"))
        assert set(summary["outcomes"]) == {"cascade", "reference"}
        assert all(o["steps"] == 20 for o in summary["outcomes"].values())

    def test_controllers_flag_swaps_the_policy(self, tmp_path):
        # Halving the steering consequent peaks halves every steering output,
        # which shows up directly in the logged theta column.
        peaks = dict(PEAKS)
        peaks["S"] = tuple(p / 2 for p in PEAKS["S"])
        alt = ControllerSet(build_flc_t(peaks), build_flc_c(peaks))
        alt_path = tmp_path / "alt.json"
        alt_path.write_text(controllers_to_json(alt), encoding="utf-8")

        doc = write_doc(tmp_path, "s.json", scenario_doc(80.0, 180.0, 60.0, 30.0))
        main(["run", "--scenario", str(doc), "--out", str(tmp_path / "a")])
        main(["run", "--scenario", str(doc), "--out", str(tmp_path / "b"),
              "--controllers", str(alt_path)])
        base = read_csv(tmp_path / "a" / "trajectory.csv")
        swapped = read_csv(tmp_path / "b" / "trajectory.csv")
        assert float(swapped[1][7]) == pytest.approx(float(base[1][7]) / 2, rel=1e-12)

    def test_both_mode_prints_separation(self, tmp_path, capsys):
        doc = write_doc(
            tmp_path, "s.json", scenario_doc(-60.0, 120.0, 30.0, 0.0, mode="both")
        )
        main(["run", "--scenario", str(doc), "--out", str(tmp_path / "both")])
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        assert lines[2].startswith("case [separation]: peak ")
        assert "last-10-step mean" in lines[2]

        main(["run", "--scenario", str(doc), "--out", str(tmp_path / "one"),
              "--mode", "cascade"])
        assert "separation" not in capsys.readouterr().out

    def test_bundled_scenario_files_load_and_dock(self, tmp_path):
        files = sorted(REPO_SCENARIOS.glob("*.json"))
        assert len(files) == 3
        for f in files:
            code = main(["run", "--scenario", str(f), "--out", str(tmp_path / f.stem)])
            assert code == 0, f.name


class TestScenarioFileErrors:
    def test_missing_file(self, tmp_path, capsys):
        code = main(["run", "--scenario", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
        assert code == 1
        assert "cannot read" in capsys.readouterr().err

    def test_malformed_json_reports_line_and_column(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"label": "x",\n  "initial": }\n', encoding="utf-8")
        code = main(["run", "--scenario", str(bad), "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{bad}:2:" in err

    def test_unknown_top_level_key(self, tmp_path, capsys):
        doc = scenario_doc(0.0, 50.0, 0.0, 0.0)
        doc["frobnicate"] = 1
        p = write_doc(tmp_path, "s.json", doc)
        code = main(["run", "--scenario", str(p), "--out", str(tmp_path)])
        assert code == 1
        assert "frobnicate" in capsys.readouterr().err

    def test_missing_initial_field(self, tmp_path, capsys):
        doc = scenario_doc(0.0, 50.0, 0.0, 0.0)
        del doc["initial"]["beta_deg"]
        p = write_doc(tmp_path, "s.json", doc)
        code = main(["run", "--scenario", str(p), "--out", str(tmp_path)])
        assert code == 1
        assert "beta_deg" in capsys.readouterr().err

    def test_negative_y_rejected_with_reason(self, tmp_path, capsys):
        p = write_doc(tmp_path, "s.json", scenario_doc(0.0, -5.0, 0.0, 0.0))
        code = main(["run", "--scenario", str(p), "--out", str(tmp_path)])
        assert code == 1
        assert ">= 0" in capsys.readouterr().err

    def test_non_object_document(self, tmp_path, capsys):
        p = tmp_path / "s.json"
        p.write_text("[1, 2, 3]", encoding="utf-8")
        code = main(["run", "--scenario", str(p), "--out", str(tmp_path)])
        assert code == 1
        assert "object" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "verb, key, value",
        [
            ("run", "initial", 5),
            ("run", "initial.x", "abc"),
            ("run", "initial.x", float("nan")),
            pytest.param("run", "initial.x", 10**400, id="run-initial.x-overflow"),
            ("run", "initial.y", True),
            ("run", "max_steps", "x"),
            ("run", "max_steps", float("inf")),
            ("run", "params", {"v": None}),
            ("run", "params", {"v": 5.0}),
            ("run", "tolerances", [1.0]),
            ("sweep", "axes", 5),
            ("sweep", "axes.x", [0, 0, 1]),
            ("sweep", "axes.x.min", "a"),
            ("sweep", "axes.x.min", float("nan")),
            ("sweep", "max_steps", "x"),
            ("sweep", "params", {"v": None}),
            ("sweep", "tolerances", {"x_tol": "2"}),
        ],
    )
    def test_malformed_document_gives_one_error_line(self, tmp_path, capsys, verb, key, value):
        if verb == "run":
            doc = scenario_doc(0.0, 50.0, 0.0, 0.0)
        else:
            doc = grid_doc((0, 0, 1), (50, 50, 1), (0, 0, 1), (0, 0, 1))
        *parents, last = key.split(".")
        target = doc
        for k in parents:
            target = target[k]
        target[last] = value
        p = write_doc(tmp_path, "doc.json", doc)
        code = main([verb, "--scenario", str(p), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "content",
        [b"\xff\xfe{}", b'{"initial": {"x": 1' + b"0" * 5000 + b"}}"],
        ids=["not-utf8", "huge-integer"],
    )
    def test_unparseable_file_gives_one_error_line(self, tmp_path, capsys, content):
        p = tmp_path / "s.json"
        p.write_bytes(content)
        code = main(["run", "--scenario", str(p), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:")
        assert err.count("\n") == 1

    def test_unwritable_out_dir(self, tmp_path, capsys):
        doc = write_doc(tmp_path, "s.json", scenario_doc(0.0, 50.0, 0.0, 0.0))
        blocker = tmp_path / "blocker"
        blocker.write_text("", encoding="utf-8")
        code = main(["run", "--scenario", str(doc), "--out", str(blocker)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")


def grid_doc(x, y, alpha, beta, **over):
    def axis(spec):
        lo, hi, n = spec
        return {"min": lo, "max": hi, "count": n}

    doc = {"axes": {"x": axis(x), "y": axis(y), "alpha": axis(alpha), "beta": axis(beta)}}
    doc.update(over)
    return doc


class TestSweepCommand:
    def test_single_docked_cell(self, tmp_path, capsys):
        p = write_doc(
            tmp_path, "g.json",
            grid_doc((-60, -60, 1), (120, 120, 1), (30, 30, 1), (0, 0, 1)),
        )
        code = main(["sweep", "--scenario", str(p), "--out", str(tmp_path)])
        assert code == 0
        summary = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))
        assert summary == {"cells": 1, "success_ratio": 1.0, "counts": {"docked": 1}}
        rows = read_csv(tmp_path / "sweep.csv")
        assert rows[0] == ["x0", "y0", "alpha0", "beta0", "outcome", "steps"]
        assert rows[1][:4] == ["-60", "120", "30", "0"]
        assert rows[1][4] == "docked"
        assert "success ratio 1.000" in capsys.readouterr().out

    def test_mirrored_cells_in_csv(self, tmp_path):
        p = write_doc(
            tmp_path, "g.json",
            grid_doc((-60, 60, 3), (100, 100, 1), (-30, 30, 3), (0, 0, 1)),
        )
        main(["sweep", "--scenario", str(p), "--out", str(tmp_path)])
        rows = read_csv(tmp_path / "sweep.csv")[1:]
        assert len(rows) == 9
        by_start = {tuple(float(v) for v in r[:4]): (r[4], r[5]) for r in rows}
        for (x, y, a, b), outcome in by_start.items():
            assert by_start[(-x, y, -a, -b)] == outcome

    def test_sweep_exit_zero_even_when_cells_fail(self, tmp_path):
        p = write_doc(
            tmp_path, "g.json",
            grid_doc((30, 60, 2), (0, 0, 1), (0, 45, 2), (0, 0, 1)),
        )
        code = main(["sweep", "--scenario", str(p), "--out", str(tmp_path)])
        assert code == 0
        summary = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))
        assert summary["success_ratio"] == 0.0
        assert summary["counts"] == {"insufficient-space": 4}

    def test_zero_count_axis_rejected(self, tmp_path, capsys):
        p = write_doc(
            tmp_path, "g.json",
            grid_doc((0, 0, 0), (120, 120, 1), (0, 0, 1), (0, 0, 1)),
        )
        code = main(["sweep", "--scenario", str(p), "--out", str(tmp_path)])
        assert code == 1
        assert "count" in capsys.readouterr().err

    def test_missing_axis_rejected(self, tmp_path, capsys):
        doc = grid_doc((0, 0, 1), (120, 120, 1), (0, 0, 1), (0, 0, 1))
        del doc["axes"]["beta"]
        p = write_doc(tmp_path, "g.json", doc)
        code = main(["sweep", "--scenario", str(p), "--out", str(tmp_path)])
        assert code == 1
        assert "beta" in capsys.readouterr().err


class TestSurfaceCommand:
    def test_flc_c_surface_rows(self, tmp_path):
        code = main(["surface", "flc_c", "--resolution", "121", "--out", str(tmp_path)])
        assert code == 0
        rows = read_csv(tmp_path / "surface_flc_c.csv")
        assert rows[0] == ["gamma_deg", "theta_deg"]
        assert len(rows) == 122
        assert rows[61] == ["0", "0"]
        thetas = [float(r[1]) for r in rows[1:]]
        assert thetas == sorted(thetas)
        assert thetas[0] == pytest.approx(-80.0 / 3.0)

    def test_flc_t_surface_rows(self, tmp_path):
        code = main(["surface", "flc_t", "--resolution", "5", "--out", str(tmp_path)])
        assert code == 0
        rows = read_csv(tmp_path / "surface_flc_t.csv")
        assert rows[0] == ["x", "alpha_deg", "beta_prime_deg"]
        assert len(rows) == 26
        assert rows[13] == ["0", "0", "0"]

    def test_resolution_below_two_rejected(self, tmp_path, capsys):
        code = main(["surface", "flc_c", "--resolution", "1", "--out", str(tmp_path)])
        assert code == 1
        assert "resolution" in capsys.readouterr().err

    def test_unknown_controller_rejected(self, tmp_path, capsys):
        code = main(["surface", "flc_x", "--out", str(tmp_path)])
        assert code == 1
        assert "flc_x" in capsys.readouterr().err

    def test_controllers_flag_changes_surface(self, tmp_path):
        peaks = dict(PEAKS)
        peaks["S"] = tuple(p / 2 for p in PEAKS["S"])
        alt = ControllerSet(build_flc_t(peaks), build_flc_c(peaks))
        alt_path = tmp_path / "alt.json"
        alt_path.write_text(controllers_to_json(alt), encoding="utf-8")
        main(["surface", "flc_c", "--resolution", "3", "--out", str(tmp_path / "a")])
        main(["surface", "flc_c", "--resolution", "3", "--out", str(tmp_path / "b"),
              "--controllers", str(alt_path)])
        base = read_csv(tmp_path / "a" / "surface_flc_c.csv")
        swapped = read_csv(tmp_path / "b" / "surface_flc_c.csv")
        assert float(base[1][1]) == pytest.approx(-80.0 / 3.0)
        assert float(swapped[1][1]) == pytest.approx(-40.0 / 3.0)


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_unknown_command(self, capsys):
        assert main(["launch"]) == 1
        assert "launch" in capsys.readouterr().err

    def test_missing_required_flag(self, capsys):
        assert main(["run"]) == 1
        assert "--scenario" in capsys.readouterr().err

    def test_malformed_controllers_file(self, tmp_path, capsys):
        doc = write_doc(tmp_path, "s.json", scenario_doc(0.0, 50.0, 0.0, 0.0))
        bad = tmp_path / "ctl.json"
        bad.write_text("{ not json", encoding="utf-8")
        code = main(["run", "--scenario", str(doc), "--out", str(tmp_path),
                     "--controllers", str(bad)])
        assert code == 1
        assert "controller" in capsys.readouterr().err

    def test_module_entry_point(self, tmp_path):
        doc = write_doc(tmp_path, "s.json", scenario_doc(-60.0, 120.0, 30.0, 0.0))
        proc = subprocess.run(
            [sys.executable, "-m", "fuzzydock.cli", "run",
             "--scenario", str(doc), "--out", str(tmp_path)],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "docked" in proc.stdout

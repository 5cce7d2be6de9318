"""End-to-end CLI tests: exit codes, artifact contents, diagnostics."""

import contextlib
import copy
import csv
import io
import json
import math
import re
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fuzzydock import cli
from fuzzydock.cli import build_parser, load_grid_file, load_scenario_file, main
from fuzzydock.controllers import (
    PEAKS,
    ControllerSet,
    build_flc_c,
    build_flc_t,
    bundled_controllers_path,
    controllers_to_json,
    default_controllers,
    flc_c,
    flc_t,
    load_controllers,
)
from fuzzydock.fuzzy import eval_membership
from fuzzydock.simulation import AxisSpec, run, sweep

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

    def test_svg_title_escapes_the_label(self, tmp_path):
        label = "a&b<c>\"d'"
        doc = write_doc(tmp_path, "s.json", scenario_doc(0.0, 50.0, 0.0, 0.0, label=label))
        main(["run", "--scenario", str(doc), "--out", str(tmp_path)])
        text = (tmp_path / "trajectory.svg").read_text(encoding="utf-8")
        assert "<title>a&amp;b&lt;c&gt;\"d'</title>" in text
        assert ET.fromstring(text).find("{http://www.w3.org/2000/svg}title").text == label

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
        missing = tmp_path / "nope.json"
        code = main(["run", "--scenario", str(missing), "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {missing}: cannot read: No such file or directory\n"

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
            ("run", "params", {"theta_max_deg": 120}),
            ("run", "tolerances", [1.0]),
            ("run", "tolerances", {"x_tol": -1.0}),
            ("run", "label", ["a"]),
            ("run", "mode", 5),
            ("run", "frobnicate", 1),
            ("run", "initial.z", 0.0),
            ("sweep", "label", 5),
            ("sweep", "axes", 5),
            ("sweep", "axes.x", [0, 0, 1]),
            ("sweep", "axes.x.min", "a"),
            ("sweep", "axes.x.min", float("nan")),
            ("sweep", "axes.x.step", 1),
            ("sweep", "max_steps", "x"),
            ("sweep", "params", {"v": None}),
            ("sweep", "params", {"theta_max_deg": 120}),
            ("sweep", "tolerances", {"x_tol": "2"}),
            ("sweep", "tolerances", {"y_tol": -5.0}),
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
        assert err.startswith(f"error: {p}: ")
        assert err.count("\n") == 1

    def test_start_whose_budget_can_carry_y_past_the_float_range_is_rejected(self, tmp_path):
        # Backing away at full speed, y would leave the float range on the
        # first step, and outcome.json would hold Infinity, which is not JSON.
        doc = scenario_doc(0.0, 1.7e308, 180.0, 0.0, params={"v": 1e308, "l_c": 1e308, "l_t": 1e308})
        del doc["max_steps"], doc["mode"], doc["label"]
        p = write_doc(tmp_path, "far.json", doc)
        out = tmp_path / "out"
        code, err = _run_cli(["run", "--scenario", str(p), "--out", str(out)])
        assert code == 1
        assert err == [f"error: {p}: initial.y + 2 * max_steps * v must be finite, got y=1.7e+308"]
        assert not out.exists()

    def test_zero_tolerances_are_accepted(self, tmp_path):
        doc = scenario_doc(
            0.0, 30.0, 0.0, 0.0, tolerances={"x_tol": 0, "y_tol": 0, "alpha_tol_deg": 0}
        )
        p = write_doc(tmp_path, "s.json", doc)
        code, err = _run_cli(["run", "--scenario", str(p), "--out", str(tmp_path)])
        assert (code, err) == (0, [])

    @pytest.mark.parametrize(
        "content, message",
        [(b"\xff\xfe{}", "cannot read: 'utf-8' codec can't decode"),
         (b'{"initial": {"x": 1' + b"0" * 5000 + b"}}", "")],
        ids=["not-utf8", "huge-integer"],
    )
    def test_unparseable_file_gives_one_error_line(self, tmp_path, capsys, content, message):
        p = tmp_path / "s.json"
        p.write_bytes(content)
        code = main(["run", "--scenario", str(p), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {p}: {message}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "verb, text, key",
        [
            pytest.param("run", '{"initial": {"x": 80, "y": 50, "alpha_deg": 0, '
                         '"beta_deg": 0, "x": 500}}', "x", id="scenario"),
            pytest.param("sweep", '{"axes": {"x": {"min": 0, "max": 0, "count": 1, "count": 9}, '
                         '"y": {"min": 50, "max": 50, "count": 1}, '
                         '"alpha": {"min": 0, "max": 0, "count": 1}, '
                         '"beta": {"min": 0, "max": 0, "count": 1}}}', "count", id="grid"),
            pytest.param("surface", None, "flc_c", id="controllers"),
        ],
    )
    def test_repeated_key_names_file_and_key(self, tmp_path, verb, text, key):
        # Without the check the last value wins: the scenario would start at x = 500.
        p = tmp_path / "doc.json"
        out = tmp_path / "out"
        if verb == "surface":
            bundled = json.dumps(BUNDLED_CONTROLLERS)
            p.write_text(f'{bundled[:-1]}, "flc_c": {json.dumps(BUNDLED_CONTROLLERS["flc_c"])}}}',
                         encoding="utf-8")
            argv = ["surface", "flc_c", "--controllers", str(p), "--out", str(out)]
        else:
            p.write_text(text, encoding="utf-8")
            argv = [verb, "--scenario", str(p), "--out", str(out)]
        code, err = _run_cli(argv)
        assert code == 1
        assert err == [f"error: {p}: duplicate key {key!r}"]
        assert not out.exists()

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


BUNDLED_CONTROLLERS = json.loads(bundled_controllers_path().read_text(encoding="utf-8"))


_DELETE = object()


def _edited(path, value):
    """The bundled controller document as bytes, with the value at the dotted
    ``path`` (list indices as numbers) set to ``value``, or deleted for
    ``_DELETE``."""
    doc = copy.deepcopy(BUNDLED_CONTROLLERS)
    *parents, last = (int(k) if k.isdigit() else k for k in path.split("."))
    target = doc
    for k in parents:
        target = target[k]
    if value is _DELETE:
        del target[last]
    else:
        target[last] = value
    # json.dumps writes NaN and Infinity, which json.loads accepts.
    return json.dumps(doc).encode("utf-8")


def _stretched(variable, lo, hi):
    """The bundled controller document with the flc_c ``variable``
    ("consequent" or "antecedents[0]") spanning [lo, hi], its outer
    breakpoints moved with the bounds."""
    doc = copy.deepcopy(BUNDLED_CONTROLLERS)
    flc_c = doc["flc_c"]
    var = flc_c["consequent"] if variable == "consequent" else flc_c["antecedents"][0]
    var["universe"] = [lo, hi]
    var["terms"][0]["breakpoints"][0] = lo
    var["terms"][-1]["breakpoints"][-1] = hi
    return doc


def _run_cli(argv):
    """(exit code, stderr lines) of one in-process CLI invocation."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue().splitlines()


class TestControllerGeometry:
    @pytest.mark.parametrize("verb", ["surface", "run"])
    @pytest.mark.parametrize(
        "variable, bound, name",
        [
            pytest.param("consequent", 1.7e308, "S", id="consequent-span-overflows"),
            pytest.param("consequent", 5e307, "S", id="consequent-moment-overflows"),
            pytest.param("antecedents[0]", 1.7e308, "G", id="antecedent-span-overflows"),
        ],
    )
    def test_non_finite_geometry_fails_at_load(self, tmp_path, verb, variable, bound, name):
        bad = write_doc(tmp_path, "ctl.json", _stretched(variable, -bound, bound))
        out = tmp_path / "out"
        if verb == "surface":
            argv = ["surface", "flc_c", "--resolution", "7", "--out", str(out)]
        else:
            scenario = write_doc(tmp_path, "s.json", scenario_doc(0.0, 50.0, 0.0, 0.0))
            argv = ["run", "--scenario", str(scenario), "--out", str(out)]
        code, err = _run_cli([*argv, "--controllers", str(bad)])
        assert code == 1
        assert len(err) == 1
        assert err[0].startswith(f"error: {bad}: flc_c")
        assert f"variable {name!r}" in err[0]
        assert not out.exists()

    def test_overflowing_surface_axis_writes_no_csv(self, tmp_path):
        # A finite span whose samples overflow: 1e308 * 6 is inf.
        doc = _stretched("antecedents[0]", -60.0, 1e308)
        bad = write_doc(tmp_path, "ctl.json", doc)
        out = tmp_path / "out"
        code, err = _run_cli(["surface", "flc_c", "--resolution", "7", "--out", str(out),
                              "--controllers", str(bad)])
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error: axis from -60.0 to 1e+308")
        assert not list(out.glob("surface_*.csv"))
        code, _ = _run_cli(["surface", "flc_c", "--resolution", "2", "--out", str(out),
                            "--controllers", str(bad)])
        assert code == 0


# Perturbations of the bundled controller document, up to 1e308 in magnitude:
# a universe bound pushed outwards with the outer breakpoint pinned to it (so
# the document stays well-formed and only its size grows), a single breakpoint
# set anywhere, and a whole variable scaled.
@st.composite
def perturbed_controllers(draw):
    doc = copy.deepcopy(BUNDLED_CONTROLLERS)
    variables = [v for rb in doc.values() for v in (*rb["antecedents"], rb["consequent"])]
    for _ in range(draw(st.integers(1, 3))):
        var = draw(st.sampled_from(variables))
        how = draw(st.sampled_from(["bound", "breakpoint", "scale"]))
        if how == "bound":
            end = draw(st.sampled_from([0, -1]))
            step = draw(st.floats(0.0, 1e308))
            value = var["universe"][end] + (step if end else -step)
            var["universe"][end] = value
            var["terms"][end]["breakpoints"][end] = value
        elif how == "breakpoint":
            points = draw(st.sampled_from(var["terms"]))["breakpoints"]
            points[draw(st.integers(0, len(points) - 1))] = draw(st.floats(-1e308, 1e308))
        else:
            factor = draw(st.floats(1e-300, 1e308))
            var["universe"] = [p * factor for p in var["universe"]]
            for term in var["terms"]:
                term["breakpoints"] = [p * factor for p in term["breakpoints"]]
    return doc


class TestControllerDocumentProperty:
    @settings(max_examples=150, deadline=None)
    @given(perturbed_controllers(), st.integers(2, 9))
    def test_surface_runs_finite_or_fails_cleanly(self, doc, resolution):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "ctl.json"
            # json.dumps writes a scaled value that overflowed as Infinity.
            path.write_text(json.dumps(doc), encoding="utf-8")
            for controller in ("flc_t", "flc_c"):
                out = Path(tmp) / controller
                code, err = _run_cli(["surface", controller, "--resolution", str(resolution),
                                      "--out", str(out), "--controllers", str(path)])
                csv_path = out / f"surface_{controller}.csv"
                if code == 0:
                    rows = read_csv(csv_path)[1:]
                    assert len(rows) == resolution ** (2 if controller == "flc_t" else 1)
                    assert all(math.isfinite(float(v)) for row in rows for v in row)
                else:
                    assert code == 1
                    assert len(err) == 1 and err[0].startswith("error:")
                    assert not csv_path.exists()


class TestWholeNumberFields:
    @pytest.mark.parametrize(
        "verb, key, value",
        [
            ("run", "max_steps", 50.9),
            ("run", "max_steps", 0),
            ("sweep", "max_steps", 50.9),
            ("sweep", "max_steps", 0),
            ("sweep", "axes.x.count", 2.9),
            ("sweep", "axes.beta.count", 0.5),
        ],
    )
    def test_fraction_or_zero_names_file_and_key(self, tmp_path, verb, key, value):
        if verb == "run":
            doc = scenario_doc(0.0, 50.0, 0.0, 0.0)
        else:
            doc = grid_doc((-10, 10, 2), (50, 50, 1), (0, 0, 1), (0, 0, 1), max_steps=50)
        *parents, last = key.split(".")
        target = doc
        for k in parents:
            target = target[k]
        target[last] = value
        p = write_doc(tmp_path, "doc.json", doc)
        code, err = _run_cli([verb, "--scenario", str(p), "--out", str(tmp_path / "out")])
        assert code == 1
        assert err == [f"error: {p}: {key} must be a whole number >= 1, got {value!r}"]
        assert not (tmp_path / "out").exists()

    def test_whole_valued_floats_are_accepted(self, tmp_path):
        doc = grid_doc((-10, 10, 2.0), (50, 50, 1), (0, 0, 1), (0, 0, 1), max_steps=50.0)
        p = write_doc(tmp_path, "g.json", doc)
        code, _ = _run_cli(["sweep", "--scenario", str(p), "--out", str(tmp_path)])
        assert code == 0
        summary = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))
        assert summary["cells"] == 2

    def test_step_budget_flag_below_one_rejected(self, tmp_path):
        p = write_doc(tmp_path, "g.json", grid_doc((0, 0, 1), (50, 50, 1), (0, 0, 1), (0, 0, 1)))
        code, err = _run_cli(["sweep", "--scenario", str(p), "--out", str(tmp_path / "out"),
                              "--max-steps", "0"])
        assert code == 1
        assert err == ["error: max_steps must be >= 1"]

    def test_overflowing_axis_names_file_and_axis(self, tmp_path):
        p = write_doc(
            tmp_path, "g.json", grid_doc((0.0, 1.7e308, 3), (50, 50, 1), (0, 0, 1), (0, 0, 1))
        )
        code, err = _run_cli(["sweep", "--scenario", str(p), "--out", str(tmp_path / "out")])
        assert code == 1
        assert err == [f"error: {p}: axes.x: axis from 0.0 to 1.7e+308 in 3 points overflows"]
        assert not (tmp_path / "out").exists()


class TestDegenerateFiring:
    def test_uncovered_inputs_give_one_warning_line(self, tmp_path):
        # Gaps in G at [-3, -2] and [2, 3]: no G term is above zero there.
        doc = copy.deepcopy(BUNDLED_CONTROLLERS)
        terms = doc["flc_c"]["antecedents"][0]["terms"]
        terms[2]["breakpoints"] = [-10.0, -5.0, -3.0]
        terms[3]["breakpoints"] = [-2.0, 0.0, 2.0]
        terms[4]["breakpoints"] = [3.0, 5.0, 10.0]
        ctl = write_doc(tmp_path, "ctl.json", doc)
        code, err = _run_cli(["surface", "flc_c", "--resolution", "241",
                              "--out", str(tmp_path), "--controllers", str(ctl)])
        assert code == 0
        g = load_controllers(ctl).flc_c.antecedents[0]
        rows = [(float(gamma), float(theta))
                for gamma, theta in read_csv(tmp_path / "surface_flc_c.csv")[1:]]
        uncovered = [theta for gamma, theta in rows
                     if all(eval_membership(mf, gamma) == 0.0 for _, mf in g.terms)]
        assert len(uncovered) == 6
        assert uncovered == [0.0] * 6  # the midpoint of S's universe
        assert err == ["warning: no rule fired at 6 inputs; used the consequent midpoint there"]


JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4)
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=4,
)
# Counts and step budgets stay small, so every draw runs in milliseconds.
WHOLE_NUMBER_VALUES = {
    "count": st.integers(-1, 3) | st.floats(-1.0, 3.0),
    "max_steps": st.integers(-1, 60) | st.floats(-1.0, 60.0),
}

SCENARIO_DOCUMENT = {
    "label": "probe",
    "initial": {"x": 3.0, "y": 45.0, "alpha_deg": 5.0, "beta_deg": 0.0},
    "params": {"v": 1.0, "l_c": 2.0, "l_t": 8.0, "theta_max_deg": 30.0, "beta_max_deg": 30.0},
    "tolerances": {"x_tol": 2.0, "y_tol": 1.0, "alpha_tol_deg": 10.0},
    "max_steps": 50,
    "mode": "both",
}
GRID_DOCUMENT = {
    "label": "probe",
    "axes": {
        "x": {"min": -3.0, "max": 3.0, "count": 2},
        "y": {"min": 45.0, "max": 45.0, "count": 1},
        "alpha": {"min": -5.0, "max": 5.0, "count": 2},
        "beta": {"min": 0.0, "max": 0.0, "count": 1},
    },
    "params": SCENARIO_DOCUMENT["params"],
    "tolerances": SCENARIO_DOCUMENT["tolerances"],
    "max_steps": 50,
}


def _key_paths(doc, prefix=""):
    for key, value in doc.items():
        yield prefix + key
        if isinstance(value, dict):
            yield from _key_paths(value, f"{prefix}{key}.")


@st.composite
def perturbed_document(draw, base):
    """``base`` with one to three key paths set to arbitrary JSON values or
    deleted; whole-number keys keep to small numbers when they get one."""
    doc = copy.deepcopy(base)
    for key in draw(st.lists(st.sampled_from(sorted(_key_paths(base))), min_size=1,
                             max_size=3, unique=True)):
        *parents, last = key.split(".")
        target = doc
        for k in parents:
            target = target.get(k) if isinstance(target, dict) else None
        if not isinstance(target, dict):
            continue  # a parent was replaced by a draw before
        if last in WHOLE_NUMBER_VALUES:
            value = draw(WHOLE_NUMBER_VALUES[last] | JSON_VALUES.filter(
                lambda v: not isinstance(v, (int, float)) or isinstance(v, bool)))
        elif last == "mode":
            value = draw(st.sampled_from(["cascade", "reference", "both"]) | JSON_VALUES)
        else:
            value = draw(st.just(_DELETE) | st.integers() | st.floats() | JSON_VALUES)
        if value is _DELETE:
            target.pop(last, None)
        else:
            target[last] = value
    return doc


def _reject_constant(name):
    raise AssertionError(f"{name} in a JSON artifact")


def assert_artifacts_finite(out):
    for path in out.iterdir():
        text = path.read_text(encoding="utf-8")
        if path.suffix == ".json":
            json.loads(text, parse_constant=_reject_constant)
        else:
            # The SVG title holds the free-form label; nothing else may
            # spell a non-finite number.
            text = re.sub(r"<title>.*?</title>", "", text, flags=re.S)
            assert not re.search(r"(?i)nan|inf", text), path.name


class TestDocumentProperty:
    @pytest.mark.parametrize(
        "verb, base", [("run", SCENARIO_DOCUMENT), ("sweep", GRID_DOCUMENT)]
    )
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_any_value_at_any_key_runs_finite_or_fails_cleanly(self, verb, base, data):
        doc = data.draw(perturbed_document(base))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "doc.json"
            # json.dumps writes NaN and Infinity, which json.loads accepts.
            path.write_text(json.dumps(doc), encoding="utf-8")
            out = Path(tmp) / "out"
            code, err = _run_cli([verb, "--scenario", str(path), "--out", str(out)])
            if code == 1:
                assert len(err) == 1 and err[0].startswith("error:"), err
            else:
                assert code in (0, 2) and not err
                assert_artifacts_finite(out)


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
        assert capsys.readouterr().err.startswith(f"error: {bad}:1:3: ")

    @pytest.mark.parametrize("verb", ["surface", "run"])
    @pytest.mark.parametrize(
        "raw, message",
        [
            pytest.param(b'{"flc_t": "\xff"}', "cannot read: 'utf-8' codec can't decode",
                         id="not-utf8"),
            pytest.param(_edited("flc_t.antecedents.0.terms.1.breakpoints.1", "a"),
                         "flc_t.antecedents[0].terms[1].breakpoints[1] must be a finite number, "
                         "got 'a'", id="string-breakpoint"),
            pytest.param(_edited("flc_t.antecedents.0.universe", [-180.0]),
                         "flc_t.antecedents[0].universe must hold two numbers",
                         id="one-bound-universe"),
            pytest.param(_edited("flc_t.antecedents.0.terms.1.breakpoints.1", float("nan")),
                         "flc_t.antecedents[0].terms[1].breakpoints[1] must be a finite number, "
                         "got nan", id="nan-breakpoint"),
            pytest.param(_edited("flc_t.antecedents.0.terms.1.breakpoints.1", float("inf")),
                         "flc_t.antecedents[0].terms[1].breakpoints[1] must be a finite number, "
                         "got inf", id="infinite-breakpoint"),
            pytest.param(_edited("flc_c.rules.0.then", ["PB"]),
                         "flc_c.rules[0].then must be a JSON string", id="list-as-rule-label"),
            # An unknown key at each of the five levels; a "weight" key that
            # loaded would leave every rule at full weight.
            pytest.param(_edited("flc_s", {}), "unknown key(s) ['flc_s']",
                         id="unknown-key-document"),
            pytest.param(_edited("flc_t.hedge", "very"), "flc_t: unknown key(s) ['hedge']",
                         id="unknown-key-rule-base"),
            pytest.param(_edited("flc_c.consequent.unit", "deg"),
                         "flc_c.consequent: unknown key(s) ['unit']", id="unknown-key-variable"),
            pytest.param(_edited("flc_t.antecedents.1.terms.0.colour", "red"),
                         "flc_t.antecedents[1].terms[0]: unknown key(s) ['colour']",
                         id="unknown-key-term"),
            pytest.param(_edited("flc_c.rules.3.weight", 0.0),
                         "flc_c.rules[3]: unknown key(s) ['weight']", id="unknown-key-rule"),
            pytest.param(_edited("flc_c.antecedents.0.name", ["G"]),
                         "flc_c.antecedents[0].name must be a JSON string", id="list-as-name"),
            pytest.param(_edited("flc_t.consequent.terms.2.label", 3),
                         "flc_t.consequent.terms[2].label must be a JSON string",
                         id="number-as-label"),
            pytest.param(_edited("flc_c.consequent.terms.0.kind", None),
                         "flc_c.consequent.terms[0].kind must be a JSON string",
                         id="null-as-kind"),
            pytest.param(_edited("flc_t.rules.2.when.1", 7),
                         "flc_t.rules[2].when[1] must be a JSON string", id="number-in-when"),
            pytest.param(_edited("flc_t.antecedents.1.terms", {"LE": [-100, -40]}),
                         "flc_t.antecedents[1].terms must be a JSON list", id="object-as-terms"),
            pytest.param(_edited("flc_c.rules", "identity"),
                         "flc_c.rules must be a JSON list", id="string-as-rules"),
            pytest.param(_edited("flc_t.rules.2.when", 7),
                         "flc_t.rules[2].when must be a JSON list, got 7", id="number-as-when"),
            pytest.param(_edited("flc_c.antecedents.0.terms.0.label", _DELETE),
                         "flc_c.antecedents[0].terms[0]: missing key(s) ['label']",
                         id="missing-label"),
            pytest.param(_edited("flc_c", _DELETE), "missing key(s) ['flc_c']",
                         id="missing-rule-base"),
        ],
    )
    def test_malformed_controller_document_gives_one_error_line(
        self, tmp_path, verb, raw, message
    ):
        bad = tmp_path / "ctl.json"
        bad.write_bytes(raw)
        out = tmp_path / "out"
        if verb == "surface":
            argv = ["surface", "flc_t", "--out", str(out)]
        else:
            scenario = write_doc(tmp_path, "s.json", scenario_doc(0.0, 50.0, 0.0, 0.0))
            argv = ["run", "--scenario", str(scenario), "--out", str(out)]
        code, err = _run_cli([*argv, "--controllers", str(bad)])
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error:"), err
        assert err[0].count(str(bad)) == 1
        assert err[0].startswith(f"error: {bad}: {message}"), err

    def test_module_entry_point(self, tmp_path):
        doc = write_doc(tmp_path, "s.json", scenario_doc(-60.0, 120.0, 30.0, 0.0))
        proc = subprocess.run(
            [sys.executable, "-m", "fuzzydock.cli", "run",
             "--scenario", str(doc), "--out", str(tmp_path)],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "docked" in proc.stdout

    def test_cli_import_loads_no_unused_packages(self):
        # xml.sax.saxutils alone pulls in urllib.request, http.client and email.
        src = Path(cli.__file__).resolve().parent.parent
        code = (f"import sys; sys.path.insert(0, {str(src)!r}); import fuzzydock.cli; "
                "print(*sys.modules)")
        proc = subprocess.run([sys.executable, "-I", "-S", "-c", code],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        unused = [
            name for name in proc.stdout.split()
            if name.split(".")[0] in ("xml", "email", "http") or name == "urllib.request"
            or name.startswith("importlib.resources")
        ]
        assert unused == []


# -- Artifact bytes -------------------------------------------------------------

def _g17(v):
    return format(float(v), ".17g")


def csv_writer_bytes(header, rows):
    """The CSV bytes that ``csv.writer`` gives for ``header`` and ``rows``:
    the rendering the writers are pinned to."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode("utf-8")


def wide_overlap(doc):
    """``doc`` with every term reaching two peaks to each side instead of
    one, so that up to three terms of a variable overlap."""
    wide = copy.deepcopy(doc)
    for rb in wide.values():
        for var in [*rb["antecedents"], rb["consequent"]]:
            terms = var["terms"]
            peaks = [var["universe"][0], *(t["breakpoints"][1] for t in terms[1:-1]),
                     var["universe"][1]]
            last = len(peaks) - 1
            terms[0]["breakpoints"] = [peaks[0], peaks[2]]
            terms[-1]["breakpoints"] = [peaks[-3], peaks[-1]]
            for i in range(1, last):
                terms[i]["breakpoints"] = [peaks[max(i - 2, 0)], peaks[i], peaks[min(i + 2, last)]]
    return wide


class TestArtifactBytes:
    """Every CSV artifact is byte for byte what ``csv.writer`` with floats
    through ``format(float(v), ".17g")`` writes for the same values."""

    @pytest.mark.parametrize("yard", sorted(REPO_SCENARIOS.glob("*.json")), ids=lambda p: p.stem)
    def test_trajectory_csv(self, tmp_path, yard):
        code, _ = _run_cli(["run", "--scenario", str(yard), "--mode", "both",
                            "--out", str(tmp_path)])
        assert code in (0, 2)
        trajectories = run(replace(load_scenario_file(yard), mode="both"))
        expected = csv_writer_bytes(
            ("step", "x", "y", "alpha_deg", "beta_deg",
             "beta_prime_deg", "gamma_deg", "theta_deg", "mode"),
            [
                [s.step, *map(_g17, s.state), _g17(s.beta_prime), _g17(s.gamma),
                 _g17(s.theta), t.mode]
                for t in trajectories for s in t.samples
            ],
        )
        assert (tmp_path / "trajectory.csv").read_bytes() == expected

    def test_sweep_csv_with_error_cell_and_negative_zero(self, tmp_path):
        # y0 = -5 is an invalid start, recorded as an error cell; alpha0 =
        # -10/3 needs all 17 digits.
        p = write_doc(
            tmp_path, "g.json",
            grid_doc((-0.0, -0.0, 1), (-5, 30, 2), (-10, 10, 4), (-0.0, -0.0, 1), max_steps=200),
        )
        code, _ = _run_cli(["sweep", "--scenario", str(p), "--out", str(tmp_path)])
        assert code == 0
        report = sweep(*load_grid_file(p))
        expected = csv_writer_bytes(
            ("x0", "y0", "alpha0", "beta0", "outcome", "steps"),
            [[_g17(c.x), _g17(c.y), _g17(c.alpha), _g17(c.beta), c.kind, c.steps]
             for c in report.cells],
        )
        actual = (tmp_path / "sweep.csv").read_bytes()
        assert actual == expected
        assert b"\r\n-0,-5,-10,-0,error,0\r\n" in actual

    @pytest.mark.parametrize("resolution", [2, 7, 101])
    @pytest.mark.parametrize("document", ["bundled", "wide-overlap"])
    @pytest.mark.parametrize("controller", ["flc_t", "flc_c"])
    def test_surface_csv(self, tmp_path, controller, document, resolution):
        argv = ["surface", controller, "--resolution", str(resolution), "--out", str(tmp_path)]
        if document == "bundled":
            controllers = default_controllers()
        else:
            ctl = write_doc(tmp_path, "ctl.json", wide_overlap(BUNDLED_CONTROLLERS))
            controllers = load_controllers(ctl)
            argv += ["--controllers", str(ctl)]
        code, _ = _run_cli(argv)
        assert code == 0
        if controller == "flc_t":
            (lo_a, hi_a), (lo_x, hi_x) = (v.universe for v in controllers.flc_t.antecedents)
            expected = csv_writer_bytes(
                ("x", "alpha_deg", "beta_prime_deg"),
                [[_g17(x), _g17(alpha), _g17(flc_t(x, alpha, controllers))]
                 for x in AxisSpec(lo_x, hi_x, resolution).values()
                 for alpha in AxisSpec(lo_a, hi_a, resolution).values()],
            )
        else:
            lo_g, hi_g = controllers.flc_c.antecedents[0].universe
            expected = csv_writer_bytes(
                ("gamma_deg", "theta_deg"),
                [[_g17(gamma), _g17(flc_c(gamma, controllers))]
                 for gamma in AxisSpec(lo_g, hi_g, resolution).values()],
            )
        assert (tmp_path / f"surface_{controller}.csv").read_bytes() == expected


class TestSharedParser:
    """``main`` reuses one parser per process; no call may leak into the next."""

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_mode_flag_does_not_stick(self, tmp_path):
        doc = write_doc(tmp_path, "s.json", scenario_doc(-60.0, 120.0, 30.0, 0.0, mode="both"))
        first, second = tmp_path / "first", tmp_path / "second"
        _run_cli(["run", "--scenario", str(doc), "--mode", "reference", "--out", str(first)])
        _run_cli(["run", "--scenario", str(doc), "--out", str(second)])
        assert {r[-1] for r in read_csv(first / "trajectory.csv")[1:]} == {"reference"}
        assert {r[-1] for r in read_csv(second / "trajectory.csv")[1:]} == {"cascade", "reference"}

    def test_resolution_flag_does_not_stick(self, tmp_path):
        assert _run_cli(["surface", "flc_c", "--resolution", "7", "--out", str(tmp_path)])[0] == 0
        assert _run_cli(["surface", "flc_t", "--out", str(tmp_path)])[0] == 0
        assert len(read_csv(tmp_path / "surface_flc_c.csv")) == 7 + 1
        assert len(read_csv(tmp_path / "surface_flc_t.csv")) == 101 * 101 + 1

    def test_command_is_resolved_per_call(self, tmp_path, monkeypatch):
        assert _run_cli(["surface", "flc_c", "--resolution", "2", "--out", str(tmp_path)])[0] == 0
        seen = []
        monkeypatch.setattr(cli, "cmd_surface", lambda args: seen.append(args.resolution) or 0)
        assert _run_cli(["surface", "flc_c", "--resolution", "3", "--out", str(tmp_path)]) == (0, [])
        assert seen == [3]

    def test_usage_error_does_not_change_the_next_call(self, tmp_path):
        code, err = _run_cli(["surface", "flc_c", "--resolution", "x", "--out", str(tmp_path)])
        assert code == 1 and err[0].startswith("error:")
        assert _run_cli(["surface", "flc_c", "--out", str(tmp_path)]) == (0, [])
        assert len(read_csv(tmp_path / "surface_flc_c.csv")) == 101 + 1

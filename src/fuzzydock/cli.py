"""Command-line front end: run scenarios, sweep initial conditions, dump
control surfaces. Outputs are JSON, CSV, and SVG only, so results stay
diff-able and need no plotting stack.

Exit codes: 0 all executed runs docked (or the report was written, for sweep
and surface), 2 a run finished in a failure outcome, 1 usage or IO error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import replace
from pathlib import Path
from typing import Sequence
from xml.sax.saxutils import escape

from .controllers import ControllerSet, default_controllers, flc_c, flc_t, load_controllers
from .errors import InputDomainError, UsageError
from .plant import DOCKED, DockTolerance, PlantParams, PlantState
from .simulation import (
    AxisSpec,
    Scenario,
    SweepGrid,
    SweepReport,
    Trajectory,
    convergence_metric,
    run,
    sweep,
)

_TRAJECTORY_COLUMNS = (
    "step", "x", "y", "alpha_deg", "beta_deg",
    "beta_prime_deg", "gamma_deg", "theta_deg", "mode",
)


def _g17(v: float) -> str:
    # 17 significant digits round-trip any float exactly.
    return format(float(v), ".17g")


# -- Scenario files -----------------------------------------------------------

_TOP_KEYS = {"label", "initial", "params", "tolerances", "max_steps", "mode"}
_INITIAL_KEYS = ("x", "y", "alpha_deg", "beta_deg")
# Document key -> dataclass field; absent keys take the dataclass default.
_PARAM_FIELDS = {
    "v": "v", "l_c": "l_c", "l_t": "l_t",
    "theta_max_deg": "theta_max", "beta_max_deg": "beta_max",
}
_TOL_FIELDS = {"x_tol": "x_tol", "y_tol": "y_tol", "alpha_tol_deg": "alpha_tol"}


def _check_keys(doc: dict, allowed, where: str) -> None:
    unknown = set(doc).difference(allowed)
    if unknown:
        raise UsageError(f"unknown key(s) {sorted(unknown)} in {where}")


def _object(value, allowed, where: str) -> dict:
    """``value`` as a JSON object whose keys all lie in ``allowed``."""
    if not isinstance(value, dict):
        raise UsageError(f"{where} must be a JSON object, got {value!r}")
    _check_keys(value, allowed, where)
    return value


def _number(value, where: str) -> float:
    """``value`` as a finite float; JSON booleans and strings are not numbers."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if math.isfinite(number):
            return number
    raise UsageError(f"{where} must be a finite number, got {value!r}")


def _load_json(path: Path) -> dict:
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer literal past Python's digit limit
        raise UsageError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise UsageError(f"{path}: top level must be a JSON object")
    return doc


def _plant_settings(doc: dict, path: Path) -> tuple[PlantParams, DockTolerance, int]:
    """The params, tolerances and max_steps shared by scenario and grid
    documents."""
    par = _object(doc.get("params", {}), _PARAM_FIELDS, f"{path}: params")
    tol = _object(doc.get("tolerances", {}), _TOL_FIELDS, f"{path}: tolerances")
    params = PlantParams(
        **{_PARAM_FIELDS[k]: _number(v, f"{path}: params.{k}") for k, v in par.items()}
    )
    tolerances = DockTolerance(
        **{_TOL_FIELDS[k]: _number(v, f"{path}: tolerances.{k}") for k, v in tol.items()}
    )
    return params, tolerances, int(_number(doc.get("max_steps", 1000), f"{path}: max_steps"))


def load_scenario_file(path: Path) -> Scenario:
    """Parse a scenario document; unknown keys are rejected, missing optional
    sections take the library defaults."""
    doc = _load_json(path)
    _check_keys(doc, _TOP_KEYS, str(path))
    if "initial" not in doc:
        raise UsageError(f"{path}: missing required key 'initial'")
    init = _object(doc["initial"], _INITIAL_KEYS, f"{path}: initial")
    missing = set(_INITIAL_KEYS) - set(init)
    if missing:
        raise UsageError(f"{path}: initial is missing {sorted(missing)}")
    initial = PlantState(*(_number(init[k], f"{path}: initial.{k}") for k in _INITIAL_KEYS))
    params, tolerances, max_steps = _plant_settings(doc, path)
    return Scenario(
        initial=initial,
        params=params,
        tolerances=tolerances,
        max_steps=max_steps,
        mode=str(doc.get("mode", "cascade")),
        label=str(doc.get("label", "")),
    )


# -- Writers ------------------------------------------------------------------

def write_trajectory_csv(path: Path, trajectories: Sequence[Trajectory]) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_TRAJECTORY_COLUMNS)
        for trajectory in trajectories:
            for s in trajectory.samples:
                writer.writerow(
                    [
                        s.step,
                        _g17(s.state.x), _g17(s.state.y),
                        _g17(s.state.alpha), _g17(s.state.beta),
                        _g17(s.beta_prime), _g17(s.gamma), _g17(s.theta),
                        trajectory.mode,
                    ]
                )


def write_outcome_json(path: Path, label: str, trajectories: Sequence[Trajectory]) -> None:
    doc = {
        "label": label,
        "outcomes": {
            t.mode: {
                "kind": t.outcome.kind,
                "steps": t.outcome.steps,
                "final_state": {
                    "x": t.outcome.final_state.x,
                    "y": t.outcome.final_state.y,
                    "alpha_deg": t.outcome.final_state.alpha,
                    "beta_deg": t.outcome.final_state.beta,
                },
            }
            for t in trajectories
        },
    }
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


_SVG_COLORS = {"cascade": "#1f6feb", "reference": "#d1242f"}
_TICK_EVERY = 20


def write_trajectory_svg(path: Path, label: str, trajectories: Sequence[Trajectory]) -> None:
    """Planar plot: one polyline per mode, dock marker at the origin, short
    heading ticks along each curve."""
    xs = [0.0]
    ys = [0.0]
    for t in trajectories:
        xs.extend(s.state.x for s in t.samples)
        ys.extend(s.state.y for s in t.samples)
    pad = 0.05 * max(max(xs) - min(xs), max(ys) - min(ys), 1.0)
    lo_x, hi_x = min(xs) - pad, max(xs) + pad
    lo_y, hi_y = min(ys) - pad, max(ys) + pad
    width, height = 640.0, 640.0

    def to_px(x: float, y: float) -> tuple[float, float]:
        # World y points away from the dock; SVG y points down the canvas.
        px = (x - lo_x) / (hi_x - lo_x) * width
        py = (hi_y - y) / (hi_y - lo_y) * height
        return px, py

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        f"<title>{escape(label or 'trajectory')}</title>",
        '<rect width="100%" height="100%" fill="white"/>',
    ]
    mx, my = to_px(0.0, 0.0)
    parts.append(
        f'<circle cx="{mx:.2f}" cy="{my:.2f}" r="5" fill="none" '
        'stroke="black" stroke-width="1.5"/>'
    )
    tick_len = 0.02 * max(hi_x - lo_x, hi_y - lo_y)
    for t in trajectories:
        color = _SVG_COLORS.get(t.mode, "#57606a")
        points = " ".join(
            f"{px:.2f},{py:.2f}"
            for px, py in (to_px(s.state.x, s.state.y) for s in t.samples)
        )
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.2" '
            f'points="{points}"/>'
        )
        for s in t.samples[::_TICK_EVERY]:
            hx = s.state.x + tick_len * math.sin(math.radians(s.state.alpha))
            hy = s.state.y + tick_len * math.cos(math.radians(s.state.alpha))
            x1, y1 = to_px(s.state.x, s.state.y)
            x2, y2 = to_px(hx, hy)
            parts.append(
                f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
                f'stroke="{color}" stroke-width="0.8"/>'
            )
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n", encoding="utf-8")


# -- Commands -----------------------------------------------------------------

def _resolve_controllers(args: argparse.Namespace) -> ControllerSet:
    if args.controllers is not None:
        return load_controllers(args.controllers)
    return default_controllers()


def cmd_run(args: argparse.Namespace) -> int:
    scenario = load_scenario_file(Path(args.scenario))
    if args.mode is not None:
        scenario = replace(scenario, mode=args.mode)
    if args.max_steps is not None:
        scenario = replace(scenario, max_steps=args.max_steps)
    controllers = _resolve_controllers(args)
    result = run(scenario, controllers)
    trajectories = list(result) if isinstance(result, tuple) else [result]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_trajectory_csv(out / "trajectory.csv", trajectories)
    write_outcome_json(out / "outcome.json", scenario.label, trajectories)
    write_trajectory_svg(out / "trajectory.svg", scenario.label, trajectories)
    name = scenario.label or Path(args.scenario).stem
    for t in trajectories:
        fs = t.outcome.final_state
        print(
            f"{name} [{t.mode}]: "
            f"{t.outcome.kind} after {t.outcome.steps} steps at "
            f"x={fs.x:.2f} y={fs.y:.2f} alpha={fs.alpha:.2f}"
        )
    if len(trajectories) == 2:
        report = convergence_metric(*trajectories)
        print(
            f"{name} [separation]: peak {max(report.distances):.2f}, "
            f"last-10-step mean {report.tail_mean:.2f}"
        )
    return 0 if all(t.outcome.kind == DOCKED for t in trajectories) else 2


_GRID_KEYS = {"axes", "params", "tolerances", "max_steps", "label"}
_AXIS_KEYS = {"min", "max", "count"}
_AXIS_NAMES = ("x", "y", "alpha", "beta")


def load_grid_file(path: Path) -> tuple[SweepGrid, PlantParams, DockTolerance, int]:
    doc = _load_json(path)
    _check_keys(doc, _GRID_KEYS, str(path))
    if "axes" not in doc:
        raise UsageError(f"{path}: missing required key 'axes'")
    axes = _object(doc["axes"], _AXIS_NAMES, f"{path}: axes")
    specs = {}
    for name in _AXIS_NAMES:
        if name not in axes:
            raise UsageError(f"{path}: axes is missing {name!r}")
        ax = _object(axes[name], _AXIS_KEYS, f"{path}: axes.{name}")
        missing = _AXIS_KEYS - set(ax)
        if missing:
            raise UsageError(f"{path}: axes.{name} is missing {sorted(missing)}")
        lo, hi, count = (_number(ax[k], f"{path}: axes.{name}.{k}") for k in ("min", "max", "count"))
        specs[name] = AxisSpec(lo, hi, int(count))
    return SweepGrid(**specs), *_plant_settings(doc, path)


def write_sweep_csv(path: Path, report: SweepReport) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("x0", "y0", "alpha0", "beta0", "outcome", "steps"))
        for c in report.cells:
            writer.writerow(
                [_g17(c.x), _g17(c.y), _g17(c.alpha), _g17(c.beta), c.kind, c.steps]
            )


def cmd_sweep(args: argparse.Namespace) -> int:
    grid, params, tolerances, max_steps = load_grid_file(Path(args.scenario))
    if args.max_steps is not None:
        max_steps = args.max_steps
    controllers = _resolve_controllers(args)
    report = sweep(grid, params, tolerances, max_steps, controllers)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_sweep_csv(out / "sweep.csv", report)
    summary = {
        "cells": len(report.cells),
        "success_ratio": report.success_ratio,
        "counts": dict(sorted(report.counts.items())),
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    print(
        f"{len(report.cells)} cells, success ratio {report.success_ratio:.3f}, "
        f"counts {summary['counts']}"
    )
    return 0


def cmd_surface(args: argparse.Namespace) -> int:
    if args.resolution < 2:
        raise UsageError("resolution must be >= 2")
    controllers = _resolve_controllers(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"surface_{args.controller}.csv"
    n = args.resolution
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if args.controller == "flc_t":
            (lo_a, hi_a), (lo_x, hi_x) = (v.universe for v in controllers.flc_t.antecedents)
            alphas = AxisSpec(lo_a, hi_a, n).values()
            writer.writerow(("x", "alpha_deg", "beta_prime_deg"))
            for x in AxisSpec(lo_x, hi_x, n).values():
                for alpha in alphas:
                    writer.writerow([_g17(x), _g17(alpha), _g17(flc_t(x, alpha, controllers))])
        else:
            lo_g, hi_g = controllers.flc_c.antecedents[0].universe
            writer.writerow(("gamma_deg", "theta_deg"))
            for gamma in AxisSpec(lo_g, hi_g, n).values():
                writer.writerow([_g17(gamma), _g17(flc_c(gamma, controllers))])
    print(f"wrote {path}")
    return 0


# -- Entry point --------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage; 2 is reserved here for failed
    # runs, so usage problems are routed through UsageError instead.
    def error(self, message: str):  # noqa: D102
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fuzzydock", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one scenario file")
    p_run.add_argument("--scenario", required=True, help="scenario JSON path")
    p_run.add_argument("--out", default=".", help="output directory")
    p_run.add_argument("--mode", choices=("cascade", "reference", "both"), default=None)
    p_run.add_argument("--controllers", default=None, help="controller JSON override")
    p_run.add_argument("--max-steps", type=int, default=None)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a grid of initial conditions")
    p_sweep.add_argument("--scenario", required=True, help="grid JSON path")
    p_sweep.add_argument("--out", default=".", help="output directory")
    p_sweep.add_argument("--controllers", default=None, help="controller JSON override")
    p_sweep.add_argument("--max-steps", type=int, default=None)
    p_sweep.set_defaults(func=cmd_sweep)

    p_surface = sub.add_parser("surface", help="dump a controller response surface")
    p_surface.add_argument("controller", choices=("flc_t", "flc_c"))
    p_surface.add_argument("--resolution", type=int, default=101)
    p_surface.add_argument("--out", default=".", help="output directory")
    p_surface.add_argument("--controllers", default=None, help="controller JSON override")
    p_surface.set_defaults(func=cmd_surface)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (UsageError, InputDomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

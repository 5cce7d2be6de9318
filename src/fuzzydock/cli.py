"""Command-line front end: run scenarios, sweep initial conditions, dump
control surfaces. Outputs are JSON, CSV, and SVG only, so results stay
diff-able and need no plotting stack.

Exit codes: 0 all executed runs docked (or the report was written, for sweep
and surface), 2 a run finished in a failure outcome, 1 usage or IO error.
"""

from __future__ import annotations

import argparse
import functools
import html
import json
import math
import sys
import warnings
from dataclasses import replace
from pathlib import Path
from typing import Sequence

from .controllers import ControllerSet, default_controllers, flc_c, flc_t, load_controllers
from .errors import DegenerateFiringWarning, InputDomainError, UsageError
from .fuzzy import json_number, json_object, json_string, load_json
from .plant import DOCKED, DockTolerance, PlantParams, PlantState
from .simulation import (
    MODES,
    AxisSpec,
    Scenario,
    SweepGrid,
    SweepReport,
    Trajectory,
    convergence_metric,
    run,
    sweep,
)

# CSV artifacts: a header row, comma-separated fields that never need
# quoting, "\r\n" line ends, floats as "%.17g" (17 significant digits
# round-trip any float exactly). Each row is one %-format.
_TRAJECTORY_HEADER = (
    "step,x,y,alpha_deg,beta_deg,beta_prime_deg,gamma_deg,theta_deg,mode\r\n"
)
_SWEEP_HEADER = "x0,y0,alpha0,beta0,outcome,steps\r\n"


# -- Scenario files -----------------------------------------------------------

_TOP_KEYS = {"label", "initial", "params", "tolerances", "max_steps", "mode"}
_INITIAL_KEYS = ("x", "y", "alpha_deg", "beta_deg")
# Document key -> dataclass field; absent keys take the dataclass default.
_PARAM_FIELDS = {
    "v": "v", "l_c": "l_c", "l_t": "l_t",
    "theta_max_deg": "theta_max", "beta_max_deg": "beta_max",
}
_TOL_FIELDS = {"x_tol": "x_tol", "y_tol": "y_tol", "alpha_tol_deg": "alpha_tol"}


def _whole_number(value, where: str) -> int:
    """``value`` as a whole number of at least 1; a fraction is an error,
    not something to truncate."""
    number = json_number(value, where)
    if not number.is_integer() or number < 1:
        raise UsageError(f"{where} must be a whole number >= 1, got {value!r}")
    return int(number)


def _plant_settings(doc: dict, path: Path) -> tuple[PlantParams, DockTolerance, int]:
    """The params, tolerances and max_steps shared by scenario and grid
    documents."""
    settings = []
    for key, cls, fields in (("params", PlantParams, _PARAM_FIELDS),
                             ("tolerances", DockTolerance, _TOL_FIELDS)):
        where = f"{path}: {key}"
        section = json_object(doc.get(key, {}), fields, where, required=())
        values = {fields[k]: json_number(v, f"{where}.{k}") for k, v in section.items()}
        try:
            settings.append(cls(**values))
        except UsageError as exc:
            raise UsageError(f"{where}: {exc}") from exc
    return *settings, _whole_number(doc.get("max_steps", 1000), f"{path}: max_steps")


def load_scenario_file(path: Path) -> Scenario:
    """Parse a scenario document; unknown keys are rejected, missing optional
    sections take the library defaults."""
    doc = json_object(load_json(path), _TOP_KEYS, str(path), ("initial",))
    init = json_object(doc["initial"], _INITIAL_KEYS, f"{path}: initial")
    initial = PlantState(*(json_number(init[k], f"{path}: initial.{k}") for k in _INITIAL_KEYS))
    params, tolerances, max_steps = _plant_settings(doc, path)
    mode = json_string(doc.get("mode", "cascade"), f"{path}: mode")
    label = json_string(doc.get("label", ""), f"{path}: label")
    try:
        return Scenario(initial, params, tolerances, max_steps, mode, label)
    except UsageError as exc:
        raise UsageError(f"{path}: {exc}") from exc


# -- Writers ------------------------------------------------------------------

def write_trajectory_csv(path: Path, trajectories: Sequence[Trajectory]) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        fh.write(_TRAJECTORY_HEADER)
        for trajectory in trajectories:
            # The mode is one of MODES, so it holds no "%" to escape.
            row = "%d" + ",%.17g" * 7 + f",{trajectory.mode}\r\n"
            fh.writelines(
                row % (step, *state, beta_prime, gamma, theta)
                for step, state, beta_prime, gamma, theta in trajectory.samples
            )


def write_outcome_json(path: Path, label: str, trajectories: Sequence[Trajectory]) -> None:
    doc = {
        "label": label,
        "outcomes": {
            t.mode: {
                "kind": t.outcome.kind,
                "steps": t.outcome.steps,
                "final_state": dict(zip(_INITIAL_KEYS, t.outcome.final_state)),
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
        f"<title>{html.escape(label or 'trajectory', quote=False)}</title>",
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
    trajectories = list(result) if scenario.mode == "both" else [result]
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
    doc = json_object(load_json(path), _GRID_KEYS, str(path), ("axes",))
    axes = json_object(doc["axes"], _AXIS_NAMES, f"{path}: axes")
    specs = {}
    for name in _AXIS_NAMES:
        ax = json_object(axes[name], _AXIS_KEYS, f"{path}: axes.{name}")
        lo, hi = (json_number(ax[k], f"{path}: axes.{name}.{k}") for k in ("min", "max"))
        count = _whole_number(ax["count"], f"{path}: axes.{name}.count")
        # Sampling the axis here makes an overflowing one fail at load,
        # naming the file and the axis.
        try:
            specs[name] = AxisSpec(lo, hi, count)
            specs[name].values()
        except UsageError as exc:
            raise UsageError(f"{path}: axes.{name}: {exc}") from exc
    json_string(doc.get("label", ""), f"{path}: label")
    return SweepGrid(**specs), *_plant_settings(doc, path)


def write_sweep_csv(path: Path, report: SweepReport) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        fh.write(_SWEEP_HEADER)
        fh.writelines(
            "%.17g,%.17g,%.17g,%.17g,%s,%d\r\n" % (c.x, c.y, c.alpha, c.beta, c.kind, c.steps)
            for c in report.cells
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
    n = args.resolution
    # The axes are sampled before the file is opened, so an axis that
    # overflows leaves no truncated CSV behind.
    if args.controller == "flc_t":
        (lo_a, hi_a), (lo_x, hi_x) = (v.universe for v in controllers.flc_t.antecedents)
        alphas = AxisSpec(lo_a, hi_a, n).values()
        xs = AxisSpec(lo_x, hi_x, n).values()
        header = "x,alpha_deg,beta_prime_deg\r\n"
        # Each axis value is formatted once, and each x row is written as one
        # string, so memory stays flat in the resolution.
        alpha_cells = [(alpha, ",%.17g," % alpha) for alpha in alphas]
        lines = (
            "".join([f"{x_cell}{alpha_cell}{flc_t(x, alpha, controllers):.17g}\r\n"
                     for alpha, alpha_cell in alpha_cells])
            for x, x_cell in zip(xs, ["%.17g" % x for x in xs])
        )
    else:
        lo_g, hi_g = controllers.flc_c.antecedents[0].universe
        gammas = AxisSpec(lo_g, hi_g, n).values()
        header = "gamma_deg,theta_deg\r\n"
        lines = ("%.17g,%.17g\r\n" % (gamma, flc_c(gamma, controllers)) for gamma in gammas)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"surface_{args.controller}.csv"
    with path.open("w", newline="", encoding="utf-8") as fh:
        fh.write(header)
        fh.writelines(lines)
    print(f"wrote {path}")
    return 0


# -- Entry point --------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage; 2 is reserved here for failed
    # runs, so usage problems are routed through UsageError instead.
    def error(self, message: str):  # noqa: D102
        raise UsageError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later
    ``main`` call in the process; parsing leaves it unchanged."""
    parser = _Parser(prog="fuzzydock", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one scenario file")
    p_run.add_argument("--scenario", required=True, help="scenario JSON path")
    p_run.add_argument("--mode", choices=MODES, default=None)

    p_sweep = sub.add_parser("sweep", help="run a grid of initial conditions")
    p_sweep.add_argument("--scenario", required=True, help="grid JSON path")

    p_surface = sub.add_parser("surface", help="dump a controller response surface")
    p_surface.add_argument("controller", choices=("flc_t", "flc_c"))
    p_surface.add_argument("--resolution", type=int, default=101)

    for verb in (p_run, p_sweep, p_surface):
        verb.add_argument("--out", default=".", help="output directory")
        verb.add_argument("--controllers", default=None, help="controller JSON override")
    for verb in (p_run, p_sweep):
        verb.add_argument("--max-steps", type=int, default=None)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    no_rule_fired = 0
    show = warnings.showwarning

    def record(message, category, *args, **kwargs):
        # Counted, not kept: a gapped controller document can leave every
        # point of a large surface uncovered.
        nonlocal no_rule_fired
        if issubclass(category, DegenerateFiringWarning):
            no_rule_fired += 1
        else:
            show(message, category, *args, **kwargs)

    with warnings.catch_warnings():
        warnings.simplefilter("always", DegenerateFiringWarning)
        warnings.showwarning = record
        try:
            args = parser.parse_args(argv)
            # Resolved per call, not bound into the cached parser, so a command
            # function replaced after the first call (by a tracer, say) runs.
            code = globals()[f"cmd_{args.command}"](args)
        except (UsageError, InputDomainError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    if no_rule_fired:
        print(
            f"warning: no rule fired at {no_rule_fired} inputs; "
            "used the consequent midpoint there",
            file=sys.stderr,
        )
    return code


if __name__ == "__main__":
    sys.exit(main())

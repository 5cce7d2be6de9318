"""The benchmark's three workloads: seeded inputs and output checks.

Each workload writes its inputs from the seed, names the CLI invocations of
one round, and checks what each invocation wrote against ``reference`` and
the structural properties of the artifacts. A check failure raises
``CheckFailed``; nothing is compared with output stored from an earlier run.
"""

from __future__ import annotations

import copy
import csv
import itertools
import json
import random
import xml.etree.ElementTree as ET
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import reference as ref

OUTCOME_KINDS = {"docked", "jackknifed", "insufficient-space", "out-of-bounds", "timeout", "error"}
PARAM_DEFAULTS = {"v": 1.0, "l_c": 2.0, "l_t": 8.0, "theta_max_deg": 30.0, "beta_max_deg": 30.0}
TOL_DEFAULTS = {"x_tol": 2.0, "y_tol": 1.0, "alpha_tol_deg": 10.0}


class CheckFailed(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Operation:
    argv: tuple[str, ...]
    out: Path
    label: str


def read_csv(path: Path) -> list[list[str]]:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def axis_values(lo: float, hi: float, count: int) -> list[float]:
    if count == 1:
        return [lo]
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


def plant_settings(doc: dict) -> tuple[dict, dict, int]:
    """(params, tolerances, max_steps) of a scenario or grid document, with
    the defaults the README documents."""
    par = dict(PARAM_DEFAULTS, **doc.get("params", {}))
    tol = dict(TOL_DEFAULTS, **doc.get("tolerances", {}))
    params = {"v": float(par["v"]), "l_c": float(par["l_c"]), "l_t": float(par["l_t"]),
              "theta_max": float(par["theta_max_deg"]), "beta_max": float(par["beta_max_deg"])}
    tolerances = {"x_tol": float(tol["x_tol"]), "y_tol": float(tol["y_tol"]),
                  "alpha_tol": float(tol["alpha_tol_deg"])}
    return params, tolerances, int(doc.get("max_steps", 1000))


def bundled_document(root: Path) -> dict:
    return json.loads((root / "src" / "fuzzydock" / "data" / "controllers.json").read_text("utf-8"))


class Workload:
    name = ""
    #: Controller document the set-up child loads; None builds the default set.
    controllers_path: Path | None = None

    def __init__(self, root: Path, out: Path, seed: int):
        self.root = root
        self.out = out
        self.rng = random.Random(f"{self.name}-checks:{seed}")

    def operations(self) -> list[Operation]:
        raise NotImplementedError

    def check(self, op: Operation) -> dict:
        """Validate what ``op`` wrote; return its work (plant steps or surface
        points) and the bytes of its artifacts."""
        raise NotImplementedError

    def artifacts(self) -> list[Path]:
        """Deterministic files one round writes, for the behaviour digest."""
        raise NotImplementedError


# -- sweep ------------------------------------------------------------------------

SWEEP_GRIDS = 3
SWEEP_MAX_STEPS = 400


class Sweep(Workload):
    """``fuzzydock sweep`` over three seeded 3 x 2 x 9 x 1 grids per round.

    Each grid spans both sides of the yard, with the middle x within 10 of
    the centre line, where starts at alpha = +-180 never turn round and time
    out; alpha covers the whole circle in 45 degree rows including both +-180
    rows, and the +-90 rows run out of space. y takes one near and one far
    value and the cab angle beta one value within +-30, drawn per grid. The
    narrow ranges keep a grid's step total within 2% (coefficient of
    variation) across seeds, so invocation latency hardly depends on the seed.
    """

    name = "sweep"

    def __init__(self, root: Path, out: Path, seed: int):
        super().__init__(root, out, seed)
        gen = random.Random(f"sweep:{seed}")
        out.mkdir(parents=True, exist_ok=True)
        self.grids = []
        for k in range(SWEEP_GRIDS):
            beta = gen.uniform(-30.0, 30.0)
            axes = {
                "x": {"min": -gen.uniform(60.0, 80.0), "max": gen.uniform(60.0, 80.0), "count": 3},
                "y": {"min": gen.uniform(35.0, 45.0), "max": gen.uniform(155.0, 165.0), "count": 2},
                "alpha": {"min": -180.0, "max": 180.0, "count": 9},
                "beta": {"min": beta, "max": beta, "count": 1},
            }
            doc = {"label": f"sweep seed {seed} grid {k}", "axes": axes, "max_steps": SWEEP_MAX_STEPS}
            path = out / f"grid{k}.json"
            path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
            self.grids.append((f"grid{k}", path, doc))
        self.params, self.tol, self.max_steps = plant_settings(self.grids[0][2])
        self.docs = {label: doc for label, _, doc in self.grids}
        self.reference = ref.Controllers(bundled_document(root))

    def operations(self) -> list[Operation]:
        return [
            Operation(("sweep", "--scenario", str(path), "--out", str(self.out / label)),
                      self.out / label, label)
            for label, path, _ in self.grids
        ]

    def artifacts(self) -> list[Path]:
        return [self.out / label / f for label, _, _ in self.grids for f in ("sweep.csv", "summary.json")]

    def check(self, op: Operation) -> dict:
        axes = self.docs[op.label]["axes"]
        rows = read_csv(op.out / "sweep.csv")
        require(rows[:1] == [["x0", "y0", "alpha0", "beta0", "outcome", "steps"]], "sweep.csv header")
        starts = list(itertools.product(*(
            axis_values(axes[k]["min"], axes[k]["max"], axes[k]["count"]) for k in ("x", "y", "alpha", "beta"))))
        cells = rows[1:]
        require(len(cells) == len(starts), f"sweep.csv has {len(cells)} cells, grid has {len(starts)}")
        parsed = []
        for row, start in zip(cells, starts):
            coords = tuple(float(v) for v in row[:4])
            require(all(ref.close(c, s) for c, s in zip(coords, start)),
                    f"sweep cell {coords} is not the grid point {start}")
            kind, steps = row[4], int(row[5])
            require(kind in OUTCOME_KINDS and 0 <= steps <= self.max_steps, f"sweep cell {row}")
            parsed.append((coords, kind, steps))
        summary = json.loads((op.out / "summary.json").read_text("utf-8"))
        counts = Counter(kind for _, kind, _ in parsed)
        require(summary["cells"] == len(parsed), "summary.json cells")
        require(sum(summary["counts"].values()) == len(parsed), "summary.json counts do not sum to cells")
        require(summary["counts"] == dict(counts), "summary.json counts disagree with sweep.csv")
        require(ref.close(summary["success_ratio"], counts["docked"] / len(parsed)), "success_ratio")
        # Replay one cell of an outcome kind drawn from those present, so
        # rare kinds such as timeouts are replayed as often as common ones.
        kind = self.rng.choice(sorted(counts))
        coords, _, steps = self.rng.choice([c for c in parsed if c[1] == kind])
        replay = ref.simulate(self.reference, coords, self.params, self.tol, self.max_steps)
        require(replay == (kind, steps), f"cell {coords}: program {(kind, steps)}, replay {replay}")
        size = sum((op.out / f).stat().st_size for f in ("sweep.csv", "summary.json"))
        return {"work": sum(steps for _, _, steps in parsed), "bytes": size}


# -- yards ------------------------------------------------------------------------

YARDS = ("yard_left_high", "yard_left_low", "yard_right_far")
TRAJECTORY_HEADER = ["step", "x", "y", "alpha_deg", "beta_deg",
                     "beta_prime_deg", "gamma_deg", "theta_deg", "mode"]
MODES = ("cascade", "reference")
INFERENCE_ROWS_PER_MODE = 6


class Yards(Workload):
    """``fuzzydock run --mode both`` on each bundled yard, in a seeded order."""

    name = "yards"

    def __init__(self, root: Path, out: Path, seed: int):
        super().__init__(root, out, seed)
        self.order = random.Random(f"yards:{seed}")
        self.scenarios = {stem: root / "scenarios" / f"{stem}.json" for stem in YARDS}
        self.docs = {stem: json.loads(p.read_text("utf-8")) for stem, p in self.scenarios.items()}
        self.reference = ref.Controllers(bundled_document(root))

    def operations(self) -> list[Operation]:
        stems = list(YARDS)
        self.order.shuffle(stems)
        return [
            Operation(("run", "--scenario", str(self.scenarios[s]), "--mode", "both",
                       "--out", str(self.out / s)), self.out / s, s)
            for s in stems
        ]

    def artifacts(self) -> list[Path]:
        return [self.out / s / f for s in YARDS
                for f in ("trajectory.csv", "outcome.json", "trajectory.svg")]

    def check(self, op: Operation) -> dict:
        doc = self.docs[op.label]
        params, tol, max_steps = plant_settings(doc)
        init = doc["initial"]
        start = (float(init["x"]), float(init["y"]), float(init["alpha_deg"]), float(init["beta_deg"]))
        outcome = json.loads((op.out / "outcome.json").read_text("utf-8"))
        require(sorted(outcome["outcomes"]) == sorted(MODES), f"{op.label}: modes in outcome.json")
        rows = read_csv(op.out / "trajectory.csv")
        require(rows[:1] == [TRAJECTORY_HEADER], f"{op.label}: trajectory.csv header")
        total = 0
        for mode in MODES:
            result = outcome["outcomes"][mode]
            require(result["kind"] == "docked", f"{op.label} [{mode}] ended {result['kind']}")
            steps = result["steps"]
            mine = [[float(v) for v in r[:8]] for r in rows[1:] if r[8] == mode]
            require(len(mine) == steps + 1, f"{op.label} [{mode}]: {len(mine)} rows for {steps} steps")
            require([int(r[0]) for r in mine] == list(range(steps + 1)), f"{op.label} [{mode}]: step column")
            states = [tuple(r[1:5]) for r in mine]
            require(all(ref.close(a, b) for a, b in zip(states[0], start)), f"{op.label} [{mode}]: start")
            fs = result["final_state"]
            final = (fs["x"], fs["y"], fs["alpha_deg"], fs["beta_deg"])
            require(all(ref.close(a, b) for a, b in zip(states[-1], final)), f"{op.label} [{mode}]: final_state")
            self._replay(op.label, mode, mine, params)
            for i, state in enumerate(states):
                kind = ref.classify(state, i, tol, max_steps)
                want = result["kind"] if i == steps else ref.LIVE
                require(kind == want, f"{op.label} [{mode}] step {i}: predicate says {kind}, want {want}")
            for r in self.rng.sample(mine, min(INFERENCE_ROWS_PER_MODE, len(mine))):
                self._inference(op.label, mode, r)
            total += steps
        polylines = ET.parse(op.out / "trajectory.svg").getroot().findall("{http://www.w3.org/2000/svg}polyline")
        require(len(polylines) == len(MODES), f"{op.label}: {len(polylines)} polylines in trajectory.svg")
        size = sum((op.out / f).stat().st_size for f in ("trajectory.csv", "outcome.json", "trajectory.svg"))
        return {"work": total, "bytes": size}

    @staticmethod
    def _replay(label: str, mode: str, rows: list[list[float]], params: dict) -> None:
        for i, (before, after) in enumerate(zip(rows, rows[1:])):
            state = tuple(before[1:5])
            if mode == "cascade":
                want = ref.step(state, before[7], params)
            else:
                command = min(max(before[5], -params["beta_max"]), params["beta_max"])
                want = ref.step_reference(state, command, params)
            got = after[1:5]
            ok = (ref.close(got[0], want[0]) and ref.close(got[1], want[1])
                  and ref.angle_close(got[2], want[2]) and ref.close(got[3], want[3]))
            require(ok, f"{label} [{mode}] step {i}: logged {got}, replay {want}")

    def _inference(self, label: str, mode: str, row: list[float]) -> None:
        _, x, _, alpha, beta, beta_prime, gamma, theta = row
        want_bp, want_gamma, want_theta = self.reference.cascade(x, alpha, beta)
        if mode == "reference":
            want_theta = 0.0
        ok = ref.close(beta_prime, want_bp) and ref.close(gamma, want_gamma) and ref.close(theta, want_theta)
        require(ok, f"{label} [{mode}] step {int(row[0])}: logged {(beta_prime, gamma, theta)}, "
                    f"reference {(want_bp, want_gamma, want_theta)}")


# -- surface_wide -----------------------------------------------------------------

# (label, controller, resolution) per invocation of a round. The two
# resolutions cost about the same time, and flc_t runs twice so that the
# median invocation latency falls inside one operation's distribution rather
# than in the gap between two.
SURFACES = (("flc_t_61", "flc_t", 61), ("flc_c_6001", "flc_c", 6001), ("flc_t_57", "flc_t", 57))
SURFACE_SAMPLE_ROWS = 30


def widen(doc: dict, rng: random.Random) -> dict:
    """Copy of a controller document whose terms reach two peaks to each
    side instead of one, with interior peaks jittered by up to a fifth of the
    gap to their neighbours. Labels, universes and rule tables are kept."""
    wide = copy.deepcopy(doc)
    for rb in wide.values():
        for var in [*rb["antecedents"], rb["consequent"]]:
            lo, hi = var["universe"]
            terms = var["terms"]
            peaks = [float(lo)] + [float(t["breakpoints"][1]) for t in terms[1:-1]] + [float(hi)]
            for i in range(1, len(peaks) - 1):
                gap = min(peaks[i] - peaks[i - 1], peaks[i + 1] - peaks[i])
                peaks[i] += rng.uniform(-0.2, 0.2) * gap
            last = len(peaks) - 1
            for i, term in enumerate(terms):
                if i == 0:
                    term["kind"], term["breakpoints"] = "left-shoulder", [peaks[0], peaks[2]]
                elif i == last:
                    term["kind"], term["breakpoints"] = "right-shoulder", [peaks[-3], peaks[-1]]
                else:
                    term["kind"] = "triangular"
                    term["breakpoints"] = [peaks[max(i - 2, 0)], peaks[i], peaks[min(i + 2, last)]]
    return wide


class SurfaceWide(Workload):
    """``fuzzydock surface flc_t`` and ``surface flc_c`` under a seeded
    wide-overlap controller document."""

    name = "surface_wide"

    def __init__(self, root: Path, out: Path, seed: int):
        super().__init__(root, out, seed)
        self.doc = widen(bundled_document(root), random.Random(f"surface_wide:{seed}"))
        out.mkdir(parents=True, exist_ok=True)
        self.controllers_path = out / "controllers_wide.json"
        self.controllers_path.write_text(json.dumps(self.doc, indent=2) + "\n", encoding="utf-8")
        self.reference = ref.Controllers(self.doc)

    def operations(self) -> list[Operation]:
        return [
            Operation(("surface", name, "--resolution", str(n), "--controllers",
                       str(self.controllers_path), "--out", str(self.out / label)), self.out / label, label)
            for label, name, n in SURFACES
        ]

    def artifacts(self) -> list[Path]:
        return [self.out / label / f"surface_{name}.csv" for label, name, _ in SURFACES]

    def check(self, op: Operation) -> dict:
        _, name, n = next(s for s in SURFACES if s[0] == op.label)
        path = op.out / f"surface_{name}.csv"
        rows = read_csv(path)
        rb = self.doc[name]
        if name == "flc_t":
            require(rows[:1] == [["x", "alpha_deg", "beta_prime_deg"]], "surface_flc_t.csv header")
            alpha_u, x_u = rb["antecedents"][0]["universe"], rb["antecedents"][1]["universe"]
            grid = [(x, a) for x in axis_values(*x_u, n) for a in axis_values(*alpha_u, n)]
            evaluate = lambda p: self.reference.flc_t(p[0], p[1])  # noqa: E731
        else:
            require(rows[:1] == [["gamma_deg", "theta_deg"]], "surface_flc_c.csv header")
            grid = [(g,) for g in axis_values(*rb["antecedents"][0]["universe"], n)]
            evaluate = lambda p: self.reference.flc_c(p[0])  # noqa: E731
        body = [[float(v) for v in r] for r in rows[1:]]
        require(len(body) == len(grid), f"{path.name} has {len(body)} rows, want {len(grid)}")
        for r, point in zip(body, grid):
            require(all(ref.close(a, b) for a, b in zip(r, point)), f"{path.name} point {r[:-1]} != {point}")
        for i in self.rng.sample(range(len(body)), SURFACE_SAMPLE_ROWS):
            want = evaluate(grid[i])
            require(ref.close(body[i][-1], want), f"{path.name} at {grid[i]}: {body[i][-1]} vs {want}")
        return {"work": len(body), "bytes": path.stat().st_size}


WORKLOADS = {w.name: w for w in (Sweep, Yards, SurfaceWide)}

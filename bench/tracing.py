"""Per-layer timing for the traced benchmark run.

``Tracer.install`` replaces the public functions listed in ``TARGETS`` with
timing wrappers in every ``fuzzydock`` module namespace that binds them, so
each call is counted where its caller looks the name up (``simulation``
calls ``plant.step`` through its own ``step`` global, ``cli`` reaches
``cmd_surface`` through its module globals, ``run`` recurses through
``simulation.run``). A function that a refactor removed or renamed is
reported as missing; that layer's metrics come out absent and the workload
keeps running.

Self time is a call's duration minus the part of it spent inside wrapped
callees, including their bookkeeping, so a layer is not charged for the
tracer's cost in the layers below it.
"""

from __future__ import annotations

import importlib
import sys
import time

# layer -> public functions wrapped in that layer's module.
TARGETS = {
    "fuzzy": ("fuzzify", "fire_rules", "defuzzify_centroid"),
    "controllers": ("flc_t", "flc_c", "cascade_step", "load_controllers"),
    "plant": ("step", "step_reference", "classify"),
    "simulation": ("run", "sweep"),
    "cli": (
        "load_scenario_file", "load_grid_file", "write_trajectory_csv",
        "write_trajectory_svg", "write_outcome_json", "write_sweep_csv", "cmd_surface",
    ),
}


class Stat:
    __slots__ = ("calls", "total", "own", "evaluated", "fired", "steps")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.own = 0.0
        self.evaluated = 0
        self.fired = 0
        self.steps = 0


def _count_fired(stat: Stat, weights) -> None:
    stat.evaluated += len(weights)
    stat.fired += sum(1 for w in weights if w > 0.0)


def _count_steps(stat: Stat, result) -> None:
    # ``run`` returns one trajectory, or a pair for mode "both" whose halves
    # were already counted by the two inner calls.
    outcome = getattr(result, "outcome", None)
    if outcome is not None:
        stat.steps += outcome.steps


_OBSERVERS = {("fuzzy", "fire_rules"): _count_fired, ("simulation", "run"): _count_steps}


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[tuple[str, str], Stat] = {}
        self.missing: dict[str, list[str]] = {}
        self._stack: list[float] = []

    def install(self) -> None:
        namespaces = [m for name, m in sys.modules.items()
                      if name == "fuzzydock" or name.startswith("fuzzydock.")]
        for layer, names in TARGETS.items():
            try:
                module = importlib.import_module(f"fuzzydock.{layer}")
            except ImportError:
                self.missing[layer] = list(names)
                continue
            for name in names:
                original = getattr(module, name, None)
                if not callable(original):
                    self.missing.setdefault(layer, []).append(name)
                    continue
                self.stats[(layer, name)] = Stat()
                wrapper = self._wrap(original, (layer, name))
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, attr, wrapper)

    def reset(self) -> None:
        for key in self.stats:
            self.stats[key] = Stat()

    def _wrap(self, fn, key: tuple[str, str]):
        stack = self._stack
        clock = time.perf_counter
        stats = self.stats
        observe = _OBSERVERS.get(key)

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            done = False
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                t1 = clock()
                inner = stack.pop()
                stat = stats[key]
                stat.calls += 1
                stat.total += t1 - t0
                stat.own += t1 - t0 - inner
                if done and observe is not None:
                    observe(stat, result)
                if stack:
                    stack[-1] += clock() - t0

        return traced

    def layer_absent(self, layer: str) -> bool:
        return layer in self.missing

    def get(self, layer: str, name: str) -> Stat:
        return self.stats[(layer, name)]


# Per-layer metrics in report order: (name, kind, unit). ``calls`` are per
# invocation of the CLI; times are per call, in reference time (see
# ``calibration``). A function that never ran in a workload reports 0.
PER_LAYER = (
    ("fuzzy.fuzzify.calls", "calls", "count"),
    ("fuzzy.fuzzify.us", "us", "us"),
    ("fuzzy.fire_rules.calls", "calls", "count"),
    ("fuzzy.fire_rules.self_us", "self_us", "us"),
    ("fuzzy.defuzzify_centroid.calls", "calls", "count"),
    ("fuzzy.defuzzify_centroid.us", "us", "us"),
    ("fuzzy.rules_fired_ratio", "fired_ratio", "ratio"),
    ("controllers.flc_t.calls", "calls", "count"),
    ("controllers.flc_t.self_us", "self_us", "us"),
    ("controllers.flc_c.calls", "calls", "count"),
    ("controllers.flc_c.self_us", "self_us", "us"),
    ("controllers.cascade_step.self_us", "self_us", "us"),
    ("controllers.load_controllers.ms", "ms", "ms"),
    ("plant.step.calls", "calls", "count"),
    ("plant.step.us", "us", "us"),
    ("plant.step_reference.calls", "calls", "count"),
    ("plant.step_reference.us", "us", "us"),
    ("plant.classify.calls", "calls", "count"),
    ("plant.classify.us", "us", "us"),
    ("simulation.run.calls", "calls", "count"),
    ("simulation.run.self_us_per_step", "self_us_per_step", "us/step"),
    ("simulation.sweep.self_ms", "self_ms", "ms"),
    ("cli.load_scenario_file.ms", "ms", "ms"),
    ("cli.load_grid_file.ms", "ms", "ms"),
    ("cli.write_trajectory_csv.ms", "ms", "ms"),
    ("cli.write_trajectory_svg.ms", "ms", "ms"),
    ("cli.write_outcome_json.ms", "ms", "ms"),
    ("cli.write_sweep_csv.ms", "ms", "ms"),
    ("cli.cmd_surface.self_ms", "self_ms", "ms"),
    ("cli.artifact_bytes", "bytes", "B"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer: Tracer, operations: int, artifact_bytes: float, scale: float) -> dict:
    """{metric: (value or None when its layer is absent, unit)}; ``scale``
    converts the run's wall seconds to reference seconds."""
    out = {}
    for metric, kind, unit in PER_LAYER:
        layer = metric.split(".")[0]
        if kind == "bytes":
            out[metric] = (artifact_bytes, unit)
            continue
        if tracer.layer_absent(layer):
            out[metric] = (None, unit)
            continue
        if kind == "fired_ratio":
            s = tracer.get("fuzzy", "fire_rules")
            out[metric] = (_ratio(s.fired, s.evaluated), unit)
            continue
        s = tracer.get(layer, metric.split(".")[1])
        if kind == "calls":
            value = _ratio(s.calls, operations)
        elif kind == "self_us_per_step":
            value = _ratio(s.own, s.steps) * 1e6 * scale
        else:
            seconds = s.own if kind.startswith("self") else s.total
            value = _ratio(seconds, s.calls) * (1e6 if kind.endswith("us") else 1e3) * scale
        out[metric] = (value, unit)
    return out

"""Closed-loop runner: scenarios, trajectories, dual-mode comparison, sweeps.

Modes:
    cascade    both controllers drive the physical plant.
    reference  only the position controller runs; the trailer is treated as a
               self-steering vehicle whose cab angle jumps straight to the
               command each step.
    both       run the two modes from the same start for comparison.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Mapping, NamedTuple

from .controllers import (
    CascadeOutput,
    ControllerSet,
    cascade_step,
    default_controllers,
    position_command,
)
from .errors import InputDomainError, UsageError
from .plant import (
    DOCKED,
    ERROR,
    JACKKNIFE_LIMIT,
    LIVE,
    DockTolerance,
    Outcome,
    PlantParams,
    PlantState,
    classify,
    step,
    step_reference,
)

MODES = ("cascade", "reference", "both")


@dataclass(frozen=True)
class Scenario:
    """One runnable case: start state, plant, tolerances, step budget, mode."""

    initial: PlantState
    params: PlantParams = field(default_factory=PlantParams)
    tolerances: DockTolerance = field(default_factory=DockTolerance)
    max_steps: int = 1000
    mode: str = "cascade"
    label: str = ""

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise UsageError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.max_steps < 1:
            raise UsageError("max_steps must be >= 1")
        self.initial.require_finite()
        if self.initial.y < 0:
            raise UsageError(f"initial.y must be >= 0, got {self.initial.y}")
        # No terminal check bounds y, which moves at most v a step. The int
        # budget is compared, never converted, so a huge one cannot overflow.
        if self.max_steps > (sys.float_info.max - self.initial.y) / (2 * self.params.v):
            raise UsageError(f"initial.y + 2 * max_steps * v must be finite, got y={self.initial.y}")
        if abs(self.initial.x) > 100:
            raise UsageError(f"initial.x must be within [-100, 100], got {self.initial.x}")
        if abs(self.initial.alpha) > 180:
            raise UsageError(f"initial.alpha must be within [-180, 180], got {self.initial.alpha}")
        if abs(self.initial.beta) > JACKKNIFE_LIMIT:
            raise UsageError(
                f"initial.beta must be within the jackknife limit "
                f"{JACKKNIFE_LIMIT}, got {self.initial.beta}"
            )


class TrajectorySample(NamedTuple):
    """State before step ``step`` plus the controller outputs applied to it."""

    step: int
    state: PlantState
    beta_prime: float
    gamma: float
    theta: float


@dataclass(frozen=True)
class Trajectory:
    samples: tuple[TrajectorySample, ...]
    outcome: Outcome
    mode: str


def run(scenario: Scenario, controllers: ControllerSet | None = None):
    """Simulate a scenario to termination.

    Returns one Trajectory, or a (cascade, reference) pair when the scenario
    mode is ``both``. Identical scenarios produce bit-identical trajectories:
    the loop is pure float arithmetic with no randomness or ambient state.
    """
    if scenario.mode == "both":
        return (
            run(replace(scenario, mode="cascade"), controllers),
            run(replace(scenario, mode="reference"), controllers),
        )
    cs = controllers or default_controllers()
    params, tolerances, max_steps = scenario.params, scenario.tolerances, scenario.max_steps
    # Each mode is a control law plus a plant advance, chosen here once so
    # the loop below never looks at the mode.
    if scenario.mode == "cascade":
        control = partial(cascade_step, controllers=cs)
        theta_max = params.theta_max  # the wheel saturates; the sample keeps the command

        def advance(state: PlantState, out: CascadeOutput) -> PlantState:
            theta = out.theta
            if theta > theta_max:
                theta = theta_max
            elif theta < -theta_max:
                theta = -theta_max
            return step(state, theta, params)
    else:
        # The reference vehicle steers nothing (theta 0); gamma is kept as
        # the commanded jump so both modes log comparable columns.
        def control(state: PlantState) -> CascadeOutput:
            return CascadeOutput(*position_command(state, cs), 0.0)

        def advance(state: PlantState, out: CascadeOutput) -> PlantState:
            command = min(max(out.beta_prime, -params.beta_max), params.beta_max)
            return step_reference(state, command, params)

    samples: list[TrajectorySample] = []
    state = scenario.initial
    t = 0
    while True:
        kind = classify(state, t, tolerances, max_steps)
        out = control(state)
        samples.append(TrajectorySample(t, state, *out))
        if kind != LIVE:
            return Trajectory(tuple(samples), Outcome(kind, state, t), scenario.mode)
        state = advance(state, out)
        t += 1


@dataclass(frozen=True)
class ConvergenceReport:
    """Per-step planar distance between two trajectories plus the mean over
    the last ten steps of the common length."""

    distances: tuple[float, ...]
    tail_mean: float


def convergence_metric(a: Trajectory, b: Trajectory) -> ConvergenceReport:
    """Pointwise (x, y) distance, truncated to the shorter trajectory."""
    if not a.samples or not b.samples:
        raise UsageError("convergence metric needs non-empty trajectories")
    if a.samples[0].state != b.samples[0].state:
        raise UsageError("trajectories must share the initial state")
    m = min(len(a.samples), len(b.samples))
    distances = tuple(
        math.hypot(
            a.samples[i].state.x - b.samples[i].state.x,
            a.samples[i].state.y - b.samples[i].state.y,
        )
        for i in range(m)
    )
    tail = distances[-10:]
    return ConvergenceReport(distances, sum(tail) / len(tail))


@dataclass(frozen=True)
class AxisSpec:
    """Uniform axis samples: count points from min to max inclusive."""

    min: float
    max: float
    count: int

    def __post_init__(self) -> None:
        if self.count < 1:
            raise UsageError("axis count must be >= 1")
        if self.count > 1 and self.max < self.min:
            raise UsageError("axis max must be >= min")

    def values(self) -> list[float]:
        if self.count == 1:
            return [self.min]
        span = self.max - self.min
        values = [self.min + span * i / (self.count - 1) for i in range(self.count)]
        if not all(math.isfinite(v) for v in values):
            raise UsageError(
                f"axis from {self.min} to {self.max} in {self.count} points overflows"
            )
        return values


@dataclass(frozen=True)
class SweepGrid:
    x: AxisSpec
    y: AxisSpec
    alpha: AxisSpec
    beta: AxisSpec

    def cells(self) -> list[PlantState]:
        return [
            PlantState(x, y, a, b)
            for x in self.x.values()
            for y in self.y.values()
            for a in self.alpha.values()
            for b in self.beta.values()
        ]


@dataclass(frozen=True)
class SweepCell:
    x: float
    y: float
    alpha: float
    beta: float
    kind: str
    steps: int


@dataclass(frozen=True)
class SweepReport:
    cells: tuple[SweepCell, ...]
    success_ratio: float
    counts: Mapping[str, int]


def sweep(
    grid: SweepGrid,
    params: PlantParams | None = None,
    tolerances: DockTolerance | None = None,
    max_steps: int = 1000,
    controllers: ControllerSet | None = None,
) -> SweepReport:
    """Run every grid cell independently in cascade mode.

    Cells are pure and order-independent (safe to parallelize); a cell whose
    start state is invalid is recorded as an error outcome rather than
    aborting the sweep.
    """
    if max_steps < 1:
        raise UsageError("max_steps must be >= 1")
    params = params or PlantParams()
    tolerances = tolerances or DockTolerance()
    cells: list[SweepCell] = []
    counts: dict[str, int] = {}
    for start in grid.cells():
        try:
            scenario = Scenario(start, params, tolerances, max_steps, "cascade")
        except (InputDomainError, UsageError):
            kind, steps = ERROR, 0
        else:
            outcome = run(scenario, controllers).outcome
            kind, steps = outcome.kind, outcome.steps
        cells.append(SweepCell(start.x, start.y, start.alpha, start.beta, kind, steps))
        counts[kind] = counts.get(kind, 0) + 1
    docked = counts.get(DOCKED, 0)
    return SweepReport(tuple(cells), docked / len(cells), counts)

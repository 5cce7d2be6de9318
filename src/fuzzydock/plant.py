"""Discrete kinematics of the cab-trailer rig and terminal classification.

One update per control step; angles are degrees at every interface. The rig
backs up (negative displacement along its heading), the dock is the origin,
and y is distance from the dock line.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import asin, cos, degrees, fmod, isfinite, radians, sin
from typing import NamedTuple

from .errors import InputDomainError, UsageError

# A run that drifts past three times the controller's input span is lost.
OUT_OF_BOUNDS_X = 300.0

# Cab angle past which the rig counts as jackknifed; the physical abort
# threshold, above any operating clamp.
JACKKNIFE_LIMIT = 90.0

LIVE = "live"
DOCKED = "docked"
JACKKNIFED = "jackknifed"
INSUFFICIENT_SPACE = "insufficient-space"
OUT_OF_BOUNDS = "out-of-bounds"
TIMEOUT = "timeout"
ERROR = "error"


def wrap_angle(a: float) -> float:
    """Wrap to the half-open interval (-180, 180]."""
    r = fmod(a + 180.0, 360.0)
    if r <= 0.0:
        r += 360.0
    return r - 180.0


class PlantState(NamedTuple):
    """x, y: center rear of the trailer; alpha: trailer deviation from the
    y-axis; beta: cab deviation relative to the trailer direction."""

    x: float
    y: float
    alpha: float
    beta: float

    def require_finite(self) -> None:
        x, y, alpha, beta = self
        if isfinite(x) and isfinite(y) and isfinite(alpha) and isfinite(beta):
            return
        for name, v in zip(self._fields, self):
            if not isfinite(v):
                raise InputDomainError(f"non-finite state field {name}={v!r}")


@dataclass(frozen=True)
class PlantParams:
    """v: distance backed per step; l_c, l_t: cab and trailer lengths.

    beta_max is the operating clamp on the cab angle, at most
    JACKKNIFE_LIMIT. v may not exceed either length, which keeps the asin
    arguments of ``step`` within [-1, 1].
    """

    v: float = 1.0
    l_c: float = 2.0
    l_t: float = 8.0
    theta_max: float = 30.0
    beta_max: float = 30.0

    def __post_init__(self) -> None:
        if not (self.l_c > 0 and self.l_t > 0):
            raise UsageError("l_c, l_t must be positive")
        shortest = min(self.l_c, self.l_t)
        if not 0 < self.v <= shortest:
            raise UsageError(f"v must be in (0, min(l_c, l_t)] = (0, {shortest}], got {self.v}")
        if not 0 < self.theta_max <= 90:
            raise UsageError("theta_max must be in (0, 90]")
        if not 0 < self.beta_max <= JACKKNIFE_LIMIT:
            raise UsageError(f"beta_max must be in (0, {JACKKNIFE_LIMIT}]")


@dataclass(frozen=True)
class DockTolerance:
    """How close counts as docked. The objective itself is exact zero."""

    x_tol: float = 2.0
    alpha_tol: float = 10.0
    y_tol: float = 1.0

    def __post_init__(self) -> None:
        # A negative tolerance would make docking impossible and every run
        # end in a failure label that does not describe it.
        for name in ("x_tol", "alpha_tol", "y_tol"):
            value = getattr(self, name)
            if not (isfinite(value) and value >= 0):
                raise UsageError(f"{name} must be a finite number >= 0, got {value!r}")


@dataclass(frozen=True)
class Outcome:
    kind: str
    final_state: PlantState
    steps: int


def _trailer_motion(state: PlantState, d_c: float, params: PlantParams) -> tuple[float, float, float]:
    """Trailer x, y and alpha after the cab moves d_c along its heading."""
    x, y, alpha, beta = state
    alpha_r = radians(alpha)
    beta_r = radians(beta)
    d_t = d_c * cos(beta_r)
    return (
        x + d_t * sin(alpha_r),
        y + d_t * cos(alpha_r),
        wrap_angle(alpha - degrees(asin(d_c * sin(beta_r) / params.l_t))),
    )


def step(state: PlantState, theta: float, params: PlantParams = PlantParams()) -> PlantState:
    """One backing update under steering angle theta.

    Update order: cab displacement, trailer displacement, position, trailer
    heading, cab angle. PlantParams keeps v <= min(l_c, l_t), so both asin
    arguments stay within [-1, 1].
    """
    state.require_finite()
    if not isfinite(theta):
        raise InputDomainError(f"non-finite steering angle {theta!r}")
    if abs(theta) > params.theta_max:
        raise UsageError(f"|theta| = {abs(theta)} exceeds theta_max = {params.theta_max}")
    theta_r = radians(theta)
    x, y, alpha = _trailer_motion(state, -params.v * cos(theta_r), params)
    beta = state.beta - degrees(asin(-params.v * sin(theta_r) / params.l_c))
    # A cab angle past the abort threshold must stay visible to classify();
    # the operating clamp only applies inside the workable range.
    if abs(beta) <= JACKKNIFE_LIMIT:
        beta = min(max(beta, -params.beta_max), params.beta_max)
    return PlantState(x, y, alpha, beta)


def step_reference(state: PlantState, beta_command: float, params: PlantParams = PlantParams()) -> PlantState:
    """Idealized update: the trailer steers itself.

    Motion follows ``step`` with zero steering (full backing speed) and the
    current cab angle, then the cab angle is set directly to the command.
    """
    state.require_finite()
    if not isfinite(beta_command):
        raise InputDomainError(f"non-finite cab-angle command {beta_command!r}")
    if abs(beta_command) > params.beta_max:
        raise UsageError(
            f"|beta_command| = {abs(beta_command)} exceeds beta_max = {params.beta_max}"
        )
    return PlantState(*_trailer_motion(state, -params.v, params), beta_command)


def dock_check(state: PlantState, tol: DockTolerance = DockTolerance()) -> bool:
    x, y, alpha, _ = state
    return abs(x) <= tol.x_tol and y <= tol.y_tol and abs(alpha) <= tol.alpha_tol


def classify(
    state: PlantState,
    step_count: int,
    tol: DockTolerance = DockTolerance(),
    max_steps: int = 1000,
) -> str:
    """Terminal kind for a state, or ``live``. Priority: docked, jackknifed,
    insufficient-space, out-of-bounds, timeout."""
    if dock_check(state, tol):
        return DOCKED
    # Unpacking a named tuple costs less than reading its fields by name.
    x, y, _, beta = state
    if abs(beta) > JACKKNIFE_LIMIT:
        return JACKKNIFED
    if y <= 0.0:
        return INSUFFICIENT_SPACE
    if abs(x) > OUT_OF_BOUNDS_X:
        return OUT_OF_BOUNDS
    if step_count >= max_steps:
        return TIMEOUT
    return LIVE

"""Discrete kinematics of the cab-trailer rig and terminal classification.

One update per control step; angles are degrees at every interface. The rig
backs up (negative displacement along its heading), the dock is the origin,
and y is distance from the dock line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

#: Terminal kinds a finished trajectory can carry.
OUTCOME_KINDS = (DOCKED, OUT_OF_BOUNDS, JACKKNIFED, TIMEOUT, INSUFFICIENT_SPACE, ERROR)


def _sind(a: float) -> float:
    return math.sin(math.radians(a))


def _cosd(a: float) -> float:
    return math.cos(math.radians(a))


def _asind(v: float) -> float:
    return math.degrees(math.asin(v))


def wrap_angle(a: float) -> float:
    """Wrap to the half-open interval (-180, 180]."""
    r = math.fmod(a + 180.0, 360.0)
    if r <= 0.0:
        r += 360.0
    return r - 180.0


@dataclass(frozen=True)
class PlantState:
    """x, y: center rear of the trailer; alpha: trailer deviation from the
    y-axis; beta: cab deviation relative to the trailer direction."""

    x: float
    y: float
    alpha: float
    beta: float

    def require_finite(self) -> None:
        for name, v in (("x", self.x), ("y", self.y), ("alpha", self.alpha), ("beta", self.beta)):
            if not math.isfinite(v):
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


@dataclass(frozen=True)
class Outcome:
    kind: str
    final_state: PlantState
    steps: int


def _trailer_motion(state: PlantState, d_c: float, params: PlantParams) -> tuple[float, float, float]:
    """Trailer x, y and alpha after the cab moves d_c along its heading."""
    d_t = d_c * _cosd(state.beta)
    x = state.x + d_t * _sind(state.alpha)
    y = state.y + d_t * _cosd(state.alpha)
    alpha = wrap_angle(state.alpha - _asind(d_c * _sind(state.beta) / params.l_t))
    return x, y, alpha


def step(state: PlantState, theta: float, params: PlantParams = PlantParams()) -> PlantState:
    """One backing update under steering angle theta.

    Update order: cab displacement, trailer displacement, position, trailer
    heading, cab angle. PlantParams keeps v <= min(l_c, l_t), so both asin
    arguments stay within [-1, 1].
    """
    state.require_finite()
    if not math.isfinite(theta):
        raise InputDomainError(f"non-finite steering angle {theta!r}")
    if abs(theta) > params.theta_max:
        raise UsageError(f"|theta| = {abs(theta)} exceeds theta_max = {params.theta_max}")
    x, y, alpha = _trailer_motion(state, -params.v * _cosd(theta), params)
    beta = state.beta - _asind(-params.v * _sind(theta) / params.l_c)
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
    if not math.isfinite(beta_command):
        raise InputDomainError(f"non-finite cab-angle command {beta_command!r}")
    if abs(beta_command) > params.beta_max:
        raise UsageError(
            f"|beta_command| = {abs(beta_command)} exceeds beta_max = {params.beta_max}"
        )
    return PlantState(*_trailer_motion(state, -params.v, params), beta_command)


def dock_check(state: PlantState, tol: DockTolerance = DockTolerance()) -> bool:
    return abs(state.x) <= tol.x_tol and state.y <= tol.y_tol and abs(state.alpha) <= tol.alpha_tol


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
    if abs(state.beta) > JACKKNIFE_LIMIT:
        return JACKKNIFED
    if state.y <= 0.0:
        return INSUFFICIENT_SPACE
    if abs(state.x) > OUT_OF_BOUNDS_X:
        return OUT_OF_BOUNDS
    if step_count >= max_steps:
        return TIMEOUT
    return LIVE

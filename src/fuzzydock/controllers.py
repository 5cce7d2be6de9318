"""The two shipped controllers and their cascade composition.

``flc_t`` maps trailer position error x and trailer heading alpha to a
commanded cab-trailer angle beta'; ``flc_c`` maps the cab-angle mismatch
gamma = beta' - beta to a steering angle theta. Chaining them turns a
35-rule table plus a 7-rule table into the full backing policy.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .errors import UsageError
from .fuzzy import (
    LEFT_SHOULDER,
    RIGHT_SHOULDER,
    TRIANGULAR,
    LinguisticVariable,
    MembershipFunction,
    RuleBase,
    infer,
    rulebase_from_dict,
    rulebase_to_dict,
)

# Peak abscissae for each linguistic variable, outermost peaks pinned to the
# universe bounds (those terms become shoulders). This is the one table to
# edit when trying an alternate membership design.
#
# Interior placement sets the loop gains. The yard spans x in [-100, 100] but
# the longest bundled approach has only ~180 length units of reverse travel,
# so the position loop must swing the rig back inside roughly one oscillation:
# X and A interior peaks sit well inside their universes to raise gain while
# keeping the heading loop damped (alpha peaks at 25/70 rather than evenly
# spread). G interior peaks at 5/10 give the cab-angle loop a two-to-one
# steering response, which settles a commanded cab angle in about one step;
# wider G spacing leaves the cab visibly lagging its command and the rig
# weaving past the dock line.
PEAKS: dict[str, tuple[float, ...]] = {
    "X": (-100.0, -40.0, 0.0, 40.0, 100.0),
    "A": (-180.0, -70.0, -25.0, 0.0, 25.0, 70.0, 180.0),
    "B": (-30.0, -20.0, -10.0, 0.0, 10.0, 20.0, 30.0),
    "G": (-60.0, -10.0, -5.0, 0.0, 5.0, 10.0, 60.0),
    "S": (-30.0, -20.0, -10.0, 0.0, 10.0, 20.0, 30.0),
}

X_LABELS = ("LE", "LC", "CE", "RC", "RI")
A_LABELS = ("LB", "LU", "LV", "VE", "RV", "RU", "RB")
LEVEL_LABELS = ("NB", "NM", "NS", "ZE", "PS", "PM", "PB")

# Rows: trailer heading term (A). Columns: position term (X), LE..RI.
_T_ROWS = {
    "LB": ("PS", "PM", "NS", "NM", "NB"),
    "LU": ("NS", "PS", "PM", "PB", "PB"),
    "LV": ("NS", "NS", "PS", "PM", "PB"),
    "VE": ("NM", "NS", "ZE", "PS", "PM"),
    "RV": ("NB", "NM", "NS", "PS", "PS"),
    "RU": ("NB", "NB", "NM", "NS", "PS"),
    "RB": ("PB", "PM", "PS", "NM", "NS"),
}

TABLE_T: dict[tuple[str, str], str] = {
    (a, x): _T_ROWS[a][i] for a in A_LABELS for i, x in enumerate(X_LABELS)
}

# The steering table is the identity polarity map: mismatch sign and size
# carry straight through to the wheel.
TABLE_C: dict[str, str] = {label: label for label in LEVEL_LABELS}

GAMMA_LIMIT = 60.0


def partition(name: str, labels: tuple[str, ...], peaks: tuple[float, ...]) -> LinguisticVariable:
    """Symmetric 50%-overlap partition: shoulders at the ends, triangles
    between, each triangle's feet at its neighbors' peaks. Any strictly
    increasing peak sequence yields a partition of unity."""
    if len(labels) != len(peaks):
        raise UsageError(f"{name}: {len(labels)} labels vs {len(peaks)} peaks")
    terms = []
    last = len(peaks) - 1
    for i, label in enumerate(labels):
        if i == 0:
            mf = MembershipFunction(LEFT_SHOULDER, (peaks[0], peaks[1]))
        elif i == last:
            mf = MembershipFunction(RIGHT_SHOULDER, (peaks[-2], peaks[-1]))
        else:
            mf = MembershipFunction(TRIANGULAR, (peaks[i - 1], peaks[i], peaks[i + 1]))
        terms.append((label, mf))
    return LinguisticVariable(name, (peaks[0], peaks[-1]), tuple(terms))


def build_flc_t(peaks: dict[str, tuple[float, ...]] | None = None) -> RuleBase:
    p = peaks or PEAKS
    var_a = partition("A", A_LABELS, p["A"])
    var_x = partition("X", X_LABELS, p["X"])
    var_b = partition("B", LEVEL_LABELS, p["B"])
    rules = tuple(((a, x), TABLE_T[(a, x)]) for a in A_LABELS for x in X_LABELS)
    return RuleBase((var_a, var_x), var_b, rules)


def build_flc_c(peaks: dict[str, tuple[float, ...]] | None = None) -> RuleBase:
    p = peaks or PEAKS
    var_g = partition("G", LEVEL_LABELS, p["G"])
    var_s = partition("S", LEVEL_LABELS, p["S"])
    rules = tuple(((g,), TABLE_C[g]) for g in LEVEL_LABELS)
    return RuleBase((var_g,), var_s, rules)


@dataclass(frozen=True)
class ControllerSet:
    """The pair of rule bases that make up one complete policy."""

    flc_t: RuleBase
    flc_c: RuleBase


_DEFAULT: ControllerSet | None = None


def default_controllers() -> ControllerSet:
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = ControllerSet(build_flc_t(), build_flc_c())
    return _DEFAULT


def flc_t(x: float, alpha: float, controllers: ControllerSet | None = None) -> float:
    """Commanded cab-trailer angle beta' for a trailer at offset x with
    heading alpha. Inputs are clamped to the controller universes."""
    cs = controllers or default_controllers()
    return infer(cs.flc_t, [alpha, x])


def flc_c(gamma: float, controllers: ControllerSet | None = None) -> float:
    """Steering angle theta for a cab-angle mismatch gamma."""
    cs = controllers or default_controllers()
    return infer(cs.flc_c, [gamma])


@dataclass(frozen=True)
class CascadeOutput:
    """One controller evaluation: command, mismatch, steering."""

    beta_prime: float
    gamma: float
    theta: float


def position_command(state, controllers: ControllerSet | None = None) -> tuple[float, float]:
    """The commanded cab angle beta' at a plant state and the mismatch
    gamma = beta' - beta, clamped to [-60, 60] defensively; with beta held
    inside [-30, 30] by the plant the clamp is a no-op."""
    beta_prime = flc_t(state.x, state.alpha, controllers)
    return beta_prime, min(max(beta_prime - state.beta, -GAMMA_LIMIT), GAMMA_LIMIT)


def cascade_step(state, controllers: ControllerSet | None = None) -> CascadeOutput:
    """Evaluate the full cascade at a plant state."""
    cs = controllers or default_controllers()
    beta_prime, gamma = position_command(state, cs)
    return CascadeOutput(beta_prime, gamma, flc_c(gamma, cs))


# -- Persistence --------------------------------------------------------------

def controllers_to_json(cs: ControllerSet) -> str:
    doc = {"flc_t": rulebase_to_dict(cs.flc_t), "flc_c": rulebase_to_dict(cs.flc_c)}
    return json.dumps(doc, indent=2) + "\n"


def controllers_from_json(text: str) -> ControllerSet:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"malformed controller document: {exc}") from exc
    if not isinstance(doc, dict) or set(doc) != {"flc_t", "flc_c"}:
        raise UsageError("controller document must have exactly the keys flc_t, flc_c")
    rb_t = rulebase_from_dict(doc["flc_t"])
    rb_c = rulebase_from_dict(doc["flc_c"])
    if len(rb_t.antecedents) != 2 or len(rb_c.antecedents) != 1:
        raise UsageError("flc_t needs two antecedent variables and flc_c one")
    return ControllerSet(rb_t, rb_c)


def load_controllers(path: str | Path) -> ControllerSet:
    return controllers_from_json(Path(path).read_text(encoding="utf-8"))


def bundled_controllers_path() -> Path:
    """Path of the JSON document mirroring the built-in controller pair."""
    return Path(resources.files("fuzzydock").joinpath("data/controllers.json"))

"""Independent reference evaluator for the benchmark's output checks.

Standard library only, and written apart from ``fuzzydock``: nothing here
imports the package or reuses its arithmetic. It has three parts.

* Mamdani inference read straight from a controller document. A term's
  membership is the piecewise-linear interpolation of its breakpoints,
  extended flat to the universe bounds (which also clamps inputs). Rules fire
  by product conjunction, and the centroid is integrated exactly over every
  breakpoint of the additive aggregate, instead of the closed-form
  per-term geometry the program uses.
* The kinematic update in the order the plant documents: cab displacement,
  trailer displacement, position, trailer heading, cab angle.
* The terminal predicates with the documented priority: docked, jackknifed,
  insufficient-space, out-of-bounds, timeout.

Results agree with the program to rounding, not bit for bit, so callers
compare with ``close``.
"""

from __future__ import annotations

import bisect
import math

GAMMA_LIMIT = 60.0
OUT_OF_BOUNDS_X = 300.0
JACKKNIFE_LIMIT = 90.0
LIVE = "live"

# Absolute tolerance, in degrees or length units, for program-vs-reference
# comparisons. Both sides are double precision; the difference is summation
# order, which moves results by ~1e-13 at most on these magnitudes.
TOLERANCE = 1e-9


def close(a: float, b: float, tol: float = TOLERANCE) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def angle_close(a: float, b: float, tol: float = TOLERANCE) -> bool:
    """Equality of two angles in degrees modulo 360."""
    d = (a - b) % 360.0
    return min(d, 360.0 - d) <= tol * max(1.0, abs(a), abs(b))


# -- Inference ------------------------------------------------------------------

class Variable:
    """Universe plus one polyline ``[(u, mu), ...]`` per term label."""

    def __init__(self, doc: dict):
        self.name = doc["name"]
        self.lo, self.hi = (float(v) for v in doc["universe"])
        self.terms = {t["label"]: _polyline(t["kind"], t["breakpoints"], self.lo, self.hi)
                      for t in doc["terms"]}


def _polyline(kind: str, breakpoints, lo: float, hi: float) -> list[tuple[float, float]]:
    b = [float(v) for v in breakpoints]
    if kind == "triangular":
        pts = [(lo, 0.0), (b[0], 0.0), (b[1], 1.0), (b[2], 0.0), (hi, 0.0)]
    elif kind == "left-shoulder":
        pts = [(lo, 1.0), (b[0], 1.0), (b[1], 0.0), (hi, 0.0)]
    elif kind == "right-shoulder":
        pts = [(lo, 0.0), (b[0], 0.0), (b[1], 1.0), (hi, 1.0)]
    else:
        raise ValueError(f"unknown term kind {kind!r}")
    out: list[tuple[float, float]] = []
    for u, mu in pts:
        if out and u == out[-1][0]:
            continue  # a breakpoint on the universe bound repeats it
        out.append((u, mu))
    return out


def interpolate(points: list[tuple[float, float]], u: float) -> float:
    """Piecewise-linear value at ``u``, held flat outside the first and last
    points."""
    if u <= points[0][0]:
        return points[0][1]
    if u >= points[-1][0]:
        return points[-1][1]
    i = bisect.bisect_right([p[0] for p in points], u)
    (u0, m0), (u1, m1) = points[i - 1], points[i]
    return m0 + (m1 - m0) * (u - u0) / (u1 - u0)


class RuleBase:
    def __init__(self, doc: dict):
        self.antecedents = [Variable(d) for d in doc["antecedents"]]
        self.consequent = Variable(doc["consequent"])
        self.rules = [(tuple(r["when"]), r["then"]) for r in doc["rules"]]
        knots = {u for pts in self.consequent.terms.values() for u, _ in pts}
        self.knots = sorted(knots)

    def infer(self, inputs: dict[str, float]) -> tuple[float, int]:
        """(crisp output, number of rules with positive weight).

        ``inputs`` maps antecedent variable names to values.
        """
        degrees = [
            {label: interpolate(pts, float(inputs[var.name])) for label, pts in var.terms.items()}
            for var in self.antecedents
        ]
        weight_of: dict[str, float] = {}
        fired = 0
        for when, then in self.rules:
            w = 1.0
            for per_var, label in zip(degrees, when):
                w *= per_var[label]
            if w > 0.0:
                fired += 1
                weight_of[then] = weight_of.get(then, 0.0) + w
        values = [
            sum(w * interpolate(self.consequent.terms[label], u) for label, w in weight_of.items())
            for u in self.knots
        ]
        area = 0.0
        moment = 0.0
        for (u0, f0), (u1, f1) in zip(zip(self.knots, values), zip(self.knots[1:], values[1:])):
            h = u1 - u0
            area += h * (f0 + f1) / 2.0
            moment += h * (f0 * (2.0 * u0 + u1) + f1 * (u0 + 2.0 * u1)) / 6.0
        if area <= 0.0:
            return (self.consequent.lo + self.consequent.hi) / 2.0, fired
        return moment / area, fired


class Controllers:
    """Both rule bases of a controller document.

    ``flc_t`` reads variables named A (trailer heading) and X (offset);
    ``flc_c`` reads G (cab-angle mismatch).
    """

    def __init__(self, doc: dict):
        self.t = RuleBase(doc["flc_t"])
        self.c = RuleBase(doc["flc_c"])

    def flc_t(self, x: float, alpha: float) -> float:
        return self.t.infer({"A": alpha, "X": x})[0]

    def flc_c(self, gamma: float) -> float:
        return self.c.infer({"G": gamma})[0]

    def cascade(self, x: float, alpha: float, beta: float) -> tuple[float, float, float]:
        """(beta_prime, gamma, theta) at a state."""
        beta_prime = self.flc_t(x, alpha)
        gamma = min(max(beta_prime - beta, -GAMMA_LIMIT), GAMMA_LIMIT)
        return beta_prime, gamma, self.flc_c(gamma)


# -- Kinematics -----------------------------------------------------------------

def wrap(a: float) -> float:
    """Angle in degrees mapped into (-180, 180]."""
    r = a % 360.0
    return r - 360.0 if r > 180.0 else r


def _asin_deg(v: float) -> float:
    return math.degrees(math.asin(min(1.0, max(-1.0, v))))


def step(state, theta: float, p: dict):
    """Cascade-mode backing update from ``state = (x, y, alpha, beta)``."""
    x, y, alpha, beta = state
    a, b, t = math.radians(alpha), math.radians(beta), math.radians(theta)
    cab = -p["v"] * math.cos(t)
    trailer = cab * math.cos(b)
    x += trailer * math.sin(a)
    y += trailer * math.cos(a)
    alpha = wrap(alpha - _asin_deg(cab * math.sin(b) / p["l_t"]))
    beta = beta - _asin_deg(-p["v"] * math.sin(t) / p["l_c"])
    if abs(beta) <= JACKKNIFE_LIMIT:
        beta = min(max(beta, -p["beta_max"]), p["beta_max"])
    return x, y, alpha, beta


def step_reference(state, command: float, p: dict):
    """Reference-mode update: zero steering, then the cab angle jumps to the
    command."""
    x, y, alpha, _ = step(state, 0.0, p)
    return x, y, alpha, command


# -- Terminal predicates --------------------------------------------------------

def classify(state, steps: int, tol: dict, max_steps: int) -> str:
    x, y, alpha, beta = state
    if abs(x) <= tol["x_tol"] and y <= tol["y_tol"] and abs(alpha) <= tol["alpha_tol"]:
        return "docked"
    if abs(beta) > JACKKNIFE_LIMIT:
        return "jackknifed"
    if y <= 0.0:
        return "insufficient-space"
    if abs(x) > OUT_OF_BOUNDS_X:
        return "out-of-bounds"
    if steps >= max_steps:
        return "timeout"
    return LIVE


def simulate(controllers: Controllers, start, p: dict, tol: dict, max_steps: int) -> tuple[str, int]:
    """Cascade closed loop from ``start``: (outcome kind, steps)."""
    state = tuple(float(v) for v in start)
    steps = 0
    while True:
        kind = classify(state, steps, tol, max_steps)
        if kind != LIVE:
            return kind, steps
        theta = controllers.cascade(state[0], state[2], state[3])[2]
        state = step(state, theta, p)
        steps += 1

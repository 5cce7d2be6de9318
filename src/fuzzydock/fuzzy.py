"""Single-output Mamdani fuzzy inference over piecewise-linear term sets.

The pipeline is fuzzify -> fire_rules -> defuzzify_centroid, with product
conjunction and additive weighted-centroid aggregation. Everything here is
generic: controllers supply concrete variables and rule tables.

Aggregation note: scaling a membership function by a rule weight scales its
area linearly and leaves its centroid unchanged, so the centroid of the
weighted sum of consequents reduces to

    sum_r w_r * centroid_r * area_r / sum_r w_r * area_r

which is what ``defuzzify_centroid`` evaluates in closed form.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Sequence

from .errors import DegenerateFiringWarning, InputDomainError, UsageError

TRIANGULAR = "triangular"
LEFT_SHOULDER = "left-shoulder"
RIGHT_SHOULDER = "right-shoulder"

_KINDS = (TRIANGULAR, LEFT_SHOULDER, RIGHT_SHOULDER)
_BREAKPOINT_COUNT = {TRIANGULAR: 3, LEFT_SHOULDER: 2, RIGHT_SHOULDER: 2}

#: Per-rule activation weights, index-aligned with RuleBase.rules.
FiringVector = list


@dataclass(frozen=True)
class MembershipFunction:
    """Piecewise-linear shape over a scalar universe.

    kind:
        ``triangular``     breakpoints (a, b, c): feet a and c, peak b.
        ``left-shoulder``  breakpoints (edge, foot): degree 1 from the lower
                           universe bound through ``edge``, ramp to 0 at
                           ``foot``.
        ``right-shoulder`` breakpoints (foot, edge): degree 0 below ``foot``,
                           ramp to 1 at ``edge``, 1 through the upper bound.
    """

    kind: str
    breakpoints: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise UsageError(f"unknown membership kind {self.kind!r}")
        pts = tuple(float(p) for p in self.breakpoints)
        object.__setattr__(self, "breakpoints", pts)
        if len(pts) != _BREAKPOINT_COUNT[self.kind]:
            raise UsageError(
                f"{self.kind} needs {_BREAKPOINT_COUNT[self.kind]} breakpoints, "
                f"got {len(pts)}"
            )
        if any(b <= a for a, b in zip(pts, pts[1:])):
            raise UsageError(f"breakpoints must be strictly increasing: {pts}")


def eval_membership(mf: MembershipFunction, u: float) -> float:
    """Degree of membership of ``u``, always in [0, 1]."""
    if mf.kind == TRIANGULAR:
        a, b, c = mf.breakpoints
        if u <= a or u >= c:
            return 0.0
        if u <= b:
            return (u - a) / (b - a)
        return (c - u) / (c - b)
    if mf.kind == LEFT_SHOULDER:
        edge, foot = mf.breakpoints
        if u <= edge:
            return 1.0
        if u >= foot:
            return 0.0
        return (foot - u) / (foot - edge)
    foot, edge = mf.breakpoints
    if u <= foot:
        return 0.0
    if u >= edge:
        return 1.0
    return (u - foot) / (edge - foot)


def term_geometry(mf: MembershipFunction, universe: tuple[float, float]) -> tuple[float, float]:
    """(area, centroid) of the full-height shape restricted to ``universe``.

    Shoulders extend their plateau to the universe bound, so the bound is part
    of the geometry; triangles must already lie inside the universe.
    """
    lo, hi = universe
    if mf.kind == TRIANGULAR:
        a, b, c = mf.breakpoints
        return (c - a) / 2.0, (a + b + c) / 3.0
    if mf.kind == LEFT_SHOULDER:
        edge, foot = mf.breakpoints
        plateau_area = edge - lo
        ramp_area = (foot - edge) / 2.0
        area = plateau_area + ramp_area
        moment = plateau_area * (lo + edge) / 2.0 + ramp_area * (edge + (foot - edge) / 3.0)
        return area, moment / area
    foot, edge = mf.breakpoints
    ramp_area = (edge - foot) / 2.0
    plateau_area = hi - edge
    area = ramp_area + plateau_area
    moment = ramp_area * (edge - (edge - foot) / 3.0) + plateau_area * (edge + hi) / 2.0
    return area, moment / area


@dataclass(frozen=True)
class LinguisticVariable:
    """Named universe interval plus an ordered term set."""

    name: str
    universe: tuple[float, float]
    terms: tuple[tuple[str, MembershipFunction], ...]

    def __post_init__(self) -> None:
        lo, hi = self.universe
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise UsageError(f"invalid universe {self.universe} for {self.name!r}")
        labels = [label for label, _ in self.terms]
        if len(set(labels)) != len(labels):
            raise UsageError(f"duplicate term labels in {self.name!r}")
        for label, mf in self.terms:
            pts = mf.breakpoints
            if pts[0] < lo - 1e-12 or pts[-1] > hi + 1e-12:
                raise UsageError(
                    f"term {label!r} support {pts} escapes universe {self.universe}"
                )

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.terms)


def fuzzify(var: LinguisticVariable, u: float) -> dict[str, float]:
    """Degrees of all terms at ``u``, clamped to the universe first."""
    if not math.isfinite(u):
        raise InputDomainError(f"non-finite input {u!r} for variable {var.name!r}")
    lo, hi = var.universe
    u = min(max(u, lo), hi)
    return {label: eval_membership(mf, u) for label, mf in var.terms}


@dataclass(frozen=True)
class RuleBase:
    """Total map from antecedent term-label tuples to one consequent label.

    ``rules`` is ordered; firing vectors are index-aligned with it.
    """

    antecedents: tuple[LinguisticVariable, ...]
    consequent: LinguisticVariable
    rules: tuple[tuple[tuple[str, ...], str], ...]

    def __post_init__(self) -> None:
        expected = set(itertools.product(*(v.labels for v in self.antecedents)))
        seen = [key for key, _ in self.rules]
        if len(seen) != len(set(seen)):
            raise UsageError("duplicate rule antecedents")
        if set(seen) != expected:
            raise UsageError(
                f"rule base is not total: {len(seen)} rules for "
                f"{len(expected)} antecedent combinations"
            )
        consequent_labels = set(self.consequent.labels)
        for key, then in self.rules:
            if then not in consequent_labels:
                raise UsageError(f"rule {key} names unknown consequent {then!r}")

    def __len__(self) -> int:
        return len(self.rules)


def fire_rules(rb: RuleBase, inputs: Sequence[float]) -> FiringVector:
    """Product-conjunction activation weight per rule, in rule order."""
    if len(inputs) != len(rb.antecedents):
        raise UsageError(
            f"expected {len(rb.antecedents)} inputs, got {len(inputs)}"
        )
    degrees = [fuzzify(var, u) for var, u in zip(rb.antecedents, inputs)]
    weights: FiringVector = []
    for key, _ in rb.rules:
        w = 1.0
        for per_var, label in zip(degrees, key):
            w *= per_var[label]
        weights.append(w)
    return weights


def defuzzify_centroid(rb: RuleBase, fv: FiringVector) -> float:
    """Centroid of the weighted-consequent aggregate (see module docstring).

    An all-zero firing vector falls back to the universe midpoint and emits a
    DegenerateFiringWarning instead of dividing by zero.
    """
    if len(fv) != len(rb.rules):
        raise UsageError(f"firing vector length {len(fv)} != rule count {len(rb.rules)}")
    geometry = {
        label: term_geometry(mf, rb.consequent.universe)
        for label, mf in rb.consequent.terms
    }
    num = 0.0
    den = 0.0
    for (_, then), w in zip(rb.rules, fv):
        if w <= 0.0:
            continue
        area, centroid = geometry[then]
        num += w * area * centroid
        den += w * area
    if den <= 0.0:
        lo, hi = rb.consequent.universe
        warnings.warn(
            f"no rule fired for {rb.consequent.name!r}; returning midpoint",
            DegenerateFiringWarning,
            stacklevel=2,
        )
        return (lo + hi) / 2.0
    return num / den


def infer(rb: RuleBase, inputs: Sequence[float]) -> float:
    """End-to-end inference: fuzzify, fire, defuzzify."""
    return defuzzify_centroid(rb, fire_rules(rb, inputs))


# -- JSON (de)serialization --------------------------------------------------
# Plain-dict codecs so controller definitions can live in version-controlled
# JSON documents and tests can perturb membership designs without recompiling.

def variable_to_dict(var: LinguisticVariable) -> dict:
    return {
        "name": var.name,
        "universe": list(var.universe),
        "terms": [
            {"label": label, "kind": mf.kind, "breakpoints": list(mf.breakpoints)}
            for label, mf in var.terms
        ],
    }


def variable_from_dict(doc: dict) -> LinguisticVariable:
    try:
        terms = tuple(
            (t["label"], MembershipFunction(t["kind"], tuple(t["breakpoints"])))
            for t in doc["terms"]
        )
        return LinguisticVariable(doc["name"], tuple(doc["universe"]), terms)
    except (KeyError, TypeError) as exc:
        raise UsageError(f"malformed variable document: {exc}") from exc


def rulebase_to_dict(rb: RuleBase) -> dict:
    return {
        "antecedents": [variable_to_dict(v) for v in rb.antecedents],
        "consequent": variable_to_dict(rb.consequent),
        "rules": [{"when": list(key), "then": then} for key, then in rb.rules],
    }


def rulebase_from_dict(doc: dict) -> RuleBase:
    try:
        antecedents = tuple(variable_from_dict(d) for d in doc["antecedents"])
        consequent = variable_from_dict(doc["consequent"])
        rules = tuple((tuple(r["when"]), r["then"]) for r in doc["rules"])
    except (KeyError, TypeError) as exc:
        raise UsageError(f"malformed rule base document: {exc}") from exc
    return RuleBase(antecedents, consequent, rules)

"""Single-output Mamdani fuzzy inference over piecewise-linear term sets.

The pipeline is fuzzify -> fire_rules -> defuzzify_centroid, with product
conjunction and additive weighted-centroid aggregation; ``infer`` fuses the
three into one pass over tables compiled when a variable or rule base is
built, with results bit-identical to the dense definition. The README's
"Inference" section describes the tables and the aggregation. Everything
here is generic: controllers supply concrete variables and rule tables.
"""

from __future__ import annotations

import itertools
import json
import math
import warnings
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .errors import DegenerateFiringWarning, InputDomainError, UsageError

TRIANGULAR = "triangular"
LEFT_SHOULDER = "left-shoulder"
RIGHT_SHOULDER = "right-shoulder"

_KINDS = (TRIANGULAR, LEFT_SHOULDER, RIGHT_SHOULDER)
_BREAKPOINT_COUNT = {TRIANGULAR: 3, LEFT_SHOULDER: 2, RIGHT_SHOULDER: 2}


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
        if not all(math.isfinite(p) for p in pts):
            raise UsageError(f"breakpoints must be finite: {pts}")
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


# How a term's degree is computed on one segment of a segment table; the
# expressions are those of ``eval_membership`` on that stretch of the term.
_ONE = 0   # 1.0
_RISE = 1  # (u - foot) / den, den = peak - foot
_FALL = 2  # (foot - u) / den, den = foot - peak


def _require_finite(name: str, what: str, values) -> None:
    if not all(math.isfinite(v) for v in values):
        raise UsageError(f"variable {name!r}: {what} is not finite (overflow)")


def _segment_terms(terms, lower: float, upper: float) -> tuple[tuple[int, int, float, float], ...]:
    """(term index, kind, foot, denominator) of every term that is not zero
    throughout [lower, upper), a stretch that no breakpoint splits."""
    out = []
    for i, (_, mf) in enumerate(terms):
        if mf.kind == TRIANGULAR:
            a, b, c = mf.breakpoints
            if upper <= a or lower >= c:
                continue
            out.append((i, _RISE, a, b - a) if upper <= b else (i, _FALL, c, c - b))
        elif mf.kind == LEFT_SHOULDER:
            edge, foot = mf.breakpoints
            if lower >= foot:
                continue
            out.append((i, _ONE, 0.0, 1.0) if upper <= edge else (i, _FALL, foot, foot - edge))
        else:
            foot, edge = mf.breakpoints
            if upper <= foot:
                continue
            out.append((i, _ONE, 0.0, 1.0) if lower >= edge else (i, _RISE, foot, edge - foot))
    return tuple(out)


@dataclass(frozen=True)
class LinguisticVariable:
    """Named universe interval plus an ordered term set."""

    name: str
    universe: tuple[float, float]
    terms: tuple[tuple[str, MembershipFunction], ...]
    # Compiled in __post_init__: the sorted distinct breakpoints and universe
    # bounds, and for each half-open segment [_edges[k-1], _edges[k]) the
    # nonzero terms there as (term index, kind, foot, denominator); segment 0
    # lies below the first edge and the last one from the last edge up.
    _edges: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _segments: tuple[tuple[tuple[int, int, float, float], ...], ...] = field(
        init=False, repr=False, compare=False
    )

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
        _require_finite(self.name, "universe span hi - lo", (hi - lo,))
        edges = sorted({lo, hi}.union(*(mf.breakpoints for _, mf in self.terms)))
        bounds = [-math.inf, *edges, math.inf]
        segments = tuple(
            _segment_terms(self.terms, lower, upper) for lower, upper in zip(bounds, bounds[1:])
        )
        _require_finite(
            self.name, "a membership ramp denominator",
            (den for segment in segments for _, _, _, den in segment),
        )
        object.__setattr__(self, "_edges", tuple(edges))
        object.__setattr__(self, "_segments", segments)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.terms)


def _segment_degrees(var: LinguisticVariable, u: float) -> tuple[int, list[float]]:
    """The segment of the clamped input and the degrees of that segment's
    terms there, in segment-table order, zeros kept; each degree equals
    ``fuzzify(var, u)`` for that term bit for bit."""
    if not math.isfinite(u):
        raise InputDomainError(f"non-finite input {u!r} for variable {var.name!r}")
    lo, hi = var.universe
    # The clamp of ``fuzzify``, min(max(u, lo), hi), without the builtins' call cost.
    if u < lo:
        u = lo
    elif u > hi:
        u = hi
    k = bisect_right(var._edges, u)
    # A loop, not a comprehension: it skips the comprehension's frame.
    degrees = []
    for _, kind, foot, den in var._segments[k]:
        degrees.append(
            1.0 if kind == _ONE else (u - foot) / den if kind == _RISE else (foot - u) / den
        )
    return k, degrees


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
    # Compiled in __post_init__: each rule's consequent (area, centroid), and
    # one cell per combination of antecedent segments, row-major over the
    # variables' segment tables. A cell lists the rules that can fire there
    # in ascending rule index as (rule, p, q, area, centroid), p and q being
    # the positions of the rule's terms in the segments' term lists (q is 0
    # for one antecedent).
    _geometry: tuple[tuple[float, float], ...] = field(init=False, repr=False, compare=False)
    _cells: tuple[tuple[tuple[int, int, int, float, float], ...], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if len(self.antecedents) not in (1, 2):
            raise UsageError(
                f"a rule base takes one or two antecedent variables, got {len(self.antecedents)}"
            )
        positions = list(itertools.product(*(v.labels for v in self.antecedents)))
        seen = [key for key, _ in self.rules]
        if len(seen) != len(set(seen)):
            raise UsageError("duplicate rule antecedents")
        if set(seen) != set(positions):
            raise UsageError(
                f"rule base is not total: {len(seen)} rules for "
                f"{len(positions)} antecedent combinations"
            )
        consequent = self.consequent
        geometry = {
            label: term_geometry(mf, consequent.universe) for label, mf in consequent.terms
        }
        for key, then in self.rules:
            if then not in geometry:
                raise UsageError(f"rule {key} names unknown consequent {then!r}")
        _require_finite(
            consequent.name, "a consequent term's area, centroid or moment",
            (v for area, centroid in geometry.values() for v in (area, centroid, area * centroid)),
        )
        per_rule = tuple(geometry[then] for _, then in self.rules)
        # Every weight is at most 1, so these sums bound the centroid's sums.
        _require_finite(
            consequent.name, "the sum of the rules' consequent areas or moments",
            (sum(area for area, _ in per_rule), sum(abs(area * c) for area, c in per_rule)),
        )
        index = {key: i for i, key in enumerate(seen)}
        cells = []
        for segments in itertools.product(*(v._segments for v in self.antecedents)):
            cell = []
            for at in itertools.product(*(range(len(segment)) for segment in segments)):
                key = tuple(
                    var.terms[segment[pos][0]][0]
                    for var, segment, pos in zip(self.antecedents, segments, at)
                )
                rule = index[key]
                p, q = (*at, 0)[:2]
                cell.append((rule, p, q, *per_rule[rule]))
            cells.append(tuple(sorted(cell)))
        object.__setattr__(self, "_geometry", per_rule)
        object.__setattr__(self, "_cells", tuple(cells))

    def __len__(self) -> int:
        return len(self.rules)


def _cell(rb: RuleBase, inputs: Sequence[float]) -> tuple[tuple, list[float], list[float] | None]:
    """The cell of ``inputs`` and the degrees of its segments' terms, one
    list per antecedent (the second list is ``None`` for one antecedent)."""
    if len(inputs) != len(rb.antecedents):
        raise UsageError(
            f"expected {len(rb.antecedents)} inputs, got {len(inputs)}"
        )
    if len(inputs) == 1:
        k, d0 = _segment_degrees(rb.antecedents[0], inputs[0])
        return rb._cells[k], d0, None
    first, second = rb.antecedents
    k0, d0 = _segment_degrees(first, inputs[0])
    k1, d1 = _segment_degrees(second, inputs[1])
    return rb._cells[k0 * len(second._segments) + k1], d0, d1


def fire_rules(rb: RuleBase, inputs: Sequence[float]) -> list[float]:
    """Product-conjunction activation weight per rule, in rule order.

    Only the rules of the inputs' cell are multiplied; every other rule has
    a zero factor and keeps weight 0.0.
    """
    cell, d0, d1 = _cell(rb, inputs)
    weights = [0.0] * len(rb.rules)
    # The dense product is ((1.0 * d0) * d1); 1.0 * d0 == d0 exactly.
    for rule, p, q, _, _ in cell:
        weights[rule] = d0[p] if d1 is None else d0[p] * d1[q]
    return weights


def defuzzify_centroid(rb: RuleBase, fv: Sequence[float]) -> float:
    """Centroid of the weighted-consequent aggregate (see the README's
    "Inference" section).

    An all-zero firing vector falls back to the universe midpoint and emits a
    DegenerateFiringWarning instead of dividing by zero.
    """
    if len(fv) != len(rb.rules):
        raise UsageError(f"firing vector length {len(fv)} != rule count {len(rb.rules)}")
    num = 0.0
    den = 0.0
    geometry = rb._geometry
    # compress yields the indices of nonzero weights, in ascending rule index;
    # a negative weight is skipped like a zero one.
    for i in itertools.compress(range(len(fv)), fv):
        w = fv[i]
        if w < 0.0:
            continue
        area, centroid = geometry[i]
        weighted_area = w * area
        num += weighted_area * centroid
        den += weighted_area
    if den <= 0.0:
        return _midpoint(rb)
    return num / den


def _midpoint(rb: RuleBase) -> float:
    lo, hi = rb.consequent.universe
    warnings.warn(
        f"no rule fired for {rb.consequent.name!r}; returning midpoint",
        DegenerateFiringWarning,
        stacklevel=3,
    )
    return (lo + hi) / 2.0


def infer(rb: RuleBase, inputs: Sequence[float]) -> float:
    """End-to-end inference in one pass over the inputs' cell.

    Equal bit for bit to ``defuzzify_centroid(rb, fire_rules(rb, inputs))``:
    the factors, expressions and rule order are the same, and a rule with a
    zero degree adds +-0.0 to sums that start at +0.0, which leaves them
    unchanged.
    """
    cell, d0, d1 = _cell(rb, inputs)
    num = 0.0
    den = 0.0
    if d1 is None:
        for _, p, _, area, centroid in cell:
            weighted_area = d0[p] * area
            num += weighted_area * centroid
            den += weighted_area
    else:
        for _, p, q, area, centroid in cell:
            weighted_area = (d0[p] * d1[q]) * area
            num += weighted_area * centroid
            den += weighted_area
    if den <= 0.0:
        return _midpoint(rb)
    return num / den


# -- JSON (de)serialization --------------------------------------------------
# Plain-dict codecs so controller definitions can live in version-controlled
# JSON documents and tests can perturb membership designs without recompiling.
# ``load_json`` reads, and the ``json_*`` functions check, every document the
# CLI reads: controllers, scenarios and grids.

def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's pairs as a dict; a key given twice is a UsageError
    rather than the last value silently winning."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise UsageError(f"duplicate key {key!r}")
        doc[key] = value
    return doc


def load_json(path: Path) -> dict:
    """The JSON object in the UTF-8 file at ``path``; anything else,
    including an object that repeats a key, is a UsageError naming the
    file."""
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"{path}: cannot read: {getattr(exc, 'strerror', None) or exc}") from exc
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # a repeated key, or an integer past Python's digit limit
        raise UsageError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise UsageError(f"{path}: top level must be a JSON object")
    return doc


def json_number(value, where: str) -> float:
    """``value`` as a finite float; JSON booleans and strings are not numbers."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if math.isfinite(number):
            return number
    raise UsageError(f"{where} must be a finite number, got {value!r}")


def json_object(value, allowed, where: str, required=None) -> dict:
    """``value`` as a JSON object whose keys all lie in ``allowed`` and
    include every key in ``required`` (by default, every key in ``allowed``)."""
    if not isinstance(value, dict):
        raise UsageError(f"{where} must be a JSON object, got {value!r}")
    unknown = set(value).difference(allowed)
    if unknown:
        raise UsageError(f"{where}: unknown key(s) {sorted(unknown)}")
    missing = set(allowed if required is None else required).difference(value)
    if missing:
        raise UsageError(f"{where}: missing key(s) {sorted(missing)}")
    return value


def json_list(value, where: str) -> list:
    if not isinstance(value, list):
        raise UsageError(f"{where} must be a JSON list, got {value!r}")
    return value


def json_string(value, where: str) -> str:
    if not isinstance(value, str):
        raise UsageError(f"{where} must be a JSON string, got {value!r}")
    return value


def variable_to_dict(var: LinguisticVariable) -> dict:
    return {
        "name": var.name,
        "universe": list(var.universe),
        "terms": [
            {"label": label, "kind": mf.kind, "breakpoints": list(mf.breakpoints)}
            for label, mf in var.terms
        ],
    }


def _numbers(values, where: str) -> tuple[float, ...]:
    return tuple(json_number(v, f"{where}[{i}]") for i, v in enumerate(json_list(values, where)))


def variable_from_dict(doc: dict, where: str = "variable") -> LinguisticVariable:
    json_object(doc, ("name", "universe", "terms"), where)
    name = json_string(doc["name"], f"{where}.name")
    universe = _numbers(doc["universe"], f"{where}.universe")
    if len(universe) != 2:
        raise UsageError(f"{where}.universe must hold two numbers, got {len(universe)}")
    shapes = []
    for i, term in enumerate(json_list(doc["terms"], f"{where}.terms")):
        at = f"{where}.terms[{i}]"
        json_object(term, ("label", "kind", "breakpoints"), at)
        shapes.append((json_string(term["label"], f"{at}.label"),
                       json_string(term["kind"], f"{at}.kind"),
                       _numbers(term["breakpoints"], f"{at}.breakpoints")))
    try:
        terms = tuple((label, MembershipFunction(kind, points)) for label, kind, points in shapes)
        return LinguisticVariable(name, universe, terms)
    except UsageError as exc:
        raise UsageError(f"{where}: {exc}") from exc


def rulebase_to_dict(rb: RuleBase) -> dict:
    return {
        "antecedents": [variable_to_dict(v) for v in rb.antecedents],
        "consequent": variable_to_dict(rb.consequent),
        "rules": [{"when": list(key), "then": then} for key, then in rb.rules],
    }


def rulebase_from_dict(doc: dict, where: str = "rule base") -> RuleBase:
    json_object(doc, ("antecedents", "consequent", "rules"), where)
    antecedents = tuple(
        variable_from_dict(d, f"{where}.antecedents[{i}]")
        for i, d in enumerate(json_list(doc["antecedents"], f"{where}.antecedents"))
    )
    consequent = variable_from_dict(doc["consequent"], f"{where}.consequent")
    rules = []
    for i, rule in enumerate(json_list(doc["rules"], f"{where}.rules")):
        at = f"{where}.rules[{i}]"
        json_object(rule, ("when", "then"), at)
        when = json_list(rule["when"], f"{at}.when")
        rules.append((tuple(json_string(label, f"{at}.when[{j}]") for j, label in enumerate(when)),
                      json_string(rule["then"], f"{at}.then")))
    try:
        return RuleBase(antecedents, consequent, tuple(rules))
    except UsageError as exc:
        raise UsageError(f"{where}: {exc}") from exc

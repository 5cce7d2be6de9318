"""Engine-level tests: shapes, fuzzification, firing, defuzzification."""

import itertools
import math
import random
import struct

import pytest
from hypothesis import given, strategies as st

import oracle
from fuzzydock.controllers import build_flc_c, build_flc_t
from fuzzydock.errors import DegenerateFiringWarning, InputDomainError, UsageError
from fuzzydock.fuzzy import (
    LinguisticVariable,
    MembershipFunction,
    RuleBase,
    defuzzify_centroid,
    eval_membership,
    fire_rules,
    fuzzify,
    infer,
    rulebase_from_dict,
    rulebase_to_dict,
    term_geometry,
    variable_from_dict,
    variable_to_dict,
)

TRI = MembershipFunction("triangular", (0.0, 15.0, 30.0))


def make_var(name="V", peaks=(-10.0, 0.0, 10.0), labels=("N", "Z", "P")):
    terms = (
        (labels[0], MembershipFunction("left-shoulder", (peaks[0], peaks[1]))),
        (labels[1], MembershipFunction("triangular", peaks)),
        (labels[2], MembershipFunction("right-shoulder", (peaks[1], peaks[2]))),
    )
    return LinguisticVariable(name, (peaks[0], peaks[2]), terms)


class TestEvalMembership:
    def test_peak_is_one(self):
        assert eval_membership(TRI, 15.0) == 1.0

    def test_outside_support_is_zero(self):
        assert eval_membership(TRI, -5.0) == 0.0
        assert eval_membership(TRI, 35.0) == 0.0

    def test_midpoint_interpolates(self):
        assert eval_membership(TRI, 7.5) == pytest.approx((7.5 - 0.0) / 15.0)

    def test_shoulders_saturate(self):
        ls = MembershipFunction("left-shoulder", (-30.0, -20.0))
        rs = MembershipFunction("right-shoulder", (20.0, 30.0))
        assert eval_membership(ls, -31.0) == 1.0
        assert eval_membership(ls, -25.0) == 0.5
        assert eval_membership(ls, -19.0) == 0.0
        assert eval_membership(rs, 25.0) == 0.5
        assert eval_membership(rs, 31.0) == 1.0

    @given(st.floats(-50, 80))
    def test_degree_always_in_unit_interval(self, u):
        assert 0.0 <= eval_membership(TRI, u) <= 1.0

    def test_breakpoints_must_increase(self):
        with pytest.raises(UsageError):
            MembershipFunction("triangular", (0.0, 0.0, 1.0))
        with pytest.raises(UsageError):
            MembershipFunction("left-shoulder", (5.0, 2.0))

    def test_unknown_kind_rejected(self):
        with pytest.raises(UsageError):
            MembershipFunction("gaussian", (0.0, 1.0))


class TestTermGeometry:
    def test_triangle(self):
        area, centroid = term_geometry(TRI, (0.0, 30.0))
        assert area == pytest.approx(15.0)
        assert centroid == pytest.approx(15.0)

    def test_asymmetric_triangle_centroid(self):
        mf = MembershipFunction("triangular", (0.0, 10.0, 40.0))
        area, centroid = term_geometry(mf, (0.0, 40.0))
        assert area == pytest.approx(20.0)
        assert centroid == pytest.approx(50.0 / 3.0)

    def test_right_shoulder_at_universe_edge(self):
        mf = MembershipFunction("right-shoulder", (20.0, 30.0))
        area, centroid = term_geometry(mf, (-30.0, 30.0))
        assert area == pytest.approx(5.0)
        assert centroid == pytest.approx(80.0 / 3.0)

    def test_shoulder_with_interior_plateau(self):
        mf = MembershipFunction("left-shoulder", (-20.0, -10.0))
        area, centroid = term_geometry(mf, (-30.0, 30.0))
        # 10-wide plateau plus a 10-wide ramp.
        assert area == pytest.approx(15.0)
        assert centroid == pytest.approx((10 * -25.0 + 5 * (-20 + 10 / 3)) / 15.0)


class TestFuzzify:
    def test_peak_hits_single_term(self):
        var = make_var()
        assert fuzzify(var, 0.0) == {"N": 0.0, "Z": 1.0, "P": 0.0}

    def test_clamps_out_of_universe_input(self):
        var = make_var()
        assert fuzzify(var, 99.0) == fuzzify(var, 10.0)
        assert fuzzify(var, -99.0) == fuzzify(var, -10.0)

    def test_non_finite_rejected(self):
        var = make_var()
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(InputDomainError):
                fuzzify(var, bad)

    @given(st.floats(-10, 10))
    def test_partition_of_unity(self, u):
        var = make_var()
        assert sum(fuzzify(var, u).values()) == pytest.approx(1.0, abs=1e-9)

    def test_midway_splits_evenly(self):
        var = make_var()
        degrees = fuzzify(var, 5.0)
        assert degrees["Z"] == pytest.approx(0.5)
        assert degrees["P"] == pytest.approx(0.5)


def tiny_rulebase():
    var_in = make_var("IN")
    var_out = make_var("OUT", peaks=(-1.0, 0.0, 1.0))
    rules = ((("N",), "P"), (("Z",), "Z"), (("P",), "N"))
    return RuleBase((var_in,), var_out, rules)


class TestRuleBase:
    def test_totality_enforced(self):
        var_in = make_var("IN")
        var_out = make_var("OUT")
        with pytest.raises(UsageError):
            RuleBase((var_in,), var_out, ((("N",), "P"),))

    def test_duplicate_rule_rejected(self):
        var_in = make_var("IN")
        var_out = make_var("OUT")
        rules = ((("N",), "P"), (("N",), "Z"), (("Z",), "Z"), (("P",), "N"))
        with pytest.raises(UsageError):
            RuleBase((var_in,), var_out, rules)

    def test_unknown_consequent_rejected(self):
        var_in = make_var("IN")
        var_out = make_var("OUT")
        rules = ((("N",), "HUGE"), (("Z",), "Z"), (("P",), "N"))
        with pytest.raises(UsageError):
            RuleBase((var_in,), var_out, rules)

    @pytest.mark.parametrize("count", [0, 3])
    def test_one_or_two_antecedents(self, count):
        variables = tuple(make_var(f"IN{i}") for i in range(count))
        keys = itertools.product(*(v.labels for v in variables))
        rules = tuple((key, "Z") for key in keys)
        with pytest.raises(UsageError, match="one or two antecedent variables"):
            RuleBase(variables, make_var("OUT"), rules)

    @pytest.mark.parametrize(
        "universe, peaks",
        [
            pytest.param((-1.7e308, 1.7e308), (-1.7e308, 0.0, 1.7e308), id="span-overflows"),
            pytest.param((-5e307, 5e307), (-5e307, 0.0, 5e307), id="moment-overflows"),
        ],
    )
    def test_consequent_geometry_must_be_finite(self, universe, peaks):
        rules = ((("N",), "P"), (("Z",), "Z"), (("P",), "N"))
        with pytest.raises(UsageError, match="'OUT'.*not finite"):
            var_out = LinguisticVariable("OUT", universe, make_var("OUT", peaks=peaks).terms)
            RuleBase((make_var("IN"),), var_out, rules)


class TestFireRules:
    def test_single_rule_fires_at_peak(self):
        rb = tiny_rulebase()
        assert fire_rules(rb, [0.0]) == [0.0, 1.0, 0.0]

    def test_zero_degree_annihilates(self):
        rb = tiny_rulebase()
        weights = fire_rules(rb, [10.0])
        assert weights[0] == 0.0 and weights[1] == 0.0 and weights[2] == 1.0

    def test_arity_mismatch(self):
        rb = tiny_rulebase()
        with pytest.raises(UsageError):
            fire_rules(rb, [0.0, 1.0])

    @given(st.floats(-10, 10))
    def test_weights_in_unit_interval_and_someone_fires(self, u):
        rb = tiny_rulebase()
        weights = fire_rules(rb, [u])
        assert all(0.0 <= w <= 1.0 for w in weights)
        assert any(w > 0.0 for w in weights)


class TestDefuzzify:
    def test_symmetric_single_rule_gives_zero(self):
        rb = tiny_rulebase()
        assert defuzzify_centroid(rb, [0.0, 1.0, 0.0]) == pytest.approx(0.0)

    def test_equal_opposed_rules_cancel(self):
        rb = tiny_rulebase()
        # N and P consequents mirror each other, so equal weights cancel.
        assert defuzzify_centroid(rb, [0.4, 0.0, 0.4]) == pytest.approx(0.0, abs=1e-12)

    def test_all_zero_firing_falls_back_to_midpoint(self):
        rb = tiny_rulebase()
        with pytest.warns(DegenerateFiringWarning):
            assert defuzzify_centroid(rb, [0.0, 0.0, 0.0]) == 0.0

    def test_length_mismatch(self):
        rb = tiny_rulebase()
        with pytest.raises(UsageError):
            defuzzify_centroid(rb, [1.0])

    @given(st.lists(st.floats(0, 1), min_size=3, max_size=3))
    def test_matches_numeric_oracle(self, weights):
        rb = tiny_rulebase()
        if sum(weights) == 0.0:
            return
        mine = defuzzify_centroid(rb, weights)
        ref = oracle.defuzzify(rb, weights)
        # The oracle itself carries ~3e-7 trapezoid error on this narrow
        # universe; the floor absorbs it where the output crosses zero.
        assert mine == pytest.approx(ref, rel=1e-6, abs=1e-6)


class TestInfer:
    @given(st.floats(-10, 10))
    def test_composition_matches_oracle(self, u):
        rb = tiny_rulebase()
        assert infer(rb, [u]) == pytest.approx(oracle.infer(rb, [u]), rel=1e-6, abs=1e-6)

    @given(st.floats(-10, 10))
    def test_output_inside_consequent_universe(self, u):
        rb = tiny_rulebase()
        lo, hi = rb.consequent.universe
        assert lo <= infer(rb, [u]) <= hi


class TestJsonRoundTrip:
    def test_variable(self):
        var = make_var()
        assert variable_from_dict(variable_to_dict(var)) == var

    def test_rulebase(self):
        rb = tiny_rulebase()
        assert rulebase_from_dict(rulebase_to_dict(rb)) == rb

    def test_malformed_document(self):
        with pytest.raises(UsageError):
            variable_from_dict({"name": "V"})
        with pytest.raises(UsageError):
            rulebase_from_dict({"antecedents": []})


# -- Sparse firing against the dense definition -------------------------------
# ``fire_rules`` multiplies only combinations of nonzero degrees, and
# ``defuzzify_centroid`` reads per-rule geometry compiled once per rule base.
# The dense definition below multiplies every rule and recomputes the term
# geometry; both must agree bit for bit.

def dense_fire(rb, inputs):
    degrees = [fuzzify(var, u) for var, u in zip(rb.antecedents, inputs)]
    weights = []
    for key, _ in rb.rules:
        w = 1.0
        for per_var, label in zip(degrees, key):
            w *= per_var[label]
        weights.append(w)
    return weights


def dense_infer(rb, inputs):
    geometry = {
        label: term_geometry(mf, rb.consequent.universe) for label, mf in rb.consequent.terms
    }
    num = 0.0
    den = 0.0
    for (_, then), w in zip(rb.rules, dense_fire(rb, inputs)):
        if w <= 0.0:
            continue
        area, centroid = geometry[then]
        num += w * area * centroid
        den += w * area
    if den == 0.0:
        lo, hi = rb.consequent.universe
        return (lo + hi) / 2.0
    return num / den


def widen(var):
    """The same peaks, each term reaching two peaks to each side."""
    peaks = [var.universe[0]] + [mf.breakpoints[1] for _, mf in var.terms[1:-1]] + [var.universe[1]]
    last = len(peaks) - 1
    terms = []
    for i, (label, _) in enumerate(var.terms):
        if i == 0:
            mf = MembershipFunction("left-shoulder", (peaks[0], peaks[2]))
        elif i == last:
            mf = MembershipFunction("right-shoulder", (peaks[-3], peaks[-1]))
        else:
            mf = MembershipFunction(
                "triangular", (peaks[max(i - 2, 0)], peaks[i], peaks[min(i + 2, last)])
            )
        terms.append((label, mf))
    return LinguisticVariable(var.name, var.universe, tuple(terms))


def wide_rulebase(rb):
    return RuleBase(tuple(widen(v) for v in rb.antecedents), widen(rb.consequent), rb.rules)


def shuffled_rulebase(rb):
    rules = list(rb.rules)
    random.Random(0).shuffle(rules)
    return RuleBase(rb.antecedents, rb.consequent, tuple(rules))


def overhang(var):
    """The same terms with every breakpoint on a universe bound moved 1e-12
    outside it, as far as LinguisticVariable allows: at each bound the end
    term stops short of degree 1 (or 0) and its neighbour is just above 0."""
    lo, hi = var.universe
    moved = {lo: lo - 1e-12, hi: hi + 1e-12}
    terms = tuple(
        (label, MembershipFunction(mf.kind, tuple(moved.get(p, p) for p in mf.breakpoints)))
        for label, mf in var.terms
    )
    return LinguisticVariable(var.name, var.universe, terms)


def overhang_rulebase(rb):
    return RuleBase(tuple(overhang(v) for v in rb.antecedents), overhang(rb.consequent), rb.rules)


def gapped_var(name):
    """Three terms with no term covering (-6, -4) or (4, 6)."""
    terms = (
        ("N", MembershipFunction("left-shoulder", (-10.0, -6.0))),
        ("Z", MembershipFunction("triangular", (-4.0, 0.0, 4.0))),
        ("P", MembershipFunction("right-shoulder", (6.0, 10.0))),
    )
    return LinguisticVariable(name, (-10.0, 10.0), terms)


def gapped_rulebase(inputs):
    variables = tuple(gapped_var(f"IN{i}") for i in range(inputs))
    keys = list(itertools.product(*(v.labels for v in variables)))
    then = ("N", "Z", "P")
    rules = tuple((key, then[i % 3]) for i, key in enumerate(keys))
    return RuleBase(variables, make_var("OUT", peaks=(-1.0, 0.0, 1.0)), rules)


FLC_T = build_flc_t()
FLC_C = build_flc_c()
RULE_BASES = {
    "flc_t": FLC_T,
    "flc_c": FLC_C,
    "flc_t-wide": wide_rulebase(FLC_T),
    "flc_c-wide": wide_rulebase(FLC_C),
    "flc_t-shuffled": shuffled_rulebase(FLC_T),
    "flc_t-wide-shuffled": shuffled_rulebase(wide_rulebase(FLC_T)),
    "flc_t-overhang": overhang_rulebase(FLC_T),
    "flc_c-overhang": overhang_rulebase(FLC_C),
    "gap-1": gapped_rulebase(1),
    "gap-2": gapped_rulebase(2),
}


def breakpoint_inputs(rb):
    """Every combination of breakpoints, universe bounds and points just
    outside the universe, one axis per antecedent."""
    axes = []
    for var in rb.antecedents:
        lo, hi = var.universe
        points = {p for _, mf in var.terms for p in mf.breakpoints} | {lo, hi, lo - 1.0, hi + 1.0}
        axes.append(sorted(points))
    return [list(inputs) for inputs in itertools.product(*axes)]


def assert_one_pass_matches_vector(rb, inputs):
    """``infer`` sums each cell in one pass; it must equal the vector form
    bit for bit, signed zeros included."""
    one_pass = infer(rb, inputs)
    vector = defuzzify_centroid(rb, fire_rules(rb, inputs))
    assert one_pass == vector
    assert struct.pack("<d", one_pass) == struct.pack("<d", vector)


@pytest.mark.parametrize("name", RULE_BASES)
class TestSparseMatchesDense:
    def test_every_breakpoint_pair(self, name):
        rb = RULE_BASES[name]
        for inputs in breakpoint_inputs(rb):
            weights = fire_rules(rb, inputs)
            assert len(weights) == len(rb)
            assert weights == dense_fire(rb, inputs)
            assert infer(rb, inputs) == dense_infer(rb, inputs)
            assert_one_pass_matches_vector(rb, inputs)

    @given(st.data())
    def test_random_inputs(self, name, data):
        rb = RULE_BASES[name]
        inputs = [
            data.draw(st.floats(var.universe[0] - 10.0, var.universe[1] + 10.0))
            for var in rb.antecedents
        ]
        weights = fire_rules(rb, inputs)
        assert len(weights) == len(rb)
        assert weights == dense_fire(rb, inputs)
        assert infer(rb, inputs) == dense_infer(rb, inputs)
        assert_one_pass_matches_vector(rb, inputs)


class TestGapBetweenTerms:
    @pytest.mark.parametrize("inputs", [[-5.0], [5.0], [-5.0, 0.0], [0.0, 4.5], [-5.0, 5.0]])
    def test_uncovered_input_returns_midpoint_with_warning(self, inputs):
        rb = RULE_BASES[f"gap-{len(inputs)}"]
        assert fire_rules(rb, inputs) == [0.0] * len(rb)
        with pytest.warns(DegenerateFiringWarning):
            assert infer(rb, inputs) == 0.0

"""Controller-level tests: table fidelity, symmetry, ranges, persistence."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import oracle
from fuzzydock.controllers import (
    A_LABELS,
    LEVEL_LABELS,
    PEAKS,
    TABLE_C,
    TABLE_T,
    X_LABELS,
    ControllerSet,
    build_flc_c,
    build_flc_t,
    bundled_controllers_path,
    cascade_step,
    controllers_from_dict,
    controllers_to_json,
    default_controllers,
    flc_c,
    flc_t,
    load_controllers,
    partition,
)
from fuzzydock.errors import InputDomainError, UsageError
from fuzzydock.fuzzy import fuzzify
from fuzzydock.plant import PlantState


@pytest.fixture(scope="module")
def cs():
    return default_controllers()


class TestTables:
    def test_flc_t_has_35_rules(self, cs):
        assert len(cs.flc_t) == 35
        assert len(X_LABELS) * len(A_LABELS) == 35

    def test_flc_c_has_7_rules(self, cs):
        assert len(cs.flc_c) == 7

    def test_flat_equivalent_would_need_245(self):
        # The cascade's selling point: 35 + 7 rules instead of one flat
        # three-input table over 7 x 5 x 7 combinations.
        assert len(A_LABELS) * len(X_LABELS) * len(LEVEL_LABELS) == 245

    def test_every_position_heading_pair_enumerated(self, cs):
        seen = {key for key, _ in cs.flc_t.rules}
        assert seen == {(a, x) for a in A_LABELS for x in X_LABELS}

    def test_steering_table_is_identity(self, cs):
        assert dict(cs.flc_c.rules) == {(g,): g for g in LEVEL_LABELS}

    def test_position_table_antisymmetric(self):
        # Mirroring both inputs negates the command: reverse rows and
        # columns, then the consequent must be the sign-flipped level.
        flip = dict(zip(LEVEL_LABELS, reversed(LEVEL_LABELS)))
        mirror_a = dict(zip(A_LABELS, reversed(A_LABELS)))
        mirror_x = dict(zip(X_LABELS, reversed(X_LABELS)))
        for (a, x), level in TABLE_T.items():
            assert TABLE_T[(mirror_a[a], mirror_x[x])] == flip[level]


class TestPartitions:
    @pytest.mark.parametrize("name,labels", [
        ("X", X_LABELS), ("A", A_LABELS), ("B", LEVEL_LABELS),
        ("G", LEVEL_LABELS), ("S", LEVEL_LABELS),
    ])
    def test_sum_to_one_everywhere(self, name, labels):
        var = partition(name, labels, PEAKS[name])
        lo, hi = var.universe
        for i in range(1001):
            u = lo + (hi - lo) * i / 1000
            assert sum(fuzzify(var, u).values()) == pytest.approx(1.0, abs=1e-9)

    def test_peaks_hit_their_term_exactly(self):
        var = partition("X", X_LABELS, PEAKS["X"])
        for label, peak in zip(X_LABELS, PEAKS["X"]):
            assert fuzzify(var, peak)[label] == 1.0

    def test_label_peak_count_mismatch(self):
        with pytest.raises(UsageError):
            partition("X", X_LABELS, (0.0, 1.0))


class TestFlcT:
    def test_centered_aligned_commands_zero(self, cs):
        assert flc_t(0.0, 0.0, cs) == 0.0

    def test_single_rule_firing_returns_term_centroid(self, cs):
        # At the RC position peak with zero heading only one rule fires and
        # the output is exactly that consequent's centroid.
        rc_peak = PEAKS["X"][3]
        assert flc_t(rc_peak, 0.0, cs) == pytest.approx(10.0)
        assert flc_t(-rc_peak, 0.0, cs) == pytest.approx(-10.0)

    def test_range(self, cs):
        rng = random.Random(42)
        for _ in range(500):
            out = flc_t(rng.uniform(-150, 150), rng.uniform(-200, 200), cs)
            assert -30.0 <= out <= 30.0

    def test_clamps_oversized_inputs(self, cs):
        assert flc_t(150.0, 0.0, cs) == flc_t(100.0, 0.0, cs)
        assert flc_t(0.0, 200.0, cs) == flc_t(0.0, 180.0, cs)

    def test_non_finite_rejected(self, cs):
        with pytest.raises(InputDomainError):
            flc_t(float("nan"), 0.0, cs)
        with pytest.raises(InputDomainError):
            flc_t(0.0, float("inf"), cs)

    @given(st.floats(-100, 100), st.floats(-180, 180))
    def test_antisymmetry(self, cs, x, alpha):
        assert flc_t(-x, -alpha, cs) == pytest.approx(-flc_t(x, alpha, cs), abs=1e-9)

    @given(st.floats(-100, 100), st.floats(-180, 180))
    def test_lipschitz_in_each_input(self, cs, x, alpha):
        h = 1e-4
        k = 8.0  # generous bound; interior slopes are well under 1 deg/unit
        base = flc_t(x, alpha, cs)
        assert abs(flc_t(min(x + h, 100.0), alpha, cs) - base) <= k * h + 1e-12
        assert abs(flc_t(x, min(alpha + h, 180.0), cs) - base) <= k * h + 1e-12

    def test_oracle_spot_checks(self, cs):
        rng = random.Random(3)
        for _ in range(50):
            x, alpha = rng.uniform(-110, 110), rng.uniform(-190, 190)
            mine = flc_t(x, alpha, cs)
            ref = oracle.infer(cs.flc_t, [alpha, x])
            assert mine == pytest.approx(ref, rel=1e-6, abs=1e-7)


class TestFlcC:
    def test_zero_mismatch_zero_steering(self, cs):
        assert flc_c(0.0, cs) == 0.0

    def test_inner_peak_maps_to_term_centroid(self, cs):
        ps_peak = PEAKS["G"][4]
        assert flc_c(ps_peak, cs) == pytest.approx(10.0)

    def test_saturates_at_shoulder_centroid(self, cs):
        # Full-scale mismatch fires only the outermost term, whose centroid
        # sits inside the universe edge, not on it.
        assert flc_c(60.0, cs) == pytest.approx(80.0 / 3.0)
        assert flc_c(-60.0, cs) == pytest.approx(-80.0 / 3.0)

    def test_monotone_on_half_degree_grid(self, cs):
        previous = flc_c(-60.0, cs)
        g = -59.5
        while g <= 60.0:
            current = flc_c(g, cs)
            assert current >= previous - 1e-12
            previous = current
            g += 0.5

    @given(st.floats(-60, 60))
    def test_odd_function(self, cs, gamma):
        assert flc_c(-gamma, cs) == pytest.approx(-flc_c(gamma, cs), abs=1e-9)

    @given(st.floats(-80, 80))
    def test_range_with_clamping(self, cs, gamma):
        assert -30.0 <= flc_c(gamma, cs) <= 30.0

    @given(st.floats(-60, 60))
    def test_lipschitz(self, cs, gamma):
        h = 1e-4
        k = 8.0
        assert abs(flc_c(min(gamma + h, 60.0), cs) - flc_c(gamma, cs)) <= k * h + 1e-12


class TestCascade:
    def test_aligned_state_needs_nothing(self, cs):
        out = cascade_step(PlantState(0.0, 50.0, 0.0, 0.0), cs)
        assert (out.beta_prime, out.gamma, out.theta) == (0.0, 0.0, 0.0)

    def test_cab_angle_mismatch_steers_against_it(self, cs):
        out = cascade_step(PlantState(0.0, 50.0, 0.0, 10.0), cs)
        assert out.beta_prime == 0.0
        assert out.gamma == pytest.approx(-10.0)
        assert out.theta < 0.0

    def test_far_corner_outputs_in_range(self, cs):
        out = cascade_step(PlantState(80.0, 180.0, 60.0, 30.0), cs)
        assert -30.0 <= out.beta_prime <= 30.0
        assert -60.0 <= out.gamma <= 60.0
        assert -30.0 <= out.theta <= 30.0

    def test_gamma_clamped_for_out_of_range_states(self, cs):
        out = cascade_step(PlantState(-100.0, 50.0, -90.0, -80.0), cs)
        assert out.gamma == 60.0


def _swap_flc_t_inputs(doc):
    """List flc_t's antecedents as X, A, a rule base that is valid on its
    own: read positionally, flc_t(40, 0) would give -13.33, not 10.0."""
    flc = doc["flc_t"]
    flc["antecedents"].reverse()
    for rule in flc["rules"]:
        rule["when"].reverse()


def _rename_flc_c_input(doc):
    doc["flc_c"]["antecedents"][0]["name"] = "H"


class TestPersistence:
    def test_bundled_json_matches_builders(self, cs):
        bundled = load_controllers(bundled_controllers_path())
        assert bundled == cs

    def test_round_trip(self, cs):
        assert controllers_from_dict(json.loads(controllers_to_json(cs))) == cs

    def test_regen_script_reproduces_bundled_bytes(self, tmp_path):
        # The benchmark reads the bundled file directly, so it must stay what
        # the builders write. Run as the README says, from a checkout.
        root = Path(__file__).resolve().parent.parent
        out = tmp_path / "controllers.json"
        proc = subprocess.run(
            [sys.executable, "scripts/regen_controllers_json.py", "--out", str(out)],
            cwd=root, capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": "src"},
        )
        assert proc.returncode == 0, proc.stderr
        assert out.read_bytes() == bundled_controllers_path().read_bytes()

    def test_rejects_wrong_top_level_keys(self):
        with pytest.raises(UsageError):
            controllers_from_dict({"flc_t": {}})

    @pytest.mark.parametrize(
        "edit, message",
        [
            pytest.param(_swap_flc_t_inputs, "flc_t.antecedents must be named ['A', 'X'] "
                         "in that order, got ['X', 'A']", id="swapped"),
            pytest.param(_rename_flc_c_input, "flc_c.antecedents must be named ['G'] "
                         "in that order, got ['H']", id="renamed"),
        ],
    )
    def test_inputs_bind_by_name(self, cs, tmp_path, edit, message):
        doc = json.loads(controllers_to_json(cs))
        edit(doc)
        path = tmp_path / "ctl.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(UsageError) as info:
            load_controllers(path)
        assert str(info.value) == f"{path}: {message}"

    def test_perturbed_document_changes_output(self, cs, tmp_path):
        doc = json.loads(controllers_to_json(cs))
        for term in doc["flc_c"]["consequent"]["terms"]:
            term["breakpoints"] = [b * 0.5 for b in term["breakpoints"]]
        doc["flc_c"]["consequent"]["universe"] = [-15.0, 15.0]
        path = tmp_path / "halved.json"
        path.write_text(json.dumps(doc))
        halved = load_controllers(path)
        assert flc_c(5.0, halved) == pytest.approx(flc_c(5.0, cs) / 2.0)

    def test_builders_accept_alternate_peaks(self):
        peaks = dict(PEAKS)
        peaks["X"] = (-100.0, -50.0, 0.0, 50.0, 100.0)
        rb = build_flc_t(peaks)
        alt = ControllerSet(rb, build_flc_c())
        assert flc_t(50.0, 0.0, alt) == pytest.approx(10.0)

"""Closed-loop tests: runs, dual-mode comparison, sweeps."""

import pytest
from hypothesis import given, settings, strategies as st

from fuzzydock.controllers import CascadeOutput, ControllerSet, default_controllers
from fuzzydock.errors import UsageError
from fuzzydock.plant import (
    DOCKED,
    ERROR,
    INSUFFICIENT_SPACE,
    TIMEOUT,
    PlantParams,
    PlantState,
    step,
)
from fuzzydock.simulation import (
    AxisSpec,
    Scenario,
    SweepGrid,
    TrajectorySample,
    convergence_metric,
    run,
    sweep,
)

YARD_CASES = [
    PlantState(80.0, 180.0, 60.0, 30.0),
    PlantState(-40.0, 170.0, 20.0, 15.0),
    PlantState(-60.0, 120.0, 30.0, 0.0),
]


class TestRun:
    def test_aligned_start_backs_straight_in(self):
        trajectory = run(Scenario(PlantState(0.0, 50.0, 0.0, 0.0)))
        assert trajectory.outcome.kind == DOCKED
        # y falls by exactly v per step; docking triggers at y <= 1.
        assert trajectory.outcome.steps == 49
        assert all(s.state.x == 0.0 and s.state.alpha == 0.0 for s in trajectory.samples)
        assert all(s.theta == 0.0 for s in trajectory.samples)

    def test_sample_bookkeeping(self):
        scenario = Scenario(PlantState(10.0, 40.0, 5.0, 0.0))
        trajectory = run(scenario)
        assert trajectory.samples[0].state == scenario.initial
        assert trajectory.outcome.steps == len(trajectory.samples) - 1
        assert [s.step for s in trajectory.samples] == list(range(len(trajectory.samples)))
        assert trajectory.samples[-1].state == trajectory.outcome.final_state

    @pytest.mark.parametrize("initial", YARD_CASES, ids=["right_far", "left_high", "left_low"])
    def test_yard_cases_dock_in_both_modes(self, initial):
        cascade, reference = run(Scenario(initial, mode="both"))
        assert cascade.outcome.kind == DOCKED
        assert reference.outcome.kind == DOCKED
        assert cascade.mode == "cascade" and reference.mode == "reference"

    def test_short_runway_fails(self):
        trajectory = run(Scenario(PlantState(80.0, 20.0, 60.0, 30.0)))
        assert trajectory.outcome.kind in (INSUFFICIENT_SPACE, TIMEOUT)
        assert trajectory.outcome.kind != DOCKED

    def test_deterministic_and_bit_identical(self):
        scenario = Scenario(PlantState(80.0, 180.0, 60.0, 30.0))
        first = run(scenario)
        second = run(scenario)
        assert first == second

    def test_timeout(self):
        trajectory = run(Scenario(PlantState(80.0, 180.0, 60.0, 30.0), max_steps=10))
        assert trajectory.outcome.kind == TIMEOUT
        assert trajectory.outcome.steps == 10

    def test_controller_set_with_wrong_inputs_cannot_be_built(self):
        cs = default_controllers()
        # A single-input rule base in the two-input slot is rejected when the
        # set is built, so no run can reach inference with it.
        with pytest.raises(UsageError, match=r"^flc_t\.antecedents must be named \['A', 'X'\]"):
            ControllerSet(cs.flc_c, cs.flc_c)

    # The bundled flc_c commands up to |theta| = 26.67, and above 20 at the
    # first step of every yard case.
    @pytest.mark.parametrize("theta_max", [5.0, 10.0, 20.0])
    @pytest.mark.parametrize("initial", YARD_CASES, ids=["right_far", "left_high", "left_low"])
    def test_steering_saturates_at_theta_max(self, initial, theta_max):
        params = PlantParams(theta_max=theta_max)
        trajectory = run(Scenario(initial, params=params))
        assert trajectory.outcome.kind != ERROR
        first = trajectory.samples[0]
        # The sample keeps the command; the plant gets it clamped.
        assert trajectory.samples[1].state == step(
            first.state, max(-theta_max, min(first.theta, theta_max)), params
        )
        assert abs(first.theta) > theta_max

    def test_invalid_scenario_rejected(self):
        with pytest.raises(UsageError):
            Scenario(PlantState(0.0, -5.0, 0.0, 0.0))
        with pytest.raises(UsageError):
            Scenario(PlantState(0.0, 5.0, 0.0, 0.0), mode="warp")
        with pytest.raises(UsageError):
            Scenario(PlantState(0.0, 5.0, 0.0, 0.0), max_steps=0)
        with pytest.raises(UsageError):
            Scenario(PlantState(200.0, 5.0, 0.0, 0.0))

    def test_step_budget_that_can_carry_y_past_the_float_range_rejected(self):
        huge = PlantParams(v=1e308, l_c=1e308, l_t=1e308)
        with pytest.raises(UsageError, match="must be finite"):
            Scenario(PlantState(0.0, 1.7e308, 180.0, 0.0), params=huge)
        # A budget too large to convert to a float is compared, not converted.
        with pytest.raises(UsageError, match="must be finite"):
            Scenario(PlantState(0.0, 5.0, 0.0, 0.0), max_steps=10**400)
        assert Scenario(PlantState(0.0, 5.0, 0.0, 0.0), max_steps=10**300).max_steps == 10**300

    @given(
        st.floats(-60, 60),
        st.floats(60, 150),
        st.floats(-90, 90),
        st.floats(-30, 30),
    )
    @settings(max_examples=25)
    def test_mirrored_runs_mirror(self, x, y, alpha, beta):
        straight = run(Scenario(PlantState(x, y, alpha, beta)))
        mirrored = run(Scenario(PlantState(-x, y, -alpha, -beta)))
        assert straight.outcome.kind == mirrored.outcome.kind
        assert straight.outcome.steps == mirrored.outcome.steps
        for a, b in zip(straight.samples, mirrored.samples):
            assert a.state.x == pytest.approx(-b.state.x, abs=1e-9)
            assert a.state.y == pytest.approx(b.state.y, abs=1e-9)

    # Starts near the centre line with room to manoeuvre: about two in five
    # dock, and about one docked run in six ends below y = 0.
    @given(
        st.floats(-30, 30),
        st.floats(30, 150),
        st.floats(-45, 45),
        st.floats(-30, 30),
        st.floats(0.5, 2.0),
        st.sampled_from(["cascade", "reference"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_docked_overshoot_stays_within_one_step(self, x, y, alpha, beta, v, mode):
        # dock_check has no lower bound on y. A live state has y > 0, since
        # y <= 0 ends the run, and one step backs the trailer at most v, so a
        # docked rig ends above -v.
        params = PlantParams(v=v)
        trajectory = run(
            Scenario(PlantState(x, y, alpha, beta), params=params, max_steps=400, mode=mode)
        )
        if trajectory.outcome.kind == DOCKED:
            assert trajectory.outcome.final_state.y > -params.v


class TestConvergenceMetric:
    def test_identical_trajectories_give_zero(self):
        t = run(Scenario(PlantState(10.0, 40.0, 5.0, 0.0)))
        report = convergence_metric(t, t)
        assert all(d == 0.0 for d in report.distances)
        assert report.tail_mean == 0.0

    def test_aligned_start_zero_in_both_modes(self):
        cascade, reference = run(Scenario(PlantState(0.0, 50.0, 0.0, 0.0), mode="both"))
        report = convergence_metric(cascade, reference)
        assert all(d == 0.0 for d in report.distances)

    def test_truncates_to_shorter(self):
        a = run(Scenario(PlantState(80.0, 180.0, 60.0, 30.0)))
        b = run(Scenario(PlantState(80.0, 180.0, 60.0, 30.0), max_steps=50))
        report = convergence_metric(a, b)
        assert len(report.distances) == len(b.samples)

    def test_tail_mean_is_last_ten(self):
        cascade, reference = run(Scenario(PlantState(-40.0, 170.0, 20.0, 15.0), mode="both"))
        report = convergence_metric(cascade, reference)
        expected = sum(report.distances[-10:]) / 10.0
        assert report.tail_mean == pytest.approx(expected)

    def test_different_starts_rejected(self):
        a = run(Scenario(PlantState(10.0, 40.0, 0.0, 0.0)))
        b = run(Scenario(PlantState(11.0, 40.0, 0.0, 0.0)))
        with pytest.raises(UsageError):
            convergence_metric(a, b)


class TestSweep:
    def test_single_cell_success(self):
        grid = SweepGrid(
            AxisSpec(-40.0, -40.0, 1), AxisSpec(170.0, 170.0, 1),
            AxisSpec(20.0, 20.0, 1), AxisSpec(15.0, 15.0, 1),
        )
        report = sweep(grid)
        assert report.success_ratio == 1.0
        assert report.cells[0].kind == DOCKED

    def test_no_room_grid_fails_everywhere(self):
        grid = SweepGrid(
            AxisSpec(30.0, 60.0, 2), AxisSpec(0.0, 0.0, 1),
            AxisSpec(0.0, 45.0, 2), AxisSpec(0.0, 0.0, 1),
        )
        report = sweep(grid)
        assert report.success_ratio == 0.0
        assert all(c.kind == INSUFFICIENT_SPACE for c in report.cells)

    def test_mirror_symmetric_grid_has_mirrored_outcomes(self):
        grid = SweepGrid(
            AxisSpec(-60.0, 60.0, 3), AxisSpec(80.0, 160.0, 2),
            AxisSpec(-40.0, 40.0, 3), AxisSpec(-20.0, 20.0, 3),
        )
        report = sweep(grid)
        by_start = {(c.x, c.y, c.alpha, c.beta): c for c in report.cells}
        for cell in report.cells:
            twin = by_start[(-cell.x, cell.y, -cell.alpha, -cell.beta)]
            assert twin.kind == cell.kind
            assert twin.steps == cell.steps

    def test_counts_partition_the_cells(self):
        grid = SweepGrid(
            AxisSpec(-80.0, 80.0, 3), AxisSpec(20.0, 170.0, 2),
            AxisSpec(0.0, 60.0, 2), AxisSpec(0.0, 0.0, 1),
        )
        report = sweep(grid)
        assert sum(report.counts.values()) == len(report.cells) == 12
        assert 0.0 <= report.success_ratio <= 1.0

    def test_invalid_cell_recorded_not_raised(self):
        # beta axis pokes past the jackknife limit: those cells are invalid
        # scenarios and must land as error outcomes.
        grid = SweepGrid(
            AxisSpec(0.0, 0.0, 1), AxisSpec(50.0, 50.0, 1),
            AxisSpec(0.0, 0.0, 1), AxisSpec(95.0, 95.0, 1),
        )
        report = sweep(grid)
        assert report.cells[0].kind == ERROR
        assert report.success_ratio == 0.0

    def test_step_budget_below_one_rejected_before_any_cell(self):
        grid = SweepGrid(
            AxisSpec(0.0, 0.0, 1), AxisSpec(50.0, 50.0, 1),
            AxisSpec(0.0, 0.0, 1), AxisSpec(0.0, 0.0, 1),
        )
        with pytest.raises(UsageError, match="max_steps"):
            sweep(grid, max_steps=0)

    def test_axis_validation(self):
        with pytest.raises(UsageError):
            AxisSpec(0.0, 1.0, 0)
        with pytest.raises(UsageError):
            AxisSpec(1.0, 0.0, 2)

    def test_axis_values(self):
        assert AxisSpec(5.0, 5.0, 1).values() == [5.0]
        assert AxisSpec(0.0, 10.0, 3).values() == [0.0, 5.0, 10.0]


class TestRecordsAreImmutable:
    @pytest.mark.parametrize(
        "record, field",
        [
            pytest.param(PlantState(0.0, 50.0, 0.0, 0.0), "x", id="PlantState"),
            pytest.param(CascadeOutput(1.0, 2.0, 3.0), "theta", id="CascadeOutput"),
            pytest.param(
                TrajectorySample(0, PlantState(0.0, 50.0, 0.0, 0.0), 1.0, 2.0, 3.0), "step",
                id="TrajectorySample",
            ),
        ],
    )
    def test_assigning_a_field_raises(self, record, field):
        with pytest.raises(AttributeError):
            setattr(record, field, 0.0)

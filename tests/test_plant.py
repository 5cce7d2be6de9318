"""Kinematics tests: update equations, constraints, classification."""

import math

import pytest
from hypothesis import given, strategies as st

from fuzzydock.errors import InputDomainError, UsageError
from fuzzydock.plant import (
    DOCKED,
    INSUFFICIENT_SPACE,
    JACKKNIFE_LIMIT,
    JACKKNIFED,
    LIVE,
    OUT_OF_BOUNDS,
    TIMEOUT,
    DockTolerance,
    PlantParams,
    PlantState,
    classify,
    dock_check,
    step,
    step_reference,
    wrap_angle,
)

YARD = PlantParams()  # v=1, l_c=2, l_t=8 defaults

angles = st.floats(-180, 180)
small_angles = st.floats(-30, 30)


class TestWrap:
    def test_interval_is_half_open(self):
        assert wrap_angle(180.0) == 180.0
        assert wrap_angle(-180.0) == 180.0
        assert wrap_angle(181.0) == pytest.approx(-179.0)
        assert wrap_angle(540.0) == 180.0

    @given(st.floats(-1e4, 1e4))
    def test_always_lands_in_interval(self, a):
        w = wrap_angle(a)
        assert -180.0 < w <= 180.0


class TestStep:
    def test_straight_backing_is_exact(self):
        s = step(PlantState(0.0, 10.0, 0.0, 0.0), 0.0, YARD)
        assert s == PlantState(0.0, 9.0, 0.0, 0.0)

    def test_steering_changes_cab_angle_only_slightly_slows_descent(self):
        s = step(PlantState(0.0, 10.0, 0.0, 0.0), 30.0, YARD)
        assert s.beta == pytest.approx(math.degrees(math.asin(0.25)))
        assert s.x == 0.0
        assert s.alpha == 0.0
        # The cab loses ground speed while steering: y drops by cos(30),
        # not by the full step.
        assert s.y == pytest.approx(10.0 - math.cos(math.radians(30.0)))

    def test_bent_rig_rotates_trailer(self):
        s = step(PlantState(0.0, 100.0, 0.0, 30.0), 0.0, YARD)
        assert s.alpha == pytest.approx(math.degrees(math.asin(0.0625)), abs=1e-4)
        assert s.y == pytest.approx(100.0 - math.cos(math.radians(30.0)), abs=1e-4)
        assert s.x == 0.0

    def test_oversteer_rejected(self):
        with pytest.raises(UsageError):
            step(PlantState(0.0, 10.0, 0.0, 0.0), 31.0, YARD)

    def test_non_finite_rejected(self):
        with pytest.raises(InputDomainError):
            step(PlantState(float("nan"), 10.0, 0.0, 0.0), 0.0, YARD)
        with pytest.raises(InputDomainError):
            step(PlantState(0.0, 10.0, 0.0, 0.0), float("nan"), YARD)

    @given(angles, small_angles, small_angles)
    def test_displacement_bounded_by_speed(self, alpha, beta, theta):
        before = PlantState(5.0, 50.0, alpha, beta)
        after = step(before, theta, YARD)
        moved = math.hypot(after.x - before.x, after.y - before.y)
        assert moved <= YARD.v + 1e-12

    @given(angles, small_angles, small_angles)
    def test_mirror_symmetry(self, alpha, beta, theta):
        straight = step(PlantState(7.0, 60.0, alpha, beta), theta, YARD)
        mirrored = step(PlantState(-7.0, 60.0, -alpha, -beta), -theta, YARD)
        assert mirrored.x == pytest.approx(-straight.x, abs=1e-9)
        assert mirrored.y == pytest.approx(straight.y, abs=1e-9)
        # Headings compare modulo 360: -180 and 180 are the same direction.
        assert abs(wrap_angle(mirrored.alpha + straight.alpha)) <= 1e-9
        assert mirrored.beta == pytest.approx(-straight.beta, abs=1e-9)

    @given(st.floats(-1000, 1000), st.floats(1, 1000), angles, small_angles, small_angles)
    def test_alpha_stays_wrapped(self, x, y, alpha, beta, theta):
        after = step(PlantState(x, y, alpha, beta), theta, YARD)
        assert -180.0 < after.alpha <= 180.0

    def test_operating_clamp_keeps_cab_angle_in_range(self):
        s = PlantState(0.0, 50.0, 0.0, 29.0)
        after = step(s, 30.0, YARD)
        assert after.beta == YARD.beta_max

    def test_jackknife_stays_visible_past_the_clamp(self):
        # Near the abort threshold the raw cab angle must come through so the
        # classifier can see it; the operating clamp would mask the fault.
        params = PlantParams(beta_max=90.0)
        after = step(PlantState(0.0, 50.0, 0.0, 85.0), 30.0, params)
        assert after.beta > JACKKNIFE_LIMIT


class TestStepReference:
    def test_assignment_contract(self):
        after = step_reference(PlantState(3.0, 40.0, 10.0, 5.0), 17.0, YARD)
        assert after.beta == 17.0

    def test_keeping_current_angle_matches_zero_steer_step(self):
        before = PlantState(3.0, 40.0, 10.0, 5.0)
        assert step_reference(before, before.beta, YARD) == step(before, 0.0, YARD)

    def test_straight_backing(self):
        after = step_reference(PlantState(0.0, 10.0, 0.0, 0.0), 0.0, YARD)
        assert after == PlantState(0.0, 9.0, 0.0, 0.0)

    def test_command_out_of_range_rejected(self):
        with pytest.raises(UsageError):
            step_reference(PlantState(0.0, 10.0, 0.0, 0.0), 31.0, YARD)

    @given(angles, small_angles, small_angles)
    def test_mirror_symmetry(self, alpha, beta, command):
        straight = step_reference(PlantState(7.0, 60.0, alpha, beta), command, YARD)
        mirrored = step_reference(PlantState(-7.0, 60.0, -alpha, -beta), -command, YARD)
        assert mirrored.x == pytest.approx(-straight.x, abs=1e-9)
        assert mirrored.y == pytest.approx(straight.y, abs=1e-9)
        # Headings compare modulo 360: -180 and 180 are the same direction.
        assert abs(wrap_angle(mirrored.alpha + straight.alpha)) <= 1e-9
        assert mirrored.beta == pytest.approx(-straight.beta, abs=1e-9)


class TestDockCheck:
    def test_exact_objective(self):
        assert dock_check(PlantState(0.0, 0.0, 0.0, 0.0))

    def test_x_tolerance_binds(self):
        assert not dock_check(PlantState(5.0, 0.0, 0.0, 0.0))

    def test_all_within_defaults(self):
        assert dock_check(PlantState(1.9, 0.5, -9.0, 0.0))

    def test_custom_tolerance(self):
        tol = DockTolerance(x_tol=0.5, alpha_tol=2.0, y_tol=0.1)
        assert not dock_check(PlantState(1.0, 0.05, 0.0, 0.0), tol)
        assert dock_check(PlantState(0.4, 0.05, -1.0, 0.0), tol)


class TestClassify:
    def test_docked_wins(self):
        assert classify(PlantState(0.5, 0.2, 2.0, 0.0), 0) == DOCKED

    def test_crossing_dock_line_misaligned(self):
        assert classify(PlantState(40.0, -0.3, 50.0, 0.0), 10) == INSUFFICIENT_SPACE

    def test_jackknife_beats_space(self):
        assert classify(PlantState(40.0, -0.3, 50.0, 95.0), 10) == JACKKNIFED

    def test_out_of_bounds(self):
        assert classify(PlantState(301.0, 50.0, 0.0, 0.0), 10) == OUT_OF_BOUNDS

    def test_timeout(self):
        assert classify(PlantState(40.0, 80.0, 0.0, 0.0), 1000) == TIMEOUT

    def test_live(self):
        assert classify(PlantState(40.0, 80.0, 0.0, 0.0), 999) == LIVE


class TestParams:
    def test_rejects_nonpositive_lengths(self):
        with pytest.raises(UsageError):
            PlantParams(v=0.0)
        with pytest.raises(UsageError):
            PlantParams(l_c=-1.0)

    def test_rejects_bad_angle_limits(self):
        with pytest.raises(UsageError):
            PlantParams(theta_max=0.0)
        with pytest.raises(UsageError):
            PlantParams(beta_max=100.0)

    def test_rejects_speed_above_shortest_length(self):
        # One step may not back further than either body is long; v > l_c
        # would push the cab-angle asin argument past 1.
        with pytest.raises(UsageError):
            PlantParams(v=5.0, l_c=2.0)
        with pytest.raises(UsageError):
            PlantParams(v=9.0, l_c=10.0, l_t=8.0)
        PlantParams(v=2.0, l_c=2.0, l_t=2.0)

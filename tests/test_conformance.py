"""Conformance: every step that ``run`` logs is a step of the independent
evaluator in ``bench/reference.py``.

Each draw picks plant parameters over their whole valid ranges, tolerances,
a step budget, a start inside ``Scenario``'s envelope, the mode, and the
bundled controller document or a seeded wide-overlap copy of it. For every
logged sample:

* ``ref.classify`` calls it ``live``, or the outcome kind at the last one;
* ``ref.Controllers.cascade`` gives the logged beta', gamma and theta
  (theta is 0 in reference mode);
* the next logged state is ``ref.step`` of the clamped theta, or
  ``ref.step_reference`` of the clamped beta';
* every value is finite.

Each step is replayed from the logged state, so rounding cannot build up
through the loop into a false mismatch.
"""

import json
import math
import random
import sys
from pathlib import Path

from hypothesis import assume, given, settings, strategies as st

from fuzzydock.controllers import bundled_controllers_path, controllers_from_dict
from fuzzydock.errors import UsageError
from fuzzydock.plant import JACKKNIFE_LIMIT, DockTolerance, PlantParams, PlantState
from fuzzydock.simulation import MODES, Scenario, run

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import reference as ref  # noqa: E402
import workloads  # noqa: E402

BUNDLED = json.loads(bundled_controllers_path().read_text("utf-8"))
BUNDLED_PAIR = (controllers_from_dict(BUNDLED), ref.Controllers(BUNDLED))

POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
NON_NEGATIVE = st.floats(min_value=0.0, allow_infinity=False)
# Lengths and distances where one step can carry y past the float range.
FAR = st.floats(min_value=sys.float_info.max / 2, allow_infinity=False)
DEGREES_UP_TO_90 = st.floats(min_value=0.0, max_value=90.0, exclude_min=True)


@st.composite
def scenarios(draw, lengths=POSITIVE, distances=NON_NEGATIVE):
    l_c, l_t = draw(lengths), draw(lengths)
    v = draw(st.floats(min_value=0.0, max_value=min(l_c, l_t), exclude_min=True))
    params = PlantParams(v, l_c, l_t, draw(DEGREES_UP_TO_90), draw(DEGREES_UP_TO_90))
    tolerances = DockTolerance(draw(NON_NEGATIVE), draw(NON_NEGATIVE), draw(NON_NEGATIVE))
    start = PlantState(
        draw(st.floats(-100.0, 100.0)),
        draw(distances),
        draw(st.floats(-180.0, 180.0)),
        draw(st.floats(-JACKKNIFE_LIMIT, JACKKNIFE_LIMIT)),
    )
    max_steps = draw(st.integers(1, 400))
    try:
        return Scenario(start, params, tolerances, max_steps, draw(st.sampled_from(MODES)))
    except UsageError as exc:
        # The one bound the draws above do not meet by construction.
        assert "2 * max_steps * v must be finite" in str(exc), exc
        assume(False)


def controller_pairs():
    """(program set, reference evaluator) of the bundled document or of a
    seeded wide-overlap copy of it."""
    def widened(seed):
        doc = workloads.widen(BUNDLED, random.Random(seed))
        return controllers_from_dict(doc), ref.Controllers(doc)

    return st.just(BUNDLED_PAIR) | st.integers().map(widened)


def assert_conforms(trajectory, scenario, reference):
    p = scenario.params
    params = {"v": p.v, "l_c": p.l_c, "l_t": p.l_t, "theta_max": p.theta_max, "beta_max": p.beta_max}
    tol = scenario.tolerances
    tolerances = {"x_tol": tol.x_tol, "y_tol": tol.y_tol, "alpha_tol": tol.alpha_tol}
    samples = trajectory.samples
    last = len(samples) - 1
    assert trajectory.outcome.steps == last
    assert trajectory.outcome.final_state == samples[-1].state
    for i, (t, state, beta_prime, gamma, theta) in enumerate(samples):
        at = f"[{trajectory.mode}] step {i}"
        assert t == i
        logged = (*state, beta_prime, gamma, theta)
        assert all(math.isfinite(v) for v in logged), (at, logged)
        kind = ref.classify(state, i, tolerances, scenario.max_steps)
        assert kind == (trajectory.outcome.kind if i == last else ref.LIVE), (at, kind)
        want = reference.cascade(state.x, state.alpha, state.beta)
        if trajectory.mode == "reference":
            want = (*want[:2], 0.0)
        assert all(map(ref.close, (beta_prime, gamma, theta), want)), (at, logged, want)
        if i == last:
            break
        if trajectory.mode == "cascade":
            nxt = ref.step(state, min(max(theta, -p.theta_max), p.theta_max), params)
        else:
            nxt = ref.step_reference(state, min(max(beta_prime, -p.beta_max), p.beta_max), params)
        got = samples[i + 1].state
        ok = (ref.close(got.x, nxt[0]) and ref.close(got.y, nxt[1])
              and ref.angle_close(got.alpha, nxt[2]) and ref.close(got.beta, nxt[3]))
        assert ok, (at, got, nxt)


@settings(max_examples=100)
@given(scenario=scenarios(), pair=controller_pairs())
def test_every_logged_step_is_a_reference_step(scenario, pair):
    controllers, reference = pair
    result = run(scenario, controllers)
    for trajectory in result if scenario.mode == "both" else (result,):
        assert_conforms(trajectory, scenario, reference)


@settings(max_examples=50)
@given(scenario=scenarios(FAR, FAR))
def test_far_end_of_the_float_range_conforms(scenario):
    # The draws above seldom pair a y this large with a step this long.
    result = run(scenario, BUNDLED_PAIR[0])
    for trajectory in result if scenario.mode == "both" else (result,):
        assert_conforms(trajectory, scenario, BUNDLED_PAIR[1])

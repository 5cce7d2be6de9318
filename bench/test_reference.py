"""Hand-computed checks of the reference evaluator.

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

from __future__ import annotations

import json
import unittest
from pathlib import Path

import reference as ref

BUNDLED = Path(__file__).resolve().parent.parent / "src" / "fuzzydock" / "data" / "controllers.json"
PARAMS = {"v": 1.0, "l_c": 2.0, "l_t": 8.0, "theta_max": 30.0, "beta_max": 30.0}
TOL = {"x_tol": 2.0, "y_tol": 1.0, "alpha_tol": 10.0}


def variable(name, universe, *terms):
    return {"name": name, "universe": list(universe),
            "terms": [{"label": label, "kind": kind, "breakpoints": list(bps)}
                      for label, kind, bps in terms]}


def single_rule(consequent_term, universe):
    """A one-input, one-rule base whose rule fires with weight 1 everywhere."""
    return ref.RuleBase({
        "antecedents": [variable("U", (0, 1), ("ALL", "left-shoulder", (1, 1.5)))],
        "consequent": variable("Y", universe, ("OUT", *consequent_term)),
        "rules": [{"when": ["ALL"], "then": "OUT"}],
    })


class MembershipTest(unittest.TestCase):
    def test_triangle_interpolates_and_clamps(self):
        tri = ref._polyline("triangular", (0, 10, 30), -10, 40)
        self.assertEqual(ref.interpolate(tri, 5), 0.5)
        self.assertEqual(ref.interpolate(tri, 10), 1.0)
        self.assertEqual(ref.interpolate(tri, 20), 0.5)
        self.assertEqual(ref.interpolate(tri, 35), 0.0)
        self.assertEqual(ref.interpolate(tri, -99), 0.0)

    def test_shoulders_hold_their_plateau_to_the_bound(self):
        left = ref._polyline("left-shoulder", (-20, -10), -30, 30)
        self.assertEqual(ref.interpolate(left, -30), 1.0)
        self.assertEqual(ref.interpolate(left, -15), 0.5)
        self.assertEqual(ref.interpolate(left, 0), 0.0)
        right = ref._polyline("right-shoulder", (10, 20), -30, 30)
        self.assertEqual(ref.interpolate(right, 15), 0.5)
        self.assertEqual(ref.interpolate(right, 99), 1.0)


class CentroidTest(unittest.TestCase):
    def test_right_shoulder_on_bounded_universe(self):
        # Ramp 0..10 (area 5, centroid 20/3) plus plateau 10..20 (area 10,
        # centroid 15): (5 * 20/3 + 10 * 15) / 15 = 110/9.
        rb = single_rule(("right-shoulder", (0, 10)), (-10, 20))
        value, fired = rb.infer({"U": 0.5})
        self.assertAlmostEqual(value, 110 / 9, places=12)
        self.assertEqual(fired, 1)

    def test_left_shoulder_mirrors(self):
        rb = single_rule(("left-shoulder", (-10, 0)), (-20, 10))
        self.assertAlmostEqual(rb.infer({"U": 0.5})[0], -110 / 9, places=12)

    def test_triangle_centroid_is_mean_of_vertices(self):
        rb = single_rule(("triangular", (0, 3, 9)), (-10, 10))
        self.assertAlmostEqual(rb.infer({"U": 0.5})[0], 4.0, places=12)


class BundledControllersTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.cs = ref.Controllers(json.loads(BUNDLED.read_text("utf-8")))

    def test_zero_mismatch_steers_straight(self):
        self.assertEqual(self.cs.flc_c(0.0), 0.0)

    def test_centred_aligned_trailer_commands_nothing(self):
        self.assertEqual(self.cs.flc_t(0.0, 0.0), 0.0)

    def test_flc_c_is_odd(self):
        for g in (3.0, 7.5, 25.0):
            self.assertAlmostEqual(self.cs.flc_c(-g), -self.cs.flc_c(g), places=12)

    def test_four_rules_fire_between_peaks(self):
        # A = 10 and X = 20 each sit between two peaks of a 50%-overlap
        # partition, so exactly 2 x 2 of the 35 rules fire.
        self.assertEqual(self.cs.t.infer({"A": 10.0, "X": 20.0})[1], 4)


class KinematicsTest(unittest.TestCase):
    def test_straight_backing_loses_one_unit_of_y_per_step(self):
        state = (5.0, 50.0, 0.0, 0.0)
        for t in range(1, 41):
            state = ref.step(state, 0.0, PARAMS)
            self.assertEqual(state, (5.0, 50.0 - t, 0.0, 0.0))

    def test_cab_angle_clamps_at_beta_max(self):
        state = (0.0, 50.0, 0.0, 29.0)
        self.assertEqual(ref.step(state, 30.0, PARAMS)[3], 30.0)

    def test_reference_step_sets_the_commanded_cab_angle(self):
        self.assertEqual(ref.step_reference((0.0, 50.0, 0.0, 0.0), 12.5, PARAMS), (0.0, 49.0, 0.0, 12.5))

    def test_wrap_is_half_open(self):
        self.assertEqual(ref.wrap(-180.0), 180.0)
        self.assertEqual(ref.wrap(180.0), 180.0)
        self.assertEqual(ref.wrap(190.0), -170.0)
        self.assertTrue(ref.angle_close(-180.0, 180.0))


class PredicateTest(unittest.TestCase):
    def test_priority(self):
        self.assertEqual(ref.classify((0.0, -1.0, 0.0, 0.0), 3, TOL, 10), "docked")
        self.assertEqual(ref.classify((50.0, -1.0, 0.0, 95.0), 3, TOL, 10), "jackknifed")
        self.assertEqual(ref.classify((50.0, 0.0, 0.0, 0.0), 3, TOL, 10), "insufficient-space")
        self.assertEqual(ref.classify((301.0, 5.0, 0.0, 0.0), 3, TOL, 10), "out-of-bounds")
        self.assertEqual(ref.classify((50.0, 5.0, 0.0, 0.0), 10, TOL, 10), "timeout")
        self.assertEqual(ref.classify((50.0, 5.0, 0.0, 0.0), 9, TOL, 10), ref.LIVE)

    def test_straight_approach_docks_when_y_reaches_tolerance(self):
        self.assertEqual(ref.simulate(_NoSteering(), (0.0, 10.0, 0.0, 0.0), PARAMS, TOL, 100), ("docked", 9))


class _NoSteering:
    def cascade(self, x, alpha, beta):
        return 0.0, 0.0, 0.0


if __name__ == "__main__":
    unittest.main()

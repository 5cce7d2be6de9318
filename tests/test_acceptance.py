"""Acceptance gate: the eight shipped guarantees, one test per criterion.

Each test prints one verdict line straight to the real stderr so the
verdicts survive pytest's capture, then asserts. Tolerances are pinned
here and nowhere else; loosening one is a contract change, not a fix.
"""

import json
import math
import random
import sys
import time
from pathlib import Path

import pytest

import oracle
from fuzzydock.cli import main
from fuzzydock.controllers import default_controllers, flc_c, flc_t
from fuzzydock.fuzzy import eval_membership
from fuzzydock.plant import DOCKED, INSUFFICIENT_SPACE, PlantParams, PlantState, step
from fuzzydock.simulation import AxisSpec, Scenario, SweepGrid, convergence_metric, run, sweep

CASES = (
    ("right_far", PlantState(80.0, 180.0, 60.0, 30.0)),
    ("left_high", PlantState(-40.0, 170.0, 20.0, 15.0)),
    ("left_low", PlantState(-60.0, 120.0, 30.0, 0.0)),
)


def verdict(capfd, n: int, name: str, ok: bool, detail: str) -> str:
    line = f"[ACCEPTANCE] criterion {n} ({name}): {'PASS' if ok else 'FAIL'} {detail}"
    # Bypass pytest's fd-level capture so every verdict reaches the terminal,
    # not just the failing ones.
    with capfd.disabled():
        print(line, file=sys.stderr, flush=True)
    return line


@pytest.fixture(scope="module")
def case_runs():
    return {
        label: run(Scenario(initial, mode="both", label=label))
        for label, initial in CASES
    }


def test_criterion_1_bundled_cases_dock(case_runs, capfd):
    default_controllers()  # build outside the timed section
    t0 = time.perf_counter()
    outcomes = {
        label: run(Scenario(initial, label=label)).outcome for label, initial in CASES
    }
    elapsed = time.perf_counter() - t0
    ok = (
        all(o.kind == DOCKED and o.steps <= 1000 for o in outcomes.values())
        and elapsed < 1.0
    )
    detail = ", ".join(f"{label} {o.kind}@{o.steps}" for label, o in outcomes.items())
    line = verdict(capfd, 1, "bundled-case docking", ok, f"{detail}; {elapsed * 1e3:.0f} ms")
    assert ok, line


def test_criterion_2_dual_mode_convergence(case_runs, capfd):
    # Tail mean of the mode-to-mode distance over the last 10% of steps must
    # drop strictly below its maximum over the first 10% (after step 5).
    details = []
    ok = True
    for label, _ in CASES:
        cascade, reference = case_runs[label]
        d = convergence_metric(cascade, reference).distances
        window = math.ceil(0.1 * len(d))
        head = max(d[6:window])
        tail = sum(d[-window:]) / window
        good = tail < head
        ok = ok and good
        details.append(
            f"{label} head_max={head:.4f} tail_mean={tail:.4f}"
            f" {'ok' if good else 'VIOLATED'}"
        )
    line = verdict(capfd, 2, "dual-mode convergence", ok, "; ".join(details))
    assert ok, line


def test_criterion_3_oracle_equivalence(capfd):
    cs = default_controllers()
    rng = random.Random(20260815)
    worst = 0.0
    for _ in range(1000):
        x, alpha = rng.uniform(-100, 100), rng.uniform(-180, 180)
        got = flc_t(x, alpha, cs)
        want = oracle.infer(cs.flc_t, [alpha, x])
        worst = max(worst, abs(got - want) / max(1e-6 * abs(want), 1e-7))
    for _ in range(1000):
        gamma = rng.uniform(-60, 60)
        got = flc_c(gamma, cs)
        want = oracle.infer(cs.flc_c, [gamma])
        worst = max(worst, abs(got - want) / max(1e-6 * abs(want), 1e-7))
    ok = worst <= 1.0
    line = verdict(
        capfd, 3, "inference-oracle equivalence", ok,
        f"2000 points, worst error {worst:.3f}x the 1e-6 rel / 1e-7 abs bound",
    )
    assert ok, line


EXPECTED_T = {
    ("LB", "LE"): "PS", ("LB", "LC"): "PM", ("LB", "CE"): "NS",
    ("LB", "RC"): "NM", ("LB", "RI"): "NB",
    ("LU", "LE"): "NS", ("LU", "LC"): "PS", ("LU", "CE"): "PM",
    ("LU", "RC"): "PB", ("LU", "RI"): "PB",
    ("LV", "LE"): "NS", ("LV", "LC"): "NS", ("LV", "CE"): "PS",
    ("LV", "RC"): "PM", ("LV", "RI"): "PB",
    ("VE", "LE"): "NM", ("VE", "LC"): "NS", ("VE", "CE"): "ZE",
    ("VE", "RC"): "PS", ("VE", "RI"): "PM",
    ("RV", "LE"): "NB", ("RV", "LC"): "NM", ("RV", "CE"): "NS",
    ("RV", "RC"): "PS", ("RV", "RI"): "PS",
    ("RU", "LE"): "NB", ("RU", "LC"): "NB", ("RU", "CE"): "NM",
    ("RU", "RC"): "NS", ("RU", "RI"): "PS",
    ("RB", "LE"): "PB", ("RB", "LC"): "PM", ("RB", "CE"): "PS",
    ("RB", "RC"): "NM", ("RB", "RI"): "NS",
}

EXPECTED_C = {k: k for k in ("NB", "NM", "NS", "ZE", "PS", "PM", "PB")}


def test_criterion_4_rule_table_fidelity(capfd):
    cs = default_controllers()
    got_t = {key: then for key, then in cs.flc_t.rules}
    got_c = {key[0]: then for key, then in cs.flc_c.rules}
    mismatches = [k for k, v in EXPECTED_T.items() if got_t.get(k) != v]
    mismatches += [k for k, v in EXPECTED_C.items() if got_c.get(k) != v]
    ok = not mismatches and len(got_t) == 35 and len(got_c) == 7
    line = verdict(
        capfd, 4, "rule-table fidelity", ok,
        f"{len(got_t)}+{len(got_c)} rules, {len(mismatches)} mismatches",
    )
    assert ok, line


def test_criterion_5_symmetry_suite(capfd):
    cs = default_controllers()
    rng = random.Random(7)
    worst_t = worst_c = worst_p = 0.0
    for _ in range(200):
        x, alpha = rng.uniform(-120, 120), rng.uniform(-200, 200)
        worst_t = max(worst_t, abs(flc_t(x, alpha, cs) + flc_t(-x, -alpha, cs)))
        gamma = rng.uniform(-70, 70)
        worst_c = max(worst_c, abs(flc_c(gamma, cs) + flc_c(-gamma, cs)))
    for _ in range(200):
        s = PlantState(
            rng.uniform(-100, 100), rng.uniform(0, 200),
            rng.uniform(-90, 90), rng.uniform(-30, 30),
        )
        theta = rng.uniform(-30, 30)
        p = step(s, theta)
        q = step(PlantState(-s.x, s.y, -s.alpha, -s.beta), -theta)
        worst_p = max(
            worst_p, abs(p.x + q.x), abs(p.y - q.y),
            abs(p.alpha + q.alpha), abs(p.beta + q.beta),
        )
    # Sweep equivariance: reflecting a grid (negating the x, alpha, beta
    # axes) must reflect the report. Axis values of the reflected grid can
    # sit an ulp off the exact negation, so twins are matched by index:
    # reversing an axis reverses that axis's enumeration order.
    def axis(lo_hi, n):
        lo, hi = sorted(lo_hi)
        return AxisSpec(lo, hi, n)

    shape = (5, 2, 5, 2)  # 100 cells per grid; the pair gives the 200 samples
    grid = SweepGrid(
        axis((rng.uniform(-90, 90), rng.uniform(-90, 90)), shape[0]),
        axis((rng.uniform(60, 130), rng.uniform(140, 190)), shape[1]),
        axis((rng.uniform(-80, 80), rng.uniform(-80, 80)), shape[2]),
        axis((rng.uniform(-28, 28), rng.uniform(-28, 28)), shape[3]),
    )
    reflected = SweepGrid(
        AxisSpec(-grid.x.max, -grid.x.min, shape[0]),
        grid.y,
        AxisSpec(-grid.alpha.max, -grid.alpha.min, shape[2]),
        AxisSpec(-grid.beta.max, -grid.beta.min, shape[3]),
    )
    a_report, b_report = sweep(grid), sweep(reflected)
    sweep_err = abs(a_report.success_ratio - b_report.success_ratio)
    pair_mismatches = 0
    nx, ny, na, nb = shape
    for i, cell in enumerate(a_report.cells):
        ib = i % nb
        ia = i // nb % na
        iy = i // (nb * na) % ny
        ix = i // (nb * na * ny)
        j = ((nx - 1 - ix) * ny + iy) * na * nb + (na - 1 - ia) * nb + (nb - 1 - ib)
        twin = b_report.cells[j]
        sweep_err = max(
            sweep_err, abs(twin.x + cell.x), abs(twin.y - cell.y),
            abs(twin.alpha + cell.alpha), abs(twin.beta + cell.beta),
        )
        if (twin.kind, twin.steps) != (cell.kind, cell.steps):
            pair_mismatches += 1
    ok = (
        worst_t <= 1e-9 and worst_c <= 1e-9 and worst_p <= 1e-9
        and sweep_err <= 1e-9 and pair_mismatches == 0
    )
    line = verdict(
        capfd, 5, "symmetry suite", ok,
        f"controller {max(worst_t, worst_c):.2e}, plant {worst_p:.2e}, "
        f"sweep ratio {sweep_err:.2e}, {pair_mismatches} mirrored-cell mismatches",
    )
    assert ok, line


def test_criterion_6_kinematic_invariants(case_runs, capfd):
    params = PlantParams()
    checked = 0
    ok = True
    for cascade, reference in case_runs.values():
        for trajectory in (cascade, reference):
            for s in trajectory.samples[:-1]:
                d_c = -params.v * math.cos(math.radians(s.theta))
                d_t = d_c * math.cos(math.radians(s.state.beta))
                arg_alpha = d_c * math.sin(math.radians(s.state.beta)) / params.l_t
                arg_beta = -params.v * math.sin(math.radians(s.theta)) / params.l_c
                ok = ok and abs(d_t) <= abs(d_c) <= params.v
                ok = ok and abs(arg_alpha) < 1.0 and abs(arg_beta) < 1.0
                checked += 1
    straight = run(Scenario(PlantState(0.0, 50.0, 0.0, 0.0)))
    exact = all(
        s.state == PlantState(0.0, 50.0 - s.step, 0.0, 0.0)
        for s in straight.samples
    )
    ok = ok and exact and straight.outcome.steps == 49
    line = verdict(
        capfd, 6, "kinematic invariants", ok,
        f"{checked} steps checked, straight-backing closed form "
        f"{'exact' if exact else 'violated'}",
    )
    assert ok, line


def test_criterion_7_insufficient_space(tmp_path, capfd):
    # Bisect the start height downward from a docking case until the runway
    # is too short, then confirm the CLI reports it with exit code 2.
    def kind_at(y: float) -> str:
        return run(Scenario(PlantState(80.0, y, 60.0, 30.0))).outcome.kind

    lo, hi = 0.0, 180.0
    while hi - lo > 1.0:
        mid = (lo + hi) / 2.0
        if kind_at(mid) == DOCKED:
            hi = mid
        else:
            lo = mid
    failing_kind = kind_at(lo)

    doc = {
        "label": "short_runway",
        "initial": {"x": 80.0, "y": lo, "alpha_deg": 60.0, "beta_deg": 30.0},
        "max_steps": 1000,
        "mode": "cascade",
    }
    path = tmp_path / "short_runway.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["run", "--scenario", str(path), "--out", str(tmp_path)])

    ok = failing_kind == INSUFFICIENT_SPACE and code == 2
    line = verdict(
        capfd, 7, "insufficient-space handling", ok,
        f"y={lo:.2f} -> {failing_kind}, exit code {code} (docks again at y={hi:.2f})",
    )
    assert ok, line


def test_criterion_8_partition_of_unity(capfd):
    cs = default_controllers()
    variables = (
        cs.flc_t.antecedents[0], cs.flc_t.antecedents[1], cs.flc_t.consequent,
        cs.flc_c.antecedents[0], cs.flc_c.consequent,
    )
    worst = 0.0
    for var in variables:
        lo, hi = var.universe
        for i in range(10_001):
            u = lo + (hi - lo) * i / 10_000
            total = sum(eval_membership(mf, u) for _, mf in var.terms)
            worst = max(worst, abs(total - 1.0))
    ok = worst <= 1e-9
    line = verdict(
        capfd, 8, "partition of unity", ok,
        f"{len(variables)} variables x 10001 samples, worst deviation {worst:.2e}",
    )
    assert ok, line

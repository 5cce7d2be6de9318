"""Machine-speed calibration for the timed runs.

On a shared host the speed a process gets drifts with other tenants' load.
On the 2-core machine this benchmark was built on, the same surface round
ran anywhere from 27,000 to 53,000 points per second within five minutes,
and a fixed pure-Python kernel slowed down in step with it. Wall times that
move with the host say little about the program. So every timed invocation
is bracketed by runs of a fixed kernel that shares no code with the program,
and its time is rescaled to a machine on which the kernel takes
``REFERENCE_KERNEL_S``:

    reference seconds = wall seconds * REFERENCE_KERNEL_S / kernel seconds

where kernel seconds is the mean of the kernel runs just before and just
after the invocation. Over ten seeds, the spread of throughput
(interquartile range over median) was 27% on sweep and 30% on surface_wide
in wall seconds, and 5% and 1.3% in reference seconds.

The kernel is the reference evaluator's Mamdani inference on a synthetic
35-rule base defined here, so it exercises the same kind of interpreter work
(float arithmetic, calls, dict and list traffic) as the program while
depending on none of its files.
"""

from __future__ import annotations

import time

import reference as ref

# Kernel time on the machine the reference figures in README.md come from,
# in its faster state. Any constant works for comparisons between commits;
# this one keeps reference seconds close to wall seconds there.
REFERENCE_KERNEL_S = 0.0015
KERNEL_REPEATS = 3


def _variable(name: str, n: int, lo: float, hi: float) -> dict:
    p = [lo + (hi - lo) * i / (n - 1) for i in range(n)]
    shapes = ([("left-shoulder", p[:2])] + [("triangular", p[i - 1:i + 2]) for i in range(1, n - 1)]
              + [("right-shoulder", p[-2:])])
    return {"name": name, "universe": [lo, hi],
            "terms": [{"label": f"{name}{i}", "kind": k, "breakpoints": b} for i, (k, b) in enumerate(shapes)]}


_RULES = ref.RuleBase({
    "antecedents": [_variable("A", 7, -180.0, 180.0), _variable("X", 5, -100.0, 100.0)],
    "consequent": _variable("B", 7, -30.0, 30.0),
    "rules": [{"when": [f"A{i}", f"X{j}"], "then": f"B{(i + j) % 7}"} for i in range(7) for j in range(5)],
})
_POINTS = [{"A": -180.0 + 360.0 * i / 39, "X": -100.0 + 200.0 * ((7 * i) % 40) / 39} for i in range(40)]


def kernel_seconds() -> float:
    """Fastest of a few runs of the fixed kernel, so one interrupt does not
    count as a slow machine."""
    best = float("inf")
    for _ in range(KERNEL_REPEATS):
        t0 = time.perf_counter()
        for point in _POINTS:
            _RULES.infer(point)
        best = min(best, time.perf_counter() - t0)
    return best


def to_reference(wall_s: float, kernel_before: float, kernel_after: float) -> float:
    return wall_s * REFERENCE_KERNEL_S * 2.0 / (kernel_before + kernel_after)

"""fuzzydock benchmark: end-to-end and per-layer timings of the three CLI verbs.

    python3 bench/run.py --workload sweep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all                   # every workload once
    python3 bench/run.py --workload all --repeat 10       # medians and quartiles
    python3 bench/run.py --digest --seed 1                # artifact SHA-256 per workload

Run from the root of a source checkout; the program is imported from its
``src`` directory. Load is a closed loop from this one process and thread:
each ``fuzzydock.cli.main`` invocation starts after the previous one returns.
A run makes one untimed warm-up round, then whole rounds until the timed
invocations add up to ``--seconds``. Every invocation's output is checked
against the independent evaluator in ``reference.py`` outside the timed
region. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import kernel_seconds, to_reference
from tracing import Tracer, per_layer
from workloads import WORKLOADS, CheckFailed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_CHILDREN = 15
# Whole rounds stop being started after this much wall time, so a run ends
# well inside its time limit even on a slow machine.
WALL_LIMIT_S = 140.0

# A fresh interpreter imports the CLI and builds or loads the controller set;
# the clock starts at its first statement, so interpreter start-up is left out.
SETUP_CODE = """\
import time
t0 = time.perf_counter()
import sys
sys.path.insert(0, sys.argv[1])
import fuzzydock.cli
from fuzzydock.controllers import default_controllers, load_controllers
cs = load_controllers(sys.argv[2]) if len(sys.argv) > 2 else default_controllers()
print(time.perf_counter() - t0)
"""

E2E_UNITS = {
    "setup_s": "s", "work_per_s": "1/s", "cli_ms_p50": "ms", "peak_rss_mib": "MiB",
}


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def locate_program() -> None:
    if not (ROOT / "src" / "fuzzydock" / "__init__.py").is_file():
        fail(f"no fuzzydock source under {ROOT / 'src'}; run from a source checkout")
    sys.path.insert(0, str(ROOT / "src"))


# -- one run ----------------------------------------------------------------------

def invoke(cli_main, argv) -> tuple[float, str | None]:
    """Time one CLI invocation; return (seconds, failure or None)."""
    err = io.StringIO()
    failure = None
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli_main(list(argv))
        except Exception as exc:  # an escaping exception is a failed operation
            code, failure = None, f"raised {exc!r}"
        elapsed = time.perf_counter() - t0
    if failure is None and (code == 1 or "error:" in err.getvalue()):
        failure = f"exit {code}: {err.getvalue().strip()}"
    return elapsed, failure


def measure_setup(workload) -> float:
    """Median set-up time of fresh interpreters, in reference seconds."""
    args = [sys.executable, "-I", "-c", SETUP_CODE, str(ROOT / "src")]
    if workload.controllers_path is not None:
        args.append(str(workload.controllers_path))
    times = []
    kernel = kernel_seconds()
    for _ in range(SETUP_CHILDREN):
        done = subprocess.run(args, capture_output=True, text=True, timeout=60, check=True)
        after = kernel_seconds()
        times.append(to_reference(float(done.stdout.strip().splitlines()[-1]), kernel, after))
        kernel = after
    return statistics.median(times)


class Run:
    def __init__(self, workload, cli_main):
        self.workload = workload
        self.cli_main = cli_main
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.problems: list[str] = []
        # One entry per round: [(operation, wall s, reference s, counts), ...]
        # of the operations that succeeded.
        self.rounds: list[list[tuple]] = []
        # Calibration kernel times, one before the first invocation and one
        # after each.
        self.kernels = [kernel_seconds()]

    def round(self) -> float:
        done = []
        timed = 0.0
        for op in self.workload.operations():
            self.attempted += 1
            seconds, failure = invoke(self.cli_main, op.argv)
            self.kernels.append(kernel_seconds())
            scaled = to_reference(seconds, self.kernels[-2], self.kernels[-1])
            timed += seconds
            if failure is None:
                try:
                    counts = self.workload.check(op)
                except CheckFailed as exc:
                    failure = f"check failed: {exc}"
                except Exception as exc:  # malformed output the checks could not read
                    failure = f"check failed: {exc!r}"
                if failure is not None:
                    self.correct = False
            if failure is not None:
                self.failed += 1
                if len(self.problems) < 5:
                    self.problems.append(f"{op.label}: {failure}")
                continue
            done.append((op, seconds, scaled, counts))
        self.rounds.append(done)
        return timed

    def measure(self, seconds: float) -> None:
        start = time.perf_counter()
        timed = 0.0
        while timed < seconds and time.perf_counter() - start < WALL_LIMIT_S:
            timed += self.round()


def end_to_end(run: Run, scaled: bool = True) -> dict[str, float]:
    """Throughput and latency of the timed rounds, in reference seconds (see
    ``calibration``) or, with ``scaled=False``, in wall seconds.

    ``work_per_s`` is the median over rounds of the work a round completed
    (plant steps for sweep and yards, surface points for surface_wide) per
    second of its invocations; ``cli_ms_p50`` is the median latency of one
    invocation.
    """
    pick = 2 if scaled else 1
    rounds = [[(item[pick], item[3]["work"]) for item in r] for r in run.rounds if r]
    ms = [seconds * 1e3 for r in rounds for seconds, _ in r]
    if len(ms) < 2:
        return {}
    return {
        "work_per_s": statistics.median(sum(w for _, w in r) / sum(s for s, _ in r) for r in rounds),
        "cli_ms_p50": statistics.median(ms),
    }


def one_run(args) -> dict:
    started = time.perf_counter()
    locate_program()
    # One CPU for the load, the set-up children and the calibration kernel,
    # so the kernel measures the speed the program gets. Where affinity
    # cannot be set, the run goes on unpinned.
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except OSError:
        pass
    import fuzzydock.cli

    out = OUT / args.workload
    shutil.rmtree(out, ignore_errors=True)
    workload = WORKLOADS[args.workload](ROOT, out, args.seed)
    tracer = None
    setup_s = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    else:
        setup_s = measure_setup(workload)
    run = Run(workload, fuzzydock.cli.main)
    run.round()  # warm-up: lazy controller build, first file writes
    run.rounds.clear()
    del run.kernels[:-1]
    warm_up_ops = run.attempted
    if tracer is not None:
        tracer.reset()
    run.measure(args.seconds)
    e2e = end_to_end(run)
    print(("traced " if tracer else "") + "wall-clock " + "  ".join(
        f"{k}={v:.6g}" for k, v in end_to_end(run, scaled=False).items()))
    if tracer is not None:
        print("traced " + "  ".join(f"{k}={v:.6g}" for k, v in e2e.items()))
        ops = [item for r in run.rounds for item in r]
        artifact_bytes = statistics.fmean(c["bytes"] for *_, c in ops) if ops else 0.0
        kernel = statistics.median(run.kernels)
        metrics = per_layer(tracer, run.attempted - warm_up_ops, artifact_bytes,
                            to_reference(1.0, kernel, kernel))
    else:
        e2e["setup_s"] = setup_s
        e2e["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {k: (e2e[k], unit) for k, unit in E2E_UNITS.items() if k in e2e}
    for problem in run.problems:
        print(f"FAILED {problem}")
    for key, (value, unit) in metrics.items():
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"{key} = {shown} {unit}")
    print(f"attempted {run.attempted}, failed {run.failed}, wall {time.perf_counter() - started:.1f} s")
    return {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


# -- repeat mode and digest -------------------------------------------------------

def repeat(args, names: list[str]) -> None:
    """Run each workload ``--repeat`` times, one child process at a time, and
    print the median and quartiles of every metric."""
    for name in names:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        attempted = failed = 0
        correct = True
        for i in range(args.repeat):
            seed = args.seed + i
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                fail(f"{name} seed {seed} exited {done.returncode}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            correct = correct and result["correct"]
            for key, m in result["metrics"].items():
                units[key] = m["unit"]
                if m["value"] is not None:
                    values.setdefault(key, []).append(m["value"])
            print(f"# {name} seed {seed}: " + "  ".join(
                f"{k}={m['value']:.6g}" for k, m in result["metrics"].items() if m["value"] is not None),
                flush=True)
        print(f"{name}: {args.repeat} runs of {args.seconds} s, attempted {attempted}, "
              f"failed {failed}, correct {correct}")
        for key in units:
            vs = values.get(key, [])
            if not vs:
                print(f"  {key:36s} absent")
                continue
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            print(f"  {key:36s} median {med:12.6g} {units[key]:9s} q1 {q1:12.6g}  q3 {q3:12.6g}"
                  f"  iqr/median {spread:.3f}")


def digest(args, names: list[str]) -> None:
    """SHA-256 of the deterministic artifacts of one round of each workload."""
    locate_program()
    import fuzzydock.cli

    for name in names:
        out = OUT / "digest" / name
        shutil.rmtree(out, ignore_errors=True)
        workload = WORKLOADS[name](ROOT, out, args.seed)
        run = Run(workload, fuzzydock.cli.main)
        run.round()
        if run.failed:
            fail(f"{name}: {run.problems}")
        h = hashlib.sha256()
        for path in sorted(workload.artifacts()):
            h.update(path.relative_to(out).as_posix().encode() + b"\0")
            h.update(path.read_bytes())
        print(f"{name} seed {args.seed}: sha256 {h.hexdigest()}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all", *WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run each workload this many times with seeds seed, seed+1, ...")
    parser.add_argument("--digest", action="store_true")
    args = parser.parse_args()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.digest:
        digest(args, names)
    elif args.repeat or args.workload == "all":
        args.repeat = args.repeat or 1
        locate_program()
        repeat(args, names)
    else:
        print(json.dumps(one_run(args)))


if __name__ == "__main__":
    main()

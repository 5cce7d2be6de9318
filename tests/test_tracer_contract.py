"""The benchmark tracer's contract with the package.

``bench/tracing.py`` wraps every name in its ``TARGETS`` by looking it up in
``fuzzydock.<layer>``; one missing name blanks that whole layer's metrics in
a traced run, which still exits 0. This test imports the tracer unchanged,
installs it and runs every verb the benchmark runs. ``Tracer.install`` has no
uninstall, so it runs in a fresh interpreter, as ``test_digest.py`` does.

The dense ``fuzzy.*`` names are only checked to exist: the program calls
``infer``, not them, so a traced run counts zero calls there.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CHILD = r"""
import contextlib
import importlib
import io
import json
import sys
from pathlib import Path

root, out = Path(sys.argv[1]), Path(sys.argv[2])
sys.path[:0] = [str(root / "src"), str(root / "bench")]
from tracing import TARGETS, Tracer, per_layer
import fuzzydock.cli

uncallable = [
    f"{layer}.{name}" for layer, names in TARGETS.items() for name in names
    if not callable(getattr(importlib.import_module(f"fuzzydock.{layer}"), name, None))
]
tracer = Tracer()
tracer.install()
axis = lambda lo, hi, n: {"min": lo, "max": hi, "count": n}
grid = out / "grid.json"
grid.write_text(json.dumps({"axes": {
    "x": axis(-40, 40, 2), "y": axis(100, 100, 1),
    "alpha": axis(-30, 30, 2), "beta": axis(0, 0, 1),
}, "max_steps": 300}))
invocations = [
    ["run", "--scenario", str(root / "scenarios" / "yard_right_far.json"),
     "--mode", "both", "--out", str(out / "run")],
    ["sweep", "--scenario", str(grid), "--out", str(out / "sweep")],
    ["surface", "flc_t", "--resolution", "7", "--out", str(out / "surface")],
    ["surface", "flc_c", "--resolution", "7", "--out", str(out / "surface")],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [fuzzydock.cli.main(argv) for argv in invocations]
metrics = per_layer(tracer, len(invocations), 0.0, 1.0)
print(json.dumps({
    "uncallable": uncallable,
    "missing": tracer.missing,
    "codes": codes,
    "absent": [name for name, (value, _) in metrics.items() if value is None],
    "calls": {f"{layer}.{name}": stat.calls for (layer, name), stat in tracer.stats.items()},
}))
"""


def test_every_traced_name_is_defined_and_reported(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-I", "-c", CHILD, str(ROOT), str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["uncallable"] == []
    assert report["missing"] == {}
    assert report["codes"] == [0, 0, 0, 0]
    assert report["absent"] == []
    # The wrappers sit where the program looks the names up.
    for name in ("controllers.flc_t", "controllers.flc_c", "controllers.cascade_step",
                 "plant.step", "plant.step_reference", "plant.classify",
                 "simulation.run", "simulation.sweep", "cli.load_scenario_file",
                 "cli.load_grid_file", "cli.cmd_surface"):
        assert report["calls"][name] > 0, name

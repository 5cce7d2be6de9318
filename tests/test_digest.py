"""The behaviour digest: the SHA-256 of each benchmark workload's artifacts.

``bench/run.py --digest`` runs one round of every workload and hashes its
trajectory, sweep and surface files. The values below are the ones listed in
``bench/README.md``; a change that alters any artifact byte changes one of
them. A change that alters a digest on purpose updates it here and says so.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

DIGESTS_SEED_1 = {
    "sweep": "58eda57c0f30bf9188b094bfd23b0d93aa7bb8c9c808fd49b3244b22d565493d",
    "yards": "4b257d28ebb3948dfa70daafd4cc5f920a69f36b240558bb5bda64df103d967a",
    "surface_wide": "1d8f767baa6c4ab01c3959169d0f4c785161ceb3ec8cee87a2c21e7efe1e952b",
}


def test_digest_is_unchanged():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--digest", "--seed", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    # One line per workload: "<workload> seed 1: sha256 <hex>".
    digests = {}
    for line in proc.stdout.splitlines():
        head, sep, digest = line.partition(": sha256 ")
        if sep:
            digests[head.split()[0]] = digest
    assert digests == DIGESTS_SEED_1

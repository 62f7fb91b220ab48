"""The benchmark's self-test, run as a user runs it.

perfbench/ imports public names of ofdmse and pins the digests of its
sweeps, so a renamed, removed or changed name or output fails here as well
as in the benchmark run itself.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_self_test_passes():
    # every workload once at a tiny size, traced and untraced; each run
    # writes its seed-1 record (and, traced, its spans) under .perfbench/
    # in the checkout, which .gitignore lists
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--self-test"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    assert proc.stdout.splitlines()[-1] == "self-test passed"

"""Time one cold set-up of a workload in a fresh interpreter.

Usage: python3 perfbench/probe_setup.py WORKLOAD

Prints the seconds from the first statement to the end of the warm-up
(importing ofdmse, build_profile and the first call of each entry point the
workload uses, see harness.warm_up), then the median of three timings of
the calibration kernel.  run.py starts several of these and reports the
median set-up time in reference seconds as setup_s.
"""

from time import perf_counter

T0 = perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import harness  # noqa: E402


def main() -> int:
    spec = json.loads((HERE / "spec.json").read_text())
    harness.warm_up(spec["workloads"][sys.argv[1]])
    elapsed = perf_counter() - T0
    kernel = sorted(harness.calibration_kernel() for _ in range(3))[1]
    print(elapsed, kernel)
    return 0


if __name__ == "__main__":
    sys.exit(main())

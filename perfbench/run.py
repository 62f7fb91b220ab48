"""ofdmse benchmark: one command for every workload, metric and check.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep_greedy --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

--trace 0 prints the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics of a traced replay.  The last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}; the exit code is 1
when a correctness check failed and 2 when the checkout holds no ofdmse
sources.  Each run also writes its record (manifest, metrics, checks,
layer shares) and, when traced, its spans under .perfbench/ in the checkout.
"""

import os

# Pin BLAS/OpenMP pools to one thread before numpy loads: the loaders work
# on 84-element arrays, where extra threads only add start-up cost.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

SETUP_PROBES = 5


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit(root: Path):
    """HEAD's commit read from .git without running git; None outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def peak_rss_mib() -> float:
    """Peak RSS of this process plus the largest of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def setup_seconds(harness, name: str, probes: int) -> float:
    """Median cold set-up time over fresh interpreters, in reference seconds."""
    times = []
    for _ in range(probes):
        out = subprocess.run(
            [sys.executable, str(HERE / "probe_setup.py"), name],
            capture_output=True, text=True, timeout=120, check=True,
        )
        elapsed, kernel = map(float, out.stdout.split())
        times.append(elapsed * harness.CAL_REFERENCE_S / kernel)
    return median(times)


def manifest(harness, name, workload, seed, seconds, trace):
    import numpy
    import scipy

    import ofdmse

    config = dict(workload["config"])
    if "workers" in config:
        config["workers"] = harness.resolve_workers(workload)
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "config": config, "nproc": harness.nproc(), "cpu": cpu_model(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "ofdmse": ofdmse.__version__,
        "commit": git_commit(ROOT),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def run_one(harness, bench, spec, name, seed, seconds, trace, probes=SETUP_PROBES):
    """Run a workload; returns (result line object, run record)."""
    checker = harness.Checker()
    declared = bench["per_layer" if trace else "end_to_end"]
    values, details, tracer = harness.run(
        name, spec, seed, seconds, trace, checker,
        [m["name"] for m in bench["per_layer"]])
    if not trace:
        values["peak_rss_mb"] = peak_rss_mib()
        values["pass_rate"] = 1.0 - checker.failed / checker.attempted
        values["setup_s"] = setup_seconds(harness, name, probes)
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    record = {
        "manifest": manifest(harness, name, spec["workloads"][name], seed,
                             seconds, trace),
        "result": result, "details": details, "checks": dict(checker.ran),
        "failures": checker.failures[:50],
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write_jsonl(OUT_DIR / f"{name}-seed{seed}.spans.jsonl")
    return result, record


def report(record) -> None:
    """Human-readable lines ahead of the result line."""
    print("manifest " + json.dumps(record["manifest"], sort_keys=True))
    print("details " + json.dumps({k: v for k, v in record["details"].items()
                                   if k != "shares"}))
    for metric, m in record["result"]["metrics"].items():
        print(f"  {metric:<34} {m['value']:>14.6g} {m['unit']}")
    for span, share in record["details"].get("shares", {}).items():
        print(f"  share {span:<28} {100 * share:>8.2f} %")
    checks = ", ".join(f"{k} x{n}" for k, n in sorted(record["checks"].items()))
    print(f"checks: {checks}")
    for failure in record["failures"]:
        print(f"FAILED {failure}")


def self_test(harness, bench, spec) -> int:
    """Every workload for a single call or round per mode, with one set-up
    probe: each declared metric must print as a finite number with its unit,
    each check must execute, and a corrupted CSV must fail its check."""
    problems = []
    broken = harness.Checker()
    broken.attempt()
    cfg = harness.sweep_config(spec["workloads"]["sweep_greedy"], 0, 2)
    lines = harness.sweep_csv(cfg).splitlines()
    lines[1] = lines[1].rsplit(",", 3)[0] + ",7,0,1"  # 7 bits/subcarrier
    harness.check_csv(broken, "\n".join(lines) + "\n", cfg)
    if broken.failed != 1:
        problems.append("csv.well_formed accepted an out-of-range row")
    for name, workload in spec["workloads"].items():
        for trace in (0, 1):
            result, record = run_one(harness, bench, spec, name, 1, 0, trace,
                                     probes=1)
            report(record)
            declared = bench["per_layer" if trace else "end_to_end"]
            for m in declared:
                got = result["metrics"].get(m["name"])
                if (got is None or got["unit"] != m["unit"]
                        or not isinstance(got["value"], (int, float))
                        or not math.isfinite(got["value"])):
                    problems.append(f"{name} trace {trace}: {m['name']} printed as {got}")
            missing = harness.expected_checks(workload, trace) - set(record["checks"])
            if missing:
                problems.append(f"{name} trace {trace}: checks not run: {sorted(missing)}")
            if not result["correct"]:
                problems.append(f"{name} trace {trace}: {record['failures']}")
    for p in problems:
        print(f"self-test FAILED: {p}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run every workload once at a tiny size and check the output")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not (SRC / "ofdmse" / "__init__.py").is_file():
        print(f"error: no ofdmse sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ofdmse

    if not Path(ofdmse.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: ofdmse imported from {ofdmse.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import harness

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = json.loads((HERE / "spec.json").read_text())
    if args.self_test:
        return self_test(harness, bench, spec)
    if args.workload not in spec["workloads"]:
        parser.error(f"--workload must be one of {', '.join(spec['workloads'])}")
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    result, record = run_one(harness, bench, spec, args.workload, args.seed,
                             seconds, args.trace)
    report(record)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""Workloads of the ofdmse benchmark: timed runs, traced replays and checks.

Every call into ofdmse goes through a public entry point.  The sweep
workloads time `run_sweep` followed by `write_csv`; their traced replay
rebuilds the same sweep from names exported in `ofdmse.__all__` (plus
`ofdmse.cli.write_csv`) so that one span can wrap each layer call.  The
api_single workload is a closed loop: one caller, each call issued after
the previous one returned.
"""

from __future__ import annotations

import hashlib
import io
import math
import os
from collections import Counter
from dataclasses import replace
from statistics import median
from time import perf_counter

import numpy as np

from ofdmse import (
    CATALOG,
    SimConfig,
    SweepConfig,
    SweepPoint,
    aggregate,
    ber,
    block_allocate,
    build_profile,
    draw_realization,
    eta_r,
    evaluate_avg_ber,
    exhaustive_allocate,
    greedy_allocate,
    min_snr_for,
    position_ber_table,
    run_sweep,
    simulate_ber,
    snr_grid,
    tux_profile,
)
from ofdmse.cli import write_csv

from tracing import NullTracer, Tracer

CSV_HEADER = "system,snr_db,p_t,trials,mean_bits_per_subcarrier,ci95,eta_r"

#: The pinned reference run of every workload uses this seed.
DEFAULT_SEED = 0

#: Largest bits per subcarrier any catalog scheme carries (64-QAM).
MAX_BITS_PER_SUBCARRIER = 6


#: The calibration kernel: CAL_LOOPS steps of interpreter work plus 84-element
#: numpy calls, the same kind of work as the loaders.  It takes about
#: CAL_REFERENCE_S on an idle 2.1 GHz Xeon core.
CAL_LOOPS = 1200
CAL_REFERENCE_S = 0.005
_CAL_X = np.linspace(0.1, 4.0, 84)


def calibration_kernel() -> float:
    """Seconds one run of the calibration kernel takes right now."""
    t0 = perf_counter()
    acc = 0.0
    for i in range(CAL_LOOPS):
        acc += float(np.sum(np.exp(-_CAL_X * (i % 7))))
    return perf_counter() - t0


class SpeedProbe:
    """Converts wall times into reference seconds.

    Co-tenants on a shared host slow this process by up to half for tens of
    seconds at a time, which no run length averages out.  The probe times
    the calibration kernel between measured calls; a call's wall time is
    scaled by CAL_REFERENCE_S over the mean kernel time on either side of
    it, so a slow phase of the host cancels and a slower program does not.
    """

    def __init__(self):
        self._last = calibration_kernel()
        self.factors: list[float] = []

    def factor(self) -> float:
        """Scale for the call(s) measured since the previous factor()."""
        now = calibration_kernel()
        f = 2.0 * CAL_REFERENCE_S / (self._last + now)
        self._last = now
        self.factors.append(f)
        return f


def nproc() -> int:
    return len(os.sched_getaffinity(0))


class Checker:
    """Correctness checks grouped by operation.

    `attempt` opens an operation; the operation counts as failed when any
    check made after it fails.  `ran` counts executions per check name.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.ran: Counter = Counter()
        self.failures: list[str] = []
        self._op_failed = False

    def attempt(self) -> None:
        self.attempted += 1
        self._op_failed = False

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.ran[name] += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)
            if not self._op_failed:
                self.failed += 1
                self._op_failed = True
        return ok


def expected_checks(workload: dict, trace: bool) -> set:
    """Names of the checks one run of `workload` must execute."""
    if workload["kind"] == "api":
        return {"api.pinned_digest", "alloc.within_target", "alloc.matches_evaluate",
                "greedy.not_above_exhaustive", "min_snr.inverts", "sim.near_model"}
    names = {"csv.pinned_digest", "csv.well_formed"}
    if resolve_workers(workload) > 1:
        names.add("csv.pool_equals_serial")
    if trace:
        names.add("csv.replay_equals_sweep")
    return names


def rep_seeds(seed: int):
    """Endless stream of per-call seeds derived from the workload seed."""
    rng = np.random.default_rng(seed)
    while True:
        yield int(rng.integers(2**31))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def quantile_ms(samples, q: float) -> float:
    return float(np.quantile(np.asarray(samples), q)) * 1e3


# --------------------------------------------------------------------------
# Sweep workloads


def resolve_workers(workload: dict) -> int:
    workers = workload["config"].get("workers", 1)
    return nproc() if workers == "nproc" else int(workers)


def sweep_config(workload: dict, seed: int, trials: int) -> SweepConfig:
    c = workload["config"]
    return SweepConfig(
        systems=tuple(c["systems"]),
        snr_db=tuple(float(s) for s in c["snr_db"]),
        p_t=tuple(float(p) for p in c["p_t"]),
        trials=trials,
        seed=seed,
        granularity=c["granularity"],
        workers=resolve_workers(workload),
    )


def grids_per_call(cfg: SweepConfig) -> int:
    return cfg.trials * len(cfg.snr_db) * len(cfg.systems) * len(cfg.p_t)


def sweep_csv(cfg: SweepConfig) -> str:
    """One user-visible sweep: run_sweep, then write_csv."""
    buf = io.StringIO()
    write_csv(run_sweep(cfg), buf)
    return buf.getvalue()


def timed_sweep_csv(cfg: SweepConfig) -> tuple[str, float]:
    t0 = perf_counter()
    csv = sweep_csv(cfg)
    return csv, perf_counter() - t0


def csv_problems(csv: str, cfg: SweepConfig) -> str:
    """Empty when the CSV has the contract's header, row order and ranges."""
    lines = csv.splitlines()
    order = [(p, s, snr) for p in cfg.p_t for s in cfg.systems for snr in cfg.snr_db]
    if not lines or lines[0] != CSV_HEADER:
        return "bad header"
    if len(lines) != len(order) + 1:
        return f"{len(lines) - 1} rows, expected {len(order)}"
    for line, (p_t, system, snr) in zip(lines[1:], order):
        fields = line.split(",")
        key = [system, f"{snr:.6g}", f"{p_t:.6g}", str(cfg.trials)]
        if len(fields) != 7 or fields[:4] != key:
            return f"row {line!r} does not start with {','.join(key)}"
        mean, ci95, eta = (float(f) for f in fields[4:])
        if not 0.0 <= mean <= MAX_BITS_PER_SUBCARRIER or not ci95 >= 0.0:
            return f"row {line!r} out of range"
        if not (math.isnan(eta) or (eta == 1.0 if system == "fb" else eta >= 0.0)):
            return f"row {line!r} has a bad eta_r"
    return ""


def check_csv(checker: Checker, csv: str, cfg: SweepConfig) -> None:
    problem = csv_problems(csv, cfg)
    checker.check("csv.well_formed", not problem, problem)


def replay_sweep(cfg: SweepConfig, tracer, tag: str) -> tuple[str, np.ndarray]:
    """Rebuild run_sweep + write_csv from exported names, a span per layer call.

    Seeds each trial by (seed, p_t index, trial) as run_sweep documents, so
    the CSV must equal the program's byte for byte.  Needs trials >= 2 and
    "fb" among the systems, which every sweep workload satisfies.
    """
    span = tracer.span
    with span("sweep", tag):
        with span("systems.build_profile"):
            grids = [build_profile(n, cfg.n_f, cfg.n_t).grid for n in cfg.systems]
        chan = tux_profile()
        if cfg.granularity == "subcarrier":
            allocate, layer = greedy_allocate, "loading.greedy"
        else:
            allocate, layer = block_allocate, "loading.block"
        noise_vars = [10.0 ** (-s / 10.0) for s in cfg.snr_db]
        bits = np.zeros((len(cfg.p_t), len(noise_vars), len(grids), cfg.trials),
                        dtype=np.int64)
        for pt_i, p_t in enumerate(cfg.p_t):
            for trial in range(cfg.trials):
                with span("trial", f"{tag}/p{pt_i}/t{trial}"):
                    rng = np.random.default_rng(
                        np.random.SeedSequence((cfg.seed, pt_i, trial)))
                    with span("channel.draw"):
                        real = draw_realization(chan, cfg.n_f, cfg.n_t, rng,
                                                n_fft=cfg.n_fft)
                    for snr_i, noise_var in enumerate(noise_vars):
                        with span("channel.snr_grid"):
                            snr = snr_grid(real, noise_var)
                        with span("loading.ber_table"):
                            table = position_ber_table(snr)
                        for g_i, grid in enumerate(grids):
                            with span(layer):
                                alloc = allocate(snr, grid, p_t, ber_table=table)
                            bits[pt_i, snr_i, g_i, trial] = alloc.total_bits

        n_positions = cfg.n_f * cfg.n_t
        ref_i = cfg.systems.index("fb")
        points = []
        for pt_i, p_t in enumerate(cfg.p_t):
            for g_i, name in enumerate(cfg.systems):
                for snr_i, snr_db in enumerate(cfg.snr_db):
                    with span("metrics.aggregate"):
                        mean, half = aggregate(bits[pt_i, snr_i, g_i] / n_positions)
                    ref_total = int(bits[pt_i, snr_i, ref_i].sum())
                    own_total = int(bits[pt_i, snr_i, g_i].sum())
                    with span("metrics.eta_r"):
                        eta = eta_r(own_total, ref_total) if ref_total > 0 else math.nan
                    points.append(SweepPoint(name, float(snr_db), float(p_t),
                                             cfg.trials, mean, half, eta))
        buf = io.StringIO()
        with span("cli.write_csv"):
            write_csv(points, buf)
    return buf.getvalue(), bits


def _sweep_reference(name: str, workload: dict, pins: dict, checker: Checker) -> None:
    """Pinned-digest run at the default seed; also the steady-state warm-up."""
    cfg = sweep_config(workload, DEFAULT_SEED, workload["config"]["trials"])
    checker.attempt()
    digest = sha256(sweep_csv(cfg))
    checker.check("csv.pinned_digest", digest == pins.get(name),
                  f"sha256 {digest} != pinned {pins.get(name)}")


def run_sweep_workload(name, workload, pins, seed, seconds, trace, trials, checker):
    """Time sweep calls until `seconds` pass (at least one).

    Returns (metric values, details for the run record, tracer); traced, the
    values are the per-layer figures spans cannot give and the tracer holds
    the replay's spans.
    """
    _sweep_reference(name, workload, pins, checker)
    workers = resolve_workers(workload)
    seeds = rep_seeds(seed)
    deadline = perf_counter() + seconds
    speed = SpeedProbe()
    if not trace:
        walls, raw, first = [], [], None
        while not walls or perf_counter() < deadline:
            cfg = sweep_config(workload, next(seeds), trials)
            checker.attempt()
            csv, wall = timed_sweep_csv(cfg)
            raw.append(wall)
            walls.append(wall * speed.factor())
            check_csv(checker, csv, cfg)
            first = first or (cfg, csv)
        if workers > 1:
            cfg, csv = first
            checker.attempt()
            serial = sweep_csv(replace(cfg, workers=1))
            checker.check("csv.pool_equals_serial", serial == csv,
                          f"seed {cfg.seed}: {workers}-worker CSV differs")
        wall = median(walls)
        values = {
            "wall_s": wall,
            "grids_per_s": grids_per_call(cfg) / wall,
            "calls_per_s": 1.0 / wall,
            "call_p50_ms": wall * 1e3,
            "call_tail_ms": quantile_ms(walls, workload["tail_quantile"]),
        }
        return values, {"calls": len(walls), "trials_per_call": trials,
                        "workers": workers, "raw_wall_s": median(raw),
                        "speed_factor": median(speed.factors)}, None

    tracer, null = Tracer(), NullTracer()
    prog_walls, serial_walls, overheads, greedy_bits = [], [], [], 0
    while not overheads or perf_counter() < deadline:
        cfg = sweep_config(workload, next(seeds), trials)
        checker.attempt()
        csv, wall = timed_sweep_csv(cfg)
        check_csv(checker, csv, cfg)
        prog_walls.append(wall)
        if workers > 1:
            checker.attempt()
            serial, serial_wall = timed_sweep_csv(replace(cfg, workers=1))
            checker.check("csv.pool_equals_serial", serial == csv,
                          f"seed {cfg.seed}: {workers}-worker CSV differs")
            serial_walls.append(serial_wall)
        # alternate which replay runs first so drift cancels in the overhead
        order = (null, tracer) if len(overheads) % 2 == 0 else (tracer, null)
        replay_walls = {}
        for tr in order:
            checker.attempt()
            t0 = perf_counter()
            out, bits = replay_sweep(cfg, tr, f"s{cfg.seed}")
            replay_walls[tr.enabled] = perf_counter() - t0
            checker.check("csv.replay_equals_sweep", out == csv,
                          f"seed {cfg.seed}: replay CSV differs from run_sweep")
            if tr.enabled and cfg.granularity == "subcarrier":
                greedy_bits += int(bits.sum())
        f = speed.factor()
        prog_walls[-1] *= f
        if serial_walls:
            serial_walls[-1] *= f
        overheads.append((replay_walls[True] - replay_walls[False]) * f)
    pool_wait = (median(prog_walls) - median(serial_walls) / workers
                 if workers > 1 else 0.0)
    extra = {
        "loading.greedy.bits": greedy_bits / len(overheads),
        "ber_sim.symbols_per_s": 0.0,
        "cli.pool.wait_s": pool_wait,
        "trace.overhead_s": median(overheads),
    }
    return extra, {"reps": len(overheads), "trials_per_call": trials,
                   "workers": workers, "speed_factor": median(speed.factors)}, tracer


# --------------------------------------------------------------------------
# api_single


class ApiLoop:
    """One round = a fixed sequence of single public calls on seeded inputs."""

    def __init__(self, workload: dict):
        c = workload["config"]
        self.grids = {n: build_profile(n).grid for n in c["systems"]}
        self.small = {n: build_profile(n, 2, 2).grid for n in c["small_systems"]}
        self.snr_db = [float(s) for s in c["snr_db"]]
        self.p_t = [float(p) for p in c["p_t"]]
        self.sim_calls = int(c["sim_calls_per_round"])
        self.sim_symbols = int(c["sim_symbols"])
        self.sim_target = float(c["sim_target_ber"])
        self.schemes = [s for s in CATALOG if not s.silent]
        self.chan = tux_profile()

    def allocations_per_round(self) -> int:
        return 2 * len(self.grids) + 2 * len(self.small)

    def round(self, seed, r, tracer, checker, latencies) -> dict:
        """Run round r of the stream `seed`; returns its outputs and counts."""
        rng = np.random.default_rng(np.random.SeedSequence((seed, r)))
        outputs, greedy_bits = [], 0
        n_calls = 0

        def call(layer, fn, *args):
            nonlocal n_calls
            checker.attempt()
            with tracer.span(layer, f"{seed}/{r}/{n_calls}"):
                t0 = perf_counter()
                result = fn(*args)
                latencies.append(perf_counter() - t0)
            n_calls += 1
            return result

        def draw(n_f, n_t):
            p_t = float(rng.choice(self.p_t))
            noise_var = 10.0 ** (-float(rng.choice(self.snr_db)) / 10.0)
            with tracer.span("channel.draw"):
                real = draw_realization(self.chan, n_f, n_t, rng)
            with tracer.span("channel.snr_grid"):
                snr = snr_grid(real, noise_var)
            return snr, p_t

        def checked(alloc, snr, p_t, label):
            checker.check("alloc.within_target", alloc.avg_ber <= p_t,
                          f"{label}: avg_ber {alloc.avg_ber!r} > p_t {p_t!r}")
            ev = call("loading.evaluate_avg_ber", evaluate_avg_ber, alloc.schemes, snr)
            checker.check("alloc.matches_evaluate",
                          math.isclose(ev, alloc.avg_ber, rel_tol=1e-9, abs_tol=1e-300),
                          f"{label}: evaluate_avg_ber {ev!r} != {alloc.avg_ber!r}")
            outputs.append(f"{label} {alloc.total_bits} {alloc.avg_ber!r} "
                           + ",".join(str(s) for row in alloc.schemes for s in row))
            return alloc

        with tracer.span("api.round", f"{seed}/{r}"):
            for name, grid in self.grids.items():
                snr, p_t = draw(grid.n_f, grid.n_t)
                g = call("loading.greedy", greedy_allocate, snr, grid, p_t)
                greedy_bits += checked(g, snr, p_t, f"greedy {name}").total_bits
                b = call("loading.block", block_allocate, snr, grid, p_t)
                checked(b, snr, p_t, f"block {name}")
            for name, grid in self.small.items():
                snr, p_t = draw(grid.n_f, grid.n_t)
                x = call("loading.exhaustive", exhaustive_allocate, snr, grid, p_t)
                checked(x, snr, p_t, f"exhaustive {name}")
                g = call("loading.greedy", greedy_allocate, snr, grid, p_t)
                greedy_bits += checked(g, snr, p_t, f"greedy2x2 {name}").total_bits
                checker.check("greedy.not_above_exhaustive", g.total_bits <= x.total_bits,
                              f"{name}: greedy {g.total_bits} > exhaustive {x.total_bits}")
            for _ in range(self.sim_calls):
                scheme = self.schemes[int(rng.integers(len(self.schemes)))]
                target = self.sim_target
                gamma = call("modulation.min_snr_for", min_snr_for, scheme, target)
                checker.check("min_snr.inverts", abs(ber(scheme, gamma) - target) <= 1e-12,
                              f"{scheme}: ber(min_snr_for) != {target}")
                sim = SimConfig(scheme, gamma, self.sim_symbols, int(rng.integers(2**31)))
                p, _ci = call("ber_sim.simulate", simulate_ber, sim)
                # >= 200 expected bit errors per call, so 50% is beyond 7 sigma
                checker.check("sim.near_model", abs(p - target) <= 0.5 * target,
                              f"{scheme}: simulated {p!r} vs model {target}")
                outputs.append(f"min_snr {scheme} {gamma!r} sim {p!r}")
        return {"outputs": outputs, "greedy_bits": greedy_bits,
                "symbols": self.sim_calls * self.sim_symbols}


def run_api_workload(name, workload, pins, seed, seconds, trace, checker):
    """Run api rounds until `seconds` pass (at least one); returns what
    run_sweep_workload returns, per round instead of per sweep call."""
    loop = ApiLoop(workload)
    null = NullTracer()
    checker.attempt()
    ref = loop.round(DEFAULT_SEED, 0, null, checker, [])
    digest = sha256("\n".join(ref["outputs"]))
    checker.check("api.pinned_digest", digest == pins.get(name),
                  f"sha256 {digest} != pinned {pins.get(name)}")
    speed = SpeedProbe()
    deadline = perf_counter() + seconds
    r = 0
    if not trace:
        latencies, walls, raw = [], [], []
        while not walls or perf_counter() < deadline:
            lat = []
            t0 = perf_counter()
            loop.round(seed, r, null, checker, lat)
            raw.append(perf_counter() - t0)
            f = speed.factor()
            walls.append(raw[-1] * f)
            latencies.extend(x * f for x in lat)
            r += 1
        wall = median(walls)
        values = {
            "wall_s": wall,
            "grids_per_s": loop.allocations_per_round() / wall,
            "calls_per_s": len(latencies) / len(walls) / wall,
            "call_p50_ms": quantile_ms(latencies, 0.50),
            "call_tail_ms": quantile_ms(latencies, workload["tail_quantile"]),
        }
        return values, {"rounds": len(walls), "calls": len(latencies),
                        "raw_wall_s": median(raw),
                        "speed_factor": median(speed.factors)}, None

    tracer = Tracer()
    overheads, greedy_bits, symbols = [], 0, 0
    while not overheads or perf_counter() < deadline:
        order = (null, tracer) if r % 2 == 0 else (tracer, null)
        walls = {}
        for tr in order:
            t0 = perf_counter()
            out = loop.round(seed, r, tr, checker, [])
            walls[tr.enabled] = perf_counter() - t0
        greedy_bits += out["greedy_bits"]
        symbols += out["symbols"]
        overheads.append((walls[True] - walls[False]) * speed.factor())
        r += 1
    sim_s = tracer.self_times()[0]["ber_sim.simulate"] * median(speed.factors)
    extra = {
        "loading.greedy.bits": greedy_bits / r,
        "ber_sim.symbols_per_s": symbols / sim_s,
        "cli.pool.wait_s": 0.0,
        "trace.overhead_s": median(overheads),
    }
    return extra, {"reps": r, "speed_factor": median(speed.factors)}, tracer


# --------------------------------------------------------------------------
# Set-up and dispatch


def warm_up(workload: dict) -> None:
    """Set-up a user pays once: build_profile, then one small call of each
    entry point the workload uses, which fills the BER lru caches; for a pool
    workload the warm-up sweep also starts and stops the pool."""
    if workload["kind"] == "api":
        loop = ApiLoop(workload)
        loop.round(DEFAULT_SEED, 0, NullTracer(), Checker(), [])
        return
    for n in workload["config"]["systems"]:
        build_profile(n)
    cfg = sweep_config(workload, DEFAULT_SEED, max(2, resolve_workers(workload)))
    sweep_csv(replace(cfg, snr_db=(20.0,)))


def layer_values(names, tracer, reps: int, speed_factor: float, extra: dict) -> dict:
    """Per-layer metric values, per call (sweep) or per round (api).

    `<span>.self_s` is the span's self time in reference seconds and
    `<span>.calls` its count; any other name must come from `extra`.
    """
    self_s, count, _root = tracer.self_times()
    values = {}
    for metric in names:
        span, _, kind = metric.rpartition(".")
        if kind == "self_s":
            values[metric] = self_s.get(span, 0.0) * speed_factor / reps
        elif kind == "calls":
            values[metric] = count.get(span, 0) / reps
        else:
            values[metric] = extra[metric]
    return values


def layer_shares(tracer) -> dict:
    """Share of traced wall time spent in each span name's own code."""
    self_s, _count, root = tracer.self_times()
    return {n: s / root for n, s in sorted(self_s.items(), key=lambda kv: -kv[1])}


def run(name, spec, seed, seconds, trace, checker, per_layer_names):
    """Run one workload; returns (metric values, details for the run record,
    tracer or None)."""
    workload = spec["workloads"][name]
    pins = spec["pins"]
    warm_up(workload)
    if workload["kind"] == "api":
        result = run_api_workload(name, workload, pins, seed, seconds, trace, checker)
    else:
        result = run_sweep_workload(name, workload, pins, seed, seconds, trace,
                                    workload["config"]["trials"], checker)
    values, details, tracer = result
    if tracer is not None:
        details["shares"] = layer_shares(tracer)
        values = layer_values(per_layer_names, tracer, details["reps"],
                              details["speed_factor"], values)
    return values, details, tracer

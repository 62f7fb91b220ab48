"""Command-line front end: throughput sweeps and the BER model gate.

The `sweep` subcommand runs the Monte Carlo comparison.  For every
(p_t, trial) pair one channel realization is drawn and shared by every
system and every SNR point, so differences between systems reflect only
their modulation constraints, and curves are smooth in SNR.  The swept SNR
is 1/noise_var in dB; with the unit-power channel profile it equals the mean
per-position SNR.  run_sweep composes three public stages: trial_gammas
(one draw's gammas at every SNR point), loading.sweep_total_bits (the bit
totals of every SNR grid and system) and sweep_points (aggregation and the
eta_r rule).

The `validate-ber` subcommand checks every analytic BER model against the
symbol-level simulator over its whole usable range and fails loudly on
disagreement; run it before trusting sweep output.

With --workers N the trials are split into N contiguous chunks: the parent
loads the first, and a forked child loads each of the others and returns its
array through a pipe; a failed child fails the sweep, and no child outlives
it.  Per-trial totals are deterministic functions of (seed, p_t index,
trial), so any worker count produces byte-identical CSV.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import re
import sys
from dataclasses import dataclass
from multiprocessing import get_context
from pathlib import Path

import numpy as np

from .ber_sim import SimConfig, simulate_ber
from .channel import (
    check_dft_fit,
    draw_realization,
    load_channel_profile,
    snr_grid,
    tux_profile,
)
from .loading import sweep_total_bits
from .metrics import SweepPoint, aggregate, eta_r
from .modulation import CATALOG, ber, min_snr_for
from .systems import SYSTEM_NAMES, build_profile, load_profile

CSV_HEADER = "system,snr_db,p_t,trials,mean_bits_per_subcarrier,ci95,eta_r"

REFERENCE_SYSTEM = "fb"

#: validate-ber samples this many log-spaced target BERs per scheme
N_VALIDATION_POINTS = 8
VALIDATION_SPAN = (1e-4, 0.4)

#: per-point symbol counts are raised until this many bit errors are expected,
#: keeping the relative noise near 2% so a 10% tolerance is a 4-sigma test
VALIDATION_ERROR_FLOOR = 2000


def _noise_var(snr_db: float) -> float:
    """Noise variance of a swept SNR point (unit symbol energy)."""
    return 10.0 ** (-snr_db / 10.0)


@dataclass(frozen=True)
class SweepConfig:
    """Validated sweep parameters (see the flag reference in `main`)."""

    systems: tuple = SYSTEM_NAMES
    snr_db: tuple = tuple(float(s) for s in range(0, 41, 2))
    p_t: tuple = (1e-3,)
    trials: int = 1000
    seed: int = 0
    n_fft: int = 128
    n_f: int = 12
    n_t: int = 7
    granularity: str = "subcarrier"
    profile_file: str | None = None
    channel_file: str | None = None
    out: str | None = None
    series_out: str | None = None
    workers: int = 1

    def __post_init__(self):
        for name, least in (("trials", 1), ("seed", 0), ("workers", 1),
                            ("n_fft", 1), ("n_f", 1), ("n_t", 1)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise TypeError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")
            object.__setattr__(self, name, int(value))
        if self.n_f > self.n_fft:
            raise ValueError(
                f"n_f ({self.n_f}) must not exceed n_fft ({self.n_fft}): "
                f"subcarrier k and k + n_fft share one DFT bin"
            )
        if isinstance(self.systems, str):
            raise TypeError(f"systems must be a sequence of names, got {self.systems!r}")
        for name in ("snr_db", "p_t"):
            for value in getattr(self, name):
                if isinstance(value, bool) or not isinstance(value, numbers.Real):
                    raise TypeError(f"{name} entries must be real numbers, got {value!r}")
            object.__setattr__(self, name, tuple(map(float, getattr(self, name))))
        if not self.systems:
            raise ValueError("systems must name at least one system")
        for name in self.systems:
            if name not in SYSTEM_NAMES:
                raise ValueError(
                    f"systems entry {name!r} is unknown; choose from {', '.join(SYSTEM_NAMES)}"
                )
        if len(set(self.systems)) != len(self.systems):
            raise ValueError("duplicate names in systems")
        if len(set(self.p_t)) != len(self.p_t):
            raise ValueError("duplicate p_t values")
        if not self.snr_db:
            raise ValueError("at least one snr_db value is required")
        for snr in self.snr_db:
            try:
                usable = math.isfinite(snr) and 0.0 < _noise_var(snr) < math.inf
            except OverflowError:
                usable = False
            if not usable:
                raise ValueError(
                    f"snr_db value {snr!r} is unusable: it must be finite and "
                    f"give a positive, finite noise variance 10^(-snr/10)"
                )
        for p in self.p_t:
            if not 0.0 < p < 0.5:
                raise ValueError(f"p_t must lie in (0, 0.5), got {p!r}")
        if not self.p_t:
            raise ValueError("at least one p_t is required")
        if self.granularity not in ("subcarrier", "block"):
            raise ValueError("granularity must be subcarrier or block")


def _resolve_profiles(cfg: SweepConfig):
    """The output names and the profiles to compute, by name: requested
    systems, any custom map, and the reference system (always simulated,
    it is the ratio denominator)."""
    out_names = list(cfg.systems)
    profiles = {n: build_profile(n, cfg.n_f, cfg.n_t) for n in out_names}
    if cfg.profile_file is not None:
        custom = load_profile(cfg.profile_file)
        if (custom.grid.n_f, custom.grid.n_t) != (cfg.n_f, cfg.n_t):
            raise ValueError(
                f"custom profile is {custom.grid.n_f} x {custom.grid.n_t}, "
                f"sweep grid is {cfg.n_f} x {cfg.n_t}"
            )
        if custom.name in SYSTEM_NAMES:
            raise ValueError(f"custom profile name {custom.name!r} collides")
        profiles[custom.name] = custom
        out_names.append(custom.name)
    if REFERENCE_SYSTEM not in profiles:
        profiles[REFERENCE_SYSTEM] = build_profile(REFERENCE_SYSTEM, cfg.n_f, cfg.n_t)
    return out_names, profiles


#: Channel draws loaded per sweep_total_bits call, per granularity.  Each
#: loader's cost per call is mostly fixed numpy overhead, so more draws per
#: call spread it over more grids, while its memory grows with the batch.
#: The block filler traces under a tenth of the greedy's peak per draw,
#: so eight block draws peak below two greedy draws; four greedy
#: draws were only a little faster (see README "How a sweep is batched").
DRAWS_PER_CALL = {"subcarrier": 2, "block": 8}


def trial_gammas(cfg: SweepConfig, chan, pt_i: int, trial: int) -> np.ndarray:
    """Gammas of one (p_t index, trial) channel draw at every swept SNR
    point, as a (len(snr_db), n_f, n_t) stack.

    The draw is seeded by (seed, p_t index, trial) alone, so every system
    and SNR point of a trial shares it, whichever worker or batch loads it.
    """
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, pt_i, trial)))
    real = draw_realization(chan, cfg.n_f, cfg.n_t, rng, n_fft=cfg.n_fft)
    noise_vars = np.array([_noise_var(s) for s in cfg.snr_db])
    # every SNR point's grid at once
    return snr_grid(real, noise_vars[:, None, None]).gamma


def _sweep_chunk(cfg, chan, grids, lo, hi):
    """Per-trial bit totals for trials [lo, hi), as (p_t, snr, system, trial).

    The parent runs the first chunk of a sweep and forked children the rest
    (see _fan_out).  The chunk's (p_t, trial) draws are taken target-major
    and loaded DRAWS_PER_CALL[granularity] at a time, so a call may span
    two targets, and each SNR grid is compared with its own draw's target.
    Each sweep_total_bits call loads every SNR point and system of its
    draws, so memory does not grow with trials.  Each trial's gammas
    depend only on (seed, p_t index, trial) (see trial_gammas), and the
    loader's totals do not depend on which draws share a call, so neither
    the batching nor the split shows in the output.
    """
    n_snr, n_grids = len(cfg.snr_db), len(grids)
    out = np.zeros((len(cfg.p_t), n_snr, n_grids, hi - lo), dtype=np.int64)
    draws = np.array([(pt_i, trial) for pt_i in range(len(cfg.p_t)) for trial in range(lo, hi)])
    per_call = DRAWS_PER_CALL[cfg.granularity]
    for first in range(0, len(draws), per_call):
        batch = draws[first:first + per_call]
        gammas = np.concatenate([trial_gammas(cfg, chan, *draw) for draw in batch.tolist()])
        p_t = np.repeat(np.take(cfg.p_t, batch[:, 0]), n_snr)
        bits = sweep_total_bits(grids, gammas, p_t, cfg.granularity)
        out[batch[:, 0], :, :, batch[:, 1] - lo] = bits.reshape(len(batch), n_snr, n_grids)
    return out


def _chunk_child(conn, *task):
    """Body of a forked worker: send (True, chunk) or (False, exception)."""
    try:
        reply = (True, _sweep_chunk(*task))
    except Exception as exc:
        reply = (False, exc)
    conn.send(reply)
    conn.close()


def _fan_out(cfg, chan, grids, spans):
    """_sweep_chunk over each (lo, hi) span, returned in span order.

    A forked child runs each span after the first and sends its array back
    through a one-way pipe; meanwhile the parent runs the first span, so one
    span starts no process at all.  A child's exception is re-raised here,
    and a child that exits without a reply raises RuntimeError.  On any
    error, the parent's own included, the other children are terminated,
    and every child is joined before this returns or raises.
    """
    ctx = get_context("fork")
    children = []
    try:
        for lo, hi in spans[1:]:
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_chunk_child, args=(send, cfg, chan, grids, lo, hi))
            proc.start()
            send.close()  # the child's copy is then the only writer: EOF on exit
            children.append((proc, recv))
        chunks = [_sweep_chunk(cfg, chan, grids, *spans[0])]
        for proc, recv in children:
            try:
                ok, result = recv.recv()
            except EOFError:
                proc.join()
                raise RuntimeError(
                    f"sweep worker exited with code {proc.exitcode}") from None
            proc.join()
            if not ok:
                raise result
            chunks.append(result)
        return chunks
    finally:
        for proc, recv in children:
            if proc.exitcode is None:
                proc.terminate()
            proc.join()
            recv.close()


def sweep_points(cfg: SweepConfig, out_names, names, bits) -> list:
    """SweepPoints of per-trial bit totals, in output row order.

    bits is int (p_t, snr, system, trial), its system axis in the order of
    names, which must hold REFERENCE_SYSTEM; a row is written for each
    system of out_names.  The mean and ci95 are those of bits per position
    over trials (ci95 is nan for one trial), and eta_r divides a system's
    bits summed over trials by the reference's on the same draws, nan
    where the reference carried none.
    """
    per_position = bits / (cfg.n_f * cfg.n_t)
    if cfg.trials >= 2:
        means, halves = aggregate(per_position)
    else:
        means, halves = per_position[..., 0], np.full(per_position.shape[:-1], math.nan)
    totals = bits.sum(axis=3)
    ref_i = names.index(REFERENCE_SYSTEM)
    points = []
    for pt_i, p_t in enumerate(cfg.p_t):
        for name in out_names:
            g_i = names.index(name)
            for snr_i, snr in enumerate(cfg.snr_db):
                cell = pt_i, snr_i, g_i
                ref_total = int(totals[pt_i, snr_i, ref_i])
                own_total = int(totals[cell])
                eta = eta_r(own_total, ref_total) if ref_total > 0 else math.nan
                points.append(
                    SweepPoint(name, float(snr), float(p_t), cfg.trials,
                               float(means[cell]), float(halves[cell]), eta)
                )
    return points


def run_sweep(cfg: SweepConfig) -> list:
    """Run the configured sweep; returns SweepPoints in output row order."""
    out_names, profiles = _resolve_profiles(cfg)
    chan = (
        load_channel_profile(cfg.channel_file)
        if cfg.channel_file is not None
        else tux_profile()
    )
    # a profile that does not fit fails here, not in every forked worker
    check_dft_fit(chan, cfg.n_fft, cfg.n_f)
    grids = [p.grid for p in profiles.values()]
    workers = min(cfg.workers, cfg.trials)
    bounds = [(cfg.trials * i) // workers for i in range(workers + 1)]
    spans = list(zip(bounds[:-1], bounds[1:]))  # none empty: workers <= trials
    bits = np.concatenate(_fan_out(cfg, chan, grids, spans), axis=3)
    return sweep_points(cfg, out_names, list(profiles), bits)


def write_csv(points, fh):
    """Stable six-significant-digit CSV; the determinism contract is byte-level."""
    fh.write(CSV_HEADER + "\n")
    for p in points:
        fh.write(
            f"{p.system},{p.snr_db:.6g},{p.p_t:.6g},{p.trials},"
            f"{p.mean_bits_per_subcarrier:.6g},{p.ci95:.6g},{p.eta_r:.6g}\n"
        )


def series_payload(cfg: SweepConfig, points) -> list:
    """Per-SNR series grouped by (p_t, system), for external plotting."""
    blocks = []
    for p_t in cfg.p_t:
        rows = [p for p in points if p.p_t == float(p_t)]
        systems = {}
        for p in rows:
            entry = systems.setdefault(
                p.system, {"mean_bits_per_subcarrier": [], "ci95": [], "eta_r": []}
            )
            entry["mean_bits_per_subcarrier"].append(p.mean_bits_per_subcarrier)
            entry["ci95"].append(p.ci95)
            entry["eta_r"].append(p.eta_r)
        blocks.append(
            {"p_t": float(p_t), "snr_db": [float(s) for s in cfg.snr_db],
             "systems": systems}
        )
    return blocks


def run_ber_validation(n_symbols: int = 1_000_000, tolerance: float = 0.10,
                       seed: int = 0):
    """Compare every analytic BER model with the Monte Carlo simulator.

    Per scheme, targets are log-spaced across the usable BER range; the SNR
    for each target comes from the model's own inverse, so the check spans
    exactly the region the loader queries.  Returns (report rows, all_ok).
    """
    rows = []
    all_ok = True
    non_silent = [s for s in CATALOG if not s.silent]
    targets = np.geomspace(*VALIDATION_SPAN, N_VALIDATION_POINTS)
    for s_i, scheme in enumerate(non_silent):
        for t_i, target in enumerate(targets):
            gamma = min_snr_for(scheme, float(target))
            analytic = float(ber(scheme, gamma))
            boosted = math.ceil(VALIDATION_ERROR_FLOOR / (analytic * scheme.bits))
            n = max(n_symbols, boosted)
            cfg = SimConfig(scheme, gamma, n, seed * 1000 + s_i * 10 + t_i)
            empirical, _ci = simulate_ber(cfg)
            rel = abs(empirical - analytic) / analytic
            ok = rel <= tolerance
            all_ok &= ok
            rows.append((str(scheme), gamma, analytic, empirical, rel, ok))
    return rows, all_ok


def _print_validation_report(rows, fh):
    fh.write(
        f"{'scheme':<7} {'gamma':>12} {'analytic':>12} "
        f"{'empirical':>12} {'rel_err':>9}  status\n"
    )
    for name, gamma, analytic, empirical, rel, ok in rows:
        fh.write(
            f"{name:<7} {gamma:>12.6g} {analytic:>12.6g} "
            f"{empirical:>12.6g} {rel:>9.2%}  {'pass' if ok else 'FAIL'}\n"
        )
    n_fail = sum(not r[-1] for r in rows)
    fh.write(f"{len(rows) - n_fail}/{len(rows)} points passed\n")


def _entries(value, types, what) -> list:
    """A list-valued setting given in a config file, as a list of entries of
    the given types (a scalar is one entry; booleans never pass)."""
    values = value if isinstance(value, (list, tuple)) else [value]
    for v in values:
        if isinstance(v, bool) or not isinstance(v, types):
            raise TypeError(f"entries must be {what}, got {v!r}")
    return values


def _parse_systems(value) -> tuple:
    names = value.split(",") if isinstance(value, str) else _entries(value, str, "strings")
    return tuple(n.strip().lower() for n in names if n.strip())


def _parse_snr(value) -> tuple:
    if not isinstance(value, str):
        return tuple(float(v) for v in _entries(value, (int, float), "numbers"))
    if ":" not in value:
        return (float(value),)
    parts = value.split(":")
    if len(parts) != 3:
        raise ValueError("SNR range must be START:STEP:STOP")
    start, step, stop = (float(p) for p in parts)
    if step <= 0:
        raise ValueError("SNR step must be positive")
    if stop < start:
        raise ValueError("SNR stop must not precede start")
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return tuple(start + i * step for i in range(count))


def _parse_pt(value) -> tuple:
    if not isinstance(value, str):
        return tuple(float(v) for v in _entries(value, (int, float), "numbers"))
    return tuple(float(v) for v in value.split(",") if v.strip())


def _parse_int(value) -> int:
    """An integer setting: a JSON integer or a float without a fraction."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not float(value).is_integer()):
        raise TypeError(f"must be an integer, got {value!r}")
    return int(value)


def _parse_path(value):
    """A file path setting: a string, or null for the default."""
    if value is not None and not isinstance(value, str):
        raise TypeError(f"must be a path string or null, got {value!r}")
    return value


#: config-file key (also the argparse dest) -> (SweepConfig field, parser);
#: a key given neither as a flag nor in the file keeps the field's default
_SWEEP_KEYS = {
    "systems": ("systems", _parse_systems),
    "snr_db": ("snr_db", _parse_snr),
    "pt": ("p_t", _parse_pt),
    "trials": ("trials", _parse_int),
    "seed": ("seed", _parse_int),
    "nfft": ("n_fft", _parse_int),
    "n_f": ("n_f", _parse_int),
    "n_t": ("n_t", _parse_int),
    "granularity": ("granularity", str),
    "profile_file": ("profile_file", _parse_path),
    "channel_file": ("channel_file", _parse_path),
    "out": ("out", _parse_path),
    "series_out": ("series_out", _parse_path),
    "workers": ("workers", _parse_int),
}


def _build_sweep_config(args, parser) -> SweepConfig:
    file_cfg = {}
    if args.config is not None:
        try:
            file_cfg = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            parser.error(f"cannot read config {args.config}: {exc}")
        if not isinstance(file_cfg, dict):
            parser.error(f"config {args.config} must hold a JSON object")
        unknown = sorted(set(file_cfg) - set(_SWEEP_KEYS))
        if unknown:
            parser.error(f"unknown config keys: {', '.join(unknown)}")

    fields, given = {}, {}  # given: each set field as the user named it
    for key, (field, parse) in _SWEEP_KEYS.items():
        flag = getattr(args, key)
        if flag is None and key not in file_cfg:
            continue
        try:
            fields[field] = parse(file_cfg[key] if flag is None else flag)
        except (TypeError, OverflowError) as exc:
            parser.error(f"config key {key!r} {exc}")
        except ValueError as exc:
            parser.error(str(exc))
        given[field] = (f"config key {key!r}" if flag is None
                        else f"argument --{key.replace('_', '-')}")
    try:
        return SweepConfig(**fields)
    except ValueError as exc:
        # the refusal names fields; lead with the first one the user set
        named = [given[w] for w in re.findall(r"\w+", str(exc)) if w in given]
        parser.error(": ".join(named[:1] + [str(exc)]))


def _cmd_sweep(args, parser) -> int:
    cfg = _build_sweep_config(args, parser)
    try:
        points = run_sweep(cfg)
    except (ValueError, OSError) as exc:
        parser.error(str(exc))
    try:
        if cfg.out is None:
            write_csv(points, sys.stdout)
        else:
            with open(cfg.out, "w") as fh:
                write_csv(points, fh)
        if cfg.series_out is not None:
            Path(cfg.series_out).write_text(
                json.dumps(series_payload(cfg, points), indent=1) + "\n"
            )
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_validate_ber(args, parser) -> int:
    if args.symbols < 10_000:
        parser.error(f"--symbols must be >= 10000, got {args.symbols}")
    if args.tolerance < 0:
        parser.error("--tolerance must be non-negative")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    rows, all_ok = run_ber_validation(args.symbols, args.tolerance, args.seed)
    _print_validation_report(rows, sys.stdout)
    return 0 if all_ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ofdmse",
        description="Spectral-efficiency evaluation of modulation-constrained "
                    "OFDM systems by BER-constrained bit loading.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run a Monte Carlo throughput sweep")
    sweep.add_argument("--systems", help="comma list from: fb,cm,lte,mlte")
    sweep.add_argument("--snr-db", dest="snr_db",
                       help="START:STEP:STOP in dB, or a single value")
    sweep.add_argument("--pt", help="comma list of average-BER targets")
    sweep.add_argument("--trials", type=int, help="channel draws per cell")
    sweep.add_argument("--seed", type=int, help="master seed")
    sweep.add_argument("--nfft", type=int, help="DFT size for the channel")
    sweep.add_argument("--granularity", choices=("subcarrier", "block"),
                       help="per-position loading or one scheme per block")
    sweep.add_argument("--profile-file", dest="profile_file",
                       help="text map adding a custom system profile")
    sweep.add_argument("--channel-file", dest="channel_file",
                       help="power-delay profile replacing the built-in one")
    sweep.add_argument("--out", help="CSV path (default: stdout)")
    sweep.add_argument("--series-out", dest="series_out",
                       help="JSON per-SNR series for plotting")
    sweep.add_argument("--workers", type=int, help="worker processes")
    sweep.add_argument("--config", help="JSON file with defaults for any flag")
    sweep.set_defaults(n_f=None, n_t=None, handler=_cmd_sweep)

    vb = sub.add_parser("validate-ber",
                        help="check analytic BER models against simulation")
    vb.add_argument("--symbols", type=int, default=1_000_000,
                    help="baseline symbols per point (raised where BER is low)")
    vb.add_argument("--tolerance", type=float, default=0.10,
                    help="maximum relative disagreement")
    vb.add_argument("--seed", type=int, default=0)
    vb.set_defaults(handler=_cmd_validate_ber)

    args = parser.parse_args(argv)
    return args.handler(args, parser)


if __name__ == "__main__":
    sys.exit(main())

"""An independent reference sweep, compared byte for byte with run_sweep.

reference_csv derives the sweep again from public single-grid names only:
its own SeedSequence per (target, trial) draw, draw_realization, snr_grid
per SNR point, greedy_allocate or block_allocate per grid, then aggregate,
eta_r and write_csv.  It shares no code with the sweep's stages, so a fault
in the seeding, the batched loading, the scatter into (target, trial)
slots, the split over workers, the aggregation or the eta_r reference
shows as a byte difference.  The property draws small configs, including
what the golden CSVs never vary: fb absent from the systems or not first,
a custom profile, one trial, odd trial counts over two targets, both
granularities and 1-3 workers.  Technique: differential testing (McKeeman,
1998) with property-based inputs (Claessen and Hughes, QuickCheck, 2000).
"""

import io
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ofdmse import (
    SweepConfig,
    SweepPoint,
    aggregate,
    block_allocate,
    build_profile,
    draw_realization,
    eta_r,
    greedy_allocate,
    load_profile,
    run_sweep,
    snr_grid,
    tux_profile,
)
from ofdmse.cli import write_csv

#: the orders a custom profile may name per family, each column from order 1
ORDERS = {"ask": (1, 2, 4, 8), "psk": (1, 2, 4, 8, 16), "qam": (1, 4, 16, 64)}

#: one custom-profile position's families, such as "psk:8,qam:16"
position_families = st.lists(st.sampled_from(sorted(ORDERS)), min_size=1, max_size=3,
                             unique=True).flatmap(
    lambda fams: st.tuples(*(st.sampled_from(ORDERS[f]).map(f"{f}:{{}}".format)
                             for f in fams))).map(",".join)


def reference_csv(cfg: SweepConfig) -> str:
    """The sweep's CSV, one draw, SNR point and grid at a time."""
    names = list(cfg.systems)
    grids = {n: build_profile(n, cfg.n_f, cfg.n_t).grid for n in names}
    if cfg.profile_file is not None:
        custom = load_profile(cfg.profile_file)
        names.append(custom.name)
        grids[custom.name] = custom.grid
    # fb is the eta_r denominator, loaded whether or not it is written
    grids.setdefault("fb", build_profile("fb", cfg.n_f, cfg.n_t).grid)
    allocate = greedy_allocate if cfg.granularity == "subcarrier" else block_allocate
    points = []
    for pt_i, p_t in enumerate(cfg.p_t):
        bits = {(n, snr_db): [] for n in grids for snr_db in cfg.snr_db}
        for trial in range(cfg.trials):
            rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, pt_i, trial)))
            real = draw_realization(tux_profile(), cfg.n_f, cfg.n_t, rng, n_fft=cfg.n_fft)
            for snr_db in cfg.snr_db:
                snr = snr_grid(real, 10.0 ** (-snr_db / 10.0))
                for n, grid in grids.items():
                    bits[n, snr_db].append(allocate(snr, grid, p_t).total_bits)
        for n in names:
            for snr_db in cfg.snr_db:
                per_position = np.array(bits[n, snr_db]) / (cfg.n_f * cfg.n_t)
                if cfg.trials >= 2:
                    mean, half = aggregate(per_position)
                else:
                    mean, half = per_position[0], math.nan
                ref = sum(bits["fb", snr_db])
                eta = eta_r(sum(bits[n, snr_db]), ref) if ref > 0 else math.nan
                points.append(SweepPoint(n, float(snr_db), float(p_t), cfg.trials,
                                         float(mean), float(half), eta))
    buf = io.StringIO()
    write_csv(points, buf)
    return buf.getvalue()


@st.composite
def sweep_cases(draw):
    """(SweepConfig fields without profile_file, custom profile rows or None)."""
    n_f, n_t = draw(st.sampled_from([(12, 7), (10, 5)]))
    fields = dict(
        systems=tuple(draw(st.lists(st.sampled_from(["fb", "cm", "lte", "mlte"]),
                                    min_size=1, max_size=4, unique=True))),
        snr_db=tuple(draw(st.lists(st.sampled_from([-30.0, 0.0, 13.0, 27.5, 40.0, 60.0]),
                                   min_size=1, max_size=4, unique=True))),
        p_t=tuple(draw(st.lists(st.sampled_from([1e-3, 1e-2, 0.2]),
                                min_size=1, max_size=2, unique=True))),
        trials=draw(st.integers(1, 5)),
        seed=draw(st.integers(0, 2 ** 16)),
        n_f=n_f,
        n_t=n_t,
        granularity=draw(st.sampled_from(["subcarrier", "block"])),
        workers=draw(st.integers(1, 3)),
    )
    custom = draw(st.none() | st.lists(position_families, min_size=n_f * n_t,
                                       max_size=n_f * n_t))
    return fields, custom


MIXED = ["qam:64,psk:2", "psk:16", "ask:4", "qam:16,ask:8,psk:4"] * 21


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(case=sweep_cases())
# fb absent, so eta_r must read the fb column appended for it; a custom
# profile; three trials over two targets on three workers
@example(case=(dict(systems=("lte", "cm"), snr_db=(-30.0, 13.0, 40.0), p_t=(1e-2, 1e-3),
                    trials=3, seed=5, n_f=12, n_t=7, granularity="subcarrier", workers=3),
               MIXED))
# fb not first, one trial, block granularity
@example(case=(dict(systems=("mlte", "fb"), snr_db=(27.5,), p_t=(1e-3,), trials=1, seed=0,
                    n_f=12, n_t=7, granularity="block", workers=1), None))
# five block trials over two targets on two workers, with a custom profile
@example(case=(dict(systems=("cm", "lte", "fb"), snr_db=(0.0, 60.0), p_t=(1e-3, 0.2),
                    trials=5, seed=9, n_f=10, n_t=5, granularity="block", workers=2),
               MIXED[:50]))
def test_run_sweep_matches_reference(case):
    fields, custom = case
    with tempfile.TemporaryDirectory() as tmp:
        if custom is not None:
            lines = [f"{fields['n_f']} {fields['n_t']}"]
            lines += [f"{i % fields['n_f']} {i // fields['n_f']} data {fams}"
                      for i, fams in enumerate(custom)]
            path = Path(tmp) / "custom.txt"
            path.write_text("\n".join(lines) + "\n")
            fields = dict(fields, profile_file=str(path))
        cfg = SweepConfig(**fields)
        buf = io.StringIO()
        write_csv(run_sweep(cfg), buf)
        assert buf.getvalue() == reference_csv(cfg)

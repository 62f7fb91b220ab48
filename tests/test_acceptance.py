"""End-to-end acceptance gate for the evaluation engine.

Each check prints exactly one PASS/FAIL line with its measured numbers, so
the suite output reads as a checklist (pytest's -rP shows the lines for
passing tests too).  The system-comparison checks share one default sweep
(four systems, 0-40 dB, 1000 paired trials, seed 0); it is executed twice,
with different worker counts, because byte-level CSV reproducibility is
part of the contract.
"""

from __future__ import annotations

import hashlib
import io
import time
from dataclasses import replace

import numpy as np
import pytest
import scipy

from ofdmse.channel import draw_realization, snr_grid, tux_profile
from ofdmse.cli import SweepConfig, run_ber_validation, run_sweep, write_csv
from ofdmse.loading import evaluate_avg_ber, exhaustive_allocate, greedy_allocate
from ofdmse.metrics import eta_r, spectral_efficiency
from ofdmse.systems import build_profile


def _report(ok: bool, label: str, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"{label}: {detail}"


def _single_swap_improves(alloc, snr, constraints, p_t: float) -> bool:
    """True if raising any one position's order still meets the BER target.

    Slack of 1e-9 relative so rejections that the allocator decided at the
    ulp level do not count as missed improvements.
    """
    rows = [list(r) for r in alloc.schemes]
    for k in range(len(rows)):
        for l in range(len(rows[0])):
            cur = rows[k][l]
            for cand in constraints.allowed[k][l]:
                if cand.bits <= cur.bits:
                    continue
                rows[k][l] = cand
                avg = evaluate_avg_ber(rows, snr)
                rows[k][l] = cur
                if avg <= p_t * (1.0 - 1e-9):
                    return True
    return False


@pytest.fixture(scope="module")
def default_sweep():
    cfg = SweepConfig()
    t0 = time.perf_counter()
    points = run_sweep(cfg)
    elapsed = time.perf_counter() - t0
    buf1 = io.StringIO()
    write_csv(points, buf1)
    buf3 = io.StringIO()
    write_csv(run_sweep(replace(cfg, workers=3)), buf3)
    return {
        "cfg": cfg,
        "elapsed": elapsed,
        "csv_w1": buf1.getvalue(),
        "csv_w3": buf3.getvalue(),
        "by": {(p.system, p.snr_db): p for p in points},
    }


def test_closed_form_efficiency_ratios():
    zeta = spectral_efficiency(84, 4)
    ratio = eta_r(np.sum(np.full((12, 7), 2.0)), np.sum(np.full((12, 7), 6.0)))
    ok = abs(zeta - 0.952381) <= 5e-7 and ratio == 1 / 3
    _report(
        ok,
        "closed-form ratios",
        f"efficiency(84 positions, 4 pilots)={zeta:.6f} (want 0.952381); "
        f"eta_R(all-QPSK vs all-64QAM)={float(ratio)!r} (want exactly 1/3)",
    )


def test_channel_mean_power_is_unity():
    rng = np.random.default_rng(20260823)
    gains = draw_realization(tux_profile(), 12, 100_000, rng)
    power = np.abs(gains) ** 2
    per_subcarrier = power.mean(axis=1)
    dev = float(np.max(np.abs(per_subcarrier - 1.0)))
    _report(
        dev <= 0.02,
        "channel power normalization",
        f"mean |H|^2 over 1e5 draws in "
        f"[{per_subcarrier.min():.4f}, {per_subcarrier.max():.4f}] "
        f"across 12 subcarriers (max deviation {dev:.4f}, tol 0.02)",
    )


def test_greedy_tracks_exhaustive_optimum():
    t0 = time.perf_counter()
    grid = build_profile("fb", 2, 2).grid
    rng = np.random.default_rng(424242)
    feasible = maximal = bounded = 0
    gaps, rel_gaps = [], []
    n_cases = 0
    for _ in range(50):
        real = draw_realization(tux_profile(), 2, 2, rng)
        noise_var = 10.0 ** (-rng.uniform(0.0, 40.0) / 10.0)
        snr = snr_grid(real, noise_var)
        for p_t in (1e-2, 1e-3):
            n_cases += 1
            g = greedy_allocate(snr, grid, p_t)
            ex = exhaustive_allocate(snr, grid, p_t)
            feasible += g.avg_ber <= p_t
            maximal += not _single_swap_improves(g, snr, grid, p_t)
            bounded += g.total_bits <= ex.total_bits
            gaps.append(ex.total_bits - g.total_bits)
            rel_gaps.append(
                (ex.total_bits - g.total_bits) / ex.total_bits
                if ex.total_bits
                else 0.0
            )
    elapsed = time.perf_counter() - t0
    ok = feasible == maximal == bounded == n_cases and elapsed <= 120.0
    _report(
        ok,
        "greedy vs exhaustive oracle",
        f"{n_cases} random 2x2 instances: feasible {feasible}/{n_cases}, "
        f"locally maximal {maximal}/{n_cases}, bits <= optimum {bounded}/{n_cases}; "
        f"mean gap {np.mean(gaps):.3f} bits ({100 * np.mean(rel_gaps):.2f}% rel); "
        f"{elapsed:.1f}s (limit 120)",
    )


def test_ber_models_match_simulation():
    t0 = time.perf_counter()
    rows, all_ok = run_ber_validation()
    elapsed = time.perf_counter() - t0
    n_pass = sum(1 for r in rows if r[5])
    worst = max(r[4] for r in rows)
    _report(
        all_ok and elapsed <= 300.0,
        "BER model validation",
        f"{n_pass}/{len(rows)} scheme/SNR points within 10% of simulation "
        f"(worst rel err {100 * worst:.2f}%); {elapsed:.1f}s (limit 300)",
    )


def test_lte_relative_efficiency_plateau(default_sweep):
    cfg, by = default_sweep["cfg"], default_sweep["by"]
    etas = [by[("lte", s)].eta_r for s in cfg.snr_db]
    eta_top = by[("lte", cfg.snr_db[-1])].eta_r
    in_band = all(0.93 <= e <= 0.97 for e in etas)
    endpoint = abs(eta_top - 0.952) <= 0.005
    _report(
        in_band and endpoint,
        "LTE relative-efficiency plateau",
        f"eta_R(lte) in [{min(etas):.4f}, {max(etas):.4f}] over {len(etas)} "
        f"points (band [0.93, 0.97]); 40 dB value {eta_top:.4f} "
        f"(want 0.952 +/- 0.005)",
    )


def test_high_snr_throughput_ceilings(default_sweep):
    cfg, by = default_sweep["cfg"], default_sweep["by"]
    top = cfg.snr_db[-1]
    fb, cm = by[("fb", top)], by[("cm", top)]
    lte, mlte = by[("lte", top)], by[("mlte", top)]
    fb_ok = abs(fb.mean_bits_per_subcarrier - 6.00) <= 0.01
    cm_ok = abs(cm.mean_bits_per_subcarrier - 4.00) <= 0.01
    sep_ok = (
        mlte.mean_bits_per_subcarrier - mlte.ci95
        > lte.mean_bits_per_subcarrier + lte.ci95
    )
    _report(
        fb_ok and cm_ok and sep_ok,
        "40 dB throughput ceilings",
        f"fb {fb.mean_bits_per_subcarrier:.4f} in 6.00+/-0.01: {fb_ok}; "
        f"cm {cm.mean_bits_per_subcarrier:.4f} in 4.00+/-0.01: {cm_ok}; "
        f"mlte {mlte.mean_bits_per_subcarrier:.4f}+/-{mlte.ci95:.4f} above "
        f"lte {lte.mean_bits_per_subcarrier:.4f}+/-{lte.ci95:.4f} with "
        f"disjoint CIs: {sep_ok}",
    )


def test_lte_outperforms_cm_over_wide_range(default_sweep):
    cfg, by = default_sweep["cfg"], default_sweep["by"]
    snrs = list(cfg.snr_db)
    sep = [
        by[("lte", s)].mean_bits_per_subcarrier - by[("lte", s)].ci95
        > by[("cm", s)].mean_bits_per_subcarrier + by[("cm", s)].ci95
        for s in snrs
    ]
    width, lo, hi = -1.0, None, None
    i = 0
    while i < len(snrs):
        if sep[i]:
            j = i
            while j + 1 < len(snrs) and sep[j + 1]:
                j += 1
            if snrs[j] - snrs[i] > width:
                width, lo, hi = snrs[j] - snrs[i], snrs[i], snrs[j]
            i = j + 1
        else:
            i += 1
    cm_etas = [by[("cm", s)].eta_r for s in snrs[:3]]
    trend = cm_etas[0] <= cm_etas[1] <= cm_etas[2]
    span = f"[{lo:g}, {hi:g}] dB ({width:g} dB wide)" if width >= 0 else "none"
    _report(
        width >= 10.0 and trend,
        "LTE-over-CM operating range",
        f"throughput(lte) > throughput(cm) with disjoint CIs over {span}, "
        f"need >= 10 dB; eta_R(cm) over lowest three points "
        f"{[f'{e:.6f}' for e in cm_etas]} non-decreasing: {trend}",
    )


def test_mlte_tracks_lte_at_low_snr(default_sweep):
    cfg, by = default_sweep["cfg"], default_sweep["by"]
    rel = []
    for s in cfg.snr_db[:3]:
        a = by[("lte", s)].mean_bits_per_subcarrier
        b = by[("mlte", s)].mean_bits_per_subcarrier
        rel.append(abs(a - b) / max(a, b, 1e-12))
    worst = max(rel)
    _report(
        worst <= 0.05,
        "MLTE/LTE low-SNR near-equivalence",
        f"relative throughput gap at {[f'{s:g}' for s in cfg.snr_db[:3]]} dB: "
        f"{[f'{100 * r:.2f}%' for r in rel]} (worst {100 * worst:.2f}%, "
        f"tol 5%)",
    )


#: SHA-256 of the CSV of the default sweep, and of the same sweep in block
#: granularity at p_t 1e-3 and 1e-2: the output contract.  Pinned with
#: numpy 2.4.6 and scipy 1.17.1; the BER floats come from their erfc and
#: owens_t, so other versions may change a last digit.
DEFAULT_SWEEP_SHA256 = "6a46f659fbb4e38419cc8c91b70c512918c06512fb398397e280df8d7bd73075"
BLOCK_SWEEP_SHA256 = "f7c78c80615c30ddd0fb211220aa52b3c3ea15331fd6ea8a2d54b62cbae32ced"


def _sha256(csv_text: str) -> str:
    return hashlib.sha256(csv_text.encode()).hexdigest()


def test_sweep_determinism_and_runtime(default_sweep):
    digests = {_sha256(default_sweep["csv_w1"]), _sha256(default_sweep["csv_w3"])}
    block = io.StringIO()
    write_csv(run_sweep(replace(default_sweep["cfg"], granularity="block", p_t=(1e-3, 1e-2))),
              block)
    block_digest = _sha256(block.getvalue())
    elapsed = default_sweep["elapsed"]
    _report(
        digests == {DEFAULT_SWEEP_SHA256} and block_digest == BLOCK_SWEEP_SHA256
        and elapsed <= 600.0,
        "sweep determinism",
        f"default sweep SHA-256 on 1 and 3 workers {sorted(d[:16] for d in digests)} "
        f"(want {DEFAULT_SWEEP_SHA256[:16]}); block sweep on 1 worker {block_digest[:16]} "
        f"(want {BLOCK_SWEEP_SHA256[:16]}); pinned with numpy 2.4.6 and scipy 1.17.1, "
        f"running {np.__version__} and {scipy.__version__}; "
        f"full default sweep {elapsed:.0f}s (limit 600)",
    )

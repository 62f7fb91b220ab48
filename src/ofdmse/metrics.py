"""Spectral-efficiency metrics plus Monte Carlo aggregation.

The headline quantity is the relative spectral efficiency: the ratio of total
information bits two systems carry over the same ensemble of channel draws.
The unconstrained full-bit-loading system serves as the reference, so the
ratio isolates what the modulation constraints cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def spectral_efficiency(n_total: int, n_pilots: int) -> float:
    """Fraction of grid positions free to carry data: 1 - n_pilots / n_total."""
    if n_total <= 0:
        raise ValueError(f"need a positive position count, got {n_total!r}")
    if not 0 <= n_pilots <= n_total:
        raise ValueError(f"pilot count {n_pilots!r} outside [0, {n_total}]")
    return 1.0 - n_pilots / n_total


def eta_r(bits_system, bits_reference) -> float:
    """Relative spectral efficiency: system bits over reference bits.

    Both operands are bit totals summed over the same paired channel draws.
    The ratio of sums stays stable at low SNR where single-trial reference
    totals can hit zero; a zero ensemble-wide reference is still undefined.
    """
    if bits_reference <= 0:
        raise ValueError("reference system carried no bits; ratio undefined")
    if bits_system < 0:
        raise ValueError(f"negative bit total {bits_system!r}")
    return bits_system / bits_reference


def aggregate(values):
    """Sample mean and 95% half-width, 1.96 * std / sqrt(n), over trials.

    Reduces over the last axis: a (..., trials) array gives arrays of the
    leading shape, a 1-D series gives scalars.  A row reduction over a
    C-contiguous last axis is bit-identical to the 1-D call.  Values must
    arrive in trial-index order so repeated runs reduce the same way.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim < 1 or arr.shape[-1] < 2:
        raise ValueError("need at least two trial values along the last axis")
    mean = np.mean(arr, axis=-1)
    half = 1.96 * np.std(arr, axis=-1, ddof=1) / np.sqrt(arr.shape[-1])
    return mean, half


@dataclass(frozen=True)
class SweepPoint:
    """One aggregated sweep cell, matching the output CSV column order."""

    system: str
    snr_db: float
    p_t: float
    trials: int
    mean_bits_per_subcarrier: float
    ci95: float
    eta_r: float

"""Symbol-level Monte Carlo bit-error simulation.

Independent empirical route against which the closed-form BER models are
validated: random bits are Gray-mapped onto the unit-average-energy
constellation, passed through additive circularly symmetric complex Gaussian
noise of total variance 1/gamma, and detected by minimum Euclidean distance.
Each transmitted point is read from a per-scheme table of the constellation,
built with the per-symbol expressions, so a batch evaluates no complex
exponential per symbol.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .modulation import ModulationFamily, ModulationScheme

#: symbols per simulation batch; fixed so a given seed always yields the same count
BATCH_SYMBOLS = 250_000

MIN_SYMBOLS = 10_000


@dataclass(frozen=True)
class SimConfig:
    """One Monte Carlo run: scheme, SNR, sample size and seed."""

    scheme: ModulationScheme
    gamma: float
    n_symbols: int = 1_000_000
    seed: int = 0

    def __post_init__(self):
        if self.scheme.silent:
            raise ValueError("cannot simulate the silent order")
        if not (self.gamma > 0.0 and np.isfinite(self.gamma)):
            raise ValueError(f"gamma must be positive and finite, got {self.gamma!r}")
        if self.n_symbols < MIN_SYMBOLS:
            raise ValueError(f"n_symbols must be >= {MIN_SYMBOLS}, got {self.n_symbols}")


def _gray_codes(n: int) -> np.ndarray:
    i = np.arange(n)
    return i ^ (i >> 1)


def _bit_error_table(n_bits: int) -> np.ndarray:
    x = np.arange(1 << n_bits)
    table = np.zeros_like(x)
    while np.any(x):
        table += x & 1
        x = x >> 1
    return table


def _constellation(scheme: ModulationScheme) -> tuple[np.ndarray, float]:
    """The transmitted point of every symbol index, built with the per-symbol
    expressions on np.arange(order), and the scale detection divides by:
    half the level spacing for QAM, the spacing for ASK, 1.0 for PSK."""
    order = scheme.order
    sym = np.arange(order)
    if scheme.family == ModulationFamily.PSK:
        return np.exp(2j * np.pi * sym / order), 1.0
    if scheme.family == ModulationFamily.QAM:
        side = 1 << (scheme.bits // 2)
        half = np.sqrt(3.0 / (2.0 * (order - 1)))  # half the level spacing
        si, sq = sym // side, sym % side
        return ((2 * si - (side - 1)) + 1j * (2 * sq - (side - 1))) * half, half
    # unipolar ASK on the real axis
    step = np.sqrt(6.0 / ((order - 1) * (2 * order - 1)))
    return sym * step, step


def _simulate_batch(scheme: ModulationScheme, gamma: float, n: int,
                    rng: np.random.Generator) -> int:
    """Bit errors over `n` symbols; exact ML detection per constellation geometry."""
    order = scheme.order
    k = scheme.bits
    labels = _gray_codes(order)
    popcount = _bit_error_table(k)
    sent = rng.integers(0, order, n)
    noise = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * np.sqrt(0.5 / gamma)
    points, scale = _constellation(scheme)
    y = points[sent] + noise
    if scheme.family == ModulationFamily.PSK:
        det = np.mod(np.round(np.angle(y) * order / (2.0 * np.pi)).astype(np.int64), order)
        return int(popcount[labels[sent] ^ labels[det]].sum())
    if scheme.family == ModulationFamily.QAM:
        side = 1 << (k // 2)
        axis_gray = _gray_codes(side)
        si, sq = sent // side, sent % side
        di = np.clip(np.round((y.real / scale + side - 1) / 2.0).astype(np.int64), 0, side - 1)
        dq = np.clip(np.round((y.imag / scale + side - 1) / 2.0).astype(np.int64), 0, side - 1)
        sent_label = (axis_gray[si] << (k // 2)) | axis_gray[sq]
        det_label = (axis_gray[di] << (k // 2)) | axis_gray[dq]
        return int(popcount[sent_label ^ det_label].sum())
    det = np.clip(np.round(y.real / scale).astype(np.int64), 0, order - 1)
    return int(popcount[labels[sent] ^ labels[det]].sum())


def simulate_ber(config: SimConfig) -> tuple[float, float]:
    """Run the Monte Carlo simulation described by `config`.

    Returns
    -------
    (ber, ci95)
        Empirical bit error rate and the 95% binomial half-width
        1.96 * sqrt(p(1-p)/n_bits).  Deterministic for a fixed config: batches
        draw from streams derived from (seed, batch index), so the error count
        does not depend on scheduling.
    """
    errors = 0
    done = 0
    batch = 0
    while done < config.n_symbols:
        n = min(BATCH_SYMBOLS, config.n_symbols - done)
        rng = np.random.default_rng(np.random.SeedSequence((config.seed, batch)))
        errors += _simulate_batch(config.scheme, config.gamma, n, rng)
        done += n
        batch += 1
    n_bits = config.n_symbols * config.scheme.bits
    p = errors / n_bits
    ci95 = 1.96 * np.sqrt(p * (1.0 - p) / n_bits)
    return p, ci95

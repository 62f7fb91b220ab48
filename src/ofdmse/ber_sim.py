"""Symbol-level Monte Carlo bit-error simulation.

Independent empirical route against which the closed-form BER models are
validated: random bits are Gray-mapped onto the unit-average-energy
constellation, passed through additive circularly symmetric complex Gaussian
noise of total variance 1/gamma, and detected by minimum Euclidean distance.
Each scheme's tables are built once, read-only; a batch draws its random
numbers, detects in place and counts its errors with one table gather.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import lru_cache

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
        if not isinstance(self.scheme, ModulationScheme):
            raise TypeError(f"scheme must be a ModulationScheme, got {self.scheme!r}")
        if isinstance(self.gamma, bool) or not isinstance(self.gamma, numbers.Real):
            raise TypeError(f"gamma must be a real number, got {self.gamma!r}")
        for name in ("n_symbols", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise TypeError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.scheme.silent:
            raise ValueError("cannot simulate the silent order")
        if not (self.gamma > 0.0 and np.isfinite(self.gamma)):
            raise ValueError(f"gamma must be positive and finite, got {self.gamma!r}")
        if self.n_symbols < MIN_SYMBOLS:
            raise ValueError(f"n_symbols must be >= {MIN_SYMBOLS}, got {self.n_symbols}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


def _gray_codes(n: int) -> np.ndarray:
    i = np.arange(n)
    return i ^ (i >> 1)


def _bit_error_table(n_bits: int) -> np.ndarray:
    return np.array([bin(x).count("1") for x in range(1 << n_bits)])


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


def _labels(scheme: ModulationScheme) -> np.ndarray:
    """The Gray label of every symbol index: the symbol's Gray code, and for
    QAM the Gray codes of its two axis levels side by side."""
    if scheme.family != ModulationFamily.QAM:
        return _gray_codes(scheme.order)
    half_bits = scheme.bits // 2
    side = 1 << half_bits
    axis_gray = _gray_codes(side)
    sym = np.arange(scheme.order)
    return (axis_gray[sym // side] << half_bits) | axis_gray[sym % side]


@lru_cache(maxsize=None)
def _scheme_tables(scheme: ModulationScheme) -> tuple[np.ndarray, np.ndarray, float, np.ndarray]:
    """The real and imaginary parts of `scheme`'s points, its detection scale
    and its (order, order) bit-error table, popcount(label[s] ^ label[d])."""
    points, scale = _constellation(scheme)
    labels = _labels(scheme)
    re, im = points.real.copy(), points.imag.copy()
    errs = _bit_error_table(scheme.bits)[labels[:, None] ^ labels]
    for table in (re, im, errs):
        table.flags.writeable = False
    return re, im, scale, errs


def _simulate_batch(scheme: ModulationScheme, gamma: float, n: int,
                    rng: np.random.Generator) -> int:
    """Bit errors over `n` symbols; exact ML detection per constellation geometry.

    The rows of `y` hold the real and imaginary parts of points[sent] +
    (a + 1j b) sqrt(0.5 / gamma) for noise draws a and b, rewritten in place
    with the per-symbol expression's floats.  ASK reads y.real alone, never b.
    """
    order = scheme.order
    re, im, scale, errs = _scheme_tables(scheme)
    sent = rng.integers(0, order, n)
    y = np.empty((1 if scheme.family == ModulationFamily.ASK else 2, n))
    for row, part in zip(y, (re, im)):
        rng.standard_normal(out=row)
        row *= np.sqrt(0.5 / gamma)
        row += part[sent]
    if scheme.family == ModulationFamily.PSK:
        # np.angle(y) is this arctan2; & (order - 1) is np.mod by the power-of-two order
        det = np.arctan2(y[1], y[0], out=y[0])
        det *= order
        det /= 2.0 * np.pi
        det = np.round(det, out=det).astype(np.int64)
        det &= order - 1
    else:
        # the nearest level per axis: y / scale for ASK, ((y / scale + side) - 1) / 2 for QAM
        side = 1 << (scheme.bits // 2) if scheme.family == ModulationFamily.QAM else order
        y /= scale
        if scheme.family == ModulationFamily.QAM:
            y += side
            y -= 1
            y /= 2.0
        axes = np.round(y, out=y).astype(np.int64)
        det = np.clip(axes, 0, side - 1, out=axes)[0]
        if scheme.family == ModulationFamily.QAM:
            # the symbol index of the axis levels, numbered as in _constellation
            det *= side
            det += axes[1]
    sent *= order
    return int(np.take(errs, np.add(sent, det, out=sent)).sum())


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

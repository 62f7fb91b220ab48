"""Modulation scheme catalog and exact Gray-coded AWGN bit-error models.

The catalog is the fixed menu of (family, order) pairs a subcarrier may use.
Order 1 means the position stays silent and carries no bits.  All BER models
assume unit average symbol energy, coherent minimum-distance detection and
circularly symmetric complex noise with total variance 1/gamma, so gamma is
the instantaneous per-symbol SNR.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from functools import lru_cache

import numpy as np
from scipy.special import erfc, owens_t


class ModulationFamily(IntEnum):
    """Constellation families, in canonical catalog order."""

    ASK = 1
    PSK = 2
    QAM = 3


#: Orders available per family; order 1 is the silent placeholder.
FAMILY_ORDERS = {
    ModulationFamily.ASK: (1, 2, 4, 8),
    ModulationFamily.PSK: (1, 2, 4, 8, 16),
    ModulationFamily.QAM: (1, 4, 16, 64),
}


@dataclass(frozen=True, order=True)
class ModulationScheme:
    """A (family, order) pair drawn from the catalog."""

    family: ModulationFamily
    order: int

    def __post_init__(self):
        orders = FAMILY_ORDERS.get(ModulationFamily(self.family))
        if self.order not in orders:
            raise ValueError(
                f"order {self.order} not in the {ModulationFamily(self.family).name} "
                f"catalog column {orders}"
            )

    @property
    def bits(self) -> int:
        """Bits per symbol, log2(order); 0 for the silent order."""
        return self.order.bit_length() - 1

    @property
    def silent(self) -> bool:
        return self.order == 1

    def __str__(self):
        return f"{self.family.name}{self.order}"


def catalog() -> tuple[ModulationScheme, ...]:
    """Full scheme catalog, families in ASK < PSK < QAM order, orders ascending."""
    return CATALOG


CATALOG = tuple(
    ModulationScheme(fam, m) for fam in ModulationFamily for m in FAMILY_ORDERS[fam]
)
CATALOG_INDEX = {s: i for i, s in enumerate(CATALOG)}
CATALOG_BITS = np.array([s.bits for s in CATALOG])
N_SCHEMES = len(CATALOG)


def scheme_from_name(name: str) -> ModulationScheme:
    """Parse 'PSK16', 'ask2', ... back into a catalog scheme."""
    text = name.strip().upper()
    for fam in ModulationFamily:
        if text.startswith(fam.name):
            tail = text[len(fam.name):]
            if not tail.isdigit():
                break
            return ModulationScheme(fam, int(tail))
    raise ValueError(f"unrecognized scheme name: {name!r}")


def bits(scheme: ModulationScheme) -> int:
    """Bits per symbol carried by `scheme`."""
    return scheme.bits


def _qfunc(x):
    # Gaussian tail via the complementary error integral, library-grade accuracy.
    return 0.5 * erfc(np.asarray(x, dtype=float) / np.sqrt(2.0))


def _gray(i: int) -> int:
    return i ^ (i >> 1)


def _popcount(x: int) -> int:
    return bin(x).count("1")


@lru_cache(maxsize=None)
def _psk_wedge_weights(order: int) -> tuple[float, ...]:
    """Mean Hamming distance between Gray labels `m` positions apart on the circle."""
    labels = [_gray(i) for i in range(order)]
    return tuple(
        sum(_popcount(labels[i] ^ labels[(i + m) % order]) for i in range(order)) / order
        for m in range(order)
    )


def _phase_exceedance(psi: float, gamma):
    """P(|received phase error| > psi one-sided), psi in (0, pi).

    For a unit-amplitude signal in complex noise of variance 1/gamma the
    probability that the phase error exceeds psi is a cone probability of a
    bivariate normal, which reduces to a Q term plus an Owen's T term.
    """
    h = np.sqrt(2.0 * gamma) * np.sin(psi)
    return 0.5 * _qfunc(h) + owens_t(h, 1.0 / np.tan(psi))


def _psk_gray_ber(order: int, gamma: np.ndarray) -> np.ndarray:
    """Exact Gray-coded M-PSK bit error probability at symbol SNR gamma.

    Sums bit errors over the M-1 angular decision wedges; wedge probabilities
    are differences of exact phase-exceedance terms.  Each decision boundary
    (2j-1)pi/M, j = 1..M/2, is evaluated once and shared by the two wedges
    it separates.  Valid for every power-of-two order >= 2.
    """
    k = order.bit_length() - 1
    weights = _psk_wedge_weights(order)
    total = np.zeros_like(gamma)
    outer = _phase_exceedance(np.pi / order, gamma)
    for m in range(1, order // 2):
        inner = _phase_exceedance((2 * m + 1) * np.pi / order, gamma)
        total += (weights[m] + weights[order - m]) * np.maximum(outer - inner, 0.0)
        outer = inner
    # the wedge opposite the transmitted point straddles +-pi
    total += weights[order // 2] * 2.0 * outer
    return total / k


@lru_cache(maxsize=None)
def _pam_terms(levels: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Exact Gray bit-error expansion for `levels` equally spaced amplitudes.

    Returns (coeffs, half_steps) such that the expected bit errors per symbol
    equal sum(c_t * Q(h_t * delta_over_sigma)) where delta_over_sigma is the
    level spacing over the per-dimension noise std.  Counts every threshold
    crossing, not just nearest neighbours, so the expansion is exact.
    """
    labels = [_gray(i) for i in range(levels)]
    acc: dict[float, float] = {}
    for i in range(levels):
        for j in range(levels):
            if j == i:
                continue
            hamming = _popcount(labels[i] ^ labels[j])
            m = abs(j - i)
            acc[m - 0.5] = acc.get(m - 0.5, 0.0) + hamming
            inner = (j < levels - 1) if j > i else (j > 0)
            if inner:
                acc[m + 0.5] = acc.get(m + 0.5, 0.0) - hamming
    items = sorted((h, c / levels) for h, c in acc.items() if c != 0.0)
    return tuple(c for _, c in items), tuple(h for h, _ in items)


def _pam_bit_errors(levels: int, delta_over_sigma: np.ndarray) -> np.ndarray:
    coeffs, half_steps = _pam_terms(levels)
    out = np.zeros_like(delta_over_sigma)
    for c, h in zip(coeffs, half_steps):
        out += c * _qfunc(h * delta_over_sigma)
    return out


def _qam_gray_ber(order: int, gamma: np.ndarray) -> np.ndarray:
    """Exact Gray-coded square M-QAM bit error probability at symbol SNR gamma."""
    k = order.bit_length() - 1
    side = 1 << (k // 2)
    # per-axis level spacing over per-dimension noise std, at unit symbol energy
    delta_over_sigma = 2.0 * np.sqrt((3.0 / (order - 1)) * gamma)
    return 2.0 * _pam_bit_errors(side, delta_over_sigma) / k


def _ask_gray_ber(order: int, gamma: np.ndarray) -> np.ndarray:
    """Exact Gray-coded unipolar M-ASK bit error probability at symbol SNR gamma.

    Levels {0, d, ..., (M-1)d} normalized to unit average symbol energy,
    d^2 (M-1)(2M-1)/6 = 1; detection slices the real axis at level midpoints.
    """
    k = order.bit_length() - 1
    delta_over_sigma = np.sqrt(12.0 * gamma / ((order - 1) * (2 * order - 1)))
    return _pam_bit_errors(order, delta_over_sigma) / k


def ber(scheme: ModulationScheme, gamma):
    """Exact Gray-coded bit error probability under coherent AWGN detection.

    Parameters
    ----------
    scheme : ModulationScheme
        Catalog scheme with order >= 2; the silent order has no BER.
    gamma : float or array_like
        Instantaneous linear SNR (unit average symbol energy over total
        complex noise variance), non-negative.

    Returns
    -------
    float or ndarray
        Bit error probability in [0, 0.5], matching the shape of `gamma`.
    """
    if scheme.silent:
        raise ValueError(f"{scheme} is silent (order 1) and has no bit error rate")
    g = np.asarray(gamma, dtype=float)
    if not np.all(np.isfinite(g)):
        raise ValueError("gamma must be finite")
    if np.any(g < 0.0):
        raise ValueError("gamma must be non-negative")
    if scheme.family == ModulationFamily.PSK:
        if scheme.order == 2:
            out = 0.5 * erfc(np.sqrt(g))   # Q(sqrt(2 gamma))
        elif scheme.order == 4:
            out = _qfunc(np.sqrt(g))       # bit-identical to the QAM4 path
        else:
            out = _psk_gray_ber(scheme.order, g)
    elif scheme.family == ModulationFamily.QAM:
        out = _qam_gray_ber(scheme.order, g)
    else:
        out = _ask_gray_ber(scheme.order, g)
    if np.isscalar(gamma) or np.ndim(gamma) == 0:
        return float(out)
    return out


def min_snr_for(scheme: ModulationScheme, target_ber: float) -> float:
    """Smallest linear SNR at which `scheme` meets `target_ber`.

    Bisects the monotone BER curve; the returned gamma satisfies
    |ber(scheme, gamma) - target_ber| <= 1e-12 and ber(scheme, g) <= target_ber
    for every g >= gamma.
    """
    if scheme.silent:
        raise ValueError(f"{scheme} is silent (order 1) and has no bit error rate")
    if not (0.0 < target_ber < 0.5):
        raise ValueError(f"target_ber must lie in (0, 0.5), got {target_ber!r}")
    lo, hi = 0.0, 1.0
    while ber(scheme, hi) > target_ber:
        hi *= 2.0
        if hi > 1e12:
            raise RuntimeError(f"no SNR below 1e12 meets BER {target_ber} for {scheme}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        b = ber(scheme, mid)
        if abs(b - target_ber) <= 1e-13:
            return mid
        if b > target_ber:
            lo = mid
        else:
            hi = mid
    return hi

"""Modulation scheme catalog and exact Gray-coded AWGN bit-error models.

The catalog is the fixed menu of (family, order) pairs a subcarrier may use.
Order 1 means the position stays silent and carries no bits.  All BER models
assume unit average symbol energy, coherent minimum-distance detection and
circularly symmetric complex noise with total variance 1/gamma, so gamma is
the instantaneous per-symbol SNR.

Each non-silent scheme's curve is one kernel, _ber_kernel: one erfc call
covers all of its Q terms, stacked on a leading term axis, and for 8- and
16-PSK one owens_t call covers all of its decision boundaries.  The terms
are summed in a fixed order with fixed coefficients, so a value does not
depend on the batching.  min_snr_for bisects with one kernel call per
depth-4 tree of midpoints.
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
        family = ModulationFamily(self.family)
        orders = FAMILY_ORDERS.get(family)
        if self.order not in orders:
            raise ValueError(
                f"order {self.order} not in the {family.name} catalog column {orders}"
            )
        # computed once: callers render and read these per position; not fields,
        # so eq, hash, order and repr see only (family, order)
        object.__setattr__(self, "_name", f"{family.name}{self.order}")
        object.__setattr__(self, "_bits", self.order.bit_length() - 1)

    @property
    def bits(self) -> int:
        """Bits per symbol, log2(order); 0 for the silent order."""
        return self._bits

    @property
    def silent(self) -> bool:
        return self.order == 1

    def __str__(self):
        return self._name

    def __getstate__(self):
        # pickle the two fields alone, so pickles keep their bytes; __setstate__ rebuilds the cache
        return {"family": self.family, "order": self.order}

    def __setstate__(self, state):
        self.__init__(**state)


#: Full scheme catalog, families in ASK < PSK < QAM order, orders ascending.
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


def _qfunc(x):
    # Gaussian tail via the complementary error integral, library-grade accuracy.
    return 0.5 * erfc(x / np.sqrt(2.0))


def _column(values: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Per-term constants shaped to broadcast along a leading term axis of `gamma`."""
    return values.reshape((-1,) + (1,) * gamma.ndim)


def _frozen(values) -> np.ndarray:
    out = np.array(values, dtype=float)
    out.flags.writeable = False
    return out


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


@lru_cache(maxsize=None)
def _psk_boundaries(order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Constants of the M-PSK decision boundaries psi_j = (2j+1)pi/M, j < M/2.

    Returns sin(psi_j), 1/tan(psi_j) and the weight of the wedge between
    boundaries j and j+1, each boundary's constants evaluated on its own
    scalar angle.
    """
    psi = [(2 * j + 1) * np.pi / order for j in range(order // 2)]
    weights = _psk_wedge_weights(order)
    return (
        _frozen([np.sin(p) for p in psi]),
        _frozen([1.0 / np.tan(p) for p in psi]),
        _frozen([weights[m] + weights[order - m] for m in range(1, order // 2)]),
    )


def _psk_gray_ber(order: int, gamma: np.ndarray) -> np.ndarray:
    """Exact Gray-coded M-PSK bit error probability at symbol SNR gamma.

    Sums bit errors over the M-1 angular decision wedges; wedge probabilities
    are differences of exact phase-exceedance probabilities at the decision
    boundaries (2j+1)pi/M.  For a unit-amplitude signal in complex noise of
    variance 1/gamma, exceeding psi one-sided is a cone probability of a
    bivariate normal, a Q term plus an Owen's T term; one erfc and one
    owens_t call cover every boundary.  Valid for every power-of-two order
    >= 2.
    """
    k = order.bit_length() - 1
    sin_psi, cot_psi, wedge_weights = _psk_boundaries(order)
    h = np.sqrt(2.0 * gamma) * _column(sin_psi, gamma)
    beyond = 0.5 * _qfunc(h) + owens_t(h, _column(cot_psi, gamma))
    wedges = _column(wedge_weights, gamma) * np.maximum(beyond[:-1] - beyond[1:], 0.0)
    total = np.zeros_like(gamma)
    for term in wedges:
        total += term
    # the wedge opposite the transmitted point straddles +-pi
    total += _psk_wedge_weights(order)[order // 2] * 2.0 * beyond[-1]
    return total / k


@lru_cache(maxsize=None)
def _pam_terms(levels: int) -> tuple[np.ndarray, np.ndarray]:
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
    return _frozen([c for _, c in items]), _frozen([h for h, _ in items])


def _pam_bit_errors(levels: int, delta_over_sigma: np.ndarray) -> np.ndarray:
    """The _pam_terms sum, summed in term order, with one erfc call for all terms."""
    coeffs, half_steps = _pam_terms(levels)
    terms = _column(coeffs, delta_over_sigma) * _qfunc(
        _column(half_steps, delta_over_sigma) * delta_over_sigma
    )
    out = np.zeros_like(delta_over_sigma)
    for term in terms:
        out += term
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


def _checked_gamma(gamma) -> np.ndarray:
    """`gamma` as a float array; raises ValueError unless finite and non-negative."""
    g = np.asarray(gamma, dtype=float)
    if not np.isfinite(g).all():
        raise ValueError("gamma must be finite")
    if (g < 0.0).any():
        raise ValueError("gamma must be non-negative")
    return g


def _ber_kernel(scheme: ModulationScheme, g: np.ndarray) -> np.ndarray:
    """BER of the non-silent `scheme` at the checked float array `g`."""
    family, order = scheme.family, scheme.order
    if family == ModulationFamily.ASK:
        return _ask_gray_ber(order, g)
    if order == 2:
        return 0.5 * erfc(np.sqrt(g))   # BPSK: Q(sqrt(2 gamma))
    if order == 4:
        # Gray QPSK, and 4-QAM: its one-term _qam_gray_ber sum reduces to this exactly
        return _qfunc(np.sqrt(g))
    if family == ModulationFamily.QAM:
        return _qam_gray_ber(order, g)
    return _psk_gray_ber(order, g)


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
    out = _ber_kernel(scheme, _checked_gamma(gamma))
    if np.isscalar(gamma) or np.ndim(gamma) == 0:
        return float(out)
    return out


#: min_snr_for brackets its answer between 0 and the first of these powers of
#: two whose BER meets the target, trying one row per BER call; the next
#: power, 2**40, passes 1e12.
_BRACKET_TOPS = np.ldexp(1.0, np.arange(40)).reshape(5, 8)

#: Bisection steps min_snr_for evaluates per BER call, as a tree of midpoints.
_TREE_DEPTH = 4


def _bisection_tree(lo: float, hi: float) -> list[float]:
    """Midpoints of the next _TREE_DEPTH bisection steps of [lo, hi].

    Heap order: node n bisects its bracket at mids[n]; its children 2n+1 and
    2n+2 bisect the lower and the upper half.  Each midpoint is
    0.5 * (lo + hi) of its own bracket, as a serial bisection computes it.
    """
    brackets, mids = [(lo, hi)], []
    for n in range(2 ** _TREE_DEPTH - 1):
        a, b = brackets[n]
        mid = 0.5 * (a + b)
        mids.append(mid)
        brackets += [(a, mid), (mid, b)]
    return mids


def min_snr_for(scheme: ModulationScheme, target_ber: float) -> float:
    """Smallest linear SNR at which `scheme` meets `target_ber`, by bisection.

    Brackets the answer between 0 and the first power of two hi <= 2**39
    with ber(scheme, hi) <= target_ber (RuntimeError if there is none),
    then bisects for at most 200 steps.  A step stops early and returns its
    midpoint when the BER there is within 1e-13 of the target, so the
    returned gamma satisfies ber(scheme, gamma) <= target_ber + 1e-13.
    Otherwise the upper end of the last bracket is returned, so
    ber(scheme, gamma) <= target_ber; the bracket closes on two adjacent
    doubles, so the BER at the next double below gamma is above
    target_ber, unless the 200 steps run out first.

    Each BER call evaluates the midpoints of the next _TREE_DEPTH steps at
    once, and the bracket tops a row of _BRACKET_TOPS at once; the walk
    applies the serial tests in order, so the result does not depend on
    the batching.
    """
    if scheme.silent:
        raise ValueError(f"{scheme} is silent (order 1) and has no bit error rate")
    if not (0.0 < target_ber < 0.5):
        raise ValueError(f"target_ber must lie in (0, 0.5), got {target_ber!r}")
    for tops in _BRACKET_TOPS:
        meets = np.flatnonzero(_ber_kernel(scheme, tops) <= target_ber)
        if meets.size:
            hi = float(tops[meets[0]])
            break
    else:
        raise RuntimeError(f"no SNR below 1e12 meets BER {target_ber} for {scheme}")
    lo, steps = 0.0, 0
    while True:
        mids = _bisection_tree(lo, hi)
        bers = _ber_kernel(scheme, np.array(mids))
        node = 0
        for _ in range(_TREE_DEPTH):
            if steps == 200:
                return hi
            steps += 1
            mid = mids[node]
            if mid == lo or mid == hi:
                return hi
            b = bers[node]
            if abs(b - target_ber) <= 1e-13:
                return mid
            if b > target_ber:
                lo, node = mid, 2 * node + 2
            else:
                hi, node = mid, 2 * node + 1

"""Tapped-delay-line Rayleigh block-fading channel and per-subcarrier SNR grids.

The frequency-domain model: each OFDM symbol sees an independent draw of
complex Gaussian taps (variance = tap power, unit total power for the default
profile), and subcarrier k sees the DFT of the delay line at bin k.  Within a
symbol the subcarrier gains are correlated through the shared taps; across
symbols the draws are independent (block fading per symbol).

Both grids are plain arrays indexed [k, l], subcarrier k and OFDM symbol l:
draw_realization gives the complex gains, snr_grid the linear SNRs gamma
that every loader takes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: Typical Urban 9-tap power-delay profile; delays in sample periods, powers sum to 1.
TUX_DELAYS = (0, 1, 2, 3, 4, 5, 6, 7, 8)
TUX_POWERS = (0.269, 0.174, 0.289, 0.117, 0.023, 0.058, 0.036, 0.026, 0.008)

POWER_SUM_TOL = 1e-9


@dataclass(frozen=True)
class ChannelProfile:
    """Power-delay profile: discrete delays (sample periods) and tap powers."""

    delays: tuple[int, ...]
    powers: tuple[float, ...]

    def __post_init__(self):
        if len(self.delays) == 0:
            raise ValueError("profile must have at least one tap")
        if len(self.delays) != len(self.powers):
            raise ValueError(
                f"{len(self.delays)} delays vs {len(self.powers)} powers"
            )
        if any(d < 0 or d != int(d) for d in self.delays):
            raise ValueError("delays must be non-negative integers")
        if any(b <= a for a, b in zip(self.delays, self.delays[1:])):
            raise ValueError("delays must be strictly increasing")
        if any(not (p > 0.0) for p in self.powers):
            raise ValueError("tap powers must be positive")
        total = float(sum(self.powers))
        if abs(total - 1.0) > POWER_SUM_TOL:
            raise ValueError(f"tap powers sum to {total!r}, expected 1")


def tux_profile() -> ChannelProfile:
    """The default Typical Urban profile (unit total power)."""
    return ChannelProfile(TUX_DELAYS, TUX_POWERS)


def draw_taps(profile: ChannelProfile, rng: np.random.Generator, shape=()) -> np.ndarray:
    """Rayleigh draws of shape `shape + (n_taps,)`, `shape` a tuple:
    independent circularly symmetric complex Gaussian taps with per-tap
    variance equal to the profile power.  All real parts are drawn before
    all imaginary parts."""
    scale = np.sqrt(np.asarray(profile.powers) / 2.0)
    size = tuple(shape) + scale.shape
    return scale * (rng.standard_normal(size) + 1j * rng.standard_normal(size))


def freq_response(taps: np.ndarray, delays, n_fft: int, subcarriers) -> np.ndarray:
    """DFT of the delay line at the requested bins: H_k = sum_l h_l e^{-j2pi k d_l / N}."""
    if n_fft < 1:
        raise ValueError(f"n_fft must be positive, got {n_fft}")
    k = np.asarray(subcarriers)
    d = np.asarray(delays)
    phases = np.exp(-2j * np.pi * np.outer(k, d) / n_fft)
    return phases @ np.asarray(taps)


def check_dft_fit(profile: ChannelProfile, n_fft: int, n_f: int) -> None:
    """Raise ValueError unless a DFT of n_fft bins covers the profile's delay
    spread and the grid's bins 0 .. n_f - 1 each once; bin k is bin
    k mod n_fft, so a grid beyond n_fft would repeat rows."""
    if max(profile.delays) >= n_fft:
        raise ValueError(
            f"delay spread {max(profile.delays)} does not fit n_fft={n_fft}"
        )
    if n_f > n_fft:
        raise ValueError(f"subcarriers 0 .. {n_f - 1} do not fit n_fft={n_fft}")


def draw_realization(profile: ChannelProfile, n_f: int, n_t: int,
                     rng: np.random.Generator, n_fft: int = 128) -> np.ndarray:
    """Draw a block-fading grid: fresh independent taps per OFDM symbol column.

    Returns the (n_f, n_t) complex gains, gains[k, l] at subcarrier k and
    symbol l.

    Parameters
    ----------
    profile : ChannelProfile
    n_f, n_t : int
        Grid size, n_f subcarriers by n_t OFDM symbols.
    rng : numpy Generator
    n_fft : int
        DFT size of the underlying OFDM system; grid row k is bin k.  It
        must cover the delay spread and the grid's rows (see check_dft_fit).
    """
    if n_f < 1 or n_t < 1:
        raise ValueError(f"grid must be at least 1x1, got {n_f}x{n_t}")
    check_dft_fit(profile, n_fft, n_f)
    taps = draw_taps(profile, rng, (n_t,))
    return freq_response(taps.T, profile.delays, n_fft, np.arange(n_f))  # (n_f, n_t)


def snr_grid(gains, noise_var) -> np.ndarray:
    """Instantaneous SNR grid for unit-energy symbols in noise of variance
    `noise_var`: gamma[k, l] = |gains[k, l]|^2 / noise_var.

    `noise_var` may be an array that broadcasts against the (n_f, n_t) gains,
    such as an (S, 1, 1) stack, which gives an (S, n_f, n_t) gamma: each
    layer holds the bytes a call with that one noise variance gives.
    """
    if not np.all((np.asarray(noise_var) > 0.0) & np.isfinite(noise_var)):
        raise ValueError(f"noise_var must be positive and finite, got {noise_var!r}")
    gains = np.asarray(gains)
    if not np.all(np.isfinite(gains)):
        raise ValueError("channel gains must be finite")
    return np.abs(gains) ** 2 / noise_var


def load_channel_profile(path) -> ChannelProfile:
    """Read a power-delay profile from a text file.

    Each non-comment line holds "delay power"; '#' starts a comment.  The
    resulting profile must satisfy the ChannelProfile invariants and have
    total power 1 within 1e-9.
    """
    path = Path(path)
    delays, powers = [], []
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 2:
            raise ValueError(f"{path}:{lineno}: expected 'delay power', got {raw!r}")
        try:
            delay = int(fields[0])
            power = float(fields[1])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        delays.append(delay)
        powers.append(power)
    try:
        return ChannelProfile(tuple(delays), tuple(powers))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None

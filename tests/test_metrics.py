"""Metric arithmetic tests, including the exact endpoint values."""

import numpy as np
import pytest

from ofdmse.loading import Allocation
from ofdmse.metrics import SweepPoint, aggregate, eta_r, spectral_efficiency
from ofdmse.modulation import scheme_from_name


def uniform_alloc(name, n_f, n_t, avg=0.0):
    s = scheme_from_name(name)
    grid = tuple(tuple(s for _ in range(n_t)) for _ in range(n_f))
    return Allocation(grid, total_bits=s.bits * n_f * n_t, avg_ber=avg)


def test_spectral_efficiency_values():
    assert spectral_efficiency(84, 4) == pytest.approx(0.952381, abs=5e-7)
    assert spectral_efficiency(84, 0) == 1.0
    assert spectral_efficiency(84, 84) == 0.0


def test_spectral_efficiency_errors():
    with pytest.raises(ValueError):
        spectral_efficiency(0, 0)
    with pytest.raises(ValueError):
        spectral_efficiency(84, -1)
    with pytest.raises(ValueError):
        spectral_efficiency(84, 85)


def test_eta_r_values():
    assert eta_r(480, 480) == 1.0
    qpsk_bits = uniform_alloc("PSK4", 12, 7).total_bits
    qam64_bits = uniform_alloc("QAM64", 12, 7).total_bits
    assert eta_r(qpsk_bits, qam64_bits) == 1 / 3
    assert eta_r(0, 504) == 0.0


def test_eta_r_errors():
    with pytest.raises(ValueError):
        eta_r(100, 0)
    with pytest.raises(ValueError):
        eta_r(-1, 100)


def test_aggregate():
    mean, half = aggregate([3.0, 3.0, 3.0, 3.0])
    assert (mean, half) == (3.0, 0.0)
    mean, half = aggregate([0.0, 2.0])
    assert mean == 1.0
    assert half == pytest.approx(1.96, rel=1e-12)
    rng = np.random.default_rng(8)
    mean, half = aggregate(rng.uniform(size=10_000))
    assert mean == pytest.approx(0.5, abs=0.02)
    assert half == pytest.approx(1.96 * np.sqrt(1 / 12) / 100, rel=0.05)


def test_aggregate_errors():
    with pytest.raises(ValueError):
        aggregate([1.0])
    with pytest.raises(ValueError):
        aggregate(np.ones((3, 1)))  # three cells of one trial each
    with pytest.raises(ValueError):
        aggregate(2.0)


@pytest.mark.parametrize("n", [2, 3, 20, 129, 1001])
def test_aggregate_rows_are_bit_identical_to_one_series(n):
    rng = np.random.default_rng(n)
    values = rng.integers(0, 505, size=(3, 4, n)) / 84
    means, halves = aggregate(values)
    assert means.shape == halves.shape == (3, 4)
    for cell in np.ndindex(3, 4):
        series = np.array(values[cell])  # the one-cell call's 1-D reduction
        mean = float(np.mean(series))
        half = float(1.96 * np.std(series, ddof=1) / np.sqrt(n))
        assert float(means[cell]).hex() == mean.hex()
        assert float(halves[cell]).hex() == half.hex()


def test_sweep_point_fields():
    p = SweepPoint("lte", 40.0, 1e-3, 1000, 5.71, 0.004, 0.952)
    assert p.system == "lte"
    assert p.trials == 1000
    assert 0 <= p.mean_bits_per_subcarrier <= 6

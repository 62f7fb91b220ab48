"""Channel model tests: profile, tap statistics, frequency response, SNR grids."""

import numpy as np
import pytest

from ofdmse.channel import (
    TUX_DELAYS,
    TUX_POWERS,
    ChannelProfile,
    check_dft_fit,
    draw_realization,
    draw_taps,
    freq_response,
    load_channel_profile,
    snr_grid,
    tux_profile,
)

N_DRAWS_STATS = 100_000


def test_tux_profile_values():
    p = tux_profile()
    assert p.delays == (0, 1, 2, 3, 4, 5, 6, 7, 8)
    assert p.powers == (0.269, 0.174, 0.289, 0.117, 0.023, 0.058, 0.036, 0.026, 0.008)
    assert abs(sum(p.powers) - 1.0) < 1e-12


def test_profile_validation():
    with pytest.raises(ValueError):
        ChannelProfile((), ())
    with pytest.raises(ValueError):
        ChannelProfile((0, 1), (1.0,))
    with pytest.raises(ValueError):
        ChannelProfile((0, -1), (0.5, 0.5))
    with pytest.raises(ValueError):
        ChannelProfile((1, 0), (0.5, 0.5))          # not increasing
    with pytest.raises(ValueError):
        ChannelProfile((0, 1), (0.5, -0.5))
    with pytest.raises(ValueError):
        ChannelProfile((0, 1), (0.6, 0.6))          # sum != 1


def test_tap_statistics():
    """Per-tap mean power matches the profile; real/imag parts are balanced."""
    p = tux_profile()
    rng = np.random.default_rng(123)
    draws = np.array([draw_taps(p, rng) for _ in range(20_000)])
    mean_power = np.mean(np.abs(draws) ** 2, axis=0)
    np.testing.assert_allclose(mean_power, p.powers, rtol=0.05)
    assert abs(np.mean(draws.real)) < 5e-3
    assert abs(np.mean(draws.imag)) < 5e-3


def test_freq_response_single_tap_is_flat():
    # one tap at delay 0: every subcarrier sees the same gain
    h = freq_response(np.array([0.3 - 0.4j]), [0], 128, np.arange(12))
    np.testing.assert_allclose(h, 0.3 - 0.4j)


def test_freq_response_two_taps_null():
    # equal taps at delays 0 and 1 cancel at the half-band bin k = n_fft/2
    h = freq_response(np.array([0.5, 0.5]), [0, 1], 16, [8])
    assert abs(h[0]) < 1e-12


def test_freq_response_dc_is_tap_sum():
    taps = np.array([0.2 + 0.1j, -0.3j, 0.05])
    h = freq_response(taps, [0, 3, 7], 64, [0])
    assert abs(h[0] - taps.sum()) < 1e-12


def test_realization_shape_and_determinism():
    p = tux_profile()
    r1 = draw_realization(p, 12, 7, np.random.default_rng(42))
    r2 = draw_realization(p, 12, 7, np.random.default_rng(42))
    assert type(r1) is np.ndarray and r1.shape == (12, 7)
    np.testing.assert_array_equal(r1, r2)
    r3 = draw_realization(p, 12, 7, np.random.default_rng(43))
    assert not np.array_equal(r1, r3)


def test_realization_matches_explicit_construction():
    """Column l of the grid is the DFT of the l-th tap draw."""
    p = tux_profile()
    seed = 77
    r = draw_realization(p, 12, 7, np.random.default_rng(seed), n_fft=128)
    rng = np.random.default_rng(seed)
    scale = np.sqrt(np.asarray(p.powers) / 2.0)
    taps = scale * (rng.standard_normal((7, 9)) + 1j * rng.standard_normal((7, 9)))
    for l in range(7):
        expect = freq_response(taps[l], p.delays, 128, np.arange(12))
        np.testing.assert_allclose(r[:, l], expect, rtol=1e-12)


def test_draw_taps_with_shape_matches_inline_draw():
    """draw_taps(p, rng, (n_t,)) is the (n_t, n_taps) draw that
    draw_realization made inline before, byte for byte."""
    p = tux_profile()
    scale = np.sqrt(np.asarray(p.powers) / 2.0)
    for seed in range(50):
        rng = np.random.default_rng(seed)
        inline = scale * (rng.standard_normal((7, 9)) + 1j * rng.standard_normal((7, 9)))
        assert draw_taps(p, np.random.default_rng(seed), (7,)).tobytes() == inline.tobytes()
        gains = freq_response(inline.T, p.delays, 128, np.arange(12))
        real = draw_realization(p, 12, 7, np.random.default_rng(seed))
        assert real.tobytes() == gains.tobytes()
    assert draw_taps(p, np.random.default_rng(0)).shape == (9,)


def test_unit_mean_gain_power():
    p = tux_profile()
    rng = np.random.default_rng(2024)
    r = draw_realization(p, 4, N_DRAWS_STATS // 4, rng)
    mean_p = np.mean(np.abs(r) ** 2)
    assert abs(mean_p - 1.0) < 0.02, f"mean |H|^2 = {mean_p}"


def test_adjacent_subcarriers_correlated_columns_independent():
    p = tux_profile()
    rng = np.random.default_rng(5)
    r = draw_realization(p, 2, 10_000, rng)
    a, b = r[0], r[1]
    corr_f = np.abs(np.vdot(a, b)) / np.sqrt(np.vdot(a, a).real * np.vdot(b, b).real)
    assert corr_f > 0.5, f"adjacent-subcarrier correlation {corr_f}"
    # across columns: consecutive draws of the same subcarrier are independent
    x, y = r[0, :-1], r[0, 1:]
    corr_t = np.abs(np.vdot(x, y)) / np.sqrt(np.vdot(x, x).real * np.vdot(y, y).real)
    assert corr_t < 0.05, f"cross-column correlation {corr_t}"


def test_draw_realization_validation():
    p = tux_profile()
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        draw_realization(p, 0, 7, rng)
    with pytest.raises(ValueError):
        draw_realization(p, 12, 0, rng)
    with pytest.raises(ValueError):
        draw_realization(p, 12, 7, rng, n_fft=8)   # delay spread exceeds FFT


@pytest.mark.parametrize("n_f,n_fft", [(12, 9), (10, 9), (129, 128)])
def test_realization_refuses_subcarriers_beyond_the_dft(n_f, n_fft):
    # bin k is bin k mod n_fft, so these grids would repeat rows
    with pytest.raises(ValueError, match=f"^subcarriers 0 .. {n_f - 1} do not fit n_fft={n_fft}$"):
        draw_realization(tux_profile(), n_f, 7, np.random.default_rng(0), n_fft=n_fft)
    with pytest.raises(ValueError, match=f"do not fit n_fft={n_fft}"):
        check_dft_fit(tux_profile(), n_fft, n_f)


def test_realization_fills_the_dft_exactly():
    r = draw_realization(tux_profile(), 16, 3, np.random.default_rng(0), n_fft=16)
    assert r.shape == (16, 3)
    assert draw_realization(tux_profile(), 9, 2, np.random.default_rng(0), n_fft=9).shape == (9, 2)
    check_dft_fit(tux_profile(), 128, 128)


def test_snr_grid_values_and_validation():
    r = np.array([[1.0 + 0j, 2.0j], [0.5, 0.0]])
    g = snr_grid(r, 0.25)
    assert type(g) is np.ndarray
    np.testing.assert_allclose(g, [[4.0, 16.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        snr_grid(r, 0.0)
    with pytest.raises(ValueError):
        snr_grid(r, -1.0)
    bad = np.array([[np.inf + 0j]])
    with pytest.raises(ValueError):
        snr_grid(bad, 1.0)


def test_snr_grid_noise_stack_matches_single_calls():
    r = draw_realization(tux_profile(), 12, 7, np.random.default_rng(3))
    noise = 10.0 ** (-np.arange(0, 41, 2) / 10.0)
    stack = snr_grid(r, noise[:, None, None])
    assert stack.shape == (noise.size, 12, 7)
    for layer, nv in zip(stack, noise):
        assert layer.tobytes() == snr_grid(r, float(nv)).tobytes()


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
def test_snr_grid_noise_stack_with_one_bad_variance_raises(bad):
    r = np.array([[1.0 + 0j, 2.0j]])
    with pytest.raises(ValueError, match="^noise_var must be positive and finite"):
        snr_grid(r, np.array([1.0, bad, 0.5])[:, None, None])


def test_load_channel_profile(tmp_path):
    f = tmp_path / "pdp.txt"
    f.write_text("# delay power\n0 0.5\n2 0.25  # late tap\n5 0.25\n")
    p = load_channel_profile(f)
    assert p.delays == (0, 2, 5)
    assert p.powers == (0.5, 0.25, 0.25)


def test_load_channel_profile_errors(tmp_path):
    cases = [
        ("0 0.5 extra\n", "expected"),
        ("0 half\n", "could not convert"),
        ("0 0.4\n1 0.4\n", "sum"),
        ("1 0.5\n0 0.5\n", "increasing"),
    ]
    for i, (text, fragment) in enumerate(cases):
        f = tmp_path / f"bad{i}.txt"
        f.write_text(text)
        with pytest.raises(ValueError, match=fragment):
            load_channel_profile(f)

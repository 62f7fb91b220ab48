"""Monte Carlo BER simulator tests, plus the model-vs-simulation agreement check."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from ofdmse import ber_sim
from ofdmse.ber_sim import (
    MIN_SYMBOLS,
    SimConfig,
    _bit_error_table,
    _constellation,
    _gray_codes,
    _scheme_tables,
    _simulate_batch,
    simulate_ber,
)
from ofdmse.modulation import (
    CATALOG,
    ModulationFamily,
    ModulationScheme,
    ber,
    min_snr_for,
)

PSK = ModulationFamily.PSK
QAM = ModulationFamily.QAM
ASK = ModulationFamily.ASK

NON_SILENT = [s for s in CATALOG if not s.silent]


def test_config_validation():
    bpsk = ModulationScheme(PSK, 2)
    with pytest.raises(ValueError):
        SimConfig(ModulationScheme(PSK, 1), 1.0)
    with pytest.raises(ValueError):
        SimConfig(bpsk, 0.0)
    with pytest.raises(ValueError):
        SimConfig(bpsk, -3.0)
    with pytest.raises(ValueError):
        SimConfig(bpsk, 1.0, n_symbols=MIN_SYMBOLS - 1)


@pytest.mark.parametrize("field,value", [
    ("n_symbols", 20000.0), ("n_symbols", True), ("n_symbols", "20000"),
    ("seed", 1.0), ("seed", False), ("seed", None)])
def test_config_refuses_non_integer_fields(field, value):
    # a float n_symbols used to fail inside rng.integers, far from the config
    with pytest.raises(TypeError, match=f"{field} must be an integer, got {value!r}"):
        SimConfig(ModulationScheme(PSK, 2), 10.0, **{field: value})


@pytest.mark.parametrize("value", [True, np.bool_(True), "10.0", None, 1 + 2j])
def test_config_refuses_non_real_gamma_by_name(value):
    # a bool gamma used to construct and simulate at gamma 1
    with pytest.raises(TypeError, match=re.escape(f"gamma must be a real number, got {value!r}")):
        SimConfig(ModulationScheme(ASK, 2), value, MIN_SYMBOLS, 0)


@pytest.mark.parametrize("value", ["QAM16", None, (QAM, 16)])
def test_config_refuses_non_scheme_by_name(value):
    # a scheme name used to fail with AttributeError on .silent
    with pytest.raises(TypeError, match="scheme must be a ModulationScheme, got "):
        SimConfig(value, 10.0)


def test_config_takes_real_gammas():
    # a kept float32 gamma would make the batch's noise scale float32
    for gamma in (10, np.float64(10.0), np.float32(10.0), np.int64(10)):
        cfg = SimConfig(ModulationScheme(PSK, 2), gamma)
        assert type(cfg.gamma) is float and cfg.gamma == 10


def test_config_refuses_negative_seed_by_name():
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        SimConfig(ModulationScheme(PSK, 2), 10.0, MIN_SYMBOLS, -1)


def test_config_takes_numpy_integers_as_int():
    cfg = SimConfig(ModulationScheme(PSK, 4), 4.0, np.int64(MIN_SYMBOLS), np.uint32(5))
    assert type(cfg.n_symbols) is int and type(cfg.seed) is int
    assert simulate_ber(cfg) == simulate_ber(SimConfig(ModulationScheme(PSK, 4), 4.0,
                                                       MIN_SYMBOLS, 5))


def test_deterministic_for_fixed_seed():
    cfg = SimConfig(ModulationScheme(QAM, 16), 8.0, n_symbols=200_000, seed=7)
    assert simulate_ber(cfg) == simulate_ber(cfg)
    other = SimConfig(ModulationScheme(QAM, 16), 8.0, n_symbols=200_000, seed=8)
    assert simulate_ber(other) != simulate_ber(cfg)


def test_high_snr_gives_zero_errors():
    for s in NON_SILENT:
        p, _ = simulate_ber(SimConfig(s, 1e6, n_symbols=MIN_SYMBOLS, seed=1))
        assert p == 0.0, f"{s}: errors at gamma=1e6"


def test_bpsk_anchor_within_confidence():
    # Q(sqrt(2)) = 0.0786496..., one million symbols
    cfg = SimConfig(ModulationScheme(PSK, 2), 1.0, n_symbols=1_000_000, seed=3)
    p, ci = simulate_ber(cfg)
    expected = 0.078649603525142565
    assert abs(p - expected) < 3.0 * ci / 1.96, f"BPSK at 1.0: {p} vs {expected} (ci {ci})"


def test_qpsk_matches_bpsk_at_double_snr():
    # Gray QPSK carries two BPSK streams at half the per-bit energy
    p4, ci4 = simulate_ber(SimConfig(ModulationScheme(PSK, 4), 4.0, 400_000, seed=5))
    p2, ci2 = simulate_ber(SimConfig(ModulationScheme(PSK, 2), 2.0, 400_000, seed=6))
    assert abs(p4 - p2) < 3.0 * (ci4 + ci2), f"QPSK@4: {p4}, BPSK@2: {p2}"


def test_empirical_monotone_in_gamma():
    s = ModulationScheme(ASK, 4)
    gammas = [1.0, 4.0, 16.0, 64.0]
    bers = [simulate_ber(SimConfig(s, g, 200_000, seed=11))[0] for g in gammas]
    assert all(a > b for a, b in zip(bers, bers[1:])), f"not decreasing: {bers}"


@pytest.mark.parametrize("scheme", NON_SILENT, ids=str)
def test_models_track_simulation(scheme):
    """Closed forms within 10% of simulation wherever the model BER >= 1e-4."""
    targets = [0.3, 0.05, 5e-3, 3e-4]
    for t in targets:
        gamma = min_snr_for(scheme, t)
        analytic = ber(scheme, gamma)
        n = max(200_000, int(round(400.0 / (t * scheme.bits))))
        empirical, ci = simulate_ber(SimConfig(scheme, gamma, n, seed=17))
        rel = abs(empirical - analytic) / analytic
        assert rel < 0.10, (
            f"{scheme} at gamma={gamma:.4g}: model {analytic:.4g} "
            f"vs sim {empirical:.4g} (rel {rel:.1%}, ci {ci:.2g})"
        )


# The batch before its transmitted points came from a table: each point is
# computed from its symbol index.  Kept as the reference for the table path.

def transmitted_per_symbol(scheme, sent):
    order = scheme.order
    if scheme.family == PSK:
        return np.exp(2j * np.pi * sent / order)
    if scheme.family == QAM:
        side = 1 << (scheme.bits // 2)
        half = np.sqrt(3.0 / (2.0 * (order - 1)))
        si, sq = sent // side, sent % side
        return ((2 * si - (side - 1)) + 1j * (2 * sq - (side - 1))) * half
    return sent * np.sqrt(6.0 / ((order - 1) * (2 * order - 1)))


def simulate_batch_per_symbol(scheme, gamma, n, rng):
    order = scheme.order
    k = scheme.bits
    labels = _gray_codes(order)
    popcount = _bit_error_table(k)
    sent = rng.integers(0, order, n)
    noise = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * np.sqrt(0.5 / gamma)
    y = transmitted_per_symbol(scheme, sent) + noise
    if scheme.family == PSK:
        det = np.mod(np.round(np.angle(y) * order / (2.0 * np.pi)).astype(np.int64), order)
        return int(popcount[labels[sent] ^ labels[det]].sum())
    if scheme.family == QAM:
        side = 1 << (k // 2)
        half = np.sqrt(3.0 / (2.0 * (order - 1)))
        axis_gray = _gray_codes(side)
        si, sq = sent // side, sent % side
        di = np.clip(np.round((y.real / half + side - 1) / 2.0).astype(np.int64), 0, side - 1)
        dq = np.clip(np.round((y.imag / half + side - 1) / 2.0).astype(np.int64), 0, side - 1)
        sent_label = (axis_gray[si] << (k // 2)) | axis_gray[sq]
        det_label = (axis_gray[di] << (k // 2)) | axis_gray[dq]
        return int(popcount[sent_label ^ det_label].sum())
    step = np.sqrt(6.0 / ((order - 1) * (2 * order - 1)))
    det = np.clip(np.round(y.real / step).astype(np.int64), 0, order - 1)
    return int(popcount[labels[sent] ^ labels[det]].sum())


@pytest.mark.parametrize("scheme", NON_SILENT, ids=str)
def test_constellation_table_matches_per_symbol(scheme):
    sent = np.random.default_rng(5).integers(0, scheme.order, 50_000)
    points, _scale = _constellation(scheme)
    assert points[sent].tobytes() == transmitted_per_symbol(scheme, sent).tobytes()
    assert points.tobytes() == transmitted_per_symbol(scheme, np.arange(scheme.order)).tobytes()


@pytest.mark.parametrize("scheme", NON_SILENT, ids=str)
def test_batches_match_per_symbol_reference(scheme):
    # gamma 1e-8 puts PSK angles near +-pi (the wrap) and drives ASK and QAM
    # past both clips; gamma 1e8 gives no errors
    gammas = [min_snr_for(scheme, t) for t in (0.3, 0.05, 5e-3, 3e-4)] + [1e-8, 1e8]
    for gamma in gammas:
        for n in (1, 2, 7, 20_000):
            for seed in (1, 2, 3):
                rngs = [np.random.default_rng(np.random.SeedSequence((seed, 0))) for _ in range(2)]
                got = _simulate_batch(scheme, gamma, n, rngs[0])
                assert got == simulate_batch_per_symbol(scheme, gamma, n, rngs[1]), (gamma, n, seed)
                if gamma == 1e8:
                    assert got == 0


@pytest.mark.parametrize("scheme", NON_SILENT, ids=str)
def test_scheme_tables_are_read_only(scheme):
    real, imag, _scale, errs = _scheme_tables(scheme)
    assert errs.shape == (scheme.order, scheme.order)
    for table in (real, imag, errs):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 1
    assert _scheme_tables(scheme)[3] is errs


def test_simulate_ber_matches_golden_fixture():
    # (p, ci95) recorded from the simulator before its tables were cached, so a
    # change to the batch and to the per-symbol reference together fails here
    golden = json.loads((Path(__file__).parent / "fixtures" / "simulate_ber_golden.json").read_text())
    got = {str(s): list(simulate_ber(SimConfig(s, min_snr_for(s, 0.01), 20_000, 7)))
           for s in NON_SILENT}
    assert got == golden


def test_simulate_ber_matches_per_symbol_reference(monkeypatch):
    configs = [SimConfig(s, g, n, seed) for s in NON_SILENT
               for g, n, seed in ((0.5, 20_000, 4), (8.0, 260_000, 9))]
    got = [simulate_ber(c) for c in configs]
    monkeypatch.setattr(ber_sim, "_simulate_batch", simulate_batch_per_symbol)
    assert got == [simulate_ber(c) for c in configs]

"""Catalog and closed-form BER model tests.

Frozen reference values were computed with mpmath at 30 decimal digits:
Q(sqrt(2)) as half the complementary error function, and the M-PSK bit error
probabilities by direct quadrature of the exact phase-error density (an
implementation-independent route to the same quantity).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ofdmse.modulation import (
    CATALOG,
    FAMILY_ORDERS,
    ModulationFamily,
    ModulationScheme,
    ber,
    bits,
    catalog,
    min_snr_for,
    scheme_from_name,
)
from ofdmse.modulation import _phase_exceedance, _psk_gray_ber, _psk_wedge_weights

ASK = ModulationFamily.ASK
PSK = ModulationFamily.PSK
QAM = ModulationFamily.QAM

# mpmath: erfc(1)/2
Q_SQRT2 = 0.078649603525142565
# mpmath: phase-density quadrature, (order, gamma, ber)
PSK_QUAD_REFERENCE = [
    (8, 1.0, 0.24114592851280942),
    (8, 7.095, 0.049963953075834439),
    (8, 30.14, 0.00098891856027047283),
    (16, 3.054, 0.20014907464723765),
    (16, 109.0, 0.00099269398438564979),
]

NON_SILENT = [s for s in CATALOG if not s.silent]


def test_catalog_contents():
    assert len(CATALOG) == 13
    by_family = {fam: [s.order for s in CATALOG if s.family == fam]
                 for fam in ModulationFamily}
    assert by_family[ASK] == [1, 2, 4, 8]
    assert by_family[PSK] == [1, 2, 4, 8, 16]
    assert by_family[QAM] == [1, 4, 16, 64]
    # canonical ordering: family index, then order ascending
    keys = [(int(s.family), s.order) for s in CATALOG]
    assert keys == sorted(keys)
    assert catalog() == CATALOG


def test_bits_are_exact_logs():
    for s in CATALOG:
        assert s.bits == int(np.log2(s.order)), f"{s}: bits {s.bits}"
        assert bits(s) == s.bits
    assert ModulationScheme(QAM, 64).bits == 6
    assert ModulationScheme(ASK, 1).bits == 0


def test_off_catalog_orders_rejected():
    for fam, order in [(ASK, 16), (ASK, 3), (PSK, 32), (QAM, 2), (QAM, 8), (QAM, 32)]:
        with pytest.raises(ValueError):
            ModulationScheme(fam, order)


def test_scheme_name_round_trip():
    for s in CATALOG:
        assert scheme_from_name(str(s)) == s
    assert scheme_from_name("psk16") == ModulationScheme(PSK, 16)
    with pytest.raises(ValueError):
        scheme_from_name("FSK2")
    with pytest.raises(ValueError):
        scheme_from_name("QAM")


def test_bpsk_anchor_value():
    got = ber(ModulationScheme(PSK, 2), 1.0)
    assert abs(got - Q_SQRT2) < 1e-14, f"BPSK at gamma=1: {got} vs {Q_SQRT2}"


def test_psk_matches_phase_density_quadrature():
    for order, gamma, reference in PSK_QUAD_REFERENCE:
        got = ber(ModulationScheme(PSK, order), gamma)
        rel = abs(got - reference) / reference
        assert rel < 1e-12, f"PSK{order} at {gamma}: {got} vs {reference} (rel {rel:.2e})"


def psk_ber_two_calls_per_wedge(order, gamma):
    """The PSK sum evaluating both boundaries of every wedge afresh."""
    weights = _psk_wedge_weights(order)
    total = np.zeros_like(gamma)
    for m in range(1, order // 2):
        wedge = _phase_exceedance((2 * m - 1) * np.pi / order, gamma) - _phase_exceedance(
            (2 * m + 1) * np.pi / order, gamma
        )
        total += (weights[m] + weights[order - m]) * np.maximum(wedge, 0.0)
    total += weights[order // 2] * 2.0 * _phase_exceedance((order - 1) * np.pi / order, gamma)
    return total / (order.bit_length() - 1)


@pytest.mark.parametrize("order", [8, 16, 32])
def test_shared_psk_boundaries_are_bit_identical(order):
    gammas = np.concatenate([[0.0], np.geomspace(1e-3, 1e5, 500)])
    assert _psk_gray_ber(order, gammas).tobytes() == (
        psk_ber_two_calls_per_wedge(order, gammas).tobytes())
    for g in gammas[::50]:
        scalar = np.asarray(g)  # ber() hands the models 0-d arrays
        assert _psk_gray_ber(order, scalar).tobytes() == (
            psk_ber_two_calls_per_wedge(order, scalar).tobytes())
        if order <= 16:
            assert ber(ModulationScheme(PSK, order), float(g)) == float(
                psk_ber_two_calls_per_wedge(order, scalar))


def test_qpsk_equals_qam4_exactly():
    g = np.geomspace(1e-3, 1e3, 40)
    np.testing.assert_array_equal(ber(ModulationScheme(PSK, 4), g),
                                  ber(ModulationScheme(QAM, 4), g))


def test_qpsk_bpsk_equal_per_bit_energy():
    # Gray QPSK is two independent BPSK streams at half the symbol energy
    g = np.geomspace(1e-3, 1e2, 40)
    np.testing.assert_allclose(ber(ModulationScheme(PSK, 4), 2.0 * g),
                               ber(ModulationScheme(PSK, 2), g), rtol=1e-13)


def test_ber_at_zero_snr_is_half():
    for s in NON_SILENT:
        assert abs(ber(s, 0.0) - 0.5) < 1e-12, f"{s}: ber(0) = {ber(s, 0.0)}"


def test_ber_range_and_monotonicity_in_gamma():
    g = np.geomspace(1e-6, 1e5, 300)
    for s in NON_SILENT:
        b = ber(s, g)
        assert np.all(b >= 0.0) and np.all(b <= 0.5 + 1e-15), f"{s} outside [0, 1/2]"
        assert np.all(np.diff(b) <= 1e-15), f"{s} not non-increasing in gamma"


def test_monotonicity_in_order_within_family():
    g = np.geomspace(1e-4, 1e4, 120)
    for fam in ModulationFamily:
        orders = [m for m in FAMILY_ORDERS[fam] if m > 1]
        for lo, hi in zip(orders, orders[1:]):
            b_lo = ber(ModulationScheme(fam, lo), g)
            b_hi = ber(ModulationScheme(fam, hi), g)
            assert np.all(b_lo <= b_hi + 1e-15), f"{fam.name}: {lo} vs {hi}"


def test_vectorized_matches_scalar():
    g = np.array([0.0, 0.37, 2.5, 40.0])
    for s in NON_SILENT:
        vec = ber(s, g)
        assert vec.shape == g.shape
        for i, gi in enumerate(g):
            assert vec[i] == ber(s, float(gi))


def test_ber_input_validation():
    bpsk = ModulationScheme(PSK, 2)
    with pytest.raises(ValueError):
        ber(ModulationScheme(PSK, 1), 1.0)
    with pytest.raises(ValueError):
        ber(bpsk, -0.1)
    with pytest.raises(ValueError):
        ber(bpsk, np.array([1.0, -2.0]))
    with pytest.raises(ValueError):
        ber(bpsk, np.nan)


def test_min_snr_for_anchor():
    got = min_snr_for(ModulationScheme(PSK, 2), Q_SQRT2)
    assert abs(got - 1.0) < 1e-9, f"inverse of Q(sqrt(2)) gave gamma {got}"


@settings(max_examples=60, deadline=None)
@given(
    scheme=st.sampled_from(NON_SILENT),
    target=st.floats(min_value=1e-8, max_value=0.49),
)
def test_min_snr_for_round_trip(scheme, target):
    gamma = min_snr_for(scheme, target)
    back = ber(scheme, gamma)
    assert abs(back - target) < 1e-10, f"{scheme}: target {target} -> {gamma} -> {back}"
    # the constraint keeps holding at higher SNR
    for factor in (1.0, 1.01, 4.0, 100.0):
        assert ber(scheme, gamma * factor) <= target + 1e-12


def test_min_snr_for_input_validation():
    bpsk = ModulationScheme(PSK, 2)
    with pytest.raises(ValueError):
        min_snr_for(ModulationScheme(QAM, 1), 1e-3)
    for bad in (0.0, 0.5, 0.7, -1e-3):
        with pytest.raises(ValueError):
            min_snr_for(bpsk, bad)


@settings(max_examples=60, deadline=None)
@given(
    scheme=st.sampled_from(NON_SILENT),
    g1=st.floats(min_value=0.0, max_value=1e4),
    g2=st.floats(min_value=0.0, max_value=1e4),
)
def test_property_gamma_monotone(scheme, g1, g2):
    lo, hi = sorted((g1, g2))
    assert ber(scheme, hi) <= ber(scheme, lo) + 1e-14

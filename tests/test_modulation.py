"""Catalog and closed-form BER model tests.

Frozen reference values were computed with mpmath at 30 decimal digits:
Q(sqrt(2)) as half the complementary error function, and the M-PSK bit error
probabilities by direct quadrature of the exact phase-error density (an
implementation-independent route to the same quantity).

The batched BER kernels and the tree-probing min_snr_for are also compared,
byte for byte, with the one-call-per-term models and the serial bisection
kept below as references.
"""

import copy
import hashlib
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import erfc, owens_t

from ofdmse import loading, modulation
from ofdmse.cli import N_VALIDATION_POINTS, VALIDATION_SPAN
from ofdmse.loading import _ber_table, position_ber_table
from ofdmse.modulation import (
    CATALOG,
    FAMILY_ORDERS,
    ModulationFamily,
    ModulationScheme,
    ber,
    min_snr_for,
    scheme_from_name,
)
from ofdmse.modulation import _pam_terms, _psk_gray_ber, _psk_wedge_weights

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


def test_bits_are_exact_logs():
    for s in CATALOG:
        assert s.bits == int(np.log2(s.order)), f"{s}: bits {s.bits}"
    assert ModulationScheme(QAM, 64).bits == 6
    assert ModulationScheme(ASK, 1).bits == 0


def test_off_catalog_orders_rejected():
    for fam, order in [(ASK, 16), (ASK, 3), (PSK, 32), (QAM, 2), (QAM, 8), (QAM, 32)]:
        with pytest.raises(ValueError):
            ModulationScheme(fam, order)


def test_scheme_name_round_trip():
    for s in CATALOG + (ModulationScheme(QAM, 16), ModulationScheme(ModulationFamily(1), 8)):
        assert str(s) == f"{s.family.name}{s.order}"
        assert scheme_from_name(str(s)) == s
    assert scheme_from_name("psk16") == ModulationScheme(PSK, 16)
    with pytest.raises(ValueError):
        scheme_from_name("FSK2")
    with pytest.raises(ValueError):
        scheme_from_name("QAM")


def test_cached_name_and_bits_leave_the_dataclass_as_it_was():
    s = ModulationScheme(PSK, 16)
    assert repr(s) == "ModulationScheme(family=<ModulationFamily.PSK: 2>, order=16)"
    assert s == ModulationScheme(PSK, 16) and hash(s) == hash((PSK, 16))
    assert sorted([s, ModulationScheme(ASK, 8), ModulationScheme(PSK, 2)]) == [
        ModulationScheme(ASK, 8), ModulationScheme(PSK, 2), s]
    with pytest.raises(AttributeError):
        s.bits = 3
    # the pickled state holds the two fields alone, and loading rebuilds the cache
    assert s.__reduce_ex__(4)[2] == {"family": PSK, "order": 16}
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(s, protocol=protocol))
        assert back == s and str(back) == "PSK16" and back.bits == 4
    assert str(copy.deepcopy(s)) == "PSK16" and copy.copy(s).bits == 4


def test_bpsk_anchor_value():
    got = ber(ModulationScheme(PSK, 2), 1.0)
    assert abs(got - Q_SQRT2) < 1e-14, f"BPSK at gamma=1: {got} vs {Q_SQRT2}"


def test_psk_matches_phase_density_quadrature():
    for order, gamma, reference in PSK_QUAD_REFERENCE:
        got = ber(ModulationScheme(PSK, order), gamma)
        rel = abs(got - reference) / reference
        assert rel < 1e-12, f"PSK{order} at {gamma}: {got} vs {reference} (rel {rel:.2e})"


def reference_qfunc(x):
    return 0.5 * erfc(np.asarray(x, dtype=float) / np.sqrt(2.0))


def phase_exceedance(psi, gamma):
    """P(|received phase error| > psi one-sided) as one Q and one Owen's T call."""
    h = np.sqrt(2.0 * gamma) * np.sin(psi)
    return 0.5 * reference_qfunc(h) + owens_t(h, 1.0 / np.tan(psi))


def reference_psk_gray_ber(order, gamma):
    """The PSK sum with one phase_exceedance call per decision boundary."""
    k = order.bit_length() - 1
    weights = _psk_wedge_weights(order)
    total = np.zeros_like(gamma)
    outer = phase_exceedance(np.pi / order, gamma)
    for m in range(1, order // 2):
        inner = phase_exceedance((2 * m + 1) * np.pi / order, gamma)
        total += (weights[m] + weights[order - m]) * np.maximum(outer - inner, 0.0)
        outer = inner
    total += weights[order // 2] * 2.0 * outer
    return total / k


def reference_pam_bit_errors(levels, delta_over_sigma):
    """The _pam_terms sum with one Q call per term."""
    coeffs, half_steps = _pam_terms(levels)
    out = np.zeros_like(delta_over_sigma)
    for c, h in zip(coeffs, half_steps):
        out += c * reference_qfunc(h * delta_over_sigma)
    return out


def reference_ber(scheme, gamma):
    """ber() evaluated with one special-function call per term."""
    g = np.asarray(gamma, dtype=float)
    k = scheme.bits
    if scheme.family == PSK:
        if scheme.order == 2:
            return 0.5 * erfc(np.sqrt(g))
        if scheme.order == 4:
            return reference_qfunc(np.sqrt(g))
        return reference_psk_gray_ber(scheme.order, g)
    if scheme.family == QAM:
        delta_over_sigma = 2.0 * np.sqrt((3.0 / (scheme.order - 1)) * g)
        return 2.0 * reference_pam_bit_errors(1 << (k // 2), delta_over_sigma) / k
    m = scheme.order
    delta_over_sigma = np.sqrt(12.0 * g / ((m - 1) * (2 * m - 1)))
    return reference_pam_bit_errors(m, delta_over_sigma) / k


def serial_min_snr_for(scheme, target_ber):
    """min_snr_for as one scalar ber call per doubling and bisection step."""
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


#: Edge gammas, then a log sweep.
GAMMA_POOL = np.concatenate([[0.0, 5e-324, 1e-300, 1e300], np.geomspace(1e-4, 1e6, 50)])
SHAPES = [(4,), (84,), (21, 84), (2, 21, 84)]


def shaped_gammas(shape):
    """GAMMA_POOL (cut short for (4,)), then log-uniform draws in [1e-4, 1e6]."""
    rng = np.random.default_rng(len(shape) * 1000 + shape[-1])
    n = int(np.prod(shape))
    flat = np.concatenate([GAMMA_POOL, 10.0 ** rng.uniform(-4.0, 6.0, n)])[:n]
    return flat.reshape(shape)


@pytest.mark.parametrize("scheme", NON_SILENT, ids=str)
def test_kernels_match_per_term_reference(scheme):
    for shape in SHAPES:
        g = shaped_gammas(shape)
        got = ber(scheme, g)
        assert got.shape == shape
        assert got.tobytes() == reference_ber(scheme, g).tobytes(), f"{scheme} {shape}"
    for x in GAMMA_POOL:
        want = float(reference_ber(scheme, np.asarray(x))).hex()
        assert ber(scheme, float(x)).hex() == want, f"{scheme} at {x!r}"
        assert ber(scheme, np.asarray(x)).hex() == want, f"{scheme} at 0-d {x!r}"


def reference_table(gamma):
    table = np.zeros(gamma.shape[:-1] + (len(CATALOG), gamma.shape[-1]))
    for i, s in enumerate(CATALOG):
        if not s.silent:
            table[..., i, :] = reference_ber(s, gamma)
    return table


def test_ber_table_matches_per_term_reference():
    for shape in SHAPES:
        g = shaped_gammas(shape)
        assert _ber_table(g).tobytes() == reference_table(g).tobytes(), shape
    for n_f, n_t in [(2, 2), (12, 7), (21, 84)]:
        gamma = shaped_gammas((n_f * n_t,)).reshape(n_f, n_t)
        flat = np.ascontiguousarray(gamma.T).ravel()
        assert position_ber_table(gamma).tobytes() == (
            reference_table(flat).tobytes())
    with pytest.raises(ValueError, match="finite"):
        _ber_table(np.array([[1.0, np.inf]]))
    with pytest.raises(ValueError, match="non-negative"):
        _ber_table(np.array([[1.0, -1e-300]]))


#: Recorded from the one-call-per-term models before the batched kernels
#: replaced them; any drift in a BER float fails here before it reaches a CSV.
GOLDEN_TABLE_SHA256 = {
    "stack": "d5cab044ffb4dc990ee044efacc6f9fc9ebc43cad87704eb1ec0fccf4a3577ea",
    "grid": "cfe85f54da95bfd4bd57d36ae35e8e34f7a780453ae53e6344d41e752748d06f",
}
GOLDEN_MIN_SNR_HEX = {  # scheme: (target 1e-3, target 1e-2)
    "ASK2": ("0x1.3195cbe7c0000p+3", "0x1.5a5c7a75b0000p+2"),
    "ASK4": ("0x1.f943845e80000p+5", "0x1.1316375e18000p+5"),
    "ASK8": ("0x1.2bbe4d3980000p+8", "0x1.39a0c06bc0000p+7"),
    "PSK2": ("0x1.3195cbe7c0000p+2", "0x1.5a5c7a75b0000p+1"),
    "PSK4": ("0x1.3195cbe7c0000p+3", "0x1.5a5c7a75b0000p+2"),
    "PSK8": ("0x1.e121167080000p+4", "0x1.0141c8b7d0000p+4"),
    "PSK16": ("0x1.b34cde7080000p+6", "0x1.bb49045b80000p+5"),
    "QAM4": ("0x1.3195cbe7c0000p+3", "0x1.5a5c7a75b0000p+2"),
    "QAM16": ("0x1.68e7156840000p+5", "0x1.88fb2a8670000p+4"),
    "QAM64": ("0x1.67b1297840000p+7", "0x1.785a808150000p+6"),
}


def test_golden_ber_pin():
    g = np.geomspace(1e-3, 1e5, 1764)
    g[0] = 0.0
    g = g.reshape(21, 84)
    digests = {
        "stack": hashlib.sha256(_ber_table(g).tobytes()).hexdigest(),
        "grid": hashlib.sha256(position_ber_table(g).tobytes()).hexdigest(),
    }
    assert digests == GOLDEN_TABLE_SHA256
    got = {str(s): (min_snr_for(s, 1e-3).hex(), min_snr_for(s, 1e-2).hex())
           for s in NON_SILENT}
    assert got == GOLDEN_MIN_SNR_HEX


def psk_ber_two_calls_per_wedge(order, gamma):
    """The PSK sum evaluating both boundaries of every wedge afresh."""
    weights = _psk_wedge_weights(order)
    total = np.zeros_like(gamma)
    for m in range(1, order // 2):
        wedge = phase_exceedance((2 * m - 1) * np.pi / order, gamma) - phase_exceedance(
            (2 * m + 1) * np.pi / order, gamma
        )
        total += (weights[m] + weights[order - m]) * np.maximum(wedge, 0.0)
    total += weights[order // 2] * 2.0 * phase_exceedance((order - 1) * np.pi / order, gamma)
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
    # the block sweep's screen (loading._block_totals) needs every computed
    # BER non-negative, though the QAM and ASK terms carry negative
    # coefficients and the PSK tail a negative Owen's T, and its upper bound
    # needs every computed BER at most _SLACK / 2 above its value at any
    # lower gamma: 0, and about 500 points per decade from the smallest
    # subnormal, 5e-324, up to 1e300
    g = np.concatenate(([0.0], np.geomspace(5e-324, 1e300, 312_000)))
    for s in NON_SILENT:
        b = ber(s, g)
        assert np.all(b >= 0.0) and np.all(b <= 0.5 + 1e-15), f"{s} outside [0, 1/2]"
        assert np.all(np.diff(b) <= 1e-15), f"{s} not non-increasing in gamma"
        rise = b - np.minimum.accumulate(b)
        assert np.all(rise <= loading._SLACK / 2), f"{s} rises above a lower gamma's BER"


def test_monotonicity_in_order_within_family():
    g = np.geomspace(1e-4, 1e4, 120)
    for fam in ModulationFamily:
        orders = [m for m in FAMILY_ORDERS[fam] if m > 1]
        for lo, hi in zip(orders, orders[1:]):
            b_lo = ber(ModulationScheme(fam, lo), g)
            b_hi = ber(ModulationScheme(fam, hi), g)
            assert np.all(b_lo <= b_hi + 1e-15), f"{fam.name}: {lo} vs {hi}"


# min_snr_for evaluates its bisection midpoints as one vector; its result
# equals the serial bisection's only if vector and scalar ber agree exactly.
@settings(max_examples=40, deadline=None)
@given(extra=st.lists(st.floats(min_value=0.0, max_value=1e300), max_size=20))
def test_vectorized_matches_scalar(extra):
    g = np.array([0.0, 0.37, 2.5, 40.0] + extra)
    for s in NON_SILENT:
        vec = ber(s, g)
        assert vec.shape == g.shape
        for i, gi in enumerate(g):
            assert vec[i].hex() == ber(s, float(gi)).hex()


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


VALIDATE_TARGETS = np.geomspace(*VALIDATION_SPAN, N_VALIDATION_POINTS)


@pytest.mark.parametrize("scheme", NON_SILENT, ids=str)
def test_min_snr_for_matches_serial_bisection(scheme):
    for target in VALIDATE_TARGETS:
        assert min_snr_for(scheme, float(target)).hex() == (
            serial_min_snr_for(scheme, float(target)).hex()), f"{scheme} at {target}"


@settings(max_examples=60, deadline=None)
@given(
    scheme=st.sampled_from(NON_SILENT),
    target=st.floats(min_value=1e-8, max_value=0.49),
)
def test_min_snr_for_matches_serial_bisection_hypothesis(scheme, target):
    assert min_snr_for(scheme, target).hex() == serial_min_snr_for(scheme, target).hex()


@settings(max_examples=100, deadline=None)
@given(
    scheme=st.sampled_from(NON_SILENT),
    target=st.floats(min_value=1e-8, max_value=0.49),
)
def test_min_snr_for_guarantee(scheme, target):
    """Exactly what the min_snr_for docstring promises."""
    gamma = min_snr_for(scheme, target)
    b = ber(scheme, gamma)
    assert b <= target + 1e-13
    if abs(b - target) > 1e-13:
        assert b <= target
        assert ber(scheme, float(np.nextafter(gamma, 0.0))) > target


@pytest.mark.parametrize("curve, target, want", [
    # no power of two up to 2**39 meets the target: the 1e12 error
    (lambda g: 0.5 * erfc(np.sqrt(g) * 1e-6), 0.1, RuntimeError),
    # met first at 2**39, the last bracket top
    (lambda g: 0.5 * erfc(np.sqrt(g) * 1e-6), 0.2, lambda x: 2.0 ** 38 < x < 2.0 ** 39),
    # a jump at 3: the bracket closes on adjacent doubles, no early exit
    (lambda g: np.where(g < 3.0, 0.4, 0.1), 0.2, lambda x: x == 3.0),
    # a jump below 2**-200: the 200-step cap ends the bisection
    (lambda g: np.where(g < 1e-70, 0.4, 0.1), 0.2, lambda x: x == 2.0 ** -200),
], ids=["above-1e12", "top-bracket", "adjacent-doubles", "step-cap"])
def test_min_snr_for_edge_paths_match_serial(monkeypatch, curve, target, want):
    monkeypatch.setattr(modulation, "_ber_kernel", lambda scheme, g: curve(g))
    scheme = ModulationScheme(PSK, 16)
    if want is RuntimeError:
        for solve in (serial_min_snr_for, min_snr_for):
            with pytest.raises(RuntimeError, match="no SNR below 1e12 meets BER 0.1 for PSK16"):
                solve(scheme, target)
        return
    serial = serial_min_snr_for(scheme, target)
    assert want(serial), serial
    assert min_snr_for(scheme, target).hex() == serial.hex()


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

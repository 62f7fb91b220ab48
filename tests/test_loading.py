"""Allocator tests: weighted-average evaluation, greedy vs exhaustive oracle,
block mode, the batched sweep loader, instance serialization."""

import json
import math
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ofdmse import loading
from ofdmse.channel import SnrGrid, draw_realization, snr_grid, tux_profile
from ofdmse.cli import DRAWS_PER_CALL, SweepConfig, trial_gammas
from ofdmse.loading import (
    Allocation,
    block_allocate,
    evaluate_avg_ber,
    exhaustive_allocate,
    flat_mask,
    greedy_allocate,
    position_ber_table,
    sweep_total_bits,
)
from ofdmse.loading import (
    _CHUNK,
    _GAINS,
    _LEVEL_AT,
    _LEVELS,
    _NO_MOVE,
    _SLACK,
    _STAGES,
    _ber_table,
    _block_core,
    _block_totals,
    _dense_candidates,
    _greedy_lockstep,
    _initial_silent,
    _set_size,
    _to_allocation,
)
from ofdmse.modulation import (
    CATALOG,
    CATALOG_BITS,
    N_SCHEMES,
    ModulationScheme,
    ber,
    min_snr_for,
    scheme_from_name,
)
from ofdmse.systems import ConstraintGrid, Role, build_profile

Q_SQRT2 = 0.078649603525142565  # BPSK BER at gamma = 1

BPSK = scheme_from_name("PSK2")
QAM16 = scheme_from_name("QAM16")
SILENT = scheme_from_name("PSK1")


def grid_of(names, n_f, n_t):
    it = iter(names)
    return tuple(tuple(scheme_from_name(next(it)) for _ in range(n_t)) for _ in range(n_f))


def data_grid(sets):
    """ConstraintGrid with the given allowed sets (plus a silent escape)."""
    allowed = tuple(
        tuple(frozenset(schemes) | {SILENT} for schemes in row) for row in sets
    )
    roles = tuple(tuple(Role.DATA for _ in row) for row in sets)
    return ConstraintGrid(allowed, roles)


def save_instance(path, snr: SnrGrid, constraints: ConstraintGrid, p_t: float):
    """Serialize an allocation problem instance for regression fixtures."""
    payload = {
        "p_t": p_t,
        "gamma": np.asarray(snr.gamma, dtype=float).tolist(),
        "roles": [[r.value for r in row] for row in constraints.roles],
        "allowed": [
            [sorted(str(s) for s in schemes) for schemes in row]
            for row in constraints.allowed
        ],
    }
    Path(path).write_text(json.dumps(payload, indent=1))


def load_instance(path):
    """Inverse of save_instance: returns (SnrGrid, ConstraintGrid, p_t)."""
    payload = json.loads(Path(path).read_text())
    snr = SnrGrid(gamma=np.asarray(payload["gamma"], dtype=float))
    allowed = tuple(
        tuple(frozenset(scheme_from_name(n) for n in names) for names in row)
        for row in payload["allowed"]
    )
    roles = tuple(
        tuple(Role(value) for value in row) for row in payload["roles"]
    )
    return snr, ConstraintGrid(allowed, roles), float(payload["p_t"])


def random_instance(rng, n_f=2, n_t=2, snr_db=12.0):
    real = draw_realization(tux_profile(), n_f, n_t, rng)
    return snr_grid(real, 10 ** (-snr_db / 10))


class TestEvaluateAvgBer:
    def test_all_silent_is_zero(self):
        snr = SnrGrid(gamma=np.ones((2, 3)))
        assert evaluate_avg_ber(grid_of(["PSK1"] * 6, 2, 3), snr) == 0.0

    def test_single_bpsk(self):
        snr = SnrGrid(gamma=np.array([[1.0]]))
        got = evaluate_avg_ber(((BPSK,),), snr)
        assert abs(got - Q_SQRT2) < 1e-14

    def test_equal_weight_mean(self):
        snr = SnrGrid(gamma=np.array([[1.0], [2.5]]))
        p1, p2 = ber(BPSK, 1.0), ber(BPSK, 2.5)
        got = evaluate_avg_ber(((BPSK,), (BPSK,)), snr)
        assert abs(got - (p1 + p2) / 2) < 1e-15

    def test_bit_weighted_mean(self):
        snr = SnrGrid(gamma=np.array([[1.0], [40.0]]))
        p1, p2 = ber(BPSK, 1.0), ber(QAM16, 40.0)
        got = evaluate_avg_ber(((BPSK,), (QAM16,)), snr)
        assert abs(got - (p1 + 4 * p2) / 5) < 1e-15

    def test_shape_mismatch(self):
        snr = SnrGrid(gamma=np.ones((2, 2)))
        with pytest.raises(ValueError):
            evaluate_avg_ber(((BPSK,),), snr)

    @pytest.mark.parametrize("entry", ["QAM16", None, 4])
    def test_non_scheme_entry_named(self, entry):
        # not a bare KeyError from the catalog lookup
        snr = SnrGrid(gamma=np.ones((2, 2)))
        with pytest.raises(TypeError, match=f"ModulationScheme objects, got {entry!r}$"):
            evaluate_avg_ber(((BPSK, QAM16), (entry, BPSK)), snr)


class TestAllocationType:
    def test_bit_count_consistency(self):
        with pytest.raises(ValueError):
            Allocation(((BPSK,),), total_bits=2, avg_ber=0.01)
        with pytest.raises(ValueError):
            Allocation(((BPSK,),), total_bits=1, avg_ber=0.7)
        a = Allocation(((BPSK,),), total_bits=1, avg_ber=0.01)
        assert a.total_bits == 1


class TestGreedy:
    def test_saturates_at_high_snr(self):
        prof = build_profile("fb", 3, 2)
        snr = SnrGrid(gamma=np.full((3, 2), 1e6))
        a = greedy_allocate(snr, prof.grid, 1e-3)
        assert a.total_bits == 36
        assert all(str(s) == "QAM64" for row in a.schemes for s in row)

    def test_all_silent_at_zero_snr(self):
        prof = build_profile("fb", 3, 2)
        snr = SnrGrid(gamma=np.zeros((3, 2)))
        a = greedy_allocate(snr, prof.grid, 1e-3)
        assert a.total_bits == 0 and a.avg_ber == 0.0
        # canonical order-1 fallback is the lowest family allowed
        assert all(str(s) == "ASK1" for row in a.schemes for s in row)

    def test_single_position_threshold(self):
        need = min_snr_for(BPSK, 1e-3)
        grid = data_grid([[{BPSK}]])
        a = greedy_allocate(SnrGrid(gamma=np.array([[need * 1.01]])), grid, 1e-3)
        assert a.total_bits == 1
        a = greedy_allocate(SnrGrid(gamma=np.array([[need * 0.99]])), grid, 1e-3)
        assert a.total_bits == 0

    def test_family_tiebreak_prefers_psk_over_qam(self):
        # PSK4 and QAM4 cost exactly the same; the lower family must win
        qpsk, qam4 = scheme_from_name("PSK4"), scheme_from_name("QAM4")
        grid = data_grid([[{qpsk, qam4}]])
        snr = SnrGrid(gamma=np.array([[100.0]]))
        a = greedy_allocate(snr, grid, 1e-3)
        assert a.schemes[0][0] == qpsk
        x = exhaustive_allocate(snr, grid, 1e-3)
        assert x.schemes[0][0] == qpsk

    def test_avg_matches_full_recomputation(self):
        rng = np.random.default_rng(11)
        prof = build_profile("fb", 3, 3)
        for _ in range(10):
            snr = random_instance(rng, 3, 3)
            a = greedy_allocate(snr, prof.grid, 1e-3)
            full = evaluate_avg_ber(a.schemes, snr)
            assert a.avg_ber == pytest.approx(full, rel=1e-12, abs=0.0)
            assert a.avg_ber <= 1e-3

    def test_locally_maximal(self):
        rng = np.random.default_rng(3)
        prof = build_profile("fb", 2, 2)
        checked = 0
        for _ in range(10):
            snr = random_instance(rng)
            a = greedy_allocate(snr, prof.grid, 1e-3)
            for k in range(2):
                for l in range(2):
                    cur = a.schemes[k][l]
                    for s in prof.grid.allowed[k][l]:
                        if s.bits <= cur.bits:
                            continue
                        trial = [list(row) for row in a.schemes]
                        trial[k][l] = s
                        assert evaluate_avg_ber(trial, snr) > 1e-3
                        checked += 1
        assert checked > 0

    def test_deterministic_and_table_reuse(self):
        rng = np.random.default_rng(9)
        prof = build_profile("mlte")
        snr = random_instance(rng, 12, 7, snr_db=18.0)
        a = greedy_allocate(snr, prof.grid, 1e-3)
        b = greedy_allocate(snr, prof.grid, 1e-3)
        c = greedy_allocate(snr, prof.grid, 1e-3, ber_table=position_ber_table(snr))
        assert a == b == c

    def test_input_validation(self):
        prof = build_profile("fb", 2, 2)
        snr = SnrGrid(gamma=np.ones((2, 2)))
        with pytest.raises(ValueError):
            greedy_allocate(snr, prof.grid, 0.0)
        with pytest.raises(ValueError):
            greedy_allocate(snr, prof.grid, 0.5)
        with pytest.raises(ValueError):
            greedy_allocate(SnrGrid(gamma=np.ones((2, 3))), prof.grid, 1e-3)


class TestExhaustiveOracle:
    def test_single_position(self):
        grid = data_grid([[{BPSK}]])
        snr = SnrGrid(gamma=np.array([[50.0]]))
        x = exhaustive_allocate(snr, grid, 1e-3)
        assert x.total_bits == 1 and x.schemes[0][0] == BPSK

    def test_refuses_large_search_space(self):
        prof = build_profile("fb")  # 13^84 assignments
        snr = SnrGrid(gamma=np.ones((12, 7)))
        with pytest.raises(ValueError, match="search space"):
            exhaustive_allocate(snr, prof.grid, 1e-3)
        # just above the bound: refused before any assignment is enumerated
        grid = build_profile("fb", 1, 7).grid  # 13^7 > 10^7 assignments
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="search space"):
                exhaustive_allocate(SnrGrid(gamma=np.ones((1, 7))), grid, 1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_greedy_never_beats_oracle(self):
        rng = np.random.default_rng(21)
        prof = build_profile("fb", 2, 2)
        gaps = []
        for _ in range(15):
            snr = random_instance(rng)
            for p_t in (1e-2, 1e-3):
                g = greedy_allocate(snr, prof.grid, p_t)
                x = exhaustive_allocate(snr, prof.grid, p_t)
                assert g.total_bits <= x.total_bits
                assert x.avg_ber <= p_t
                assert evaluate_avg_ber(x.schemes, snr) == pytest.approx(
                    x.avg_ber, rel=1e-12, abs=0.0
                )
                gaps.append(x.total_bits - g.total_bits)
        assert min(gaps) >= 0

    def test_relaxation_monotonicity(self):
        rng = np.random.default_rng(31)
        fb = build_profile("fb", 2, 2)
        cm = build_profile("cm", 2, 2)
        for _ in range(8):
            snr = random_instance(rng)
            wide = exhaustive_allocate(snr, fb.grid, 1e-3)
            narrow = exhaustive_allocate(snr, cm.grid, 1e-3)
            assert wide.total_bits >= narrow.total_bits

    def test_p_t_monotonicity(self):
        rng = np.random.default_rng(41)
        prof = build_profile("fb", 2, 2)
        for _ in range(8):
            snr = random_instance(rng)
            prev = -1
            for p_t in (1e-4, 1e-3, 1e-2, 1e-1):
                x = exhaustive_allocate(snr, prof.grid, p_t)
                assert x.total_bits >= prev
                prev = x.total_bits


# The oracle before it scored bits first: every assignment in enumeration
# order, in chunks, each scored with a division, kept as the reference that
# exhaustive_allocate must match bit for bit.

def exhaustive_by_division(mask, cost, p_t, chunk=1 << 17):
    """Returns (scheme index per position, S, W) of the assignment with the
    most bits within p_t, then the least average, then the first id."""
    n = mask.shape[1]
    options = [np.nonzero(mask[:, p])[0] for p in range(n)]
    sizes = np.array([o.size for o in options], dtype=np.int64)
    total = math.prod(int(s) for s in sizes)
    # mixed-radix digits: position 0 is the most significant, so the first
    # feasible id found at the best score is also first in position order
    strides = np.ones(n, dtype=np.int64)
    strides[:-1] = np.cumprod(sizes[::-1], dtype=np.int64)[::-1][1:]
    lut = np.zeros((n, int(sizes.max())), dtype=np.int64)
    for p, opt in enumerate(options):
        lut[p, : opt.size] = opt
    cols = np.arange(n)
    best = (-1, np.inf, 0.0, None)  # (bits, avg, weighted sum, scheme indices)
    for start in range(0, total, chunk):
        ids = np.arange(start, min(start + chunk, total), dtype=np.int64)
        digits = (ids[:, None] // strides[None, :]) % sizes[None, :]
        sel = lut[cols[None, :], digits]
        w = CATALOG_BITS[sel].sum(axis=1)
        weighted = np.ascontiguousarray(cost[sel, cols[None, :]]).sum(axis=1)
        avg = np.where(w > 0, weighted / np.maximum(w, 1), 0.0)
        feas = np.nonzero(avg <= p_t)[0]
        if feas.size == 0:
            continue
        w_f = w[feas]
        top = feas[w_f == w_f.max()]
        j = top[np.argmin(avg[top])]
        if int(w[j]) > best[0] or (int(w[j]) == best[0] and float(avg[j]) < best[1]):
            best = (int(w[j]), float(avg[j]), float(weighted[j]), sel[j].copy())
    w_best, _avg_best, s_best, sel_best = best
    return sel_best, s_best, w_best


def assert_oracle_matches_reference(snr, grid, p_t):
    x = exhaustive_allocate(snr, grid, p_t)
    cost = CATALOG_BITS[:, None] * position_ber_table(snr)
    idx, s_sum, w_sum = exhaustive_by_division(flat_mask(grid), cost, p_t)
    ref = _to_allocation(idx, grid.n_f, grid.n_t, s_sum, w_sum)
    assert x.schemes == ref.schemes
    assert x.total_bits == ref.total_bits
    assert x.avg_ber.hex() == ref.avg_ber.hex()
    return x


def level_sizes(grid):
    """Number of assignments of each bit total, by convolving the positions'
    bit histograms."""
    mask = flat_mask(grid)
    sizes = np.ones(1, dtype=np.int64)
    for p in range(mask.shape[1]):
        sizes = np.convolve(sizes, np.bincount(CATALOG_BITS[mask[:, p]]))
    return sizes


@st.composite
def oracle_problems(draw):
    """1-6 positions, each allowing a random catalog subset that keeps a
    silent scheme, with at most about 5000 assignments in all, and p_t
    log-uniform in (1e-6, 0.49).  Gammas include 0 and 1e300; at 1e300
    every scheme's BER is 0.0, so equal averages leave the choice to
    enumeration order, and the positions may repeat the allowed set and
    gamma of one of the first two."""
    n = draw(st.integers(1, 6))
    n_f = draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
    cap = int(5000 ** (1 / n))
    loaded = [i for i, s in enumerate(CATALOG) if not s.silent]
    sets = [[draw(st.sampled_from(SILENT_ROWS))]
            + draw(st.lists(st.sampled_from(loaded), unique=True, max_size=cap - 1))
            for _ in range(n)]
    gamma = draw(arrays(float, n, elements=st.one_of(
        st.sampled_from([0.0, 1e300]), st.floats(-2.0, 6.0).map(lambda e: 10.0 ** e))))
    if n > 1 and draw(st.booleans()):
        src = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        sets, gamma = [sets[i] for i in src], gamma[src]
    p_t = 10.0 ** draw(st.floats(-6.0, math.log10(0.49)))
    n_t = n // n_f
    # time-major positions: p = l * n_f + k
    allowed = tuple(tuple(frozenset(CATALOG[i] for i in sets[l * n_f + k]) for l in range(n_t))
                    for k in range(n_f))
    grid = ConstraintGrid(allowed, tuple(tuple(Role.DATA for _ in range(n_t)) for _ in range(n_f)))
    return SnrGrid(gamma=gamma.reshape(n_t, n_f).T), grid, p_t


class TestExhaustiveMatchesReference:
    """The bits-first oracle against the full enumeration: same schemes,
    total_bits and avg_ber bits."""

    @settings(max_examples=150, deadline=None)
    @given(problem=oracle_problems(),
           blocks=st.sampled_from([(1 << 17, 1 << 10), (1, 0), (7, 0), (7, 30), (64, 5)]))
    def test_random_problems(self, problem, blocks):
        chunk, merge = blocks
        with mock.patch.object(loading, "_CHUNK", chunk), mock.patch.object(loading, "_MERGE", merge):
            assert_oracle_matches_reference(*problem)

    @pytest.mark.parametrize("chunk,merge", [(1, 0), (2, 3), (5, 40), (64, 0)])
    @pytest.mark.parametrize("name,n_f,n_t", [("fb", 1, 3), ("cm", 2, 2)])
    def test_small_blocks(self, name, n_f, n_t, chunk, merge):
        rng = np.random.default_rng(61)
        grid = build_profile(name, n_f, n_t).grid
        with mock.patch.object(loading, "_CHUNK", chunk), mock.patch.object(loading, "_MERGE", merge):
            for db in (0.0, 10.0, 20.0, 40.0):
                for p_t in (1e-3, 1e-2):
                    assert_oracle_matches_reference(random_instance(rng, n_f, n_t, db), grid, p_t)

    @pytest.mark.parametrize("merge", [loading._MERGE, 0])
    def test_ties_go_to_the_first_assignment(self, merge):
        # every BER is 0.0 at 1e300, so the 16 all-4-bit assignments tie
        grid = data_grid([[{scheme_from_name("PSK16"), QAM16}] * 2] * 2)
        snr = SnrGrid(gamma=np.full((2, 2), 1e300))
        with mock.patch.object(loading, "_MERGE", merge):
            x = assert_oracle_matches_reference(snr, grid, 1e-3)
        assert x.total_bits == 16 and x.avg_ber == 0.0
        assert {str(s) for row in x.schemes for s in row} == {"PSK16"}

    @pytest.mark.parametrize("name,n_f,n_t,snr_db", [
        ("fb", 2, 3, 0.0), ("fb", 2, 3, 20.0), ("cm", 3, 3, 10.0)])
    def test_above_one_block(self, name, n_f, n_t, snr_db):
        grid = build_profile(name, n_f, n_t).grid
        sizes = level_sizes(grid)
        assert sizes.sum() > _CHUNK
        x = assert_oracle_matches_reference(
            random_instance(np.random.default_rng(5), n_f, n_t, snr_db), grid, 1e-3)
        if snr_db == 0.0:
            # the walk scored a level larger than one block before it stopped
            assert sizes[x.total_bits + 1:].max() > _CHUNK


BAD_BER_TABLES = {
    "column": lambda t: np.zeros((N_SCHEMES, 1)),
    "row": lambda t: np.zeros((1, t.shape[1])),
    "transposed": lambda t: t.T,
    "flat": lambda t: t.ravel(),
    "stacked": lambda t: t[None],
    "nan": lambda t: np.where(np.arange(t.size).reshape(t.shape) == 30, np.nan, t),
    "inf": lambda t: np.where(np.arange(t.size).reshape(t.shape) == 30, np.inf, t),
    "above_half": lambda t: np.full(t.shape, 0.6),
    "negative": lambda t: np.where(np.arange(t.size).reshape(t.shape) == 30, -1e-300, t),
}


class TestBerTableValidation:
    @pytest.mark.parametrize("bad", sorted(BAD_BER_TABLES))
    @pytest.mark.parametrize("allocate", [greedy_allocate, block_allocate, exhaustive_allocate])
    def test_malformed_table_is_refused(self, allocate, bad):
        grid = build_profile("fb").grid
        snr = random_instance(np.random.default_rng(3), 12, 7, snr_db=10.0)
        table = BAD_BER_TABLES[bad](position_ber_table(snr))
        with pytest.raises(ValueError, match="ber_table"):
            allocate(snr, grid, 1e-3, ber_table=table)

    @pytest.mark.parametrize("allocate", [greedy_allocate, block_allocate, exhaustive_allocate])
    def test_position_ber_table_is_accepted(self, allocate):
        for n_f, n_t, snr_db in ((2, 2, 10.0), (2, 2, -30.0), (12, 7, 10.0)):
            if allocate is exhaustive_allocate and n_f * n_t > 4:
                continue
            grid = build_profile("fb", n_f, n_t).grid
            snr = random_instance(np.random.default_rng(3), n_f, n_t, snr_db)
            assert (allocate(snr, grid, 1e-3, ber_table=position_ber_table(snr))
                    == allocate(snr, grid, 1e-3))


class TestBlockMode:
    def test_uniform_scheme_at_high_snr(self):
        lte = build_profile("lte")
        snr = SnrGrid(gamma=np.full((12, 7), 1e6))
        a = block_allocate(snr, lte.grid, 1e-3)
        assert a.total_bits == 480  # 64-QAM on the 80 non-pilot positions
        assert str(a.schemes[1][0]) == "QAM64"
        assert a.schemes[0][0].silent  # pilot position stays silent

    def test_silent_when_infeasible(self):
        prof = build_profile("cm", 2, 2)
        a = block_allocate(SnrGrid(gamma=np.zeros((2, 2))), prof.grid, 1e-3)
        assert a.total_bits == 0

    def test_feasible_and_consistent(self):
        rng = np.random.default_rng(51)
        for name in ("fb", "cm", "lte", "mlte"):
            prof = build_profile(name)
            snr = random_instance(rng, 12, 7, snr_db=22.0)
            a = block_allocate(snr, prof.grid, 1e-3)
            assert a.avg_ber <= 1e-3
            assert evaluate_avg_ber(a.schemes, snr) == pytest.approx(
                a.avg_ber, rel=1e-12, abs=0.0
            )
            # one non-silent scheme across the whole block
            used = {s for row in a.schemes for s in row if not s.silent}
            assert len(used) <= 1

    def test_block_never_beats_oracle(self):
        rng = np.random.default_rng(61)
        prof = build_profile("fb", 2, 2)
        for _ in range(8):
            snr = random_instance(rng)
            b = block_allocate(snr, prof.grid, 1e-3)
            x = exhaustive_allocate(snr, prof.grid, 1e-3)
            assert b.total_bits <= x.total_bits


SILENT_ROWS = [i for i, s in enumerate(CATALOG) if s.silent]

#: With all schemes allowed at p_t = GUARD_P_T, one greedy commit on these
#: gammas passes the incremental screen and fails the full recompute.
GUARD_GAMMAS = [229.771, 5.22527, 426.042, 1.49866, 10.1942, 2.82383, 22.4398,
                244.891, 4.91956, 1.4324, 16.3552, 3.94039, 1.8718, 55.0804,
                7.87206, 103.749]
GUARD_P_T = 0.0005996757725321551


#: Three 16-position grids that, batched after the all-schemes grid on
#: GUARD_GAMMAS at GUARD_P_T, meet in one lockstep step: the guard rejects
#: the first grid's single 1-bit move, the others commit a set of 4-bit
#: moves, a set of 2-bit moves and a single 4-bit move.  Bit i of a mask
#: entry allows catalog row i at that position.
MIXED_GAMMAS = [
    [5174.0, 319.4, 132.3, 15.84, 11.83, 1131.0, 19.76, 4896.0, 22020.0, 0.5852, 593.8,
     117.2, 6.956, 1042.0, 32.92, 954.9],
    [7.704, 163.2, 2.236, 3.348, 20.86, 1638.0, 7776.0, 565.9, 5.545, 16960.0, 28.47,
     53.28, 1494.0, 934.6, 223.8, 142.5],
    [3237.0, 38.48, 276.1, 49.6, 1584.0, 11.84, 11690.0, 136.8, 10.41, 334.4, 1216.0,
     2593.0, 193.7, 547.1, 2356.0, 10.84],
]
MIXED_MASKS = [
    [0x1f55, 0x133b, 0x12d7, 0xaf9, 0x35f, 0x1e15, 0x1611, 0xa91, 0x1771, 0x1331, 0xf31,
     0xe15, 0x797, 0x333, 0x311, 0x611],
    [0x1fff, 0x1ef5, 0x17ff, 0x1af3, 0x17ff, 0xfbf, 0x17f9, 0x1f7f, 0x1bff, 0x177f, 0x1739,
     0x1e7b, 0xfb7, 0x165d, 0x16f1, 0x1fd7],
    [0x2b7, 0x12d5, 0x3d7, 0xfbf, 0xbd3, 0x1a1f, 0x1af7, 0x1fd3, 0x1ed3, 0xebf, 0x31f,
     0x37f, 0x17f7, 0xbb3, 0x1755, 0x179b],
]


#: catalog rows grouped by bits per symbol, silent rows left out
BIT_LEVELS = [[i for i, s in enumerate(CATALOG) if s.bits == b] for b in (1, 2, 3, 4, 6)]


@st.composite
def lockstep_batches(draw):
    """Several grids of masks (a silent scheme kept at every position) and
    log-spread gammas, so grids finish at different steps.

    "random" draws every mask entry, and sometimes repeats the mask and
    gamma of one of the first three positions, so equal resulting averages
    leave the choice to the first-position rule.  "long_runs" gives every
    position of a grid one mask and a high gamma, so one gain class loads
    many positions in a row.  "ulp_chain" gives the positions of a grid one
    mask and gammas a few ulps apart in shuffled order, so keys differ in
    their last bits or not at all.  "cross_family" allows one random family
    per bit level at each position, so the next level's only scheme may
    come from a cheaper or a costlier family.
    """
    kind = draw(st.sampled_from(["random", "long_runs", "ulp_chain", "cross_family"]))
    rows = draw(st.integers(1, 6))
    n = draw(st.integers(12, 40) if kind == "long_runs" else st.integers(1, 16))
    mask = draw(arrays(bool, (rows, N_SCHEMES, 1 if kind in ("long_runs", "ulp_chain") else n)))
    if kind == "cross_family":
        mask[:] = False
        for level in BIT_LEVELS:
            pick = draw(arrays(np.int64, (rows, 1, n), elements=st.sampled_from(level + [-1])))
            np.put_along_axis(mask, np.where(pick < 0, SILENT_ROWS[0], pick), pick >= 0, axis=1)
    mask = np.repeat(mask, n // mask.shape[2], axis=2)
    keep = draw(arrays(np.int64, (rows, 1, n), elements=st.sampled_from(SILENT_ROWS)))
    np.put_along_axis(mask, keep, True, axis=1)
    low = 1.5 if kind == "long_runs" else -1.0
    exponents = draw(arrays(float, (rows, n), elements=st.floats(low, 4.5)))
    if kind == "ulp_chain":
        ulps = draw(arrays(np.int64, (rows, n), elements=st.integers(0, 2)))
        start = (10.0 ** exponents[:, :1]).view(np.int64)
        gamma = (start + np.cumsum(ulps, axis=1)).view(float)
        return mask, gamma[:, draw(st.permutations(range(n)))]
    if kind == "random" and draw(st.booleans()):
        src = draw(arrays(np.int64, (rows, n), elements=st.integers(0, min(n, 3) - 1)))
        mask = np.take_along_axis(mask, src[:, None, :], axis=2)
        exponents = np.take_along_axis(exponents, src, axis=1)
    return mask, 10.0 ** exponents


# The serial greedy loader, one grid and one commit per iteration, kept as
# the reference that the lockstep core must match bit for bit.

def _candidate_moves(mask, cost):
    """Prune the move set to one candidate per (position, bits level).

    For equal bits at one position only the cheapest scheme can ever win
    (ties go to the lowest family, matching np.argmin's first-hit rule on
    family-ascending rows), so the rest are dropped up front.
    """
    n = mask.shape[1]
    pos_parts, idx_parts = [], []
    for _bits, rows in _LEVELS:
        rows = list(rows)
        level_cost = np.where(mask[rows], cost[rows], np.inf)
        pick = np.argmin(level_cost, axis=0)
        have = np.isfinite(level_cost[pick, np.arange(n)])
        pos_parts.append(np.nonzero(have)[0])
        idx_parts.append(np.asarray(rows)[pick[have]])
    pos = np.concatenate(pos_parts)
    idx = np.concatenate(idx_parts)
    return pos, idx, CATALOG_BITS[idx], cost[idx, pos]


def _greedy_core(mask, cost, p_t):
    """Run the incremental loop; returns (scheme index per position, S, W).

    S is the running sum of bits * ber over positions (recomputed in full
    after every commit so it cannot drift from evaluate_avg_ber), W the
    running bit total.
    """
    cand_pos, cand_idx, cand_bits, cand_cost = _candidate_moves(mask, cost)
    cur_idx = _initial_silent(mask)
    n = mask.shape[1]
    cur_bits = np.zeros(n, dtype=np.int64)
    cur_cost = np.zeros(n)
    alive = np.ones(cand_pos.size, dtype=bool)
    s_sum, w_sum = 0.0, 0
    while True:
        cur_b = cur_bits[cand_pos]
        up = alive & (cand_bits > cur_b)
        sel = np.nonzero(up)[0]
        if sel.size == 0:
            break
        w_new = w_sum + (cand_bits[sel] - cur_b[sel])
        avg_new = (s_sum + cand_cost[sel] - cur_cost[cand_pos[sel]]) / w_new
        feas = avg_new <= p_t
        sel, avg_new = sel[feas], avg_new[feas]
        if sel.size == 0:
            break
        # greatest bit gain, then lowest resulting average, then first position;
        # the per-level pruning already settled family ties
        gain = cand_bits[sel] - cur_bits[cand_pos[sel]]
        top = gain == gain.max()
        sel, avg_new = sel[top], avg_new[top]
        best = avg_new == avg_new.min()
        sel = sel[best]
        j = sel[np.argmin(cand_pos[sel])]
        p = cand_pos[j]
        old = cur_idx[p], cur_bits[p], cur_cost[p]
        cur_idx[p] = cand_idx[j]
        cur_bits[p] = cand_bits[j]
        cur_cost[p] = cand_cost[j]
        s_full = float(np.sum(cur_cost))
        w_full = int(cur_bits.sum())
        if s_full / w_full > p_t:
            # the incremental screen was optimistic by rounding; drop the move
            cur_idx[p], cur_bits[p], cur_cost[p] = old
            alive[j] = False
            continue
        s_sum, w_sum = s_full, w_full
    return cur_idx, s_sum, w_sum


def assert_lockstep_matches_core(mask, gamma, p_t):
    """The lockstep core on the batch, and on each grid alone with no
    leading axes as greedy_allocate calls it, matches the serial loop at
    the one target p_t."""
    cost = CATALOG_BITS[:, None] * _ber_table(gamma)
    idx, s_sum, w_sum = _greedy_lockstep(mask, cost, p_t)
    for r in range(mask.shape[0]):
        ref_idx, ref_s, ref_w = _greedy_core(mask[r], cost[r], p_t)
        one_idx, one_s, one_w = _greedy_lockstep(mask[r], cost[r], p_t)
        assert one_idx.shape == ref_idx.shape and one_s.shape == one_w.shape == ()
        for got_idx, got_s, got_w in ((idx[r], s_sum[r], w_sum[r]), (one_idx, one_s, one_w)):
            np.testing.assert_array_equal(got_idx, ref_idx)
            assert float(got_s).hex() == float(ref_s).hex()
            assert got_w == ref_w


def sweep_draws(trials):
    """Gammas of the default sweep's first draws, (trials, 21, 12, 7): each
    trial's stack of its 21 SNR grids, as the sweep loads it."""
    cfg, chan = SweepConfig(), tux_profile()
    return np.stack([trial_gammas(cfg, chan, 0, trial) for trial in range(trials)])


def time_major(gammas):
    """(S, n_f, n_t) gammas as (S, N) rows, positions time-major."""
    return gammas.transpose(0, 2, 1).reshape(len(gammas), -1)


class TestLockstep:
    @settings(max_examples=200, deadline=None)
    @given(batch=lockstep_batches(),
           p_t=st.one_of(st.sampled_from([1e-3, 1e-2]), st.floats(1e-5, 0.3)))
    def test_matches_serial_core_row_by_row(self, batch, p_t):
        mask, gamma = batch
        assert_lockstep_matches_core(mask, gamma, p_t)

    @pytest.mark.parametrize("p_t", [1e-3, 1e-2])
    def test_matches_serial_core_on_sweep_draws(self, p_t):
        masks = np.stack([flat_mask(build_profile(n).grid) for n in ("fb", "cm", "lte", "mlte")])
        for gamma in map(time_major, sweep_draws(2)):
            for m in masks:
                assert_lockstep_matches_core(np.broadcast_to(m, (len(gamma),) + m.shape),
                                             gamma, p_t)

    def test_matches_serial_core_through_rounding_guard(self):
        gamma = np.array(GUARD_GAMMAS)
        rows = np.stack([gamma, gamma * 10.0, gamma, gamma / 10.0])
        mask = np.ones((4, N_SCHEMES, gamma.size), dtype=bool)
        mask[1, 9:] = False  # no QAM on the second grid
        assert_lockstep_matches_core(mask, rows, GUARD_P_T)

    def test_matches_serial_core_through_mixed_step(self):
        # a commit that mixes gain classes, sets, a single move and a guard
        # rejection in one step, so the class shift of every kind is covered
        gamma = np.array([GUARD_GAMMAS] + MIXED_GAMMAS)
        entries = np.array([[(1 << N_SCHEMES) - 1] * gamma.shape[1]] + MIXED_MASKS)
        mask = (entries[:, None, :] >> np.arange(N_SCHEMES)[:, None]) & 1 == 1
        real_commit, steps = loading._commit, []

        def recording(cur_bits, cur_cost, by_gain, bg, g, commit, n_set, s_sum, w_sum, p_t):
            before = g.copy(), n_set.copy(), w_sum.copy()
            out = real_commit(cur_bits, cur_cost, by_gain, bg, g, commit, n_set, s_sum, w_sum, p_t)
            steps.append(before + (out[2],))
            return out

        with mock.patch.object(loading, "_commit", recording):
            assert_lockstep_matches_core(mask, gamma, GUARD_P_T)
        assert any(np.unique(g).size > 1 and (n_set > 1).any()
                   and ((n_set == 0) & (w_full > w)).any() and (w_full == w).any()
                   for g, n_set, w, w_full in steps)

    @pytest.mark.parametrize("granularity", ["subcarrier", "block"])
    def test_sweep_totals_do_not_depend_on_batch(self, granularity):
        grids = [build_profile(n).grid for n in ("fb", "cm", "lte", "mlte")]
        draws = sweep_draws(3)
        gammas = np.concatenate(draws)
        targets = np.array([1e-3, 1e-2, 0.1])
        one_call = []
        for p_t in targets:
            one_call.append(sweep_total_bits(grids, gammas, p_t, granularity))
            per_draw = [sweep_total_bits(grids, d, p_t, granularity) for d in draws]
            np.testing.assert_array_equal(one_call[-1], np.concatenate(per_draw))
        assert all((a != b).any() for a, b in zip(one_call, one_call[1:]))
        # one call on a column that interleaves the three targets, none of
        # them in one contiguous run, gives each SNR grid its own target's
        # totals in its own row
        which = np.arange(len(gammas)) % 3
        mixed = sweep_total_bits(grids, gammas, targets[which], granularity)
        np.testing.assert_array_equal(mixed, np.choose(which[:, None], one_call))

    def test_two_draw_sweep_call_stays_within_its_memory(self):
        # the call traces about 3.2 MiB at its peak at one target, and about
        # 1.7 MiB when it straddles two targets, one draw each, and so makes
        # two one-draw core calls; the bound leaves about 10% for the
        # allocator's own growth
        grids = [build_profile(n).grid for n in ("fb", "cm", "lte", "mlte")]
        gammas = np.concatenate(sweep_draws(2))
        for p_t in (1e-3, np.repeat([1e-3, 1e-2], len(gammas) // 2)):
            expected = sweep_total_bits(grids, gammas, p_t, "subcarrier")
            tracemalloc.start()
            try:
                totals = sweep_total_bits(grids, gammas, p_t, "subcarrier")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            np.testing.assert_array_equal(totals, expected)
            assert peak < 3.5 * 2 ** 20

    @pytest.mark.parametrize("granularity,allocate", [
        ("subcarrier", greedy_allocate), ("block", block_allocate)])
    def test_sweep_totals_match_single_grid_calls(self, granularity, allocate):
        rng = np.random.default_rng(5)
        real = draw_realization(tux_profile(), 12, 7, rng)
        snrs = [snr_grid(real, 10 ** (-db / 10)) for db in (0.0, 12.0, 24.0, 40.0)]
        grids = [build_profile(n).grid for n in ("fb", "cm", "lte", "mlte")]
        for p_t in (1e-3, 1e-2):
            totals = sweep_total_bits(grids, np.stack([s.gamma for s in snrs]), p_t, granularity)
            assert totals.shape == (len(snrs), len(grids))
            expected = [[allocate(snr, g, p_t).total_bits for g in grids] for snr in snrs]
            np.testing.assert_array_equal(totals, expected)


class TestSweepRefusals:
    """sweep_total_bits refuses input the single-grid solvers and SweepConfig
    refuse, in their words, and names the argument of an empty or
    mismatched one.  Without the shape check a (1, 1, 1) or transposed
    stack broadcasts over the 12 x 7 fb grid and loads 504 bits."""

    FB = [build_profile("fb").grid]

    @pytest.mark.parametrize("granularity", ["subcarrier", "block"])
    def test_one_position_stack_refused(self, granularity):
        with pytest.raises(ValueError, match=r"^SNR grid \(1, 1\) does not match "
                                             r"constraints \(12, 7\)$"):
            sweep_total_bits(self.FB, np.full((1, 1, 1), 1e6), 1e-3, granularity)

    @pytest.mark.parametrize("granularity", ["subcarrier", "block"])
    def test_transposed_stack_refused(self, granularity):
        with pytest.raises(ValueError, match=r"^SNR grid \(7, 12\) does not match "
                                             r"constraints \(12, 7\)$"):
            sweep_total_bits(self.FB, np.full((1, 7, 12), 1e6), 1e-3, granularity)

    @pytest.mark.parametrize("granularity", ["subcarrier", "block"])
    @pytest.mark.parametrize("p_t", [0.7, -1.0, [1e-3, 0.5]])
    def test_target_outside_range_refused(self, granularity, p_t):
        bad = np.ravel(p_t)[-1]
        with pytest.raises(ValueError, match=rf"^p_t must lie in \(0, 0\.5\), got {bad}$"):
            sweep_total_bits(self.FB, np.full((2, 12, 7), 1e6), p_t, granularity)

    @pytest.mark.parametrize("granularity", ["subcarrier", "block"])
    def test_target_count_mismatch_refused(self, granularity):
        with pytest.raises(ValueError, match=r"^p_t must be one target or one per SNR grid "
                                             r"\(2\), got 3$"):
            sweep_total_bits(self.FB, np.full((2, 12, 7), 1e6), [1e-3, 1e-2, 0.1], granularity)

    @pytest.mark.parametrize("granularity", ["subcarrier", "block"])
    def test_no_constraint_grid_refused(self, granularity):
        with pytest.raises(ValueError, match="^grids must hold at least one constraint grid$"):
            sweep_total_bits([], np.full((1, 12, 7), 1e6), 1e-3, granularity)

    @pytest.mark.parametrize("granularity", ["subcarrier", "block"])
    def test_empty_stack_refused(self, granularity):
        with pytest.raises(ValueError, match=r"^gammas must hold at least one SNR grid, "
                                             r"got shape \(0, 12, 7\)$"):
            sweep_total_bits(self.FB, np.zeros((0, 12, 7)), 1e-3, granularity)

    def test_unknown_granularity_refused(self):
        with pytest.raises(ValueError, match="^granularity must be subcarrier or block$"):
            sweep_total_bits(self.FB, np.full((1, 12, 7), 1e6), 1e-3, "blok")


class TestSetSize:
    def test_filter_c_margin_holds_after_the_first_move(self):
        # one grid with room 0 and two class-1 keys; the smallest class-2
        # key sits so that E_1 + above = delta / 2: after the first move the
        # class-2 move is within delta of feasible, so the set stops at one
        # move, where a filter (c) without its margin would take both
        p_t, n = 1e-3, 2
        s_sum, w_sum, g, two_cmax = np.zeros(1), np.zeros(1, dtype=np.int64), np.array([1]), 2.0
        ks = np.array([[1e-4, 2e-4]])
        delta = 8 * n * 2.0 ** -53 * (p_t * (w_sum[0] + g[0] * n) + two_cmax)
        e_1 = ks[0, 0] - p_t
        above = delta / 2 - e_1
        assert 0.0 < e_1 + above <= delta
        low = np.full((1, _GAINS.size), _NO_MOVE)
        low[0, :2] = ks[0, 0], above + 2 * p_t
        steps = np.arange(n + 1)
        n_set = _set_size(ks, low, s_sum, w_sum, g, p_t, np.array([two_cmax]),
                          np.zeros((1, n + 1)), steps, p_t * g[:, None] * steps)
        assert n_set.tolist() == [1]


def dense_candidates_by_argmin(mask, cost):
    """_dense_candidates as a min and argmin over each level's gathered
    rows, kept as the reference for the strict-less-than chain.  The costs
    are built per level, with an all-_NO_MOVE last level, and then gathered
    into gain classes through _LEVEL_AT, the pad class included."""
    lead = np.broadcast_shapes(mask.shape[:-2], cost.shape[:-2])
    shape = lead + (len(_LEVELS) + 1, mask.shape[-1])
    cand_idx = np.zeros(shape, dtype=np.int8)
    cand_cost = np.full(shape, _NO_MOVE)
    for lvl, (_bits, rows) in enumerate(_LEVELS):
        rows = np.asarray(rows, dtype=np.int8)
        level_cost = np.where(mask[..., rows, :], cost[..., rows, :], _NO_MOVE)
        cand_cost[..., lvl, :] = level_cost.min(axis=-2)
        cand_idx[..., lvl, :] = rows[level_cost.argmin(axis=-2)]
    return cand_idx, cand_cost.take(np.append(_LEVEL_AT[1:], len(_LEVELS)), axis=-2)


def assert_candidates_match_argmin(mask, cost):
    got = _dense_candidates(mask, cost)
    want = dense_candidates_by_argmin(mask, cost)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


class TestDenseCandidates:
    def test_matches_argmin_on_sweep_draws(self):
        # the sweep's broadcast: (1, systems, ...) masks, (grids, 1, ...) costs
        masks = np.stack([flat_mask(build_profile(n).grid) for n in ("fb", "cm", "lte", "mlte")])
        for gammas in sweep_draws(2):
            cost = _ber_table(time_major(gammas))
            cost *= CATALOG_BITS[:, None]
            assert_candidates_match_argmin(masks[None], cost[:, None])
            for m in masks:
                assert_candidates_match_argmin(m, cost[0])

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), rows=st.integers(1, 4), n=st.integers(1, 12))
    def test_matches_argmin_on_random_masks(self, data, rows, n):
        mask = data.draw(arrays(bool, (rows, N_SCHEMES, n)))
        # clear whole levels at some positions, so no scheme of them is allowed
        for level in BIT_LEVELS:
            empty = data.draw(arrays(bool, (rows, 1, n)))
            mask[:, level] &= ~empty
        # few distinct costs, so rows of one level often tie
        values = data.draw(st.lists(st.floats(0.0, 6.0), min_size=1, max_size=3))
        pick = data.draw(arrays(np.int64, (rows, N_SCHEMES, n),
                                elements=st.integers(0, len(values) - 1)))
        cost = np.asarray(values)[pick]
        assert_candidates_match_argmin(mask, cost)
        assert_candidates_match_argmin(mask[0], cost)
        assert_candidates_match_argmin(mask, cost[0])


def block_core_one_scheme_at_a_time(mask, cost, p_t):
    """The block loader before it was vectorized: one grid, a Python loop
    over the catalog; returns (scheme index per position, S, W)."""
    silent = _initial_silent(mask)
    best_idx, best_w, best_s = None, 0, 0.0
    for i, s in enumerate(CATALOG):
        if s.silent:
            continue
        loaded = mask[i]
        w = int(s.bits * np.count_nonzero(loaded))
        if w == 0 or w < best_w:
            continue
        weighted = float(np.sum(np.where(loaded, cost[i], 0.0)))
        avg = weighted / w
        if avg > p_t:
            continue
        if best_idx is None or w > best_w or avg < best_s / best_w:
            best_idx, best_w, best_s = i, w, weighted
    if best_idx is None:
        return silent, 0.0, 0
    return np.where(mask[best_idx], best_idx, silent), best_s, best_w


@st.composite
def block_problems(draw):
    """Masks of several grids (a silent scheme kept at every position), BER
    rows of several SNR draws, and p_t in (0, 0.5).

    "ties" gives every scheme of a bit level the same mask and BER row, so
    equal W and equal averages leave the choice to catalog order, and may
    set every BER to one power of two, which ties averages across levels.
    "infeasible" puts p_t below every BER, so no scheme fits, and
    "at_limit" sets p_t to one scheme's average, which must still fit.
    """
    n_masks, n_costs = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    n = draw(st.integers(1, 12))
    mask = draw(arrays(bool, (n_masks, N_SCHEMES, n)))
    keep = draw(arrays(np.int64, (n_masks, 1, n), elements=st.sampled_from(SILENT_ROWS)))
    np.put_along_axis(mask, keep, True, axis=1)
    exponents = draw(arrays(float, (n_costs, N_SCHEMES, n), elements=st.floats(-6.0, -0.31)))
    ber_rows = 10.0 ** exponents
    p_t = draw(st.floats(0.0, 0.5, exclude_min=True, exclude_max=True))
    mode = draw(st.sampled_from(["random", "ties", "infeasible", "at_limit"]))
    if mode == "ties":
        for rows in BIT_LEVELS:
            mask[:, rows] = mask[:, rows[:1]]
            ber_rows[:, rows] = ber_rows[:, rows[:1]]
        if draw(st.booleans()):
            ber_rows[:] = 2.0 ** draw(st.integers(-20, -2))
    elif mode == "infeasible":
        p_t = float(ber_rows.min()) / 2
    cost = CATALOG_BITS[:, None] * ber_rows
    if mode == "at_limit":
        m, c = draw(st.integers(0, n_masks - 1)), draw(st.integers(0, n_costs - 1))
        i = draw(st.sampled_from([i for i, s in enumerate(CATALOG) if not s.silent]))
        w = CATALOG[i].bits * np.count_nonzero(mask[m, i])
        if w:
            p_t = float(np.sum(np.where(mask[m, i], cost[c, i], 0.0))) / w
    return mask, cost, p_t


class TestBlockCore:
    @settings(max_examples=150, deadline=None)
    @given(problem=block_problems())
    def test_matches_one_scheme_at_a_time(self, problem):
        mask, cost, p_t = problem
        best, s_sum, w_sum = _block_core(mask[None], cost[:, None], p_t)
        assert best.shape == s_sum.shape == w_sum.shape == (len(cost), len(mask))
        for c in range(len(cost)):
            for m in range(len(mask)):
                ref_idx, ref_s, ref_w = block_core_one_scheme_at_a_time(
                    mask[m], cost[c], p_t)
                idx = np.where(mask[m, best[c, m]], best[c, m], _initial_silent(mask[m]))
                np.testing.assert_array_equal(idx, ref_idx)
                assert s_sum[c, m].hex() == float(ref_s).hex()
                assert w_sum[c, m] == ref_w
                if ref_w:
                    assert best[c, m] == ref_idx[mask[m, best[c, m]]][0]
                else:
                    assert CATALOG[best[c, m]].silent


def full_block_table(gamma):
    """The full bits x BER table that block_allocate's core scores."""
    table = _ber_table(gamma)
    table *= CATALOG_BITS[:, None]
    return table


def full_table_totals(masks, gamma, p_t):
    """The block core's W of every (row, grid) on the full table, at one
    target or at one target per row."""
    return _block_core(masks[None], full_block_table(gamma)[:, None],
                       np.reshape(p_t, (-1, 1, 1)))[2]


@st.composite
def block_totals_problems(draw):
    """Masks of several grids (a silent scheme kept at every position) on
    1 to 3 x _STAGES[-1] positions, so that N falls on both sides of every
    screen stage, flat gammas that include 0 and 1e300, and one p_t per
    row.

    "wide_low" thins the 64-QAM row to one position, so a lower bits level
    has the larger w.  Each row's p_t is log-uniform in (1e-9, 0.5); with
    "at_limit", one row's is one scheme's exact average on that row, which
    must still fit.
    """
    n_masks, rows = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    n = draw(st.integers(1, 3 * _STAGES[-1]))
    masks = draw(arrays(bool, (n_masks, N_SCHEMES, n)))
    keep = draw(arrays(np.int64, (n_masks, 1, n), elements=st.sampled_from(SILENT_ROWS)))
    np.put_along_axis(masks, keep, True, axis=1)
    if draw(st.booleans()):  # "wide_low"
        top = CATALOG_BITS.argmax()
        masks[:, top, 1:] = False
    gamma = draw(arrays(float, (rows, n), elements=st.one_of(
        st.sampled_from([0.0, 1e300]), st.floats(-2.0, 6.0).map(lambda e: 10.0 ** e))))
    p_t = 10.0 ** draw(arrays(float, rows, elements=st.floats(
        -9.0, math.log10(0.5), exclude_max=True)))
    if draw(st.booleans()):  # "at_limit"
        m, r = draw(st.integers(0, n_masks - 1)), draw(st.integers(0, rows - 1))
        i = draw(st.sampled_from([i for i, s in enumerate(CATALOG) if not s.silent]))
        w = CATALOG[i].bits * np.count_nonzero(masks[m, i])
        if w:
            avg = float(np.sum(np.where(masks[m, i], full_block_table(gamma)[r, i], 0.0))) / w
            if 0.0 < avg < 0.5:
                p_t[r] = avg
    return masks, gamma, p_t


def wide_at_limit_problem(n=3000):
    """A block_totals problem on n positions, where the screen's margin is
    largest.  Row 0 has positive QAM4 BERs at its _STAGES[-1] lowest
    gammas only, so its bounds enclose the exact sum tightly, and its p_t
    is QAM4's exact average on grid 0, which allows only QAM4 and ASK1, so
    the row must fit.  Row 1 is random, on a random grid."""
    rng = np.random.default_rng(2101)
    k = _STAGES[-1]
    gamma = np.empty((2, n))
    gamma[0] = 1e300
    gamma[0, rng.choice(n, k, replace=False)] = np.geomspace(1.0, 9.0, k)
    gamma[1] = 10.0 ** rng.uniform(1.0, 4.0, n)
    qam4 = CATALOG.index(scheme_from_name("QAM4"))
    masks = np.zeros((2, N_SCHEMES, n), dtype=bool)
    masks[0, [SILENT_ROWS[0], qam4]] = True
    masks[1] = rng.random((N_SCHEMES, n)) < 0.5
    masks[1, SILENT_ROWS[0]] = True
    p_t = np.array([float(np.sum(full_block_table(gamma)[0, qam4])) / (2 * n), 1e-3])
    return masks, gamma, p_t


class TestBlockCost:
    """_block_totals computes only the BER rows a block total can depend
    on, and gives the block core's W on the full table."""

    @settings(max_examples=300, deadline=None)
    @given(problem=block_totals_problems())
    @example(problem=wide_at_limit_problem())
    def test_equals_the_full_tables_totals(self, problem):
        masks, gamma, p_t = problem
        totals = _block_totals(masks, gamma, p_t)
        assert totals.dtype == np.int64
        np.testing.assert_array_equal(totals, full_table_totals(masks, gamma, p_t))

    @pytest.mark.parametrize("p_t", [1e-3, 1e-2])
    def test_default_draws(self, p_t):
        masks = np.stack([flat_mask(build_profile(n).grid) for n in ("fb", "cm", "lte", "mlte")])
        real_kernel, computed = loading._ber_kernel, []

        def counting(s, gamma):
            computed.append(np.size(gamma))
            return real_kernel(s, gamma)

        for gamma in map(time_major, sweep_draws(2)):
            with mock.patch.object(loading, "_ber_kernel", counting):
                totals = _block_totals(masks, gamma, p_t)
            np.testing.assert_array_equal(totals, full_table_totals(masks, gamma, p_t))
        # under half the BERs of the two draws' full tables
        full = 2 * gamma.size * (N_SCHEMES - len(SILENT_ROWS))
        assert sum(computed) < full / 2

    def test_block_sweep_builds_no_table(self):
        grids = [build_profile(n).grid for n in ("fb", "cm", "lte", "mlte")]
        gammas = sweep_draws(1)[0]
        expected = sweep_total_bits(grids, gammas, 1e-3, "block")
        with mock.patch.object(loading, "_ber_table", side_effect=AssertionError), \
                mock.patch.object(loading, "_block_core", side_effect=AssertionError):
            np.testing.assert_array_equal(
                sweep_total_bits(grids, gammas, 1e-3, "block"), expected)

    def test_screen_keeps_a_row_exactly_at_the_limit(self):
        # the BERs at gamma 1e300 are 0, so the last stage's _STAGES[-1]
        # lowest gammas hold the whole row sum, and p_t is the row's exact
        # average: the margined lower bound must not rule it out
        n = _STAGES[-1] + 4
        gamma = np.array([[*np.geomspace(2.0, 9.0, _STAGES[-1]), *[1e300] * 4]])
        qam4 = CATALOG.index(scheme_from_name("QAM4"))
        masks = np.zeros((1, N_SCHEMES, n), dtype=bool)
        masks[0, [SILENT_ROWS[0], qam4]] = True
        p_t = float(np.sum(full_block_table(gamma)[0, qam4])) / (2 * n)
        assert _block_totals(masks, gamma, p_t).tolist() == [[2 * n]]

    @staticmethod
    def bounded_row():
        """One QAM4 row of the last stage's _STAGES[-1] low gammas and 4
        higher ones whose BERs are positive.  QAM4 is allowed at the
        highest screened gamma, which no earlier stage screens, and at the
        4 higher ones.  Returns the row with its last stage's lower bound,
        exact and upper bound averages, computed as _block_totals computes
        them: the one allowed screened cost is the screened sum in any
        summation order, and the earlier stages bound only from above
        with a larger least BER, so they leave the row open."""
        k = _STAGES[-1]
        n, w = k + 4, 2 * 5
        gamma = np.array([[*np.geomspace(2.0, 9.0, k), 20.0, 25.0, 30.0, 40.0]])
        qam4 = CATALOG.index(scheme_from_name("QAM4"))
        masks = np.zeros((1, N_SCHEMES, n), dtype=bool)
        masks[0, SILENT_ROWS[0]] = True
        masks[0, qam4, k - 1:] = True
        exact = np.where(masks[0, qam4], full_block_table(gamma)[0, qam4], 0.0)
        least = loading._ber_kernel(CATALOG[qam4], gamma[0, :k]).min()
        margin = 2 * (n + k) * 2.0 ** -53
        low = exact[k - 1] * (1.0 - margin) / w
        high = (exact[k - 1] + 4.0 * (2 * (least + _SLACK))) * (1.0 + margin) / w
        exact_avg = float(np.sum(exact)) / w
        assert low < exact_avg < high
        return masks, gamma, low, exact_avg, high

    @staticmethod
    def full_rows(masks, gamma, p_t):
        """_block_totals's totals and the rows its full-width kernel calls computed."""
        real_kernel, rows = loading._ber_kernel, []

        def counting(s, g):
            if np.shape(g)[1:] == gamma.shape[1:]:
                rows.extend([s] * len(g))
            return real_kernel(s, g)

        with mock.patch.object(loading, "_ber_kernel", counting):
            return _block_totals(masks, gamma, p_t).tolist(), rows

    def test_upper_bound_settles_a_row_exactly_at_the_limit(self):
        # an upper bound average equal to p_t proves the fit without the
        # exact row; the first stage's upper bound, with its larger least
        # BER, does not
        masks, gamma, _low, _exact, high = self.bounded_row()
        assert self.full_rows(masks, gamma, high) == ([[2 * 5]], [])

    def test_row_just_below_the_upper_bound_is_computed(self):
        # the margin keeps the upper bound above the exact row's average,
        # so one ulp below it the row is computed in full, and it fits
        masks, gamma, _low, _exact, high = self.bounded_row()
        assert self.full_rows(masks, gamma, math.nextafter(high, 0.0)) \
            == ([[2 * 5]], [scheme_from_name("QAM4")])

    def test_row_at_the_lower_bound_is_computed(self):
        # a lower bound average equal to p_t does not rule the row out;
        # the exact row does
        masks, gamma, low, _exact, _high = self.bounded_row()
        assert self.full_rows(masks, gamma, low) == ([[0]], [scheme_from_name("QAM4")])

    def test_lower_bound_rules_out_a_row_just_above_the_limit(self):
        masks, gamma, low, _exact, _high = self.bounded_row()
        assert self.full_rows(masks, gamma, math.nextafter(low, 0.0)) == ([[0]], [])

    @pytest.mark.parametrize("fits", [True, False])
    def test_open_row_is_decided_by_the_exact_row(self, fits):
        # low <= p_t < high: only the full row tells whether it fits
        masks, gamma, _low, exact, _high = self.bounded_row()
        p_t = exact if fits else math.nextafter(exact, 0.0)
        totals, rows = self.full_rows(masks, gamma, p_t)
        assert totals == [[2 * 5 if fits else 0]]
        assert rows == [scheme_from_name("QAM4")]

    @pytest.mark.parametrize("p_t,most", [(1e-3, 1), (1e-2, 6)])
    def test_default_draws_compute_few_full_rows(self, p_t, most):
        # of 210 non-silent rows per draw, 0.63 are computed in full at
        # p_t 1e-3 and 4.9 at 1e-2 on these 40 draws; the screen's stages
        # settle the others
        masks = np.stack([flat_mask(build_profile(n).grid) for n in ("fb", "cm", "lte", "mlte")])
        draws = sweep_draws(40)
        gamma = time_major(np.concatenate(draws))
        rows = []
        for first in range(0, len(gamma), 8 * 21):
            rows += self.full_rows(masks, gamma[first:first + 8 * 21], p_t)[1]
        assert len(rows) <= most * len(draws)

    @pytest.mark.parametrize("bad,match", [(math.nan, "finite"), (-1.0, "non-negative")])
    def test_bad_gamma_in_an_unneeded_row_raises(self, bad, match):
        silent_only = data_grid([[()] * 7] * 12)
        gammas = np.ones((3, 12, 7))
        gammas[1, 4, 2] = bad
        with pytest.raises(ValueError, match=match):
            sweep_total_bits([silent_only], gammas, 1e-3, "block")

    @pytest.mark.parametrize("p_t", [1e-3, 1e-2])
    def test_block_sweep_call_stays_within_its_memory(self, p_t):
        # a block call of DRAWS_PER_CALL["block"] draws traces about 116 KB
        # per draw at p_t 1e-3 and 117 KB at 1e-2
        draws = DRAWS_PER_CALL["block"]
        grids = [build_profile(n).grid for n in ("fb", "cm", "lte", "mlte")]
        gammas = np.concatenate(sweep_draws(draws))
        expected = full_table_totals(np.stack([flat_mask(g) for g in grids]),
                                     time_major(gammas), p_t)
        tracemalloc.start()
        try:
            totals = sweep_total_bits(grids, gammas, p_t, "block")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(totals, expected)
        assert peak <= 325_000 * draws


class TestInstanceRoundTrip:
    def test_save_load(self, tmp_path):
        rng = np.random.default_rng(71)
        prof = build_profile("mlte", 12, 7)
        snr = random_instance(rng, 12, 7)
        path = tmp_path / "instance.json"
        save_instance(path, snr, prof.grid, 1e-3)
        snr2, grid2, p_t2 = load_instance(path)
        np.testing.assert_array_equal(snr.gamma, snr2.gamma)
        assert grid2 == prof.grid
        assert p_t2 == 1e-3
        a = greedy_allocate(snr, prof.grid, 1e-3)
        b = greedy_allocate(snr2, grid2, p_t2)
        assert a == b


INSTANCES = Path(__file__).parent / "fixtures" / "instances"
INSTANCE_EXPECTED = json.loads((INSTANCES / "expected.json").read_text())


class TestInstanceFixtures:
    """save_instance files of 12x7 grids (every system, low to high SNR,
    p_t 1e-3 and 1e-2) with the greedy and block results pinned before the
    block loader was vectorized."""

    @pytest.mark.parametrize("name", sorted(INSTANCE_EXPECTED))
    @pytest.mark.parametrize("solver,allocate", [
        ("greedy", greedy_allocate), ("block", block_allocate)])
    def test_matches_pinned_allocation(self, name, solver, allocate):
        snr, grid, p_t = load_instance(INSTANCES / name)
        alloc = allocate(snr, grid, p_t)
        expected = INSTANCE_EXPECTED[name][solver]
        assert [[str(s) for s in row] for row in alloc.schemes] == expected["schemes"]
        assert alloc.total_bits == expected["total_bits"]
        assert repr(alloc.avg_ber) == expected["avg_ber"]


def evaluate_avg_ber_one_position_at_a_time(schemes, snr):
    """evaluate_avg_ber before it grouped positions by scheme: one scalar
    ber call per position."""
    gamma = np.asarray(snr.gamma, dtype=float)
    n_f, n_t = gamma.shape
    weighted = np.zeros(n_f * n_t)
    total_bits = 0
    for k, row in enumerate(schemes):
        for l, s in enumerate(row):
            if s.silent:
                continue
            weighted[l * n_f + k] = s.bits * ber(s, float(gamma[k, l]))
            total_bits += s.bits
    if total_bits == 0:
        return 0.0
    return float(np.sum(weighted) / total_bits)


class TestEvaluateAvgBerPerScheme:
    """evaluate_avg_ber gives the per-position loop's float, bit for bit."""

    @pytest.mark.parametrize("name", sorted(INSTANCE_EXPECTED))
    def test_instance_allocations(self, name):
        snr, grid, p_t = load_instance(INSTANCES / name)
        for allocate in (greedy_allocate, block_allocate):
            schemes = allocate(snr, grid, p_t).schemes
            assert (evaluate_avg_ber(schemes, snr).hex()
                    == evaluate_avg_ber_one_position_at_a_time(schemes, snr).hex())

    def test_random_assignments(self):
        rng = np.random.default_rng(81)
        for _ in range(40):
            snr = random_instance(rng, 12, 7, snr_db=rng.uniform(0.0, 40.0))
            idx = rng.integers(0, N_SCHEMES, (12, 7))
            schemes = tuple(tuple(CATALOG[i] for i in row) for row in idx)
            assert (evaluate_avg_ber(schemes, snr).hex()
                    == evaluate_avg_ber_one_position_at_a_time(schemes, snr).hex())


def count_ber_tables(calls):
    """A stand-in for loading._ber_table that counts its calls in `calls`."""
    def counting(gamma):
        calls.append(gamma.shape)
        return _ber_table(gamma)
    return mock.patch.object(loading, "_ber_table", counting)


@pytest.fixture
def cold_memo(monkeypatch):
    monkeypatch.setattr(loading, "_memo", (None, None))


@pytest.mark.usefixtures("cold_memo")
class TestBerTableMemo:
    """The one-entry memo of the last grid's BER table changes no result."""

    @pytest.mark.parametrize("name,n_f,n_t", [("cm", 12, 7), ("mlte", 12, 7), ("fb", 2, 2)])
    def test_hit_gives_the_bytes_of_a_miss(self, name, n_f, n_t):
        grid = build_profile(name, n_f, n_t).grid
        solvers = [greedy_allocate, block_allocate]
        if n_f * n_t <= 4:
            solvers.append(exhaustive_allocate)
        rng = np.random.default_rng(12)
        for _ in range(6):
            snr = random_instance(rng, n_f, n_t, snr_db=rng.uniform(0.0, 40.0))
            for allocate in solvers:
                for p_t in (1e-3, 1e-2):
                    loading._memo = (None, None)
                    calls = []
                    with count_ber_tables(calls):
                        miss = allocate(snr, grid, p_t)
                        hit = allocate(snr, grid, p_t)
                        ev_hit = evaluate_avg_ber(miss.schemes, snr)
                    assert len(calls) == 1
                    assert hit == miss and hit.avg_ber.hex() == miss.avg_ber.hex()
                    loading._memo = (None, None)
                    calls = []
                    with count_ber_tables(calls):
                        ev_cold = evaluate_avg_ber(miss.schemes, snr)
                        # a table only when something is loaded
                        assert len(calls) == (miss.total_bits > 0)
                        assert allocate(snr, grid, p_t) == miss
                    assert len(calls) == 1  # the allocator read the cold call's table
                    assert (ev_hit.hex() == ev_cold.hex()
                            == evaluate_avg_ber_one_position_at_a_time(miss.schemes, snr).hex())

    def test_hit_gathers_the_cold_bytes_for_distinct_equal_schemes(self):
        rng = np.random.default_rng(15)
        for n_f, n_t in ((12, 7), (3, 5), (1, 1)):
            for _ in range(10):
                snr = random_instance(rng, n_f, n_t, snr_db=rng.uniform(0.0, 40.0))
                idx = rng.integers(0, N_SCHEMES, (n_f, n_t))
                # about half the positions hold an equal copy, not the catalog object
                copies = rng.random((n_f, n_t)) < 0.5
                schemes = tuple(
                    tuple(ModulationScheme(CATALOG[i].family, CATALOG[i].order) if c else CATALOG[i]
                          for i, c in zip(row, crow))
                    for row, crow in zip(idx, copies))
                loading._memo = (None, None)
                calls = []
                with count_ber_tables(calls):
                    cold = evaluate_avg_ber(schemes, snr)
                    hit = evaluate_avg_ber(schemes, snr)
                    position_ber_table(snr)
                assert len(calls) == 1
                assert (hit.hex() == cold.hex()
                        == evaluate_avg_ber_one_position_at_a_time(schemes, snr).hex())
        silent = ((CATALOG[0], ModulationScheme(CATALOG[0].family, 1)),)
        position_ber_table(SnrGrid(gamma=np.ones((1, 2))))
        assert evaluate_avg_ber(silent, SnrGrid(gamma=np.ones((1, 2)))) == 0.0

    @pytest.mark.parametrize("change", ["one_ulp", "negative_zero"])
    def test_different_bytes_never_share_a_table(self, change):
        gamma = random_instance(np.random.default_rng(4), 12, 7).gamma
        if change == "one_ulp":
            other = gamma.copy()
            other[3, 2] = np.nextafter(other[3, 2], np.inf)
        else:
            gamma[3, 2], other = 0.0, gamma.copy()
            other[3, 2] = -0.0
        a, b = SnrGrid(gamma=gamma), SnrGrid(gamma=other)
        calls = []
        with count_ber_tables(calls):
            table_a = position_ber_table(a)
            assert len(calls) == 1
            assert position_ber_table(a).tobytes() == table_a.tobytes()
            assert len(calls) == 1
            table_b = position_ber_table(b)
            assert len(calls) == 2
            assert table_b.tobytes() == _ber_table(loading._flat_gamma(b)).tobytes()
            # one entry: a has left the memo
            position_ber_table(a)
            assert len(calls) == 3

    def test_returned_table_is_the_callers_own(self):
        grid = build_profile("cm").grid
        snr = random_instance(np.random.default_rng(6), 12, 7, snr_db=15.0)
        expected = greedy_allocate(snr, grid, 1e-3)
        ev = evaluate_avg_ber(expected.schemes, snr)
        table = position_ber_table(snr)
        table[...] = 0.0
        assert greedy_allocate(snr, grid, 1e-3) == expected
        assert evaluate_avg_ber(expected.schemes, snr).hex() == ev.hex()
        assert position_ber_table(snr).any()

    @pytest.mark.parametrize("allocate", [greedy_allocate, block_allocate])
    def test_passed_table_never_serves_a_later_call(self, allocate):
        grid = build_profile("fb").grid
        snr = random_instance(np.random.default_rng(8), 12, 7, snr_db=5.0)
        expected = allocate(snr, grid, 1e-3)
        ev = evaluate_avg_ber(expected.schemes, snr)
        fake = np.zeros((N_SCHEMES, 84))  # every scheme error-free: loads every position
        for memo in ((None, None), loading._memo):
            loading._memo = memo
            assert allocate(snr, grid, 1e-3, ber_table=fake).avg_ber == 0.0
            assert allocate(snr, grid, 1e-3) == expected
            loading._memo = memo
            allocate(snr, grid, 1e-3, ber_table=fake)
            assert evaluate_avg_ber(expected.schemes, snr).hex() == ev.hex()

    def test_evaluate_refuses_a_bad_gamma_at_a_silent_position(self):
        grid = build_profile("lte").grid  # its pilot positions stay silent
        snr = random_instance(np.random.default_rng(9), 12, 7, snr_db=20.0)
        schemes = greedy_allocate(snr, grid, 1e-3).schemes
        ev = evaluate_avg_ber(schemes, snr)
        k, l = next((k, l) for k in range(12) for l in range(7) if schemes[k][l].silent)
        gamma = snr.gamma.copy()
        gamma[k, l] = np.nan
        bad = SnrGrid(gamma=gamma)
        silent = tuple(tuple(s if s.silent else CATALOG[0] for s in row) for row in schemes)
        for memo in ((None, None), loading._memo):
            loading._memo = memo
            calls = []
            with count_ber_tables(calls):
                # as the allocators and position_ber_table refuse it
                with pytest.raises(ValueError, match="finite"):
                    evaluate_avg_ber(schemes, bad)
                assert loading._memo is memo
                assert evaluate_avg_ber(silent, bad) == 0.0  # nothing loaded: no table
            assert len(calls) == 1  # the failed table only
        assert evaluate_avg_ber(schemes, snr).hex() == ev.hex()


@settings(max_examples=25, deadline=None)
@given(
    gammas=st.lists(
        st.floats(min_value=1e-2, max_value=1e5), min_size=4, max_size=4
    ),
    p_t=st.sampled_from([1e-2, 1e-3, 1e-4]),
)
def test_greedy_feasible_and_dominated(gammas, p_t):
    snr = SnrGrid(gamma=np.array(gammas).reshape(2, 2))
    grid = build_profile("fb", 2, 2).grid
    g = greedy_allocate(snr, grid, p_t)
    assert g.avg_ber <= p_t
    x = exhaustive_allocate(snr, grid, p_t)
    assert g.total_bits <= x.total_bits

"""Allocator tests: weighted-average evaluation, greedy vs exhaustive oracle,
block mode, the batched sweep loader, instance serialization."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ofdmse.channel import SnrGrid, draw_realization, snr_grid, tux_profile
from ofdmse.loading import (
    Allocation,
    block_allocate,
    evaluate_avg_ber,
    exhaustive_allocate,
    flat_mask,
    greedy_allocate,
    load_instance,
    position_ber_table,
    save_instance,
    sweep_total_bits,
)
from ofdmse.loading import (
    _LEVELS,
    _NO_MOVE,
    _ber_table,
    _block_core,
    _dense_candidates,
    _greedy_lockstep,
    _initial_silent,
)
from ofdmse.modulation import (
    CATALOG,
    CATALOG_BITS,
    N_SCHEMES,
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
    leading axes as greedy_allocate calls it, matches the serial loop."""
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
    """SNR grids of the default sweep's channel draws, one list per trial."""
    draws = []
    for trial in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence((0, 0, trial)))
        real = draw_realization(tux_profile(), 12, 7, rng)
        draws.append([snr_grid(real, 10 ** (-db / 10)) for db in range(0, 41, 2)])
    return draws


class TestLockstep:
    @settings(max_examples=200, deadline=None)
    @given(batch=lockstep_batches(), p_t=st.floats(1e-5, 0.3))
    def test_matches_serial_core_row_by_row(self, batch, p_t):
        assert_lockstep_matches_core(*batch, p_t)

    @pytest.mark.parametrize("p_t", [1e-3, 1e-2])
    def test_matches_serial_core_on_sweep_draws(self, p_t):
        masks = np.stack([flat_mask(build_profile(n).grid) for n in ("fb", "cm", "lte", "mlte")])
        for snrs in sweep_draws(2):
            gamma = np.stack([np.ascontiguousarray(s.gamma.T).ravel() for s in snrs])
            for m in masks:
                assert_lockstep_matches_core(np.broadcast_to(m, (len(gamma),) + m.shape),
                                             gamma, p_t)

    def test_matches_serial_core_through_rounding_guard(self):
        gamma = np.array(GUARD_GAMMAS)
        rows = np.stack([gamma, gamma * 10.0, gamma, gamma / 10.0])
        mask = np.ones((4, N_SCHEMES, gamma.size), dtype=bool)
        mask[1, 9:] = False  # no QAM on the second grid
        assert_lockstep_matches_core(mask, rows, GUARD_P_T)

    @pytest.mark.parametrize("granularity", ["subcarrier", "block"])
    def test_sweep_totals_do_not_depend_on_batch(self, granularity):
        grids = [build_profile(n).grid for n in ("fb", "cm", "lte", "mlte")]
        draws = sweep_draws(3)
        for p_t in (1e-3, 1e-2):
            one_call = sweep_total_bits(grids, [s for d in draws for s in d], p_t, granularity)
            per_draw = [sweep_total_bits(grids, d, p_t, granularity) for d in draws]
            np.testing.assert_array_equal(one_call, np.concatenate(per_draw))

    @pytest.mark.parametrize("granularity,allocate", [
        ("subcarrier", greedy_allocate), ("block", block_allocate)])
    def test_sweep_totals_match_single_grid_calls(self, granularity, allocate):
        rng = np.random.default_rng(5)
        real = draw_realization(tux_profile(), 12, 7, rng)
        snrs = [snr_grid(real, 10 ** (-db / 10)) for db in (0.0, 12.0, 24.0, 40.0)]
        grids = [build_profile(n).grid for n in ("fb", "cm", "lte", "mlte")]
        for p_t in (1e-3, 1e-2):
            totals = sweep_total_bits(grids, snrs, p_t, granularity)
            assert totals.shape == (len(snrs), len(grids))
            expected = [[allocate(snr, g, p_t).total_bits for g in grids] for snr in snrs]
            np.testing.assert_array_equal(totals, expected)


def dense_candidates_by_argmin(mask, cost):
    """_dense_candidates as a min and argmin over each level's gathered
    rows, kept as the reference for the strict-less-than chain."""
    lead = np.broadcast_shapes(mask.shape[:-2], cost.shape[:-2])
    shape = lead + (len(_LEVELS) + 1, mask.shape[-1])
    cand_idx = np.zeros(shape, dtype=np.int8)
    cand_cost = np.full(shape, _NO_MOVE)
    for lvl, (_bits, rows) in enumerate(_LEVELS):
        rows = np.asarray(rows, dtype=np.int8)
        level_cost = np.where(mask[..., rows, :], cost[..., rows, :], _NO_MOVE)
        cand_cost[..., lvl, :] = level_cost.min(axis=-2)
        cand_idx[..., lvl, :] = rows[level_cost.argmin(axis=-2)]
    return cand_idx, cand_cost


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
        for snrs in sweep_draws(2):
            cost = _ber_table(np.stack([np.ascontiguousarray(s.gamma.T).ravel() for s in snrs]))
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

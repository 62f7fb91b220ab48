"""Bit loading over a faded resource grid under an average-BER constraint.

Given the per-position SNR grid and a ConstraintGrid of allowed schemes, the
loader picks one scheme per position to maximize the block's total bits while
keeping the bit-weighted mean of instantaneous BERs at or below a target p_t.
Silent (order-1) positions carry no bits and add nothing to the average, so
the empty allocation is always feasible.

Three solvers are provided:

  greedy_allocate      incremental best-move-first heuristic, the main path
  exhaustive_allocate  brute-force oracle, refuses search spaces above 10^7
  block_allocate       one scheme for the whole grid (coarse signalling mode)

sweep_total_bits gives the greedy or block bit totals of every (SNR point,
system) pair of a few channel draws in one batched pass, for the sweep.
There is one greedy core, _greedy_lockstep: the sweep runs it on a batch of
grids, and greedy_allocate is the same core at batch 1.

Positions are ordered time-major, pos = l * n_f + k, and all tie-breaks are
total orders, so every solver is deterministic.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .channel import SnrGrid
from .modulation import (
    CATALOG,
    CATALOG_BITS,
    N_SCHEMES,
    ModulationScheme,
    _ber_kernel,
    _checked_gamma,
    ber,
    scheme_from_name,
)
from .systems import ConstraintGrid

EXHAUSTIVE_LIMIT = 10_000_000

#: Assignments evaluated per block of the exhaustive search.
_CHUNK = 1 << 17

#: Bit levels of fewer assignments than this share an exhaustive-search
#: block, and a search space of at most this many is one block in id
#: order, so a small search makes few numpy calls.
_MERGE = 1 << 10

#: Catalog rows per positive bits-per-symbol level, family-ascending.
_LEVELS = tuple(
    (b, tuple(i for i, s in enumerate(CATALOG) if s.bits == b))
    for b in sorted({s.bits for s in CATALOG if s.bits})
)

_LEVEL_BITS = np.array([b for b, _rows in _LEVELS])

#: Bit gains a single move can make, 1 .. the top level's bits.
_GAINS = np.arange(1, _LEVEL_BITS[-1] + 1)

#: _LEVEL_AT[b] is the index of the level with b bits, or len(_LEVELS) when
#: no level has that many (an all-_NO_MOVE candidate row).
_LEVEL_AT = np.full(_GAINS.size + 1, len(_LEVELS), dtype=np.int8)
_LEVEL_AT[_LEVEL_BITS] = np.arange(len(_LEVELS))

#: Cost of a move that does not exist.  It is finite, so the difference of
#: two such entries is 0 and never inf - inf, and far above any bits x BER.
_NO_MOVE = 2.0 ** 900

_SILENT_ROWS = tuple(i for i, s in enumerate(CATALOG) if s.silent)


@dataclass(frozen=True)
class Allocation:
    """A committed scheme choice per position with its score.

    ``schemes[k][l]`` is the modulation used at subcarrier k, symbol l.
    ``avg_ber`` is the bit-weighted mean instantaneous BER of the loaded
    positions (0.0 when nothing is loaded).
    """

    schemes: tuple[tuple[ModulationScheme, ...], ...]
    total_bits: int
    avg_ber: float

    def __post_init__(self):
        counted = sum(s.bits for row in self.schemes for s in row)
        if counted != self.total_bits:
            raise ValueError(
                f"total_bits {self.total_bits} != {counted} counted from schemes"
            )
        if not 0.0 <= self.avg_ber <= 0.5:
            raise ValueError(f"avg_ber out of range: {self.avg_ber!r}")


def _flat_gamma(snr: SnrGrid) -> np.ndarray:
    # time-major flatten: entry p = l * n_f + k
    return np.ascontiguousarray(np.asarray(snr.gamma, dtype=float).T).ravel()


def position_ber_table(snr: SnrGrid) -> np.ndarray:
    """Instantaneous BER of every catalog scheme at every position.

    Returns shape (n_schemes, n_f * n_t), time-major positions; silent rows
    are zero.  Computing this once and passing it to the allocators lets
    several constraint grids share one SNR draw cheaply.
    """
    return _ber_table(_flat_gamma(snr))


def _ber_table(gamma: np.ndarray) -> np.ndarray:
    """position_ber_table of flat gammas with leading dimensions:
    (..., N) -> (..., n_schemes, N); checks gamma once, then one BER
    kernel call per scheme."""
    gamma = _checked_gamma(gamma)
    table = np.zeros(gamma.shape[:-1] + (N_SCHEMES, gamma.shape[-1]))
    for i, s in enumerate(CATALOG):
        if not s.silent:
            table[..., i, :] = _ber_kernel(s, gamma)
    return table


def evaluate_avg_ber(schemes, snr: SnrGrid) -> float:
    """Bit-weighted mean instantaneous BER of an assignment:
    sum(bits * ber) / sum(bits) over the non-silent positions, with one ber
    call per scheme over the gammas of its positions."""
    gamma = np.asarray(snr.gamma, dtype=float)
    n_f, n_t = gamma.shape
    if len(schemes) != n_f or any(len(row) != n_t for row in schemes):
        raise ValueError("scheme grid shape does not match the SNR grid")
    positions = {}
    for k, row in enumerate(schemes):
        for l, s in enumerate(row):
            if not s.silent:
                positions.setdefault(s, []).append(l * n_f + k)
    if not positions:
        return 0.0
    flat = _flat_gamma(snr)
    weighted = np.zeros(n_f * n_t)
    for s, at in positions.items():
        weighted[at] = s.bits * ber(s, flat[at])
    total_bits = sum(s.bits * len(at) for s, at in positions.items())
    return float(np.sum(weighted) / total_bits)


def flat_mask(constraints: ConstraintGrid) -> np.ndarray:
    # (n_schemes, n_f, n_t) -> (n_schemes, N) in time-major position order
    mask = constraints.allowed_mask
    return mask.transpose(0, 2, 1).reshape(N_SCHEMES, -1)


def _initial_silent(mask) -> np.ndarray:
    init = np.full(mask.shape[1], -1)
    for row in reversed(_SILENT_ROWS):
        init = np.where(mask[row], row, init)
    if np.any(init < 0):
        raise ValueError("a position has no order-1 scheme to fall back to")
    return init


def _to_allocation(idx_flat, n_f, n_t, s_sum, w_sum) -> Allocation:
    schemes = tuple(
        tuple(CATALOG[idx_flat[l * n_f + k]] for l in range(n_t))
        for k in range(n_f)
    )
    avg = s_sum / w_sum if w_sum else 0.0
    return Allocation(schemes=schemes, total_bits=int(w_sum), avg_ber=float(avg))


def _one_grid(snr: SnrGrid, constraints: ConstraintGrid, p_t: float, ber_table):
    """Check a single-grid call; returns its flat mask and bits x BER cost."""
    gamma = np.asarray(snr.gamma, dtype=float)
    if gamma.shape != (constraints.n_f, constraints.n_t):
        raise ValueError(
            f"SNR grid {gamma.shape} does not match constraints "
            f"({constraints.n_f}, {constraints.n_t})"
        )
    if not 0.0 < p_t < 0.5:
        raise ValueError(f"p_t must lie in (0, 0.5), got {p_t!r}")
    if ber_table is None:
        ber_table = position_ber_table(snr)
    else:
        # a broadcastable table of the wrong shape would load every position
        ber_table = np.asarray(ber_table, dtype=float)
        shape = (N_SCHEMES, constraints.n_f * constraints.n_t)
        if ber_table.shape != shape:
            raise ValueError(f"ber_table has shape {ber_table.shape}, expected {shape}")
        if not np.all((ber_table >= 0.0) & (ber_table <= 0.5)):
            raise ValueError("ber_table entries must be finite and lie in [0, 0.5]")
    return flat_mask(constraints), CATALOG_BITS[:, None] * ber_table


def greedy_allocate(
    snr: SnrGrid,
    constraints: ConstraintGrid,
    p_t: float,
    ber_table: np.ndarray | None = None,
) -> Allocation:
    """Incremental bit loading: best feasible single-position upgrade first.

    Starts all-silent and repeatedly commits the move (position changed to an
    allowed scheme with strictly more bits) that gains the most bits while
    keeping the average BER at or below p_t; ties prefer the lowest resulting
    average, then the earliest position time-major, then the lowest family.
    Stops when no move is feasible, which leaves a locally maximal
    allocation.

    ``ber_table`` may carry a precomputed position_ber_table(snr).
    """
    mask, cost = _one_grid(snr, constraints, p_t, ber_table)
    idx, s_sum, w_sum = _greedy_lockstep(mask, cost, p_t)
    return _to_allocation(idx, constraints.n_f, constraints.n_t, s_sum, w_sum)


def _dense_candidates(mask, cost):
    """The greedy's moves, one per (grid, bits level, position), as dense
    (..., levels + 1, N) arrays; the reference serial loop in
    tests/test_loading.py prunes its move set the same way, one grid at a
    time.

    mask and cost are (..., n_schemes, N) and broadcast against each other.
    Returns the cheapest allowed scheme per (grid, bits level, position),
    the earlier catalog row on a tie, and its cost; a level with no allowed
    scheme gets its first row and _NO_MOVE.  The last level
    is an all-_NO_MOVE sentinel that _LEVEL_AT gives for bit counts no level
    has; its scheme is left for the caller.
    """
    lead = np.broadcast_shapes(mask.shape[:-2], cost.shape[:-2])
    shape = lead + (len(_LEVELS) + 1, mask.shape[-1])
    cand_idx = np.zeros(shape, dtype=np.int8)
    cand_cost = np.full(shape, _NO_MOVE)
    for lvl, (_bits, rows) in enumerate(_LEVELS):
        level_idx, level_cost = cand_idx[..., lvl, :], cand_cost[..., lvl, :]
        level_idx[...] = rows[0]
        for row in rows:
            # strictly cheaper only: a tie keeps the earlier row, as argmin
            better = mask[..., row, :] & (cost[..., row, :] < level_cost)
            np.copyto(level_cost, cost[..., row, :], where=better)
            np.copyto(level_idx, row, where=better)
    return cand_idx, cand_cost


def _greedy_lockstep(mask, cost, p_t):
    """The greedy loader over many grids at once; returns (idx, S, W) per grid.

    mask and cost are (..., n_schemes, N) and broadcast against each other;
    each leading index is one grid, and the results keep the leading shape
    (greedy_allocate calls it on one grid, with no leading axes).  Every grid
    still in play advances in the same iteration, and each grid ends
    bit-identical to the reference serial loop in tests/test_loading.py,
    which commits one move per iteration.  A grid leaves the batch when it
    has no feasible move.

    Moves are scored per gain class: by_gain[row, g - 1, p] is the cost of
    the move at p that gains g bits (_NO_MOVE if no level has that many bits
    or the guard rejected it).  A committed move of g bits shifts its
    position's classes down by g, and a rejected one marks its entry.  The
    numerators (S + cost) - cur_cost are the serial loop's; division by the
    positive W + g is monotone under correct rounding, so a class has a
    feasible move iff its smallest numerator does.  The greatest feasible
    class g wins.

    A grid then commits, in one step, the J moves of class g with the
    smallest keys k = cost - cur_cost, when a filter with the margin
    delta = 8 n 2^-53 (p_t (W + g n) + 2 max cost) proves that the serial
    loop would commit exactly those J moves next, in some order.  delta
    bounds every rounding the serial loop makes over up to n moves.  With
    the keys sorted and E_j = k_1 + ... + k_j - p_t g j, the filter asks:
      (a) each prefix j <= J keeps the average delta inside the target,
          S + E_j - p_t W <= -delta, so the serial screen and the guard
          pass every move;
      (b) k_(J+1) > k_J + delta, so no other class-g move comes first;
      (c) at every state j < J, each class h > g stays delta short of
          feasible: S + E_j + k - p_t (W + h) > delta for the smallest
          class-h key k now, taken over every position.
    A member's moves after its own move need no test of their own: its
    class-h key is then its class-(g + h) key now less its own key, and (a)
    and (c) on that class-(g + h) key keep its class-g key above k_J and
    its higher classes infeasible.  The new state's full row sum does not
    depend on the order of the moves, so S after the step is the serial
    loop's last full recompute.  A grid for which no J >= 1 passes takes
    the single argmin move under the full-recompute guard: a row-wise sum
    over a C-contiguous array is bit-identical to the 1-D np.sum.  The
    scheme of every position is read from its final bit count.
    """
    cand_idx, by_gain = _dense_candidates(mask, cost)
    lead, (levels, n) = cand_idx.shape[:-2], cand_idx.shape[-2:]
    r = math.prod(lead)
    cand_idx = cand_idx.reshape(r, levels, n)
    by_gain = by_gain.reshape(r, levels, n).take(_LEVEL_AT[_GAINS], axis=1)
    silent = np.stack([_initial_silent(m) for m in mask.reshape((-1,) + mask.shape[-2:])])
    silent = silent.reshape(mask.shape[:-2] + (n,))
    cand_idx[:, -1] = np.broadcast_to(silent, lead + (n,)).reshape(r, n)
    two_cmax = 2.0 * np.broadcast_to(cost.max(axis=(-2, -1)), lead).reshape(r)
    out_idx = np.empty((r, n), dtype=np.int8)
    out_s = np.zeros(r)
    out_w = np.zeros(r, dtype=np.int64)
    rows = np.arange(r)
    cur_bits = np.zeros((r, n), dtype=np.int8)
    cur_cost = np.zeros((r, n))
    s_sum, w_sum = np.zeros(r), np.zeros(r, dtype=np.int32)
    num_buf = np.empty_like(by_gain)
    pos = np.arange(n)
    # each step of a grid commits at least one move (at most _GAINS.size * n
    # in all, as each adds bits), rejects a candidate for good (at most
    # (levels - 1) * n) or finds no move, which ends the grid
    steps_left = n * (_GAINS.size + levels)
    while rows.size:
        steps_left -= 1
        if steps_left < 0:
            raise RuntimeError("lockstep greedy exceeded its step bound")
        num = num_buf[: rows.size]
        np.add(by_gain, s_sum[:, None, None], out=num)
        num -= cur_cost[:, None, :]
        w_new = w_sum[:, None] + _GAINS
        low = num.min(axis=2)
        feasible = low / w_new <= p_t
        gi = _GAINS.size - 1 - np.argmax(feasible[:, ::-1], axis=1)
        bg = by_gain[np.arange(rows.size), gi]
        order, n_set = _set_size(bg, cur_cost, low, s_sum, w_sum, gi, p_t, two_cmax[rows])
        live = feasible.any(axis=1)
        if not live.all():
            # a grid without a feasible move is final; drop it from the batch
            done = ~live
            out_s[rows[done]], out_w[rows[done]] = s_sum[done], w_sum[done]
            out_idx[rows[done]] = cand_idx[rows[done, None], _LEVEL_AT[cur_bits[done]], pos]
            rows, s_sum, w_sum, gi, bg, order, n_set = (
                a[live] for a in (rows, s_sum, w_sum, gi, bg, order, n_set))
            cur_bits, cur_cost = cur_bits[live], cur_cost[live]
            # the spent numerator buffer takes the table's live rows; mode
            # "clip" writes straight into it, and every index is valid
            by_gain, num_buf = by_gain.take(np.flatnonzero(live), axis=0, mode="clip",
                                            out=num_buf[: rows.size]), by_gain
        single = n_set == 0
        if single.any():
            # no set passed the filter: the single move is the position of
            # least resulting average in class g, first position on ties
            avg_new = bg[single] + s_sum[single, None]
            avg_new -= cur_cost[single]
            avg_new /= (w_sum[single] + gi[single] + 1)[:, None]
            order[single, 0] = np.argmin(avg_new, axis=1)

        good, s_full, w_full = _commit(cur_bits, cur_cost, by_gain, bg, gi, order, n_set, p_t)
        s_sum[good], w_sum[good] = s_full[good], w_full[good]
    return out_idx.reshape(lead + (n,)), out_s.reshape(lead), out_w.reshape(lead)


def _set_size(bg, cur_cost, low, s_sum, w_sum, gi, p_t, two_cmax):
    """The set step's filter (see _greedy_lockstep) for a batch of grids.

    bg is the cost of each class-g move, low the step's smallest numerator
    per class, two_cmax twice the largest cost of the grid.  Returns the
    positions in ascending order of their class-g keys and the number J of
    them that the serial loop provably commits next, 0 where the filter
    cannot decide.
    """
    rows, n = bg.shape
    g = gi + 1
    steps = np.arange(1, n + 1)
    ks = bg - cur_cost
    order = np.argsort(ks, axis=1)
    offset = (np.arange(rows) * n)[:, None]
    order += offset
    ks = ks.take(order)
    order -= offset
    delta = 8 * n * 2.0 ** -53 * (p_t * (w_sum + g * n) + two_cmax)
    room = p_t * w_sum - s_sum
    # smallest key less p_t h of any class h above g, over every position
    above = np.where(_GAINS > g[:, None], low - p_t * _GAINS, _NO_MOVE).min(axis=1) - s_sum
    gap = ks[:, 1:] > ks[:, :-1] + delta[:, None]
    e = np.cumsum(ks, axis=1, out=ks)
    e -= (p_t * g)[:, None] * steps
    ok = e <= (room - delta)[:, None]                                   # (a)
    ok &= (above > room + delta)[:, None]                               # (c), state 0
    ok[:, 1:] &= e[:, :-1] > (room + delta - above)[:, None]            # (c), states 1 .. J - 1
    ok = np.logical_and.accumulate(ok, axis=1, out=ok)
    ok[:, :-1] &= gap                                                   # (b)
    return order, (ok * steps).max(axis=1)


def _commit(cur_bits, cur_cost, by_gain, bg, gi, order, n_set, p_t):
    """Commit, in place, the first n_set[row] positions of order in each
    grid, or only its first where n_set is 0 (a single move), each gaining
    gi + 1 bits at cost bg.  The guard rejects a single move whose full
    recompute exceeds p_t; a set cannot fail it.  Returns (committed, S, W)
    per grid.
    """
    single = n_set == 0
    ti, rank = np.nonzero(np.arange(order.shape[1]) < np.maximum(n_set, 1)[:, None])
    tp = order[ti, rank]
    tg = gi[ti]
    old_bits, old_cost = cur_bits[ti, tp], cur_cost[ti, tp]
    cur_bits[ti, tp] = old_bits + (tg + 1)
    cur_cost[ti, tp] = bg[ti, tp]
    s_full = cur_cost.sum(axis=1)
    w_full = cur_bits.sum(axis=1, dtype=np.int32)
    good = s_full / w_full <= p_t
    if not good.all():
        # the incremental screen was optimistic by rounding; drop the move
        bad = ~good
        if not single[bad].all():
            raise RuntimeError("lockstep greedy set step failed the guard")
        rej = bad[ti]
        cur_bits[ti[rej], tp[rej]] = old_bits[rej]
        cur_cost[ti[rej], tp[rej]] = old_cost[rej]
        by_gain[ti[rej], tg[rej], tp[rej]] = _NO_MOVE
        ti, tp, tg = ti[~rej], tp[~rej], tg[~rej]
    # a move of g bits shifts its position's gain classes down by g
    for g in np.unique(tg) + 1:
        moved = tg == g - 1
        t, q = ti[moved], tp[moved]
        by_gain[t, :-g, q] = by_gain[t, g:, q]
        by_gain[t, -g:, q] = _NO_MOVE
    return good, s_full, w_full


def sweep_total_bits(grids, snrs, p_t: float, granularity: str) -> np.ndarray:
    """Bit totals of every (SNR grid, constraint grid) pair.

    Returns int64 (len(snrs), len(grids)): the total_bits greedy_allocate
    ("subcarrier" granularity) or block_allocate ("block") would give for
    each pair.  The SNR grids may come from one channel draw or several;
    each row depends only on its own SNR grid.  One BER kernel call per
    scheme covers every SNR grid, and one batched call of either loader
    core scores every pair.  The SNR grids must share the constraint grids'
    shape, and p_t must lie in (0, 0.5).
    """
    masks = np.stack([flat_mask(g) for g in grids])
    cost = _ber_table(np.stack([_flat_gamma(s) for s in snrs]))
    cost *= CATALOG_BITS[:, None]
    core = _greedy_lockstep if granularity == "subcarrier" else _block_core
    return core(masks[None], cost[:, None], p_t)[2]


def exhaustive_allocate(
    snr: SnrGrid,
    constraints: ConstraintGrid,
    p_t: float,
    ber_table: np.ndarray | None = None,
) -> Allocation:
    """Enumerate every assignment; oracle for small grids.

    Maximizes total bits, breaking ties by lowest average BER and then by
    first-enumerated assignment (allowed schemes in catalog order, position
    p = l * n_f + k varying fastest at the highest p).  Refuses search
    spaces larger than EXHAUSTIVE_LIMIT assignments before it allocates.

    Bits are scored before any BER is summed.  An assignment's id is a
    mixed-radix number with position 0 as its most significant digit, split
    into a high part (the leading positions) and a low part, each
    enumerated in full; its bit total is the sum of its parts' integer bit
    totals.  One counting sort of the low part by bits (np.bincount and a
    stable argsort) then gives, for every (bits level, high part), the low
    parts that complete it, in id order.  The search walks the levels from
    the highest and scores each level's ids in ascending order, in blocks
    of at most _CHUNK rows (small levels share a block of up to _MERGE
    ids), with the row sum of a C-contiguous (rows, n) cost array and the
    division by the level that a full enumeration makes.  It stops at the
    first level that has an assignment within p_t, where the first
    assignment of least average wins, so every float and every choice is
    the full enumeration's.  A search space of at most _MERGE assignments
    is scored as one block in id order, with no sort.
    """
    mask, cost = _one_grid(snr, constraints, p_t, ber_table)
    n = mask.shape[1]
    sizes = np.count_nonzero(mask, axis=0).tolist()
    total = math.prod(sizes)  # exact: 13^84 overflows int64
    if total > EXHAUSTIVE_LIMIT:
        raise ValueError(
            f"search space {total} exceeds the exhaustive bound {EXHAUSTIVE_LIMIT}"
        )
    # lut[p, d] is position p's d-th allowed scheme, in catalog order
    lut = np.argsort(~mask, axis=0, kind="stable").T
    cols = np.arange(n)
    if total <= _MERGE:
        # every assignment fits one merged block: score them all in id order
        sel = lut[cols, np.indices(sizes).reshape(n, total).T]
        w = CATALOG_BITS[sel].sum(axis=1)
        weighted = cost[sel, cols].sum(axis=1)
        avg = weighted / np.maximum(w, 1)  # silent costs are 0.0, so level 0 gives 0.0
        feas = np.flatnonzero(avg <= p_t)
        level = int(w[feas].max())
        feas = feas[w[feas] == level]
        j = feas[np.argmin(avg[feas])]
        return _to_allocation(sel[j], constraints.n_f, constraints.n_t, float(weighted[j]), level)
    top = int(np.where(mask, CATALOG_BITS[:, None], 0).max(axis=0).sum())
    # the high part takes leading positions while its (levels, rows)
    # segment table stays no larger than the low part
    split, s_hi = 0, 1
    while split < n and (s_hi * sizes[split]) ** 2 * (top + 1) <= total:
        s_hi *= sizes[split]
        split += 1
    hi = lut[cols[:split], np.indices(sizes[:split]).reshape(split, s_hi).T]
    lo = lut[cols[split:], np.indices(sizes[split:]).reshape(n - split, total // s_hi).T]
    # the smallest integer type that holds every bit total keeps the sort fast
    bit_type = np.min_scalar_type(top)
    w_hi = CATALOG_BITS[hi].sum(axis=1, dtype=bit_type)
    w_lo = CATALOG_BITS[lo].sum(axis=1, dtype=bit_type)
    lo = lo[np.argsort(w_lo, kind="stable")]
    lo_count = np.bincount(w_lo, minlength=top + 2)  # lo_count[top + 1] == 0
    # low rows are gathered full width, then the high columns written over
    cost_hi, cost_lo = cost[hi, cols[:split]], np.zeros((lo.shape[0], n))
    cost_lo[:, split:] = cost[lo, cols[split:]]
    # segment (level, h), levels descending and h ascending: the sorted low
    # rows that complete high row h to the level, so segment order is id
    # order within each level; seg holds h, the level, and the offset from
    # a row's place g in the walk to its sorted low row
    need = (np.arange(top, -1, -1)[:, None] - w_hi).ravel()
    need[need < 0] = top + 1
    seg_len = lo_count[need]
    seg_end = np.cumsum(seg_len)
    seg = np.empty((3, need.size), dtype=np.intp)
    seg[1], seg[0] = np.divmod(np.arange(need.size), s_hi)
    np.subtract(top, seg[1], out=seg[1])
    seg[2] = (np.cumsum(lo_count) - lo_count)[need] - seg_end + seg_len
    bounds = np.zeros(top + 2, dtype=np.intp)  # level top - i starts at bounds[i]
    bounds[1:] = seg_end[s_hi - 1 :: s_hi]
    g, stop, level, best = 0, total, None, (np.inf,)
    while g < stop:
        if level is None:
            # the current level, plus whole levels below while within _MERGE ids
            cur, far = bounds.searchsorted([g, g + _MERGE], side="right")
            end = min(g + _CHUNK, max(bounds[cur], bounds[far - 1]))
        else:
            end = min(g + _CHUNK, stop)
        s0, s1 = seg_end.searchsorted([g, end - 1], side="right")
        ends = np.minimum(seg_end[s0 : s1 + 1], end)
        h, w, rows = np.repeat(seg[:, s0 : s1 + 1], ends - np.append(g, ends[:-1]), axis=1)
        rows += np.arange(g, end)
        vals = cost_lo.take(rows, axis=0)
        vals[:, :split] = cost_hi.take(h, axis=0)
        weighted = vals.sum(axis=1)
        avg = weighted / np.maximum(w, 1)
        feas = np.flatnonzero(avg <= p_t)
        if feas.size:
            if level is None:
                # the top feasible level: finish it, then stop
                level = int(w[feas[0]])
                stop = bounds[top - level + 1]
            feas = feas[w[feas] == level]
            j = feas[np.argmin(avg[feas])]
            if avg[j] < best[0]:
                best = (avg[j], float(weighted[j]), h[j], rows[j])
        g = end
    _avg, s_best, h, row = best
    idx = np.concatenate((hi[h], lo[row]))
    return _to_allocation(idx, constraints.n_f, constraints.n_t, s_best, level)


def _block_core(mask, cost, p_t):
    """Best single scheme per grid; returns (scheme index, S, W) per grid.

    mask and cost are (..., n_schemes, N) and broadcast against each other;
    each leading index is one grid.  A scheme is feasible when it loads bits
    within p_t on average; the most bits win, then the lowest average, then
    catalog order.  A grid with no feasible scheme gets row 0, the silent
    ASK1, with S = W = 0.  Row sums over the C-contiguous last axis are
    bit-identical to the 1-D np.sum of a one-grid call.
    """
    w = CATALOG_BITS * np.count_nonzero(mask, axis=-1)
    weighted = np.where(mask, cost, 0.0).sum(axis=-1)
    avg = np.divide(weighted, w, out=np.full(weighted.shape, np.inf), where=w > 0)
    w = np.where(avg <= p_t, w, 0)
    top = (w > 0) & (w == w.max(axis=-1, keepdims=True))
    best = np.argmin(np.where(top, avg, np.inf), axis=-1)[..., None]
    return (best[..., 0], np.take_along_axis(weighted, best, -1)[..., 0],
            np.take_along_axis(w, best, -1)[..., 0])


def block_allocate(
    snr: SnrGrid,
    constraints: ConstraintGrid,
    p_t: float,
    ber_table: np.ndarray | None = None,
) -> Allocation:
    """Coarse mode: one scheme for the whole block.

    The chosen scheme is applied at every position whose allowed set contains
    it; the rest stay silent.  Candidates are scored like the other solvers
    (most bits, then lowest average, then catalog order).
    """
    mask, cost = _one_grid(snr, constraints, p_t, ber_table)
    best, s_sum, w_sum = _block_core(mask, cost, p_t)
    idx = np.where(mask[best], best, _initial_silent(mask))
    return _to_allocation(idx, constraints.n_f, constraints.n_t, s_sum, w_sum)


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
    from .systems import Role

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

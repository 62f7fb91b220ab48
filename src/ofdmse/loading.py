"""Bit loading over a faded resource grid under an average-BER constraint.

Given the per-position SNR grid, the (n_f, n_t) array of linear gammas that
channel.snr_grid gives, and a ConstraintGrid of allowed schemes, the loader
picks one scheme per position to maximize the block's total bits while
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
grids, and greedy_allocate is the same core at batch 1.  Before it, two
certificates decide the sweep's pairs at W = 0 and at saturation without
the BER table (_certified_totals), so an SNR grid whose pairs are all
decided gets no table row and no core run.  The block sweep's filler
(_block_totals) and the saturation certificate bound sums of costs with
one screen (_screen) from each grid's lowest gammas.  The single-grid
solvers, evaluate_avg_ber and position_ber_table read the BER table of the
most recent grid through one memo, so consecutive calls on one grid share it.

Positions are ordered time-major, pos = l * n_f + k, and all tie-breaks are
total orders, so every solver is deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .modulation import (
    CATALOG,
    CATALOG_BITS,
    CATALOG_INDEX,
    N_SCHEMES,
    ModulationScheme,
    _ber_kernel,
    _checked_gamma,
)
from .systems import ConstraintGrid

EXHAUSTIVE_LIMIT = 10_000_000

#: Assignments evaluated per block of the exhaustive search.
_CHUNK = 1 << 17

#: Bit levels of fewer assignments than this share an exhaustive-search
#: block, so a small search makes few numpy calls.
_MERGE = 1 << 10

#: Catalog rows per positive bits-per-symbol level, family-ascending.
_LEVELS = tuple(
    (b, tuple(i for i, s in enumerate(CATALOG) if s.bits == b))
    for b in sorted({s.bits for s in CATALOG if s.bits})
)

_LEVEL_BITS = np.array([b for b, _rows in _LEVELS])

#: Bit gains a single move can make, 1 .. the top level's bits.
_GAINS = np.arange(1, _LEVEL_BITS[-1] + 1)

#: _LEVEL_AT[b] is the index of the level with b bits, for b = 0 .. the top
#: gain, or len(_LEVELS) when no level has that many: the row holding each
#: position's initial silent scheme.
_LEVEL_AT = np.full(_GAINS.size + 1, len(_LEVELS), dtype=np.int8)
_LEVEL_AT[_LEVEL_BITS] = np.arange(len(_LEVELS))

#: After a move of g bits at a position, its gain class c holds what its
#: class _SHIFT[g, c] held before: c + g, or the all-_NO_MOVE pad class.
_SHIFT = np.minimum(np.arange(_GAINS.size) + np.arange(_GAINS.size + 1)[:, None], _GAINS.size)

#: _ABOVE[g, c] tells whether class c gains more than g bits.
_ABOVE = _GAINS > np.arange(_GAINS.size + 1)[:, None]

#: Cost of a move that does not exist.  It is finite, so the difference of
#: two such entries is 0 and never inf - inf, and far above any bits x BER.
_NO_MOVE = 2.0 ** 900

_SILENT_ROWS = np.array([i for i, s in enumerate(CATALOG) if s.silent])

#: Non-silent catalog rows, the most bits first, for the block sweep's filler.
_BITS_DESCENDING = sorted((i for i, s in enumerate(CATALOG) if not s.silent),
                          key=lambda i: -CATALOG[i].bits)

#: The block sweep filler's screen stages: a row is bounded after its k
#: lowest gammas' BERs, for each k in turn, before it is computed in full
#: (see _block_totals).
_STAGES = (4, 16)

#: The screen's upper bound puts each unscreened position at the least
#: screened BER plus this (see _screen): twice the rise above a lower
#: gamma's BER that the computed kernel is tested to stay within.
_SLACK = 1e-15

#: The saturation certificate's screen stages (see _certified_totals).
_SATURATION_STAGES = (4, 16, 32)


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


def _time_major(a: np.ndarray) -> np.ndarray:
    """(..., n_f, n_t) -> (..., n_f * n_t), a C-order copy with entry
    p = l * n_f + k: the position order of every solver."""
    return np.swapaxes(a, -1, -2).reshape(a.shape[:-2] + (a.shape[-2] * a.shape[-1],))


def _flat_gamma(snr) -> np.ndarray:
    """One grid's gammas, time-major; refuses any gamma that is not 2-D."""
    gamma = np.asarray(snr, dtype=float)
    if gamma.ndim != 2:
        raise ValueError(f"SNR grid must be 2-D (n_f, n_t), got shape {gamma.shape}")
    return _time_major(gamma)


def position_ber_table(snr: np.ndarray) -> np.ndarray:
    """Instantaneous BER of every catalog scheme at every position.

    snr is one (n_f, n_t) gamma grid.  Returns shape (n_schemes, n_f * n_t),
    time-major positions; silent rows are zero.  The table comes from the
    memo of the most recent grid (see _grid_table), so calls on one grid
    compute it once; the array returned is the caller's own copy.
    """
    return _grid_table(_flat_gamma(snr)).copy()


#: The BER table of the most recent grid: (the bytes of its flat gammas,
#: its read-only _ber_table), or (None, None).  One entry, 13 x 8 bytes per
#: position plus the 8-byte key per position; one tuple is read and written
#: whole, so a concurrent caller sees an entire entry or recomputes.
_memo = (None, None)


def _grid_table(flat: np.ndarray) -> np.ndarray:
    """_ber_table of one grid's flat gammas, read-only, through the memo.

    The table depends only on the flat gammas, and _ber_kernel is
    elementwise, so a hit gives the bytes a fresh table would.  A grid
    whose gammas fail the check raises and leaves the memo as it was.
    """
    global _memo
    key = flat.tobytes()
    held, table = _memo
    if held != key:
        table = _ber_table(flat)
        table.flags.writeable = False
        _memo = (key, table)
    return table


def _ber_table(gamma: np.ndarray) -> np.ndarray:
    """position_ber_table of flat gammas with leading dimensions:
    (..., N) -> (..., n_schemes, N); checks gamma once, then
    _table_of_checked."""
    return _table_of_checked(_checked_gamma(gamma))


def _table_of_checked(gamma: np.ndarray) -> np.ndarray:
    """_ber_table of gammas that _checked_gamma has passed: one BER kernel
    call per scheme.  The greedy sweep checks its whole stack once, for the
    certificates, and builds the table of the undecided rows with this."""
    table = np.zeros(gamma.shape[:-1] + (N_SCHEMES, gamma.shape[-1]))
    for i, s in enumerate(CATALOG):
        if not s.silent:
            table[..., i, :] = _ber_kernel(s, gamma)
    return table


def evaluate_avg_ber(schemes, snr: np.ndarray) -> float:
    """Bit-weighted mean instantaneous BER of an assignment:
    sum(bits * ber) / sum(bits) over the non-silent positions.  Each
    position's catalog row is read through the id of its scheme object,
    which hashes no dataclass, and each distinct object is checked to be a
    ModulationScheme.  The BERs are one gather from the grid's table
    through the memo, as the allocators read it (see _grid_table), so the
    whole grid's gammas are checked; silent positions weigh +0.0 and change
    no float of the sum.  Nothing loaded returns 0.0 and builds no table."""
    flat = _flat_gamma(snr)
    n_f, n_t = np.shape(snr)
    if len(schemes) != n_f or any(len(row) != n_t for row in schemes):
        raise ValueError("scheme grid shape does not match the SNR grid")
    by_time = [s for column in zip(*schemes) for s in column]  # time-major
    ids = list(map(id, by_time))
    row_of = {}
    for i, s in dict(zip(ids, by_time)).items():
        if not isinstance(s, ModulationScheme):
            raise TypeError(f"schemes entries must be ModulationScheme objects, got {s!r}")
        row_of[i] = CATALOG_INDEX[s]
    rows = np.fromiter(map(row_of.__getitem__, ids), dtype=np.intp, count=len(ids))
    bits = CATALOG_BITS[rows]
    total_bits = int(bits.sum())
    if not total_bits:
        return 0.0
    ber_at = _grid_table(flat)[rows, np.arange(rows.size)]
    return float(np.sum(bits * ber_at) / total_bits)


def flat_mask(constraints: ConstraintGrid) -> np.ndarray:
    # (n_schemes, n_f, n_t) -> (n_schemes, N) in time-major position order
    return _time_major(constraints.allowed_mask)


def _initial_silent(mask) -> np.ndarray:
    """The first allowed silent row at each position: (..., n_schemes, N)
    masks give (..., N) catalog rows."""
    allowed = mask[..., _SILENT_ROWS, :]
    if not allowed.any(axis=-2).all():
        raise ValueError("a position has no order-1 scheme to fall back to")
    return _SILENT_ROWS[allowed.argmax(axis=-2)]


def _to_allocation(idx_flat, n_f, n_t, s_sum, w_sum) -> Allocation:
    rows = np.asarray(idx_flat).reshape(n_t, n_f).T.tolist()
    schemes = tuple(tuple(map(CATALOG.__getitem__, row)) for row in rows)
    avg = s_sum / w_sum if w_sum else 0.0
    return Allocation(schemes=schemes, total_bits=int(w_sum), avg_ber=float(avg))


def _one_grid(snr, constraints: ConstraintGrid, p_t: float, ber_table):
    """Check a single-grid call; returns its flat mask and bits x BER cost.
    Without a ber_table the grid's table comes through the memo; a passed
    table is checked and never enters it."""
    flat, shape = _flat_gamma(snr), np.shape(snr)
    if shape != (constraints.n_f, constraints.n_t):
        raise ValueError(
            f"SNR grid {shape} does not match constraints "
            f"({constraints.n_f}, {constraints.n_t})"
        )
    if not 0.0 < p_t < 0.5:
        raise ValueError(f"p_t must lie in (0, 0.5), got {p_t!r}")
    if ber_table is None:
        ber_table = _grid_table(flat)
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
    snr: np.ndarray,
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
    arrays; the reference serial loop in tests/test_loading.py prunes its
    move set the same way, one grid at a time.

    mask and cost are (..., n_schemes, N) and broadcast against each other.
    Returns the cheapest allowed scheme per (grid, bits level, position),
    the earlier catalog row on a tie, as (..., levels + 1, N) catalog rows,
    and its cost by gain class, as a (..., gains + 1, N) by_gain table (see
    _greedy_lockstep).  A level with no allowed scheme gets its first row
    and _NO_MOVE, and so does every class that no level fills, the pad
    class included.  The last level's rows are 0, left for the caller.
    Each level is reduced over its catalog rows with (..., N) temporaries,
    straight into its class of by_gain.
    """
    lead = np.broadcast_shapes(mask.shape[:-2], cost.shape[:-2])
    cand_idx = np.empty(lead + (len(_LEVELS) + 1, mask.shape[-1]), dtype=np.int8)
    cand_idx[...] = np.array([rows[0] for _b, rows in _LEVELS] + [0])[:, None]
    by_gain = np.full(lead + (_GAINS.size + 1, mask.shape[-1]), _NO_MOVE)
    for lvl, (b, (first, *rest)) in enumerate(_LEVELS):
        best, idx = by_gain[..., b - 1, :], cand_idx[..., lvl, :]
        np.copyto(best, cost[..., first, :], where=mask[..., first, :])
        for row in rest:
            # strictly cheaper only: a tie keeps the earlier row, as argmin
            other = np.where(mask[..., row, :], cost[..., row, :], _NO_MOVE)
            better = other < best
            np.copyto(best, other, where=better)
            np.copyto(idx, row, where=better)
    return cand_idx, by_gain


def _greedy_lockstep(mask, cost, p_t):
    """The greedy loader over many grids at once; returns (idx, S, W) per grid.

    mask and cost are (..., n_schemes, N) and broadcast against each other;
    each leading index is one grid, and the results keep the leading shape
    (greedy_allocate calls it on one grid, with no leading axes); p_t is
    one target for every grid.  Every grid still in play advances in the
    same iteration, and each grid ends bit-identical to the reference
    serial loop in tests/test_loading.py, which commits one move per
    iteration.  A grid leaves the batch in the step that finds it no
    feasible move, before any filter runs on it, and the loop ends when no
    grid is left.

    Moves are scored per gain class: by_gain[row, g - 1, p] is the cost of
    the move at p that gains g bits (_NO_MOVE if no level has that many bits
    or the guard rejected it), and a last pad class is always _NO_MOVE.  A
    committed move of g bits shifts its position's classes down by g, with
    the pad filling the top, and a rejected one marks its entry; by_gain
    stays C-contiguous, so the shift can index it flat.  The
    numerators (S + cost) - cur_cost are the serial loop's; division by the
    positive W + g is monotone under correct rounding, so a class has a
    feasible move iff its smallest numerator does.  The greatest feasible
    class g wins.

    A grid then commits, in one step, the J moves of class g with the
    smallest keys k = cost - cur_cost, when a filter with the margin
    delta = 8 n 2^-53 (p_t (W + g n) + 2 max cost) proves that the serial
    loop would commit exactly those J moves next, in some order.  delta
    bounds every rounding the serial loop makes over up to n moves.  With
    the keys sorted and E_j = k_1 + ... + k_j - p_t g j (E_0 = 0), the
    filter asks:
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
    its higher classes infeasible.  By (b) the J moves are exactly the
    positions whose key is at most k_J.  The new state's full row sum does
    not depend on the order of the moves, so S after the step is the serial
    loop's last full recompute.  A grid for which no J >= 1 passes takes
    the single argmin move under the full-recompute guard: a row-wise sum
    over a C-contiguous array is bit-identical to the 1-D np.sum.  The
    scheme of every position is read from its final bit count, once, after
    the last grid is done.
    """
    cand_idx, by_gain = _dense_candidates(mask, cost)
    lead, (levels, n) = cand_idx.shape[:-2], cand_idx.shape[-2:]
    r = math.prod(lead)
    cand_idx[..., -1, :] = _initial_silent(mask)
    cand_idx = cand_idx.reshape(r, levels, n)
    by_gain = by_gain.reshape(r, _GAINS.size + 1, n)
    two_cmax = np.multiply(cost.max(axis=(-2, -1)), 2.0, out=np.empty(lead)).reshape(r)
    out_bits = np.empty((r, n), dtype=np.int8)
    out_s = np.zeros(r)
    out_w = np.zeros(r, dtype=np.int64)
    rows = np.arange(r)
    at = np.arange(r)  # at[:m] indexes the m grids still in the batch
    cur_bits = np.zeros((r, n), dtype=np.int8)
    cur_cost = np.zeros((r, n))
    s_sum, w_sum = np.zeros(r), np.zeros(r, dtype=np.int64)
    num_buf = np.empty_like(by_gain)
    e_buf = np.zeros((r, n + 1))
    steps = np.arange(n + 1)
    # p_t g j for every gain g and count j of moves, as E_j subtracts it
    pg_steps = (p_t * np.arange(_GAINS.size + 1))[:, None] * steps
    pos = np.arange(n)
    # each step of a grid commits at least one move (at most _GAINS.size * n
    # in all, as each adds bits), rejects a candidate for good (at most
    # (levels - 1) * n) or finds no move, which ends the grid
    steps_left = n * (_GAINS.size + levels)
    while rows.size:
        steps_left -= 1
        if steps_left < 0:
            raise RuntimeError("lockstep greedy exceeded its step bound")
        # the whole contiguous table, pad class included, in long inner loops
        num = np.add(by_gain, s_sum[:, None, None], out=num_buf[: rows.size])
        num -= cur_cost[:, None, :]
        low = num[:, :-1].min(axis=2)
        # the greatest gain with a feasible move, 0 where there is none
        g = ((low / (w_sum[:, None] + _GAINS) <= p_t) * _GAINS).max(axis=1)
        if np.count_nonzero(g) < rows.size:
            # a grid without a feasible move is final; drop it from the batch
            done = g == 0
            gone = rows[done]
            out_s[gone], out_w[gone], out_bits[gone] = s_sum[done], w_sum[done], cur_bits[done]
            live = np.flatnonzero(g)
            if not live.size:
                break
            rows, s_sum, w_sum, two_cmax, low, g, cur_bits, cur_cost = (
                a.take(live, axis=0)
                for a in (rows, s_sum, w_sum, two_cmax, low, g, cur_bits, cur_cost))
            # the spent numerator buffer takes the table's live rows; mode
            # "clip" writes straight into it, and every index is valid
            by_gain, num_buf = by_gain.take(live, axis=0, mode="clip",
                                            out=num_buf[: rows.size]), by_gain
        here = at[: rows.size]
        bg = by_gain[here, g - 1]
        # the spent numerators' first two classes hold the keys, unsorted and sorted
        keys = np.subtract(bg, cur_cost, out=num_buf[: rows.size, 0])
        ks = num_buf[: rows.size, 1]
        ks[...] = keys
        ks.sort(axis=1)
        n_set = _set_size(ks, low, s_sum, w_sum, g, p_t, two_cmax, e_buf[: rows.size], steps,
                          pg_steps.take(g, axis=0))
        # by (b) the J smallest keys are exactly those at most k_J
        commit = keys <= ks[here, n_set - 1][:, None]
        if np.count_nonzero(n_set) < rows.size:
            # no set passed the filter: the single move is the position of
            # least resulting average in class g, first position on ties
            single = n_set == 0
            avg_new = bg[single] + s_sum[single, None]
            avg_new -= cur_cost[single]
            avg_new /= (w_sum[single] + g[single])[:, None]
            commit[single] = pos == np.argmin(avg_new, axis=1)[:, None]
        cur_cost, s_sum, w_sum = _commit(cur_bits, cur_cost, by_gain, bg, g, commit, n_set,
                                         s_sum, w_sum, p_t)
    out_idx = cand_idx[at[:, None], _LEVEL_AT[out_bits], pos]
    return out_idx.reshape(lead + (n,)), out_s.reshape(lead), out_w.reshape(lead)


def _set_size(ks, low, s_sum, w_sum, g, p_t, two_cmax, e, steps, pg):
    """The set step's filter (see _greedy_lockstep) for a batch of grids.

    ks holds each grid's class-g keys in ascending order, low the step's
    smallest numerator per class, two_cmax twice the largest cost of the
    grid; e is a (grids, N + 1) buffer whose first column is 0, steps is
    0 .. N and pg[:, j] is p_t g j.  Returns the number J of moves that the
    serial loop provably commits next, 0 where the filter cannot decide.
    """
    n = ks.shape[1]
    delta = 8 * n * 2.0 ** -53 * (p_t * (w_sum + g * n) + two_cmax)
    room = p_t * w_sum - s_sum
    # smallest key less p_t h of any class h above g, over every position
    above = np.minimum.reduce(low - p_t * _GAINS, axis=1, initial=_NO_MOVE,
                              where=_ABOVE.take(g, axis=0))
    above -= s_sum
    ks.cumsum(axis=1, out=e[:, 1:])
    e -= pg                                                             # E_0 .. E_n
    ok = e[:, 1:] <= (room - delta)[:, None]                            # (a)
    ok &= e[:, :-1] > (room + delta - above)[:, None]                   # (c), states 0 .. J - 1
    ok = np.logical_and.accumulate(ok, axis=1, out=ok)
    ok[:, :-1] &= ks[:, 1:] > ks[:, :-1] + delta[:, None]               # (b)
    return (ok * steps[1:]).max(axis=1)


def _commit(cur_bits, cur_cost, by_gain, bg, g, commit, n_set, s_sum, w_sum, p_t):
    """Commit the class-g moves at the positions where commit is set: n_set
    of them in each grid, or one where n_set is 0 (a single move), each
    gaining g bits at cost bg.  The guard rejects a single move whose full
    recompute exceeds p_t; a set cannot fail it.  cur_bits, by_gain and
    commit change in place; returns the new (cur_cost, S, W) per grid.

    The new costs are one select over the whole (grids, N) state, and W
    grows by g per move.  A committed move of g bits shifts its position's
    gain classes down by g, whatever the mix of gains in the batch: one
    flat take and one flat assignment on the C-contiguous by_gain, with
    (classes, moves) index arrays.
    """
    new_cost = np.where(commit, bg, cur_cost)
    s_full = new_cost.sum(axis=1)
    w_full = w_sum + g * np.maximum(n_set, 1)
    good = s_full / w_full <= p_t
    if np.count_nonzero(good) < good.size:
        # the incremental screen was optimistic by rounding; drop the move
        bad = ~good
        if n_set[bad].any():
            raise RuntimeError("lockstep greedy set step failed the guard")
        t, q = (commit & bad[:, None]).nonzero()
        new_cost[t, q] = cur_cost[t, q]
        commit[t, q] = False
        by_gain[t, g[t] - 1, q] = _NO_MOVE
        s_full[bad], w_full[bad] = s_sum[bad], w_sum[bad]
    cur_bits += commit * g[:, None].astype(np.int8)
    # a move of g bits shifts its position's gain classes down by g.  The
    # move at flat index f = t N + q of commit owns the entries t C N + c N + q
    # of the flat C-order table, base + c N; class c takes class _SHIFT[g, c].
    n = commit.shape[1]
    f = np.flatnonzero(commit)
    t = f // n
    base = f + t * (by_gain[0].size - n)
    offsets = (_SHIFT * n).T  # (classes, gains): row c reads N _SHIFT[g, c]
    src = offsets.take(g.take(t), axis=1)
    src += base
    flat = by_gain.reshape(-1)
    moved = flat.take(src)
    # the destinations, base + c N, reuse the sources' buffer
    flat[np.add(offsets[:, :1], base, out=src)] = moved
    return new_cost, s_full, w_full


@lru_cache(maxsize=16)
def _extremes_plan(key: bytes, n: int):
    """What the certificates of _certified_totals need of the constraint
    grids, from the bytes of their stacked (grids, n_schemes, N) flat
    masks.  It depends on the grids alone, so a sweep's calls share it.

    A position's top level is the most bits it allows.  Each grid has one
    column per top level b of its positions, the most bits first, and the
    column is the group end of b: every position whose top level is at
    least b.  A position's designated top row is the last catalog row it
    allows at its top level.  Returns read-only arrays (uses, top_rows,
    bits, weights, count, w_col, col_grid, one_hot, saturation):
      uses (grids, n_schemes): the non-silent schemes each grid allows;
      top_rows (R,): the designated top rows, with their bits (R, 1);
      weights (N, R, cols): 1.0 where a position of the column has that
        designated row, and count (R, cols) its sum over the positions;
      w_col (cols,): each column's bit total, the group end's W;
      col_grid (cols,): the grid of each column, and one_hot (cols, grids);
      saturation (grids,): each grid's total with every position at its top.
    """
    masks = np.frombuffer(key, dtype=bool).reshape(-1, N_SCHEMES, n)
    top = np.where(masks, CATALOG_BITS[:, None], 0).max(axis=1)
    at_top = masks & (CATALOG_BITS[:, None] == top[:, None, :])
    designated = N_SCHEMES - 1 - at_top[:, ::-1].argmax(axis=1)
    cols = [(j, b) for j, t in enumerate(top) for b in sorted(set(t[t > 0].tolist()), reverse=True)]
    col_grid = np.array([j for j, _b in cols], dtype=np.intp)
    member = np.array([top[j] >= b for j, b in cols], dtype=bool).reshape(len(cols), n)
    row_of = np.where(member, designated[col_grid], -1)
    top_rows = np.unique(row_of[row_of >= 0])
    weights = (row_of.T[:, None, :] == top_rows[:, None]).astype(float)
    plan = ((masks & (CATALOG_BITS[:, None] > 0)).any(axis=2), top_rows,
            CATALOG_BITS[top_rows][:, None], weights, weights.sum(axis=0),
            np.where(member, top[col_grid], 0).sum(axis=1).astype(float), col_grid,
            col_grid[:, None] == np.arange(len(masks)), top.sum(axis=1))
    for a in plan:
        a.flags.writeable = False
    return plan


@lru_cache(maxsize=64)
def _target_limits(key: bytes, n: int, p_t: float):
    """The certificates' gamma limits at one target, for _extremes_plan(key,
    n): (zero, alone), read-only.  zero (n_schemes,) is each catalog row's
    _gamma_limit at p_t; alone (R, cols) is each designated top row's
    _gamma_limit at p_t w / bits, below which one position's cost alone
    exceeds p_t times the column's bit total w, and -1.0 where the column
    does not use the row."""
    _uses, top_rows, bits, _weights, count, w_col, *_rest = _extremes_plan(key, n)
    zero = np.array([_gamma_limit(i, p_t) for i in range(N_SCHEMES)])
    alone = np.array([[_gamma_limit(i, p_t * w / b) if c else -1.0 for w, c in zip(w_col, used)]
                      for i, b, used in zip(top_rows, bits[:, 0], count)])
    alone = alone.reshape(count.shape)
    zero.flags.writeable = alone.flags.writeable = False
    return zero, alone


def _gamma_limit(i: int, q: float) -> float:
    """A gamma at and below which catalog row i's computed BER exceeds q.

    The largest gamma found on a geometric search at which
    fl(fl(BER - _SLACK) (1 - 8 u)) > q, u = 2^-53, or -1.0 where no gamma
    tried qualifies, as for a silent row: powers of two from 2^-60 to 2^60,
    then 64 steps between the last qualifying gamma and the next, twice;
    three kernel calls.  By the kernel property of _screen, the BER at any
    lower gamma is at least the BER there less _SLACK / 2, which is above
    q (1 + 5 u) (1 - u)^-2.
    """
    s = CATALOG[i]
    if s.silent:
        return -1.0
    grid = 2.0 ** np.arange(-60.0, 61.0)
    for step in range(3):
        ok = np.flatnonzero((_ber_kernel(s, grid) - _SLACK) * (1.0 - 8 * 2.0 ** -53) > q)
        if not ok.size:
            return -1.0
        j = ok[-1]
        if step == 2 or j == grid.size - 1:
            return float(grid[j])
        grid = np.geomspace(grid[j], grid[j + 1], 65)


def _certified_totals(masks, gamma, p_t):
    """W of each (SNR grid, constraint grid) pair that a certificate
    decides, and -1 where neither does.

    masks is (grids, n_schemes, N), gamma (rows, N) checked flat gammas and
    p_t (rows,) one target per row.  A decided W is the one _greedy_lockstep
    gives on the full bits x BER table, and so the serial loop's (see
    _greedy_lockstep), found without that table.  What depends on the grids
    alone comes from _extremes_plan, and on the grids and a target from
    _target_limits, each computed once.  Both certificates are sufficient
    only: a pair that neither decides goes to the table and the lockstep.
    u = 2^-53.

    Zero.  From the all-silent state the loop's first screen compares
    (0 + c) - 0 = c over g with p_t, for each allowed entry of cost
    c = fl(g x BER), and fl(c / g) >= BER (1 - u)^2.  W = 0 when no such
    move is feasible.  A scheme's _gamma_limit t at p_t has every BER at a
    gamma at most t above p_t (1 + 5 u) (1 - u)^-2, so a grid whose largest
    gamma is at most t for every non-silent scheme it allows gets W = 0.

    Saturation.  Take the jumps from silent to each position's cheapest top
    scheme, the group of the most bits first and each group in ascending
    cost.  While group b is under way, every position of a higher group is
    at its top and has no move, and every position of a lower group gains
    fewer than b bits, so the greatest gain is b and its least numerator is
    the cheapest jump left in the group.  So while that jump passes the
    screen and the guard, the loop commits it, or on a tie of the rounded
    average another jump of the group, and after the last group W is the
    saturation total.  Let A_j be the exact average after the first j jumps
    of the sequence.  Within a group, A_(j+1) >= A_j iff the next cost over
    b is at least A_j, and then A_(j+1) lies between A_j and that cost over
    b, which the cost after it over b exceeds: the average never rises and
    then falls, so no A_j exceeds both ends of its group, and the plan's
    columns hold the group ends.  A tie commits a jump c' >= c, the
    cheapest left, with fl(fl(S + c') / W) = fl(fl(S + c) / W), so
    c' - c <= 4.01 u (S + c) <= 4.02 u p_t W; the cheapest jump left is at
    most the sequence's next one, so over at most N jumps the committed sum
    exceeds the sequence's by at most 4.02 N u p_t W.  The screen
    fl(fl(S + c) - 0) / W and the guard fl(S') / W, S and S' sums of N
    costs, exceed the exact average by a factor at most 1 + (N + 1) u.

    The bound: a column's upper sum is the sum over the designated top rows
    of _screen's high, each at least (1 - gamma_(k+2)) times its exact
    part, where a designated row's cost is at least the cheapest top
    scheme's.  Its R <= 10 parts add R - 1 roundings, and the test
    fl(fl(high (1 + margin)) / w) <= p_t two more, so the test passes only
    when the exact group end average is at most
    p_t (1 + (k + R + 4) u) / (1 + margin), up to terms of order
    ((N + k) u)^2.  margin = 8 (N + k + 4) u covers that, the tie term
    4.02 N u and the loop's (N + 1) u: 8 (N + k + 4) >= 5.02 N + k + 15,
    with room for the second-order terms.

    The screen runs in the stages of _SATURATION_STAGES below N, each
    designated row at the SNR grids where a column that uses it is open.
    A pair that no stage settles is left to the lockstep.  An SNR grid
    leaves the screen once one of its pairs is ruled out, because it then
    goes to the table whatever its other pairs give: by a first-stage
    position below its alone limit, or by a lower sum that, times
    1 - margin, exceeds p_t w.  The alone ruling needs no kernel call, so
    it closes the grids whose lowest gammas sit in a deep fade before the
    first stage computes their top rows.  A ruling decides nothing, so the
    certificates' reach is measured one constraint grid at a time.
    """
    key, (rows, n) = masks.tobytes(), gamma.shape
    uses, top_rows, bits, weights, count, w_col, col_grid, one_hot, saturation = \
        _extremes_plan(key, n)
    targets, which = np.unique(p_t, return_inverse=True)
    zero_at, alone = (np.stack(a) for a in zip(*(_target_limits(key, n, t) for t in targets)))
    zero = ~((gamma.max(axis=1)[:, None] > zero_at[which]) @ uses.T)
    fits = np.zeros((rows, len(w_col)), dtype=bool)
    live = np.flatnonzero(~zero[:, col_grid].all(axis=1))
    stages = [k for k in _SATURATION_STAGES if k < n]
    if stages and live.size:
        # one partition, as in _block_totals, of the rows with an open column
        low_gamma = gamma[live]
        low_at = np.argpartition(low_gamma, [k - 1 for k in stages], axis=1)[:, : stages[-1]]
        low_gamma = np.take_along_axis(low_gamma, low_at, axis=1)
        p_live = p_t[live, None]
        first = stages[0]
        over = ((low_gamma[:, :first, None, None] < alone[which[live], None])
                * weights[low_at[:, :first]]).any(axis=(1, 2))
        open_ = ~zero[live][:, col_grid] & ~over.any(axis=1, keepdims=True)
        screened, least, done = 0.0, np.inf, 0
        for k in stages:
            keep = open_.any(axis=1)
            if not keep.all():
                live, low_at, low_gamma, open_, p_live = (
                    a[keep] for a in (live, low_at, low_gamma, open_, p_live))
                if done:
                    screened, least = screened[keep], least[keep]
                if not live.size:
                    break
            # a designated row's BERs where a column that uses it is open; the
            # zeros left elsewhere weigh only in columns already closed
            need = open_ @ (count > 0).T
            ber = np.zeros((live.size, len(top_rows), k - done))
            for r, i in enumerate(top_rows):
                if need[:, r].any():
                    ber[need[:, r], r] = _ber_kernel(CATALOG[i], low_gamma[need[:, r], done:k])
            screened, least, high = _screen(bits, ber, weights[low_at[:, done:k]].swapaxes(1, 2),
                                            count, screened, least)
            done = k
            margin = 8 * (n + k + 4) * 2.0 ** -53
            fit = (high.sum(axis=1) * (1.0 + margin) / w_col <= p_live) & open_
            over = (screened[:, :, 0].sum(axis=1) * (1.0 - margin) / w_col > p_live) & open_
            fits[live] |= fit
            open_ &= ~fit & ~over.any(axis=1, keepdims=True)
    totals = np.where((~fits) @ one_hot, -1, saturation)
    totals[zero] = 0
    return totals


def sweep_total_bits(grids, gammas, p_t, granularity: str) -> np.ndarray:
    """Bit totals of every (SNR grid, constraint grid) pair.

    gammas is an (S, n_f, n_t) stack of S >= 1 SNR grids, each the
    (n_f, n_t) gamma array the single-grid solvers take, and
    p_t one target for all of them or a sequence of S targets, one per SNR
    grid.  Returns int64 (S, len(grids)): the total_bits greedy_allocate
    ("subcarrier" granularity) or block_allocate ("block") would give for
    each pair at its SNR grid's target.  The SNR grids may come from one
    channel draw or several, under one target or several; each row depends
    only on its own SNR grid and target.  grids must hold at least one
    constraint grid, the SNR grids must share its shape, p_t must give one
    target or S, and every target must lie in (0, 0.5); the granularity
    must be "subcarrier" or "block".  Each is refused with ValueError, in
    the words of the single-grid solvers and SweepConfig where they have
    one; a gammas array that is not 3-D is refused with its whole shape.
    The sweep's grids are all new, so this bypasses the memo.

    In subcarrier granularity _certified_totals first decides each pair
    whose W is 0 or its grid's saturation total, from a gamma limit per
    scheme and target and a screen of each SNR grid's lowest gammas, with
    no table.  An SNR grid whose pairs it all decides is done.  For the
    others the greedy core runs once per distinct target, over that
    target's SNR grids: one batched call scores their full bits x BER
    table, with one BER kernel call per scheme over all of them, and its
    totals are written back to their rows; a certified total equals the
    core's (see _certified_totals for why).  In block
    granularity _block_totals gives W directly, every row at its own
    target in one call: it computes only the rows a block total can depend
    on and keeps the best W per pair with the block core's own
    _block_scores arithmetic, so the totals are block_allocate's (see
    _block_totals for why).
    """
    if granularity not in ("subcarrier", "block"):
        raise ValueError("granularity must be subcarrier or block")
    if not len(grids):
        raise ValueError("grids must hold at least one constraint grid")
    gammas = np.asarray(gammas, dtype=float)
    if gammas.ndim != 3:
        raise ValueError(
            f"gammas must be an (S, n_f, n_t) stack of SNR grids, got shape {gammas.shape}"
        )
    for g in grids:
        if gammas.shape[1:] != (g.n_f, g.n_t):
            raise ValueError(
                f"SNR grid {gammas.shape[1:]} does not match constraints ({g.n_f}, {g.n_t})"
            )
    if not len(gammas):
        raise ValueError(f"gammas must hold at least one SNR grid, got shape {gammas.shape}")
    p_t = np.ravel(np.asarray(p_t, dtype=float))
    if p_t.size not in (1, len(gammas)):
        raise ValueError(
            f"p_t must be one target or one per SNR grid ({len(gammas)}), got {p_t.size}"
        )
    p_t = np.broadcast_to(p_t, len(gammas))
    outside = p_t[~((0.0 < p_t) & (p_t < 0.5))]
    if outside.size:
        raise ValueError(f"p_t must lie in (0, 0.5), got {float(outside[0])!r}")
    masks = np.stack([flat_mask(g) for g in grids])
    flat = _time_major(gammas)
    if granularity != "subcarrier":
        return _block_totals(masks, flat, p_t)
    flat = _checked_gamma(flat)
    totals = _certified_totals(masks, flat, p_t)
    undecided = (totals < 0).any(axis=1)
    for target in np.unique(p_t[undecided]):
        at = np.flatnonzero(undecided & (p_t == target))
        cost = _table_of_checked(flat[at])
        cost *= CATALOG_BITS[:, None]
        totals[at] = _greedy_lockstep(masks[None], cost[:, None], target)[2]
    return totals


def exhaustive_allocate(
    snr: np.ndarray,
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
    the full enumeration's.  Every search space takes this walk, the
    smallest included.
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
    weighted, avg, w = _block_scores(mask, cost, CATALOG_BITS, p_t)
    # W is the largest w that fits, and 0 (ASK1's) where none does
    w_max = w.max(axis=-1, keepdims=True)
    top = (w > 0) & (w == w_max)
    best = np.argmin(np.where(top, avg, np.inf), axis=-1)[..., None]
    return best[..., 0], np.take_along_axis(weighted, best, -1)[..., 0], w_max[..., 0]


def _block_scores(mask, cost, bits, p_t):
    """The block core's arithmetic: each scheme row's weighted sum, average
    and W, the bits it loads where it fits within p_t and 0 elsewhere.

    mask and cost are (..., N) rows that broadcast against each other, and
    bits broadcasts against their (...) shape.  A row that loads nothing
    averages +inf.  The sum runs over the C-contiguous last axis, so one
    row's sum is the same float in any batch.  _block_core (block_allocate)
    and _block_totals (the block sweep) both score rows with it, so they
    decide every fit on the same floats.
    """
    weighted = np.where(mask, cost, 0.0).sum(axis=-1)
    w = bits * mask.sum(axis=-1)
    avg = np.divide(weighted, w, out=np.full(weighted.shape, np.inf), where=w > 0)
    return weighted, avg, np.where(avg <= p_t, w, 0)


def _screen(bits, ber, weights, count, screened, least):
    """One screen stage: bounds on column sums of scheme s's costs,
    bits x BER, from each SNR grid's lowest gammas alone.

    gamma (rows, m) holds each SNR grid's newly screened gammas, none above
    any of its unscreened gammas, and weights (rows, m, cols) their 0/1
    weights in each column; count (cols,) is each column's weight over all
    N positions.  screened (rows, 2, cols) and least (rows,) carry the
    earlier stages' sums and least screened BER (0.0 and inf before the
    first).  Returns them with this stage's gammas added, and high.  Of the
    k gammas screened so far, screened[:, 0] is L, the sum of the weighted
    costs, and screened[:, 1] their weight; high is L plus the unscreened
    weight times bits x (least screened BER + _SLACK).  One kernel call
    evaluates the new gammas.  The block filler (_block_totals) and the
    saturation certificate (_certified_totals) both bound with it.

    Why the bounds hold: a column's exact sum X of its weighted costs is at
    least the exact L, since every cost is non-negative, and at most the
    exact high, since every unscreened gamma is at least every screened
    one, so its BER is at most the least screened BER plus _SLACK / 2, and
    the add of _SLACK rounds off less than half an ulp of 1, far below
    _SLACK / 2.  Any summation of m non-negative floats lies within a
    factor 1 +- gamma_(m-1), gamma_j = j u / (1 - j u) with u = 2^-53, of
    the exact sum (Higham, Accuracy and Stability of Numerical Algorithms,
    section 4.2).  L sums k costs over the stages, in any order, so the
    computed L is at most (1 + gamma_k) X; high adds three roundings, the
    products by bits and by the unscreened weight and the add, so the
    computed high is at least (1 - gamma_(k+2)) X.  Each caller widens both
    by a margin that also covers its own arithmetic.

    The bounds rest on two properties of the computed kernel, not of its
    formula.  The QAM and ASK terms carry negative coefficients and the PSK
    tail adds a negative Owen's T, so non-negativity is one.  The other:
    no computed BER lies more than _SLACK / 2 above its value at a lower
    gamma.  tests/test_modulation.py::test_ber_range_and_monotonicity_in_gamma
    checks both for every scheme at gamma 0, 5e-324 and a dense log scan up
    to 1e300, where the largest rise is 1.11e-16, one ulp at BER 0.5.
    """
    # per row, the stage's sum of weighted costs and its weight
    terms = np.ones(ber.shape[:-1] + (2, ber.shape[-1]))
    np.multiply(bits, ber, out=terms[..., 0, :])
    screened = screened + terms @ weights
    least = np.minimum(least, ber.min(axis=-1))
    # every unscreened position at the least screened BER plus _SLACK
    rest = (count - screened[..., 1, :]) * (bits * (least + _SLACK)[..., None])
    return screened, least, screened[..., 0, :] + rest


def _block_totals(masks, gamma, p_t):
    """W, the total block_allocate gives, of every (SNR grid, constraint grid).

    masks is (grids, n_schemes, N), gamma (rows, N) flat gammas, and p_t
    one target or one per row.  Returns int64 (rows, grids), the block
    core's W on the full bits x BER table at each row's target, without
    building that table.  The gammas are checked once, with _ber_table's
    ValueError.

    The schemes are taken the most bits first.  A row needs a scheme when
    some grid allows it with w = bits x allowed count above the best W that
    grid has so far; otherwise the row is skipped.  The screen then bounds
    each needed row in stages: one argpartition orders each row's lowest
    gammas so that stage k holds its k lowest, for each k in _STAGES below
    N, and each stage calls the kernel only on the gammas it adds, for the
    rows still open.  _screen bounds each grid's sum of allowed costs from
    the k screened costs alone, the lower sum L and the upper sum high.
    They are scaled by 1 - margin and 1 + margin and divided by w as the
    core divides.  A lower bound above p_t proves the row does not fit; an
    upper bound at most p_t proves it fits, and best takes w; otherwise the
    grid stays open.  A row with no open grid leaves the screen, and one
    kernel call computes in full only the rows still open after the last
    stage; the core's _block_scores decides which grids they fit and
    raises their best W.

    Why the bounds hold: the core sums a row's N masked costs, each
    non-negative, within a factor 1 +- gamma_(N-1) of the exact sum X, and
    _screen's computed L is at most (1 + gamma_k) X and its computed high
    at least (1 - gamma_(k+2)) X.  With the scaling, which rounds once, the
    lower bound is at most the core's computed sum when margin >=
    (N + k + 1) u, and the upper bound at least it when margin >=
    (N + k + 2) u, up to terms of order ((N + k) u)^2.  margin =
    2 (N + k) u covers both for N + k >= 4 and far beyond any grid's N.
    Division by the same w > 0 is monotone, so each bound's average is on
    its side of the core's.

    Why this is the core's W: _ber_kernel is elementwise, so an exact row
    holds the full table's floats, and _block_scores sums each row over the
    contiguous last axis, the same float in any batch.  W is the largest
    feasible w, 0 where none fits as best starts, and each row not computed
    is either infeasible on the full table, proven to fit, or has w at most
    a W already found feasible, for every grid.  The test is w > best per
    grid, not the bits order, so a lower level with the larger w (a custom
    profile may allow 64-QAM at one position only) is still computed.  Each
    row's bounds and fit compare with that row's own target only.
    """
    gamma = _checked_gamma(gamma)
    rows, n = gamma.shape
    p_t = np.broadcast_to(p_t, rows)[:, None]  # one target per row, as a column
    best = np.zeros((rows, len(masks)), dtype=np.int64)
    stages = [k for k in _STAGES if k < n]
    count = masks.sum(axis=-1)  # (grids, n_schemes)
    if stages:
        # one partition: each stage's positions follow the earlier stages'
        low_at = np.argpartition(gamma, [k - 1 for k in stages], axis=1)[:, : stages[-1]]
        low_gamma = np.take_along_axis(gamma, low_at, axis=1)
        allowed = masks.transpose(1, 2, 0).astype(float)  # (n_schemes, N, grids)
    for i in _BITS_DESCENDING:
        s, mask = CATALOG[i], masks[:, i]
        w = s.bits * count[:, i]
        need = w > best
        at = np.flatnonzero(need.any(axis=1))
        w_div = np.maximum(w, 1)  # a grid with w = 0 never needs the row
        open_, screened, least, done = need[at], 0.0, np.inf, 0
        for k in stages:
            if not at.size:
                break
            ber = _ber_kernel(s, low_gamma[at, done:k])
            screened, least, high = _screen(s.bits, ber, allowed[i][low_at[at, done:k]],
                                            count[:, i], screened, least)
            done = k
            margin = 2 * (n + k) * 2.0 ** -53
            low = screened[:, 0] * (1.0 - margin) / w_div
            high = high * (1.0 + margin) / w_div
            p_at = p_t[at]
            fits = high <= p_at
            best[at] = np.maximum(best[at], np.where(fits, w, 0))
            # a grid stays open where it needs the row and neither bound decides
            open_ &= low <= p_at
            open_ &= ~fits
            keep = open_.any(axis=1)
            at, open_, screened, least = at[keep], open_[keep], screened[keep], least[keep]
        if at.size:
            full = s.bits * _ber_kernel(s, gamma[at])
            fit = _block_scores(mask, full[:, None], s.bits, p_t[at])[2]
            best[at] = np.maximum(best[at], fit)
    return best


def block_allocate(
    snr: np.ndarray,
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

"""Fused numpy kernels for the vectorized detection hot paths.

Every routine here is a drop-in replacement for a Python loop (or a
slow buffered ``ufunc.at`` scatter) somewhere in the batch pipeline,
with two hard requirements:

1. **Bit-identity.**  The mutated arrays end up byte-for-byte equal to
   what the scalar loop would have produced, for *any* input including
   duplicate indices.  Where numpy's fancy assignment has undefined
   duplicate semantics, the kernel either proves order cannot matter
   (constant values, idempotent OR of one bit) or partitions the work
   into classes within which it cannot.
2. **Exact op accounting.**  Each kernel returns (or lets the caller
   derive in closed form) the same ``word_reads``/``word_writes`` the
   scalar loop would have tallied — writes in particular are decided by
   *pre-sweep* values, which the kernels inspect before mutating.

The kernels are layout-aware but detector-agnostic: they know about
lane-packed words and timestamp entries, not about windows or verdicts.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

import numpy as np

__all__ = [
    "repeat_arange",
    "wrapped_ages",
    "window_counts",
    "row_all",
    "row_and",
    "row_any",
    "or_constant_bit",
    "or_lane_slots",
    "clean_cursor_sweep",
    "lane_pattern",
    "partial_lane_masks",
    "clear_lane_span",
    "clear_lane_runs",
]


@lru_cache(maxsize=8)
def repeat_arange(n: int, reps: int) -> "np.ndarray":
    """``np.repeat(np.arange(n), reps)`` as a cached *read-only* array.

    The batch paths rebuild this exact pattern (element row of every
    hash slot / sweep slot) once per chunk with only a couple of
    distinct shapes per stream; the cache turns it into a dict hit.
    """
    pattern = np.repeat(np.arange(n, dtype=np.int64), reps)
    pattern.flags.writeable = False
    return pattern


def wrapped_ages(now: int, values: "np.ndarray", period: int) -> "np.ndarray":
    """``(now - values) % period`` for timestamps in ``[0, period)``.

    ``values`` may also hold the empty sentinel (``>= period``); those
    rows come out as arbitrary-but-deterministic negatives, which every
    caller masks behind a ``values != empty`` check anyway.  One
    conditional add replaces the (much slower) int64 modulo.
    """
    ages = np.int64(now) - values
    np.add(ages, np.int64(period), out=ages, where=ages < 0)
    return ages


def window_counts(
    entries: "np.ndarray", now: int, span: int, period: int, empty: int
) -> Tuple[int, int]:
    """``(active, occupied)`` entries of a wrapped-timestamp table.

    An entry ``v`` is occupied when ``v != empty`` and active when its
    age ``(now - v) % period`` is below ``span``: ``now - span < v <=
    now``, or, when ``now - span`` wraps below 0, ``v <= now`` plus
    ``now - span + period < v < period``.  Timestamps lie in ``[0,
    period)`` and ``empty >= period``, so both are range counts on the
    native unsigned array, with no int64 copy and no modulo.
    """
    now = int(now)
    occupied = int(np.count_nonzero(entries != empty))
    active = int(np.count_nonzero(entries <= now))
    low = now - span
    if low >= 0:
        active -= int(np.count_nonzero(entries <= low))
    else:
        active += occupied - int(np.count_nonzero(entries <= low + period))
    return active, occupied


def row_all(matrix: "np.ndarray") -> "np.ndarray":
    """``matrix.all(axis=1)`` unrolled over the (small) column axis.

    numpy's axis-1 reduction machinery costs ~2.5x a handful of
    column-wise ANDs when the row axis is long and the column axis is
    the hash count; every probe verdict funnels through this shape.
    """
    result = matrix[:, 0].copy()
    for column in range(1, matrix.shape[1]):
        result &= matrix[:, column]
    return result


def row_and(matrix: "np.ndarray") -> "np.ndarray":
    """``np.bitwise_and.reduce(matrix, axis=1)``, column-unrolled."""
    result = matrix[:, 0].copy()
    for column in range(1, matrix.shape[1]):
        result &= matrix[:, column]
    return result


def row_any(matrix: "np.ndarray") -> "np.ndarray":
    """``matrix.any(axis=1)`` unrolled over the (small) column axis."""
    result = matrix[:, 0].copy()
    for column in range(1, matrix.shape[1]):
        result |= matrix[:, column]
    return result


def or_constant_bit(words: "np.ndarray", idx: "np.ndarray", bit: "np.uint64") -> None:
    """``words[i] |= bit`` for every ``i`` in ``idx`` (duplicates fine).

    Safe without ``np.bitwise_or.at``: duplicate indices gather the same
    pre-value, OR in the same bit, and write back identical words — any
    assignment order produces the same array.
    """
    if idx.ndim != 1:
        idx = idx.ravel()
    words[idx] |= bit


def or_lane_slots(
    words: "np.ndarray",
    slot_idx: "np.ndarray",
    slots_per_word: int,
    num_lanes: int,
    lane: int,
    slot_word: "np.ndarray | None" = None,
    slot_shift: "np.ndarray | None" = None,
) -> None:
    """Set ``lane``'s bit at every *slot* index, dense multi-slot layout.

    Slots sharing a word need different bits, so a single fancy
    assignment could drop writes on duplicate words.  Two exact
    strategies, picked by batch density:

    * **dense accumulator** — OR the per-slot bits into a zeroed word
      image with ``np.bitwise_or.at`` (duplicate semantics defined),
      then fold it into ``words`` with one vector OR.  Two extra
      passes over the word array, so only worth it when the batch is
      a decent fraction of it.
    * **offset classes** — partition by ``slot % slots_per_word`` so
      the bit is constant within each class, where gather-OR-assign is
      exact; classes touch disjoint bits, so their order is irrelevant.

    ``slot_word``/``slot_shift`` are the matrix's precomputed gather
    tables (slot -> word index / bit shift); pass them to skip the
    divmod.
    """
    flat = slot_idx.ravel()
    if slot_word is not None:
        word_idx = slot_word[flat]
        shifts = slot_shift[flat]
    else:
        word_idx, slot_in_word = np.divmod(flat, slots_per_word)
        shifts = (slot_in_word * num_lanes).astype(np.uint64)
    if flat.size * 64 >= words.shape[0]:
        bits = np.uint64(1 << lane) << shifts
        image = np.zeros(words.shape[0], dtype=np.uint64)
        np.bitwise_or.at(image, word_idx, bits)
        words |= image
        return
    for offset in range(slots_per_word):
        sel = word_idx[shifts == np.uint64(offset * num_lanes)]
        if sel.size:
            words[sel] |= np.uint64(1 << (offset * num_lanes + lane))


def clean_cursor_sweep(
    entries: "np.ndarray",
    cursor: int,
    budget: int,
    now: int,
    period: int,
    active_span: int,
    empty: int,
) -> Tuple[int, int]:
    """One vectorized TBF cursor-cleaning sweep of ``budget`` entries.

    Visits ``entries[cursor], entries[cursor+1], ... (mod m)`` —
    ``budget <= m`` so no entry twice — erasing values whose age at
    ``now`` is ``>= active_span``.  Returns ``(new_cursor, writes)``;
    reads are exactly ``budget``.  The wraparound splits into at most
    two contiguous slices, so the erase is a view-masked store with no
    index arrays at all.
    """
    m = entries.shape[0]
    writes = 0
    remaining = budget
    while remaining > 0:
        length = min(remaining, m - cursor)
        seg = entries[cursor : cursor + length]
        ages = wrapped_ages(now, seg.astype(np.int64), period)
        stale = (seg != entries.dtype.type(empty)) & (ages >= active_span)
        count = int(np.count_nonzero(stale))
        if count:
            seg[stale] = entries.dtype.type(empty)
            writes += count
        cursor = (cursor + length) % m
        remaining -= length
    return cursor, writes


# ----------------------------------------------------------------------
# Lane-clearing kernels (dense lane-packed layout)
# ----------------------------------------------------------------------


def lane_pattern(slots_per_word: int, num_lanes: int, lane: int) -> "np.uint64":
    """``lane``'s bit replicated at every slot offset within a word."""
    pattern = 0
    for slot_in_word in range(slots_per_word):
        pattern |= 1 << (slot_in_word * num_lanes + lane)
    return np.uint64(pattern)


def partial_lane_masks(
    slots_per_word: int, num_lanes: int, lane: int
) -> Tuple["np.ndarray", "np.ndarray"]:
    """Per-split-point masks of a word's lane bits.

    ``low[r]`` covers slots-in-word ``< r`` and ``high[r]`` slots
    ``>= r`` (``r`` in ``[0, slots_per_word]``), so a cleaning-call
    boundary landing ``r`` slots into a word splits the word's lane
    pattern into ``low[r] | high[r]``.
    """
    spw = slots_per_word
    low = np.zeros(spw + 1, dtype=np.uint64)
    for r in range(1, spw + 1):
        low[r] = low[r - 1] | np.uint64(1 << ((r - 1) * num_lanes + lane))
    high = low[spw] ^ low
    return low, high


def clear_lane_span(
    words: "np.ndarray",
    lane: int,
    start_slot: int,
    stop_slot: int,
    slots_per_word: int,
    num_lanes: int,
) -> Tuple[int, int]:
    """Zero ``lane`` over slots ``[start_slot, stop_slot)``; one call.

    Returns ``(reads, writes)`` exactly as the scalar word loop counts
    them: one read per word the span intersects, one write per word
    with a set lane bit among the span's slots.
    """
    if start_slot >= stop_slot:
        return 0, 0
    spw = slots_per_word
    pattern = lane_pattern(spw, num_lanes, lane)
    w0 = start_slot // spw
    w1 = (stop_slot - 1) // spw
    reads = w1 - w0 + 1
    if w0 == w1:
        mask = 0
        for slot in range(start_slot, stop_slot):
            mask |= 1 << ((slot % spw) * num_lanes + lane)
        mask = np.uint64(mask)
        writes = 1 if int(words[w0] & mask) else 0
        words[w0] &= ~mask
        return reads, writes
    low, high = partial_lane_masks(spw, num_lanes, lane)
    first_mask = high[start_slot % spw] if start_slot % spw else pattern
    last_mask = low[stop_slot % spw] if stop_slot % spw else pattern
    writes = int(bool(words[w0] & first_mask)) + int(bool(words[w1] & last_mask))
    if w1 - w0 > 1:
        interior = words[w0 + 1 : w1]
        writes += int(np.count_nonzero(interior & pattern))
        interior &= ~pattern
    words[w0] &= ~first_mask
    words[w1] &= ~last_mask
    return reads, writes


def clear_lane_runs(
    words: "np.ndarray",
    lane: int,
    boundaries: "np.ndarray",
    slots_per_word: int,
    num_lanes: int,
) -> Tuple[int, int]:
    """Replay consecutive variable-length ``clear_lane_range`` calls.

    ``boundaries`` is a strictly increasing int64 array ``[b_0, ...,
    b_J]``; call ``j`` covers slots ``[b_j, b_{j+1})``.  Bit mutations
    and tallies match the scalar calls exactly: each (call, word)
    intersection is one read, and one write wherever the lane holds a
    set bit among the intersection's slots — decided on pre-sweep
    values, which is sound because the calls are disjoint in slot
    space and only this lane's bits change.

    Returns ``(reads, writes)``.
    """
    if boundaries.shape[0] < 2:
        return 0, 0
    spw = slots_per_word
    starts = boundaries[:-1]
    ends = boundaries[1:]
    reads = int(((ends - 1) // spw - starts // spw + 1).sum())

    pattern = lane_pattern(spw, num_lanes, lane)
    low, high = partial_lane_masks(spw, num_lanes, lane)
    lo = int(boundaries[0])
    hi = int(boundaries[-1])
    w0 = lo // spw
    w1 = (hi - 1) // spw
    hits = words[w0 : w1 + 1] & pattern
    # Restrict the edge words to the span: slots outside [lo, hi)
    # belong to no call, so their bits must not count as writes.
    first_mask = high[lo % spw] if lo % spw else pattern
    last_mask = low[hi % spw] if hi % spw else pattern
    if w0 == w1:
        hits[0] &= np.uint64(first_mask & last_mask)
    else:
        hits[0] &= first_mask
        hits[-1] &= last_mask

    # A word crossed by no mid-word call boundary lies entirely within
    # one call and contributes one write iff it holds any lane bit; a
    # mid-word boundary at offset r splits its word's contribution into
    # the below-r and at-least-r halves.  Runs of >= spw slots admit at
    # most one boundary per word, so those corrections vectorize; only
    # sub-word runs need slot-level expansion.
    inner = boundaries[1:-1]
    split = inner[inner % spw != 0]
    if split.size and int(np.min(ends - starts)) < spw:
        writes = _count_split_writes(hits, boundaries, w0, spw, num_lanes, lane)
    else:
        writes = int(np.count_nonzero(hits))
        if split.size:
            rel = (split // spw - w0).astype(np.int64)
            r = (split % spw).astype(np.int64)
            word_vals = hits[rel]
            writes += int(
                ((word_vals & low[r]) != 0).sum()
                + ((word_vals & high[r]) != 0).sum()
                - np.count_nonzero(word_vals)
            )

    # Mutate: the union of all calls is one contiguous span.
    if w0 == w1:
        words[w0] &= ~np.uint64(first_mask & last_mask)
    else:
        if w1 - w0 > 1:
            words[w0 + 1 : w1] &= ~pattern
        words[w0] &= ~first_mask
        words[w1] &= ~last_mask
    return reads, writes


def _count_split_writes(
    hits: "np.ndarray",
    boundaries: "np.ndarray",
    w0: int,
    spw: int,
    num_lanes: int,
    lane: int,
) -> int:
    """Slot-exact write count for runs shorter than a word.

    Expands only the words holding set lane bits into slot positions
    (``hits`` is already masked to the span), assigns each slot to its
    covering call, and counts distinct (call, word) pairs — the
    expansion order keeps the pair key monotone, so a boundary count
    suffices.
    """
    nz = np.nonzero(hits)[0]
    if nz.size == 0:
        return 0
    shifts = (np.arange(spw, dtype=np.uint64) * np.uint64(num_lanes)) + np.uint64(lane)
    bitmat = (hits[nz, None] >> shifts) & np.uint64(1)
    rel_word, slot_in_word = np.nonzero(bitmat)
    slots = (w0 + nz[rel_word]) * spw + slot_in_word
    call = np.searchsorted(boundaries, slots, side="right") - 1
    key = call * (hits.shape[0] + 1) + (slots // spw - w0)
    return int(np.count_nonzero(np.diff(key))) + 1

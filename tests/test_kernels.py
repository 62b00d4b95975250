"""Fuzz the fused numpy kernels against their scalar references.

Every kernel in :mod:`repro.core.kernels` replaces a Python loop on a
detector hot path under a bit-identity contract: mutated arrays must be
byte-for-byte what the loop would have produced, and returned tallies
must match the loop's operation accounting.  These tests state the
reference loop next to each kernel and drive both with hypothesis.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro.core import kernels
from repro.core.lanes import LanePackedBitMatrix

SETTINGS = settings(max_examples=50, deadline=None)


# ----------------------------------------------------------------------
# Row reductions and shape helpers
# ----------------------------------------------------------------------

matrices = st.integers(min_value=1, max_value=40).flatmap(
    lambda n: st.integers(min_value=1, max_value=8).flatmap(
        lambda k: st.lists(
            st.lists(st.booleans(), min_size=k, max_size=k),
            min_size=n,
            max_size=n,
        )
    )
)


@SETTINGS
@given(rows=matrices)
def test_row_reductions_match_numpy(rows):
    matrix = np.array(rows, dtype=bool)
    assert np.array_equal(kernels.row_all(matrix), matrix.all(axis=1))
    assert np.array_equal(kernels.row_any(matrix), matrix.any(axis=1))
    ints = matrix.astype(np.uint64) + 6
    assert np.array_equal(
        kernels.row_and(ints), np.bitwise_and.reduce(ints, axis=1)
    )


@SETTINGS
@given(
    n=st.integers(min_value=0, max_value=50),
    reps=st.integers(min_value=1, max_value=9),
)
def test_repeat_arange_matches_numpy(n, reps):
    pattern = kernels.repeat_arange(n, reps)
    assert np.array_equal(pattern, np.repeat(np.arange(n, dtype=np.int64), reps))
    assert not pattern.flags.writeable
    # Cached: the same shape must come back as the same object.
    assert kernels.repeat_arange(n, reps) is pattern


@SETTINGS
@given(
    period=st.integers(min_value=2, max_value=1000),
    now=st.integers(min_value=0, max_value=999),
    values=st.lists(st.integers(min_value=0, max_value=999), min_size=1, max_size=60),
)
def test_wrapped_ages_matches_modulo(period, now, values):
    now = now % period
    array = np.array([v % period for v in values], dtype=np.int64)
    expected = (np.int64(now) - array) % period
    assert np.array_equal(kernels.wrapped_ages(now, array, period), expected)


@SETTINGS
@given(
    dtype=st.sampled_from([np.uint8, np.uint16, np.uint32]),
    span_gap=st.integers(min_value=1, max_value=40).flatmap(
        lambda span: st.tuples(
            st.just(span), st.integers(min_value=1, max_value=20)
        )
    ),
    # Clock positions cluster at both edges of the wrap: ``now - span``
    # just below 0, exactly 0, and just above.
    offset=st.integers(min_value=-3, max_value=3),
    data=st.data(),
)
def test_window_counts_match_modulo_near_the_wrap(dtype, span_gap, offset, data):
    span, gap = span_gap
    period = span + gap
    bits = max(1, (period).bit_length())
    empty = (1 << bits) - 1  # the all-ones sentinel the TBFs reserve
    if empty > np.iinfo(dtype).max:
        dtype = np.uint32
    now = (span + offset) % period
    values = data.draw(
        st.lists(
            st.one_of(st.integers(0, period - 1), st.just(empty)),
            max_size=80,
        )
    )
    entries = np.array(values, dtype=dtype)
    wide = entries.astype(np.int64)
    occupied = wide != empty
    in_window = (now - wide) % period < span
    expected = (int((occupied & in_window).sum()), int(occupied.sum()))
    assert kernels.window_counts(entries, now, span, period, empty) == expected


# ----------------------------------------------------------------------
# Lane OR scatter
# ----------------------------------------------------------------------


def _reference_or(num_slots, num_lanes, slots, lane, word_bits=64):
    """Set the lane bit slot by slot via the scalar matrix API."""
    matrix = LanePackedBitMatrix(num_slots, num_lanes, word_bits=word_bits)
    for slot in slots:
        matrix.set_lane([int(slot)], lane)
    return matrix._words


@SETTINGS
@given(
    num_slots=st.integers(min_value=1, max_value=200),
    num_lanes=st.integers(min_value=1, max_value=9),
    lane=st.integers(min_value=0, max_value=8),
    slots=st.lists(st.integers(min_value=0, max_value=10_000), min_size=0, max_size=80),
    use_tables=st.booleans(),
)
def test_or_lane_slots_matches_scalar(num_slots, num_lanes, lane, slots, use_tables):
    lane = lane % num_lanes
    slot_idx = np.array([s % num_slots for s in slots], dtype=np.int64)
    matrix = LanePackedBitMatrix(num_slots, num_lanes)
    tables = matrix._probe_tables() if use_tables else (None, None)
    kernels.or_lane_slots(
        matrix._words,
        slot_idx,
        matrix.slots_per_word,
        num_lanes,
        lane,
        slot_word=tables[0],
        slot_shift=tables[1],
    )
    expected = _reference_or(num_slots, num_lanes, slot_idx, lane)
    assert np.array_equal(matrix._words, expected)


def test_or_lane_slots_dense_and_sparse_strategies_agree():
    # A batch large enough to take the dense-accumulator branch and its
    # word-identical sparse replay (batch sliced below the threshold).
    rng = np.random.default_rng(3)
    num_slots, num_lanes, lane = 64, 4, 2
    slot_idx = rng.integers(0, num_slots, 4096, dtype=np.int64)
    dense = LanePackedBitMatrix(num_slots, num_lanes)
    kernels.or_lane_slots(dense._words, slot_idx, dense.slots_per_word, num_lanes, lane)
    sparse = LanePackedBitMatrix(num_slots, num_lanes)
    for start in range(0, slot_idx.size, 3):  # tiny slices -> class loop
        kernels.or_lane_slots(
            sparse._words,
            slot_idx[start : start + 3],
            sparse.slots_per_word,
            num_lanes,
            lane,
        )
    assert np.array_equal(dense._words, sparse._words)


# ----------------------------------------------------------------------
# TBF cursor cleaning
# ----------------------------------------------------------------------


@SETTINGS
@given(
    m=st.integers(min_value=1, max_value=80),
    cursor=st.integers(min_value=0, max_value=79),
    budget=st.integers(min_value=0, max_value=80),
    period=st.integers(min_value=4, max_value=64),
    span=st.integers(min_value=1, max_value=64),
    now=st.integers(min_value=0, max_value=63),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_clean_cursor_sweep_matches_scalar(m, cursor, budget, period, span, now, seed):
    cursor = cursor % m
    budget = min(budget, m)
    span = min(span, period - 1)
    now = now % period
    empty = period  # sentinel outside [0, period)
    rng = np.random.default_rng(seed)
    entries = rng.integers(0, period + 1, m).astype(np.int64)  # includes empties

    expected = entries.copy()
    exp_cursor = cursor
    exp_writes = 0
    for _ in range(budget):
        value = int(expected[exp_cursor])
        if value != empty and (now - value) % period >= span:
            expected[exp_cursor] = empty
            exp_writes += 1
        exp_cursor = (exp_cursor + 1) % m

    got = entries.copy()
    new_cursor, writes = kernels.clean_cursor_sweep(
        got, cursor, budget, now, period, span, empty
    )
    assert np.array_equal(got, expected)
    assert new_cursor == exp_cursor
    assert writes == exp_writes


# ----------------------------------------------------------------------
# Fused lane-clearing sweeps
# ----------------------------------------------------------------------


def _random_matrix(num_slots, num_lanes, seed, word_bits=64):
    rng = np.random.default_rng(seed)
    matrix = LanePackedBitMatrix(num_slots, num_lanes, word_bits=word_bits)
    matrix._words[:] = rng.integers(
        0, 2**63, matrix._words.shape[0], dtype=np.uint64
    )
    # Mask off bits beyond the last real slot so scalar and fused paths
    # start from an identical, representable state.
    for slot in range(num_slots, matrix.num_words * matrix.slots_per_word):
        word, shift = matrix._field_position(slot)
        matrix._words[word] &= ~np.uint64(matrix.field_mask << shift)
    return matrix


@SETTINGS
@given(
    num_slots=st.integers(min_value=1, max_value=150),
    num_lanes=st.sampled_from([1, 2, 3, 4, 6, 8]),
    lane=st.integers(min_value=0, max_value=7),
    start=st.integers(min_value=0, max_value=149),
    per_element=st.integers(min_value=1, max_value=40),
    count=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_clear_lane_segments_matches_scalar_calls(
    num_slots, num_lanes, lane, start, per_element, count, seed
):
    lane = lane % num_lanes
    start = start % num_slots
    fused = _random_matrix(num_slots, num_lanes, seed)
    scalar = _random_matrix(num_slots, num_lanes, seed)
    fused.clear_lane_segments(lane, start, per_element, count)
    for i in range(count):
        scalar.clear_lane_range(lane, start + i * per_element, per_element)
    assert np.array_equal(fused._words, scalar._words)
    assert fused.counter == scalar.counter


@SETTINGS
@given(
    num_slots=st.integers(min_value=1, max_value=150),
    num_lanes=st.sampled_from([1, 2, 3, 4, 6, 8]),
    lane=st.integers(min_value=0, max_value=7),
    start=st.integers(min_value=0, max_value=149),
    lengths=st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=10),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_clear_lane_run_lengths_matches_scalar_calls(
    num_slots, num_lanes, lane, start, lengths, seed
):
    lane = lane % num_lanes
    start = start % num_slots
    fused = _random_matrix(num_slots, num_lanes, seed)
    scalar = _random_matrix(num_slots, num_lanes, seed)
    fused.clear_lane_run_lengths(lane, start, np.array(lengths, dtype=np.int64))
    cursor = start
    for length in lengths:
        if length > 0 and cursor < num_slots:
            scalar.clear_lane_range(lane, cursor, length)
        cursor = min(cursor + max(length, 0), num_slots)
    assert np.array_equal(fused._words, scalar._words)
    assert fused.counter == scalar.counter

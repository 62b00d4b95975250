"""Property tests: batch verdicts and state are bit-identical to scalar.

The non-negotiable invariant of the vectorized path: for ANY stream and
ANY chunking, ``process_batch`` / ``process_batch_at`` must produce the
same verdicts as a scalar loop AND leave the detector in the same state
(checkpoint bytes and operation counters equal).  Streams are drawn
from a small identifier universe so duplicates are dense, straddle
chunk boundaries, and interleave with window jumps; chunk sizes span 1
(degenerate) through larger than the window.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro.core import (
    GBFDetector,
    TBFDetector,
    TBFJumpingDetector,
    TimeBasedGBFDetector,
    TimeBasedTBFDetector,
    save_detector,
)
from repro.adaptive import AgePartitionedBFDetector, TimeLimitedBFDetector
from repro.core.batch import DENSE_ENTRIES, DENSE_SHARE
from repro.detection import ShardedDetector

SETTINGS = settings(max_examples=25, deadline=None)

identifiers = st.lists(
    st.integers(min_value=0, max_value=40), min_size=1, max_size=300
)
# Chunk-size sequence: cycled to slice the stream; includes 1 and
# values larger than every window used below.
chunkings = st.lists(st.integers(min_value=1, max_value=80), min_size=1, max_size=6)
gaps = st.lists(
    st.floats(min_value=0.0, max_value=6.0, allow_nan=False), min_size=1, max_size=300
)


def _slices(n, chunking):
    start = 0
    i = 0
    while start < n:
        stop = min(start + chunking[i % len(chunking)], n)
        yield start, stop
        start = stop
        i += 1


def _assert_count_equivalence(build, ids, chunking):
    scalar = build()
    batch = build()
    array = np.array(ids, dtype=np.uint64)
    expected = np.array([scalar.process(int(x)) for x in ids], dtype=bool)
    got = np.empty(len(ids), dtype=bool)
    for start, stop in _slices(len(ids), chunking):
        got[start:stop] = batch.process_batch(array[start:stop])
    assert np.array_equal(expected, got)
    assert save_detector(scalar) == save_detector(batch)
    assert scalar.counter == batch.counter


def _assert_time_equivalence(build, ids, gaps, chunking):
    scalar = build()
    batch = build()
    n = min(len(ids), len(gaps))
    array = np.array(ids[:n], dtype=np.uint64)
    stamps = np.cumsum(np.array(gaps[:n], dtype=np.float64))
    expected = np.array(
        [scalar.process_at(int(x), float(t)) for x, t in zip(array, stamps)],
        dtype=bool,
    )
    got = np.empty(n, dtype=bool)
    for start, stop in _slices(n, chunking):
        got[start:stop] = batch.process_batch_at(
            array[start:stop], stamps[start:stop]
        )
    assert np.array_equal(expected, got)
    assert save_detector(scalar) == save_detector(batch)
    assert scalar.counter == batch.counter


class TestCountBasedEquivalence:
    @SETTINGS
    @given(ids=identifiers, chunking=chunkings)
    def test_gbf(self, ids, chunking):
        _assert_count_equivalence(
            lambda: GBFDetector(32, 4, 97, 3, seed=5), ids, chunking
        )

    @SETTINGS
    @given(ids=identifiers, chunking=chunkings)
    def test_gbf_odd_geometry(self, ids, chunking):
        # Slot count not divisible by slots-per-word; rotation mid-chunk.
        _assert_count_equivalence(
            lambda: GBFDetector(48, 6, 61, 4, seed=2), ids, chunking
        )

    @SETTINGS
    @given(ids=identifiers, chunking=chunkings)
    def test_gbf_wide_layout(self, ids, chunking):
        # Q + 1 > word bits: the scalar-fallback regime.
        _assert_count_equivalence(
            lambda: GBFDetector(140, 70, 97, 3, word_bits=8, seed=5), ids, chunking
        )

    @SETTINGS
    @given(ids=identifiers, chunking=chunkings)
    def test_tbf(self, ids, chunking):
        _assert_count_equivalence(
            lambda: TBFDetector(24, 53, 3, seed=5), ids, chunking
        )

    @SETTINGS
    @given(ids=identifiers, chunking=chunkings)
    def test_tbf_tight_slack(self, ids, chunking):
        # Small C: cleaning sweeps several entries per arrival and the
        # cursor wraps mid-chunk.
        _assert_count_equivalence(
            lambda: TBFDetector(32, 40, 4, cleanup_slack=5, seed=3), ids, chunking
        )

    @SETTINGS
    @given(ids=identifiers, chunking=chunkings)
    def test_tbf_jumping(self, ids, chunking):
        _assert_count_equivalence(
            lambda: TBFJumpingDetector(24, 4, 61, 3, seed=5), ids, chunking
        )

    @SETTINGS
    @given(ids=identifiers, chunking=chunkings)
    def test_apbf(self, ids, chunking):
        # Tiny generations: shifts land mid-chunk; odd slice width so
        # the bit/word layout is unaligned.
        _assert_count_equivalence(
            lambda: AgePartitionedBFDetector(4, 6, 61, 5, seed=5),
            ids,
            chunking,
        )

    @SETTINGS
    @given(ids=identifiers, chunking=chunkings)
    def test_apbf_long_generations(self, ids, chunking):
        # g = 40: runs of up to 40 rows, against g = 5 above.
        _assert_count_equivalence(
            lambda: AgePartitionedBFDetector(4, 6, 61, 40, seed=5),
            ids,
            chunking,
        )

    @SETTINGS
    @given(ids=identifiers, chunking=chunkings)
    def test_apbf_single_insert_generations(self, ids, chunking):
        # g = 1: every insert shifts — the degenerate boundary regime.
        _assert_count_equivalence(
            lambda: AgePartitionedBFDetector(3, 5, 37, 1, seed=2),
            ids,
            chunking,
        )


class TestTimeBasedEquivalence:
    @SETTINGS
    @given(ids=identifiers, gaps=gaps, chunking=chunkings)
    def test_time_gbf(self, ids, gaps, chunking):
        _assert_time_equivalence(
            lambda: TimeBasedGBFDetector(16.0, 4, 97, 3, seed=5),
            ids,
            gaps,
            chunking,
        )

    @SETTINGS
    @given(ids=identifiers, gaps=gaps, chunking=chunkings)
    def test_time_tbf(self, ids, gaps, chunking):
        _assert_time_equivalence(
            lambda: TimeBasedTBFDetector(16.0, 8, 53, 3, seed=5),
            ids,
            gaps,
            chunking,
        )

    @SETTINGS
    @given(ids=identifiers, gaps=gaps, chunking=chunkings)
    def test_time_limited_bf(self, ids, gaps, chunking):
        # Unit length 16/6 s against gaps up to 6 s: multi-unit shifts
        # and full-expiry jumps both occur inside chunks.
        _assert_time_equivalence(
            lambda: TimeLimitedBFDetector(16.0, 4, 6, 61, seed=5),
            ids,
            gaps,
            chunking,
        )


# Tables just above the dense floor; cleaning slack so wide that each
# arrival sweeps one entry, which keeps the scalar twins fast.
SPARSE_ENTRIES = DENSE_ENTRIES + 3
SPARSE_SLICE = DENSE_ENTRIES // 4 + 1


class TestSparseWriterTables:
    """Filters large enough that every chunk takes the sparse side of
    :class:`repro.core.batch.WriterTable` (the builders above, with
    m = 53-97, all take the dense one)."""

    BUILDERS = {
        "tbf": (
            lambda: TBFDetector(
                24, SPARSE_ENTRIES, 3, cleanup_slack=SPARSE_ENTRIES, seed=5
            ),
            SPARSE_ENTRIES,
        ),
        "tbf-jumping": (
            lambda: TBFJumpingDetector(
                24, 4, SPARSE_ENTRIES, 3, cleanup_slack=1 << 16, seed=5
            ),
            SPARSE_ENTRIES,
        ),
        # Runs are capped at one generation (g = 40 rows).
        "apbf": (
            lambda: AgePartitionedBFDetector(4, 6, SPARSE_SLICE, 40, seed=5),
            4 * SPARSE_SLICE,
        ),
        "tbf-time": (
            lambda: TimeBasedTBFDetector(
                16.0, 8, SPARSE_ENTRIES, 3, cleanup_slack=SPARSE_ENTRIES, seed=5
            ),
            SPARSE_ENTRIES,
        ),
        "time-limited-bf": (
            lambda: TimeLimitedBFDetector(16.0, 4, 6, SPARSE_SLICE, seed=5),
            4 * SPARSE_SLICE,
        ),
    }

    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_every_chunk_is_sparse(self, name):
        build, table_size = self.BUILDERS[name]
        detector = build()
        k = getattr(detector, "num_required", detector.family.num_hashes)
        assert table_size > DENSE_ENTRIES
        assert 80 * k < DENSE_SHARE * table_size

    @SETTINGS
    @given(ids=identifiers, chunking=chunkings)
    def test_tbf(self, ids, chunking):
        _assert_count_equivalence(self.BUILDERS["tbf"][0], ids, chunking)

    @SETTINGS
    @given(ids=identifiers, chunking=chunkings)
    def test_tbf_jumping(self, ids, chunking):
        _assert_count_equivalence(self.BUILDERS["tbf-jumping"][0], ids, chunking)

    @SETTINGS
    @given(ids=identifiers, chunking=chunkings)
    def test_apbf(self, ids, chunking):
        _assert_count_equivalence(self.BUILDERS["apbf"][0], ids, chunking)

    @SETTINGS
    @given(ids=identifiers, gaps=gaps, chunking=chunkings)
    def test_time_tbf(self, ids, gaps, chunking):
        _assert_time_equivalence(self.BUILDERS["tbf-time"][0], ids, gaps, chunking)

    @SETTINGS
    @given(ids=identifiers, gaps=gaps, chunking=chunkings)
    def test_time_limited_bf(self, ids, gaps, chunking):
        _assert_time_equivalence(
            self.BUILDERS["time-limited-bf"][0], ids, gaps, chunking
        )


COUNT_BUILDERS = {
    "gbf": lambda: GBFDetector(32, 4, 97, 3, seed=5),
    "tbf": lambda: TBFDetector(24, 53, 3, seed=5),
    "tbf-jumping": lambda: TBFJumpingDetector(24, 4, 61, 3, seed=5),
    "apbf": lambda: AgePartitionedBFDetector(4, 6, 61, 5, seed=5),
}
TIME_BUILDERS = {
    "gbf-time": lambda: TimeBasedGBFDetector(16.0, 4, 97, 3, seed=5),
    "tbf-time": lambda: TimeBasedTBFDetector(16.0, 8, 53, 3, seed=5),
    "time-limited-bf": lambda: TimeLimitedBFDetector(16.0, 4, 6, 61, seed=5),
}


def _counter_state(counter):
    return (
        counter.word_reads,
        counter.word_writes,
        counter.hash_evaluations,
        counter.elements,
    )


class TestBatchEdgeCases:
    """Deterministic corners the fuzz above reaches only by luck."""

    @pytest.mark.parametrize("name", sorted(COUNT_BUILDERS))
    def test_empty_batch_is_a_noop(self, name):
        detector = COUNT_BUILDERS[name]()
        detector.process_batch(np.arange(8, dtype=np.uint64))
        before = save_detector(detector)
        counter_before = _counter_state(detector.counter)
        verdicts = detector.process_batch(np.empty(0, dtype=np.uint64))
        assert verdicts.shape == (0,)
        assert save_detector(detector) == before
        assert _counter_state(detector.counter) == counter_before

    @pytest.mark.parametrize("name", sorted(TIME_BUILDERS))
    def test_empty_timed_batch_is_a_noop(self, name):
        detector = TIME_BUILDERS[name]()
        detector.process_batch_at(
            np.arange(8, dtype=np.uint64), np.arange(8, dtype=np.float64)
        )
        before = save_detector(detector)
        counter_before = _counter_state(detector.counter)
        verdicts = detector.process_batch_at(
            np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.float64)
        )
        assert verdicts.shape == (0,)
        assert save_detector(detector) == before
        assert _counter_state(detector.counter) == counter_before

    @pytest.mark.parametrize("name", sorted(TIME_BUILDERS))
    def test_single_element_segments(self, name):
        # Arrivals so far apart every fused segment holds one element:
        # the segment machinery degenerates to the scalar cadence.
        ids = np.arange(40, dtype=np.uint64) % 7
        stamps = np.cumsum(np.full(40, 100.0))
        _assert_time_equivalence(
            TIME_BUILDERS[name], list(ids), list(np.diff(stamps, prepend=0.0)), [40]
        )

    @pytest.mark.parametrize("name", sorted(TIME_BUILDERS))
    def test_timestamps_exactly_on_unit_boundaries(self, name):
        # Every arrival lands exactly on a sub-window / cleaning-unit
        # boundary (integral multiples of the unit duration), the case
        # where an off-by-one in segment extent or budget accounting
        # would first show: boundary elements must open the *next*
        # segment, never extend the previous one.
        detector = TIME_BUILDERS[name]()
        unit = detector.unit_duration
        ids = np.arange(60, dtype=np.uint64) % 9
        units = np.repeat(np.arange(20, dtype=np.float64), 3)
        stamps = units * unit
        gaps = list(np.diff(stamps, prepend=0.0))
        for chunking in ([60], [1], [7]):
            _assert_time_equivalence(TIME_BUILDERS[name], list(ids), gaps, chunking)

    @pytest.mark.parametrize("name", sorted(COUNT_BUILDERS))
    def test_duplicate_ids_within_one_chunk_first_writer_wins(self, name):
        # The same identifier many times inside one batch: the first
        # occurrence inserts (first-writer semantics in the scatter
        # resolution), every later one is a duplicate — matching the
        # scalar loop and leaving identical state.
        ids = [3, 3, 3, 5, 3, 5, 9, 5, 3]
        _assert_count_equivalence(COUNT_BUILDERS[name], ids, [len(ids)])
        detector = COUNT_BUILDERS[name]()
        verdicts = detector.process_batch(np.array(ids, dtype=np.uint64))
        assert not verdicts[0] and not verdicts[3] and not verdicts[6]
        assert bool(verdicts[1]) and bool(verdicts[2]) and bool(verdicts[4])

    @pytest.mark.parametrize("name", sorted(TIME_BUILDERS))
    def test_duplicate_ids_within_one_segment(self, name):
        # Same, but all inside one fused time segment (identical
        # timestamps keep every element in the first segment).
        ids = [3, 3, 5, 3, 5, 9]
        gaps = [0.0] * len(ids)
        _assert_time_equivalence(TIME_BUILDERS[name], ids, gaps, [len(ids)])
        detector = TIME_BUILDERS[name]()
        verdicts = detector.process_batch_at(
            np.array(ids, dtype=np.uint64), np.zeros(len(ids), dtype=np.float64)
        )
        assert not verdicts[0] and not verdicts[2] and not verdicts[5]
        assert bool(verdicts[1]) and bool(verdicts[3]) and bool(verdicts[4])


class TestShardedEquivalence:
    @SETTINGS
    @given(ids=identifiers, chunking=chunkings)
    def test_sharded_tbf(self, ids, chunking):
        def build():
            return ShardedDetector(
                [TBFDetector(24, 53, 3, seed=shard) for shard in range(3)]
            )

        scalar = build()
        batch = build()
        array = np.array(ids, dtype=np.uint64)
        expected = np.array([scalar.observe(int(x)) for x in ids], dtype=bool)
        got = np.empty(len(ids), dtype=bool)
        for start, stop in _slices(len(ids), chunking):
            got[start:stop] = batch.observe_batch(array[start:stop])
        assert np.array_equal(expected, got)
        assert save_detector(scalar) == save_detector(batch)
        assert scalar.shard_arrivals() == batch.shard_arrivals()

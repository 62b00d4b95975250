"""The batch paths' writer table and resolver against brute force.

:class:`repro.core.batch.WriterTable` keeps either sparse arrays over
the entries a call touches or dense arrays over the whole table,
chosen from the call's size against the table's.  Every test here
runs on both sides — a large table far larger than the call forces the
sparse one, a table smaller than the call the dense one — with entries
drawn from a small pool so that rows collide.
"""

import tracemalloc

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro.core.batch import (
    DENSE_ENTRIES,
    DENSE_SHARE,
    NO_WRITER,
    WriterTable,
    resolve_inserts,
    row_run,
)
from repro.detection import DetectorSpec, WindowSpec, create_detector

SETTINGS = settings(max_examples=60, deadline=None)

SIDES = ("sparse", "dense")


def _table_size(side, n, k):
    """A table size that puts an ``(n, k)`` call on ``side``."""
    if side == "dense":
        return max(1, n * k)
    return max(DENSE_ENTRIES, int(n * k / DENSE_SHARE)) + 1000


@st.composite
def calls(draw):
    """``(side, entries, table_size, writers)`` with colliding entries."""
    side = draw(st.sampled_from(SIDES))
    n = draw(st.integers(min_value=1, max_value=24))
    k = draw(st.integers(min_value=1, max_value=5))
    size = _table_size(side, n, k)
    pool = draw(
        st.lists(
            st.integers(min_value=0, max_value=size - 1),
            min_size=1,
            max_size=max(1, min(size, n * k // 2 + 1)),
            unique=True,
        )
    )
    picks = draw(
        st.lists(
            st.integers(min_value=0, max_value=len(pool) - 1),
            min_size=n * k,
            max_size=n * k,
        )
    )
    entries = np.array(pool, dtype=np.int64)[picks].reshape(n, k)
    writers = np.array(
        draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool
    )
    return side, entries, size, writers


def _reference(entries, writers, size):
    """Per-entry first and last writer, by a loop over every slot."""
    first = np.full(size, NO_WRITER, dtype=np.int64)
    last = np.full(size, -1, dtype=np.int64)
    for row, slots in enumerate(entries.tolist()):
        if not writers[row]:
            continue
        for entry in slots:
            first[entry] = min(first[entry], row)
            last[entry] = max(last[entry], row)
    return first, last


class TestWriterTable:
    @SETTINGS
    @given(call=calls())
    def test_first_and_last_writers(self, call):
        side, entries, size, writers = call
        table = WriterTable(entries, size)
        assert (table.keys is None) == (side == "dense")
        first, last = _reference(entries, writers, size)
        everyone = np.ones(entries.shape[0], dtype=bool)
        all_first, all_last = _reference(entries, everyone, size)
        # Looked up at every slot, per-id answers equal per-entry ones.
        assert np.array_equal(table.first(writers)[table.ids], first[entries])
        assert np.array_equal(table.last(writers)[table.ids], last[entries])
        assert np.array_equal(table.first()[table.ids], all_first[entries])
        assert np.array_equal(table.last()[table.ids], all_last[entries])
        rows = np.arange(entries.shape[0], dtype=np.int64)
        assert np.array_equal(
            table.before(table.first(writers), rows),
            first[entries] < rows[:, None],
        )
        if side == "sparse":
            assert np.array_equal(table.keys, np.unique(entries))
            assert table.size == table.keys.shape[0]

    @SETTINGS
    @given(call=calls(), data=st.data())
    def test_settled_queries(self, call, data):
        side, entries, size, writers = call
        table = WriterTable(entries, size)
        table.settle(writers, table.first(writers))
        first, last = _reference(entries, writers, size)

        written, rows = table.last_writes()
        expected = np.flatnonzero(last >= 0)
        assert np.array_equal(written, expected)
        assert np.array_equal(rows, last[expected])

        # A cursor window of any length, wrapping past the table's end
        # the way the cleaning sweeps split it: [cursor, size), [0, rest).
        n = entries.shape[0]
        touched = sorted(set(entries.ravel().tolist()) | {size - 1})
        cursor = data.draw(
            st.one_of(
                st.integers(min_value=0, max_value=size - 1),
                st.sampled_from(touched).map(lambda e: max(0, e - 8)),
            )
        )
        length = data.draw(st.integers(min_value=1, max_value=min(size, 64)))
        sweep = np.array(
            data.draw(
                st.lists(
                    st.integers(min_value=0, max_value=n),
                    min_size=length,
                    max_size=length,
                )
            ),
            dtype=np.int64,
        )
        head = min(length, size - cursor)
        got = np.concatenate(
            [
                table.written_before(cursor, sweep[:head]),
                table.written_before(0, sweep[head:]),
            ]
        )
        window = (cursor + np.arange(length)) % size
        assert np.array_equal(got, first[window] < sweep)

        # Each touched entry as a one-entry window: rewritten for a row
        # after the call, not for its own first writer.
        for entry in np.unique(entries).tolist():
            after = table.written_before(entry, np.array([n]))
            assert after.tolist() == [bool(first[entry] < n)]
            if first[entry] < n:
                own = table.written_before(entry, first[entry : entry + 1])
                assert own.tolist() == [False]


def _resolve_reference(dup0, cov0, entries, run):
    """The scalar order: each row sees exactly the earlier inserters."""
    n, k = entries.shape
    duplicate = dup0.copy()
    written = set()
    for row in range(n):
        if dup0[row]:
            continue
        hits = list(cov0[row])
        for j in range(k):
            hits[j] = hits[j] or int(entries[row, j]) in written
        count = best = 0
        for hit in hits:
            count = count + 1 if hit else 0
            best = max(best, count)
        if best >= run:
            duplicate[row] = True
        else:
            written.update(int(e) for e in entries[row])
    return duplicate


class TestResolveInserts:
    @SETTINGS
    @given(call=calls(), data=st.data())
    def test_matches_scalar_order(self, call, data):
        side, entries, size, _ = call
        n, k = entries.shape
        extra = data.draw(st.integers(min_value=0, max_value=3))
        width = k + extra
        run = k if not extra else data.draw(st.integers(min_value=1, max_value=k))
        cov0 = np.array(
            data.draw(
                st.lists(
                    st.lists(st.booleans(), min_size=width, max_size=width),
                    min_size=n,
                    max_size=n,
                )
            ),
            dtype=bool,
        )
        dup0 = row_run(cov0, run)
        expected = _resolve_reference(dup0, cov0, entries, run)
        duplicate, inserters, writers, covered = resolve_inserts(
            dup0, cov0, entries, size, run=None if run == width else run
        )
        assert np.array_equal(duplicate, expected)
        assert np.array_equal(inserters, ~expected)
        if inserters.any():
            first, _ = _reference(entries, inserters, size)
            rows = np.arange(n)
            cover = cov0.copy()
            cover[:, :k] |= first[entries] < rows[:, None]
            assert np.array_equal(covered, cover)
            written, _ = writers.last_writes()
            assert np.array_equal(written, np.unique(entries[inserters]))


class TestCallMemory:
    def test_small_tbf_call_allocates_what_it_touches(self):
        # The trickle workload's TBF: one 256-click call used to fill
        # two (m,) int64 tables (16 MiB); the sparse writer table needs
        # a few hundred KiB whatever m is.
        detector = create_detector(
            DetectorSpec(
                algorithm="tbf",
                window=WindowSpec("sliding", 1 << 16),
                target_fp=1e-3,
            )
        )
        assert (detector.num_entries, detector.num_hashes) == (989_364, 10)
        rng = np.random.default_rng(5)
        fill = rng.integers(1, 2**63, 5 << 14, dtype=np.uint64)
        detector.process_batch(fill)
        clicks = rng.integers(1, 2**63, 256, dtype=np.uint64)
        clicks[::10] = fill[-256::10]
        tracemalloc.start()
        try:
            baseline = tracemalloc.get_traced_memory()[0]
            detector.process_batch(clicks)
            peak = tracemalloc.get_traced_memory()[1] - baseline
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

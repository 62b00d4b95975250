"""Shared machinery for the vectorized batch detection paths.

Every detector's ``process_batch`` follows the same plan: probe the
whole chunk against the *pre-chunk* state with array ops, then resolve
the interactions *between* elements of the chunk — an element that
inserts makes its entries look occupied to every later element —
without falling back to full scalar processing.

Writer table
------------
Every question the batch paths ask about those interactions is a
question about *writers*: which element of the chunk first (or last)
writes a given entry, among some set of inserting elements.
:class:`WriterTable` answers them for the entries the chunk touches,
so a call costs what its ``n * k`` entry slots cost, not what the
filter's ``m`` entries cost:

* One ``np.sort`` of ``entry * (n * k) + slot`` keys groups the slots
  by entry.  Each distinct touched entry gets a compact id, in entry
  order, and an inverse map gives the id of every slot (``ids``, the
  ``(n, k)`` stand-in for ``first_writer[idx]`` lookups).
* The first and last writer of each id among any set of writing rows
  is one ``np.minimum.at`` / ``np.maximum.at`` scatter of row numbers
  into an array of one value per id.
* The cleaning sweep's question — was entry ``e`` of the cursor window
  rewritten by an element before the one sweeping it? — is a
  ``searchsorted`` of the window's bounds into the sorted entries.

When the table is small (:data:`DENSE_ENTRIES`) or ``n * k`` is a
large share of it (:data:`DENSE_SHARE`), filling a full table costs
less than the sort: the same class then skips the sort, an entry is
its own id, and the per-id arrays span the whole table.  Both layouts
give identical answers.

Resolution
----------
The resolution problem is ordered: element ``i``'s verdict depends on
which earlier elements inserted, and whether they insert depends on
*their* earlier elements.  :func:`resolve_inserts` handles it exactly:

* An element already duplicate against the pre-chunk state stays a
  duplicate no matter what the chunk does (inserts only add coverage),
  and it never inserts.
* Optimistic pre-pass: assume every non-duplicate inserts and take
  each entry's first writer.  Real writers are a subset of the assumed
  ones, so any element that stays a non-duplicate even under the
  optimistic coverage can never flip — it is a definite inserter,
  decided without any per-element work.
* Only the (typically few) remaining elements are walked in arrival
  order over plain Python ints, checking each still-uncovered entry
  against the definite writers' first writes and a byte-per-id written
  flag.  Even a fully-colliding chunk costs a handful of list/bytearray
  operations per element — far below the scalar path's hashing +
  probing + cleaning.

The same resolver serves the sliced filters of
:mod:`repro.adaptive.filters`, whose verdict is a run of ``k``
covered slices among ``k + l`` rather than all ``k`` slots covered.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from . import kernels

#: First-writer value for entries nobody writes; larger than any row.
NO_WRITER = np.iinfo(np.int64).max

#: Tables of at most this many entries (2 MiB of int64) keep dense
#: writer arrays at every call size: filling one costs less than
#: sorting a call's slots.  Measured on GBF, TBF-family and sliced
#: filters of 18,724-160,900 entries, where dense calls ran 1.0-1.4x
#: as fast as sparse ones; see docs/performance.md, "How it works".
DENSE_ENTRIES = 1 << 18

#: On larger tables, a call whose ``n * k`` entry slots reach this
#: share of the table keeps dense ``(table_size,)`` writer arrays;
#: below it the table covers only the entries the call touches.
#: Measured break-even (``benchmarks/sweep_writer_table.py``):
#: 0.33-0.41 on the TBF (m = 989,364, k = 10) and 0.28-0.37 on the
#: time-limited BF (k * m = 1,329,585).
DENSE_SHARE = 0.3


def row_run(matrix: "np.ndarray", length: int) -> "np.ndarray":
    """Rows holding ``length`` consecutive True columns.

    ``length == matrix.shape[1]`` is :func:`kernels.row_all`; shorter
    runs (the sliced filters' run-of-``k`` verdict) take one running
    column sweep instead of ``S - length + 1`` AND windows.
    """
    n, width = matrix.shape
    if length == width:
        return kernels.row_all(matrix)
    run = np.zeros(n, dtype=np.int32)
    found = np.zeros(n, dtype=bool)
    for column in range(width):
        run += 1
        run *= matrix[:, column]
        if column >= length - 1:
            found |= run >= length
    return found


class WriterTable:
    """First and last writing row of every entry one call touches.

    ``entries`` is the call's ``(n, k)`` int64 matrix of entry ids in
    ``[0, table_size)``: row ``i`` is the call's ``i``-th element and
    column ``j`` an entry it writes if it inserts.  :attr:`ids` maps
    every slot to a compact id in ``[0, size)``; :meth:`first` and
    :meth:`last` take a mask of writing rows and return one value per
    id.  :func:`resolve_inserts` records the call's actual inserters
    (:meth:`settle`), after which :meth:`written_before` and
    :meth:`last_writes` describe them.
    """

    def __init__(self, entries: "np.ndarray", table_size: int) -> None:
        n, k = entries.shape
        slots = n * k
        self.shape = (n, k)
        #: Sorted distinct entries, id order (sparse layout); ``None``
        #: when dense, where an entry is its own id.
        self.keys: Optional["np.ndarray"] = None
        if (
            table_size <= DENSE_ENTRIES
            or slots >= DENSE_SHARE * table_size
            or table_size * slots >= 1 << 62
        ):
            self.ids = entries
            self.size = table_size
        else:
            # Keys are unique (the slot is part of them), so one plain
            # sort orders the slots by entry.
            packed = np.sort(entries.ravel() * slots + np.arange(slots))
            entry = packed // slots
            head = np.empty(slots, dtype=bool)
            head[0] = True
            np.not_equal(entry[1:], entry[:-1], out=head[1:])
            self.keys = entry[head]
            ids = np.empty(slots, dtype=np.int64)
            ids[packed - entry * slots] = np.cumsum(head) - 1
            self.ids = ids.reshape(n, k)
            self.size = int(self.keys.shape[0])
        self._writers: Optional["np.ndarray"] = None
        self._first: Optional["np.ndarray"] = None

    def _scatter(self, ufunc, fill: int, writers) -> "np.ndarray":
        n, k = self.shape
        table = np.full(self.size, fill, dtype=np.int64)
        if writers is None:
            values = kernels.repeat_arange(n, k)
        else:
            # Non-writers scatter ``fill``, which never wins: the same
            # table as a writers-only scatter, with no gather of rows.
            rows = np.arange(n, dtype=np.int64)
            values = np.where(writers, rows, fill).repeat(k)
        ufunc.at(table, self.ids.ravel(), values)
        return table

    def first(self, writers: Optional["np.ndarray"] = None) -> "np.ndarray":
        """Per id, the lowest row among ``writers`` (``(n,)`` bool,
        ``None`` for every row) writing it; :data:`NO_WRITER` if none."""
        return self._scatter(np.minimum, NO_WRITER, writers)

    def last(self, writers: Optional["np.ndarray"] = None) -> "np.ndarray":
        """Per id, the highest row among ``writers`` writing it; -1 if none."""
        return self._scatter(np.maximum, -1, writers)

    def before(self, per_id: "np.ndarray", rows: "np.ndarray") -> "np.ndarray":
        """``(len(rows), k)``: slot's ``per_id`` value is below its row.

        ``rows`` selects rows of the call (ascending); with ``per_id``
        from :meth:`first` this is "an earlier writer wrote this slot".
        """
        ids = self.ids if rows.shape[0] == self.shape[0] else self.ids[rows]
        return per_id[ids] < rows[:, None]

    def settle(self, writers: "np.ndarray", first: "np.ndarray") -> None:
        """Record the call's actual writers and their :meth:`first`."""
        self._writers = writers
        self._first = first

    def written_before(self, start: int, rows: "np.ndarray") -> "np.ndarray":
        """Entries ``start .. start + len(rows) - 1``: first written by
        a settled writer before row ``rows[i]``.

        The cleaning sweeps' survival test: an entry an earlier element
        re-stamped is fresh when a later element's cursor reaches it.
        """
        length = rows.shape[0]
        if self.keys is None:
            return self._first[start : start + length] < rows
        mask = np.zeros(length, dtype=bool)
        lo, hi = np.searchsorted(self.keys, (start, start + length))
        if hi > lo:
            offsets = self.keys[lo:hi] - start
            mask[offsets] = self._first[lo:hi] < rows[offsets]
        return mask

    def last_writes(self) -> Tuple["np.ndarray", "np.ndarray"]:
        """``(entries, rows)``: every entry a settled writer writes, and
        the last such writer (whose stamp the entry ends up holding)."""
        writers = self._writers
        last = self.last(None if writers.all() else writers)
        written = np.flatnonzero(last >= 0)
        entries = written if self.keys is None else self.keys[written]
        return entries, last[written]


def resolve_inserts(
    dup0: "np.ndarray",
    cov0: "np.ndarray",
    idx: "np.ndarray",
    num_entries: int,
    need_covered: bool = True,
    run: Optional[int] = None,
) -> Tuple["np.ndarray", "np.ndarray", WriterTable, Optional["np.ndarray"]]:
    """Resolve intra-chunk insert dependencies exactly.

    Parameters
    ----------
    dup0:
        ``(n,)`` bool — element is a duplicate against the pre-chunk
        state alone.
    cov0:
        ``(n, S)`` bool, ``S >= k`` — slot already covered pre-chunk.
        Column ``j < k`` is the slot ``idx[:, j]`` names, *in the
        dimension inserts write to* (current lane for GBF, active
        timestamp for TBF, young slice for the sliced filters); later
        columns are read-only.  ``dup0`` may be wider than the verdict
        on ``cov0`` (GBF: any active lane suffices), but that verdict
        must imply ``dup0``.
    idx:
        ``(n, k)`` int64 entry ids in ``[0, num_entries)``.
    num_entries:
        Size of the hashed table (slots for GBF, entries for TBF,
        ``k * m`` for the sliced filters).
    run:
        An element is a duplicate when ``run`` consecutive columns of
        its coverage hold; ``None`` means all ``S``.

    Returns ``(duplicate, inserters, writers, covered)``: ``writers``
    is the call's :class:`WriterTable`, settled on the actual
    inserters (unsettled when nobody inserts), and ``covered`` the
    ``(n, S)`` coverage *at probe time* — ``cov0`` plus slots an
    earlier inserter wrote — which the TBF-family detectors feed
    straight to :func:`check_reads`.  On the no-flip hot path it is
    the array the resolution already materialized; callers that never
    read it pass ``need_covered=False`` and get ``None``.
    """
    n = idx.shape[0]
    if run is None:
        run = cov0.shape[1]
    duplicate = dup0.copy()
    inserters = ~dup0
    writers = WriterTable(idx, num_entries)
    num_dup0 = int(np.count_nonzero(dup0))
    if num_dup0 == n:
        return duplicate, inserters, writers, cov0

    rows = np.arange(n, dtype=np.int64)
    # A verdict can flip only if the element is a duplicate even under
    # the *optimistic* writer set (all candidates).
    first = writers.first(None if num_dup0 == 0 else inserters)
    potential = _cover(cov0, writers.before(first, rows))
    maybe = row_run(potential, run)
    maybe &= inserters
    if maybe.any() and _flip(duplicate, inserters, maybe, cov0, writers, run):
        # The optimistic writers overstate the real ones.  Release their
        # arrays before building the real ones, so a call holds one
        # table of each at a time.
        first = potential = None
        first = writers.first(inserters)
    # Otherwise nobody flipped: every candidate inserts, the optimistic
    # writers are the real ones, and ``potential`` is the covered matrix.
    writers.settle(inserters, first)
    if not need_covered:
        return duplicate, inserters, writers, None
    if potential is None:
        potential = _cover(cov0, writers.before(first, rows))
    return duplicate, inserters, writers, potential


def _flip(duplicate, inserters, maybe, cov0, writers, run) -> bool:
    """Flip the ``maybe`` rows that earlier actual inserters make
    duplicates (updating ``duplicate``/``inserters`` in place); True
    when any row flipped."""
    k = writers.shape[1]
    # Definite inserters' writes are real under every resolution; the
    # walk consults their first writes.
    certain = writers.first(inserters & ~maybe)
    walk_rows = np.flatnonzero(maybe)
    covered = _cover(cov0[walk_rows], writers.before(certain, walk_rows))

    # A row already a duplicate on pre-chunk state plus definite
    # writers flips under every resolution, without walking (and,
    # flipping, writes nothing later rows could need).  Only rows
    # leaning on an *uncertain* earlier writer walk.
    flipped = False
    sure = row_run(covered, run)
    if sure.any():
        sure_rows = walk_rows[sure]
        duplicate[sure_rows] = True
        inserters[sure_rows] = False
        flipped = True
        keep = ~sure
        walk_rows = walk_rows[keep]
        covered = covered[keep]

    written = bytearray(writers.size)
    ids_list = writers.ids[walk_rows].tolist()
    covered_list = covered.tolist()
    width = cov0.shape[1]
    for i, row in enumerate(walk_rows.tolist()):
        ids = ids_list[i]
        hits = covered_list[i]
        for j in range(k):
            if not hits[j] and written[ids[j]]:
                hits[j] = True
        if run == width:
            flips = all(hits)
        else:
            flips = False
            count = 0
            for hit in hits:
                count = count + 1 if hit else 0
                if count >= run:
                    flips = True
                    break
        if flips:
            duplicate[row] = True
            inserters[row] = False
            flipped = True
        else:
            for entry in ids:
                written[entry] = 1
    return flipped


def _cover(cov0: "np.ndarray", written: "np.ndarray") -> "np.ndarray":
    """``cov0`` with its first ``k`` columns OR-ed with ``written``."""
    if cov0.shape[1] == written.shape[1]:
        return cov0 | written
    covered = cov0.copy()
    covered[:, : written.shape[1]] |= written
    return covered


def check_reads(active: "np.ndarray") -> int:
    """Total probe reads for a chunk, matching the scalar early-break.

    The scalar check reads slots in hash order until the first inactive
    one: ``k`` reads for a duplicate, ``first_inactive + 1`` otherwise.
    Equivalently, one read per element plus one per all-active row
    prefix shorter than ``k`` — a running column AND, cheaper than the
    axis-1 argmax reduction.  (Duplicate rows are exactly the
    all-active ones, so they fall out of the same sum.)
    """
    n, k = active.shape
    reads = n
    if k > 1:
        prefix = active[:, 0].copy()
        reads += int(np.count_nonzero(prefix))
        for column in range(1, k - 1):
            prefix &= active[:, column]
            reads += int(np.count_nonzero(prefix))
    return reads

"""TBF algorithm — duplicate detection over sliding windows (§4 of the paper).

The construction
----------------
A *Timing Bloom Filter* generalizes the classical Bloom filter by
replacing every bit with an ``O(log N)``-bit entry holding the
**timestamp** (stream position) of the last element hashed there.  The
all-ones value is reserved as the "empty" sentinel.

* **Query.**  An element is a duplicate iff every one of its ``k``
  entries is non-empty *and* holds an active timestamp — one within the
  last ``N`` arrivals.  Stale entries therefore never cause false
  positives: the activity check filters them even before they are
  physically cleaned.
* **Insert.**  A non-duplicate writes the current timestamp into its
  ``k`` entries (overwriting older timestamps, which only refreshes
  information about elements that hashed there earlier).
* **Cleaning.**  Timestamps are wraparound counters, so an entry left
  untouched for a whole counter period would eventually *look* fresh
  again.  The paper's fix: widen the counter range beyond ``N`` by a
  slack ``C`` and sweep a cursor over ``ceil(m / (C + 1))`` entries per
  arrival, erasing expired timestamps.  Every entry is re-visited at
  least once per ``C + 1`` arrivals, before its age can wrap.

Wraparound refinement (DESIGN.md §3.1): the paper uses ``N + C``
timestamp values; with cursor period exactly ``C + 1`` an entry last
verified at age ``N - 1`` is next seen at age ``N + C ≡ 0 (mod N+C)``
and would be misread as fresh.  We use ``W = N + C + 1`` values, which
closes that gap with the same entry width.

Properties (Theorem 2): zero false negatives; FP rate of a classical
Bloom filter with ``m = M / O(log N)`` entries and ``N`` elements;
``O(k + m/(C+1))`` entry operations per element (``O(M / (N log N))``
cleaning cost at the paper's default ``C = N - 1``).
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from ..bitset.words import OperationCounter
from ..bloom.params import false_positive_rate_from_fill
from ..errors import ConfigurationError
from ..hashing import HashFamily, SplitMixFamily
from . import kernels
from .batch import check_reads, resolve_inserts
from .contract import CountBasedDetector


def entry_bits_required(window_size: int, cleanup_slack: int) -> int:
    """Bits per TBF entry: hold ``W = N + C + 1`` timestamps plus a sentinel."""
    num_values = window_size + cleanup_slack + 1
    return max(1, math.ceil(math.log2(num_values + 1)))


def _dtype_for_bits(bits: int) -> "np.dtype":
    if bits <= 8:
        return np.dtype(np.uint8)
    if bits <= 16:
        return np.dtype(np.uint16)
    if bits <= 32:
        return np.dtype(np.uint32)
    if bits <= 64:
        return np.dtype(np.uint64)
    raise ConfigurationError(f"entries wider than 64 bits unsupported ({bits})")


class TBFDetector(CountBasedDetector):
    """One-pass duplicate-click detector over a count-based sliding window.

    Parameters
    ----------
    window_size:
        Sliding-window size ``N`` in arrivals.
    num_entries:
        ``m``, the number of timestamp entries.
    num_hashes:
        ``k`` hash functions.
    cleanup_slack:
        ``C`` — the trade-off knob of §4.1.  Each entry is
        ``ceil(log2(N + C + 2))`` bits and each arrival sweeps
        ``ceil(m / (C + 1))`` entries.  Small ``C``: narrower entries,
        more sweeping.  Large ``C``: wider entries, less sweeping.
        Defaults to the paper's typical choice ``C = N - 1`` (one extra
        bit per entry, ``~m/N`` sweeps per arrival).
    seed / family:
        Hash-family configuration.
    """

    def __init__(
        self,
        window_size: int,
        num_entries: int,
        num_hashes: int = 4,
        cleanup_slack: Optional[int] = None,
        seed: int = 0,
        family: Optional[HashFamily] = None,
    ) -> None:
        if window_size < 1:
            raise ConfigurationError(f"window_size must be >= 1, got {window_size}")
        if num_entries < 1:
            raise ConfigurationError(f"num_entries must be >= 1, got {num_entries}")
        if cleanup_slack is None:
            cleanup_slack = window_size - 1
        if cleanup_slack < 0:
            raise ConfigurationError(
                f"cleanup_slack must be >= 0, got {cleanup_slack}"
            )
        if family is None:
            family = SplitMixFamily(num_hashes, num_entries, seed)
        if family.num_buckets != num_entries:
            raise ConfigurationError(
                f"hash family range {family.num_buckets} != num_entries {num_entries}"
            )

        self.window_size = window_size
        self.num_entries = num_entries
        self.cleanup_slack = cleanup_slack
        self.family = family

        #: Timestamp modulus ``W = N + C + 1`` (see wraparound refinement).
        self.timestamp_period = window_size + cleanup_slack + 1
        self.entry_bits = entry_bits_required(window_size, cleanup_slack)
        #: All-ones sentinel marking an empty entry (never a valid timestamp).
        self.empty_value = (1 << self.entry_bits) - 1
        if self.empty_value < self.timestamp_period:
            raise AssertionError("sentinel collides with timestamp range")

        self._entries = np.full(
            num_entries, self.empty_value, dtype=_dtype_for_bits(self.entry_bits)
        )
        self._scan_per_element = -(-num_entries // (cleanup_slack + 1))
        self._clean_cursor = 0
        self._position = -1

        self.counter = OperationCounter()
        #: Duplicate verdicts issued so far (telemetry; kept off the
        #: :class:`OperationCounter` to preserve its equality semantics).
        self.duplicates = 0

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _age(self, timestamp: int, now: int) -> int:
        return (now - timestamp) % self.timestamp_period

    def _clean_step(self, now: int) -> None:
        """Step 1: erase expired timestamps in the next cursor segment."""
        entries = self._entries
        m = self.num_entries
        period = self.timestamp_period
        window = self.window_size
        empty = self.empty_value
        cursor = self._clean_cursor
        reads = 0
        writes = 0
        for _ in range(self._scan_per_element):
            value = int(entries[cursor])
            reads += 1
            if value != empty and (now - value) % period >= window:
                entries[cursor] = empty
                writes += 1
            cursor += 1
            if cursor == m:
                cursor = 0
        self._clean_cursor = cursor
        self.counter.word_reads += reads
        self.counter.word_writes += writes

    # ------------------------------------------------------------------
    # Stream interface
    # ------------------------------------------------------------------

    def process(self, identifier: int) -> bool:
        """Observe the next click; True means duplicate (not recorded)."""
        self.counter.hash_evaluations += self.family.num_hashes
        return self.process_indices(self.family.indices(identifier))

    def process_indices(self, indices: Sequence[int]) -> bool:
        """Observe the next click given pre-computed hash indices."""
        self._position += 1
        now = self._position % self.timestamp_period
        self._clean_step(now)

        entries = self._entries
        period = self.timestamp_period
        window = self.window_size
        empty = self.empty_value

        # Step 2: present-and-active check (footnotes 1-2 of §4.1).
        duplicate = True
        reads = 0
        for index in indices:
            value = int(entries[index])
            reads += 1
            if value == empty or (now - value) % period >= window:
                duplicate = False
                break
        self.counter.word_reads += reads
        self.counter.elements += 1
        if duplicate:
            self.duplicates += 1
            return True
        stamp = entries.dtype.type(now)
        for index in indices:
            entries[index] = stamp
        self.counter.word_writes += len(indices)
        return False

    # ------------------------------------------------------------------
    # Batch interface
    # ------------------------------------------------------------------

    #: Upper bound on one vectorized chunk (bounds temp-array memory).
    _MAX_CHUNK = 1 << 16

    def process_batch(self, identifiers: "np.ndarray") -> "np.ndarray":
        """Observe a batch of clicks; returns the per-click verdicts.

        Bit-identical to calling :meth:`process` in a loop — verdicts,
        entry array, cursor, and operation counts all match exactly —
        with hashing, the activity check, timestamp stores, and the
        cleaning sweep vectorized.
        """
        identifiers = np.asarray(identifiers, dtype=np.uint64)
        if identifiers.ndim != 1:
            raise ValueError(f"identifiers must be 1-D, got {identifiers.ndim}-D")
        self.counter.hash_evaluations += self.family.num_hashes * int(
            identifiers.shape[0]
        )
        return self.process_indices_batch(self.family.indices_batch(identifiers))

    def process_indices_batch(self, indices: "np.ndarray") -> "np.ndarray":
        """Batch variant of :meth:`process_indices` (``(n, k)`` index array)."""
        idx = np.asarray(indices)
        if idx.ndim != 2:
            raise ValueError(f"indices must be (n, k), got {idx.ndim}-D")
        n = idx.shape[0]
        out = np.empty(n, dtype=bool)
        if n == 0:
            return out
        idx = idx.astype(np.int64, copy=False)
        # Chunk bounds that keep the vectorized step exact: within one
        # chunk every in-chunk insert must stay active (<= window
        # arrivals old) and the cleaning cursor must not lap any entry
        # (<= m swept slots), so pre-chunk values plus first-writer
        # resolution decide everything.
        limit = max(
            1,
            min(
                self.window_size,
                self.num_entries // self._scan_per_element,
                self._MAX_CHUNK,
            ),
        )
        for start in range(0, n, limit):
            stop = min(start + limit, n)
            self._process_chunk(idx[start:stop], out[start:stop])
        return out

    def _process_chunk(self, idx: "np.ndarray", out: "np.ndarray") -> None:
        n, k = idx.shape
        entries = self._entries
        m = self.num_entries
        period = self.timestamp_period
        window = self.window_size
        empty = self.empty_value
        scan = self._scan_per_element
        first_position = self._position + 1
        now0 = first_position % period
        rows = np.arange(n, dtype=np.int64)

        # Activity against the pre-chunk state, evaluated per element
        # via the *unwrapped* age: base_age + i.  The cursor invariant
        # (an expired entry is erased within C+1 arrivals, i.e. at age
        # <= N + C = period - 1) guarantees the true age of any entry
        # still holding a value is < period, so the unwrapped form
        # equals the scalar modular compare at every element — without
        # it, an age wrapping past the period mid-chunk would misread
        # as fresh.
        values = entries[idx].astype(np.int64)
        # (now0 - value) % period via conditional add (empty-sentinel
        # rows come out garbage, masked by the != empty term below).
        base_age = kernels.wrapped_ages(now0, values, period)
        active0 = (values != empty) & (base_age + rows[:, None] < window)
        dup0 = kernels.row_all(active0)
        # In-chunk inserts are < window arrivals old, so a covered slot
        # is active at probe time: the resolver's covered matrix is the
        # probe-read truth directly.
        duplicate, inserters, writers, covered = resolve_inserts(
            dup0, active0, idx, m
        )
        reads = check_reads(covered)
        ins = np.nonzero(inserters)[0]

        # Cleaning sweep: n * scan cursor slots, each visited at most
        # once (chunk limit), judged against pre-chunk values at the
        # sweeping element's clock — except entries an earlier element
        # re-inserted, which are fresh and must survive.  The cursor
        # window is at most two contiguous slices, so values and the
        # erase store are sliced views — no index arrays, no modulo
        # (erasures first, inserts after: an entry
        # erased by one element and re-written by a later one ends up
        # written, and slices are disjoint so the interleave is exact).
        total = n * scan
        sweep_element = kernels.repeat_arange(n, scan)
        cursor = self._clean_cursor
        offset = 0
        clean_writes = 0
        empty_stamp = entries.dtype.type(empty)
        while offset < total:
            length = min(total - offset, m - cursor)
            seg = entries[cursor : cursor + length]
            seg_values = seg.astype(np.int64)
            elems = sweep_element[offset : offset + length]
            seg_age = kernels.wrapped_ages(now0, seg_values, period) + elems
            erase = (seg_values != empty) & (seg_age >= window)
            if ins.size:
                erase &= ~writers.written_before(cursor, elems)
            count = int(np.count_nonzero(erase))
            if count:
                seg[erase] = empty_stamp
                clean_writes += count
            cursor = (cursor + length) % m
            offset += length
        if ins.size:
            # The final stamp per entry is its *last* writer's position
            # (fancy assignment has no duplicate-order guarantee, so the
            # last writer is made explicit).
            written, last = writers.last_writes()
            entries[written] = ((first_position + last) % period).astype(
                entries.dtype
            )

        self._clean_cursor = int((self._clean_cursor + n * scan) % m)
        self._position += n
        self.counter.add(n * scan + reads, clean_writes + k * int(ins.size))
        self.counter.elements += n
        self.duplicates += int(np.count_nonzero(duplicate))
        out[:] = duplicate

    def query(self, identifier: int) -> bool:
        """Side-effect-free duplicate check against the current window."""
        return self.query_indices(self.family.indices(identifier))

    def query_indices(self, indices: Sequence[int]) -> bool:
        if self._position < 0:
            return False
        entries = self._entries
        now = self._position % self.timestamp_period
        period = self.timestamp_period
        window = self.window_size
        empty = self.empty_value
        for index in indices:
            value = int(entries[index])
            if value == empty or (now - value) % period >= window:
                return False
        return True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def num_hashes(self) -> int:
        return self.family.num_hashes

    @property
    def position(self) -> int:
        return self._position

    @property
    def scan_per_element(self) -> int:
        """Entries swept by Step 1 on each arrival: ``ceil(m / (C+1))``."""
        return self._scan_per_element

    @property
    def memory_bits(self) -> int:
        """Modeled footprint ``m * entry_bits`` (Theorem 2's ``M``)."""
        return self.num_entries * self.entry_bits

    def active_entries(self) -> int:
        """Number of entries currently holding an active timestamp."""
        if self._position < 0:
            return 0
        now = self._position % self.timestamp_period
        values = self._entries.astype(np.int64)
        ages = (now - values) % self.timestamp_period
        return int(((values != self.empty_value) & (ages < self.window_size)).sum())

    def stale_entries(self) -> int:
        """Entries holding an expired timestamp not yet swept (diagnostic)."""
        if self._position < 0:
            return 0
        now = self._position % self.timestamp_period
        values = self._entries.astype(np.int64)
        ages = (now - values) % self.timestamp_period
        return int(((values != self.empty_value) & (ages >= self.window_size)).sum())

    @property
    def observed_duplicate_rate(self) -> float:
        """Fraction of processed clicks flagged duplicate so far."""
        return self.duplicates / self.counter.elements if self.counter.elements else 0.0

    def estimated_fp_rate(self) -> float:
        """Live FP estimate from the *measured* active fill (Theorem 2).

        A query is a false positive when all ``k`` probed entries hold
        active timestamps, so the rate is ``(active / m) ** k``.
        """
        return false_positive_rate_from_fill(
            self.active_entries() / self.num_entries, self.num_hashes
        )

    def spec(self):
        """The :class:`~repro.detection.DetectorSpec` rebuilding this detector.

        Exact round trip — ``create_detector(detector.spec())`` yields
        an identically configured detector.  Requires the default
        SplitMixFamily (a custom family cannot ride a spec).
        """
        from ..detection.detector import DetectorSpec, TBFParams, WindowSpec

        if type(self.family) is not SplitMixFamily:
            raise ConfigurationError(
                "spec() requires the default SplitMixFamily; this detector "
                f"uses {type(self.family).__name__}"
            )
        return DetectorSpec(
            algorithm="tbf",
            window=WindowSpec("sliding", self.window_size),
            params=TBFParams(self.num_entries, self.num_hashes, self.cleanup_slack),
            seed=self.family.seed,
        )

    def checkpoint_state(self) -> bytes:
        """Serialized sketch state (invert with :func:`repro.core.load_detector`).

        Operational surface beside the
        :class:`~repro.detection.api.Detector` contract; delegates to the
        checkpoint registry (:func:`repro.core.save_detector`).
        """
        from .checkpoint import save_detector

        return save_detector(self)

    def telemetry_snapshot(self) -> dict:
        """Health metrics for :mod:`repro.telemetry.instruments`."""
        counter = self.counter
        # One sweep of the entry array feeds active count, stale count,
        # fill, and the FP estimate (same floats as estimated_fp_rate()).
        if self._position < 0:
            active = stale = 0
        else:
            now = self._position % self.timestamp_period
            values = self._entries.astype(np.int64)
            occupied = values != self.empty_value
            in_window = (now - values) % self.timestamp_period < self.window_size
            active = int((occupied & in_window).sum())
            stale = int((occupied & ~in_window).sum())
        fill = active / self.num_entries
        return {
            "gauges": {
                "position": self._position,
                "estimated_fp_rate": false_positive_rate_from_fill(
                    fill, self.num_hashes
                ),
                "observed_duplicate_rate": self.observed_duplicate_rate,
                "clean_cursor": self._clean_cursor,
                "stale_entries": stale,
            },
            "counters": {
                "elements": counter.elements,
                "duplicates": self.duplicates,
                "hash_evaluations": counter.hash_evaluations,
                "word_reads": counter.word_reads,
                "word_writes": counter.word_writes,
            },
            "fills": {
                "entries": fill,
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TBFDetector(N={self.window_size}, m={self.num_entries}, "
            f"k={self.num_hashes}, C={self.cleanup_slack}, "
            f"entry_bits={self.entry_bits})"
        )

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

The §4.1 extensions are the same table under another clock: "instead
of inserting the counting-based position, the time unit information is
inserted into the entries of TBF".  :class:`TimingFilter` is that
table — entries, scalar probe/insert and cursor sweep, the fused batch
segment, introspection, telemetry and the checkpoint codec — and each
variant supplies only its clock: :class:`TBFDetector` ticks once per
arrival, :class:`~repro.core.tbf_jumping.TBFJumpingDetector` once per
sub-window of arrivals and
:class:`~repro.core.tbf_timebased.TimeBasedTBFDetector` once per time
unit.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Optional, Sequence, Tuple

import numpy as np

from ..bitset.words import OperationCounter
from ..bloom.params import false_positive_rate, false_positive_rate_from_fill
from ..errors import ConfigurationError
from ..hashing import HashFamily, SplitMixFamily
from . import kernels
from .batch import check_reads, resolve_inserts
from .checkpoint import (
    CheckpointError,
    _family_spec,
    _rebuild_family,
    pack_frame,
    register_checkpoint_kind,
    save_detector,
)
from .contract import HashedCountDetector, index_matrix, spec_seed


def _bits_for_period(period: int) -> int:
    """Bits per entry: ``period`` timestamps plus the empty sentinel."""
    return max(1, math.ceil(math.log2(period + 1)))


def entry_bits_required(window_size: int, cleanup_slack: int) -> int:
    """Bits per TBF entry: hold ``W = N + C + 1`` timestamps plus a sentinel."""
    return _bits_for_period(window_size + cleanup_slack + 1)


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


class TimingFilter:
    """The TBF table under any clock.

    A variant calls :meth:`_init_table` with its active span (the ticks
    a stamp stays active: ``N`` arrivals, ``Q`` sub-windows or ``R``
    time units) and its timestamp period, and supplies:

    * ``_tick()``: the current unwrapped tick, ``None`` before the first
      arrival;
    * its scalar step: advance the clock, :meth:`_sweep` the tick's
      cursor budget, then :meth:`_insert_at`;
    * its batch segment bounds, each segment handed to
      :meth:`_fused_segment`;
    * ``kind``, ``_CONFIG`` and ``_STATE``: the checkpoint kind, the
      constructor arguments the header records, and the clock state
      it restores (attribute ``_<name>``);
    * ``spec()`` and, when it has one, ``theoretical_fp_bound()``.
    """

    #: Upper bound on one fused segment (bounds temp-array memory).
    _MAX_SEGMENT = 1 << 16

    kind: str
    _CONFIG: Tuple[str, ...]
    _STATE: Tuple[str, ...]

    def __init_subclass__(cls, **kwargs) -> None:
        # Every variant that names its kind checkpoints through the one
        # codec below.
        super().__init_subclass__(**kwargs)
        if "kind" in vars(cls):
            register_checkpoint_kind(
                cls.kind, cls, _save_timing_filter, partial(_load_timing_filter, cls)
            )

    def _init_table(
        self,
        num_entries: int,
        num_hashes: int,
        cleanup_slack: int,
        seed: int,
        family: Optional[HashFamily],
        span: int,
        period: int,
    ) -> None:
        if num_entries < 1:
            raise ConfigurationError(f"num_entries must be >= 1, got {num_entries}")
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
        self.num_entries = num_entries
        self.cleanup_slack = cleanup_slack
        self.family = family
        #: Timestamp modulus (see the wraparound refinement).
        self.timestamp_period = period
        self.entry_bits = _bits_for_period(period)
        #: All-ones sentinel marking an empty entry (never a valid timestamp).
        self.empty_value = (1 << self.entry_bits) - 1
        if self.empty_value < self.timestamp_period:
            raise AssertionError("sentinel collides with timestamp range")
        #: Ticks a stamp stays active.
        self._span = span
        self._entries = np.full(
            num_entries, self.empty_value, dtype=_dtype_for_bits(self.entry_bits)
        )
        self._clean_cursor = 0
        self.counter = OperationCounter()
        #: Duplicate verdicts issued so far (telemetry; kept off the
        #: :class:`OperationCounter` to preserve its equality semantics).
        self.duplicates = 0

    # ------------------------------------------------------------------
    # Scalar reference: Step 1 (sweep) and Step 2 (probe, insert)
    # ------------------------------------------------------------------

    def _sweep(self, now: int, budget: int) -> None:
        """Step 1: erase expired stamps in the next ``budget <= m`` slots.

        Tiny sweeps (a couple of entries between nearby arrivals) stay
        a scalar loop; anything larger runs the vectorized slice kernel
        — entry mutations, cursor, and tallies are identical either way.
        """
        entries = self._entries
        period = self.timestamp_period
        span = self._span
        empty = self.empty_value
        if budget >= 32:
            self._clean_cursor, writes = kernels.clean_cursor_sweep(
                entries, self._clean_cursor, budget, now, period, span, empty
            )
            self.counter.add(budget, writes)
            return
        m = self.num_entries
        cursor = self._clean_cursor
        writes = 0
        for _ in range(budget):
            value = int(entries[cursor])
            if value != empty and (now - value) % period >= span:
                entries[cursor] = empty
                writes += 1
            cursor += 1
            if cursor == m:
                cursor = 0
        self._clean_cursor = cursor
        self.counter.add(budget, writes)

    def _insert_at(self, indices: Sequence[int], now: int) -> bool:
        """Step 2 at clock ``now``: the present-and-active check (footnotes
        1-2 of §4.1), then the stamp; True means duplicate."""
        entries = self._entries
        period = self.timestamp_period
        span = self._span
        empty = self.empty_value
        duplicate = True
        reads = 0
        for index in indices:
            value = int(entries[index])
            reads += 1
            if value == empty or (now - value) % period >= span:
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

    def query_indices(self, indices: Sequence[int]) -> bool:
        """Side-effect-free duplicate check at the current clock."""
        tick = self._tick()
        if tick is None:
            return False
        entries = self._entries
        now = tick % self.timestamp_period
        period = self.timestamp_period
        span = self._span
        empty = self.empty_value
        for index in indices:
            value = int(entries[index])
            if value == empty or (now - value) % period >= span:
                return False
        return True

    # ------------------------------------------------------------------
    # Batch: one fused segment
    # ------------------------------------------------------------------

    def _fused_segment(
        self,
        idx: "np.ndarray",
        now0: int,
        ticks: "np.ndarray",
        sweep_rows: "np.ndarray",
        out: "np.ndarray",
    ) -> None:
        """Probe, insert and sweep one run of arrivals against pre-run state.

        Row ``i`` of the ``(n, k)`` int64 ``idx`` runs at clock ``now0 +
        ticks[i]`` (``ticks`` is ``(n,)`` int64, non-decreasing from 0).
        ``sweep_rows`` names, in cursor order, the row whose Step 1
        visits each swept slot.  A run on one clock (every offset 0:
        each jumping-TBF segment, a time-TBF run inside one unit) skips
        the offset adds and stores its one stamp directly.  The
        variant's segment bounds guarantee two things:

        * every in-run stamp stays active through the run
          (``ticks[-1] < span``), so the resolver's covered matrix is
          the probe-read truth;
        * the run sweeps at most ``m`` slots, so the cursor visits no
          entry twice.

        Activity uses the *unwrapped* age ``base_age + ticks[i]``: the
        cursor invariant (an expired entry is erased before its age
        reaches the period) keeps the true age of any stamped entry
        below the period, so the unwrapped form equals the scalar
        modular compare at every row.  A swept slot is judged on its
        pre-run value at its row's clock, except entries an earlier row
        re-stamped, which are fresh and survive.  The cursor window is
        at most two contiguous slices, so values and the erase store
        are sliced views (erasures first, stamps after: an entry
        erased by one row and re-written by a later one ends up
        written).
        """
        n, k = idx.shape
        entries = self._entries
        m = self.num_entries
        period = self.timestamp_period
        span = self._span
        empty = self.empty_value

        one_clock = int(ticks[-1]) == 0

        values = entries[idx].astype(np.int64)
        # (now0 - value) % period via conditional add (empty-sentinel
        # rows come out garbage, masked by the != empty term).
        ages = kernels.wrapped_ages(now0, values, period)
        if not one_clock:
            ages += ticks[:, None]
        active0 = (values != empty) & (ages < span)
        dup0 = kernels.row_all(active0)
        duplicate, inserters, writers, covered = resolve_inserts(
            dup0, active0, idx, m
        )
        reads = check_reads(covered)
        ins = np.nonzero(inserters)[0]

        total = sweep_rows.shape[0]
        cursor = self._clean_cursor
        offset = 0
        clean_writes = 0
        empty_stamp = entries.dtype.type(empty)
        while offset < total:
            length = min(total - offset, m - cursor)
            seg = entries[cursor : cursor + length]
            seg_values = seg.astype(np.int64)
            rows = sweep_rows[offset : offset + length]
            seg_age = kernels.wrapped_ages(now0, seg_values, period)
            if not one_clock:
                seg_age += ticks[rows]
            erase = (seg_values != empty) & (seg_age >= span)
            if ins.size:
                erase &= ~writers.written_before(cursor, rows)
            count = int(np.count_nonzero(erase))
            if count:
                seg[erase] = empty_stamp
                clean_writes += count
            cursor = (cursor + length) % m
            offset += length
        self._clean_cursor = cursor

        if ins.size and one_clock:
            # Every insert stamps the same value, so duplicate-index
            # store order cannot matter.
            entries[idx if ins.size == n else idx[ins]] = entries.dtype.type(now0)
        elif ins.size:
            # The last writer's clock wins, exactly as in the scalar
            # overwrite order (fancy assignment has no duplicate-order
            # guarantee, so the last writer is made explicit).
            written, last = writers.last_writes()
            entries[written] = ((now0 + ticks[last]) % period).astype(entries.dtype)
        self.counter.add(total + reads, clean_writes + k * int(ins.size))
        self.counter.elements += n
        self.duplicates += int(np.count_nonzero(duplicate))
        out[:] = duplicate

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def num_hashes(self) -> int:
        return self.family.num_hashes

    @property
    def memory_bits(self) -> int:
        """Modeled footprint ``m * entry_bits`` (Theorem 2's ``M``)."""
        return self.num_entries * self.entry_bits

    def _window_counts(self) -> Tuple[int, int]:
        """``(active, occupied)`` entries at the current clock."""
        tick = self._tick()
        if tick is None:
            return 0, 0
        return kernels.window_counts(
            self._entries,
            tick % self.timestamp_period,
            self._span,
            self.timestamp_period,
            self.empty_value,
        )

    def active_entries(self) -> int:
        """Number of entries currently holding an active timestamp."""
        return self._window_counts()[0]

    def stale_entries(self) -> int:
        """Entries holding an expired timestamp not yet swept (diagnostic)."""
        active, occupied = self._window_counts()
        return occupied - active

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

    def checkpoint_state(self) -> bytes:
        """Serialized sketch state (invert with :func:`repro.core.load_detector`).

        Operational surface beside the
        :class:`~repro.detection.api.Detector` contract; delegates to the
        checkpoint registry (:func:`repro.core.save_detector`).
        """
        return save_detector(self)

    def telemetry_snapshot(self) -> dict:
        """Health metrics for :mod:`repro.telemetry.instruments`."""
        counter = self.counter
        # One count of the entry array feeds active count, stale count,
        # fill, and the FP estimate (same floats as estimated_fp_rate()).
        active, occupied = self._window_counts()
        fill = active / self.num_entries
        return {
            "gauges": {
                **self._clock_gauge(),
                "estimated_fp_rate": false_positive_rate_from_fill(
                    fill, self.num_hashes
                ),
                "observed_duplicate_rate": self.observed_duplicate_rate,
                "clean_cursor": self._clean_cursor,
                "stale_entries": occupied - active,
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


def _save_timing_filter(detector: TimingFilter) -> bytes:
    cls = type(detector)
    header = {
        "kind": cls.kind,
        **{name: getattr(detector, name) for name in cls._CONFIG},
        "num_entries": detector.num_entries,
        "cleanup_slack": detector.cleanup_slack,
        "family": _family_spec(detector.family),
        **{name: getattr(detector, "_" + name) for name in cls._STATE},
        "dtype": detector._entries.dtype.name,
        "duplicates": detector.duplicates,
    }
    return pack_frame(header, detector._entries.tobytes())


def _load_timing_filter(cls, header, payload: bytes) -> TimingFilter:
    family = _rebuild_family(header["family"])
    try:
        detector = cls(
            **{name: header[name] for name in cls._CONFIG},
            num_entries=header["num_entries"],
            cleanup_slack=header["cleanup_slack"],
            family=family,
        )
        if header["dtype"] != detector._entries.dtype.name:
            raise CheckpointError(
                f"{cls.kind} payload dtype {header['dtype']} does not match "
                f"configuration ({detector._entries.dtype.name})"
            )
        if len(payload) != detector._entries.nbytes:
            raise CheckpointError(
                f"{cls.kind} payload size does not match configuration"
            )
        detector._entries = np.frombuffer(
            payload, dtype=detector._entries.dtype
        ).copy()
        for name in cls._STATE:
            setattr(detector, "_" + name, header[name])
        detector.duplicates = int(header.get("duplicates", 0))
    except KeyError as error:
        raise CheckpointError(
            f"missing {cls.kind} checkpoint field: {error}"
        ) from error
    return detector


class TBFDetector(TimingFilter, HashedCountDetector):
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

    kind = "tbf"
    _CONFIG = ("window_size",)
    _STATE = ("position", "clean_cursor")

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
        if cleanup_slack is None:
            cleanup_slack = window_size - 1
        self.window_size = window_size
        self._init_table(
            num_entries,
            num_hashes,
            cleanup_slack,
            seed,
            family,
            span=window_size,
            period=window_size + cleanup_slack + 1,
        )
        self._scan_per_element = -(-num_entries // (cleanup_slack + 1))
        self._position = -1

    # -- the clock: one tick per arrival --------------------------------

    def _tick(self) -> Optional[int]:
        return self._position if self._position >= 0 else None

    def process_indices(self, indices: Sequence[int]) -> bool:
        """Observe the next click given pre-computed hash indices."""
        self._position += 1
        now = self._position % self.timestamp_period
        self._sweep(now, self._scan_per_element)
        return self._insert_at(indices, now)

    def process_indices_batch(self, indices: "np.ndarray") -> "np.ndarray":
        """Batch variant of :meth:`process_indices` (``(n, k)`` index array).

        Bit-identical to the scalar loop — verdicts, entry array,
        cursor, and operation counts all match exactly.  A chunk holds
        at most ``N`` arrivals (every in-chunk stamp stays active) and
        at most ``m // scan`` (the cursor laps no entry).
        """
        idx = index_matrix(indices)
        n = idx.shape[0]
        out = np.empty(n, dtype=bool)
        scan = self._scan_per_element
        limit = max(
            1, min(self.window_size, self.num_entries // scan, self._MAX_SEGMENT)
        )
        for start in range(0, n, limit):
            stop = min(start + limit, n)
            count = stop - start
            self._fused_segment(
                idx[start:stop],
                (self._position + 1) % self.timestamp_period,
                np.arange(count, dtype=np.int64),
                kernels.repeat_arange(count, scan),
                out[start:stop],
            )
            self._position += count
        return out

    # -- introspection ---------------------------------------------------

    @property
    def position(self) -> int:
        return self._position

    @property
    def scan_per_element(self) -> int:
        """Entries swept by Step 1 on each arrival: ``ceil(m / (C+1))``."""
        return self._scan_per_element

    def theoretical_fp_bound(self) -> float:
        """Theorem 2: a classical Bloom filter of ``m`` entries over at
        most ``N`` active elements, ``f(m, N, k)``."""
        return false_positive_rate(self.num_entries, self.window_size, self.num_hashes)

    def spec(self):
        """The :class:`~repro.detection.DetectorSpec` rebuilding this detector.

        Exact round trip — ``create_detector(detector.spec())`` yields
        an identically configured detector.  Requires the default
        SplitMixFamily (a custom family cannot ride a spec).
        """
        from ..detection.detector import DetectorSpec, TBFParams, WindowSpec

        return DetectorSpec(
            algorithm="tbf",
            window=WindowSpec("sliding", self.window_size),
            params=TBFParams(self.num_entries, self.num_hashes, self.cleanup_slack),
            seed=spec_seed(self.family),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TBFDetector(N={self.window_size}, m={self.num_entries}, "
            f"k={self.num_hashes}, C={self.cleanup_slack}, "
            f"entry_bits={self.entry_bits})"
        )

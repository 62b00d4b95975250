"""TBF over time-based sliding windows (§4.1 extension).

"Suppose the entire sliding window is equally divided into R time
units.  In Step 1, the cleaning procedure executes once in each time
unit ... instead of inserting the counting-based position, the time
unit information is inserted into the entries of TBF."

Timestamps are *time-unit indices* rather than arrival positions, so
the window "contains the last ``R`` units" — a granularity-``T/R``
approximation of the ideal time-based sliding window (elements expire
at unit boundaries, at most one unit late).  Cleaning advances with the
clock, not with arrivals: each elapsed unit funds one cursor quota of
``ceil(m / (C + 1))`` entries.  Long idle gaps are fast-forwarded — once
every timestamp in the filter has expired, a single full wipe replaces
the tick-by-tick replay.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from ..bitset.words import OperationCounter
from ..bloom.params import false_positive_rate_from_fill
from ..errors import ConfigurationError, StreamError
from ..hashing import HashFamily, SplitMixFamily
from . import kernels
from .batch import check_reads, resolve_inserts
from .contract import TimeBasedDetector
from .tbf import _dtype_for_bits


class TimeBasedTBFDetector(TimeBasedDetector):
    """Duplicate detector over a time-based sliding window of ``duration``.

    Parameters
    ----------
    duration:
        Window length ``T`` in stream time units (e.g. seconds).
    resolution:
        ``R``, the number of time units the window is divided into; the
        effective expiry granularity is ``duration / resolution``.
    num_entries, num_hashes, seed, family:
        As in :class:`~repro.core.tbf.TBFDetector`.
    cleanup_slack:
        ``C`` in time units; defaults to ``R - 1``.
    """

    def __init__(
        self,
        duration: float,
        resolution: int,
        num_entries: int,
        num_hashes: int = 4,
        cleanup_slack: Optional[int] = None,
        seed: int = 0,
        family: Optional[HashFamily] = None,
    ) -> None:
        if duration <= 0:
            raise ConfigurationError(f"duration must be > 0, got {duration}")
        if resolution < 1:
            raise ConfigurationError(f"resolution must be >= 1, got {resolution}")
        if num_entries < 1:
            raise ConfigurationError(f"num_entries must be >= 1, got {num_entries}")
        if cleanup_slack is None:
            cleanup_slack = resolution - 1
        if cleanup_slack < 0:
            raise ConfigurationError(f"cleanup_slack must be >= 0, got {cleanup_slack}")
        if family is None:
            family = SplitMixFamily(num_hashes, num_entries, seed)
        if family.num_buckets != num_entries:
            raise ConfigurationError(
                f"hash family range {family.num_buckets} != num_entries {num_entries}"
            )

        self.duration = float(duration)
        self.resolution = resolution
        self.unit_duration = self.duration / resolution
        self.num_entries = num_entries
        self.cleanup_slack = cleanup_slack
        self.family = family

        # Wraparound period: count-based TBFs use N + C + 1 because the
        # cleaning cursor provably re-visits every entry within C + 1
        # *arrivals* of it expiring.  With a wall clock, cleaning only
        # runs at arrival instants, so a re-visit can be late by one
        # inter-arrival gap — bounded by R units (longer gaps trigger
        # the full wipe).  An entry kept at age <= R-1 is therefore
        # re-visited at age < (R-1) + (C+1) + R, so the period must
        # exceed 2R + C for expired ages to stay distinguishable.
        self.timestamp_period = 2 * resolution + cleanup_slack + 1
        self.entry_bits = max(1, math.ceil(math.log2(self.timestamp_period + 1)))
        self.empty_value = (1 << self.entry_bits) - 1
        self._entries = np.full(
            num_entries, self.empty_value, dtype=_dtype_for_bits(self.entry_bits)
        )
        self._scan_per_unit = -(-num_entries // (cleanup_slack + 1))
        self._clean_cursor = 0
        self._last_unit: Optional[int] = None
        self._last_time: Optional[float] = None

        self.counter = OperationCounter()
        #: Duplicate verdicts issued so far (telemetry; kept off the
        #: :class:`OperationCounter` to preserve its equality semantics).
        self.duplicates = 0

    # ------------------------------------------------------------------
    # Clock handling
    # ------------------------------------------------------------------

    def _unit_of(self, timestamp: float) -> int:
        return int(timestamp // self.unit_duration)

    def _advance_clock(self, timestamp: float) -> int:
        """Run the per-unit cleaning for every unit elapsed; return ``now``."""
        if self._last_time is not None and timestamp < self._last_time:
            raise StreamError(
                f"timestamp regressed: {timestamp} after {self._last_time}"
            )
        self._last_time = timestamp
        unit = self._unit_of(timestamp)
        if self._last_unit is None:
            self._last_unit = unit
            return unit % self.timestamp_period
        elapsed = unit - self._last_unit
        self._last_unit = unit
        now = unit % self.timestamp_period
        if elapsed <= 0:
            return now
        if elapsed >= self.resolution:
            # Everything in the filter predates the window: wipe it.
            stale = int((self._entries != self.empty_value).sum())
            self._entries.fill(self.empty_value)
            self.counter.word_reads += self.num_entries
            self.counter.word_writes += stale
            self._clean_cursor = 0
            return now
        budget = min(elapsed * self._scan_per_unit, self.num_entries)
        self._clean_segment(now, budget)
        return now

    def _clean_segment(self, now: int, budget: int) -> None:
        """One cursor sweep of ``budget <= m`` entries at clock ``now``.

        Tiny sweeps (a couple of entries between nearby arrivals) stay
        a scalar loop; anything larger runs the vectorized slice kernel
        — bit mutations, cursor, and tallies are identical either way.
        """
        entries = self._entries
        m = self.num_entries
        period = self.timestamp_period
        active_span = self.resolution
        empty = self.empty_value
        if budget >= 32:
            cursor, writes = kernels.clean_cursor_sweep(
                entries, self._clean_cursor, budget, now, period,
                active_span, empty,
            )
            self._clean_cursor = cursor
            self.counter.word_reads += budget
            self.counter.word_writes += writes
            return
        cursor = self._clean_cursor
        reads = 0
        writes = 0
        for _ in range(budget):
            value = int(entries[cursor])
            reads += 1
            if value != empty and (now - value) % period >= active_span:
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

    def process_at(self, identifier: int, timestamp: float) -> bool:
        """Observe a click at ``timestamp``; True means duplicate."""
        self.counter.hash_evaluations += self.family.num_hashes
        return self.process_indices_at(self.family.indices(identifier), timestamp)

    def process_indices_at(self, indices: Sequence[int], timestamp: float) -> bool:
        now = self._advance_clock(timestamp)
        entries = self._entries
        period = self.timestamp_period
        active_span = self.resolution
        empty = self.empty_value

        duplicate = True
        reads = 0
        for index in indices:
            value = int(entries[index])
            reads += 1
            if value == empty or (now - value) % period >= active_span:
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

    def process_batch_at(
        self, identifiers: "np.ndarray", timestamps: "np.ndarray"
    ) -> "np.ndarray":
        """Observe a batch of clicks with timestamps; bit-identical to a
        scalar :meth:`process_at` loop.

        Elements are fused into maximal *multi-unit* segments rather
        than one group per time unit: a segment may span every arrival
        within one window-resolution of its first element, provided the
        interleaved cleaning sweeps total at most ``m`` entries (each
        entry judged at most once, on pre-segment values).  Within a
        segment the per-element clock is carried as an *unwrapped* age
        offset (``base_age + elapsed_units``), which the cursor
        invariant proves equal to the scalar modular compare — see
        ``docs/performance.md``.  Boundary crossings (idle wipes, new
        segments) advance the clock scalar-style.  A regressing
        timestamp raises :class:`~repro.errors.StreamError` exactly as
        the scalar loop would: the elements before it are fully
        processed, the regressing element is not.
        """
        identifiers = np.asarray(identifiers, dtype=np.uint64)
        timestamps = np.asarray(timestamps, dtype=np.float64)
        if identifiers.ndim != 1:
            raise ValueError(f"identifiers must be 1-D, got {identifiers.ndim}-D")
        if timestamps.shape != identifiers.shape:
            raise ValueError(
                f"timestamps shape {timestamps.shape} != identifiers "
                f"shape {identifiers.shape}"
            )
        n = identifiers.shape[0]
        out = np.empty(n, dtype=bool)
        if n == 0:
            return out
        # Find the first regression (against the pre-batch clock and
        # between consecutive batch elements); everything before it is
        # processed, then the scalar path's error is raised.
        previous = np.empty(n, dtype=np.float64)
        previous[0] = self._last_time if self._last_time is not None else -np.inf
        previous[1:] = timestamps[:-1]
        regressions = np.nonzero(timestamps < previous)[0]
        limit = int(regressions[0]) if regressions.size else n
        k = self.family.num_hashes
        # The scalar loop hashes the regressing element before its
        # _advance_clock raises, so it is included in the tally.
        self.counter.hash_evaluations += k * min(limit + 1, n)
        if limit:
            idx = self.family.indices_batch(identifiers[:limit]).astype(
                np.int64, copy=False
            )
            units = np.floor_divide(timestamps[:limit], self.unit_duration).astype(
                np.int64
            )
            scan = self._scan_per_unit
            m = self.num_entries
            span = self.resolution
            start = 0
            while start < limit:
                now0 = self._advance_clock(float(timestamps[start]))
                # Segment: every later arrival less than one resolution
                # of units after the first (no idle wipe, in-segment
                # stamps stay active throughout), as long as the fused
                # cleaning sweeps stay within one cursor lap.
                end = int(np.searchsorted(units, units[start] + span, side="left"))
                end = min(end, start + 65536)
                if end - start > 1:
                    budgets = np.minimum(
                        np.diff(units[start:end]) * scan, m
                    )
                    lap = int(np.searchsorted(np.cumsum(budgets), m, side="right"))
                    end = min(end, start + 1 + lap)
                    budgets = budgets[: end - start - 1]
                else:
                    budgets = None
                self._segment_group(
                    idx[start:end], units[start:end], now0, budgets, out[start:end]
                )
                self._last_time = float(timestamps[end - 1])
                self._last_unit = int(units[end - 1])
                start = end
        if limit < n:
            raise StreamError(
                f"timestamp regressed: {float(timestamps[limit])} "
                f"after {float(previous[limit])}"
            )
        return out

    def _segment_group(
        self,
        idx: "np.ndarray",
        units: "np.ndarray",
        now0: int,
        budgets: "np.ndarray | None",
        out: "np.ndarray",
    ) -> None:
        """Fused probe/insert/clean for one multi-unit segment.

        ``now0`` is the first element's clock; element ``i`` runs at
        unwrapped offset ``E_i = units[i] - units[0] < resolution``.
        ``budgets`` holds the per-element cleaning quotas of elements
        ``1..n-1`` (``None`` when the segment is a single element),
        summing to at most ``m`` so the cursor never laps.
        """
        n, k = idx.shape
        entries = self._entries
        m = self.num_entries
        period = self.timestamp_period
        active_span = self.resolution
        empty = self.empty_value
        rows = np.arange(n, dtype=np.int64)
        elapsed = units - units[0]

        values = entries[idx].astype(np.int64)
        base_age = kernels.wrapped_ages(now0, values, period)
        active0 = (values != empty) & (base_age + elapsed[:, None] < active_span)
        dup0 = kernels.row_all(active0)
        # In-segment stamps stay active (elapsed spread < resolution),
        # so the resolver's covered matrix is active at probe time.
        duplicate, inserters, writers, covered = resolve_inserts(
            dup0, active0, idx, m
        )
        reads = check_reads(covered)
        ins = np.nonzero(inserters)[0]

        # Interleaved cleaning: element i's sweep judges pre-segment
        # values at element i's clock (unwrapped), except entries an
        # earlier element re-stamped, which are fresh and survive.  At
        # most two contiguous slices (total budget <= m).
        clean_writes = 0
        total = 0
        if budgets is not None and budgets.size:
            total = int(budgets.sum())
        if total:
            sweep_offset = np.repeat(elapsed[1:], budgets)
            sweep_element = np.repeat(rows[1:], budgets)
            cursor = self._clean_cursor
            offset = 0
            empty_stamp = entries.dtype.type(empty)
            while offset < total:
                length = min(total - offset, m - cursor)
                seg = entries[cursor : cursor + length]
                seg_values = seg.astype(np.int64)
                seg_age = (
                    kernels.wrapped_ages(now0, seg_values, period)
                    + sweep_offset[offset : offset + length]
                )
                erase = (seg_values != empty) & (seg_age >= active_span)
                if ins.size:
                    erase &= ~writers.written_before(
                        cursor, sweep_element[offset : offset + length]
                    )
                count = int(np.count_nonzero(erase))
                if count:
                    seg[erase] = empty_stamp
                    clean_writes += count
                cursor = (cursor + length) % m
                offset += length
            self._clean_cursor = cursor

        if ins.size:
            # Per-element stamps: the last writer's clock wins, exactly
            # as in the scalar overwrite order.
            written, last = writers.last_writes()
            entries[written] = (
                (np.int64(now0) + elapsed[last]) % period
            ).astype(entries.dtype)
        self.counter.add(total + reads, clean_writes + k * int(ins.size))
        self.counter.elements += n
        self.duplicates += int(np.count_nonzero(duplicate))
        out[:] = duplicate

    def query_at(self, identifier: int, timestamp: float) -> bool:
        """Duplicate check at ``timestamp`` without recording the element.

        Advances the cleaning clock (time passes regardless) but does not
        insert.
        """
        indices = self.family.indices(identifier)
        now = self._advance_clock(timestamp)
        entries = self._entries
        for index in indices:
            value = int(entries[index])
            if value == self.empty_value:
                return False
            if (now - value) % self.timestamp_period >= self.resolution:
                return False
        return True

    @property
    def num_hashes(self) -> int:
        return self.family.num_hashes

    @property
    def memory_bits(self) -> int:
        return self.num_entries * self.entry_bits

    def active_entries(self) -> int:
        """Number of entries currently holding an active timestamp."""
        if self._last_unit is None:
            return 0
        now = self._last_unit % self.timestamp_period
        values = self._entries.astype(np.int64)
        ages = (now - values) % self.timestamp_period
        return int(((values != self.empty_value) & (ages < self.resolution)).sum())

    def stale_entries(self) -> int:
        """Entries holding an expired timestamp not yet swept (diagnostic)."""
        if self._last_unit is None:
            return 0
        now = self._last_unit % self.timestamp_period
        values = self._entries.astype(np.int64)
        ages = (now - values) % self.timestamp_period
        return int(((values != self.empty_value) & (ages >= self.resolution)).sum())

    @property
    def observed_duplicate_rate(self) -> float:
        """Fraction of processed clicks flagged duplicate so far."""
        return self.duplicates / self.counter.elements if self.counter.elements else 0.0

    def estimated_fp_rate(self) -> float:
        """Live FP estimate ``(active / m) ** k`` from the measured fill."""
        return false_positive_rate_from_fill(
            self.active_entries() / self.num_entries, self.num_hashes
        )

    def spec(self):
        """The :class:`~repro.detection.DetectorSpec` rebuilding this detector.

        Exact round trip — ``create_detector(detector.spec())`` yields
        an identically configured detector.  The window spec is
        descriptive only (time-based detectors are sized by their
        params); requires the default SplitMixFamily.
        """
        from ..detection.detector import DetectorSpec, TBFParams, WindowSpec

        if type(self.family) is not SplitMixFamily:
            raise ConfigurationError(
                "spec() requires the default SplitMixFamily; this detector "
                f"uses {type(self.family).__name__}"
            )
        return DetectorSpec(
            algorithm="tbf-time",
            window=WindowSpec("sliding", self.num_entries),
            params=TBFParams(
                self.num_entries, self.family.num_hashes, self.cleanup_slack
            ),
            duration=self.duration,
            resolution=self.resolution,
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
        if self._last_unit is None:
            active = stale = 0
        else:
            now = self._last_unit % self.timestamp_period
            values = self._entries.astype(np.int64)
            occupied = values != self.empty_value
            in_window = (now - values) % self.timestamp_period < self.resolution
            active = int((occupied & in_window).sum())
            stale = int((occupied & ~in_window).sum())
        fill = active / self.num_entries
        return {
            "gauges": {
                "time_unit": self._last_unit if self._last_unit is not None else -1,
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
            f"TimeBasedTBFDetector(T={self.duration}, R={self.resolution}, "
            f"m={self.num_entries}, k={self.num_hashes})"
        )

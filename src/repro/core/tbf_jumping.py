"""TBF over jumping windows with many sub-windows (§4.1 extension).

When a jumping window has a large number of sub-windows ``Q``, the GBF
needs ``ceil((Q+1)/D)`` words per hashed slot and becomes slow; §4.1
notes that the TBF handles this regime naturally: give every element of
the same sub-window the *same* timestamp (the sub-window index), so all
of a sub-window's elements expire from the filter simultaneously —
jumping-window semantics with sliding-window machinery.

Timestamps are measured in sub-window units, so entries need only
``ceil(log2(Q + C + 2))`` bits and the cleaning cursor has
``(C + 1) * N/Q`` arrivals to cover the filter.
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
from .tbf import _dtype_for_bits


class TBFJumpingDetector(CountBasedDetector):
    """One-pass duplicate detector over a count-based jumping window.

    Parameters mirror :class:`~repro.core.gbf.GBFDetector` where they
    overlap; ``cleanup_slack`` is in *sub-window* units and defaults to
    ``Q - 1``.
    """

    def __init__(
        self,
        window_size: int,
        num_subwindows: int,
        num_entries: int,
        num_hashes: int = 4,
        cleanup_slack: Optional[int] = None,
        seed: int = 0,
        family: Optional[HashFamily] = None,
    ) -> None:
        if window_size < 1:
            raise ConfigurationError(f"window_size must be >= 1, got {window_size}")
        if num_subwindows < 1:
            raise ConfigurationError(
                f"num_subwindows must be >= 1, got {num_subwindows}"
            )
        if window_size % num_subwindows != 0:
            raise ConfigurationError(
                f"window_size {window_size} not divisible by Q={num_subwindows}"
            )
        if num_entries < 1:
            raise ConfigurationError(f"num_entries must be >= 1, got {num_entries}")
        if cleanup_slack is None:
            cleanup_slack = num_subwindows - 1
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
        self.num_subwindows = num_subwindows
        self.subwindow_size = window_size // num_subwindows
        self.num_entries = num_entries
        self.cleanup_slack = cleanup_slack
        self.family = family

        self.timestamp_period = num_subwindows + cleanup_slack + 1
        self.entry_bits = max(1, math.ceil(math.log2(self.timestamp_period + 1)))
        self.empty_value = (1 << self.entry_bits) - 1
        self._entries = np.full(
            num_entries, self.empty_value, dtype=_dtype_for_bits(self.entry_bits)
        )
        # Cursor must lap the filter within (C+1) sub-windows of arrivals.
        arrivals_per_lap = (cleanup_slack + 1) * self.subwindow_size
        self._scan_per_element = -(-num_entries // arrivals_per_lap)
        self._clean_cursor = 0
        self._position = -1

        self.counter = OperationCounter()
        #: Duplicate verdicts issued so far (telemetry; kept off the
        #: :class:`OperationCounter` to preserve its equality semantics).
        self.duplicates = 0

    def _clean_step(self, now: int) -> None:
        entries = self._entries
        m = self.num_entries
        period = self.timestamp_period
        active_span = self.num_subwindows
        empty = self.empty_value
        cursor = self._clean_cursor
        reads = 0
        writes = 0
        for _ in range(self._scan_per_element):
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

    def process(self, identifier: int) -> bool:
        """Observe the next click; True means duplicate (not recorded)."""
        self.counter.hash_evaluations += self.family.num_hashes
        return self.process_indices(self.family.indices(identifier))

    def process_indices(self, indices: Sequence[int]) -> bool:
        self._position += 1
        now = (self._position // self.subwindow_size) % self.timestamp_period
        self._clean_step(now)

        entries = self._entries
        period = self.timestamp_period
        active_span = self.num_subwindows
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

    #: Upper bound on one vectorized segment (bounds temp-array memory).
    _MAX_SEGMENT = 1 << 16

    def process_batch(self, identifiers: "np.ndarray") -> "np.ndarray":
        """Observe a batch of clicks; bit-identical to a scalar loop."""
        identifiers = np.asarray(identifiers, dtype=np.uint64)
        if identifiers.ndim != 1:
            raise ValueError(f"identifiers must be 1-D, got {identifiers.ndim}-D")
        self.counter.hash_evaluations += self.family.num_hashes * int(
            identifiers.shape[0]
        )
        return self.process_indices_batch(self.family.indices_batch(identifiers))

    def process_indices_batch(self, indices: "np.ndarray") -> "np.ndarray":
        """Batch variant of :meth:`process_indices`.

        Segments end at sub-window boundaries (the timestamp ``now`` is
        constant inside a sub-window) and after ``m // scan`` arrivals
        (so the cleaning cursor visits each entry at most once).
        """
        idx = np.asarray(indices)
        if idx.ndim != 2:
            raise ValueError(f"indices must be (n, k), got {idx.ndim}-D")
        n = idx.shape[0]
        out = np.empty(n, dtype=bool)
        if n == 0:
            return out
        idx = idx.astype(np.int64, copy=False)
        sub = self.subwindow_size
        cursor_limit = max(1, self.num_entries // self._scan_per_element)
        start = 0
        while start < n:
            first_pos = self._position + 1
            into_sub = first_pos % sub
            seg = min(
                n - start,
                sub - into_sub if into_sub else sub,
                cursor_limit,
                self._MAX_SEGMENT,
            )
            self._process_segment(idx[start : start + seg], out[start : start + seg])
            start += seg
        return out

    def _process_segment(self, idx: "np.ndarray", out: "np.ndarray") -> None:
        n, k = idx.shape
        entries = self._entries
        m = self.num_entries
        period = self.timestamp_period
        active_span = self.num_subwindows
        empty = self.empty_value
        scan = self._scan_per_element
        first_position = self._position + 1
        now = (first_position // self.subwindow_size) % period

        values = entries[idx].astype(np.int64)
        ages = kernels.wrapped_ages(now, values, period)
        active0 = (values != empty) & (ages < active_span)
        dup0 = kernels.row_all(active0)
        duplicate, inserters, writers, covered = resolve_inserts(
            dup0, active0, idx, m
        )
        reads = check_reads(covered)
        ins = np.nonzero(inserters)[0]

        # Cursor sweep over at most two contiguous slices (n * scan <= m
        # by the segment limit): sliced views replace index arrays, and
        # the interleaved per-slice erase is exact because slices are
        # disjoint in entry space.
        total = n * scan
        sweep_element = kernels.repeat_arange(n, scan) if ins.size else None
        cursor = self._clean_cursor
        offset = 0
        clean_writes = 0
        empty_stamp = entries.dtype.type(empty)
        while offset < total:
            length = min(total - offset, m - cursor)
            seg = entries[cursor : cursor + length]
            seg_values = seg.astype(np.int64)
            erase = (seg_values != empty) & (
                kernels.wrapped_ages(now, seg_values, period) >= active_span
            )
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
        if ins.size:
            # Every in-segment insert stamps the same value, so the
            # duplicate-index assignment order cannot matter.
            flat = idx.ravel() if ins.size == n else idx[ins].ravel()
            entries[flat] = entries.dtype.type(now)

        self._clean_cursor = int((self._clean_cursor + n * scan) % m)
        self._position += n
        self.counter.add(n * scan + reads, clean_writes + k * int(ins.size))
        self.counter.elements += n
        self.duplicates += int(np.count_nonzero(duplicate))
        out[:] = duplicate

    def query(self, identifier: int) -> bool:
        return self.query_indices(self.family.indices(identifier))

    def query_indices(self, indices: Sequence[int]) -> bool:
        if self._position < 0:
            return False
        entries = self._entries
        now = (self._position // self.subwindow_size) % self.timestamp_period
        period = self.timestamp_period
        empty = self.empty_value
        for index in indices:
            value = int(entries[index])
            if value == empty or (now - value) % period >= self.num_subwindows:
                return False
        return True

    @property
    def num_hashes(self) -> int:
        return self.family.num_hashes

    @property
    def position(self) -> int:
        return self._position

    @property
    def scan_per_element(self) -> int:
        return self._scan_per_element

    @property
    def memory_bits(self) -> int:
        return self.num_entries * self.entry_bits

    def active_entries(self) -> int:
        """Number of entries currently holding an active timestamp."""
        if self._position < 0:
            return 0
        now = (self._position // self.subwindow_size) % self.timestamp_period
        values = self._entries.astype(np.int64)
        ages = (now - values) % self.timestamp_period
        return int(
            ((values != self.empty_value) & (ages < self.num_subwindows)).sum()
        )

    def stale_entries(self) -> int:
        """Entries holding an expired timestamp not yet swept (diagnostic)."""
        if self._position < 0:
            return 0
        now = (self._position // self.subwindow_size) % self.timestamp_period
        values = self._entries.astype(np.int64)
        ages = (now - values) % self.timestamp_period
        return int(
            ((values != self.empty_value) & (ages >= self.num_subwindows)).sum()
        )

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
            algorithm="tbf-jumping",
            window=WindowSpec("jumping", self.window_size, self.num_subwindows),
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
            now = (self._position // self.subwindow_size) % self.timestamp_period
            values = self._entries.astype(np.int64)
            occupied = values != self.empty_value
            in_window = (
                (now - values) % self.timestamp_period < self.num_subwindows
            )
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
                "rotations": max(self._position, 0) // self.subwindow_size,
            },
            "fills": {
                "entries": fill,
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TBFJumpingDetector(N={self.window_size}, Q={self.num_subwindows}, "
            f"m={self.num_entries}, k={self.num_hashes}, C={self.cleanup_slack})"
        )

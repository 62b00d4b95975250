"""GBF over time-based jumping windows (§3.1 extension).

"Instead of dividing the entire jumping window equally by counting
elements, the time-based jumping window is divided into Q sub-windows
with the same time expansion.  Then each sub-window is equally divided
into R time units.  In Step 1, the cleaning procedure executes once in
each time unit, and scans M/((Q+1)R) entries."

The lane rotation is driven by the clock: sub-window boundaries fall
every ``duration / Q`` time units regardless of arrival counts, and the
expired lane is zeroed across the ``R`` time units of the following
sub-window (``ceil(m / R)`` slots per unit).  Because a sub-window may
contain arbitrarily many — or zero — arrivals, cleaning is funded by
elapsed time units, not by arrivals, and idle gaps longer than a full
lane cycle are fast-forwarded with a bulk wipe.

Storage and op accounting are shared with the count-based GBF via
:class:`~repro.core.lanes.LanePackedBitMatrix`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..bitset.words import OperationCounter
from ..bloom.params import false_positive_rate_from_fill
from ..errors import ConfigurationError, StreamError
from ..hashing import HashFamily, SplitMixFamily
from . import kernels
from .batch import resolve_inserts
from .contract import TimeBasedDetector
from .lanes import LanePackedBitMatrix


class TimeBasedGBFDetector(TimeBasedDetector):
    """Duplicate detector over a time-based jumping window.

    Parameters
    ----------
    duration:
        Window length ``T`` in stream time units.
    num_subwindows:
        ``Q`` equal-duration sub-windows.
    units_per_subwindow:
        ``R``: cleaning granularity within a sub-window.
    bits_per_filter, num_hashes, word_bits, seed, family:
        As in :class:`~repro.core.gbf.GBFDetector`.
    """

    def __init__(
        self,
        duration: float,
        num_subwindows: int,
        bits_per_filter: int,
        num_hashes: int = 4,
        units_per_subwindow: int = 16,
        word_bits: int = 64,
        seed: int = 0,
        family: Optional[HashFamily] = None,
    ) -> None:
        if duration <= 0:
            raise ConfigurationError(f"duration must be > 0, got {duration}")
        if num_subwindows < 1:
            raise ConfigurationError(
                f"num_subwindows must be >= 1, got {num_subwindows}"
            )
        if units_per_subwindow < 1:
            raise ConfigurationError(
                f"units_per_subwindow must be >= 1, got {units_per_subwindow}"
            )
        if bits_per_filter < 1:
            raise ConfigurationError(
                f"bits_per_filter must be >= 1, got {bits_per_filter}"
            )
        if family is None:
            family = SplitMixFamily(num_hashes, bits_per_filter, seed)
        if family.num_buckets != bits_per_filter:
            raise ConfigurationError(
                f"hash family range {family.num_buckets} != bits_per_filter "
                f"{bits_per_filter}"
            )

        self.duration = float(duration)
        self.num_subwindows = num_subwindows
        self.units_per_subwindow = units_per_subwindow
        self.unit_duration = self.duration / (num_subwindows * units_per_subwindow)
        self.bits_per_filter = bits_per_filter
        self.word_bits = word_bits
        self.family = family
        self.num_lanes = num_subwindows + 1

        self.counter = OperationCounter()
        #: Duplicate verdicts issued so far (telemetry; kept off the
        #: :class:`OperationCounter` to preserve its equality semantics).
        self.duplicates = 0
        self._matrix = LanePackedBitMatrix(
            bits_per_filter, self.num_lanes, word_bits, self.counter
        )
        self._clean_per_unit = -(-bits_per_filter // units_per_subwindow)

        self._last_unit: Optional[int] = None
        self._last_time: Optional[float] = None
        self._current_lane = 0
        self._cleaning_lane: Optional[int] = None
        self._clean_cursor = bits_per_filter  # nothing to clean yet
        self._active_masks = [0] * self._matrix.words_per_slot
        self._lane_bit(0, set_active=True)

    # ------------------------------------------------------------------
    # Lane and clock bookkeeping
    # ------------------------------------------------------------------

    def _lane_bit(self, lane: int, set_active: bool) -> None:
        if self._matrix.words_per_slot == 1:
            offset, bit = 0, lane
        else:
            offset, bit = divmod(lane, self.word_bits)
        if set_active:
            self._active_masks[offset] |= 1 << bit
        else:
            self._active_masks[offset] &= ~(1 << bit)

    def _rotate_to_subwindow(self, subwindow: int) -> None:
        new_lane = subwindow % self.num_lanes
        self._current_lane = new_lane
        self._lane_bit(new_lane, set_active=True)
        if subwindow >= self.num_subwindows:
            expired_lane = (subwindow + 1) % self.num_lanes
            self._lane_bit(expired_lane, set_active=False)
            self._cleaning_lane = expired_lane
            self._clean_cursor = 0

    def _clean_units(self, units: int) -> None:
        """Run ``units`` time units' worth of lane cleaning."""
        lane = self._cleaning_lane
        if lane is None or self._clean_cursor >= self.bits_per_filter or units <= 0:
            return
        budget = units * self._clean_per_unit
        self._matrix.clear_lane_range(lane, self._clean_cursor, budget)
        self._clean_cursor = min(self._clean_cursor + budget, self.bits_per_filter)

    def _finish_cleaning_if_due(self) -> None:
        """Force-complete lane cleaning at a rotation boundary.

        ``ceil(m / R)`` per unit guarantees ``R`` units suffice; this
        only mops up when a rotation lands mid-unit.
        """
        if (
            self._cleaning_lane is not None
            and self._clean_cursor < self.bits_per_filter
        ):
            remaining = self.bits_per_filter - self._clean_cursor
            units = -(-remaining // self._clean_per_unit)
            self._clean_units(units)

    def _advance_clock(self, timestamp: float) -> None:
        if self._last_time is not None and timestamp < self._last_time:
            raise StreamError(
                f"timestamp regressed: {timestamp} after {self._last_time}"
            )
        self._last_time = timestamp
        unit = int(timestamp // self.unit_duration)
        if self._last_unit is None:
            self._last_unit = unit
            self._rotate_to_subwindow(unit // self.units_per_subwindow)
            return
        if unit == self._last_unit:
            return
        units_per_sub = self.units_per_subwindow
        old_sub = self._last_unit // units_per_sub
        new_sub = unit // units_per_sub
        if new_sub - old_sub > self.num_lanes:
            # Idle gap longer than the whole lane cycle: every lane has
            # expired.  Wipe and restart the rotation at the new epoch.
            self._matrix.clear_all()
            self._active_masks = [0] * self._matrix.words_per_slot
            self._cleaning_lane = None
            self._clean_cursor = self.bits_per_filter
            self._rotate_to_subwindow(new_sub)
            self._last_unit = unit
            return
        # Walk sub-window boundaries in order, funding cleaning with the
        # units elapsed inside each sub-window.
        current_unit = self._last_unit
        for sub in range(old_sub, new_sub + 1):
            sub_end_unit = (sub + 1) * units_per_sub
            target = min(unit, sub_end_unit - 1)
            if target > current_unit:
                self._clean_units(target - current_unit)
                current_unit = target
            if sub < new_sub:
                # Crossing into sub-window sub + 1: spend the final
                # unit's budget, then rotate.
                self._clean_units(1)
                self._finish_cleaning_if_due()
                self._rotate_to_subwindow(sub + 1)
                current_unit = sub_end_unit
        self._last_unit = unit

    # ------------------------------------------------------------------
    # Stream interface
    # ------------------------------------------------------------------

    def process_at(self, identifier: int, timestamp: float) -> bool:
        """Observe a click at ``timestamp``; True means duplicate."""
        self.counter.hash_evaluations += self.family.num_hashes
        return self.process_indices_at(self.family.indices(identifier), timestamp)

    def process_indices_at(self, indices: Sequence[int], timestamp: float) -> bool:
        self._advance_clock(timestamp)
        combined = self._matrix.probe_and(indices)
        self.counter.elements += 1
        masks = self._active_masks
        for offset, field in enumerate(combined):
            if field & masks[offset]:
                self.duplicates += 1
                return True
        self._matrix.set_lane(indices, self._current_lane)
        return False

    # ------------------------------------------------------------------
    # Batch interface
    # ------------------------------------------------------------------

    def process_batch_at(
        self, identifiers: "np.ndarray", timestamps: "np.ndarray"
    ) -> "np.ndarray":
        """Observe a batch of clicks with timestamps; bit-identical to a
        scalar :meth:`process_at` loop.

        Elements are fused into maximal *sub-window* segments: within
        one sub-window no rotation or idle wipe can occur, and the only
        clock activity is lane cleaning — which touches the cleaning
        lane alone (never in the active mask, never the current lane),
        so sweeps commute with probes and inserts bit-for-bit.  The
        per-unit cleaning calls of a whole segment run as one fused
        variable-run kernel sweep
        (:meth:`~repro.core.lanes.LanePackedBitMatrix.clear_lane_run_lengths`);
        boundary crossings (rotations, idle wipes, mop-up cleaning)
        advance the clock scalar-style between segments — see
        ``docs/performance.md``.  Regressing timestamps raise
        :class:`~repro.errors.StreamError` after the valid prefix is
        processed, matching the scalar loop.
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
        if self._matrix.words_per_slot != 1:
            # Wide layout: keep the scalar path (see GBFDetector).
            for row in range(n):
                out[row] = self.process_at(
                    int(identifiers[row]), float(timestamps[row])
                )
            return out
        previous = np.empty(n, dtype=np.float64)
        previous[0] = self._last_time if self._last_time is not None else -np.inf
        previous[1:] = timestamps[:-1]
        regressions = np.nonzero(timestamps < previous)[0]
        limit = int(regressions[0]) if regressions.size else n
        k = self.family.num_hashes
        self.counter.hash_evaluations += k * min(limit + 1, n)
        if limit:
            idx = self.family.indices_batch(identifiers[:limit]).astype(
                np.int64, copy=False
            )
            units = np.floor_divide(timestamps[:limit], self.unit_duration).astype(
                np.int64
            )
            units_per_sub = self.units_per_subwindow
            start = 0
            while start < limit:
                self._advance_clock(float(timestamps[start]))
                # Segment: the rest of this sub-window.  Re-entering a
                # sub-window is a rotation no-op, so oversized segments
                # split exactly at the cap.
                sub_end = (units[start] // units_per_sub + 1) * units_per_sub
                end = int(np.searchsorted(units, sub_end, side="left"))
                end = min(end, start + 65536)
                self._segment_group(
                    idx[start:end], units[start:end], out[start:end]
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
        self, idx: "np.ndarray", units: "np.ndarray", out: "np.ndarray"
    ) -> None:
        """Fused probe/insert/clean for one sub-window's arrivals.

        Intra-segment cleaning clears only the cleaning lane, which is
        neither active nor current, so running all of the segment's
        per-unit sweeps up front (one fused variable-run kernel call)
        leaves every probe verdict, insert decision, bit mutation, and
        op tally identical to the scalar interleaving.
        """
        n, _ = idx.shape
        matrix = self._matrix
        lane = self._cleaning_lane
        if (
            n > 1
            and lane is not None
            and self._clean_cursor < self.bits_per_filter
        ):
            lengths = np.diff(units) * self._clean_per_unit
            total = int(lengths.sum())
            if total:
                matrix.clear_lane_run_lengths(lane, self._clean_cursor, lengths)
                # min() is absorbing, so the scalar per-call clamps
                # collapse to one.
                self._clean_cursor = min(
                    self._clean_cursor + total, self.bits_per_filter
                )
        fields = matrix.probe_fields_batch(idx)
        self.counter.elements += n
        mask = np.uint64(self._active_masks[0])
        dup0 = (kernels.row_and(fields) & mask) != 0
        cov0 = ((fields >> np.uint64(self._current_lane)) & np.uint64(1)).astype(bool)
        duplicate, inserters, _, _ = resolve_inserts(
            dup0, cov0, idx, matrix.num_slots, need_covered=False
        )
        ins = np.nonzero(inserters)[0]
        if ins.size:
            slots = idx if ins.size == n else idx[ins]
            matrix.or_lane_batch(slots, self._current_lane)
        self.duplicates += int(np.count_nonzero(duplicate))
        out[:] = duplicate

    def query_at(self, identifier: int, timestamp: float) -> bool:
        """Duplicate check at ``timestamp`` without recording the element."""
        indices = self.family.indices(identifier)
        self._advance_clock(timestamp)
        combined = self._matrix.probe_and(indices)
        masks = self._active_masks
        return any(field & masks[offset] for offset, field in enumerate(combined))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def num_hashes(self) -> int:
        return self.family.num_hashes

    @property
    def memory_bits(self) -> int:
        return self._matrix.memory_bits

    def active_lanes(self) -> List[int]:
        lanes = []
        for lane in range(self.num_lanes):
            if self._matrix.words_per_slot == 1:
                offset, bit = 0, lane
            else:
                offset, bit = divmod(lane, self.word_bits)
            if self._active_masks[offset] >> bit & 1:
                lanes.append(lane)
        return lanes

    def lane_bits_set(self, lane: int) -> int:
        """Population count of one lane (testing/diagnostics)."""
        return self._matrix.lane_population(lane)

    @property
    def observed_duplicate_rate(self) -> float:
        """Fraction of processed clicks flagged duplicate so far."""
        return self.duplicates / self.counter.elements if self.counter.elements else 0.0

    def estimated_fp_rate(self) -> float:
        """Live FP estimate ``1 - prod_i (1 - f_i^k)`` over active lanes."""
        product = 1.0
        m = self.bits_per_filter
        k = self.num_hashes
        for lane in self.active_lanes():
            fill = self._matrix.lane_population(lane) / m
            product *= 1.0 - false_positive_rate_from_fill(fill, k)
        return 1.0 - product

    def spec(self):
        """The :class:`~repro.detection.DetectorSpec` rebuilding this detector.

        Exact round trip — ``create_detector(detector.spec())`` yields
        an identically configured detector.  The window spec is
        descriptive only (time-based detectors are sized by their
        params); requires the default hash family and word size.
        """
        from ..detection.detector import DetectorSpec, GBFParams, WindowSpec

        if type(self.family) is not SplitMixFamily:
            raise ConfigurationError(
                "spec() requires the default SplitMixFamily; this detector "
                f"uses {type(self.family).__name__}"
            )
        if self.word_bits != 64:
            raise ConfigurationError(
                f"spec() cannot express word_bits={self.word_bits}"
            )
        return DetectorSpec(
            algorithm="gbf-time",
            window=WindowSpec("jumping", self.num_subwindows, self.num_subwindows),
            params=GBFParams(self.bits_per_filter, self.family.num_hashes),
            duration=self.duration,
            resolution=self.units_per_subwindow,
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
        cleaning = (
            self._cleaning_lane is not None
            and self._clean_cursor < self.bits_per_filter
        )
        subwindow = (
            self._last_unit // self.units_per_subwindow
            if self._last_unit is not None
            else 0
        )
        # One population count per lane, shared by the fill gauges and
        # the FP estimate (same floats as estimated_fp_rate()).
        m = self.bits_per_filter
        k = self.num_hashes
        pops = [self._matrix.lane_population(lane) for lane in range(self.num_lanes)]
        active = self.active_lanes()
        product = 1.0
        for lane in active:
            product *= 1.0 - false_positive_rate_from_fill(pops[lane] / m, k)
        return {
            "gauges": {
                "time_unit": self._last_unit if self._last_unit is not None else -1,
                "estimated_fp_rate": 1.0 - product,
                "observed_duplicate_rate": self.observed_duplicate_rate,
                "clean_cursor": self._clean_cursor if cleaning else 0,
                "active_lanes": len(active),
            },
            "counters": {
                "elements": counter.elements,
                "duplicates": self.duplicates,
                "hash_evaluations": counter.hash_evaluations,
                "word_reads": counter.word_reads,
                "word_writes": counter.word_writes,
                "rotations": subwindow,
            },
            "fills": {
                f"lane{lane}": pops[lane] / m
                for lane in range(self.num_lanes)
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TimeBasedGBFDetector(T={self.duration}, Q={self.num_subwindows}, "
            f"m={self.bits_per_filter}, k={self.num_hashes})"
        )

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

The lane matrix is the GBF's (:class:`~repro.core.gbf.GroupFilter`);
this module is the clock.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..errors import ConfigurationError
from ..hashing import HashFamily
from .contract import HashedTimeDetector
from .gbf import GroupFilter


class TimeBasedGBFDetector(GroupFilter, HashedTimeDetector):
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

    kind = "gbf-time"
    _CONFIG = (
        "duration",
        "num_subwindows",
        "units_per_subwindow",
        "bits_per_filter",
        "word_bits",
    )
    _STATE = ("current_lane", "cleaning_lane", "clean_cursor", "last_unit", "last_time")

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
        self.duration = float(duration)
        self.units_per_subwindow = units_per_subwindow
        self.unit_duration = self.duration / (num_subwindows * units_per_subwindow)
        self._init_lanes(
            num_subwindows, bits_per_filter, num_hashes, word_bits, seed, family
        )
        self._clean_per_unit = -(-bits_per_filter // units_per_subwindow)
        self._last_unit: Optional[int] = None
        self._last_time: Optional[float] = None

    # -- the clock: rotate every T/Q, clean a quota per time unit ---------

    def _finish_cleaning_if_due(self) -> None:
        """Force-complete lane cleaning at a rotation boundary.

        ``ceil(m / R)`` per unit guarantees ``R`` units suffice; this
        only mops up when a rotation lands mid-unit.
        """
        if self._cleaning:
            remaining = self.bits_per_filter - self._clean_cursor
            self._clean(-(-remaining // self._clean_per_unit) * self._clean_per_unit)

    def _advance_clock(self, timestamp: float) -> None:
        unit = self._stamp_unit(timestamp)
        if self._last_unit is None:
            self._last_unit = unit
            self._rotate_to(unit // self.units_per_subwindow)
            return
        if unit == self._last_unit:
            return
        units_per_sub = self.units_per_subwindow
        per_unit = self._clean_per_unit
        old_sub = self._last_unit // units_per_sub
        new_sub = unit // units_per_sub
        if new_sub - old_sub > self.num_lanes:
            # Idle gap longer than the whole lane cycle: every lane has
            # expired.  Wipe and restart the rotation at the new epoch.
            self._matrix.clear_all()
            self._active_masks = [0] * self._matrix.words_per_slot
            self._cleaning_lane = None
            self._clean_cursor = self.bits_per_filter
            self._rotate_to(new_sub)
            self._last_unit = unit
            return
        # Walk sub-window boundaries in order, funding cleaning with the
        # units elapsed inside each sub-window.
        current_unit = self._last_unit
        for sub in range(old_sub, new_sub + 1):
            sub_end_unit = (sub + 1) * units_per_sub
            target = min(unit, sub_end_unit - 1)
            if target > current_unit:
                self._clean((target - current_unit) * per_unit)
                current_unit = target
            if sub < new_sub:
                # Crossing into sub-window sub + 1: spend the final
                # unit's budget, then rotate.
                self._clean(per_unit)
                self._finish_cleaning_if_due()
                self._rotate_to(sub + 1)
                current_unit = sub_end_unit
        self._last_unit = unit

    def process_indices_at(self, indices: Sequence[int], timestamp: float) -> bool:
        self._advance_clock(timestamp)
        return self._insert(indices)

    def _timed_run(self, idx, units, timestamps, start, out) -> int:
        """The rest of click ``start``'s sub-window; returns its end.

        Within one sub-window no rotation or idle wipe can occur, and
        the only clock activity is lane cleaning — which touches the
        cleaning lane alone (never in the active mask, never the
        current lane), so the segment's per-unit sweeps run up front as
        one fused variable-run kernel call
        (:meth:`~repro.core.lanes.LanePackedBitMatrix.clear_lane_run_lengths`)
        and commute with probes and inserts bit-for-bit.  Re-entering a
        sub-window is a rotation no-op, so oversized segments split
        exactly at the cap.  The wide layout runs click by click.
        """
        self._advance_clock(float(timestamps[start]))
        if self._matrix.words_per_slot != 1:
            out[start] = self._insert(idx[start].tolist())
            return start + 1
        per_sub = self.units_per_subwindow
        sub_end = (units[start] // per_sub + 1) * per_sub
        end = int(np.searchsorted(units, sub_end, side="left"))
        end = min(end, start + self._MAX_SEGMENT)
        if end - start > 1 and self._cleaning:
            lengths = np.diff(units[start:end]) * self._clean_per_unit
            total = int(lengths.sum())
            if total:
                self._matrix.clear_lane_run_lengths(
                    self._cleaning_lane, self._clean_cursor, lengths
                )
                # min() is absorbing, so the scalar per-call clamps
                # collapse to one.
                self._clean_cursor = min(
                    self._clean_cursor + total, self.bits_per_filter
                )
        self._fused_probe(idx[start:end], out[start:end])
        return end

    # -- introspection ---------------------------------------------------

    @property
    def current_subwindow(self) -> int:
        """Sub-window of the last seen time unit (0 before any)."""
        if self._last_unit is None:
            return 0
        return self._last_unit // self.units_per_subwindow

    def spec(self):
        """The :class:`~repro.detection.DetectorSpec` rebuilding this detector.

        Exact round trip — ``create_detector(detector.spec())`` yields
        an identically configured detector.  The window spec is
        descriptive only (time-based detectors are sized by their
        params); requires the default hash family and word size.
        """
        from ..detection.detector import DetectorSpec, GBFParams, WindowSpec

        seed = self._spec_seed()
        return DetectorSpec(
            algorithm="gbf-time",
            window=WindowSpec("jumping", self.num_subwindows, self.num_subwindows),
            params=GBFParams(self.bits_per_filter, self.family.num_hashes),
            duration=self.duration,
            resolution=self.units_per_subwindow,
            seed=seed,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TimeBasedGBFDetector(T={self.duration}, Q={self.num_subwindows}, "
            f"m={self.bits_per_filter}, k={self.num_hashes})"
        )

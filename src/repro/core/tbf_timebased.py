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
the tick-by-tick replay.  The table is the TBF's
(:class:`~repro.core.tbf.TimingFilter`); this module is the clock.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..errors import ConfigurationError
from ..hashing import HashFamily
from .contract import HashedTimeDetector, spec_seed
from .tbf import TimingFilter


class TimeBasedTBFDetector(TimingFilter, HashedTimeDetector):
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

    kind = "tbf-time"
    _CONFIG = ("duration", "resolution")
    _STATE = ("clean_cursor", "last_unit", "last_time")

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
        if cleanup_slack is None:
            cleanup_slack = resolution - 1
        self.duration = float(duration)
        self.resolution = resolution
        self.unit_duration = self.duration / resolution
        # Wraparound period: count-based TBFs use N + C + 1 because the
        # cleaning cursor provably re-visits every entry within C + 1
        # *arrivals* of it expiring.  With a wall clock, cleaning only
        # runs at arrival instants, so a re-visit can be late by one
        # inter-arrival gap — bounded by R units (longer gaps trigger
        # the full wipe).  An entry kept at age <= R-1 is therefore
        # re-visited at age < (R-1) + (C+1) + R, so the period must
        # exceed 2R + C for expired ages to stay distinguishable.
        self._init_table(
            num_entries,
            num_hashes,
            cleanup_slack,
            seed,
            family,
            span=resolution,
            period=2 * resolution + cleanup_slack + 1,
        )
        self._scan_per_unit = -(-num_entries // (cleanup_slack + 1))
        self._last_unit: Optional[int] = None
        self._last_time: Optional[float] = None

    # -- the clock: one tick per time unit ---------------------------------

    def _tick(self) -> Optional[int]:
        return self._last_unit

    def _advance_clock(self, timestamp: float) -> int:
        """Run the per-unit cleaning for every unit elapsed; return ``now``."""
        unit = self._stamp_unit(timestamp)
        now = unit % self.timestamp_period
        elapsed = 0 if self._last_unit is None else unit - self._last_unit
        self._last_unit = unit
        if elapsed <= 0:
            return now
        if elapsed >= self.resolution:
            # Everything in the filter predates the window: wipe it.
            stale = int((self._entries != self.empty_value).sum())
            self._entries.fill(self.empty_value)
            self.counter.add(self.num_entries, stale)
            self._clean_cursor = 0
            return now
        self._sweep(now, min(elapsed * self._scan_per_unit, self.num_entries))
        return now

    def process_indices_at(self, indices: Sequence[int], timestamp: float) -> bool:
        return self._insert_at(indices, self._advance_clock(timestamp))

    def _timed_run(self, idx, units, timestamps, start, out) -> int:
        """One multi-unit segment from click ``start``; returns its end.

        The segment spans every later click less than one resolution of
        units after the first (no idle wipe, in-segment stamps stay
        active throughout), as long as the per-click cleaning quotas
        fused into it stay within one cursor lap.  Row ``i`` runs at
        tick offset ``units[i] - units[start]`` and sweeps the quota of
        the units elapsed since the row before it.
        """
        now0 = self._advance_clock(float(timestamps[start]))
        end = int(np.searchsorted(units, units[start] + self.resolution, side="left"))
        end = min(end, start + self._MAX_SEGMENT)
        budgets = np.minimum(
            np.diff(units[start:end]) * self._scan_per_unit, self.num_entries
        )
        lap = int(np.searchsorted(np.cumsum(budgets), self.num_entries, side="right"))
        end = min(end, start + 1 + lap)
        self._fused_segment(
            idx[start:end],
            now0,
            units[start:end] - units[start],
            np.repeat(np.arange(1, end - start), budgets[: end - start - 1]),
            out[start:end],
        )
        return end

    # -- introspection ---------------------------------------------------

    def spec(self):
        """The :class:`~repro.detection.DetectorSpec` rebuilding this detector.

        Exact round trip — ``create_detector(detector.spec())`` yields
        an identically configured detector.  The window spec is
        descriptive only (time-based detectors are sized by their
        params); requires the default SplitMixFamily.
        """
        from ..detection.detector import DetectorSpec, TBFParams, WindowSpec

        return DetectorSpec(
            algorithm="tbf-time",
            window=WindowSpec("sliding", self.num_entries),
            params=TBFParams(self.num_entries, self.num_hashes, self.cleanup_slack),
            duration=self.duration,
            resolution=self.resolution,
            seed=spec_seed(self.family),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TimeBasedTBFDetector(T={self.duration}, R={self.resolution}, "
            f"m={self.num_entries}, k={self.num_hashes})"
        )

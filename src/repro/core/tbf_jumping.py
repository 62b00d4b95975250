"""TBF over jumping windows with many sub-windows (§4.1 extension).

When a jumping window has a large number of sub-windows ``Q``, the GBF
needs ``ceil((Q+1)/D)`` words per hashed slot and becomes slow; §4.1
notes that the TBF handles this regime naturally: give every element of
the same sub-window the *same* timestamp (the sub-window index), so all
of a sub-window's elements expire from the filter simultaneously —
jumping-window semantics with sliding-window machinery.

Timestamps are measured in sub-window units, so entries need only
``ceil(log2(Q + C + 2))`` bits and the cleaning cursor has
``(C + 1) * N/Q`` arrivals to cover the filter.  The table is the
TBF's (:class:`~repro.core.tbf.TimingFilter`); this module is the
clock: one tick per sub-window of arrivals.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..bloom.params import false_positive_rate
from ..errors import ConfigurationError
from ..hashing import HashFamily
from . import kernels
from .contract import HashedCountDetector, index_matrix, spec_seed
from .tbf import TimingFilter


class TBFJumpingDetector(TimingFilter, HashedCountDetector):
    """One-pass duplicate detector over a count-based jumping window.

    Parameters mirror :class:`~repro.core.gbf.GBFDetector` where they
    overlap; ``cleanup_slack`` is in *sub-window* units and defaults to
    ``Q - 1``.
    """

    kind = "tbf-jumping"
    _CONFIG = ("window_size", "num_subwindows")
    _STATE = ("position", "clean_cursor")

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
        if cleanup_slack is None:
            cleanup_slack = num_subwindows - 1
        self.window_size = window_size
        self.num_subwindows = num_subwindows
        self.subwindow_size = window_size // num_subwindows
        self._init_table(
            num_entries,
            num_hashes,
            cleanup_slack,
            seed,
            family,
            span=num_subwindows,
            period=num_subwindows + cleanup_slack + 1,
        )
        # Cursor must lap the filter within (C+1) sub-windows of arrivals.
        arrivals_per_lap = (cleanup_slack + 1) * self.subwindow_size
        self._scan_per_element = -(-num_entries // arrivals_per_lap)
        self._position = -1

    # -- the clock: one tick per sub-window of arrivals -------------------

    def _tick(self) -> Optional[int]:
        return self._position // self.subwindow_size if self._position >= 0 else None

    def process_indices(self, indices: Sequence[int]) -> bool:
        """Observe the next click given pre-computed hash indices."""
        self._position += 1
        now = (self._position // self.subwindow_size) % self.timestamp_period
        self._sweep(now, self._scan_per_element)
        return self._insert_at(indices, now)

    def process_indices_batch(self, indices: "np.ndarray") -> "np.ndarray":
        """Batch variant of :meth:`process_indices`.

        Segments end at sub-window boundaries (the timestamp ``now`` is
        constant inside a sub-window, so every row's tick offset is 0)
        and after ``m // scan`` arrivals (so the cleaning cursor visits
        each entry at most once).
        """
        idx = index_matrix(indices)
        n = idx.shape[0]
        out = np.empty(n, dtype=bool)
        sub = self.subwindow_size
        scan = self._scan_per_element
        cursor_limit = max(1, self.num_entries // scan)
        start = 0
        while start < n:
            first = self._position + 1
            count = min(n - start, sub - first % sub, cursor_limit, self._MAX_SEGMENT)
            self._fused_segment(
                idx[start : start + count],
                (first // sub) % self.timestamp_period,
                np.zeros(count, dtype=np.int64),
                kernels.repeat_arange(count, scan),
                out[start : start + count],
            )
            self._position += count
            start += count
        return out

    # -- introspection ---------------------------------------------------

    @property
    def position(self) -> int:
        return self._position

    @property
    def scan_per_element(self) -> int:
        return self._scan_per_element

    def telemetry_snapshot(self) -> dict:
        """Health metrics, plus the sub-window boundaries crossed."""
        snapshot = super().telemetry_snapshot()
        snapshot["counters"]["rotations"] = self._tick() or 0
        return snapshot

    def theoretical_fp_bound(self) -> float:
        """§4.1: the active span covers the window plus the in-progress
        sub-window, ``f(m, N + N/Q, k)``."""
        return false_positive_rate(
            self.num_entries,
            self.window_size + self.subwindow_size,
            self.num_hashes,
        )

    def spec(self):
        """The :class:`~repro.detection.DetectorSpec` rebuilding this detector.

        Exact round trip — ``create_detector(detector.spec())`` yields
        an identically configured detector.  Requires the default
        SplitMixFamily (a custom family cannot ride a spec).
        """
        from ..detection.detector import DetectorSpec, TBFParams, WindowSpec

        return DetectorSpec(
            algorithm="tbf-jumping",
            window=WindowSpec("jumping", self.window_size, self.num_subwindows),
            params=TBFParams(self.num_entries, self.num_hashes, self.cleanup_slack),
            seed=spec_seed(self.family),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TBFJumpingDetector(N={self.window_size}, Q={self.num_subwindows}, "
            f"m={self.num_entries}, k={self.num_hashes}, C={self.cleanup_slack})"
        )

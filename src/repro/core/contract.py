"""The detector contract: ``timed``, ``observe`` and ``observe_batch``.

Every detector in the library — the core variants, the baselines, and
the sharded, parallel, cluster and adaptive tiers above them — answers
one surface, described by :class:`repro.detection.api.Detector`:

``timed``
    ``False`` when the window ages per arrival, ``True`` when it ages by
    the caller's clock.
``observe(identifier, timestamp=None)``
    One click; ``True`` means duplicate (do not bill).
``observe_batch(identifiers, timestamps=None)``
    Verdicts for parallel 1-D arrays, bit-identical to an ``observe``
    loop.

Count-based detectors ignore the timestamps; time-based ones raise
:class:`~repro.errors.ConfigurationError` when they are missing.  The
two base classes below give every variant the contract.  They forward
to the variant's own scalar reference loop (``process`` /
``process_at``) and batch path (``process_batch`` /
``process_batch_at``), looking the method up on every call, so a batch
method patched on the class (a profiler, a fault injector) is the one
the contract reaches.  A variant without a vectorized batch path
inherits :func:`scalar_loop` as its batch method.

Variants built on one hash family share two more pieces:
:class:`HashedCountDetector` is the count entry (hash one click or a
whole batch, then hand the indices to the variant's ``*_indices*``
paths) and :class:`HashedTimeDetector` is the timed one, whose batch
entry processes the valid prefix of a batch and refuses the first
regressing stamp exactly where the scalar loop would.
:func:`theoretical_fp_bound` is the one lookup of a detector's a-priori
FP bound.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError, StreamError
from ..hashing import SplitMixFamily

__all__ = [
    "CountBasedDetector",
    "HashedCountDetector",
    "HashedTimeDetector",
    "TimeBasedDetector",
    "batch_arrays",
    "index_matrix",
    "require_query",
    "require_timestamps",
    "scalar_loop",
    "spec_seed",
    "theoretical_fp_bound",
    "worst_fp_bound",
]


def scalar_loop(
    process: Callable[..., bool], identifiers, timestamps=None
) -> np.ndarray:
    """Verdicts of ``process`` called click by click, as a bool array.

    ``process`` gets ``(identifier, timestamp)`` when ``timestamps`` is
    given and ``(identifier,)`` otherwise.
    """
    identifiers = np.asarray(identifiers, dtype=np.uint64)
    if timestamps is None:
        verdicts = (process(int(identifier)) for identifier in identifiers)
    else:
        verdicts = (
            process(int(identifier), float(timestamp))
            for identifier, timestamp in zip(
                identifiers, np.asarray(timestamps, dtype=np.float64)
            )
        )
    return np.fromiter(verdicts, dtype=bool, count=identifiers.shape[0])


def require_timestamps(detector, timestamps, method: str = "observe_batch"):
    """``timestamps``, or :class:`ConfigurationError` when it is ``None``."""
    if timestamps is None:
        raise ConfigurationError(
            f"{type(detector).__name__} is time-based; {method}() needs "
            "timestamps"
        )
    return timestamps


def require_query(detector, timed: bool) -> None:
    """Refuse the side-effect-free check of the other time model.

    Count-based detectors answer ``query(identifier)`` and time-based
    ones ``query_at(identifier, timestamp)``; a tier offering both
    raises :class:`ConfigurationError` naming the one it answers.
    """
    if bool(detector.timed) != timed:
        use = (
            "query_at(identifier, timestamp)"
            if detector.timed
            else "query(identifier)"
        )
        model = "time-based" if detector.timed else "count-based"
        raise ConfigurationError(
            f"{type(detector).__name__} is {model}; use {use}"
        )


def batch_arrays(
    detector, identifiers, timestamps
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Checked arrays for one ``observe_batch`` call on a tier.

    Returns 1-D uint64 identifiers and, when ``detector`` is time-based,
    float64 timestamps of the same shape; count-based detectors get
    ``None`` in place of the timestamps they ignore.  The checks run
    before any routing, so a refused batch changes no state.
    """
    identifiers = np.asarray(identifiers, dtype=np.uint64)
    if identifiers.ndim != 1:
        raise ValueError(f"identifiers must be 1-D, got {identifiers.ndim}-D")
    if not detector.timed:
        return identifiers, None
    timestamps = np.asarray(require_timestamps(detector, timestamps), dtype=np.float64)
    if timestamps.shape != identifiers.shape:
        raise ValueError(
            f"timestamps shape {timestamps.shape} != identifiers "
            f"shape {identifiers.shape}"
        )
    return identifiers, timestamps


class CountBasedDetector:
    """The contract for windows that age per arrival (timestamps ignored)."""

    timed = False

    def observe(self, identifier: int, timestamp: Optional[float] = None) -> bool:
        """Observe one click; ``True`` means duplicate."""
        return self.process(identifier)

    def observe_batch(self, identifiers, timestamps=None) -> np.ndarray:
        """Verdicts for a batch of clicks, as an ``observe`` loop would give."""
        return self.process_batch(identifiers)

    def process_batch(self, identifiers) -> np.ndarray:
        """The scalar loop over :meth:`process`; vectorized variants override it."""
        return scalar_loop(self.process, identifiers)


class TimeBasedDetector:
    """The contract for windows that age by the caller's clock."""

    timed = True

    def observe(self, identifier: int, timestamp: Optional[float] = None) -> bool:
        """Observe one click at ``timestamp``; ``True`` means duplicate."""
        return self.process_at(identifier, require_timestamps(self, timestamp, "observe"))

    def observe_batch(self, identifiers, timestamps=None) -> np.ndarray:
        """Verdicts for a batch of clicks, as an ``observe`` loop would give."""
        return self.process_batch_at(identifiers, require_timestamps(self, timestamps))

    def process_batch_at(self, identifiers, timestamps) -> np.ndarray:
        """The scalar loop over :meth:`process_at`; vectorized variants override it."""
        return scalar_loop(self.process_at, identifiers, timestamps)


def index_matrix(indices) -> np.ndarray:
    """A batch's ``(n, k)`` hash indices as int64, refusing other shapes."""
    idx = np.asarray(indices)
    if idx.ndim != 2:
        raise ValueError(f"indices must be (n, k), got {idx.ndim}-D")
    return idx.astype(np.int64, copy=False)


def spec_seed(family) -> int:
    """``family``'s seed, which a spec carries; only the default
    :class:`~repro.hashing.SplitMixFamily` rides a spec."""
    if type(family) is not SplitMixFamily:
        raise ConfigurationError(
            "spec() requires the default SplitMixFamily; this detector "
            f"uses {type(family).__name__}"
        )
    return family.seed


class HashedCountDetector(CountBasedDetector):
    """The count entry of a variant built on one hash family.

    The variant supplies ``family``, ``counter`` and its index paths:
    ``process_indices`` (the scalar reference step),
    ``process_indices_batch`` (``(n, k)`` indices in, verdicts out) and
    ``query_indices``.  Both entries tally ``num_hashes`` evaluations
    per click.  A variant whose clock is the arrival position keeps it
    in ``_position``.
    """

    def process(self, identifier: int) -> bool:
        """Observe the next click; ``True`` means duplicate (not recorded)."""
        self.counter.hash_evaluations += self.family.num_hashes
        return self.process_indices(self.family.indices(identifier))

    def process_batch(self, identifiers) -> np.ndarray:
        """Verdicts for a batch of clicks, bit-identical to a :meth:`process`
        loop: one hashing call, then the variant's batch path."""
        identifiers, _ = batch_arrays(self, identifiers, None)
        self.counter.hash_evaluations += self.family.num_hashes * int(
            identifiers.shape[0]
        )
        return self.process_indices_batch(self.family.indices_batch(identifiers))

    def query(self, identifier: int) -> bool:
        """Side-effect-free duplicate check against the current window."""
        return self.query_indices(self.family.indices(identifier))

    def _clock_gauge(self) -> dict:
        """The telemetry gauge of an arrival clock: the last position."""
        return {"position": self._position}


class HashedTimeDetector(TimeBasedDetector):
    """The timed entry of a variant built on one hash family.

    The variant supplies ``family``, ``counter``, ``unit_duration``, the
    clock state ``_last_time`` / ``_last_unit``, ``_advance_clock``
    (which starts with :meth:`_stamp_unit`), ``process_indices_at`` (the
    scalar reference step), ``query_indices`` (a check at the clock's
    current unit) and ``_timed_run`` (one batch segment).
    """

    def process_at(self, identifier: int, timestamp: float) -> bool:
        """Observe a click at ``timestamp``; ``True`` means duplicate."""
        self.counter.hash_evaluations += self.family.num_hashes
        return self.process_indices_at(self.family.indices(identifier), timestamp)

    def query_at(self, identifier: int, timestamp: float) -> bool:
        """Duplicate check at ``timestamp`` without recording the element.

        Advances the clock (time passes regardless) but does not insert.
        """
        indices = self.family.indices(identifier)
        self._advance_clock(timestamp)
        return self.query_indices(indices)

    def _clock_gauge(self) -> dict:
        """The telemetry gauge of a time clock: the last unit (-1 before any)."""
        return {"time_unit": self._last_unit if self._last_unit is not None else -1}

    def _stamp_unit(self, timestamp: float) -> int:
        """Refuse a regressing ``timestamp``, record it, return its time unit."""
        if self._last_time is not None and timestamp < self._last_time:
            raise StreamError(
                f"timestamp regressed: {timestamp} after {self._last_time}"
            )
        self._last_time = timestamp
        return int(timestamp // self.unit_duration)

    def process_batch_at(self, identifiers, timestamps) -> np.ndarray:
        """Verdicts for a batch of timestamped clicks, bit-identical to a
        :meth:`process_at` loop.

        The valid prefix (every click before the first stamp that
        regresses against the clock or its predecessor) is hashed in one
        call, its stamps floor-divided into time units, and run through
        the variant's ``_timed_run(idx, units, timestamps, start, out)``,
        which advances the clock to click ``start`` scalar-style,
        processes one segment and returns where it ends.  A regressing
        stamp then raises :class:`~repro.errors.StreamError` as the
        scalar loop would: the clicks before it are fully processed, its
        hashes are tallied (``process_at`` hashes before the clock
        refuses), and it is not processed.
        """
        identifiers, timestamps = batch_arrays(self, identifiers, timestamps)
        n = identifiers.shape[0]
        out = np.empty(n, dtype=bool)
        if n == 0:
            return out
        previous = np.empty(n, dtype=np.float64)
        previous[0] = self._last_time if self._last_time is not None else -np.inf
        previous[1:] = timestamps[:-1]
        regressions = np.nonzero(timestamps < previous)[0]
        limit = int(regressions[0]) if regressions.size else n
        self.counter.hash_evaluations += self.family.num_hashes * min(limit + 1, n)
        if limit:
            idx = self.family.indices_batch(identifiers[:limit]).astype(
                np.int64, copy=False
            )
            units = np.floor_divide(timestamps[:limit], self.unit_duration).astype(
                np.int64
            )
            start = 0
            while start < limit:
                end = self._timed_run(idx, units, timestamps, start, out)
                self._last_time = float(timestamps[end - 1])
                self._last_unit = int(units[end - 1])
                start = end
        if limit < n:
            raise StreamError(
                f"timestamp regressed: {float(timestamps[limit])} "
                f"after {float(previous[limit])}"
            )
        return out


def theoretical_fp_bound(detector) -> Optional[float]:
    """A-priori FP bound of ``detector``'s configuration, if derivable.

    Every detector that has one answers ``theoretical_fp_bound()``: the
    GBF (Theorem 1), TBF (Theorem 2) and jumping TBF (§4.1) apply their
    formula to their configuration, the APBF its closed form, and the
    sharded, parallel, cluster-slice and adaptive tiers answer for the
    shards or inner detector they run.  Time-based variants have none
    (the element count per window is load-dependent): ``None``.
    """
    bound = getattr(detector, "theoretical_fp_bound", None)
    return None if bound is None else bound()


def worst_fp_bound(detectors: Iterable) -> Optional[float]:
    """The maximum :func:`theoretical_fp_bound` over ``detectors``
    (``None`` when none of them has one)."""
    bounds = [
        bound
        for bound in map(theoretical_fp_bound, detectors)
        if bound is not None
    ]
    return max(bounds) if bounds else None

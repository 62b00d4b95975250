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
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError

__all__ = [
    "CountBasedDetector",
    "TimeBasedDetector",
    "batch_arrays",
    "require_query",
    "require_timestamps",
    "scalar_loop",
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

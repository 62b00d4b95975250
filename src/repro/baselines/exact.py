"""Exact duplicate detection — the ground truth every sketch is judged by.

Implements Definition 1 of the paper literally: a click is a duplicate
iff an identical click *previously accepted as valid* is still inside
the current decaying window.  State is a hash map from identifier to the
position of its most recent valid occurrence plus an arrival queue for
expiry, so memory grows with the number of distinct active clicks —
exactly the cost the paper's sketches avoid, which is why this class is
the reference labeler for experiments rather than a production detector.

Works over any count-based window model (sliding, jumping, landmark)
and has a time-based twin.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Tuple

from ..core.contract import CountBasedDetector, TimeBasedDetector
from ..errors import ConfigurationError
from ..windows import (
    CountBasedWindow,
    JumpingWindow,
    LandmarkWindow,
    SlidingWindow,
    TimeBasedWindow,
)


class ExactDetector(CountBasedDetector):
    """Zero-error duplicate detector over a count-based window model.

    Parameters
    ----------
    window:
        Any :class:`~repro.windows.CountBasedWindow`; the detector
        defers all expiry semantics to it.
    """

    def __init__(self, window: CountBasedWindow) -> None:
        self.window = window
        self._last_valid: Dict[int, int] = {}
        self._arrivals: Deque[Tuple[int, int]] = deque()
        self.duplicates = 0
        self.valid = 0

    @classmethod
    def sliding(cls, window_size: int) -> "ExactDetector":
        return cls(SlidingWindow(window_size))

    @classmethod
    def jumping(cls, window_size: int, num_subwindows: int) -> "ExactDetector":
        return cls(JumpingWindow(window_size, num_subwindows))

    @classmethod
    def landmark(cls, window_size: int) -> "ExactDetector":
        return cls(LandmarkWindow(window_size))

    def process(self, identifier: int) -> bool:
        """Observe the next click; True means duplicate (exactly)."""
        self.window.observe()
        self._purge()
        last = self._last_valid.get(identifier)
        if last is not None and self.window.is_active(last):
            self.duplicates += 1
            return True
        position = self.window.position
        self._last_valid[identifier] = position
        self._arrivals.append((position, identifier))
        self.valid += 1
        return False

    def query(self, identifier: int) -> bool:
        last = self._last_valid.get(identifier)
        return last is not None and self.window.is_active(last)

    def _purge(self) -> None:
        """Drop expired valid records so memory tracks the active window."""
        arrivals = self._arrivals
        last_valid = self._last_valid
        window = self.window
        while arrivals and not window.is_active(arrivals[0][0]):
            position, identifier = arrivals.popleft()
            if last_valid.get(identifier) == position:
                del last_valid[identifier]

    def active_distinct(self) -> int:
        """Number of distinct valid clicks currently in the window."""
        self._purge()
        return len(self._last_valid)

    @property
    def memory_bits(self) -> int:
        """Rough modeled cost: 128 bits (id + position) per tracked record."""
        return 128 * (len(self._last_valid) + len(self._arrivals))

    def spec(self):
        """The :class:`~repro.detection.DetectorSpec` rebuilding this detector."""
        from ..detection.detector import DetectorSpec, WindowSpec

        window = self.window
        if type(window) is SlidingWindow:
            window_spec = WindowSpec("sliding", window.size)
        elif type(window) is JumpingWindow:
            window_spec = WindowSpec("jumping", window.size, window.num_subwindows)
        elif type(window) is LandmarkWindow:
            window_spec = WindowSpec("landmark", window.size)
        else:
            raise ConfigurationError(
                f"spec() cannot express window type {type(window).__name__}"
            )
        return DetectorSpec(algorithm="exact", window=window_spec)


class TimeBasedExactDetector(TimeBasedDetector):
    """Zero-error duplicate detector over a time-based window model."""

    def __init__(self, window: TimeBasedWindow) -> None:
        self.window = window
        self._last_valid: Dict[int, float] = {}
        self._arrivals: Deque[Tuple[float, int]] = deque()
        self.duplicates = 0
        self.valid = 0

    def process_at(self, identifier: int, timestamp: float) -> bool:
        self.window.observe_at(timestamp)
        self._purge()
        last = self._last_valid.get(identifier)
        if last is not None and self.window.is_active(last):
            self.duplicates += 1
            return True
        self._last_valid[identifier] = timestamp
        self._arrivals.append((timestamp, identifier))
        self.valid += 1
        return False

    def query(self, identifier: int) -> bool:
        last = self._last_valid.get(identifier)
        return last is not None and self.window.is_active(last)

    def _purge(self) -> None:
        arrivals = self._arrivals
        last_valid = self._last_valid
        window = self.window
        while arrivals and not window.is_active(arrivals[0][0]):
            timestamp, identifier = arrivals.popleft()
            if last_valid.get(identifier) == timestamp:
                del last_valid[identifier]

    @property
    def memory_bits(self) -> int:
        return 128 * (len(self._last_valid) + len(self._arrivals))

"""Backlog-driven request coalescing for the ingest server.

Many small client batches amortize poorly: the vectorized detectors
want thousands of identifiers per call, but a latency-sensitive client
may ship a few hundred at a time.  The :class:`Coalescer` sits between
the connection readers and the detection engine and groups pending
requests into engine batches.  A group is emitted on one of three
events:

* **size** — as soon as the pending clicks reach ``max_batch``, the
  group is emitted (an engine batch therefore holds at most
  ``max_batch`` clicks, except when a *single* request alone exceeds it;
  requests are never split, because each maps to exactly one verdict
  frame).
* **idle** — the engine has taken everything that was queued and found
  nothing more (:meth:`idle`).  With the default ``max_delay=0`` the
  group goes at once, so a group is whatever queued while the engine
  was busy: a lone request at low load waits for nothing, and under
  load frames pile up during each detector call, so groups grow with
  the backlog ("smart batching").
* **deadline** — with an opt-in ``max_delay > 0``, a short group is
  instead held for batch-mates until its oldest request has waited
  ``max_delay`` seconds (:meth:`poll`), then emitted short.

Flush semantics deliberately mirror the batch-shape contract of
:func:`repro.streams.io.read_batches`: emitted groups are never empty,
never padded, and a final :meth:`flush` emits the ``1 .. max_batch``
leftovers as-is — so draining the coalescer, like exhausting a stream
file, loses nothing and invents nothing.

The class is synchronous and event-loop-free on purpose: the server
drives it from its engine task, and the unit tests drive it with a fake
clock.
"""

from __future__ import annotations

import time
from typing import Any, Callable, List, Optional, Tuple

from ..errors import ConfigurationError

__all__ = ["Coalescer"]


class Coalescer:
    """Group (item, click-count) pairs into bounded engine batches."""

    def __init__(
        self,
        max_batch: int = 8192,
        max_delay: float = 0.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_batch < 1:
            raise ConfigurationError(f"max_batch must be >= 1, got {max_batch}")
        if max_delay < 0:
            raise ConfigurationError(f"max_delay must be >= 0, got {max_delay}")
        self.max_batch = max_batch
        self.max_delay = max_delay
        self._clock = clock
        self._pending: List[Tuple[Any, int]] = []
        self._pending_clicks = 0
        self._oldest_at: Optional[float] = None

    @property
    def pending_items(self) -> int:
        return len(self._pending)

    @property
    def pending_clicks(self) -> int:
        return self._pending_clicks

    @property
    def deadline(self) -> Optional[float]:
        """Clock time by which the pending group must be emitted.

        ``None`` when nothing is pending — the engine can then wait on
        its queue without a timeout.
        """
        if self._oldest_at is None:
            return None
        return self._oldest_at + self.max_delay

    def add(self, item: Any, count: int) -> Optional[List[Any]]:
        """Admit one request of ``count`` clicks.

        Returns the completed group when this request fills it (pending
        clicks reached ``max_batch``), else ``None`` — the request is
        held for a later :meth:`add`, :meth:`poll`, or :meth:`flush`.
        ``count`` may be zero (an empty batch still owes a verdict
        frame); zero-click items never delay emission on their own.
        """
        if count < 0:
            raise ConfigurationError(f"count must be >= 0, got {count}")
        if self._oldest_at is None:
            self._oldest_at = self._clock()
        self._pending.append((item, count))
        self._pending_clicks += count
        if self._pending_clicks >= self.max_batch:
            return self.flush()
        return None

    def requeue(self, pairs: List[Tuple[Any, int]]) -> None:
        """Put an emitted group *back*, ahead of everything pending.

        The engine-restart path: a group handed out by :meth:`add`/
        :meth:`flush` whose processing was interrupted before it
        touched the detector is returned intact, in its original order,
        at the front — so the restarted consumer classifies it first
        and admission order is preserved.  The requeued group counts
        as the oldest pending work: the deadline clock restarts now
        (the original wait was already paid once).
        """
        if not pairs:
            return
        for _item, count in pairs:
            if count < 0:
                raise ConfigurationError(f"count must be >= 0, got {count}")
        self._pending[:0] = pairs
        self._pending_clicks += sum(count for _item, count in pairs)
        if self._oldest_at is None:
            self._oldest_at = self._clock()

    def poll(self) -> Optional[List[Any]]:
        """Emit the pending group iff its deadline has passed."""
        deadline = self.deadline
        if deadline is not None and self._clock() >= deadline:
            return self.flush()
        return None

    def idle(self) -> Optional[List[Any]]:
        """The consumer found nothing more queued: emit or keep waiting.

        With ``max_delay == 0`` nothing is worth waiting for, so the
        pending group is emitted at once.  With ``max_delay > 0`` it is
        held for batch-mates (``None``); :meth:`poll` emits it at its
        deadline.
        """
        if self.max_delay == 0:
            return self.flush()
        return None

    def flush(self) -> Optional[List[Any]]:
        """Emit whatever is pending, short or not; ``None`` when empty.

        The drain path: like the final short batch of
        :func:`repro.streams.io.read_batches`, leftovers come out
        exactly as accumulated and an empty coalescer emits nothing.
        """
        if not self._pending:
            return None
        group = [item for item, _count in self._pending]
        self._pending = []
        self._pending_clicks = 0
        self._oldest_at = None
        return group

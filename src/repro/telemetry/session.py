"""TelemetrySession: one handle bundling registry, tracer, instruments.

The session is what pipelines accept: it owns the metrics registry and
the tracer, and tracks the instruments whose series are computed from
live state (detector fills and FP estimates, stage-latency quantiles).

Collection is pull-based.  The session is a collector of its registry,
so every read — ``registry.snapshot()``, ``to_prometheus()``,
``state_dict()`` — first collects every instrument, and what it reads
is exact at that moment.  Nothing is computed while nobody reads:
``advance(n)`` only drives the subscriber cadence, firing :meth:`emit`
every ``snapshot_every`` clicks once someone subscribed with
:meth:`on_snapshot`.

An instrument belongs to the event loop it was added on; a serve node
builds its pipeline on its own loop.  A read from another thread runs
that loop's instruments on the loop, between engine groups, and waits
for them; a read on the loop itself, or once the loop has stopped,
runs them inline.  This matters beyond tidiness: the parallel engine
answers a collect through the request rings its engine task writes,
and those rings allow a single producer.

``TelemetrySession.disabled()`` wires the null registry and null tracer
together; pipelines hold that by default, so instrumented code paths
run with single no-op calls instead of branches.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import threading
from typing import Any, Callable, Dict, List, Optional

from .instruments import DetectorInstrument
from .registry import MetricsRegistry, NullRegistry
from .tracing import NullTracer, Tracer

__all__ = ["TelemetrySession"]

#: Seconds between checks, while waiting on another loop, that it still runs.
_LOOP_POLL = 0.05


def _running_loop() -> Optional[asyncio.AbstractEventLoop]:
    try:
        return asyncio.get_running_loop()
    except RuntimeError:
        return None


def _wait_on_loop(loop: asyncio.AbstractEventLoop, work: Callable[[], None]) -> None:
    """Run ``work`` on ``loop``'s thread and wait for it to finish.

    If the loop stops before it gets to ``work``, run it here instead:
    with the loop gone, nothing else touches what ``work`` reads.
    """
    claim = threading.Lock()
    done: "concurrent.futures.Future" = concurrent.futures.Future()

    def run() -> None:
        if not claim.acquire(blocking=False):
            return  # the other side got here first
        try:
            work()
        except BaseException as error:
            # The waiter re-raises it; an interrupt or exit still
            # propagates on this thread too.
            done.set_exception(error)
            if not isinstance(error, Exception):
                raise
        else:
            done.set_result(None)

    try:
        loop.call_soon_threadsafe(run)
    except RuntimeError:  # closed since the caller looked
        run()
    while True:
        try:
            return done.result(timeout=_LOOP_POLL)
        except concurrent.futures.TimeoutError:
            if not loop.is_running():
                run()


class TelemetrySession:
    """Bundle of registry + tracer + instruments + snapshot cadence."""

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        snapshot_every: int = 10_000,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer()
        self.snapshot_every = max(1, int(snapshot_every))
        self._callbacks: List[Callable[[Dict[str, Any]], None]] = []
        self._since_snapshot = 0
        #: Instruments keyed by the event loop they were added on
        #: (``None``: added outside any loop, collected inline).
        self._by_loop: Dict[Optional[asyncio.AbstractEventLoop], List[Any]] = {}
        self._lock = threading.Lock()
        #: Held by a loop thread while it waits on another loop, so two
        #: loops sharing this session never wait on each other.
        self._cross_loop = threading.Lock()
        self.registry.add_collector(self.collect)

    @classmethod
    def disabled(cls) -> "TelemetrySession":
        """A no-op session: every recording call is a dead method call."""
        return cls(NullRegistry(), NullTracer())

    @property
    def enabled(self) -> bool:
        return self.registry.enabled

    # -- instruments ---------------------------------------------------

    @property
    def instruments(self) -> List[Any]:
        """Every instrument the session collects."""
        with self._lock:
            return [item for group in self._by_loop.values() for item in group]

    def instrument_detector(
        self, detector, name: Optional[str] = None, fp_margin: float = 2.0
    ) -> Optional[DetectorInstrument]:
        """Attach a :class:`DetectorInstrument`; no-op when disabled."""
        if not self.enabled:
            return None
        instrument = DetectorInstrument(
            detector, self.registry, name=name, fp_margin=fp_margin
        )
        self.add_instrument(instrument)
        return instrument

    def add_instrument(self, instrument) -> None:
        """Collect ``instrument`` (anything with ``collect()``) on every
        read, on the event loop running here, if any."""
        loop = _running_loop()
        with self._lock:
            self._by_loop.setdefault(loop, []).append(instrument)

    def remove_instrument(self, instrument) -> None:
        """Stop collecting ``instrument``; its series keep their values."""
        with self._lock:
            for loop, group in self._by_loop.items():
                if instrument in group:
                    group.remove(instrument)
                    if not group:
                        del self._by_loop[loop]
                    return

    # -- collection and the subscriber cadence -------------------------

    def on_snapshot(self, callback: Callable[[Dict[str, Any]], None]) -> None:
        """Subscribe to periodic snapshots (the monitor CLI hook)."""
        self._callbacks.append(callback)

    def advance(self, count: int) -> None:
        """Count processed clicks; emit when the cadence threshold trips.

        Without a subscriber there is nothing to do: the registry
        collects when it is read.
        """
        if not self._callbacks:
            return
        self._since_snapshot += count
        if self._since_snapshot >= self.snapshot_every:
            self._since_snapshot = 0
            self.emit()

    def emit(self) -> Optional[Dict[str, Any]]:
        """Snapshot the registry (collecting first) and notify subscribers."""
        if not self.enabled:
            return None
        snapshot = self.registry.snapshot()
        for callback in self._callbacks:
            callback(snapshot)
        return snapshot

    def collect(self) -> None:
        """Refresh every instrument's series now (the registry's collector).

        Each loop's instruments are collected on that loop.  A loop
        thread that would wait on another loop while a second loop
        thread already does skips that loop's instruments instead, so
        those series keep their last values for this one read.
        """
        with self._lock:
            groups = [
                (loop, tuple(group)) for loop, group in self._by_loop.items()
            ]
        here = _running_loop()
        for loop, group in groups:

            def work(group=group) -> None:
                for instrument in group:
                    instrument.collect()

            if loop is None or loop is here or loop.is_closed():
                work()
            elif here is None:
                _wait_on_loop(loop, work)
            elif self._cross_loop.acquire(blocking=False):
                try:
                    _wait_on_loop(loop, work)
                finally:
                    self._cross_loop.release()

    # -- crash-consistent state ----------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        # The registry collects first: a checkpoint journal carries the
        # detector's counters *at the journaled offset*.
        return self.registry.state_dict()

    def load_state(self, state: Dict[str, Any]) -> None:
        self.registry.load_state(state)

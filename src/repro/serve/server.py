"""The asyncio click-ingest server.

Architecture (one process, one event loop)::

    conn reader ──┐                                  ┌── conn sender
    conn reader ──┼─▶ admission ─▶ queue ─▶ engine ──┼── conn sender
    conn reader ──┘   control              task      └── conn sender

* **Readers and senders** are the RPK1 front-end shared with the
  cluster router (:mod:`repro.serve.frontend`), and this server is its
  engine backend.  The front-end sniffs binary vs. JSONL, answers
  ``PING``/``HELLO``, refuses a malformed frame with ``ERROR`` (or a
  checksum mismatch with ``RETRY``) before the server sees it, and
  writes each connection's responses strictly in request order —
  every request (verdicts, pong, overloaded, error alike) enqueues a
  future at read time — releasing inflight bytes only after the
  response hits the socket.  The server dead-letters the refused
  frames; the connection survives unless stream sync itself is lost.
* **Admission control**: every decoded batch charges its payload bytes
  against a per-connection and a global inflight budget; a batch that
  would exceed either is refused with an explicit ``OVERLOADED``
  response — never buffered unboundedly.
* **The engine task** is the single consumer: it runs the
  :class:`~repro.serve.coalescer.Coalescer` (a group is what has
  queued when the engine is free, up to ``max_batch`` clicks, or an
  opt-in ``max_delay`` wait), classifies each group with one
  :meth:`~repro.detection.pipeline.DetectionPipeline.run_identified_batch`
  call, and resolves each request's response future.  One consumer
  means detector state advances in a single total order — the same
  guarantee the offline pipeline gives.  For time-based detectors the
  group is first merged into one monotone timestamp stream (stable
  sort across connections, residual skew clamped up to the watermark
  within ``skew_tolerance``; a request lagging beyond it is refused
  with ``ERROR``), so normal multi-client clock skew can never feed
  the detector a regressing stream.  A group the detector still
  refuses fails *those requests* with ``ERROR`` — the engine loop
  itself never dies with futures pending.

Graceful drain (``SIGTERM`` → :meth:`ClickIngestServer.drain`): stop
accepting, cancel the readers (un-acknowledged frames are the client's
to resend), flush the coalescer through the engine, write every pending
response, checkpoint the detector, exit.  Every accepted click is
classified and answered — zero click loss.
"""

from __future__ import annotations

import asyncio
import base64
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..detection.pipeline import DetectionPipeline
from ..errors import CheckpointError, ConfigurationError, ProtocolError
from ..core.checkpoint import load_detector, pack_frame, unpack_frame
from ..resilience.hardening import DeadLetterSink
from ..resilience.supervisor import CheckpointStore
from ..streams.click import DEFAULT_SCHEME, IdentifierScheme
from ..streams.io import click_from_record
from ..telemetry import TelemetrySession
from ..telemetry.requesttrace import (
    FlightRecorder,
    SpanShardWriter,
    StageLatencyRecorder,
    clear_current_trace,
    new_span_id,
    set_current_trace,
)
from .background import LoopThread
from .coalescer import Coalescer
from .frontend import Backend, BatchFrame, Frontend, Session
from .protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    FRAME_ERROR,
    FRAME_OVERLOADED,
    FRAME_RETRY,
    check_timestamps,
    decode_jsonl_line,
    encode_frame,
    encode_jsonl_line,
    encode_verdicts,
)

__all__ = ["ServeConfig", "ClickIngestServer", "ServerThread"]

#: Checkpoint frame kind for the server's own wrapper (the payload is a
#: regular ``save_detector`` blob).
_CHECKPOINT_KIND = "serve"

_BATCH_BUCKETS = (1.0, 64.0, 256.0, 1024.0, 4096.0, 8192.0, 16384.0, 65536.0)

#: Event-loop passes the engine yields before it emits a short group: one
#: for the selector to hand a reader the bytes that came in, one to fall
#: in behind the reader that this wakes, and one for that reader to
#: decode and enqueue its frames (see ``_engine_loop_inner``).
_READER_PASSES = 3


async def _cancel(task: asyncio.Task) -> None:
    """Cancel ``task`` and wait for it to end, whatever it ends with."""
    task.cancel()
    try:
        await task
    except (Exception, asyncio.CancelledError):
        pass


@dataclass(frozen=True)
class ServeConfig:
    """Knobs of one :class:`ClickIngestServer` deployment."""

    host: str = "127.0.0.1"
    #: ``0`` binds an ephemeral port; read it back from ``server.port``.
    port: int = 0
    #: Coalescer bounds: the most clicks the engine takes into one group,
    #: and how long (seconds) a short group may wait for batch-mates.
    #: ``max_delay=0`` waits for none: a group is what has queued when
    #: the engine is free.  A positive value holds the oldest pending
    #: request up to that long.
    max_batch: int = 8192
    max_delay: float = 0.0
    #: ``N`` lifts the detector into the multi-process engine
    #: (:func:`repro.parallel.lift_sharded`); requires a sharded
    #: detector with ``N`` shards.  ``None`` stays in-process.
    workers: Optional[int] = None
    #: Admission-control budgets: total queued-but-unanswered payload
    #: bytes, globally and per connection.
    max_inflight_bytes: int = 32 * 1024 * 1024
    connection_inflight_bytes: int = 4 * 1024 * 1024
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
    #: Directory for drain checkpoints (and resume-on-start).  ``None``
    #: disables checkpointing.
    checkpoint_dir: Optional[Union[str, Path]] = None
    checkpoint_keep: int = 2
    #: Identifier scheme for JSONL-mode requests (binary mode ships
    #: pre-projected identifiers, so the scheme never runs server-side).
    scheme: IdentifierScheme = DEFAULT_SCHEME
    #: Time-based detectors only: how far (seconds) a batch's timestamps
    #: may lag the server's high-water mark before the batch is refused
    #: with ``ERROR``.  Lags within the tolerance are clamped up to the
    #: watermark (the skew repair of
    #: :class:`repro.resilience.hardening.ReorderBuffer`), so clients
    #: whose clocks disagree by less than this can share one server.
    skew_tolerance: float = 1.0
    #: Exactly-once delivery: per-client response-cache entries and the
    #: number of distinct ``client_id`` windows kept (LRU).  A retried
    #: batch whose ``(client_id, batch_seq)`` is still cached replays
    #: its response instead of re-entering the detector.  Size
    #: ``dedup_entries`` above the largest client pipeline window —
    #: a response older than that many newer ones can no longer be
    #: replayed (the batch is still detected as applied, never
    #: re-applied).  ``0`` disables dedup entirely.
    dedup_entries: int = 512
    dedup_clients: int = 256
    #: Engine watchdog: how often (seconds) to check the engine task,
    #: and how long a single coalesced group may be in flight before
    #: the engine is declared wedged, cancelled, and restarted (the
    #: group is requeued — it has not touched detector state).
    #: ``watchdog_interval=0`` disables the watchdog, restoring the
    #: fail-static behaviour (a dead engine errors new requests).
    watchdog_interval: float = 0.5
    watchdog_stall_timeout: float = 30.0
    #: Sampled distributed tracing: when set, the server (and parallel
    #: workers, when ``workers`` lifts the detector) append span shards
    #: here for BATCH frames carrying ``FLAG_TRACE``; merge them with
    #: :func:`repro.telemetry.merge_shards` or ``repro trace``.  ``None``
    #: keeps tracing off — untraced frames never pay for it either way.
    trace_dir: Optional[Union[str, Path]] = None
    #: Flight recorder: where crash dumps land (``None`` falls back to
    #: ``checkpoint_dir``; both ``None`` disables dumping — the ring
    #: still records in memory) and how many events the ring retains.
    flight_dir: Optional[Union[str, Path]] = None
    flight_events: int = 4096
    #: Self-tuning resize: sample the detector's live estimated-FP
    #: gauge after every ``adaptive_interval`` coalesced groups and let
    #: an :class:`~repro.adaptive.AdaptiveController` resize it in the
    #: idle gap between groups (the engine task is the only detector
    #: user, so no click is in flight during the migrate).  Requires
    #: the inline engine (``workers=None``) and a detector with a
    #: ``migrate`` method (an :class:`~repro.adaptive.AdaptiveDetector`
    #: wrapper).  ``0`` disables.  ``adaptive`` optionally carries the
    #: :class:`~repro.adaptive.ControllerConfig` knobs.
    adaptive_interval: int = 0
    adaptive: Optional[object] = None

    def __post_init__(self) -> None:
        if self.max_inflight_bytes < 1:
            raise ConfigurationError(
                f"max_inflight_bytes must be >= 1, got {self.max_inflight_bytes}"
            )
        if self.connection_inflight_bytes < 1:
            raise ConfigurationError(
                "connection_inflight_bytes must be >= 1, got "
                f"{self.connection_inflight_bytes}"
            )
        if self.workers is not None and self.workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {self.workers}")
        if self.skew_tolerance < 0:
            raise ConfigurationError(
                f"skew_tolerance must be >= 0, got {self.skew_tolerance}"
            )
        if self.dedup_entries < 0:
            raise ConfigurationError(
                f"dedup_entries must be >= 0, got {self.dedup_entries}"
            )
        if self.dedup_clients < 1:
            raise ConfigurationError(
                f"dedup_clients must be >= 1, got {self.dedup_clients}"
            )
        if self.watchdog_interval < 0:
            raise ConfigurationError(
                f"watchdog_interval must be >= 0, got {self.watchdog_interval}"
            )
        if self.watchdog_stall_timeout <= 0:
            raise ConfigurationError(
                "watchdog_stall_timeout must be > 0, got "
                f"{self.watchdog_stall_timeout}"
            )
        if self.adaptive_interval < 0:
            raise ConfigurationError(
                f"adaptive_interval must be >= 0, got {self.adaptive_interval}"
            )
        if self.adaptive_interval > 0 and self.workers is not None:
            raise ConfigurationError(
                "the adaptive controller resizes between coalesced groups "
                "of the inline engine; it does not compose with workers"
            )


class _ClientWindow:
    """One ``client_id``'s slice of the dedup cache."""

    __slots__ = ("entries", "pending", "floor", "max_applied")

    def __init__(self) -> None:
        #: seq → cached response bytes, oldest-applied first.
        self.entries: "OrderedDict[int, bytes]" = OrderedDict()
        #: seq → unresolved response future (batch admitted, not yet
        #: classified); duplicates arriving meanwhile mirror the future.
        self.pending: Dict[int, "asyncio.Future"] = {}
        #: Highest applied seq evicted from ``entries``: anything at or
        #: below it that is not cached is known-applied (never re-apply)
        #: even though its response can no longer be replayed.
        self.floor: int = 0
        self.max_applied: int = 0


class _DedupCache:
    """Bounded per-client response cache: the exactly-once memory.

    The idempotency key is ``(client_id, batch_seq)``.  Life cycle of
    one key: :meth:`begin` when the batch is admitted (pending),
    :meth:`commit` when the detector applied it (response cached,
    bounded LRU per client), or :meth:`abort` when it was answered
    without touching detector state (``ERROR``/engine failure — a
    retry must be allowed to re-attempt).  :meth:`lookup` classifies a
    new arrival against that memory.  ``state``/``load`` round-trip
    the committed window through drain checkpoints so exactly-once
    survives SIGTERM → restore.
    """

    def __init__(self, max_entries: int, max_clients: int) -> None:
        self.max_entries = max_entries
        self.max_clients = max_clients
        self._clients: "OrderedDict[int, _ClientWindow]" = OrderedDict()

    @property
    def enabled(self) -> bool:
        return self.max_entries > 0

    def _window(self, client_id: int) -> _ClientWindow:
        window = self._clients.get(client_id)
        if window is None:
            window = _ClientWindow()
            self._clients[client_id] = window
            while len(self._clients) > self.max_clients:
                self._clients.popitem(last=False)
        else:
            self._clients.move_to_end(client_id)
        return window

    def hello(self, client_id: int) -> int:
        """Register (or refresh) a client; its highest applied seq."""
        return self._window(client_id).max_applied

    def lookup(
        self, client_id: int, seq: int
    ) -> Tuple[str, Optional[object]]:
        """Classify an arriving ``(client_id, seq)``.

        Returns one of ``("new", None)`` — apply it; ``("replay",
        bytes)`` — applied, response cached; ``("pending", future)`` —
        in flight, mirror the future; ``("applied", None)`` — applied
        but the response has been evicted.
        """
        window = self._window(client_id)
        cached = window.entries.get(seq)
        if cached is not None:
            return "replay", cached
        future = window.pending.get(seq)
        if future is not None:
            return "pending", future
        if seq <= window.floor:
            return "applied", None
        return "new", None

    def begin(self, client_id: int, seq: int, future: "asyncio.Future") -> None:
        self._window(client_id).pending[seq] = future

    def commit(self, client_id: int, seq: int, response: bytes) -> None:
        window = self._window(client_id)
        window.pending.pop(seq, None)
        window.entries[seq] = response
        window.entries.move_to_end(seq)
        if seq > window.max_applied:
            window.max_applied = seq
        while len(window.entries) > self.max_entries:
            evicted, _ = window.entries.popitem(last=False)
            if evicted > window.floor:
                window.floor = evicted

    def abort(self, client_id: int, seq: int) -> None:
        window = self._clients.get(client_id)
        if window is not None:
            window.pending.pop(seq, None)

    def state(self) -> dict:
        """JSON-able committed state (pending entries are transient)."""
        return {
            "clients": [
                [
                    client_id,
                    window.floor,
                    window.max_applied,
                    [
                        [seq, base64.b64encode(response).decode("ascii")]
                        for seq, response in window.entries.items()
                    ],
                ]
                for client_id, window in self._clients.items()
            ]
        }

    def load(self, state: dict) -> None:
        for client_id, floor, max_applied, entries in state.get("clients", []):
            window = self._window(int(client_id))
            window.floor = int(floor)
            window.max_applied = int(max_applied)
            for seq, encoded in entries:
                window.entries[int(seq)] = base64.b64decode(encoded)


@dataclass
class _Request:
    """One admitted batch awaiting the engine."""

    __slots__ = (
        "session",
        "request_id",
        "identifiers",
        "timestamps",
        "count",
        "jsonl",
        "future",
        "enqueued_at",
        "coalesced_at",
        "dedup_key",
        "trace",
    )

    session: Session
    request_id: int
    identifiers: "np.ndarray"
    timestamps: "np.ndarray"
    count: int
    jsonl: bool
    future: "asyncio.Future"
    enqueued_at: float
    #: Monotonic instant the engine popped this request off the queue
    #: (initialised to ``enqueued_at``); splits the admission→verdict
    #: latency into engine_queue and coalesce_wait stages.
    coalesced_at: float
    #: ``(client_id, batch_seq)`` when the connection said ``HELLO``;
    #: ``None`` for legacy/JSONL requests outside the dedup window.
    #: (No default: a class-level default would clash with __slots__.)
    dedup_key: Optional[Tuple[int, int]]
    #: Sampled trace context ``(trace_id, parent_span_id)`` carried by a
    #: ``FLAG_TRACE`` batch frame; ``None`` for untraced requests.
    trace: Optional[Tuple[int, int]]


class ClickIngestServer(Backend):
    """Serve a duplicate detector over TCP (binary frames or JSONL).

    Generic over every detector variant via the one detector contract
    (:class:`repro.detection.api.Detector`): GBF/TBF, their time-based
    twins, jumping, sharded, parallel, cluster slices, adaptive — plugs
    in unchanged.
    """

    def __init__(
        self,
        detector,
        config: Optional[ServeConfig] = None,
        telemetry: Optional[TelemetrySession] = None,
        dead_letters: Optional[DeadLetterSink] = None,
        fault_hooks=None,
    ) -> None:
        self.config = config if config is not None else ServeConfig()
        self.telemetry = (
            telemetry if telemetry is not None else TelemetrySession.disabled()
        )
        self.dead_letters = dead_letters
        #: Chaos-testing hooks (see ``repro.resilience.faults
        #: .EngineFaultHooks``): ``before_group`` may stall or kill the
        #: engine task, ``on_checkpoint`` may fail a checkpoint write.
        #: ``None`` in production.
        self.fault_hooks = fault_hooks
        self._store = (
            CheckpointStore(self.config.checkpoint_dir, keep=self.config.checkpoint_keep)
            if self.config.checkpoint_dir is not None
            else None
        )
        self._base_detector = detector
        self._resumed_clicks = 0
        self._dedup = _DedupCache(
            self.config.dedup_entries, self.config.dedup_clients
        )
        #: Largest timestamp ever handed to a time-based detector.  New
        #: groups are merged/clamped against it so the engine's clock is
        #: monotone no matter how client clocks interleave; restored
        #: from the checkpoint so a resume cannot regress the detector.
        self._watermark = float("-inf")
        self._try_resume()
        self._engine_owned = False
        engine = self._base_detector
        if self.config.workers is not None:
            from ..parallel import lift_sharded

            engine = lift_sharded(
                self._base_detector,
                self.config.workers,
                trace_dir=(
                    str(self.config.trace_dir)
                    if self.config.trace_dir is not None
                    else None
                ),
            )
            self._engine_owned = engine is not self._base_detector
        self._engine_detector = engine
        self._timed = engine.timed
        self.pipeline = DetectionPipeline(
            engine,
            billing=None,
            scheme=self.config.scheme,
            score_sources=False,
            telemetry=self.telemetry,
        )
        registry = self.telemetry.registry
        self._clicks_total = registry.counter(
            "repro_serve_clicks_total", "Clicks classified by the server"
        )
        self._overloaded_total = registry.counter(
            "repro_serve_overloaded_total", "Batches refused by admission control"
        )
        self._dead_letters_total = registry.counter(
            "repro_serve_dead_letters_total", "Malformed frames dead-lettered"
        )
        self._checkpoints_total = registry.counter(
            "repro_serve_checkpoints_total", "Drain checkpoints written"
        )
        self._batch_clicks = registry.histogram(
            "repro_serve_batch_clicks",
            "Clicks per coalesced engine batch",
            buckets=_BATCH_BUCKETS,
        )
        self._queue_wait = registry.histogram(
            "repro_serve_queue_wait_seconds",
            "Seconds a request waited between admission and classification",
        )
        self._engine_errors_total = registry.counter(
            "repro_serve_engine_errors_total",
            "Coalesced groups refused by the detector (all requests ERRORed)",
        )
        self._dedup_hits_total = registry.counter(
            "repro_serve_dedup_hits_total",
            "Retried batches answered from the dedup window (not re-applied)",
        )
        self._watchdog_restarts_total = registry.counter(
            "repro_serve_watchdog_restarts_total",
            "Engine tasks restarted by the watchdog (died or wedged)",
        )
        self._checkpoint_failures_total = registry.counter(
            "repro_serve_checkpoint_failures_total",
            "Checkpoint write attempts that failed",
        )
        # Per-request latency decomposition (docs/observability.md §2):
        # labelled stage histograms plus exact streaming p50/p95/p99
        # gauges, computed when the registry is read.  Like the
        # pipeline's detector instrument, it is collected on this loop.
        self._stages = (
            StageLatencyRecorder(registry) if self.telemetry.enabled else None
        )
        if self._stages is not None:
            self.telemetry.add_instrument(self._stages)
        #: Always-on crash flight recorder: a bounded in-memory ring of
        #: recent structured events, dumped to JSONL on engine death,
        #: watchdog restart, wedged drain, and graceful drain.
        self.flight = FlightRecorder(self.config.flight_events)
        flight_dir = self.config.flight_dir or self.config.checkpoint_dir
        self._flight_dir = Path(flight_dir) if flight_dir is not None else None
        self._spans = (
            SpanShardWriter(str(self.config.trace_dir), "server")
            if self.config.trace_dir is not None
            else None
        )
        self.frontend = Frontend(
            self, self.config, registry, "repro_serve",
            session_inflight_bytes=self.config.connection_inflight_bytes,
            stages=self._stages,
        )
        self._queue: "asyncio.Queue" = asyncio.Queue()
        self._coalescer = Coalescer(self.config.max_batch, self.config.max_delay)
        self._engine_task: Optional[asyncio.Task] = None
        self._engine_error: Optional[BaseException] = None
        self._watchdog_task: Optional[asyncio.Task] = None
        #: Engine liveness for the watchdog: ``_engine_busy`` is True
        #: while a coalesced group is in flight, and the heartbeat is
        #: the monotonic instant the engine last made progress.
        self._engine_busy = False
        self._engine_heartbeat = time.monotonic()
        self._drained = asyncio.Event()
        self._draining = False
        self._engine_clicks = 0
        self._controller = None
        self._groups_since_sample = 0
        if self.config.adaptive_interval > 0:
            if not hasattr(self._base_detector, "migrate"):
                raise ConfigurationError(
                    "adaptive_interval needs a resizable detector; wrap it "
                    "in repro.adaptive.AdaptiveDetector"
                )
            from ..adaptive.controller import AdaptiveController

            self._controller = AdaptiveController(
                self._base_detector,
                self.config.adaptive,
                registry=registry,
            )

    # -- lifecycle -----------------------------------------------------

    @property
    def processed_clicks(self) -> int:
        """Clicks classified by this server, including resumed history."""
        return self._resumed_clicks + self._engine_clicks

    @property
    def resize_events(self) -> tuple:
        """The adaptive controller's resize journal (empty when off)."""
        if self._controller is None:
            return ()
        return tuple(self._controller.journal)

    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0``)."""
        return self.frontend.port

    async def start(self) -> None:
        """Bind, spawn the engine task, and begin accepting."""
        await self.frontend.start()
        self._engine_task = asyncio.create_task(self._engine_loop())
        if self.config.watchdog_interval > 0:
            self._watchdog_task = asyncio.create_task(self._watchdog_loop())

    async def wait_drained(self) -> None:
        """Block until :meth:`drain` has completed."""
        await self._drained.wait()

    async def drain(self) -> None:
        """Graceful shutdown: classify everything accepted, then stop.

        Stops accepting, cancels the readers, flushes the coalescer
        through the engine, writes every pending response, syncs a
        parallel fleet back into the base detector, and checkpoints.
        Idempotent; concurrent callers all wait for the one drain.
        """
        if self._draining:
            await self._drained.wait()
            return
        self._draining = True
        self.flight.record("drain", phase="begin")
        if self._watchdog_task is not None:
            # Stop the watchdog first so it cannot restart the engine
            # while drain is waiting for it to exit.
            await _cancel(self._watchdog_task)
            self._watchdog_task = None
        # Readers stop; their sessions keep flushing responses.
        self.frontend.stop_reading()
        await self._queue.put(None)  # drain sentinel: flush + exit
        await self._drain_engine()
        if self._engine_error is not None:
            self._abort_pending(f"engine failed: {self._engine_error}")
        await self.frontend.wait_closed()
        # Collect once more while a worker fleet can still answer:
        # reads after the drain see the final values.
        self.release_instruments(collect=True)
        if self._engine_owned:
            # Write the workers' final state back into the base
            # detector so the checkpoint reflects every click served.
            self._engine_detector.close(sync=True)
        self._checkpoint()
        self.flight.record("drain", phase="end")
        self._dump_flight("drain")
        if self._spans is not None:
            self._spans.close()
        self._drained.set()

    def release_instruments(self, collect: bool) -> None:
        """Stop the session collecting this server's instruments.

        Their series keep their last values.  With ``collect``, they
        are collected one last time first; call it on the loop then.
        """
        for instrument in (self.pipeline.instrument, self._stages):
            if instrument is None:
                continue
            if collect:
                try:
                    instrument.collect()
                except Exception as error:  # a drain must finish
                    self._dead_letter("telemetry", f"last collect failed: {error}")
            self.telemetry.remove_instrument(instrument)

    def _dump_flight(self, reason: str) -> Optional[Path]:
        """Dump the flight-recorder ring to JSONL; never raises.

        This runs on crash paths (engine death, watchdog restart, wedged
        drain) where a secondary failure must not mask the primary one —
        a failed write is dead-lettered and swallowed.
        """
        if self._flight_dir is None:
            return None
        try:
            return self.flight.dump(self._flight_dir, reason)
        except OSError as error:  # pragma: no cover - disk failure
            self._dead_letter(reason, f"flight dump failed: {error}")
            return None

    async def _drain_engine(self) -> None:
        """Wait for the engine to consume the drain sentinel and exit.

        The engine task swallows its own failures (recording them in
        ``_engine_error``), but drain must also survive the failure the
        watchdog normally handles: an engine *wedged* mid-group after
        the watchdog has already been stopped.  With the watchdog
        enabled, a task that outlives the stall budget is cancelled —
        the in-flight group requeues untouched — and a fresh engine
        task finishes the queue; after a few such restarts (a detector
        that wedges every time) drain falls through to fail-static.
        """
        task = self._engine_task
        if task is None:
            return
        stall = (
            self.config.watchdog_stall_timeout
            if self.config.watchdog_interval > 0
            else None
        )
        for _attempt in range(5):
            try:
                if stall is None:
                    await task
                else:
                    await asyncio.wait_for(asyncio.shield(task), stall + 1.0)
                return
            except asyncio.TimeoutError:
                await _cancel(task)
                self._restart_engine("engine wedged during drain")
                task = self._engine_task
                # The wedged task may have consumed the sentinel already;
                # a surplus None in the queue is harmless.
                await self._queue.put(None)
            except (Exception, asyncio.CancelledError):
                return
        await _cancel(task)
        # Wedges every time it is restarted: give up and fail static so
        # the pending requests are ERRORed instead of hanging the drain.
        self.flight.record("wedged", phase="drain")
        self._dump_flight("wedged-drain")
        self._engine_error = RuntimeError("engine wedged through drain")

    def _try_resume(self) -> None:
        """Restore the newest readable drain checkpoint, if any."""
        if self._store is None:
            return
        for _path, blob in self._store.blobs():
            if blob is None:
                continue
            try:
                header, payload = unpack_frame(blob)
                if header.get("kind") != _CHECKPOINT_KIND:
                    raise CheckpointError(
                        f"not a serve checkpoint: {header.get('kind')!r}"
                    )
                detector = load_detector(payload)
            except CheckpointError:
                continue  # fall back to the previous generation
            self._base_detector = detector
            self._resumed_clicks = int(header.get("processed", 0))
            watermark = header.get("watermark")
            if watermark is not None:
                self._watermark = float(watermark)
            dedup = header.get("dedup")
            if dedup and self._dedup.enabled:
                self._dedup.load(dedup)
            return

    def _checkpoint(self) -> None:
        """Write the drain checkpoint; survive a failing write.

        The blob carries the detector state *and* the dedup window, so
        a restore keeps refusing to re-apply batches it classified
        before the SIGTERM.  A failed write (disk error, injected
        fault) is retried once; if both attempts fail, the previous
        generation stays the newest on disk — resume falls back to it,
        which costs replayed work but never correctness, because the
        clients' retry path and the (older) dedup window still agree.
        """
        if self._store is None:
            return
        blob = pack_frame(
            {
                "kind": _CHECKPOINT_KIND,
                "processed": self.processed_clicks,
                "watermark": (
                    self._watermark if self._watermark != float("-inf") else None
                ),
                "dedup": self._dedup.state() if self._dedup.enabled else None,
            },
            self._base_detector.checkpoint_state(),
        )
        hook = getattr(self.fault_hooks, "on_checkpoint", None)
        for attempt in (1, 2):
            try:
                if hook is not None:
                    hook()
                self._store.save(blob)
            except Exception as error:
                self._checkpoint_failures_total.inc()
                self.flight.record("checkpoint", ok=False, attempt=attempt)
                self._dead_letter(
                    f"checkpoint attempt {attempt}", f"write failed: {error}"
                )
                continue
            self._checkpoints_total.inc()
            self.flight.record("checkpoint", ok=True, attempt=attempt)
            return

    # -- the front-end's backend hooks ---------------------------------

    def frame_refused(
        self, response_type: int, request_id: int, item, reason: str
    ) -> None:
        if response_type == FRAME_RETRY:
            self.flight.record("retry", request_id=request_id)
        self._dead_letter(item, reason)

    async def hello(self, session: Session, client_id: int) -> int:
        if not self._dedup.enabled:
            return 0
        session.client_id = client_id
        return self._dedup.hello(client_id)

    def batch(self, session: Session, frame: BatchFrame) -> None:
        request_id = frame.request_id
        if session.client_id is not None and self._handle_duplicate(
            session, request_id
        ):
            return
        wire_bytes = len(frame.payload)
        if not self.frontend.admit(session, wire_bytes):
            self._overloaded_total.inc()
            self.flight.record("refused", request_id=request_id, bytes=wire_bytes)
            session.respond(
                encode_frame(FRAME_OVERLOADED, request_id, b"inflight budget full")
            )
            return
        self.flight.record(
            "frame",
            request_id=request_id,
            clicks=int(frame.identifiers.shape[0]),
            bytes=wire_bytes,
        )
        self._enqueue(
            session,
            request_id,
            frame.identifiers,
            frame.timestamps,
            wire_bytes,
            jsonl=False,
            dedup_key=(
                (session.client_id, request_id)
                if session.client_id is not None
                else None
            ),
            trace=frame.trace,
        )

    async def jsonl(
        self, session: Session, reader: asyncio.StreamReader, first: bytes
    ) -> None:
        """Serve newline-delimited JSON requests (the debugging mode)."""
        while True:
            try:
                line = first + await reader.readline()
            except ValueError as error:
                # A line above max_frame_bytes (StreamReader's limit):
                # the reader dropped the partial line, so framing is
                # lost — mirror the binary oversized-payload path:
                # dead-letter, answer, hang up.
                reason = f"JSONL line exceeds frame cap: {error}"
                self._dead_letter(session.peer, reason)
                session.respond(encode_jsonl_line({"id": 0, "error": reason}))
                return
            first = b""
            if not line:
                return
            stripped = line.strip()
            if not stripped:
                continue
            request_id = 0
            try:
                message = decode_jsonl_line(stripped)
                request_id = int(message.get("id", 0))
                if message.get("ping"):
                    session.respond(
                        encode_jsonl_line({"id": request_id, "pong": True})
                    )
                    continue
                identifiers, timestamps = self._identify(message["clicks"])
            except (
                ProtocolError, LookupError, TypeError, ValueError, ArithmeticError
            ) as error:
                reason = f"bad JSONL request: {error}"
                self._dead_letter(stripped[:256], reason)
                session.respond(
                    encode_jsonl_line({"id": request_id, "error": reason})
                )
                continue
            wire_bytes = len(line)
            if not self.frontend.admit(session, wire_bytes):
                self._overloaded_total.inc()
                session.respond(
                    encode_jsonl_line(
                        {"id": request_id, "overloaded": "inflight budget full"}
                    )
                )
                continue
            self._enqueue(
                session, request_id, identifiers, timestamps, wire_bytes, jsonl=True
            )

    def _identify(self, records) -> Tuple["np.ndarray", "np.ndarray"]:
        """JSONL click records -> (identifiers, timestamps), checked like
        a binary batch; raises on any malformed record."""
        clicks = [click_from_record(record) for record in records]
        if not clicks:
            return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.float64)
        identifiers = self.config.scheme.identify_batch(clicks)
        timestamps = np.fromiter(
            (click.timestamp for click in clicks),
            dtype=np.float64,
            count=len(clicks),
        )
        check_timestamps(timestamps)
        return identifiers, timestamps

    def _handle_duplicate(self, session: Session, seq: int) -> bool:
        """Answer a retried ``(client_id, seq)`` without re-applying it.

        Returns True when the batch was recognised as a duplicate and a
        response (cached replay, mirror of the in-flight response, or
        an already-applied notice) was enqueued — the caller must then
        *not* admit the batch.  False means the key is new.
        """
        status, cached = self._dedup.lookup(session.client_id, seq)
        if status == "new":
            return False
        self._dedup_hits_total.inc()
        if status == "replay":
            session.respond(cached)
        elif status == "pending":
            # The first copy is still in flight: give this connection a
            # future that resolves to the same response bytes.  A
            # first-copy future that dies unresolved (engine abort)
            # resolves the mirror with ERROR so the sender never hangs.
            loop = asyncio.get_running_loop()
            mirror = loop.create_future()

            def _copy(done: "asyncio.Future") -> None:
                if mirror.done():
                    return
                if done.cancelled() or done.exception() is not None:
                    mirror.set_result(
                        encode_frame(
                            FRAME_ERROR, seq, b"original request aborted; resend"
                        )
                    )
                else:
                    mirror.set_result(done.result())

            cached.add_done_callback(_copy)
            session.respond_later(mirror, 0)
        else:  # "applied": correctness holds, the response is gone
            session.respond(
                encode_frame(
                    FRAME_ERROR,
                    seq,
                    b"batch already applied; cached response evicted "
                    b"(raise dedup_entries above the client window)",
                ),
            )
        return True

    def _enqueue(
        self,
        session: Session,
        request_id: int,
        identifiers: "np.ndarray",
        timestamps: "np.ndarray",
        wire_bytes: int,
        jsonl: bool,
        dedup_key: Optional[Tuple[int, int]] = None,
        trace: Optional[Tuple[int, int]] = None,
    ) -> None:
        future = asyncio.get_running_loop().create_future()
        session.respond_later(future, wire_bytes)
        now = time.monotonic()
        request = _Request(
            session=session,
            request_id=request_id,
            identifiers=identifiers,
            timestamps=timestamps,
            count=int(identifiers.shape[0]),
            jsonl=jsonl,
            future=future,
            enqueued_at=now,
            coalesced_at=now,
            dedup_key=dedup_key,
            trace=trace,
        )
        if dedup_key is not None:
            # From here the key is "pending": a duplicate arriving on
            # any connection mirrors this future instead of re-entering
            # the engine.
            self._dedup.begin(dedup_key[0], dedup_key[1], future)
        if self._engine_error is not None and (
            self._watchdog_task is None or self._draining
        ):
            # The engine loop is gone and nothing will resurrect it;
            # answer directly so the sender flushes and the budget
            # releases instead of hanging.  (With a live watchdog the
            # request just waits in the queue for the restarted engine.)
            self._fail_request(request, f"engine failed: {self._engine_error}")
            return
        self._queue.put_nowait(request)

    # -- the engine ----------------------------------------------------

    async def _engine_loop(self) -> None:
        """Run :meth:`_engine_loop_inner`; never die with futures pending.

        A detector refusing a group is handled inside
        :meth:`_process_group` (the group's requests get ``ERROR``, the
        loop keeps serving).  Anything that still escapes — a bug, not
        bad input — must not strand the pending futures: every queued
        and coalesced request is failed with ``ERROR`` so senders flush,
        budgets release, and drain completes instead of hanging.
        """
        try:
            await self._engine_loop_inner()
        except asyncio.CancelledError:
            raise
        except BaseException as error:
            self._engine_error = error
            self.flight.record("engine_death", error=repr(error))
            self._dump_flight("engine-death")
            if self._watchdog_task is None or self._draining:
                # No watchdog to resurrect us: fail static so senders
                # flush and drain completes instead of hanging.
                self._abort_pending(f"engine failed: {error}")
            # Otherwise leave the queue and coalescer intact — the
            # watchdog restarts a fresh engine task over the same state
            # and nothing pending is lost.

    async def _watchdog_loop(self) -> None:
        """Detect and restart a dead or wedged engine task.

        Two failure shapes: the engine task *died* (an exception other
        than a detector refusal escaped — those are handled per-group),
        or it is *wedged* — busy on one group past
        ``watchdog_stall_timeout`` (a stalled detector or injected
        stall).  A wedged engine is cancelled; the cancel path requeues
        the in-flight group untouched, so the restarted engine resumes
        exactly where the old one stood.
        """
        interval = self.config.watchdog_interval
        stall_after = self.config.watchdog_stall_timeout
        while True:
            await asyncio.sleep(interval)
            if self._draining:
                return
            self.flight.record("watchdog", busy=self._engine_busy)
            task = self._engine_task
            if task is None:
                continue
            if task.done():
                self._restart_engine(f"engine task died: {self._engine_error}")
                continue
            if (
                self._engine_busy
                and time.monotonic() - self._engine_heartbeat > stall_after
            ):
                await _cancel(task)
                self._restart_engine(
                    f"engine wedged > {stall_after}s on one group"
                )

    def _restart_engine(self, reason: str) -> None:
        self._watchdog_restarts_total.inc()
        self._dead_letter(reason, "engine restarted by watchdog")
        self.flight.record("restart", reason=reason)
        self._dump_flight("watchdog-restart")
        self._engine_error = None
        self._engine_busy = False
        self._engine_heartbeat = time.monotonic()
        self._engine_task = asyncio.create_task(self._engine_loop())

    async def _engine_loop_inner(self) -> None:
        """Form each group from the backlog and run it.

        The engine takes every request already queued (up to the
        coalescer's ``max_batch``) and, once the queue is empty, asks
        the coalescer whether the pending group goes now (``idle``, the
        default) or waits for batch-mates until its deadline (an opt-in
        ``max_delay > 0``).  Under load, frames pile up in the queue
        while a group computes, so groups grow with the backlog; at low
        load a lone frame runs at once.
        """
        queue = self._queue
        coalescer = self._coalescer
        while True:
            if not queue.empty():
                request = queue.get_nowait()
            elif not coalescer.pending_items:
                request = await queue.get()
            else:
                # The queue is empty, but frames that reached a socket
                # while the detector ran are not decoded yet: a reader
                # the selector wakes runs behind this task.  Let the
                # readers run before emitting a short group, or a busy
                # engine would split one backlog into two groups.
                for _ in range(_READER_PASSES):
                    await asyncio.sleep(0)
                if not queue.empty():
                    continue
                group = coalescer.idle()
                if group is not None:
                    await self._run_flushed(group, "idle")
                    continue
                timeout = max(0.0, coalescer.deadline - time.monotonic())
                try:
                    request = await asyncio.wait_for(queue.get(), timeout)
                except asyncio.TimeoutError:
                    await self._run_flushed(coalescer.flush(), "deadline")
                    continue
            if request is None:
                await self._run_flushed(coalescer.flush(), "drain")
                return
            request.coalesced_at = time.monotonic()
            group = coalescer.add(request, request.count)
            if group is not None:
                await self._run_flushed(group, "size")

    async def _run_flushed(
        self, group: Optional[List[_Request]], reason: str
    ) -> None:
        """Record why the coalescer emitted ``group``, then run it."""
        if group:
            self.flight.record("flush", reason=reason, requests=len(group))
            await self._run_group(group)

    async def _run_group(self, group: List[_Request]) -> None:
        """One group through the fault hooks and the detector.

        Marks the engine busy for the watchdog and guarantees the group
        is never half-lost: if the fault hooks stall and the watchdog
        cancels us, or a hook raises (the injected engine death), the
        untouched group is requeued at the *front* of the coalescer so
        the restarted engine classifies it first — no click is lost and
        none is applied twice, because the detector has not seen it.
        """
        self._engine_busy = True
        self._engine_heartbeat = time.monotonic()
        self.flight.record(
            "group_start",
            requests=len(group),
            clicks=sum(request.count for request in group),
        )
        try:
            hooks = self.fault_hooks
            before = getattr(hooks, "before_group", None) if hooks else None
            if before is not None:
                try:
                    await before(group)
                except BaseException:
                    self._coalescer.requeue(
                        [(request, request.count) for request in group]
                    )
                    raise
            self._process_group(group)
            self.flight.record("group_end", requests=len(group))
            self._maybe_resize()
        finally:
            self._engine_busy = False
            self._engine_heartbeat = time.monotonic()

    def _maybe_resize(self) -> None:
        """Controller sample point: between groups the engine is idle,
        so a quiesce -> migrate -> resume here races nothing."""
        controller = self._controller
        if controller is None:
            return
        self._groups_since_sample += 1
        if self._groups_since_sample < self.config.adaptive_interval:
            return
        self._groups_since_sample = 0
        event = controller.observe()
        if event is not None:
            self.flight.record(
                "resize",
                direction=event.direction,
                old_bits=event.old_memory_bits,
                new_bits=event.new_memory_bits,
                estimated_fp=event.estimated_fp,
                bound=event.bound,
            )

    def _process_group(self, group: List[_Request]) -> None:
        """Classify one coalesced group and resolve its futures.

        Never raises: a request the detector cannot accept is answered
        with ``ERROR`` and dead-lettered, and the rest of the group (and
        the engine loop) carries on — the "never crash" discipline of
        docs/serving.md §3.
        """
        now = time.monotonic()
        stages = self._stages
        for request in group:
            self._queue_wait.observe(now - request.enqueued_at)
            if stages is not None:
                stages.observe(
                    "engine_queue", request.coalesced_at - request.enqueued_at
                )
                stages.observe("coalesce_wait", now - request.coalesced_at)
        if self._timed:
            group = self._reject_stale(group)
        total = sum(request.count for request in group)
        order = None
        if total:
            timestamps = None
            if len(group) == 1:
                # Single-request group: the decoder's zero-copy views
                # go to the detector as-is — no concatenate, no
                # re-materialization between socket and verdict.
                # Within-request monotonicity was already validated at
                # decode time; the watermark clamp copies only when it
                # would actually change a value (the views are
                # read-only wire bytes).
                identifiers = group[0].identifiers
                if self._timed:
                    timestamps = group[0].timestamps
                    if float(timestamps[0]) < self._watermark:
                        timestamps = np.maximum(timestamps, self._watermark)
            else:
                identifiers = np.concatenate([r.identifiers for r in group])
                if self._timed:
                    # Each request's timestamps are non-decreasing
                    # (protocol contract), but independent connections'
                    # clocks may interleave: merge the group into one
                    # monotone stream (stable, so per-request and
                    # arrival order survive) and clamp residual
                    # sub-tolerance skew up to the watermark.  The
                    # detector therefore never sees a mid-batch
                    # regression, so its state cannot half-advance.
                    timestamps = np.concatenate([r.timestamps for r in group])
                    if bool((np.diff(timestamps) < 0.0).any()):
                        order = np.argsort(timestamps, kind="stable")
                        identifiers = identifiers[order]
                        timestamps = timestamps[order]
                    np.maximum(timestamps, self._watermark, out=timestamps)
            # Sampled tracing: the first traced request lends the group
            # its trace context; the server span parents the workers'
            # shard spans via the module-global current trace (one
            # engine task — no concurrent writers).
            trace = None
            if self._spans is not None:
                for request in group:
                    if request.trace is not None:
                        trace = request.trace
                        break
            if trace is not None:
                server_span = new_span_id()
                span_wall = time.time()
                set_current_trace(trace[0], server_span)
            timed_compute = stages is not None or trace is not None
            compute_t0 = time.perf_counter() if timed_compute else 0.0
            try:
                verdicts = self.pipeline.run_identified_batch(
                    identifiers, timestamps
                )
            except Exception as error:  # keep the engine alive
                reason = f"detector rejected batch: {error}"
                self._engine_errors_total.inc()
                self._dead_letter(reason, reason)
                for request in group:
                    self._fail_request(request, reason)
                return
            finally:
                if trace is not None:
                    clear_current_trace()
            if timed_compute:
                compute_dt = time.perf_counter() - compute_t0
                if stages is not None:
                    # Requests in a coalesced group share one detector
                    # call; each observes the same compute interval.
                    for request in group:
                        stages.observe("detector_compute", compute_dt)
                if trace is not None:
                    self._spans.write(
                        "server.process_group",
                        trace[0],
                        server_span,
                        parent_id=trace[1],
                        start=span_wall,
                        duration=compute_dt,
                        clicks=total,
                        requests=len(group),
                    )
            if self._timed:
                self._watermark = float(timestamps[-1])
            if order is not None:
                inverse = np.empty_like(verdicts)
                inverse[order] = verdicts
                verdicts = inverse
        else:
            verdicts = np.empty(0, dtype=bool)
        self._batch_clicks.observe(total)
        self._clicks_total.inc(total)
        self._engine_clicks += total
        offset = 0
        for request in group:
            slice_ = verdicts[offset : offset + request.count]
            offset += request.count
            if request.jsonl:
                data = encode_jsonl_line(
                    {
                        "id": request.request_id,
                        "verdicts": [int(v) for v in slice_],
                    }
                )
            else:
                data = encode_verdicts(request.request_id, slice_)
            if request.dedup_key is not None:
                # The batch is now applied: remember the response so a
                # retry after a dropped connection replays these bytes
                # instead of re-entering the detector.
                self._dedup.commit(
                    request.dedup_key[0], request.dedup_key[1], data
                )
            if not request.future.done():
                request.future.set_result(data)

    def _reject_stale(self, group: List[_Request]) -> List[_Request]:
        """Fail requests lagging the watermark beyond the skew tolerance.

        Checked against the pre-group watermark *before* the detector
        runs, so a refused request never touches detector state; the
        client gets ``ERROR`` and owns the retry with fresh timestamps.
        """
        floor = self._watermark - self.config.skew_tolerance
        if floor == float("-inf"):
            return group
        live: List[_Request] = []
        for request in group:
            if request.count and float(request.timestamps[0]) < floor:
                reason = (
                    "timestamps regress "
                    f"{self._watermark - float(request.timestamps[0]):.3f}s "
                    "behind the stream watermark (skew_tolerance="
                    f"{self.config.skew_tolerance}); resend with current "
                    "timestamps"
                )
                self._dead_letter(
                    f"request {request.request_id} from {request.session.peer}",
                    reason,
                )
                self._fail_request(request, reason)
            else:
                live.append(request)
        return live

    def _fail_request(self, request: _Request, reason: str) -> None:
        """Answer one admitted request with ``ERROR`` (budget still
        releases when the sender writes it).

        The batch did *not* touch detector state, so its idempotency
        key is released — the client's retry must be allowed to
        re-attempt it, not be refused as a duplicate.
        """
        if request.dedup_key is not None:
            self._dedup.abort(request.dedup_key[0], request.dedup_key[1])
        if request.jsonl:
            data = encode_jsonl_line(
                {"id": request.request_id, "error": reason}
            )
        else:
            data = encode_frame(
                FRAME_ERROR, request.request_id, reason.encode()
            )
        if not request.future.done():
            request.future.set_result(data)

    def _abort_pending(self, reason: str) -> None:
        """Fail every queued and coalesced request (dead-engine path)."""
        pending: List[_Request] = list(self._coalescer.flush() or [])
        while True:
            try:
                item = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if item is not None:
                pending.append(item)
        for request in pending:
            self._fail_request(request, reason)

    def _dead_letter(self, item, reason: str) -> None:
        self._dead_letters_total.inc()
        if self.dead_letters is not None:
            self.dead_letters.record(item, reason)


class ServerThread(LoopThread):
    """Run a :class:`ClickIngestServer` on a background event loop.

    The synchronous harness for tests, benchmarks, and embedding: start
    it, talk to ``thread.port`` with :class:`repro.serve.client
    .ServeClient`, and :meth:`stop` performs the same graceful drain a
    ``SIGTERM`` would.
    """

    def __init__(
        self,
        detector,
        config: Optional[ServeConfig] = None,
        telemetry: Optional[TelemetrySession] = None,
        dead_letters: Optional[DeadLetterSink] = None,
        fault_hooks=None,
    ) -> None:
        super().__init__(
            lambda: ClickIngestServer(
                detector,
                config=config,
                telemetry=telemetry,
                dead_letters=dead_letters,
                fault_hooks=fault_hooks,
            ),
            "repro-serve",
        )

    @property
    def server(self) -> Optional[ClickIngestServer]:
        return self.service

    def kill(self, timeout: float = 10.0) -> None:
        """Terminate abruptly: no drain, no checkpoint, no goodbyes.

        Only the listening socket is closed; the loop's exit cancels
        everything in flight — the closest a thread can get to SIGKILL.
        The server's durable state stays whatever the last checkpoint
        captured — exactly the crash the resume path is built for.
        """
        if self.server is not None:
            self._halt(self.server.frontend.stop_listening, timeout)
            # A killed process gets no last collection: its series keep
            # what the last read saw.
            self.server.release_instruments(collect=False)

    def checkpoint(self, timeout: float = 30.0) -> None:
        """Write a checkpoint now, without draining.

        Only meaningful while traffic is quiesced (e.g. inside the
        cluster router's checkpoint barrier): the write runs on the
        event loop thread and captures detector + dedup state as-is.
        """
        self._call(self._checkpoint_on_loop, timeout=timeout)

    async def _checkpoint_on_loop(self) -> None:
        self.server._checkpoint()

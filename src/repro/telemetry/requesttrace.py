"""Per-request serve-path observability: stages, traces, flight recorder.

Three cooperating pieces back the serve path's end-to-end story
(docs/observability.md):

* **Stage latency** — :class:`StageLatencyRecorder` decomposes every
  BATCH frame's life into named stages (:data:`SERVE_STAGES`) and keeps
  both a labeled histogram and *exact* streaming p50/p95/p99 gauges per
  stage.  Exactness comes from :class:`StreamingQuantile`: nearest-rank
  selection over a bounded window of retained samples, no sketching or
  interpolation error — the registry's reservoir histograms stay
  approximate, these gauges do not.
* **Cross-process traces** — a sampled ``(trace_id, span_id)`` context
  rides the RPK1 frame (``FLAG_TRACE`` in :mod:`repro.serve.protocol`)
  and the parallel engine's shared-memory rings; every process appends
  finished spans to its own ``spans-<role>-<pid>.jsonl`` shard through
  :class:`SpanShardWriter` (flushed per line, so shards survive a
  ``terminate()``), and :func:`merge_shards` stitches the shards into
  one Chrome-trace timeline.  Spans are timestamped with wall-clock
  time so shards from different processes on the same host line up.
* **Flight recorder** — :class:`FlightRecorder` keeps the last N
  structured events in a preallocated ring (one slot store per event,
  no locks: the server's event loop is the only writer and a list item
  assignment is atomic under the GIL) and dumps them as JSONL when
  something dies, so the window before an engine death or watchdog
  restart is reconstructable after the fact.
"""

from __future__ import annotations

import json
import math
import os
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError

__all__ = [
    "SERVE_STAGES",
    "SERVE_QUANTILES",
    "StreamingQuantile",
    "StageLatencyRecorder",
    "new_trace_id",
    "new_span_id",
    "set_current_trace",
    "clear_current_trace",
    "current_trace",
    "SpanShardWriter",
    "merge_shards",
    "FlightRecorder",
]

#: Stages of a BATCH frame's life inside the ingest server, in order.
#: ``decode`` — wire bytes to identifier/timestamp views; ``engine_queue``
#: — admitted, waiting for the engine task to pick the request up;
#: ``coalesce_wait`` — held by the coalescer while its group forms (the
#: readers' passes, or an opt-in ``max_delay``); ``detector_compute`` —
#: the detection pipeline call for the request's group;
#: ``response_write`` — verdict frame serialization and socket write-out.
SERVE_STAGES = (
    "decode",
    "engine_queue",
    "coalesce_wait",
    "detector_compute",
    "response_write",
)

#: Quantiles published as gauges per stage (plus a ``max``).
SERVE_QUANTILES = (0.5, 0.95, 0.99)

#: Schema tag on the first line of a flight-recorder dump.
FLIGHT_SCHEMA = 1


class StreamingQuantile:
    """Exact quantiles over the most recent ``capacity`` observations.

    Samples land in a numpy buffer that grows geometrically to
    ``capacity`` and then wraps, overwriting the oldest — so quantiles
    are *exact* (nearest-rank, no interpolation) over a sliding window
    of up to ``capacity`` samples rather than approximate over all of
    history.  ``observe`` is one array store and two integer updates;
    the selection work happens only when a quantile is asked for.
    """

    __slots__ = ("capacity", "observed", "_buffer", "_filled", "_next")

    def __init__(self, capacity: int = 1 << 20, initial: int = 1024) -> None:
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._buffer = np.empty(min(int(initial), self.capacity), dtype=np.float64)
        self._filled = 0
        self._next = 0
        self.observed = 0

    @property
    def count(self) -> int:
        """Samples currently retained (≤ ``capacity``)."""
        return self._filled

    def observe(self, value: float) -> None:
        buffer = self._buffer
        size = buffer.shape[0]
        if self._filled == size and size < self.capacity:
            grown = np.empty(min(size * 2, self.capacity), dtype=np.float64)
            grown[:size] = buffer
            self._buffer = buffer = grown
            self._next = size
            size = buffer.shape[0]
        slot = self._next
        buffer[slot] = value
        if self._filled < size:
            self._filled += 1
        self._next = slot + 1 if slot + 1 < size else 0
        self.observed += 1

    def quantile(self, q: float) -> float:
        """Exact nearest-rank quantile; NaN while no samples are retained."""
        if not 0.0 < q <= 1.0:
            raise ConfigurationError(f"quantile must be in (0, 1], got {q}")
        n = self._filled
        if n == 0:
            return float("nan")
        k = max(0, math.ceil(q * n) - 1)
        return float(np.partition(self._buffer[:n], k)[k])

    def quantiles(self, qs: Sequence[float]) -> Dict[float, float]:
        """Several exact quantiles from one sort of the retained window."""
        n = self._filled
        if n == 0:
            return {q: float("nan") for q in qs}
        ordered = np.sort(self._buffer[:n])
        return {
            q: float(ordered[max(0, math.ceil(q * n) - 1)]) for q in qs
        }

    @property
    def max(self) -> float:
        """Largest retained sample; NaN while empty (windowed, like the rest)."""
        if self._filled == 0:
            return float("nan")
        return float(np.max(self._buffer[: self._filled]))


def _q_label(q: float) -> str:
    return format(q, "g")


class StageLatencyRecorder:
    """Per-stage serve latency: labeled histogram + exact quantile gauges.

    Emits ``repro_serve_stage_seconds{stage=}`` histograms on every
    observation and refreshes ``repro_serve_stage_quantile_seconds
    {stage=,q=}`` gauges from :meth:`collect` — add the recorder with
    ``TelemetrySession.add_instrument`` so every registry read refreshes
    them, the same way detector instruments work.
    """

    def __init__(
        self,
        registry,
        stages: Sequence[str] = SERVE_STAGES,
        quantiles: Sequence[float] = SERVE_QUANTILES,
        window: int = 1 << 20,
    ) -> None:
        histogram = registry.histogram(
            "repro_serve_stage_seconds",
            "Per-request serve latency decomposed by stage",
            labels=("stage",),
        )
        gauge = registry.gauge(
            "repro_serve_stage_quantile_seconds",
            "Exact streaming stage-latency quantiles over the retained window",
            labels=("stage", "q"),
        )
        self.quantiles = tuple(quantiles)
        self.stages = tuple(stages)
        self._by_stage: Dict[str, tuple] = {}
        for stage in self.stages:
            stream = StreamingQuantile(capacity=window)
            children = tuple(
                gauge.labels(stage=stage, q=_q_label(q)) for q in self.quantiles
            ) + (gauge.labels(stage=stage, q="max"),)
            self._by_stage[stage] = (
                histogram.labels(stage=stage),
                stream,
                children,
            )

    def observe(self, stage: str, seconds: float) -> None:
        child, stream, _children = self._by_stage[stage]
        child.observe(seconds)
        stream.observe(seconds)

    def stream(self, stage: str) -> StreamingQuantile:
        return self._by_stage[stage][1]

    def collect(self) -> None:
        """Refresh the quantile gauges (run on every registry read)."""
        for _child, stream, children in self._by_stage.values():
            if stream.count == 0:
                continue
            values = stream.quantiles(self.quantiles)
            for gauge_child, q in zip(children, self.quantiles):
                gauge_child.set(values[q])
            children[-1].set(stream.max)


# --------------------------------------------------------------------------
# Trace context

def new_trace_id() -> int:
    """Random nonzero 64-bit trace id (zero means *untraced* on the wire)."""
    return int.from_bytes(os.urandom(8), "little") | 1


def new_span_id() -> int:
    """Random nonzero 64-bit span id."""
    return int.from_bytes(os.urandom(8), "little") | 1


_CURRENT_TRACE: Tuple[int, int] = (0, 0)


def set_current_trace(trace_id: int, span_id: int) -> None:
    """Install the trace context for work dispatched from this thread.

    The serve engine task sets this around a traced group's detector
    call so the parallel engine (which has no request object in hand)
    can stamp the context onto its ring-buffer slots.  Single-writer by
    construction — the engine task is the only caller in a server.
    """
    global _CURRENT_TRACE
    _CURRENT_TRACE = (int(trace_id), int(span_id))


def clear_current_trace() -> None:
    set_current_trace(0, 0)


def current_trace() -> Tuple[int, int]:
    """The installed ``(trace_id, span_id)``; ``(0, 0)`` when untraced."""
    return _CURRENT_TRACE


# --------------------------------------------------------------------------
# Span shards

class _ShardSpan:
    """Context manager timing one span and appending it to the shard."""

    __slots__ = (
        "writer", "name", "trace_id", "span_id", "parent_id", "args",
        "_wall", "_t0",
    )

    def __init__(self, writer, name, trace_id, parent_id, args):
        self.writer = writer
        self.name = name
        self.trace_id = int(trace_id)
        self.span_id = new_span_id()
        self.parent_id = int(parent_id)
        self.args = args

    def annotate(self, **args: Any) -> None:
        self.args.update(args)

    def __enter__(self) -> "_ShardSpan":
        self._wall = time.time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        duration = time.perf_counter() - self._t0
        if exc_type is not None:
            self.args["error"] = exc_type.__name__
        self.writer.write(
            self.name,
            self.trace_id,
            self.span_id,
            parent_id=self.parent_id,
            start=self._wall,
            duration=duration,
            **self.args,
        )


class SpanShardWriter:
    """Append this process's finished spans to a per-pid JSONL shard.

    One line per span, flushed immediately — a worker killed with
    ``terminate()`` loses at most the span it was inside, never the
    shard.  Shard names are ``spans-<role>-<pid>.jsonl`` so a merge can
    label each Chrome-trace process row.
    """

    def __init__(self, directory, role: str) -> None:
        self.role = str(role)
        self.pid = os.getpid()
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        self.path = directory / f"spans-{self.role}-{self.pid}.jsonl"
        self._file = open(self.path, "a", encoding="utf-8")

    def write(
        self,
        name: str,
        trace_id: int,
        span_id: int,
        parent_id: int = 0,
        start: Optional[float] = None,
        duration: float = 0.0,
        **args: Any,
    ) -> None:
        record: Dict[str, Any] = {
            "name": name,
            "trace_id": int(trace_id),
            "span_id": int(span_id),
            "parent_id": int(parent_id),
            "pid": self.pid,
            "role": self.role,
            "ts": time.time() if start is None else float(start),
            "dur": float(duration),
        }
        if args:
            record["args"] = args
        self._file.write(json.dumps(record, separators=(",", ":"), default=str) + "\n")
        self._file.flush()

    def span(self, name: str, trace_id: int, parent_id: int = 0, **args: Any) -> _ShardSpan:
        return _ShardSpan(self, name, trace_id, parent_id, args)

    def close(self) -> None:
        if not self._file.closed:
            self._file.close()

    def __enter__(self) -> "SpanShardWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def merge_shards(
    directory,
    output=None,
    trace_id: Optional[int] = None,
) -> Dict[str, Any]:
    """Stitch every ``spans-*.jsonl`` shard under ``directory`` into one
    Chrome-trace dict (``{"traceEvents": [...]}``).

    Spans carry wall-clock start times, so shards written by different
    processes on the same host merge onto one timeline: events are
    sorted by start, rebased to the earliest, and converted to the
    microsecond units ``chrome://tracing`` / Perfetto expect.  Each
    distinct pid gets a ``process_name`` metadata row from its shard's
    role.  Torn tail lines (a process killed mid-write) are skipped,
    not fatal.  Pass ``trace_id`` to keep one trace only; pass
    ``output`` to also write the JSON to a file.
    """
    records: List[Dict[str, Any]] = []
    for path in sorted(Path(directory).glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    continue
                if not isinstance(record, dict) or "ts" not in record:
                    continue
                if trace_id is not None and record.get("trace_id") != trace_id:
                    continue
                records.append(record)
    records.sort(key=lambda r: (r["ts"], -r.get("dur", 0.0)))
    epoch = records[0]["ts"] if records else 0.0
    roles: Dict[int, str] = {}
    events: List[Dict[str, Any]] = []
    for record in records:
        pid = int(record.get("pid", 0))
        roles.setdefault(pid, str(record.get("role", "process")))
        args = dict(record.get("args") or {})
        args["trace_id"] = format(int(record.get("trace_id", 0)), "016x")
        args["span_id"] = format(int(record.get("span_id", 0)), "016x")
        parent = int(record.get("parent_id", 0))
        if parent:
            args["parent_span_id"] = format(parent, "016x")
        events.append(
            {
                "name": str(record.get("name", "span")),
                "ph": "X",
                "ts": (record["ts"] - epoch) * 1e6,
                "dur": float(record.get("dur", 0.0)) * 1e6,
                "pid": pid,
                "tid": int(record.get("tid", 0)),
                "args": args,
            }
        )
    metadata = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": f"{role} ({pid})"},
        }
        for pid, role in sorted(roles.items())
    ]
    trace = {"traceEvents": metadata + events}
    if output is not None:
        Path(output).write_text(json.dumps(trace, indent=1) + "\n")
    return trace


# --------------------------------------------------------------------------
# Flight recorder

class FlightRecorder:
    """Bounded ring of recent structured events, dumpable as JSONL.

    ``record`` is deliberately minimal — build one tuple, store it into
    a preallocated slot, bump two integers — so it can stay *always on*
    in the serve hot path (one event per frame/group, not per click).
    There are no locks: the server's single event loop is the only
    writer, and a Python list item assignment is atomic under the GIL,
    so a dump taken from a signal handler or another thread sees a
    consistent ring at worst one event stale.
    """

    __slots__ = ("_events", "_next", "recorded", "dumps")

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 16:
            raise ConfigurationError(
                f"flight recorder capacity must be >= 16, got {capacity}"
            )
        self._events: List[Optional[tuple]] = [None] * int(capacity)
        self._next = 0
        self.recorded = 0
        self.dumps = 0

    @property
    def capacity(self) -> int:
        return len(self._events)

    def record(self, kind: str, **fields: Any) -> None:
        slot = self._next
        self._events[slot] = (self.recorded, time.time(), kind, fields)
        self.recorded += 1
        self._next = slot + 1 if slot + 1 < len(self._events) else 0

    def events(self) -> List[tuple]:
        """Retained ``(seq, ts, kind, fields)`` tuples, oldest first."""
        if self.recorded <= len(self._events):
            kept = self._events[: self.recorded]
        else:
            kept = self._events[self._next :] + self._events[: self._next]
        return [event for event in kept if event is not None]

    def dump(self, directory, reason: str) -> Path:
        """Write the ring to ``flight-<reason>-<pid>-<n>.jsonl``; return the path.

        Line 1 is a header (schema, reason, pid, counts); every further
        line is one event with a monotone ``seq`` — :meth:`parse` checks
        both, so a truncated or interleaved dump fails loudly instead of
        silently reading short.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        events = self.events()
        path = directory / f"flight-{reason}-{os.getpid()}-{self.dumps:04d}.jsonl"
        header = {
            "flight_recorder": FLIGHT_SCHEMA,
            "reason": reason,
            "pid": os.getpid(),
            "dumped_at": time.time(),
            "recorded": self.recorded,
            "dropped": max(0, self.recorded - len(self._events)),
            "events": len(events),
        }
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header, separators=(",", ":")) + "\n")
            for seq, ts, kind, fields in events:
                record = dict(fields)
                record["seq"] = seq
                record["ts"] = ts
                record["kind"] = kind
                handle.write(
                    json.dumps(record, separators=(",", ":"), default=str) + "\n"
                )
        self.dumps += 1
        return path

    @staticmethod
    def parse(path) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
        """Read a dump back as ``(header, events)``.

        Raises :class:`ValueError` when the header is missing, the event
        count disagrees with the header, or ``seq`` is not strictly
        increasing — the round-trip guarantee the chaos soak asserts.
        """
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        if not lines:
            raise ValueError(f"{path}: empty flight dump")
        header = json.loads(lines[0])
        if not isinstance(header, dict) or "flight_recorder" not in header:
            raise ValueError(f"{path}: first line is not a flight-recorder header")
        events = [json.loads(line) for line in lines[1:] if line.strip()]
        previous = None
        for event in events:
            seq = event.get("seq")
            if not isinstance(seq, int) or (previous is not None and seq <= previous):
                raise ValueError(
                    f"{path}: event sequence not strictly increasing at {seq!r}"
                )
            previous = seq
        if header.get("events") != len(events):
            raise ValueError(
                f"{path}: header promises {header.get('events')} events, "
                f"found {len(events)}"
            )
        return header, events

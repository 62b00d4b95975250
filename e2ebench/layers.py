"""Traced mode: per-layer timers around public calls, and readers for
what the server already writes (flight-recorder dump, span shards).

Nothing here is imported by an untraced run's timed code: the wrappers
exist only while a :class:`LayerTimers` is installed.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core import gbf as core_gbf
from repro.core import kernels
from repro.core import tbf as core_tbf
from repro.hashing import SplitMixFamily
from repro.telemetry.requesttrace import FlightRecorder


class LayerTimers:
    """Wall-clock timers wrapped around module and class attributes.

    A wrapped call adds its duration to its layer's total while the
    timers are ``active``, unless a call of the same layer is already
    running, so nested kernels count once.
    """

    def __init__(self) -> None:
        self.active = True
        self.seconds: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self._depth: Dict[str, int] = defaultdict(int)
        self._patches: List[Tuple[object, str, object]] = []

    def wrap(self, owner, name: str, layer: str) -> None:
        original = inspect.getattr_static(owner, name)
        seconds, calls, depth = self.seconds, self.calls, self._depth

        def timed(*args, **kwargs):
            if depth[layer] or not self.active:
                return original(*args, **kwargs)
            depth[layer] = 1
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                seconds[layer] += time.perf_counter() - start
                calls[layer] += 1
                depth[layer] = 0

        setattr(owner, name, timed)
        self._patches.append((owner, name, original))

    def install(self, detector_type, timed: bool) -> None:
        """Wrap hashing, the detector's batch entry, kernels, resolver.

        Call before the pipeline is built: it binds the detector's
        batch method once.
        """
        self.wrap(SplitMixFamily, "indices_batch", "hashing")
        self.wrap(detector_type,
                  "process_batch_at" if timed else "process_batch", "detector")
        for name, value in vars(kernels).items():
            if (inspect.isfunction(value) and not name.startswith("_")
                    and value.__module__ == kernels.__name__):
                self.wrap(kernels, name, "kernels")
        for module in (core_tbf, core_gbf):
            self.wrap(module, "resolve_inserts", "resolve_inserts")

    def restore(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()


def flight_summary(flight_dir: Path, start: float, end: float) -> Dict[str, float]:
    """Engine and coalescer figures from the drain dump, within [start, end].

    ``start``/``end`` are wall-clock (``time.time``) bounds of the phase
    the figures describe; the ring keeps only its newest events.
    """
    dumps = sorted(flight_dir.glob("flight-drain-*.jsonl"))
    if not dumps:
        raise RuntimeError(f"no flight-recorder drain dump in {flight_dir}")
    _, events = FlightRecorder.parse(dumps[-1])
    events = [e for e in events if start <= e["ts"] <= end]
    frames = sum(1 for e in events if e["kind"] == "frame")
    deadline_flushes = sum(
        1 for e in events if e["kind"] == "flush" and e.get("reason") == "deadline"
    )
    engine_seconds = 0.0
    clicks = 0
    groups = 0
    opened: Optional[dict] = None
    for event in events:
        if event["kind"] == "group_start":
            opened = event
        elif event["kind"] == "group_end" and opened is not None:
            engine_seconds += event["ts"] - opened["ts"]
            clicks += opened["clicks"]
            groups += 1
            opened = None
    if not groups or not frames:
        raise RuntimeError("flight dump holds no complete group in the phase")
    return {
        "frames": frames,
        "groups": groups,
        "clicks": clicks,
        "engine_us_per_click": engine_seconds / clicks * 1e6,
        "clicks_per_group": clicks / groups,
        "deadline_flushes_per_kframe": deadline_flushes / frames * 1e3,
    }


def server_group_spans(trace_dir: Path) -> Dict[int, float]:
    """trace id -> ``server.process_group`` duration (s) from the shards."""
    spans: Dict[int, float] = {}
    for path in trace_dir.glob("spans-server-*.jsonl"):
        for line in path.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            if record.get("name") == "server.process_group":
                spans[int(record["trace_id"])] = float(record["dur"])
    return spans


def wait_p50_ms(
    client_spans: Dict[int, float], server_spans: Dict[int, float]
) -> Tuple[float, int]:
    """Median of client request time minus server group time, and n.

    A group carries the span of its first traced request only, so a
    traced frame coalesced behind another one has no server span and
    is left out.
    """
    waits = [client_spans[t] - server_spans[t] for t in client_spans
             if t in server_spans]
    if not waits:
        raise RuntimeError("no traced frame has a server.process_group span")
    return float(np.median(waits)) * 1e3, len(waits)

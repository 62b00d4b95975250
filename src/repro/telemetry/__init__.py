"""Runtime telemetry: metrics registry, span shards, detector instruments.

The observability layer of the reproduction (see docs/observability.md):

* :mod:`.registry` — zero-dependency counters / gauges / histograms
  with Prometheus-text and JSON exposition, plus an exact
  ``state_dict`` read.
* :mod:`.instruments` — projects detector health snapshots (fill
  ratios, live FP estimates vs. the paper's theoretical bounds,
  rotation/cleaning progress) into the registry.
* :mod:`.session` — the bundle pipelines accept; disabled by default
  via no-op twins so the hot path pays a single dead call.
* :mod:`.monitor` — terminal dashboard rendering for ``repro monitor``.
* :mod:`.requesttrace` — the one span model (per-process span shards
  merged into one Chrome trace, used by the serve path and by
  instrumented pipelines), per-stage serve latency with exact streaming
  quantiles, and the crash flight recorder.
"""

from .instruments import DetectorInstrument, theoretical_fp_bound
from .monitor import render_dashboard
from .registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
)
from .requesttrace import (
    SERVE_STAGES,
    FlightRecorder,
    SpanShardWriter,
    StageLatencyRecorder,
    StreamingQuantile,
    current_trace,
    merge_shards,
    new_span_id,
    new_trace_id,
    set_current_trace,
)
from .session import TelemetrySession

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "DetectorInstrument",
    "theoretical_fp_bound",
    "TelemetrySession",
    "render_dashboard",
    "SERVE_STAGES",
    "StreamingQuantile",
    "StageLatencyRecorder",
    "FlightRecorder",
    "SpanShardWriter",
    "merge_shards",
    "new_trace_id",
    "new_span_id",
    "set_current_trace",
    "current_trace",
]

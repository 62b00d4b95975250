"""Telemetry overhead: bare vs no-op session vs fully instrumented.

The observability layer promises two ceilings (docs/observability.md):

* **disabled** — a pipeline holding the default no-op
  :class:`~repro.telemetry.TelemetrySession` must cost < 3% over a bare
  chunk loop with no telemetry calls at all, and
* **enabled** — a real registry + detector instrument + periodic
  snapshot collection must cost < 30%.  (The absolute per-chunk cost
  hasn't grown since the ceiling was 15% — the fused batch path under
  it got ~3x faster, so the same snapshots are a larger fraction of a
  much shorter pass.)

Both ceilings are asserted here for the paper's two headline detectors
(GBF and TBF) on their vectorized batch path.  The three modes run the
*identical* detector work per round — same stream, same chunking — and
rounds are interleaved (bare, noop, enabled, bare, ...) so thermal and
allocator drift hits every mode equally; the *median* over rounds is
compared.  (Min-of-rounds looks tempting but makes the overhead a
difference of two extremes: whichever mode got the single luckiest
round wins, and the ratio comes out negative as often as not.  The
median is stable against both the slow outliers the min also ignores
and the lucky ones it doesn't.)  Ceilings are overridable for noisy
shared runners via ``REPRO_TELEMETRY_NOOP_CEILING`` /
``REPRO_TELEMETRY_ENABLED_CEILING``.

Measurement noise still dominates near zero: even the median-of-9
no-op overhead can land a fraction of a percent *negative* on a quiet
host, because the no-op session's dead method calls cost less than one
timer tick per chunk and the two modes' medians are then two draws
from overlapping distributions.  A negative reading means "too small
to measure", not "telemetry made it faster" — ``benchmarks/record.py``
therefore clamps the recorded ``noop_overhead_pct`` at 0.0 so BENCH
diffs never advertise a phantom speedup.
"""

import os
import time

import numpy as np
import pytest

from repro.streams import distinct_stream
from repro.telemetry import TelemetrySession

from test_batch_throughput import CHUNK, WINDOW, build_detector

# Long enough that one mode pass is tens of milliseconds on the
# vectorized path — shorter passes drown a few-percent overhead in
# timer and scheduler jitter no matter how the rounds are aggregated.
TIMED = 16 * WINDOW
ROUNDS = 9
MODES = ("bare", "noop", "enabled")
NOOP_CEILING = float(os.environ.get("REPRO_TELEMETRY_NOOP_CEILING", "0.03"))
ENABLED_CEILING = float(os.environ.get("REPRO_TELEMETRY_ENABLED_CEILING", "0.30"))


def _session_for(mode: str):
    if mode == "bare":
        return None
    if mode == "noop":
        return TelemetrySession.disabled()
    # One snapshot per window: instruments collect (and fill gauges
    # recompute) a few times inside the timed region, as they would in
    # a real `repro monitor` run.  Collection is pull-based, so the
    # cadence needs a subscriber, as `repro monitor` has one.
    session = TelemetrySession(snapshot_every=WINDOW)
    session.on_snapshot(lambda snapshot: None)
    return session


def time_mode(name: str, mode: str, identifiers, warmup) -> float:
    """Seconds for one timed pass of ``mode`` over ``identifiers``.

    The per-chunk shape mirrors ``DetectionPipeline.run_batch`` without
    a span writer (``repro monitor --trace-out`` is the one caller that
    attaches one): the batch call, counter increments for the chunk's
    verdict tallies, and ``advance`` driving the snapshot cadence.  In
    bare mode the telemetry lines are absent entirely; in noop mode
    they hit the null twins.
    """
    detector = build_detector(name)
    session = _session_for(mode)
    process_batch = detector.process_batch
    process_batch(warmup)

    if session is None:
        start = time.perf_counter()
        for s in range(0, TIMED, CHUNK):
            chunk = identifiers[s : s + CHUNK]
            verdicts = process_batch(chunk)
            int(np.count_nonzero(verdicts))
        return time.perf_counter() - start

    if session.enabled:
        session.instrument_detector(detector)
    registry = session.registry
    clicks_total = registry.counter(
        "repro_pipeline_clicks_total", "Clicks processed by the pipeline"
    )
    duplicates_total = registry.counter(
        "repro_pipeline_duplicates_total", "Clicks rejected as duplicates"
    )
    advance = session.advance
    start = time.perf_counter()
    for s in range(0, TIMED, CHUNK):
        chunk = identifiers[s : s + CHUNK]
        verdicts = process_batch(chunk)
        duplicates = int(np.count_nonzero(verdicts))
        clicks_total.inc(chunk.shape[0])
        if duplicates:
            duplicates_total.inc(duplicates)
        advance(chunk.shape[0])
    return time.perf_counter() - start


def measure_overheads(name: str):
    """Interleaved median-of-``ROUNDS`` timing; returns seconds per mode."""
    warmup = distinct_stream(2 * WINDOW, seed=7).astype(np.uint64)
    segment = distinct_stream(TIMED, seed=8).astype(np.uint64)
    times = {mode: [] for mode in MODES}
    for round_index in range(ROUNDS):
        # Rotate the starting mode so each mode occupies each position
        # equally often: clock ramp-up, cache warmth, and allocator
        # state systematically favour whichever mode runs later in a
        # round, and a fixed order turns that into a fake overhead
        # (negative for the first mode).
        for offset in range(len(MODES)):
            mode = MODES[(round_index + offset) % len(MODES)]
            times[mode].append(time_mode(name, mode, segment, warmup))
    return {mode: float(np.median(times[mode])) for mode in MODES}


@pytest.mark.parametrize("name", ["gbf", "tbf"])
def test_telemetry_overhead(benchmark, report, name):
    best = benchmark.pedantic(
        lambda: measure_overheads(name), rounds=1, iterations=1
    )
    noop_overhead = best["noop"] / best["bare"] - 1.0
    enabled_overhead = best["enabled"] / best["bare"] - 1.0
    text = (
        f"{name}: bare {TIMED / best['bare']:>12,.0f} clicks/s"
        f"  noop {100 * noop_overhead:+.2f}%"
        f"  enabled {100 * enabled_overhead:+.2f}%\n"
    )
    report(f"telemetry_overhead_{name}", text)
    benchmark.extra_info["bare_cps"] = TIMED / best["bare"]
    benchmark.extra_info["noop_overhead"] = noop_overhead
    benchmark.extra_info["enabled_overhead"] = enabled_overhead

    assert noop_overhead < NOOP_CEILING, (
        f"{name}: disabled telemetry costs {100 * noop_overhead:.2f}% "
        f"(ceiling {100 * NOOP_CEILING:.0f}%)"
    )
    assert enabled_overhead < ENABLED_CEILING, (
        f"{name}: enabled telemetry costs {100 * enabled_overhead:.2f}% "
        f"(ceiling {100 * ENABLED_CEILING:.0f}%)"
    )

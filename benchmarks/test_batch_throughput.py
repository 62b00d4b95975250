"""Scalar vs vectorized batch throughput for all seven core detectors.

The batch path (``process_batch`` / ``process_batch_at``) is required to
be *bit-identical* to the scalar loop — same verdicts, same checkpoint
bytes, same operation counts — so this bench both times the two paths
and asserts the equivalence on the exact stream it timed.  For the
paper's two headline detectors (GBF and TBF) it additionally asserts the
batch path clears a speedup floor on distinct traffic: 5x by default,
overridable via ``REPRO_BENCH_SPEEDUP_FLOOR`` so CI smoke runs on noisy
shared runners don't flap.
"""

import os
import time

import numpy as np
import pytest

from repro.core import (
    GBFDetector,
    TBFDetector,
    TBFJumpingDetector,
    TimeBasedGBFDetector,
    TimeBasedTBFDetector,
    save_detector,
)
from repro.adaptive import (
    AgePartitionedBFDetector,
    TimeLimitedBFDetector,
    plan_apbf_from_memory,
    plan_tlbf_from_memory,
)
from repro.metrics.throughput import ThroughputResult
from repro.streams import distinct_stream

WINDOW = 1 << 12
SUBWINDOWS = 8
MEMORY_BITS = 1 << 18
NUM_HASHES = 6
CHUNK = 4096
TIMED = 4 * WINDOW
DURATION = float(WINDOW)  # time-based twins: one click per second

SPEEDUP_FLOOR = float(os.environ.get("REPRO_BENCH_SPEEDUP_FLOOR", "5"))
FLOOR_NAMES = {"gbf", "tbf"}

NAMES = [
    "gbf",
    "tbf",
    "tbf-jumping",
    "gbf-time",
    "tbf-time",
    "apbf",
    "time-limited-bf",
]


def build_detector(name: str):
    bits_per_filter = MEMORY_BITS // (SUBWINDOWS + 1)
    if name == "gbf":
        return GBFDetector(WINDOW, SUBWINDOWS, bits_per_filter, NUM_HASHES, seed=1)
    if name == "tbf":
        return TBFDetector(WINDOW, MEMORY_BITS // 14, NUM_HASHES, seed=1)
    if name == "tbf-jumping":
        return TBFJumpingDetector(
            WINDOW, SUBWINDOWS, MEMORY_BITS // 5, NUM_HASHES, seed=1
        )
    if name == "gbf-time":
        return TimeBasedGBFDetector(
            DURATION, SUBWINDOWS, bits_per_filter, NUM_HASHES, seed=1
        )
    if name == "tbf-time":
        return TimeBasedTBFDetector(
            DURATION, SUBWINDOWS * 16, MEMORY_BITS // 14, NUM_HASHES, seed=1
        )
    if name == "apbf":
        plan = plan_apbf_from_memory(WINDOW, MEMORY_BITS, NUM_HASHES)
        return AgePartitionedBFDetector(
            plan.num_required,
            plan.num_aged,
            plan.slice_bits,
            plan.generation_size,
            seed=1,
        )
    if name == "time-limited-bf":
        plan = plan_tlbf_from_memory(
            WINDOW, 2 * NUM_HASHES, MEMORY_BITS, NUM_HASHES
        )
        return TimeLimitedBFDetector(
            DURATION, plan.num_required, plan.num_aged, plan.slice_bits, seed=1
        )
    raise ValueError(name)


def run_scalar(detector, identifiers, timestamps=None):
    """Scalar loop over the segment; returns (verdicts, timing)."""
    ids = [int(x) for x in identifiers]
    verdicts = np.empty(len(ids), dtype=bool)
    if timestamps is None:
        process = detector.process
        start = time.perf_counter()
        for position, identifier in enumerate(ids):
            verdicts[position] = process(identifier)
        elapsed = time.perf_counter() - start
    else:
        stamps = [float(t) for t in timestamps]
        process_at = detector.process_at
        start = time.perf_counter()
        for position, identifier in enumerate(ids):
            verdicts[position] = process_at(identifier, stamps[position])
        elapsed = time.perf_counter() - start
    return verdicts, ThroughputResult(elements=len(ids), seconds=elapsed)


def run_batch(detector, identifiers, timestamps=None, chunk=CHUNK):
    """Batch path over the segment in ``chunk``-sized calls."""
    n = identifiers.shape[0]
    verdicts = np.empty(n, dtype=bool)
    if timestamps is None:
        process_batch = detector.process_batch
        start = time.perf_counter()
        for s in range(0, n, chunk):
            verdicts[s : s + chunk] = process_batch(identifiers[s : s + chunk])
        elapsed = time.perf_counter() - start
    else:
        process_batch_at = detector.process_batch_at
        start = time.perf_counter()
        for s in range(0, n, chunk):
            verdicts[s : s + chunk] = process_batch_at(
                identifiers[s : s + chunk], timestamps[s : s + chunk]
            )
        elapsed = time.perf_counter() - start
    return verdicts, ThroughputResult(elements=n, seconds=elapsed)


def compare_paths(name: str, timed: int = TIMED, chunk: int = CHUNK):
    """Warm up, time scalar vs batch on one stream, verify equivalence.

    Returns ``(scalar_result, batch_result)``; raises AssertionError if
    the two paths diverge in verdicts, state, or operation counts.
    """
    scalar_detector = build_detector(name)
    batch_detector = build_detector(name)
    timebased = scalar_detector.timed

    warmup = distinct_stream(2 * WINDOW, seed=7).astype(np.uint64)
    segment = distinct_stream(timed, seed=8).astype(np.uint64)
    if timebased:
        warm_ts = np.arange(warmup.shape[0], dtype=np.float64)
        seg_ts = warm_ts[-1] + 1.0 + np.arange(timed, dtype=np.float64)
    else:
        warm_ts = seg_ts = None

    run_scalar(scalar_detector, warmup, warm_ts)
    run_batch(batch_detector, warmup, warm_ts, chunk)

    scalar_verdicts, scalar_result = run_scalar(scalar_detector, segment, seg_ts)
    batch_verdicts, batch_result = run_batch(batch_detector, segment, seg_ts, chunk)

    assert np.array_equal(scalar_verdicts, batch_verdicts), name
    assert save_detector(scalar_detector) == save_detector(batch_detector), name
    assert scalar_detector.counter == batch_detector.counter, name
    return scalar_result, batch_result


@pytest.mark.parametrize("name", NAMES)
def test_batch_throughput(benchmark, report, name):
    scalar_result, batch_result = benchmark.pedantic(
        lambda: compare_paths(name), rounds=1, iterations=1
    )
    speedup = scalar_result.seconds / batch_result.seconds
    text = (
        f"{name}: scalar {scalar_result.elements_per_second:>12,.0f} clicks/s"
        f"  batch {batch_result.elements_per_second:>12,.0f} clicks/s"
        f"  speedup {speedup:.1f}x\n"
    )
    report(f"batch_throughput_{name}", text)
    benchmark.extra_info["scalar_cps"] = scalar_result.elements_per_second
    benchmark.extra_info["batch_cps"] = batch_result.elements_per_second
    benchmark.extra_info["speedup"] = speedup

    if name in FLOOR_NAMES:
        assert speedup >= SPEEDUP_FLOOR, (
            f"{name} batch path only {speedup:.2f}x faster than scalar "
            f"(floor {SPEEDUP_FLOOR}x)"
        )

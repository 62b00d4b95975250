"""Cluster tier throughput: scatter/gather scaling across serve nodes.

Streams one pipelined TCP load through a live ``LocalCluster`` — router
in front, N serve nodes behind it — at 1, 2, and 4 nodes, and verifies
on the exact stream it timed that the gathered verdicts are
bit-identical to the equivalent single-process ``ShardedDetector``.
The scaling assertion (2 nodes must clear ``REPRO_BENCH_CLUSTER_FLOOR``x
the 1-node cluster baseline, default 1.5x) only runs on hosts with at
least 4 CPUs: every node is a real thread-hosted asyncio server doing
detection work, so on smaller hosts the sweep still runs and records
honest numbers, but the floor is not enforced.
"""

import os
import tempfile
import time
from collections import deque

import numpy as np
import pytest

from repro.cluster import LocalCluster
from repro.detection import (
    DetectorSpec,
    ShardedDetector,
    TBFParams,
    WindowSpec,
    create_detector,
)
from repro.metrics.throughput import ThroughputResult
from repro.serve import ServeClient

WINDOW = 1 << 14
TOTAL_ENTRIES = 1 << 17
NUM_HASHES = 6
SHARDS = 8
TOTAL_CLICKS = 1 << 18
BATCH = 4096
WINDOW_DEPTH = 32

NODE_COUNTS = [1, 2, 4]
CLUSTER_FLOOR = float(os.environ.get("REPRO_BENCH_CLUSTER_FLOOR", "1.5"))


def build_reference() -> ShardedDetector:
    return create_detector(DetectorSpec(
        "tbf", WindowSpec("sliding", WINDOW),
        params=TBFParams(TOTAL_ENTRIES, NUM_HASHES), seed=1, shards=SHARDS,
    ))


def _stream(count, seed=13):
    rng = np.random.default_rng(seed)
    # Universe sized to the window so a realistic share of clicks are
    # duplicates and every shard does real insert + expiry work.
    return rng.integers(0, WINDOW, size=count, dtype=np.uint64)


def _drive(port: int, chunks, depth: int = WINDOW_DEPTH):
    """Pipelined submit/collect loop; returns (verdicts, seconds)."""
    verdicts = [None] * len(chunks)
    with ServeClient("127.0.0.1", port) as client:
        inflight = deque()
        start = time.perf_counter()
        for index, chunk in enumerate(chunks):
            while len(inflight) >= depth:
                verdicts[inflight.popleft()] = client.collect()
            client.submit(chunk)
            inflight.append(index)
        while inflight:
            verdicts[inflight.popleft()] = client.collect()
        elapsed = time.perf_counter() - start
    return verdicts, elapsed


def run_cluster_sweep(node_counts=NODE_COUNTS, clicks=TOTAL_CLICKS):
    """Time the cluster at each node count; verify bit-identity throughout.

    Returns ``{nodes: ThroughputResult}``.  Shared with
    ``benchmarks/record.py`` so BENCH_throughput.json quotes the same
    measurement this bench asserts on.
    """
    warmup = _stream(2 * WINDOW, seed=7)
    segment = _stream(clicks, seed=8)
    warmup_chunks = [
        warmup[offset : offset + BATCH]
        for offset in range(0, warmup.shape[0], BATCH)
    ]
    chunks = [
        segment[offset : offset + BATCH] for offset in range(0, clicks, BATCH)
    ]

    reference = build_reference()
    reference.observe_batch(warmup)
    expected = reference.observe_batch(segment)

    results = {}
    for nodes in node_counts:
        with tempfile.TemporaryDirectory(prefix="repro-bench-cluster-") as state:
            with LocalCluster(build_reference, nodes, state) as cluster:
                _drive(cluster.port, warmup_chunks)
                verdicts, elapsed = _drive(cluster.port, chunks)
        assert np.array_equal(np.concatenate(verdicts), expected), nodes
        results[nodes] = ThroughputResult(elements=clicks, seconds=elapsed)
    return results


def test_cluster_scaling(benchmark, report):
    cores = os.cpu_count() or 1
    # A node count past the physical cores cannot scale and only adds
    # minutes of contention; sweep what the host can actually parallelize
    # (1 node always runs so the baseline and bit-identity check exist).
    counts = [count for count in NODE_COUNTS if count <= cores] or [1]
    sweep = benchmark.pedantic(
        run_cluster_sweep, args=(counts,), rounds=1, iterations=1
    )
    base = sweep[counts[0]]
    lines = []
    for nodes, result in sweep.items():
        speedup = base.seconds / result.seconds
        lines.append(
            f"cluster x{nodes}: {result.elements_per_second:>12,.0f} clicks/s"
            f"  speedup {speedup:.2f}x vs 1 node\n"
        )
        benchmark.extra_info[f"cluster_{nodes}_cps"] = result.elements_per_second
        benchmark.extra_info[f"cluster_{nodes}_speedup"] = speedup
    skipped = [count for count in NODE_COUNTS if count not in sweep]
    if skipped:
        lines.append(
            f"cluster x{','.join(map(str, skipped))}: skipped "
            f"(host has {cores} CPUs)\n"
        )
    report("cluster_throughput", "".join(lines))

    if cores < 4:
        pytest.skip(
            f"host has {cores} CPUs; the 2-node scaling floor needs a "
            "router, a client, and two busy nodes to run in parallel"
        )
    speedup2 = base.seconds / sweep[2].seconds
    assert speedup2 >= CLUSTER_FLOOR, (
        f"2 nodes only {speedup2:.2f}x over the 1-node cluster baseline "
        f"(floor {CLUSTER_FLOOR}x; override REPRO_BENCH_CLUSTER_FLOOR)"
    )

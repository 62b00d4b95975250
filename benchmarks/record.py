"""Record scalar vs batch detector throughput to BENCH_throughput.json.

Runs the same comparison as ``test_batch_throughput.py`` — warm-up, one
timed window sweep per path, bit-identity checks — for every detector,
and writes the clicks/sec numbers to a JSON file at the repo root so the
current machine's numbers are versioned alongside the code:

    PYTHONPATH=src python benchmarks/record.py            # full run
    PYTHONPATH=src python benchmarks/record.py --quick    # CI smoke

See docs/performance.md for how to read and refresh the file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from test_adaptive_quality import (  # noqa: E402
    run_quality_sweep,
)
from test_batch_throughput import (  # noqa: E402
    CHUNK,
    MEMORY_BITS,
    NAMES,
    NUM_HASHES,
    SUBWINDOWS,
    TIMED,
    TRIALS,
    WINDOW,
    best_of_trials,
)
from test_cluster_throughput import (  # noqa: E402
    NODE_COUNTS,
    run_cluster_sweep,
)
from test_parallel_throughput import (  # noqa: E402
    WORKER_COUNTS,
    run_parallel_sweep,
)
from test_serve_throughput import (  # noqa: E402
    BATCH,
    WINDOW_DEPTH,
    run_latency_bench,
    run_serve_bench,
)
from test_telemetry_overhead import (  # noqa: E402
    TIMED as TELEMETRY_TIMED,
    measure_overheads,
)

#: Bump when the report's shape changes (keys added/renamed/removed or
#: their meaning shifts).  ``record.py`` refuses to overwrite a BENCH
#: file written under a different schema unless ``--force`` is given,
#: so a stale checkout cannot silently clobber numbers a newer layout
#: already recorded (or vice versa).
#:
#: Schema 4: multi-worker/multi-node sweeps only run counts the host
#: can parallelize — counts past ``os.cpu_count()`` are recorded as
#: tagged skips instead of timings that could only show fake slowdown —
#: and a ``cluster`` scatter/gather section joins the report.
#:
#: Schema 5: an ``adaptive`` quality section joins the report — per
#: variant (GBF/TBF/APBF/TLBF at one window + target-FP point) the
#: memory, bits-per-click, and measured-vs-design FP rate from
#: ``test_adaptive_quality.py``.  Unlike the throughput sections these
#: numbers are fully deterministic (seeded streams, no timing), so
#: ``check_regression.py`` gates them tightly across hosts.
#:
#: Schema 6: the ``detectors`` section adds the sliced filters
#: (``apbf``, ``time-limited-bf``), which ``check_regression.py``
#: reads and gates.
SCHEMA_VERSION = 6


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="time one window instead of four (CI smoke; numbers are noisier)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / "BENCH_throughput.json",
        help="where to write the JSON report (default: repo root)",
    )
    parser.add_argument(
        "--force",
        action="store_true",
        help="overwrite the output even if it was written under a "
        "different schema_version",
    )
    parser.add_argument(
        "--trials",
        type=int,
        default=TRIALS,
        help="detector timing trials; the best per path is recorded "
        "(suppresses scheduler noise, standard for throughput numbers)",
    )
    args = parser.parse_args(argv)

    if args.output.exists() and not args.force:
        try:
            existing = json.loads(args.output.read_text())
        except ValueError:
            existing = None
        old_schema = (
            existing.get("schema_version") if isinstance(existing, dict) else None
        )
        if old_schema != SCHEMA_VERSION:
            parser.error(
                f"{args.output} holds schema {old_schema!r} but this writer "
                f"emits schema {SCHEMA_VERSION}; pass --force to overwrite"
            )

    timed = WINDOW if args.quick else TIMED
    trials = 1 if args.quick else max(1, args.trials)
    detectors = {}
    for name in NAMES:
        scalar_result, batch_result = best_of_trials(name, trials, timed)
        detectors[name] = {
            "scalar_clicks_per_sec": round(scalar_result.elements_per_second, 1),
            "batch_clicks_per_sec": round(batch_result.elements_per_second, 1),
            "speedup": round(
                scalar_result.seconds / batch_result.seconds, 2
            ),
        }
        print(
            f"{name:>12}: scalar {scalar_result.elements_per_second:>12,.0f}"
            f"  batch {batch_result.elements_per_second:>12,.0f}"
            f"  ({detectors[name]['speedup']}x)"
        )

    telemetry = {}
    for name in ("gbf", "tbf"):
        best = measure_overheads(name)
        telemetry[name] = {
            "bare_clicks_per_sec": round(TELEMETRY_TIMED / best["bare"], 1),
            # Clamped at 0: the no-op path cannot actually be faster
            # than the bare one, so a negative measured overhead is
            # scheduler/cache noise — recording it as a speedup would
            # mislead BENCH diffs (see test_telemetry_overhead.py).
            "noop_overhead_pct": round(
                max(0.0, 100 * (best["noop"] / best["bare"] - 1)), 2
            ),
            "enabled_overhead_pct": round(
                100 * (best["enabled"] / best["bare"] - 1), 2
            ),
        }
        print(
            f"{name:>12}: telemetry noop "
            f"{telemetry[name]['noop_overhead_pct']:+.2f}%"
            f"  enabled {telemetry[name]['enabled_overhead_pct']:+.2f}%"
        )

    # Worker/node counts past the physical cores cannot speed anything
    # up — timing them records a "0.33 efficiency" that reads as a
    # scaling bug when it is only the host being small.  Run what the
    # host can parallelize and tag the rest as skipped so a BENCH diff
    # distinguishes "slower" from "never measured here".
    cpu_count = os.cpu_count() or 1

    def _skip_tag(counts):
        return {
            str(count): {"skipped": f"host has {cpu_count} CPUs, not {count}"}
            for count in counts
            if count > cpu_count
        }

    worker_counts = [c for c in WORKER_COUNTS if c <= cpu_count] or [1]
    sweep = run_parallel_sweep(worker_counts)
    base_seconds = sweep[worker_counts[0]].seconds
    parallel = {
        "cpu_count": cpu_count,
        "workers": _skip_tag(WORKER_COUNTS),
    }
    for workers, result in sweep.items():
        speedup = base_seconds / result.seconds
        parallel["workers"][str(workers)] = {
            "clicks_per_sec": round(result.elements_per_second, 1),
            "speedup_vs_1_worker": round(speedup, 2),
            "scaling_efficiency": round(speedup / workers, 2),
        }
        print(
            f"{'parallel x' + str(workers):>12}:"
            f" {result.elements_per_second:>12,.0f} clicks/s"
            f"  ({speedup:.2f}x vs 1 worker)"
        )
    for count in sorted(WORKER_COUNTS):
        if count > cpu_count:
            print(f"{'parallel x' + str(count):>12}: skipped ({cpu_count} CPUs)")

    node_counts = [c for c in NODE_COUNTS if c <= cpu_count] or [1]
    cluster_sweep = run_cluster_sweep(
        node_counts, clicks=(1 << 16) if args.quick else (1 << 18)
    )
    cluster_base = cluster_sweep[node_counts[0]].seconds
    cluster = {
        "cpu_count": cpu_count,
        "nodes": _skip_tag(NODE_COUNTS),
    }
    for nodes, result in cluster_sweep.items():
        speedup = cluster_base / result.seconds
        cluster["nodes"][str(nodes)] = {
            "clicks_per_sec": round(result.elements_per_second, 1),
            "speedup_vs_1_node": round(speedup, 2),
        }
        print(
            f"{'cluster x' + str(nodes):>12}:"
            f" {result.elements_per_second:>12,.0f} clicks/s"
            f"  ({speedup:.2f}x vs 1 node)"
        )
    for count in sorted(NODE_COUNTS):
        if count > cpu_count:
            print(f"{'cluster x' + str(count):>12}: skipped ({cpu_count} CPUs)")

    adaptive = run_quality_sweep()
    for name, entry in adaptive.items():
        print(
            f"{name:>12}: {entry['bits_per_click']:>7.1f} bits/click"
            f"  measured FP {entry['measured_fp_rate']:.4f}"
            f"  ({entry['bound_kind']} bound {entry['design_fp_bound']:.4f})"
        )

    serve_result = run_serve_bench(clicks=(1 << 16) if args.quick else (1 << 18))
    serve = {
        "clicks_per_sec": round(serve_result.elements_per_second, 1),
        "batch": BATCH,
        "pipeline_depth": WINDOW_DEPTH,
        "clicks": serve_result.elements,
        # The binary ingest path decodes straight into array views over
        # the wire bytes (docs/performance.md); recorded so a BENCH
        # diff shows which decode the number was taken under.
        "decode": "zero-copy",
    }
    print(
        f"{'serve':>12}: {serve_result.elements_per_second:>12,.0f} clicks/s"
        f"  (TCP, batch={BATCH}, depth={WINDOW_DEPTH})"
    )

    rtt = run_latency_bench(clicks=(1 << 15) if args.quick else (1 << 17))
    # ``run_load`` reports ``latency: None`` when no batch completed a
    # round trip; don't let the recorder crash indexing into it.
    if rtt is None:
        latency = None
        print(f"{'latency':>12}: no completed batches; section omitted")
    else:
        latency = {
            "batch": BATCH,
            "pipeline_depth": WINDOW_DEPTH,
            "batches": rtt["batches"],
            "p50_ms": round(rtt["p50_s"] * 1000, 3),
            "p95_ms": round(rtt["p95_s"] * 1000, 3),
            "p99_ms": round(rtt["p99_s"] * 1000, 3),
            "max_ms": round(rtt["max_s"] * 1000, 3),
        }
        print(
            f"{'latency':>12}: p50 {latency['p50_ms']:.2f}ms"
            f"  p95 {latency['p95_ms']:.2f}ms"
            f"  p99 {latency['p99_ms']:.2f}ms"
            f"  (batch RTT over {latency['batches']} batches)"
        )

    payload = {
        "schema_version": SCHEMA_VERSION,
        "config": {
            "window": WINDOW,
            "subwindows": SUBWINDOWS,
            "memory_bits": MEMORY_BITS,
            "num_hashes": NUM_HASHES,
            "chunk_size": CHUNK,
            "timed_elements": timed,
            "quick": args.quick,
        },
        "platform": {
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "detectors": detectors,
        "telemetry": telemetry,
        "parallel": parallel,
        "cluster": cluster,
        "adaptive": adaptive,
        "serve": serve,
        "latency": latency,
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

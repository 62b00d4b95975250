"""Fail if batch throughput regressed against BENCH_throughput.json.

A sweep of the detectors' batch path, compared with the committed
numbers.  Each detector is timed as ``record.py`` times it — the same
stream length, and the best of the same number of trials — so a run on
the recording host compares like with like.  Run after a
perf-sensitive change:

    PYTHONPATH=src python benchmarks/check_regression.py

Exits non-zero when any checked detector's measured batch clicks/sec
falls below ``REPRO_BENCH_REGRESSION_FLOOR`` times the committed value
(default 0.8 — a regression of more than 20%).  CI smoke runners are
slower and noisier than the recording host, so the workflow relaxes
the floor through the same env-knob convention as the other
``REPRO_BENCH_*`` gates instead of trusting absolute numbers
cross-machine; a floor of 0 turns the check into a report.

When the committed BENCH file carries a ``latency`` section (schema 3),
the serve path's client-observed batch-RTT p99 is also measured and
gated: it must stay below ``REPRO_BENCH_LATENCY_CEILING`` times the
committed p99 (default 10 — latency quantiles are far noisier than
throughput across hosts, so the ceiling is generous by design; 0
disables the gate).

When it carries an ``adaptive`` section (schema 5), the portfolio's
FP-per-bit quality sweep is re-run and gated *tightly*: the sweep is
fully deterministic (seeded streams and hash families, no timing), so
each variant's measured FP rate and memory must match the committed
numbers exactly on any host.  ``REPRO_BENCH_ADAPTIVE_GATE=0`` turns
that check into a report.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from test_batch_throughput import best_of_trials  # noqa: E402

#: Detectors whose numbers are stable enough to gate on: the count-based
#: workhorses and the two sliced filters (one run per generation or
#: time unit).  The time-based GBF/TBF ride along in the report but
#: never gate — their multi-unit segment shapes make quick runs noisy.
GATED = ("gbf", "tbf", "apbf", "time-limited-bf")
REPORTED = (
    "gbf",
    "tbf",
    "tbf-jumping",
    "gbf-time",
    "tbf-time",
    "apbf",
    "time-limited-bf",
)

FLOOR = float(os.environ.get("REPRO_BENCH_REGRESSION_FLOOR", "0.8"))
LATENCY_CEILING = float(os.environ.get("REPRO_BENCH_LATENCY_CEILING", "10"))
ADAPTIVE_GATE = os.environ.get("REPRO_BENCH_ADAPTIVE_GATE", "1") != "0"


def check_latency(committed: dict, failures: list) -> None:
    """Gate the serve path's batch-RTT p99 against the committed number."""
    recorded = committed.get("latency")
    if not recorded:
        return  # pre-schema-3 BENCH file: nothing to gate against
    from test_serve_throughput import run_latency_bench

    measured = run_latency_bench(clicks=1 << 15)
    p99_ms = measured["p99_s"] * 1000
    ratio = p99_ms / recorded["p99_ms"] if recorded["p99_ms"] else 0.0
    gated = LATENCY_CEILING > 0
    verdict = "ok"
    if gated and ratio > LATENCY_CEILING:
        verdict = "REGRESSED"
        failures.append("latency-p99")
    print(
        f"{'latency p99':>12}: measured {p99_ms:>10.2f} ms    "
        f"  committed {recorded['p99_ms']:>10.2f} ms"
        f"  ratio {ratio:.2f}"
        f"  ({'ceiling ' + format(LATENCY_CEILING, '.1f') if gated else 'report only'})"
        f"  {verdict}"
    )


def check_adaptive(committed: dict, failures: list) -> None:
    """Gate the portfolio's deterministic FP-per-bit sweep exactly.

    A drifted measured FP means the hashing, slicing, or aging logic
    changed behaviour; a drifted memory means the sizing planner moved.
    Both must be deliberate, recorded changes — so the gate is equality,
    not a ratio band.
    """
    recorded = committed.get("adaptive")
    if not recorded:
        return  # pre-schema-5 BENCH file: nothing to gate against
    from test_adaptive_quality import run_quality_sweep

    measured = run_quality_sweep()
    for name, entry in sorted(recorded.items()):
        got = measured.get(name)
        verdict = "ok"
        if got is None:
            verdict = "MISSING"
        elif (
            got["measured_fp_rate"] != entry["measured_fp_rate"]
            or got["memory_bits"] != entry["memory_bits"]
        ):
            verdict = "DRIFTED"
        if verdict != "ok" and ADAPTIVE_GATE:
            failures.append(f"adaptive-{name}")
        shown = got or {"measured_fp_rate": float("nan"), "memory_bits": 0}
        print(
            f"{name:>12}: measured FP {shown['measured_fp_rate']:.6f}"
            f" / {shown['memory_bits']:>8,d} bits"
            f"  committed {entry['measured_fp_rate']:.6f}"
            f" / {entry['memory_bits']:>8,d}"
            f"  ({'exact gate' if ADAPTIVE_GATE else 'report only'})"
            f"  {verdict}"
        )


def report_scaling(committed: dict) -> None:
    """Echo the committed multi-process scaling numbers, tolerantly.

    The ``parallel`` and ``cluster`` sections are host-shaped: absent in
    pre-schema BENCH files, and (since schema 4) individual counts are
    recorded as tagged skips on hosts with fewer cores than the sweep.
    They are never gated here — re-running a multi-process sweep inside
    the regression check would dwarf it — but the check must not crash
    on any of those shapes.
    """
    for section, key in (("parallel", "workers"), ("cluster", "nodes")):
        recorded = committed.get(section)
        if not isinstance(recorded, dict):
            continue  # older BENCH file: nothing to echo
        parts = []
        entries = recorded.get(key) or {}
        for count, entry in sorted(entries.items(), key=lambda kv: int(kv[0])):
            if not isinstance(entry, dict) or "clicks_per_sec" not in entry:
                parts.append(f"x{count} skipped")
            else:
                parts.append(f"x{count} {entry['clicks_per_sec']:,.0f}/s")
        print(
            f"{section:>12}: committed {'  '.join(parts) or 'none'}"
            f"  (report only; cpu_count {recorded.get('cpu_count', '?')})"
        )


def main() -> int:
    bench_path = REPO_ROOT / "BENCH_throughput.json"
    committed = json.loads(bench_path.read_text())
    detectors = committed["detectors"]
    failures = []
    for name in REPORTED:
        _scalar, batch = best_of_trials(name)
        measured = batch.elements_per_second
        recorded = detectors[name]["batch_clicks_per_sec"]
        ratio = measured / recorded if recorded else float("inf")
        gated = name in GATED and FLOOR > 0
        verdict = "ok"
        if gated and ratio < FLOOR:
            verdict = "REGRESSED"
            failures.append(name)
        print(
            f"{name:>12}: measured {measured:>12,.0f} clicks/s"
            f"  committed {recorded:>12,.0f}"
            f"  ratio {ratio:.2f}"
            f"  ({'gate ' + format(FLOOR, '.2f') if gated else 'report only'})"
            f"  {verdict}"
        )
    check_latency(committed, failures)
    check_adaptive(committed, failures)
    report_scaling(committed)
    if failures:
        print(
            f"regression: {', '.join(failures)} outside the committed "
            "BENCH envelope",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``generate``   synthesize a click stream (with optional botnet traffic)
               to CSV/JSONL
``detect``     run a duplicate detector over a stream file and report
               duplicate statistics, per-publisher quality, and alerts
``plan``       size a detector for a window and FP target / memory budget
``figures``    regenerate the paper's figures (same output as the
               benchmark harness, without pytest)
``monitor``    run a detector over a stream with live telemetry: periodic
               dashboard refreshes, optional Prometheus exposition and
               Chrome-trace export (see docs/observability.md)
``serve``      run the network click-ingest server: TCP batches in,
               verdicts out, graceful drain on SIGTERM
               (see docs/serving.md)
``trace``      sample a distributed request trace through the serve
               stack (client → server → workers), merge the per-process
               span shards into one Chrome-trace timeline, and report
               latency percentiles (see docs/observability.md)
``cluster``    run the cluster serving tier — a consistent-hash
               scatter/gather router over N serve nodes — or rebalance
               a drained cluster's shard checkpoints onto a resized
               fleet (see docs/serving.md §"Cluster topology")
``chaos``      soak the serve stack under injected faults and verify
               exactly-once delivery end to end

Examples
--------
::

    python -m repro generate --duration 3600 --botnet-bots 50 out.jsonl
    python -m repro detect --algorithm tbf --window 8192 --target-fp 1e-3 out.jsonl
    python -m repro plan --window 1048576 --target-fp 0.001
    python -m repro figures --which 2b --scale 256
    python -m repro monitor --algorithm gbf --every 2048 out.jsonl
    python -m repro serve --algorithm tbf --window 65536 --port 9000
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .adnet import AdNetwork, TrafficProfile, competitor_botnet
from .analysis import plan_gbf_for_target, plan_tbf_for_target
from .detection import (
    AlertEngine,
    ClickQualityTracker,
    DetectionPipeline,
    DetectorSpec,
    QualityConfig,
    WindowSpec,
    create_detector,
    default_rules,
)
from .errors import ConfigurationError, RecoveryError
from .metrics import render_table
from .streams import load_clicks, read_batches, write_clicks_csv, write_clicks_jsonl
from .telemetry import (
    SpanShardWriter,
    TelemetrySession,
    merge_shards,
    render_dashboard,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Duplicate-click detection in pay-per-click streams "
        "(Zhang & Guan, ICDCS 2008 reproduction).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser("generate", help="synthesize a click stream")
    generate.add_argument("output", help="output path (.csv or .jsonl)")
    generate.add_argument("--duration", type=float, default=3600.0,
                          help="simulated seconds of traffic (default 3600)")
    generate.add_argument("--click-rate", type=float, default=2.0,
                          help="legitimate clicks per second (default 2.0)")
    generate.add_argument("--visitors", type=int, default=300)
    generate.add_argument("--botnet-bots", type=int, default=0,
                          help="attach a botnet campaign with this many bots")
    generate.add_argument("--bot-interval", type=float, default=120.0,
                          help="mean seconds between a bot's clicks")
    generate.add_argument("--seed", type=int, default=0)

    detect = commands.add_parser("detect", help="run a detector over a stream file")
    _add_detector_args(detect)
    detect.add_argument("--quality", action="store_true",
                        help="also report per-publisher click quality")
    detect.add_argument("--workers", type=int, default=1,
                        help="run the detector sharded across this many "
                        "worker processes (requires --algorithm tbf; "
                        "default 1 = in-process)")
    detect.add_argument("--chunk-size", type=int, default=4096,
                        help="clicks per detector batch call, at any worker "
                        "count (default 4096)")

    plan = commands.add_parser("plan", help="size a detector")
    plan.add_argument("--window", type=int, required=True)
    plan.add_argument("--subwindows", type=int, default=8)
    plan.add_argument("--target-fp", type=float, default=0.001)

    figures = commands.add_parser("figures", help="regenerate paper figures")
    figures.add_argument("--which", default="all", choices=["1", "2a", "2b", "all"])
    figures.add_argument("--scale", type=int, default=None,
                         help="size divisor vs the paper's N = 2^20 "
                         "(default: REPRO_SCALE or 64)")
    figures.add_argument("--seed", type=int, default=42)

    monitor = commands.add_parser(
        "monitor", help="run a detector with a live telemetry dashboard")
    _add_detector_args(monitor, with_input=False)
    monitor.add_argument("input", nargs="?", default=None,
                         help="stream file from `repro generate` "
                         "(omit with --cluster)")
    monitor.add_argument("--cluster", default=None, metavar="STATE_DIR",
                         help="instead of running a detector, render the "
                         "merged router + per-node telemetry from a drained "
                         "cluster's manifest (see `repro cluster run`)")
    monitor.add_argument("--every", type=int, default=2048,
                         help="clicks between dashboard refreshes (default 2048)")
    monitor.add_argument("--chunk-size", type=int, default=1024,
                         help="batch size for the vectorized path (default 1024)")
    monitor.add_argument("--prometheus", action="store_true",
                         help="print Prometheus text exposition at the end")
    monitor.add_argument("--trace-out", default=None, metavar="PATH",
                         help="write Chrome-trace JSON of pipeline spans")

    # Serve flags take their defaults from ServeConfig, the one source.
    from .serve.server import ServeConfig

    serve_defaults = ServeConfig()
    serve = commands.add_parser(
        "serve", help="run the network click-ingest server")
    _add_detector_args(serve, with_input=False)
    serve.add_argument("--host", default=serve_defaults.host)
    serve.add_argument("--port", type=int, default=serve_defaults.port,
                       help="TCP port (default 0 = ephemeral, printed at boot)")
    serve.add_argument("--workers", type=int, default=1,
                       help="shard the detector across this many worker "
                       "processes (requires --algorithm tbf; default 1 = "
                       "in-process)")
    serve.add_argument("--max-batch", type=int, default=serve_defaults.max_batch,
                       help="most clicks per engine batch (default "
                       f"{serve_defaults.max_batch})")
    serve.add_argument("--max-delay-ms", type=float,
                       default=serve_defaults.max_delay * 1000.0,
                       help="max milliseconds a short batch waits for "
                       "batch-mates (default "
                       f"{serve_defaults.max_delay * 1000.0:g} = none: a batch "
                       "is what has queued when the engine is free)")
    serve.add_argument("--max-inflight-mib", type=float,
                       default=serve_defaults.max_inflight_bytes / (1 << 20),
                       help="global admission-control budget in MiB")
    serve.add_argument("--skew-tolerance", type=float,
                       default=serve_defaults.skew_tolerance,
                       help="time-based detectors: seconds a batch may lag "
                       "the stream watermark before it is refused (smaller "
                       "lags are clamped; default "
                       f"{serve_defaults.skew_tolerance:g})")
    serve.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                       help="drain checkpoints + resume-on-start directory")
    serve.add_argument("--trace-dir", default=None, metavar="DIR",
                       help="append span shards here for sampled "
                       "(FLAG_TRACE) requests; merge with `repro trace "
                       "--merge-only --trace-dir DIR`")
    serve.add_argument("--adaptive-interval", type=int,
                       default=serve_defaults.adaptive_interval,
                       metavar="GROUPS",
                       help="resize controller: sample the live FP estimate "
                       "every GROUPS coalesced batches and grow/shrink the "
                       "detector in place (0 disables; inline engine only)")
    serve.add_argument("--adaptive-target-fp", type=float, default=None,
                       metavar="FP",
                       help="FP baseline for the controller (default: the "
                       "configuration's theoretical bound)")
    serve.add_argument("--flight-dir", default=None, metavar="DIR",
                       help="flight-recorder crash dumps land here "
                       "(default: the checkpoint directory)")

    tune = commands.add_parser(
        "tune",
        help="compare the detector portfolio at a target FP and suggest "
             "adaptive-controller settings")
    tune.add_argument("--window", type=int, default=8192,
                      help="window size in clicks (default 8192)")
    tune.add_argument("--subwindows", type=int, default=8,
                      help="Q for the jumping-window GBF plan")
    tune.add_argument("--target-fp", type=float, default=0.001)
    tune.add_argument("--resolution", type=int, default=16,
                      help="aged slices for the time-limited plan")

    trace = commands.add_parser(
        "trace",
        help="sample a distributed trace through the serve stack and "
        "merge it into a Chrome-trace timeline")
    trace.add_argument("--clicks", type=int, default=20_000,
                       help="synthetic clicks to drive (default 20000)")
    trace.add_argument("--batch", type=int, default=512,
                       help="clicks per client batch (default 512)")
    trace.add_argument("--workers", type=int, default=2,
                       help="worker processes behind the server (default 2)")
    trace.add_argument("--window", type=int, default=8192)
    trace.add_argument("--sample", type=float, default=0.1,
                       help="fraction of batches carrying trace context "
                       "(default 0.1)")
    trace.add_argument("--seed", type=int, default=7)
    trace.add_argument("--out", default="trace.json", metavar="PATH",
                       help="merged Chrome-trace JSON (open in "
                       "chrome://tracing or Perfetto; default trace.json)")
    trace.add_argument("--trace-dir", default=None, metavar="DIR",
                       help="span-shard directory (default: temporary)")
    trace.add_argument("--merge-only", action="store_true",
                       help="skip the demo run; merge the shards already "
                       "in --trace-dir (e.g. from `repro serve "
                       "--trace-dir`)")
    trace.add_argument("--metrics-out", default=None, metavar="PATH",
                       help="also write the Prometheus text exposition "
                       "(stage latency histograms + quantile gauges)")

    cluster = commands.add_parser(
        "cluster",
        help="run or operate the cluster serving tier "
        "(router + N serve nodes; see docs/serving.md)")
    cluster_cmds = cluster.add_subparsers(dest="cluster_command", required=True)
    cluster_run = cluster_cmds.add_parser(
        "run", help="boot a router + N local serve nodes; SIGTERM drains "
        "the whole cluster and writes a journaled manifest")
    cluster_run.add_argument("--nodes", type=int, default=2,
                             help="serve nodes behind the router (default 2)")
    cluster_run.add_argument("--shards", type=int, default=8,
                             help="fixed global shard count — the unit of "
                             "checkpointed state; node counts may change "
                             "later, this may not (default 8)")
    cluster_run.add_argument("--window", type=int, default=8192,
                             help="sliding-window size in clicks (default 8192)")
    cluster_run.add_argument("--target-fp", type=float, default=0.001)
    cluster_run.add_argument("--seed", type=int, default=0)
    cluster_run.add_argument("--host", default="127.0.0.1")
    cluster_run.add_argument("--port", type=int, default=0,
                             help="router port (default 0 = ephemeral, "
                             "printed at boot)")
    cluster_run.add_argument("--state-dir", required=True, metavar="DIR",
                             help="per-node checkpoint stores + cluster "
                             "manifests live here; an existing directory "
                             "resumes from its checkpoints")
    cluster_rebalance = cluster_cmds.add_parser(
        "rebalance", help="resize a drained cluster by shipping shard "
        "checkpoints between node stores (no detector is deserialized)")
    cluster_rebalance.add_argument("--state-dir", required=True, metavar="DIR")
    cluster_rebalance.add_argument("--nodes", type=int, required=True,
                                   help="new node count")

    chaos = commands.add_parser(
        "chaos",
        help="soak the serve stack under injected faults and reconcile")
    chaos.add_argument("--clicks", type=int, default=50_000,
                       help="synthetic clicks to deliver (default 50000)")
    chaos.add_argument("--batch", type=int, default=256,
                       help="clicks per client batch (default 256)")
    chaos.add_argument("--seed", type=int, default=7,
                       help="seeds the stream, the fault plan, and the "
                       "client jitter — a failing seed is reproducible")
    chaos.add_argument("--drain-after", type=float, default=1.0,
                       help="seconds into the load to SIGTERM-drain the "
                       "server and restore a fresh one from its checkpoint "
                       "(negative = never restart; default 1.0)")
    chaos.add_argument("--timeout", type=float, default=1.0,
                       help="client per-response deadline in seconds")
    chaos.add_argument("--retries", type=int, default=12,
                       help="client reconnect budget per delivery failure")
    chaos.add_argument("--no-engine-faults", action="store_true",
                       help="skip the injected engine kill/stall and "
                       "checkpoint-write failure")
    chaos.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                       help="keep the drain checkpoints here for inspection "
                       "(default: a temporary directory)")
    chaos.add_argument("--cluster-nodes", type=int, default=None,
                       metavar="N",
                       help="route the soak through a scatter/gather router "
                       "over N serve nodes; the mid-schedule fault becomes "
                       "a node kill + restore failover (default: one server)")

    return parser


def _add_detector_args(
    parser: argparse.ArgumentParser, with_input: bool = True
) -> None:
    """Stream + detector-sizing arguments shared by detect/monitor/serve."""
    if with_input:
        parser.add_argument("input", help="stream file from `repro generate`")
    parser.add_argument("--algorithm", default="tbf",
                        choices=["tbf", "gbf", "tbf-jumping", "apbf", "exact",
                                 "metwally-cbf", "stable-bloom", "tbf-time",
                                 "gbf-time", "time-limited-bf"])
    parser.add_argument("--window", type=int, default=8192,
                        help="window size in clicks (default 8192); for the "
                        "time-based algorithms, the clicks expected per "
                        "--duration, which sizes the sketch")
    parser.add_argument("--subwindows", type=int, default=8,
                        help="Q for jumping-window algorithms")
    parser.add_argument("--duration", type=float, default=None,
                        help="window length in seconds of click timestamps "
                        "(required by, and only for, tbf-time, gbf-time and "
                        "time-limited-bf)")
    parser.add_argument("--resolution", type=int,
                        default=DetectorSpec.resolution,
                        help="time-based algorithms: time units per window "
                        "(tbf-time, time-limited-bf) or cleaning units per "
                        f"sub-window (gbf-time; default {DetectorSpec.resolution})")
    parser.add_argument("--target-fp", type=float, default=None)
    parser.add_argument("--memory-kib", type=float, default=None,
                        help="memory budget in KiB (alternative to --target-fp)")
    parser.add_argument("--seed", type=int, default=0)


def _spec_from_args(args: argparse.Namespace, shards: int = 1) -> DetectorSpec:
    """The :class:`DetectorSpec` the sizing flags describe."""
    kind = (
        "jumping"
        if args.algorithm in ("gbf", "gbf-time", "tbf-jumping", "metwally-cbf")
        else "sliding"
    )
    subwindows = args.subwindows if kind == "jumping" else 1
    window = args.window - args.window % subwindows if subwindows > 1 else args.window
    sizing = {}
    if args.algorithm != "exact":
        if args.memory_kib is not None:
            sizing["memory_bits"] = int(args.memory_kib * 8 * 1024)
        else:
            sizing["target_fp"] = args.target_fp if args.target_fp else 0.001
    try:
        return DetectorSpec(
            algorithm=args.algorithm,
            window=WindowSpec(kind, window, subwindows),
            seed=args.seed,
            shards=shards,
            duration=args.duration,
            resolution=args.resolution,
            **sizing,
        )
    except ConfigurationError as error:
        # A flag combination the spec refuses (a time-based algorithm
        # without --duration, or --duration on a count-based one).
        print(f"error: {error}", file=sys.stderr)
        raise SystemExit(2) from None


def _command_generate(args: argparse.Namespace) -> int:
    network = AdNetwork(seed=args.seed)
    network.add_advertiser("alpha", budget=1e9,
                           bids={"one": 1.0, "two": 0.6, "three": 0.3})
    network.add_advertiser("beta", budget=1e9,
                           bids={"two": 0.9, "three": 0.5, "four": 0.4})
    network.add_advertiser("gamma", budget=1e9,
                           bids={"one": 0.7, "four": 0.6, "five": 0.2})
    network.add_publisher("portal", traffic_weight=2.0)
    network.add_publisher("blogs", traffic_weight=1.0)
    network.run_auctions(["one", "two", "three", "four", "five"])
    if args.botnet_bots > 0:
        competitor_botnet(network, num_bots=args.botnet_bots,
                          mean_interval=args.bot_interval, seed=args.seed + 1)
    clicks = network.run(
        duration=args.duration,
        profile=TrafficProfile(click_rate=args.click_rate,
                               num_visitors=args.visitors),
    )
    for click in clicks:
        click.cost = network.ad_links[click.ad_id].cpc
    if args.output.endswith(".csv"):
        count = write_clicks_csv(args.output, clicks)
    else:
        count = write_clicks_jsonl(args.output, clicks)
    fraud = sum(1 for c in clicks if c.is_fraud)
    print(f"wrote {count} clicks to {args.output} ({fraud} fraudulent)")
    return 0


def _command_detect(args: argparse.Namespace) -> int:
    """``detect``: classify a stream file on the batch path.

    The stream is read in ``--chunk-size`` batches (``read_batches``),
    each classified with one ``observe_batch`` call.  With ``--workers
    N > 1`` the detector is sharded one shard per worker process, fed
    through shared-memory rings.  Scoring and alerting consume the
    stream-order verdicts either way; per-publisher quality is tracked
    only when ``--quality`` asks for its report.
    """
    import numpy as np

    if args.workers > 1 and args.algorithm != "tbf":
        print(f"error: --workers requires --algorithm tbf "
              f"(got {args.algorithm!r}); only count-based TBF shards are "
              f"wired into the CLI", file=sys.stderr)
        return 2
    # With workers > 1 the factory sizes a single TBF for the window/FP
    # budget and spreads the same total memory across one shard per
    # worker.
    spec = _spec_from_args(args, shards=max(1, args.workers))
    detector = create_detector(spec)
    quality = None
    if args.quality:
        quality = ClickQualityTracker(
            QualityConfig(window=spec.window.size, grace_clicks=0)
        )
    engine = AlertEngine(default_rules())
    pipeline = DetectionPipeline(detector)
    identify_batch = pipeline.scheme.identify_batch
    if args.workers > 1:
        from .parallel import lift_sharded

        detector = lift_sharded(detector, args.workers)
    total = duplicates = fraud_total = 0
    try:
        for batch in read_batches(args.input, max(1, args.chunk_size)):
            identifiers = identify_batch(batch)
            timestamps = (
                np.fromiter((click.timestamp for click in batch),
                            dtype=np.float64, count=len(batch))
                if detector.timed
                else None
            )
            verdicts = detector.observe_batch(identifiers, timestamps)
            for click, verdict in zip(batch, verdicts):
                is_duplicate = bool(verdict)
                total += 1
                duplicates += is_duplicate
                fraud_total += click.is_fraud
                pipeline.scoreboard.record(click, is_duplicate)
                if quality is not None:
                    quality.observe(click, is_duplicate)
                engine.observe(click, is_duplicate)
    finally:
        if args.workers > 1:
            detector.close(sync=True)

    suffix = f"  [{args.workers} workers]" if args.workers > 1 else ""
    print(f"{total} clicks; {duplicates} duplicates "
          f"({100 * duplicates / max(total, 1):.2f}%){suffix}")
    if fraud_total:
        print(f"(stream ground truth: {fraud_total} clicks from fraud campaigns)")
    top = pipeline.scoreboard.top_sources(count=5, min_clicks=10)
    if top:
        print("\ntop suspicious sources:")
        for key, stats in top:
            print(f"  {key:#014x}  {stats.clicks:6d} clicks  "
                  f"{100 * stats.duplicate_rate:5.1f}% duplicates")
    if quality is not None:
        print("\nper-publisher click quality:")
        rows = [
            [publisher, data["clicks"], data["quality"], data["multiplier"]]
            for publisher, data in sorted(quality.report().items())
        ]
        print(render_table(["publisher", "clicks", "quality", "smart-price x"], rows))
    if engine.alerts:
        print(f"\n{len(engine.alerts)} alerts (first 5):")
        for alert in engine.alerts[:5]:
            print(f"  [{alert.rule_name}] {alert.scope} {alert.key:#x}: "
                  f"{100 * alert.duplicate_rate:.0f}% duplicates over "
                  f"{alert.clicks} clicks")
    return 0


def _command_plan(args: argparse.Namespace) -> int:
    gbf = plan_gbf_for_target(args.window, args.subwindows, args.target_fp)
    tbf = plan_tbf_for_target(args.window, args.target_fp)
    rows = [
        [
            f"GBF (jumping, Q={args.subwindows})",
            f"{gbf.total_memory_bits / 8 / 1024:.1f} KiB",
            gbf.num_hashes,
            f"{gbf.predicted_fp:.2e}",
        ],
        [
            "TBF (sliding)",
            f"{tbf.total_memory_bits / 8 / 1024:.1f} KiB",
            tbf.num_hashes,
            f"{tbf.predicted_fp:.2e}",
        ],
    ]
    print(render_table(
        ["detector", "memory", "k", "predicted FP"],
        rows,
        title=f"Plans for N = {args.window}, target FP = {args.target_fp}",
    ))
    return 0


def _command_tune(args: argparse.Namespace) -> int:
    """``repro tune``: portfolio comparison + controller suggestion."""
    from .adaptive import plan_apbf_for_target, plan_tlbf_for_target
    from .bloom.params import apbf_false_positive_rate

    window = args.window - args.window % args.subwindows
    gbf = plan_gbf_for_target(window, args.subwindows, args.target_fp)
    tbf = plan_tbf_for_target(args.window, args.target_fp)
    apbf = plan_apbf_for_target(args.window, args.target_fp)
    tlbf = plan_tlbf_for_target(args.window, args.resolution, args.target_fp)

    apbf_bits = (apbf.num_required + apbf.num_aged) * apbf.slice_bits
    tlbf_bits = (tlbf.num_required + tlbf.num_aged) * tlbf.slice_bits
    rows = [
        [
            f"GBF (jumping, Q={args.subwindows})",
            f"{gbf.total_memory_bits / 8 / 1024:.1f} KiB",
            f"{gbf.total_memory_bits / window:.1f}",
            gbf.num_hashes,
            f"{gbf.predicted_fp:.2e}",
        ],
        [
            "TBF (sliding)",
            f"{tbf.total_memory_bits / 8 / 1024:.1f} KiB",
            f"{tbf.total_memory_bits / args.window:.1f}",
            tbf.num_hashes,
            f"{tbf.predicted_fp:.2e}",
        ],
        [
            f"APBF (sliding, k={apbf.num_required}, l={apbf.num_aged})",
            f"{apbf_bits / 8 / 1024:.1f} KiB",
            f"{apbf_bits / args.window:.1f}",
            apbf.num_required + apbf.num_aged,
            f"{apbf_false_positive_rate(apbf.num_required, apbf.num_aged, apbf.slice_bits, apbf.generation_size):.2e}",
        ],
        [
            f"TLBF (time-sliced, l={tlbf.num_aged})",
            f"{tlbf_bits / 8 / 1024:.1f} KiB",
            f"{tlbf_bits / args.window:.1f}",
            tlbf.num_required + tlbf.num_aged,
            f"{apbf_false_positive_rate(tlbf.num_required, tlbf.num_aged, tlbf.slice_bits, max(1, args.window // args.resolution)):.2e} *",
        ],
    ]
    print(render_table(
        ["detector", "memory", "bits/click", "k", "design FP"],
        rows,
        title=f"Portfolio at N = {args.window}, target FP = {args.target_fp}",
    ))
    print("* at the design load; time-based filters have no a-priori bound")
    print()
    print("adaptive serving (grows 2x after 3 breached samples, shrinks 0.5x")
    print("after 24 idle ones, 8-sample cooldown):")
    print(f"  repro serve --algorithm apbf --window {args.window} "
          f"--target-fp {args.target_fp} --adaptive-interval 64")
    return 0


def _command_monitor(args: argparse.Namespace) -> int:
    if args.cluster is not None:
        return _monitor_cluster(args.cluster)
    if args.input is None:
        print("error: an input stream file is required without --cluster",
              file=sys.stderr)
        return 2
    import tempfile

    clicks = load_clicks(args.input)
    detector = create_detector(_spec_from_args(args))

    with tempfile.TemporaryDirectory(prefix="repro-monitor-") as shard_dir:
        spans = SpanShardWriter(shard_dir, "monitor") if args.trace_out else None
        session = TelemetrySession(spans=spans, snapshot_every=args.every)
        session.on_snapshot(
            lambda snapshot: print(render_dashboard(snapshot, title=args.algorithm))
        )
        pipeline = DetectionPipeline(detector, telemetry=session)
        try:
            result = pipeline.run_batch(clicks, chunk_size=max(1, args.chunk_size))
        finally:
            if spans is not None:
                spans.close()

        # Final snapshot so short streams still render at least one dashboard.
        session.emit()
        print(f"\n{result.processed} clicks; {result.duplicates} duplicates "
              f"({100 * result.duplicate_rate:.2f}%)")
        if spans is not None:
            trace = merge_shards(shard_dir, output=args.trace_out)
            count = sum(1 for event in trace["traceEvents"] if event["ph"] == "X")
            print(f"wrote {count} spans to {args.trace_out}")
    if args.prometheus:
        print()
        print(session.registry.to_prometheus(), end="")
    return 0


def _monitor_cluster(state_dir: str) -> int:
    """``repro monitor --cluster DIR``: the fleet-wide dashboard.

    Renders the merged telemetry the drain manifest captured — the
    router's registry plus every node's — one dashboard per component,
    with the assignment and per-node totals up top.
    """
    from .cluster import read_manifest

    manifest = read_manifest(state_dir)
    if manifest is None:
        print(f"error: no cluster manifest under {state_dir} "
              "(drain a `repro cluster run` first)", file=sys.stderr)
        return 1
    totals = manifest.get("totals", {})
    print(f"cluster: {len(manifest.get('nodes', []))} nodes x "
          f"{manifest.get('total_shards')} shards; "
          f"{totals.get('clicks', 0)} clicks in "
          f"{totals.get('batches', 0)} batches routed")
    for record in manifest.get("nodes", []):
        print(f"  {record['name']}: shards {record['shards']}  "
              f"{record['processed_clicks']} clicks  "
              f"({record['checkpoint_dir']})")
    telemetry = manifest.get("telemetry") or {}
    router_snapshot = telemetry.get("router")
    if router_snapshot:
        print(render_dashboard(router_snapshot, title="router"))
    for name, node in sorted((telemetry.get("nodes") or {}).items()):
        snapshot = node.get("metrics")
        if snapshot:
            print(render_dashboard(snapshot, title=name))
    return 0


def _command_cluster(args: argparse.Namespace) -> int:
    """``repro cluster run|rebalance`` (docs/operations.md §8 runbook)."""
    if args.cluster_command == "rebalance":
        from .cluster import rebalance_checkpoints

        manifest = rebalance_checkpoints(args.state_dir, args.nodes)
        print(f"rebalanced to {args.nodes} nodes x "
              f"{manifest['total_shards']} shards")
        for record in manifest["nodes"]:
            print(f"  {record['name']}: shards {record['shards']}")
        return 0

    import signal
    import threading

    from .cluster import ClusterConfig, LocalCluster

    spec = DetectorSpec(
        algorithm="tbf",
        window=WindowSpec("sliding", args.window, 1),
        seed=args.seed,
        shards=args.shards,
        target_fp=args.target_fp,
    )
    config = ClusterConfig(
        host=args.host, port=args.port, total_shards=args.shards
    )
    try:
        cluster = LocalCluster(
            lambda: create_detector(spec),
            nodes=args.nodes,
            state_dir=args.state_dir,
            config=config,
            telemetry=True,
        ).start()
    except RecoveryError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    ports = ", ".join(
        f"node-{index}:{cluster._ports[index]}" for index in range(args.nodes)
    )
    print(f"cluster: {args.nodes} nodes x {args.shards} shards "
          f"(tbf, window {args.window}) routing on "
          f"{args.host}:{cluster.port}  [{ports}]", flush=True)
    stop = threading.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda _s, _f: stop.set())
    stop.wait()
    manifest = cluster.drain()
    totals = manifest["totals"] if manifest else {}
    print(f"drained: {totals.get('clicks', 0)} clicks in "
          f"{totals.get('batches', 0)} batches; manifest journaled under "
          f"{args.state_dir}/manifest")
    return 0


def _serve_config(args: argparse.Namespace):
    """The :class:`~repro.serve.ServeConfig` the ``serve`` flags describe."""
    from .serve import ServeConfig

    adaptive_config = None
    if args.adaptive_interval > 0 and args.adaptive_target_fp is not None:
        from .adaptive import ControllerConfig

        adaptive_config = ControllerConfig(target_fp=args.adaptive_target_fp)
    return ServeConfig(
        host=args.host,
        port=args.port,
        max_batch=max(1, args.max_batch),
        max_delay=max(0.0, args.max_delay_ms) / 1000.0,
        workers=args.workers if args.workers > 1 else None,
        max_inflight_bytes=int(args.max_inflight_mib * 1024 * 1024),
        checkpoint_dir=args.checkpoint_dir,
        skew_tolerance=max(0.0, args.skew_tolerance),
        trace_dir=args.trace_dir,
        flight_dir=args.flight_dir,
        adaptive_interval=max(0, args.adaptive_interval),
        adaptive=adaptive_config,
    )


def _command_serve(args: argparse.Namespace) -> int:
    """``repro serve``: the network ingest server, drained on SIGTERM."""
    import asyncio
    import signal

    from .resilience import DeadLetterSink
    from .serve import ClickIngestServer

    if args.workers > 1 and args.algorithm != "tbf":
        print(f"error: --workers requires --algorithm tbf "
              f"(got {args.algorithm!r})", file=sys.stderr)
        return 2
    if args.adaptive_interval > 0 and args.workers > 1:
        print("error: --adaptive-interval needs the inline engine "
              "(drop --workers)", file=sys.stderr)
        return 2
    spec = _spec_from_args(args, shards=max(1, args.workers))
    config = _serve_config(args)
    session = TelemetrySession()
    dead_letters = DeadLetterSink()

    def _build_detector():
        if args.adaptive_interval > 0:
            from .adaptive import AdaptiveDetector

            return AdaptiveDetector(spec)
        return create_detector(spec)

    async def _serve_main() -> ClickIngestServer:
        # Constructed inside the running loop: the server binds its
        # asyncio primitives at construction time.
        server = ClickIngestServer(
            _build_detector(),
            config=config,
            telemetry=session,
            dead_letters=dead_letters,
        )
        await server.start()
        print(f"serving {args.algorithm} (window {spec.window.size}) "
              f"on {config.host}:{server.port}", flush=True)
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(
                signum, lambda: asyncio.ensure_future(server.drain())
            )
        await server.wait_drained()
        return server

    try:
        server = asyncio.run(_serve_main())
    except RecoveryError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(f"drained: {server.processed_clicks} clicks classified, "
          f"{dead_letters.total} frames dead-lettered")
    if args.adaptive_interval > 0:
        events = server.resize_events
        detail = "; ".join(
            f"{e.direction} {e.old_memory_bits}->{e.new_memory_bits} bits"
            for e in events
        )
        print(f"adaptive: {len(events)} resizes"
              + (f" ({detail})" if detail else ""))
    return 0


def _command_trace(args: argparse.Namespace) -> int:
    """``repro trace``: sample, merge, and dump a distributed trace.

    Default mode boots a self-contained serve deployment (sharded TBF
    across ``--workers`` processes), drives a sampled synthetic load
    through it, and merges every process's span shard — client, server,
    and workers — into one Chrome-trace timeline.  ``--merge-only``
    skips the run and merges shards an external deployment (``repro
    serve --trace-dir``) already wrote.
    """
    import tempfile

    from .serve import ServeConfig, ServerThread
    from .serve.client import _synthetic_batches, run_load
    from .telemetry.monitor import _latency_panel

    def _merge(directory: str) -> int:
        trace = merge_shards(directory, output=args.out)
        events = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
        pids = {e["pid"] for e in events}
        print(f"wrote {len(events)} spans from {len(pids)} processes "
              f"to {args.out}")
        return len(events)

    if args.merge_only:
        if args.trace_dir is None:
            print("error: --merge-only requires --trace-dir", file=sys.stderr)
            return 2
        _merge(args.trace_dir)
        return 0

    workers = max(2, args.workers)
    spec = DetectorSpec(
        algorithm="tbf",
        window=WindowSpec("sliding", args.window, 1),
        seed=args.seed,
        shards=workers,
        target_fp=0.001,
    )
    session = TelemetrySession()
    cleanup = None
    trace_dir = args.trace_dir
    if trace_dir is None:
        cleanup = tempfile.TemporaryDirectory(prefix="repro-trace-")
        trace_dir = cleanup.name
    try:
        config = ServeConfig(
            workers=workers,
            trace_dir=trace_dir,
            max_batch=max(1, args.batch) * 2,
            max_delay=0.002,
        )
        batches = _synthetic_batches(args.clicks, args.batch, args.seed, 0.2)
        with ServerThread(
            create_detector(spec), config=config, telemetry=session
        ) as thread:
            stats = run_load(
                "127.0.0.1",
                thread.port,
                batches,
                trace_dir=trace_dir,
                trace_sample=args.sample,
            )
            # Snapshot while the worker fleet is still up: detector
            # instruments poll the workers over their control rings.
            snapshot = session.emit() or {}
        count = _merge(trace_dir)
        if count == 0:
            print("error: no spans recorded (is --sample > 0?)",
                  file=sys.stderr)
            return 1
    finally:
        if cleanup is not None:
            cleanup.cleanup()
    panel = _latency_panel(snapshot.get("gauges", []), "serve")
    if panel:
        print(panel)
    latency = stats["latency"]
    if latency is not None:
        print(f"client RTT p50={latency['p50_s'] * 1000:.2f}ms "
              f"p95={latency['p95_s'] * 1000:.2f}ms "
              f"p99={latency['p99_s'] * 1000:.2f}ms "
              f"max={latency['max_s'] * 1000:.2f}ms "
              f"over {latency['batches']} batches")
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            handle.write(session.registry.to_prometheus())
        print(f"wrote metrics exposition to {args.metrics_out}")
    return 0


def _command_chaos(args: argparse.Namespace) -> int:
    """``repro chaos``: the exactly-once soak (docs/operations.md §6)."""
    from .chaos import SoakConfig, run_soak

    config = SoakConfig(
        clicks=args.clicks,
        batch=args.batch,
        seed=args.seed,
        timeout=args.timeout,
        retries=args.retries,
        drain_after=None if args.drain_after < 0 else args.drain_after,
        engine_fail_group=None if args.no_engine_faults else 2,
        engine_stall_group=None if args.no_engine_faults else 6,
        fail_first_checkpoint=not args.no_engine_faults,
        cluster_nodes=args.cluster_nodes,
    )
    report = run_soak(config, checkpoint_dir=args.checkpoint_dir)
    print(report.summary())
    return 0 if report.ok else 1


def _command_figures(args: argparse.Namespace) -> int:
    from .experiments import run_figure1, run_figure2a, run_figure2b

    if args.which in ("1", "all"):
        print(run_figure1(scale=args.scale, seed=args.seed).render())
    if args.which in ("2a", "all"):
        print(run_figure2a(scale=args.scale, seed=args.seed).render())
    if args.which in ("2b", "all"):
        print(run_figure2b(scale=args.scale, seed=args.seed).render())
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "generate": _command_generate,
        "detect": _command_detect,
        "plan": _command_plan,
        "tune": _command_tune,
        "figures": _command_figures,
        "monitor": _command_monitor,
        "serve": _command_serve,
        "trace": _command_trace,
        "chaos": _command_chaos,
        "cluster": _command_cluster,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

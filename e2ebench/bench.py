"""One benchmark run: boot the server, drive the phases, check, report.

All phases use one seeded stream in one framing:

1. setup: spawn the server process; time until its first verdict.
   :data:`SETUP_BOOTS` - 1 extra servers are booted, answer frame 0 and
   drained first, so ``setup_s`` is a median of cold starts;
2. warm-up: 1.25 windows through the server (closed loop) and through
   an in-process ``DetectionPipeline`` (the offline twin);
3. :data:`ROUNDS` rounds of
   a. offline: the twin takes the next frames through
      ``run_identified_batch``, one call per frame, for a fixed time;
   b. open loop: frames at a fixed offered rate, each timed from its
      due time;
   c. closed loop: a fixed number of frames in flight for a fixed time;
4. drain: read the server's peak RSS, SIGTERM, read its drained count;
   then the twin catches up, untimed, with every frame the server got.

Rounds spread each metric over the whole run, so a few seconds of
disturbance on a shared host touch every metric a little instead of one
metric a lot.  The closed loop ends each round because the flight
recorder's ring, dumped at drain, keeps only its newest events.  Served
verdicts must equal the twin's frame by frame, and the labeler in
``oracle.py`` audits the twin's verdicts.
"""

from __future__ import annotations

import ctypes
import json
import os
import re
import select
import shutil
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from typing import Dict, List, NamedTuple

import numpy as np

from repro.detection import create_detector
from repro.detection.pipeline import DetectionPipeline
from repro.serve.protocol import (
    HEADER,
    decode_batch_payload,
    decode_verdicts_payload,
    encode_batch,
    encode_verdicts,
)

from loadgen import Connection, Phase, closed_loop, open_loop
from oracle import audit
from workloads import Stream, Workload

HERE = Path(__file__).resolve().parent

#: Shares of ``--seconds`` spent in the three timed phases, and rounds.
OPEN_SHARE, CLOSED_SHARE, OFFLINE_SHARE = 0.4, 0.3, 0.3
ROUNDS = 10

#: Traced open loop: about this many FLAG_TRACE frames per run.
TRACED_FRAMES = 100

#: The untimed catch-up replays frames in calls of about this size.
CATCH_UP_CLICKS = 1 << 15

#: Before each timed segment the stream is extended to cover this many
#: times the fastest rate seen so far in that phase; a segment that
#: still runs out of stream ends early.
HEADROOM = 4.0

BOOT_TIMEOUT = 120.0

#: glibc malloc thresholds of both processes: the highest mmap threshold
#: glibc's dynamic rule reaches (``DEFAULT_MMAP_THRESHOLD_MAX``) and the
#: trim threshold it pairs with it.  A process reaches this state by
#: itself once it frees a block of 32 MiB; until then every detector
#: call maps its tables afresh and faults them in.  Fixing it makes each
#: run measure one state (see README, "Allocator").
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD

#: Server boots per run.  Each is a fresh process, so each is a cold
#: start; ``setup_s`` is their median.
SETUP_BOOTS = 3


class Server:
    """The server process, from spawn to drain."""

    def __init__(self, command: List[str], env: dict, err_path: Path) -> None:
        self.err_path = err_path
        self._stderr = open(err_path, "wb")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self._stderr, env=env,
            text=True,
        )
        line = self._readline(BOOT_TIMEOUT)
        match = re.search(r" on \S+:(\d+)$", line.strip())
        if match is None:
            raise RuntimeError(f"server did not report a port: {line!r}")
        self.port = int(match.group(1))
        self.bound_at = time.perf_counter()

    def _readline(self, timeout: float) -> str:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        if not ready:
            raise RuntimeError(f"server printed nothing in {timeout:.0f} s")
        return self.proc.stdout.readline()

    def peak_rss_mib(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def drain(self) -> int:
        """SIGTERM, wait for exit, return the drained click count."""
        self.proc.send_signal(signal.SIGTERM)
        out, _ = self.proc.communicate(timeout=BOOT_TIMEOUT)
        if self.proc.returncode != 0:
            raise RuntimeError(f"server exited with {self.proc.returncode}")
        match = re.search(r"drained: (\d+) clicks classified", out)
        if match is None:
            raise RuntimeError(f"server printed no drain line: {out!r}")
        return int(match.group(1))

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._stderr.close()

    def first_verdict(self, frames: Stream, client_id: int):
        """Connect and send frame 0; returns the connection, the phase
        and the times from spawn and from bind to the verdict."""
        conn = Connection(self.port, client_id)
        phase = Phase(sent=[0])
        try:
            conn.send(0, frames[0])
            conn.receive(phase)
        except BaseException:
            conn.close()
            raise
        now = time.perf_counter()
        return conn, phase, now - self.started, now - self.bound_at

    def stderr_tail(self) -> str:
        return self.err_path.read_text(errors="replace")[-4000:]


class Boot(NamedTuple):
    """An extra boot's frame 0, its setup times and its drained count."""

    phase: Phase
    setup_s: float
    bind_s: float
    drained: int


def probe_boot(command: List[str], env: dict, err_path: Path, frames: Stream,
               client_id: int) -> Boot:
    """An extra cold boot: first verdict, then drain."""
    server = Server(command, env, err_path)
    conn = None
    try:
        conn, phase, setup_s, bind_s = server.first_verdict(frames, client_id)
        drained = server.drain()
    except BaseException:
        sys.stderr.write(server.stderr_tail())
        raise
    finally:
        if conn is not None:
            conn.close()
        server.close()
    return Boot(phase, setup_s, bind_s, drained)


class Replay:
    """The offline twin: one in-process pipeline fed the frame sequence.

    Frames go through in stream order, as they do on the server.  Timed
    segments make one ``run_identified_batch`` call per frame; untimed
    work (warm-up, catch-up) is kept out of the timers.
    """

    def __init__(self, workload: Workload, frames: Stream, timers=None) -> None:
        self.detector = create_detector(workload.spec())
        self.timers = timers
        if timers is not None:
            timers.install(type(self.detector), workload.timed)
            timers.active = False
        self._run = DetectionPipeline(
            self.detector, score_sources=False
        ).run_identified_batch
        self.frames = frames
        self.verdicts: Dict[int, np.ndarray] = {}
        self.next = 0
        #: Frame indices, clicks and seconds of the timed segments.
        self.timed: List[int] = []
        self.segment_rates: List[float] = []
        self.clicks = 0
        self.seconds = 0.0
        #: Time inside ``run_identified_batch`` and word ops, timed segments.
        self.pipeline_seconds = 0.0
        self.word_ops = 0

    def _ops(self) -> int:
        return self.detector.counter.word_reads + self.detector.counter.word_writes

    def untimed(self, stop: int) -> None:
        while self.next < stop:
            self.verdicts[self.next] = self._run(*self.frames[self.next])
            self.next += 1

    def segment(self, seconds: float) -> None:
        """Timed: one call per frame until ``seconds`` have passed."""
        frames, run, verdicts = self.frames, self._run, self.verdicts
        first = index = self.next
        clock = time.perf_counter
        ops = self._ops()
        if self.timers is not None:
            self.timers.active = True
        start = clock()
        deadline = start + seconds
        while index < len(frames) and clock() < deadline:
            call = clock()
            verdicts[index] = run(*frames[index])
            self.pipeline_seconds += clock() - call
            index += 1
        elapsed = clock() - start
        if self.timers is not None:
            self.timers.active = False
        self.word_ops += self._ops() - ops
        self.next = index
        clicks = (index - first) * frames.size
        self.timed.extend(range(first, index))
        self.segment_rates.append(clicks / elapsed)
        self.clicks += clicks
        self.seconds += elapsed

    def call_peak_mib(self) -> float:
        """Allocation peak of one untimed call on the next frame."""
        tracemalloc.start()
        try:
            baseline = tracemalloc.get_traced_memory()[0]
            self.untimed(self.next + 1)
            return (tracemalloc.get_traced_memory()[1] - baseline) / 2**20
        finally:
            tracemalloc.stop()

    def catch_up(self, stop: int) -> None:
        """Untimed: frames up to ``stop`` in large calls."""
        step = max(1, CATCH_UP_CLICKS // self.frames.size)
        size = self.frames.size
        while self.next < stop:
            chunk = list(range(self.next, min(stop, self.next + step)))
            joined = self._run(*self.frames.joined(chunk))
            for offset, index in enumerate(chunk):
                self.verdicts[index] = joined[offset * size:(offset + 1) * size]
            self.next = chunk[-1] + 1


def fix_allocator() -> None:
    """Set this process's glibc thresholds (no-op without glibc)."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt(-3, MMAP_THRESHOLD)  # M_MMAP_THRESHOLD
        mallopt(-1, TRIM_THRESHOLD)  # M_TRIM_THRESHOLD


def child_env(src: Path) -> dict:
    """The environment of a child process: ``src`` and this directory
    first on its import path, and the glibc thresholds."""
    env = dict(os.environ)
    env["MALLOC_MMAP_THRESHOLD_"] = str(MMAP_THRESHOLD)
    env["MALLOC_TRIM_THRESHOLD_"] = str(TRIM_THRESHOLD)
    paths = [str(src), str(HERE)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def tail_percentile(latencies: np.ndarray):
    """Highest percentile with at least ten samples beyond it."""
    ordered = np.sort(latencies)
    rank = max(0, ordered.shape[0] - 11)
    return float(ordered[rank]), 100.0 * (rank + 1) / ordered.shape[0]


def _protocol_pass(frames: Stream, indices: List[int], verdicts) -> Dict[str, float]:
    """Time the four RPK1 codecs over ``indices``; microseconds per click."""
    totals = dict.fromkeys(
        ("encode_batch", "decode_batch_payload", "encode_verdicts",
         "decode_verdicts_payload"), 0.0)
    clock = time.perf_counter
    for request_id, index in enumerate(indices, start=1):
        identifiers, stamps = frames[index]
        t0 = clock()
        wire = encode_batch(request_id, identifiers, stamps)
        t1 = clock()
        decode_batch_payload(memoryview(wire)[HEADER.size:])
        t2 = clock()
        reply = encode_verdicts(request_id, verdicts[index])
        t3 = clock()
        decode_verdicts_payload(memoryview(reply)[HEADER.size:])
        t4 = clock()
        totals["encode_batch"] += t1 - t0
        totals["decode_batch_payload"] += t2 - t1
        totals["encode_verdicts"] += t3 - t2
        totals["decode_verdicts_payload"] += t4 - t3
    clicks = len(indices) * frames.size
    return {name: seconds / clicks * 1e6 for name, seconds in totals.items()}


def _setup_probe(workload: Workload, env: dict) -> Dict[str, float]:
    out = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload.name],
        env=env, capture_output=True, text=True, timeout=BOOT_TIMEOUT, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def run(workload: Workload, seed: int, seconds: float, traced: bool,
        root: Path) -> dict:
    """One run; returns the result object the command prints last.

    Server outputs go to a scratch directory under ``.bench_build/`` in
    the checkout, removed when the run ends.
    """
    fix_allocator()
    out_dir = root / ".bench_build" / "e2ebench" / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    try:
        return _run(workload, seed, seconds, traced, root, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def _run(workload: Workload, seed: int, seconds: float, traced: bool,
         root: Path, out_dir: Path) -> dict:
    open_s, closed_s, offline_s = (seconds * OPEN_SHARE / ROUNDS,
                                   seconds * CLOSED_SHARE / ROUNDS,
                                   seconds * OFFLINE_SHARE / ROUNDS)
    size = workload.frame
    warm = workload.warmup_clicks() // size
    per_round = max(1, round(workload.rate * open_s))
    frames = Stream(workload, seed)
    frames.ensure(warm + 1)
    env = child_env(root / "src")
    command = workload.server_command(str(HERE / "serve_timed.py"))
    trace_args: List[str] = []
    timers = None
    if traced:
        from layers import LayerTimers

        timers = LayerTimers()
        trace_args = ["--trace-dir", str(out_dir / "trace"),
                      "--flight-dir", str(out_dir / "flight")]
    lines: List[str] = [
        f"workload {workload.name}, seed {seed}, {seconds:g} s timed in "
        f"{ROUNDS} rounds, {size}-click frames, "
        f"{'traced' if traced else 'untraced'}"]
    say = lines.append

    client_id = seed % (1 << 63) + 1
    # The extra boots get no trace or flight directory: the traced run
    # reads those of the main server only.
    probes = [probe_boot(command, env, out_dir / f"probe-{i}.err", frames,
                         client_id)
              for i in range(SETUP_BOOTS - 1)]
    phases: List[Phase] = []
    opened, closed = [], []
    server = Server(command + trace_args, env, out_dir / "server.err")
    conn = None
    try:
        conn, setup, setup_main, bind_main = server.first_verdict(frames, client_id)
        setup_s = float(np.median([p.setup_s for p in probes] + [setup_main]))
        bind_to_first_s = float(np.median([p.bind_s for p in probes] + [bind_main]))
        phases.append(setup)
        phases.append(closed_loop(conn, frames, 1, workload.depth,
                                  float("inf"), stop=warm))
        serve_peak = phases[-1].clicks / (phases[-1].end - phases[-1].start)
        replay = Replay(workload, frames, timers)
        warm_start = time.perf_counter()
        replay.untimed(warm)
        offline_peak = warm * size / (time.perf_counter() - warm_start)
        call_peak_mib = replay.call_peak_mib() if traced else 0.0
        trace_every = max(1, ROUNDS * per_round // TRACED_FRAMES) if traced else 0
        sent_upto = warm
        for _ in range(ROUNDS):
            frames.ensure(replay.next + _frames_for(offline_peak, offline_s, size))
            replay.segment(offline_s)
            offline_peak = max(offline_peak, replay.segment_rates[-1])
            frames.ensure(sent_upto + per_round)
            opened.append(open_loop(conn, frames, sent_upto, per_round,
                                    workload.rate, trace_every))
            sent_upto += per_round
            frames.ensure(sent_upto + _frames_for(serve_peak, closed_s, size))
            closed_wall = [time.time()]
            closed.append(closed_loop(conn, frames, sent_upto, workload.depth,
                                      closed_s))
            closed_wall.append(time.time())
            serve_peak = max(serve_peak, closed[-1].clicks
                             / (closed[-1].end - closed[-1].start))
            sent_upto = max(closed[-1].sent, default=sent_upto - 1) + 1
        phases += [o.phase for o in opened] + closed
        peak_rss = server.peak_rss_mib()
        drained = server.drain()
    except BaseException:
        sys.stderr.write(server.stderr_tail())
        raise
    finally:
        if conn is not None:
            conn.close()
        server.close()

    probe_phases = [p.phase for p in probes]
    sent = [i for p in phases + probe_phases for i in p.sent]
    refused = [i for p in phases + probe_phases for i in p.refused]
    served = {i: v for p in phases for i, v in p.verdicts.items()}
    unanswered = sum(p.unanswered for p in phases + probe_phases)
    served_clicks = sum(v.shape[0] for v in served.values())
    replay.catch_up(max(sent) + 1)
    if timers is not None:
        timers.restore()
    mismatched = [i for i, v in served.items()
                  if not np.array_equal(v, replay.verdicts[i])]
    mismatched += [0 for p in probe_phases
                   if not np.array_equal(p.verdicts.get(0), replay.verdicts[0])]
    probe_drain_ok = all(p.drained == size for p in probes)
    processed = list(range(replay.next))
    stream_ids, stream_ts = frames.joined(processed)
    report = audit(workload, stream_ids, stream_ts,
                   np.concatenate([replay.verdicts[i] for i in processed]))

    latencies = np.concatenate([o.latencies_ms() for o in opened])
    lateness = np.concatenate([o.lateness_ms() for o in opened])
    tail, tail_pct = tail_percentile(latencies)
    serve_rates = [c.clicks / (c.end - c.start) for c in closed]
    round_p50 = [float(np.median(o.latencies_ms())) for o in opened]
    serve_seconds = sum(c.end - c.start for c in closed)
    metrics = {
        "setup_s": (setup_s, "s"),
        "offline_clicks_per_s": (replay.clicks / replay.seconds, "clicks/s"),
        "serve_clicks_per_s": (sum(c.clicks for c in closed) / serve_seconds,
                               "clicks/s"),
        "verdict_p50_ms": (float(np.median(latencies)), "ms"),
        "server_peak_rss_mib": (peak_rss, "MiB"),
    }
    say(f"setup: first verdict {setup_s:.3f} s after spawn, "
        f"{bind_to_first_s:.3f} s after bind (medians of {SETUP_BOOTS} boots: "
        f"{_fmt([p.setup_s for p in probes] + [setup_main])} s); extra boots "
        f"drained {' '.join(str(p.drained) for p in probes)} of {size} clicks")
    say(f"offline: {replay.clicks} clicks in {replay.seconds:.3f} s; "
        f"per round {_fmt(replay.segment_rates)} clicks/s")
    say(f"open loop: {latencies.shape[0]} frames offered at "
        f"{workload.rate:g}/s; verdict p50 {metrics['verdict_p50_ms'][0]:.2f} ms "
        f"(per round {_fmt(round_p50)}), tail p{tail_pct:.2f} {tail:.2f} ms "
        f"(n={latencies.shape[0]}, 10 beyond); generator late p50 "
        f"{np.median(lateness):.3f} ms, max {lateness.max():.3f} ms")
    say(f"closed loop: depth {workload.depth}, "
        f"{sum(len(c.sent) for c in closed)} frames; per round "
        f"{_fmt(serve_rates)} clicks/s")
    say(f"drain: peak RSS {peak_rss:.1f} MiB; drained {drained} clicks, "
        f"served {served_clicks}")
    say(f"frames: sent {len(sent)}, refused {len(refused)}, "
        f"unanswered {unanswered}")
    say(f"check: {len(served) + len(probes) - len(mismatched)} of "
        f"{len(served) + len(probes)} served frames equal offline; FN {report.false_negatives}; "
        f"FP {report.false_positives} of {report.eligible} eligible "
        f"({report.fp_rate:.2e}, limit {report.fp_limit:.0f}); "
        f"near-expiry flags {report.near_expiry} "
        f"(limit {report.near_expiry_limit:.0f})")

    correct = (not mismatched and report.ok and drained == served_clicks
               and probe_drain_ok and not refused and unanswered == 0)
    result_metrics = metrics
    if traced:
        result_metrics = _layer_metrics(
            workload, frames, replay, timers, call_peak_mib, opened, closed[-1],
            closed_wall, out_dir, env, bind_to_first_s, say)
    for line in lines:
        print(line)
    return {
        "correct": bool(correct),
        "attempted": len(sent),
        "failed": len(refused) + unanswered,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result_metrics.items()},
    }


def _frames_for(rate: float, seconds: float, size: int) -> int:
    return int(HEADROOM * rate * seconds / size) + 1


def _fmt(values) -> str:
    return " ".join(f"{v:.4g}" for v in values)


def _layer_metrics(workload, frames, replay, timers, call_peak_mib, opened,
                   closed, closed_wall, out_dir, env, bind_to_first_s, say):
    """The per-layer metrics of a traced run (see README.md)."""
    from layers import flight_summary, server_group_spans, wait_p50_ms

    us = 1e6 / replay.clicks
    seconds = timers.seconds
    detector = seconds.get("detector", 0.0)
    hashing = seconds.get("hashing", 0.0)
    protocol = _protocol_pass(frames, replay.timed, replay.verdicts)
    flight = flight_summary(out_dir / "flight", *closed_wall)
    client_spans = {}
    for run in opened:
        first = run.phase.sent[0]
        for index, trace in run.traced.items():
            j = index - first
            client_spans[trace] = float(run.replied_at[j] - run.sent_at[j])
    wait_ms, waits = wait_p50_ms(client_spans,
                                 server_group_spans(out_dir / "trace"))
    setup = _setup_probe(workload, env)
    served_us = (closed.end - closed.start) / closed.clicks * 1e6
    metrics = {
        "serve.protocol.encode_batch_us_per_click":
            (protocol["encode_batch"], "us/click"),
        "serve.protocol.decode_batch_payload_us_per_click":
            (protocol["decode_batch_payload"], "us/click"),
        "serve.protocol.encode_verdicts_us_per_click":
            (protocol["encode_verdicts"], "us/click"),
        "serve.protocol.decode_verdicts_payload_us_per_click":
            (protocol["decode_verdicts_payload"], "us/click"),
        "hashing.indices_batch_us_per_click": (hashing * us, "us/click"),
        "core.detector_self_us_per_click": ((detector - hashing) * us, "us/click"),
        "core.batch.resolve_inserts_us_per_click":
            (seconds.get("resolve_inserts", 0.0) * us, "us/click"),
        "core.kernels_us_per_click": (seconds.get("kernels", 0.0) * us, "us/click"),
        "core.calls_per_kclick":
            (timers.calls.get("detector", 0) * 1e3 / replay.clicks, "calls/kclick"),
        "core.word_ops_per_click": (replay.word_ops / replay.clicks, "ops/click"),
        "core.state_bytes": (replay.detector.memory_bits // 8, "B"),
        "core.call_peak_mib": (call_peak_mib, "MiB"),
        "detection.pipeline.self_us_per_click":
            ((replay.pipeline_seconds - detector) * us, "us/click"),
        "serve.coalescer.clicks_per_group":
            (flight["clicks_per_group"], "clicks/group"),
        "serve.coalescer.deadline_flushes_per_kframe":
            (flight["deadline_flushes_per_kframe"], "flushes/kframe"),
        "serve.server.engine_us_per_click":
            (flight["engine_us_per_click"], "us/click"),
        "serve.server.loop_us_per_click":
            (served_us - flight["engine_us_per_click"], "us/click"),
        "serve.server.wait_p50_ms": (wait_ms, "ms"),
        "setup.import_s": (setup["import_s"], "s"),
        "setup.create_detector_s": (setup["create_detector_s"], "s"),
        "setup.bind_to_first_verdict_s": (bind_to_first_s, "s"),
    }
    say(f"traced offline: {replay.seconds * us:.3f} us/click wall")
    say(f"flight dump: {flight['groups']} groups, {flight['frames']} frames "
        f"of the last closed loop; wait p50 over {waits} traced frames")
    return metrics

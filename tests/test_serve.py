"""Tests for the network click-ingest service (:mod:`repro.serve`).

Covers the coalescer contract, binary and JSONL round-trips with
offline verdict parity, admission-control backpressure, malformed-frame
dead-lettering, and drain-with-checkpoint restarts that lose no clicks.
"""

import asyncio
import logging
import socket
import time

import numpy as np
import pytest

from repro.detection import DetectorSpec, WindowSpec, create_detector
from repro.detection.pipeline import DetectionPipeline
from repro.errors import (
    ConfigurationError,
    OverloadedError,
    ProtocolError,
    RecoveryError,
)
from repro.resilience import CORRUPTION_MODES, DeadLetterSink, FaultInjector
from repro.serve import Coalescer, ServeClient, ServeConfig, ServerThread
from repro.serve.protocol import (
    FRAME_BATCH,
    FRAME_ERROR,
    FRAME_VERDICTS,
    HEADER,
    MAGIC,
    decode_batch_payload,
    decode_header,
    encode_batch,
    encode_frame,
)
from repro.streams import IdentifierScheme
from repro.telemetry import TelemetrySession

TBF_SPEC = DetectorSpec(
    algorithm="tbf", window=WindowSpec("sliding", 4096), target_fp=0.01
)
TBF_TIME_SPEC = DetectorSpec(
    algorithm="tbf-time", window=WindowSpec("sliding", 4096),
    target_fp=0.01, duration=120.0, resolution=16,
)


def _stream(count=20_000, seed=5, universe=2_000):
    rng = np.random.default_rng(seed)
    identifiers = rng.integers(0, universe, size=count, dtype=np.uint64)
    timestamps = np.cumsum(rng.exponential(0.01, size=count))
    return identifiers, timestamps


def _offline(spec, identifiers, timestamps=None):
    pipeline = DetectionPipeline(create_detector(spec), score_sources=False)
    return pipeline.run_identified_batch(identifiers, timestamps)


class TestCoalescer:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Coalescer(max_batch=0)
        with pytest.raises(ConfigurationError):
            Coalescer(max_delay=-1.0)

    def test_size_bound_emits_full_group(self):
        c = Coalescer(max_batch=100, max_delay=10.0, clock=lambda: 0.0)
        assert c.add("a", 40) is None
        assert c.add("b", 40) is None
        assert c.add("c", 40) == ["a", "b", "c"]
        assert c.pending_items == 0 and c.pending_clicks == 0

    def test_single_oversized_request_never_split(self):
        c = Coalescer(max_batch=100, max_delay=10.0, clock=lambda: 0.0)
        assert c.add("big", 1000) == ["big"]

    def test_deadline_flushes_short_group(self):
        now = [0.0]
        c = Coalescer(max_batch=1000, max_delay=0.5, clock=lambda: now[0])
        assert c.add("a", 1) is None
        assert c.poll() is None           # deadline not reached
        now[0] = 0.49
        assert c.poll() is None
        now[0] = 0.5
        assert c.poll() == ["a"]
        assert c.deadline is None         # empty again: no timeout needed

    def test_idle_emits_at_once_by_default(self):
        # max_delay=0: nothing is worth waiting for, so an idle engine
        # takes the pending group as soon as the queue runs dry.
        c = Coalescer(max_batch=1000, clock=lambda: 0.0)
        assert c.max_delay == 0
        assert c.idle() is None           # nothing pending
        assert c.add("a", 1) is None
        assert c.add("b", 2) is None
        assert c.idle() == ["a", "b"]
        assert c.pending_items == 0 and c.deadline is None

    def test_idle_holds_for_the_deadline_with_max_delay(self):
        # An opt-in max_delay keeps its meaning: an idle engine still
        # holds a lone request until the request's deadline.
        now = [0.0]
        c = Coalescer(max_batch=1000, max_delay=0.5, clock=lambda: now[0])
        assert c.add("a", 1) is None
        assert c.idle() is None
        now[0] = 0.49
        assert c.idle() is None and c.poll() is None
        now[0] = 0.5
        assert c.idle() is None           # the deadline, not idleness,
        assert c.poll() == ["a"]          # emits an opt-in wait

    def test_flush_matches_read_batches_contract(self):
        # Leftovers come out exactly as accumulated — never empty,
        # never padded — and an empty coalescer flushes nothing.
        c = Coalescer(max_batch=100, max_delay=10.0, clock=lambda: 0.0)
        assert c.flush() is None
        c.add("a", 7)
        c.add("b", 0)                     # zero-click items still owe a reply
        assert c.flush() == ["a", "b"]
        assert c.flush() is None


class TestZeroCopyDecode:
    def test_decode_returns_views_over_the_payload(self):
        identifiers = np.arange(100, dtype=np.uint64) * 7
        timestamps = np.cumsum(np.full(100, 0.25))
        frame = encode_batch(3, identifiers, timestamps)
        payload = frame[HEADER.size :]
        got_ids, got_ts = decode_batch_payload(payload)
        assert np.array_equal(got_ids, identifiers)
        assert np.array_equal(got_ts, timestamps)
        # Zero-copy: both arrays are strided views over the wire bytes,
        # not fresh buffers — no per-record or per-array allocation.
        assert got_ids.base is not None and got_ts.base is not None
        assert got_ids.strides == (16,) and got_ts.strides == (16,)
        assert not got_ids.flags.writeable
        assert not got_ts.flags.writeable

    def test_views_survive_the_detector_round_trip(self):
        # The read-only strided views must drive the full batch path
        # (hashing, probe, insert) bit-identically to contiguous copies.
        identifiers, timestamps = _stream(2_000)
        frame = encode_batch(1, identifiers, timestamps)
        got_ids, got_ts = decode_batch_payload(frame[HEADER.size :])
        expected = _offline(TBF_TIME_SPEC, identifiers.copy(), timestamps.copy())
        got = _offline(TBF_TIME_SPEC, got_ids, got_ts)
        assert np.array_equal(expected, got)

    def test_empty_and_misaligned_payloads(self):
        got_ids, got_ts = decode_batch_payload(b"")
        assert got_ids.shape == (0,) and got_ts.shape == (0,)
        with pytest.raises(ProtocolError):
            decode_batch_payload(b"\x00" * 15)


class TestBinaryProtocolServing:
    def test_verdicts_match_offline_pipeline(self):
        identifiers, _ = _stream()
        with ServerThread(create_detector(TBF_SPEC)) as thread:
            with ServeClient("127.0.0.1", thread.port) as client:
                served = np.concatenate([
                    client.send(chunk)
                    for chunk in np.array_split(identifiers, 7)
                ])
        expected = _offline(TBF_SPEC, identifiers)
        assert (served == expected).all()

    def test_time_based_verdicts_match_offline_pipeline(self):
        identifiers, timestamps = _stream()
        with ServerThread(create_detector(TBF_TIME_SPEC)) as thread:
            with ServeClient("127.0.0.1", thread.port) as client:
                served = np.concatenate([
                    client.send(ids, ts)
                    for ids, ts in zip(
                        np.array_split(identifiers, 7),
                        np.array_split(timestamps, 7),
                    )
                ])
        expected = _offline(TBF_TIME_SPEC, identifiers, timestamps)
        assert (served == expected).all()

    def test_pipelined_submits_return_in_request_order(self):
        identifiers, _ = _stream(count=8_000)
        chunks = np.array_split(identifiers, 16)
        with ServerThread(create_detector(TBF_SPEC)) as thread:
            with ServeClient("127.0.0.1", thread.port) as client:
                ids = [client.submit(chunk) for chunk in chunks]
                served = np.concatenate([client.collect(i) for i in ids])
        expected = _offline(TBF_SPEC, identifiers)
        assert (served == expected).all()

    def test_ping_and_empty_batch(self):
        with ServerThread(create_detector(TBF_SPEC)) as thread:
            with ServeClient("127.0.0.1", thread.port) as client:
                assert client.ping()
                verdicts = client.send(np.empty(0, dtype=np.uint64))
                assert verdicts.shape == (0,)

    def test_processed_clicks_counts_served_stream(self):
        identifiers, _ = _stream(count=5_000)
        thread = ServerThread(create_detector(TBF_SPEC)).start()
        try:
            with ServeClient("127.0.0.1", thread.port) as client:
                client.send(identifiers)
        finally:
            thread.stop()
        assert thread.server.processed_clicks == 5_000


class _BusyEngine:
    """Fault hook: the first group holds the event loop for ``seconds``,
    as a long detector call does."""

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        self.groups = 0

    async def before_group(self, group) -> None:
        self.groups += 1
        if self.groups == 1:
            time.sleep(self.seconds)


class TestSmartBatching:
    """With the default ``max_delay=0`` a group is what has queued when
    the engine is free; flight events show how each group was formed."""

    FRAME = 64

    @staticmethod
    def _events(server, kind, field):
        return [
            fields[field]
            for _seq, _ts, event_kind, fields in server.flight.events()
            if event_kind == kind
        ]

    def _frames(self, first, count):
        return b"".join(
            encode_batch(
                first + i,
                np.arange(self.FRAME, dtype=np.uint64) + (first + i) * self.FRAME,
            )
            for i in range(count)
        )

    @staticmethod
    def _read_verdicts(sock, count):
        for _ in range(count):
            frame_type, _request_id, length = decode_header(
                _recv_exactly(sock, HEADER.size), expect_response=True
            )
            _recv_exactly(sock, length)
            assert frame_type == FRAME_VERDICTS

    def test_lone_frame_runs_at_once(self):
        with ServerThread(create_detector(TBF_SPEC)) as thread:
            with ServeClient("127.0.0.1", thread.port) as client:
                assert client.send(np.arange(256, dtype=np.uint64)).shape == (256,)
        server = thread.server
        assert self._events(server, "flush", "reason") == ["idle"]
        assert self._events(server, "group_start", "clicks") == [256]

    def test_one_burst_is_one_group(self):
        # Every frame of one write is decoded before the engine looks at
        # its queue again, so the group is the whole burst.
        with ServerThread(create_detector(TBF_SPEC)) as thread:
            sock = socket.create_connection(("127.0.0.1", thread.port), timeout=10)
            try:
                sock.sendall(MAGIC + self._frames(1, 8))
                self._read_verdicts(sock, 8)
            finally:
                sock.close()
        server = thread.server
        assert self._events(server, "group_start", "clicks") == [8 * self.FRAME]
        assert self._events(server, "flush", "reason") == ["idle"]

    def test_backlog_of_a_busy_engine_is_one_group(self):
        # Frames 1-3 fill a group by size; frame 4 stays queued.  While
        # that group holds the loop, frame 5 reaches the socket.  Frames
        # 4 and 5 are one backlog: the engine lets the reader decode
        # frame 5 before it emits frame 4 short.
        config = ServeConfig(max_batch=3 * self.FRAME)
        hooks = _BusyEngine(0.3)
        with ServerThread(
            create_detector(TBF_SPEC), config, fault_hooks=hooks
        ) as thread:
            sock = socket.create_connection(("127.0.0.1", thread.port), timeout=10)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            try:
                sock.sendall(MAGIC + self._frames(1, 4))
                time.sleep(0.1)          # the first group holds the loop
                sock.sendall(self._frames(5, 1))
                self._read_verdicts(sock, 5)
            finally:
                sock.close()
        server = thread.server
        assert self._events(server, "group_start", "clicks") == [
            3 * self.FRAME, 2 * self.FRAME,
        ]
        assert self._events(server, "flush", "reason") == ["size", "idle"]


class TestJsonlServing:
    def test_jsonl_round_trip_matches_offline(self, tmp_path):
        from repro.adnet import TrafficProfile, demo_network

        network = demo_network(seed=4)
        clicks = network.run(
            duration=400.0, profile=TrafficProfile(click_rate=2.0, num_visitors=30)
        )
        scheme = IdentifierScheme.IP_COOKIE_AD
        with ServerThread(
            create_detector(TBF_SPEC), ServeConfig(scheme=scheme)
        ) as thread:
            import json

            sock = socket.create_connection(("127.0.0.1", thread.port), timeout=10)
            try:
                from repro.streams.io import click_to_record

                half = len(clicks) // 2
                served = []
                for n, chunk in enumerate([clicks[:half], clicks[half:]]):
                    request = {
                        "id": n + 1,
                        "clicks": [click_to_record(c) for c in chunk],
                    }
                    sock.sendall((json.dumps(request) + "\n").encode())
                handle = sock.makefile("rb")
                for n in (1, 2):
                    response = json.loads(handle.readline())
                    assert response["id"] == n
                    served.extend(response["verdicts"])
            finally:
                sock.close()
        identifiers = scheme.identify_batch(clicks)
        expected = _offline(TBF_SPEC, identifiers)
        assert (np.array(served, dtype=bool) == expected).all()

    def test_jsonl_garbage_gets_error_and_connection_survives(self):
        sink = DeadLetterSink()
        with ServerThread(
            create_detector(TBF_SPEC), dead_letters=sink
        ) as thread:
            import json

            sock = socket.create_connection(("127.0.0.1", thread.port), timeout=10)
            try:
                handle = sock.makefile("rb")
                sock.sendall(b'{"id": 1, "clicks": "not-a-list"}\n')
                assert "error" in json.loads(handle.readline())
                sock.sendall(b'{"id": 2, "ping": true}\n')
                assert json.loads(handle.readline())["pong"] is True
            finally:
                sock.close()
        assert sink.total == 1


class TestBackpressure:
    def test_overload_is_explicit_and_recoverable(self):
        identifiers, _ = _stream(count=3_000)
        batch = identifiers[:1_000]          # 16 kB on the wire
        config = ServeConfig(
            # Hold everything in the coalescer long enough for a second
            # submit to arrive while the first still owns its bytes.
            max_batch=1 << 30,
            max_delay=0.3,
            max_inflight_bytes=20_000,       # fits one batch, not two
        )
        with ServerThread(create_detector(TBF_SPEC), config) as thread:
            with ServeClient("127.0.0.1", thread.port) as client:
                first = client.submit(batch)
                second = client.submit(identifiers[1_000:2_000])
                assert client.collect(first).shape == (1_000,)
                with pytest.raises(OverloadedError):
                    client.collect(second)
                # The refused batch was not processed: resubmitting is
                # the client's job, and now succeeds.
                verdicts = client.send(identifiers[1_000:2_000])
                assert verdicts.shape == (1_000,)
        assert thread.server.processed_clicks == 2_000

    def test_overloaded_counter_increments(self):
        session = TelemetrySession()
        config = ServeConfig(
            max_batch=1 << 30, max_delay=0.3, max_inflight_bytes=20_000
        )
        with ServerThread(
            create_detector(TBF_SPEC), config, telemetry=session
        ) as thread:
            with ServeClient("127.0.0.1", thread.port) as client:
                first = client.submit(np.arange(1_000, dtype=np.uint64))
                second = client.submit(np.arange(1_000, dtype=np.uint64))
                client.collect(first)
                with pytest.raises(OverloadedError):
                    client.collect(second)
        counters = {
            entry["name"]: entry["value"]
            for entry in session.registry.snapshot()["counters"]
        }
        assert counters["repro_serve_overloaded_total"] == 1
        assert counters["repro_serve_clicks_total"] == 1_000


class TestMalformedFrames:
    def test_bad_payload_dead_lettered_connection_survives(self):
        sink = DeadLetterSink()
        identifiers, _ = _stream(count=1_000)
        with ServerThread(
            create_detector(TBF_SPEC), dead_letters=sink
        ) as thread:
            sock = socket.create_connection(("127.0.0.1", thread.port), timeout=10)
            try:
                sock.sendall(MAGIC)
                # 17 payload bytes: not a multiple of the 16-byte record.
                sock.sendall(encode_frame(FRAME_BATCH, 1, b"\x00" * 17))
                header = _recv_exactly(sock, HEADER.size)
                frame_type, request_id, length = decode_header(
                    header, expect_response=True
                )
                reason = _recv_exactly(sock, length)
                assert frame_type == FRAME_ERROR
                assert request_id == 1
                assert b"record" in reason
                # Same connection still classifies good frames.
                sock.sendall(encode_batch(2, identifiers))
                frame_type, request_id, length = decode_header(
                    _recv_exactly(sock, HEADER.size), expect_response=True
                )
                payload = _recv_exactly(sock, length)
                assert frame_type == FRAME_VERDICTS
                assert request_id == 2
                assert length == identifiers.shape[0]
            finally:
                sock.close()
        assert sink.total == 1
        assert thread.server.processed_clicks == 1_000

    def test_unknown_frame_type_dead_lettered(self):
        sink = DeadLetterSink()
        with ServerThread(
            create_detector(TBF_SPEC), dead_letters=sink
        ) as thread:
            sock = socket.create_connection(("127.0.0.1", thread.port), timeout=10)
            try:
                sock.sendall(MAGIC)
                sock.sendall(encode_frame(0x7F, 9, b"??"))
                frame_type, request_id, length = decode_header(
                    _recv_exactly(sock, HEADER.size), expect_response=True
                )
                _recv_exactly(sock, length)
                assert frame_type == FRAME_ERROR
                assert request_id == 9
            finally:
                sock.close()
        assert sink.counts.get("unknown frame type 0x7F") == 1

    def test_regressing_timestamps_rejected(self):
        with ServerThread(create_detector(TBF_TIME_SPEC)) as thread:
            with ServeClient("127.0.0.1", thread.port) as client:
                with pytest.raises(ProtocolError, match="regress"):
                    client.send(
                        np.array([1, 2], dtype=np.uint64),
                        np.array([5.0, 1.0]),
                    )

    def test_oversized_jsonl_line_errors_and_closes(self):
        import json

        sink = DeadLetterSink()
        config = ServeConfig(max_frame_bytes=1024)
        with ServerThread(
            create_detector(TBF_SPEC), config, dead_letters=sink
        ) as thread:
            sock = socket.create_connection(("127.0.0.1", thread.port), timeout=10)
            try:
                handle = sock.makefile("rb")
                sock.sendall(b'{"id": 1, "clicks": [' + b" " * 5_000 + b"]}\n")
                response = json.loads(handle.readline())
                assert "error" in response
                assert handle.readline() == b""    # deliberate close
            finally:
                sock.close()
            # The server itself survives: a fresh connection classifies.
            with ServeClient("127.0.0.1", thread.port) as client:
                assert client.send(np.arange(10, dtype=np.uint64)).shape == (10,)
        assert sink.total == 1


class TestTimedMultiClient:
    """Cross-connection clock skew against a time-based detector."""

    def test_skewed_clients_are_merged_not_fatal(self):
        identifiers, timestamps = _stream(count=8_000)
        half = identifiers.shape[0] // 2
        # Client B's clock lags client A's by a few milliseconds —
        # ordinary NTP-grade skew, far inside the default tolerance.
        config = ServeConfig(max_batch=1 << 30, max_delay=0.05)
        with ServerThread(create_detector(TBF_TIME_SPEC), config) as thread:
            with ServeClient("127.0.0.1", thread.port) as a, \
                 ServeClient("127.0.0.1", thread.port) as b:
                served = 0
                for start in range(0, half, 500):
                    stop = start + 500
                    ra = a.submit(
                        identifiers[start:stop], timestamps[start:stop]
                    )
                    rb = b.submit(
                        identifiers[half + start : half + stop],
                        timestamps[start:stop] - 0.004,
                    )
                    served += int(a.collect(ra).shape[0])
                    served += int(b.collect(rb).shape[0])
        # Every click of both connections was classified — the engine
        # never died on the interleaved clocks.
        assert served == identifiers.shape[0]
        assert thread.server.processed_clicks == identifiers.shape[0]

    def test_single_connection_stays_bit_identical(self):
        # The merge/clamp machinery is the identity for one monotone
        # stream, pipelined submits included.
        identifiers, timestamps = _stream(count=12_000)
        with ServerThread(create_detector(TBF_TIME_SPEC)) as thread:
            with ServeClient("127.0.0.1", thread.port) as client:
                ids = [
                    client.submit(chunk_i, chunk_t)
                    for chunk_i, chunk_t in zip(
                        np.array_split(identifiers, 24),
                        np.array_split(timestamps, 24),
                    )
                ]
                served = np.concatenate([client.collect(i) for i in ids])
        expected = _offline(TBF_TIME_SPEC, identifiers, timestamps)
        assert (served == expected).all()

    def test_stale_batch_refused_engine_survives(self):
        sink = DeadLetterSink()
        config = ServeConfig(skew_tolerance=0.5)
        with ServerThread(
            create_detector(TBF_TIME_SPEC), config, dead_letters=sink
        ) as thread:
            with ServeClient("127.0.0.1", thread.port) as client:
                ids = np.arange(100, dtype=np.uint64)
                assert client.send(ids, np.full(100, 1000.0)).shape == (100,)
                # An hour behind the watermark: refused before touching
                # detector state, connection and engine both survive.
                with pytest.raises(ProtocolError, match="skew_tolerance"):
                    client.send(ids, np.full(100, 2.0))
                assert client.send(ids, np.full(100, 1001.0)).shape == (100,)
        # Only the two good batches advanced the detector.
        assert thread.server.processed_clicks == 200
        assert sink.total == 1


class TestDrainAndCheckpoint:
    def test_drain_checkpoint_restart_loses_nothing(self, tmp_path):
        identifiers, _ = _stream(count=30_000)
        half = identifiers.shape[0] // 2
        config = ServeConfig(checkpoint_dir=tmp_path / "ckpt")

        thread = ServerThread(create_detector(TBF_SPEC), config).start()
        try:
            with ServeClient("127.0.0.1", thread.port) as client:
                first = np.concatenate([
                    client.send(chunk)
                    for chunk in np.array_split(identifiers[:half], 5)
                ])
        finally:
            thread.stop()
        assert thread.server.processed_clicks == half

        # A fresh process (fresh detector object) resumes the sketch.
        thread = ServerThread(create_detector(TBF_SPEC), config).start()
        try:
            assert thread.server.processed_clicks == half
            with ServeClient("127.0.0.1", thread.port) as client:
                second = np.concatenate([
                    client.send(chunk)
                    for chunk in np.array_split(identifiers[half:], 5)
                ])
        finally:
            thread.stop()
        assert thread.server.processed_clicks == identifiers.shape[0]

        served = np.concatenate([first, second])
        expected = _offline(TBF_SPEC, identifiers)
        # Zero lost, zero duplicated: the split-served stream classifies
        # exactly like one uninterrupted offline run.
        assert (served == expected).all()

    def test_drain_completes_when_client_vanishes_mid_pipeline(self):
        identifiers, _ = _stream(count=6_000)
        # Park everything in the coalescer so the responses are still
        # owed when the client disappears.
        config = ServeConfig(max_batch=1 << 30, max_delay=30.0)
        thread = ServerThread(create_detector(TBF_SPEC), config).start()
        try:
            sock = socket.create_connection(("127.0.0.1", thread.port))
            sock.sendall(MAGIC)
            for seq, chunk in enumerate(np.array_split(identifiers, 6)):
                sock.sendall(encode_batch(seq + 1, chunk))
            time.sleep(0.3)  # let the reader admit every batch
            sock.close()     # client gone; verdicts have nowhere to go
        finally:
            # Drain must flush, classify, and discard the undeliverable
            # responses — not hang on them or strand inflight budget.
            thread.stop(timeout=15.0)
        assert thread.server.processed_clicks == 6_000
        assert thread.server.frontend.inflight_bytes == 0

    def test_drain_right_after_client_close_keeps_bookkeeping(
        self, caplog, monkeypatch
    ):
        # One batch, collect, close, drain at once.  drain() may cancel a
        # handler that is already waiting for its socket to close; with
        # SIGTERM right after the close (``repro serve``) that happens in
        # about half the runs.  Force the interleaving: cancel the
        # handler's own task as it enters wait_closed(), as drain() does.
        original = asyncio.StreamWriter.wait_closed

        async def cancelled_while_closing(writer):
            asyncio.current_task().cancel()
            await original(writer)

        monkeypatch.setattr(
            asyncio.StreamWriter, "wait_closed", cancelled_while_closing
        )
        session = TelemetrySession()
        spec = DetectorSpec("tbf", WindowSpec("sliding", 65536), target_fp=1e-3)
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            thread = ServerThread(create_detector(spec), telemetry=session).start()
            try:
                with ServeClient("127.0.0.1", thread.port) as client:
                    client.submit(np.arange(4_096, dtype=np.uint64))
                    client.collect()
                time.sleep(0.2)  # let the handler reach its socket close
            finally:
                thread.stop()
        gauges = {
            entry["name"]: entry["value"]
            for entry in session.registry.snapshot()["gauges"]
        }
        assert gauges["repro_serve_connections_active"] == 0
        assert not thread.server.frontend.sessions
        assert "CancelledError" not in caplog.text

    @pytest.mark.parametrize("damage", ["torn-write", *CORRUPTION_MODES])
    def test_corrupt_latest_checkpoint_falls_back(self, tmp_path, damage):
        identifiers, _ = _stream(count=4_000)
        config = ServeConfig(checkpoint_dir=tmp_path / "ckpt")
        thread = ServerThread(create_detector(TBF_SPEC), config).start()
        try:
            with ServeClient("127.0.0.1", thread.port) as client:
                client.send(identifiers)
        finally:
            thread.stop()
        store_dir = tmp_path / "ckpt"
        good = (store_dir / "ckpt-00000001.rpk").read_bytes()
        rotten = (
            good[:-7]
            if damage == "torn-write"
            else FaultInjector(seed=3).corrupt(good, damage)
        )
        # A newer generation that rotted on disk.
        (store_dir / "ckpt-00000002.rpk").write_bytes(rotten)
        thread = ServerThread(create_detector(TBF_SPEC), config).start()
        try:
            assert thread.server.processed_clicks == 4_000
        finally:
            thread.stop()

    def test_all_rotten_generations_refuse_to_boot(self, tmp_path):
        store_dir = rotten_store(tmp_path / "ckpt")
        before = {path: path.read_bytes() for path in store_dir.iterdir()}
        thread = ServerThread(
            create_detector(TBF_SPEC), ServeConfig(checkpoint_dir=store_dir)
        )
        with pytest.raises(RecoveryError, match="no usable 'serve' checkpoint"):
            thread.start()
        # Nothing was served, so nothing was written over the evidence.
        assert {path: path.read_bytes() for path in store_dir.iterdir()} == before


def rotten_store(store_dir):
    """A serve checkpoint store whose two generations are both rotten.

    Two drains of a TBF server, 2,000 distinct clicks each, write two
    generations; one flipped byte in each leaves neither usable.
    """
    identifiers = np.arange(4_000, dtype=np.uint64)
    config = ServeConfig(checkpoint_dir=store_dir)
    for half in np.array_split(identifiers, 2):
        with ServerThread(create_detector(TBF_SPEC), config) as thread:
            with ServeClient("127.0.0.1", thread.port) as client:
                client.send(half)
    generations = sorted(store_dir.glob("ckpt-*.rpk"))
    assert len(generations) == 2
    for path in generations:
        FaultInjector(seed=7).corrupt_file(path, "flip-byte")
    return store_dir


def _recv_exactly(sock, count):
    chunks = []
    while count:
        chunk = sock.recv(count)
        assert chunk, "peer closed early"
        chunks.append(chunk)
        count -= len(chunk)
    return b"".join(chunks)

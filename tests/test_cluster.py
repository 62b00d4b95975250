"""Cluster tier: ring placement, slices, scatter/gather, failover.

The load-bearing claim (docs/serving.md §"Cluster topology") is
bit-identity: the verdict stream a client collects through the router,
and every shard's checkpoint bytes on whichever node owns it, must be
indistinguishable from one single-process ``ShardedDetector`` fed the
same stream — including across a node SIGKILL + checkpoint restore and
a live N=2 → N=3 rebalance.
"""

import asyncio
import json
import logging
import socket
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    ClusterConfig,
    ClusterSlice,
    HashRing,
    LocalCluster,
    merge_verdict_payloads,
    read_manifest,
    rebalance_checkpoints,
    slice_shard_blobs,
    split_batch_records,
    split_sharded,
)
from repro.core.checkpoint import unpack_frame
from repro.detection import DetectorSpec, WindowSpec, create_detector
from repro.detection.sharded import ShardedDetector, route_batch
from repro.errors import ConfigurationError, ProtocolError
from repro.resilience.supervisor import CheckpointStore
from repro.serve import ServeClient
from repro.serve.protocol import (
    FLAG_CHECKSUM,
    FLAG_TRACE,
    FRAME_BATCH,
    FRAME_HELLO_ACK,
    FRAME_OVERLOADED,
    FRAME_PING,
    FRAME_PONG,
    FRAME_RETRY,
    FRAME_VERDICTS,
    HEADER,
    MAGIC,
    RECORD_DTYPE,
    TRACE_CONTEXT,
    checksum16,
    decode_header,
    decode_hello_payload,
    encode_batch,
    encode_frame,
    encode_hello,
)
from repro.serve.server import _CHECKPOINT_KIND
from tests.fleets import tbf_fleet

WINDOW = 1 << 10
SHARDS = 8
ENTRIES = 1 << 13
HASHES = 4


def _reference(seed: int = 1) -> ShardedDetector:
    return tbf_fleet(WINDOW, SHARDS, ENTRIES, HASHES, seed=seed)


def _stream(count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    # Universe sized to the window so duplicates are dense.
    return rng.integers(0, WINDOW, size=count, dtype=np.uint64)


def _recv_exactly(sock, count):
    chunks = []
    while count:
        chunk = sock.recv(count)
        assert chunk, "peer closed early"
        chunks.append(chunk)
        count -= len(chunk)
    return b"".join(chunks)


def _read_frame(sock):
    frame_type, request_id, length = decode_header(
        _recv_exactly(sock, HEADER.size), expect_response=True
    )
    return frame_type, request_id, _recv_exactly(sock, length)


def _newest_shard_blobs(directory):
    """Per-shard blobs from the newest serve checkpoint in ``directory``."""
    for _path, blob in CheckpointStore(Path(directory), keep=4).blobs():
        if blob is None:
            continue
        header, payload = unpack_frame(blob)
        if header.get("kind") != _CHECKPOINT_KIND:
            continue
        _total, _timed, blobs = slice_shard_blobs(bytes(payload))
        return blobs
    raise AssertionError(f"no readable checkpoint under {directory}")


# ----------------------------------------------------------------------
# Hash ring
# ----------------------------------------------------------------------

class TestHashRing:
    def test_deterministic_and_covering(self):
        names = ["node-0", "node-1", "node-2"]
        first = HashRing(names).assign(64)
        second = HashRing(names).assign(64)
        assert np.array_equal(first, second)
        assert first.shape == (64,)
        assert set(np.unique(first)) <= {0, 1, 2}
        # Every node owns something at this shard:node ratio.
        assert len(np.unique(first)) == 3

    def test_adding_a_node_only_moves_shards_to_it(self):
        """Consistent hashing's whole point: growth steals, never shuffles.

        A shard whose owner changes when ``node-3`` joins must have
        moved *to* ``node-3``; no shard migrates between two old nodes.
        """
        old = HashRing(["node-0", "node-1", "node-2"]).assign(256)
        new = HashRing(["node-0", "node-1", "node-2", "node-3"]).assign(256)
        moved = np.flatnonzero(old != new)
        assert moved.size > 0                      # the new node gets work
        assert set(new[moved].tolist()) == {3}     # and only it gains any
        assert moved.size < 256                    # most shards stay put

    def test_rejects_empty_and_duplicate_names(self):
        with pytest.raises(ConfigurationError):
            HashRing([])
        with pytest.raises(ConfigurationError):
            HashRing(["a", "a"])


# ----------------------------------------------------------------------
# Slices
# ----------------------------------------------------------------------

class TestClusterSlice:
    def test_slices_bit_identical_to_reference(self):
        identifiers = _stream(6_000, seed=3)
        reference = _reference()
        expected = reference.observe_batch(identifiers)

        assignment = HashRing(["node-0", "node-1"]).assign(SHARDS)
        slices = split_sharded(_reference(), assignment, 2)
        node_of = assignment[route_batch(identifiers, SHARDS)]
        actual = np.empty(identifiers.shape[0], dtype=bool)
        for node, piece in enumerate(slices):
            positions = np.flatnonzero(node_of == node)
            actual[positions] = piece.observe_batch(identifiers[positions])
        assert np.array_equal(actual, expected)
        for node, piece in enumerate(slices):
            for shard in piece.owned:
                assert piece.checkpoint_shard(shard) == (
                    reference.checkpoint_shard(shard)
                )

    def test_refuses_mixed_time_models(self):
        from repro.core import TBFDetector, TimeBasedTBFDetector

        with pytest.raises(ConfigurationError, match="time model"):
            ClusterSlice(
                SHARDS,
                {0: TBFDetector(64, 1024, 4), 1: TimeBasedTBFDetector(8.0, 8, 1024, 4)},
            )
        # A node that owns no shard takes the fleet's time model.
        assert ClusterSlice(SHARDS, {}, timed=True).timed

    @pytest.mark.parametrize("algorithm", ["tbf-time", "time-limited-bf"])
    def test_timed_slice_answers_query_at(self, algorithm):
        def fleet():
            return create_detector(DetectorSpec(
                algorithm,
                WindowSpec("sliding", 1024),
                target_fp=1e-3,
                duration=8.0,
                resolution=4,
                shards=2,
            ))

        reference = fleet()
        source = fleet()
        piece = ClusterSlice(2, dict(enumerate(source.shards)))
        assert piece.timed
        for detector in (reference, piece):
            for t, identifier in enumerate(range(100, 140)):
                detector.observe(identifier, t * 0.05)
        for identifier in range(90, 150):
            assert piece.query_at(identifier, 3.0) == reference.query_at(
                identifier, 3.0
            )
        assert piece.query_at(120, 3.0) is True
        with pytest.raises(ConfigurationError, match="query_at"):
            piece.query(120)

    def test_misrouted_identifier_refused(self):
        assignment = HashRing(["node-0", "node-1"]).assign(SHARDS)
        slices = split_sharded(_reference(), assignment, 2)
        # Find an identifier owned by node 1 and feed it to node 0.
        node_of = assignment[route_batch(np.arange(64, dtype=np.uint64), SHARDS)]
        stray = int(np.flatnonzero(node_of == 1)[0])
        with pytest.raises(ConfigurationError, match="owning only"):
            slices[0].observe_batch(np.array([stray], dtype=np.uint64))

    def test_checkpoint_roundtrip_preserves_shard_bytes(self):
        assignment = HashRing(["node-0", "node-1"]).assign(SHARDS)
        slices = split_sharded(_reference(), assignment, 2)
        slices[0].observe_batch(
            np.array(
                [s for s in range(200) if assignment[
                    route_batch(np.array([s], dtype=np.uint64), SHARDS)[0]
                ] == 0],
                dtype=np.uint64,
            )
        )
        blob = slices[0].checkpoint_state()
        total, timed, shard_blobs = slice_shard_blobs(blob)
        assert total == SHARDS
        assert unpack_frame(blob)[0]["kind"] == "cluster-slice"
        assert timed is False
        assert set(shard_blobs) == set(slices[0].owned)
        for shard, raw in shard_blobs.items():
            assert raw == slices[0].checkpoint_shard(shard)


# ----------------------------------------------------------------------
# Scatter/gather, property-tested
# ----------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(
    ids=st.lists(st.integers(0, 2**64 - 1), min_size=0, max_size=200),
    nodes=st.integers(1, 8),
    shards=st.integers(1, 16),
)
def test_scatter_gather_roundtrip(ids, nodes, shards):
    """Splitting a BATCH payload into per-node sub-frames and gathering
    the responses reproduces the verdict bytes of an unsplit pass, for
    arbitrary partition counts."""
    records = np.zeros(len(ids), dtype=RECORD_DTYPE)
    records["identifier"] = np.array(ids, dtype=np.uint64)
    payload = records.tobytes()
    assignment = HashRing([f"node-{i}" for i in range(nodes)]).assign(shards)

    parts = split_batch_records(payload, shards, assignment)
    # The positions partition the batch exactly.
    positions = (
        np.concatenate([p for _node, p, _sub in parts])
        if parts else np.empty(0, dtype=np.int64)
    )
    assert np.array_equal(np.sort(positions), np.arange(len(ids)))
    # Every sub-frame's records actually route to its node.
    for node, _pos, sub in parts:
        sub_ids = np.frombuffer(sub, dtype=RECORD_DTYPE)["identifier"]
        assert np.all(assignment[route_batch(sub_ids, shards)] == node)

    def verdicts_for(raw: bytes) -> bytes:
        arr = np.frombuffer(raw, dtype=RECORD_DTYPE)["identifier"]
        return (arr & np.uint64(0xFF)).astype(np.uint8).tobytes()

    merged = merge_verdict_payloads(
        len(ids), [(pos, verdicts_for(sub)) for _node, pos, sub in parts]
    )
    assert merged == verdicts_for(payload)


def test_merge_rejects_miscounted_parts():
    records = np.zeros(4, dtype=RECORD_DTYPE).tobytes()
    parts = split_batch_records(records, 4, np.zeros(4, dtype=np.int64))
    (_node, positions, _sub), = parts
    with pytest.raises(ProtocolError, match="verdicts"):
        merge_verdict_payloads(4, [(positions, b"\x00" * 3)])
    with pytest.raises(ProtocolError, match="gathered"):
        merge_verdict_payloads(5, [(positions, b"\x00" * 4)])


# ----------------------------------------------------------------------
# Live router: protocol surface
# ----------------------------------------------------------------------

class TestRouterProtocol:
    def _cluster(self, state, nodes=2, config=None):
        return LocalCluster(_reference, nodes, state, config=config)

    def test_flag_combinations_round_trip(self):
        """FLAG_TRACE x FLAG_CHECKSUM x HELLO through the router: every
        combination yields the same verdict bytes as the reference."""
        reference = _reference()
        with tempfile.TemporaryDirectory() as state:
            with self._cluster(state) as cluster:
                sock = socket.create_connection(
                    ("127.0.0.1", cluster.port), timeout=10
                )
                try:
                    sock.sendall(MAGIC)
                    sock.sendall(encode_hello(0, client_id=77))
                    frame_type, request_id, payload = _read_frame(sock)
                    assert frame_type == FRAME_HELLO_ACK
                    assert decode_hello_payload(payload) == 0  # fresh floor
                    for seq, (checksum, trace) in enumerate(
                        [(False, False), (True, False),
                         (False, True), (True, True)],
                        start=1,
                    ):
                        identifiers = _stream(500, seed=40 + seq)
                        expected = reference.observe_batch(identifiers)
                        records = np.zeros(500, dtype=RECORD_DTYPE)
                        records["identifier"] = identifiers
                        body = records.tobytes()
                        flags = 0
                        if trace:
                            body = TRACE_CONTEXT.pack(seq, seq + 1) + body
                            flags |= FLAG_TRACE
                        reserved = 0
                        if checksum:
                            flags |= FLAG_CHECKSUM
                            reserved = checksum16(body)
                        sock.sendall(
                            encode_frame(
                                FRAME_BATCH, seq, body,
                                flags=flags, reserved=reserved,
                            )
                        )
                        frame_type, request_id, payload = _read_frame(sock)
                        assert frame_type == FRAME_VERDICTS, (checksum, trace)
                        assert request_id == seq
                        assert np.array_equal(
                            np.frombuffer(payload, dtype=np.uint8).astype(bool),
                            expected,
                        ), (checksum, trace)
                finally:
                    sock.close()

    def test_ping_empty_batch_and_corrupt_checksum(self):
        with tempfile.TemporaryDirectory() as state:
            with self._cluster(state) as cluster:
                sock = socket.create_connection(
                    ("127.0.0.1", cluster.port), timeout=10
                )
                try:
                    sock.sendall(MAGIC)
                    sock.sendall(encode_frame(FRAME_PING, 5, b""))
                    frame_type, request_id, _payload = _read_frame(sock)
                    assert (frame_type, request_id) == (FRAME_PONG, 5)

                    sock.sendall(
                        encode_batch(6, np.empty(0, dtype=np.uint64))
                    )
                    frame_type, request_id, payload = _read_frame(sock)
                    assert (frame_type, request_id) == (FRAME_VERDICTS, 6)
                    assert payload == b""

                    # Valid records, deliberately wrong checksum: the
                    # router must refuse with RETRY before slicing.
                    records = np.zeros(4, dtype=RECORD_DTYPE).tobytes()
                    sock.sendall(
                        encode_frame(
                            FRAME_BATCH, 7, records,
                            flags=FLAG_CHECKSUM,
                            reserved=checksum16(records) ^ 0xFFFF,
                        )
                    )
                    frame_type, request_id, payload = _read_frame(sock)
                    assert (frame_type, request_id) == (FRAME_RETRY, 7)
                    assert b"damaged" in payload
                finally:
                    sock.close()

    def test_jsonl_connection_told_to_use_binary(self):
        with tempfile.TemporaryDirectory() as state:
            with self._cluster(state) as cluster:
                sock = socket.create_connection(
                    ("127.0.0.1", cluster.port), timeout=10
                )
                try:
                    handle = sock.makefile("rb")
                    sock.sendall(b'{"id": 1, "clicks": [1, 2]}\n')
                    response = json.loads(handle.readline())
                    assert "binary RPK1" in response["error"]
                finally:
                    sock.close()

    def test_router_admission_refuses_overload(self):
        config = ClusterConfig(total_shards=SHARDS, max_inflight_bytes=1)
        with tempfile.TemporaryDirectory() as state:
            with self._cluster(state, config=config) as cluster:
                sock = socket.create_connection(
                    ("127.0.0.1", cluster.port), timeout=10
                )
                try:
                    sock.sendall(MAGIC)
                    sock.sendall(encode_batch(9, _stream(16, seed=2)))
                    frame_type, request_id, payload = _read_frame(sock)
                    assert (frame_type, request_id) == (FRAME_OVERLOADED, 9)
                    assert b"inflight" in payload
                finally:
                    sock.close()


# ----------------------------------------------------------------------
# The tentpole property: failover + rebalance keep bit-identity
# ----------------------------------------------------------------------

@settings(max_examples=2, deadline=None)
@given(seed=st.integers(0, 1_000))
def test_cluster_failover_and_rebalance_bit_identical(seed):
    """Stream → checkpoint barrier → node SIGKILL + restore → more
    stream → live N=2 → N=3 rebalance → more stream → drain.

    Throughout, the collected verdicts must equal a single-process
    ``ShardedDetector``'s on the same stream, and after the drain every
    global shard's checkpoint bytes on whichever node owns it must
    equal ``reference.checkpoint_shard(shard)``.
    """
    identifiers = _stream(12_000, seed=seed)
    reference = _reference()
    batch = 1_000

    with tempfile.TemporaryDirectory() as state:
        cluster = LocalCluster(_reference, 2, state).start()
        try:
            with ServeClient(
                "127.0.0.1", cluster.port, client_id=101
            ) as client:
                def feed(start, stop):
                    for offset in range(start, stop, batch):
                        chunk = identifiers[offset : offset + batch]
                        client.submit(chunk)
                        got = client.collect()
                        expected = reference.observe_batch(chunk)
                        assert np.array_equal(got, expected), offset

                feed(0, 3_000)
                cluster.checkpoint()
                feed(3_000, 6_000)          # journaled past the barrier
                cluster.kill_node(1)        # SIGKILL-equivalent
                cluster.restore_node(1)     # journal replay rolls forward
                feed(6_000, 9_000)
                cluster.rebalance(3)        # live resize by byte surgery
                feed(9_000, 12_000)
            manifest = cluster.drain()
        finally:
            cluster.__exit__(None, None, None)

        assert manifest["totals"]["clicks"] == 12_000
        assert len(manifest["nodes"]) == 3
        shard_blobs = {}
        for record in manifest["nodes"]:
            shard_blobs.update(_newest_shard_blobs(record["checkpoint_dir"]))
        assert set(shard_blobs) == set(range(SHARDS))
        for shard in range(SHARDS):
            assert shard_blobs[shard] == reference.checkpoint_shard(shard), shard


def test_offline_rebalance_reshapes_a_drained_cluster():
    """Drain at N=2, ``rebalance_checkpoints`` to N=3 offline, boot the
    resized fleet on the same state dir — state and parity survive."""
    identifiers = _stream(6_000, seed=9)
    reference = _reference()

    with tempfile.TemporaryDirectory() as state:
        with LocalCluster(_reference, 2, state) as cluster:
            with ServeClient("127.0.0.1", cluster.port) as client:
                client.submit(identifiers[:3_000])
                assert np.array_equal(
                    client.collect(),
                    reference.observe_batch(identifiers[:3_000]),
                )

        manifest = rebalance_checkpoints(state, 3)
        assert len(manifest["nodes"]) == 3
        assert read_manifest(state)["rebalanced_from"] == 2

        with LocalCluster(_reference, 3, state) as cluster:
            with ServeClient("127.0.0.1", cluster.port) as client:
                client.submit(identifiers[3_000:])
                assert np.array_equal(
                    client.collect(),
                    reference.observe_batch(identifiers[3_000:]),
                )


def test_router_drain_right_after_client_close(caplog, monkeypatch):
    # The serve suite's drain race, through the router: one batch,
    # collect, close, drain at once, with the handler cancelled as it
    # enters wait_closed() (what drain() does to a handler already
    # closing its socket).
    original = asyncio.StreamWriter.wait_closed

    async def cancelled_while_closing(writer):
        asyncio.current_task().cancel()
        await original(writer)

    monkeypatch.setattr(asyncio.StreamWriter, "wait_closed", cancelled_while_closing)
    with tempfile.TemporaryDirectory(prefix="repro-cluster-") as state:
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            cluster = LocalCluster(_reference, 1, state).start()
            router = cluster.router.router
            try:
                with ServeClient("127.0.0.1", cluster.port) as client:
                    client.submit(_stream(4_096, seed=1))
                    client.collect()
                time.sleep(0.2)  # let the session reach its socket close
            finally:
                cluster.drain()
    assert not router.frontend.sessions
    assert "CancelledError" not in caplog.text

"""Consistent-hash scatter/gather router: RPK1 in front, N nodes behind.

The router is the cluster's only stateful-looking component that holds
no detector state at all.  It accepts ordinary RPK1 connections —
clients need no cluster awareness; ``ServeClient`` works unchanged —
and for every ``BATCH`` frame:

1. routes each record's identifier with the *same* partition function
   as :class:`~repro.detection.sharded.ShardedDetector`
   (``route_batch(identifiers, total_shards)``), then maps shards to
   nodes through the consistent-hash assignment;
2. slices the zero-copy record view into per-node sub-frames (one
   structured-array fancy-index + ``tobytes`` per node; when one node
   covers the whole batch the original payload bytes are forwarded
   untouched);
3. submits the sub-frames down pipelined per-node connections, under a
   per-node inflight-byte budget checked *atomically* across all target
   nodes — either every slice is admitted or the whole batch is refused
   ``OVERLOADED`` with nothing forwarded;
4. gathers the per-node verdict payloads and scatters them back into
   original record order, answering one ``VERDICTS`` frame whose bytes
   are identical to what a single-process sharded detector would have
   produced.

Responses stay in per-connection FIFO order (the same pre-enqueued
future discipline :class:`~repro.serve.server.ClickIngestServer` uses),
so pipelined clients observe single-server semantics.

Exactly-once across node failover
---------------------------------
A client's ``HELLO`` identity is forwarded on every node connection, so
``(client_id, batch_seq)`` stays the idempotency key end to end.  Two
mechanisms keep PR 6's delivery guarantee alive when a node dies
mid-stream:

* **Ack-gated journal replay.**  Each node channel keeps a bounded
  journal of the sub-frames the node answered since the last
  cluster-wide checkpoint barrier.  On reconnect the node's
  ``HELLO_ACK`` reports its applied floor; if that floor is *behind*
  what this channel has seen answered, the node lost state (it restored
  from an older checkpoint) and the channel replays exactly the
  journaled frames above the floor — the node's own dedup window makes
  replays of anything it *does* remember harmless.  A node that comes
  back at the tip replays nothing.
* **RETRY, never OVERLOADED, on partial scatter.**  If a node fails
  after sibling nodes already applied their slices, answering
  ``OVERLOADED`` would invite the client to resubmit under a *new*
  sequence number — double-applying the healthy slices.  ``RETRY``
  makes the client resend the *same* ``batch_seq``, which every node
  that already applied it answers from its dedup window.  Sessions
  without ``HELLO`` have no idempotency key, so a partial scatter
  failure is answered ``ERROR`` (dead-letter semantics) instead of
  pretending a safe retry exists.
"""

from __future__ import annotations

import asyncio
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..detection.sharded import route_batch, shard_groups
from ..errors import ConfigurationError, ProtocolError
from ..serve.protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    FLAG_CHECKSUM,
    FLAG_TRACE,
    FRAME_BATCH,
    FRAME_ERROR,
    FRAME_HELLO,
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
    _U64,
    checksum16,
    decode_batch_payload,
    decode_hello_payload,
    encode_frame,
    encode_hello,
    encode_jsonl_line,
    split_trace_payload,
)
from ..telemetry import TelemetrySession
from .hashring import HashRing

__all__ = [
    "NodeSpec",
    "ClusterConfig",
    "ClusterRouter",
    "RouterThread",
    "split_batch_records",
    "merge_verdict_payloads",
]


@dataclass(frozen=True)
class NodeSpec:
    """Address of one serve node behind the router."""

    host: str
    port: int
    name: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            object.__setattr__(self, "name", f"{self.host}:{self.port}")


@dataclass
class ClusterConfig:
    """Router knobs (see docs/serving.md §"Cluster topology")."""

    host: str = "127.0.0.1"
    port: int = 0
    #: Fixed global shard count — must equal the fleet's
    #: ``ShardedDetector.num_shards``; node counts may change, this may
    #: not (it is the unit of checkpointed state).
    total_shards: int = 8
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
    #: Router-wide admitted-but-unanswered payload bytes.
    max_inflight_bytes: int = 32 * 1024 * 1024
    #: Per (session x node) channel budget; refusing here keeps one slow
    #: node from absorbing the whole router budget.
    node_inflight_bytes: int = 4 * 1024 * 1024
    #: Reconnect schedule for a lost node connection: attempts x
    #: exponential backoff.  The product bounds how long a kill+restore
    #: may take before inflight batches fail over to client RETRY.
    node_connect_attempts: int = 60
    node_backoff: float = 0.05
    node_backoff_max: float = 0.5
    #: Per-channel journal of answered sub-frames kept for ack-gated
    #: replay; cleared at every cluster checkpoint barrier.  Overflow
    #: drops the oldest entry and is surfaced in telemetry — size it to
    #: cover the batches a client window can have between checkpoints.
    journal_entries: int = 4096

    def __post_init__(self) -> None:
        if self.total_shards < 1:
            raise ConfigurationError(
                f"total_shards must be >= 1, got {self.total_shards}"
            )
        if self.max_inflight_bytes <= 0 or self.node_inflight_bytes <= 0:
            raise ConfigurationError("inflight budgets must be positive")
        if self.node_connect_attempts < 1:
            raise ConfigurationError("node_connect_attempts must be >= 1")
        if self.journal_entries < 1:
            raise ConfigurationError("journal_entries must be >= 1")


# ----------------------------------------------------------------------
# Pure scatter/gather helpers (property-tested in tests/test_cluster.py)
# ----------------------------------------------------------------------

def split_batch_records(
    records: bytes, total_shards: int, assignment: "np.ndarray"
) -> List[Tuple[int, "np.ndarray", bytes]]:
    """Split BATCH record bytes into per-node groups.

    Returns ``[(node, positions, sub_record_bytes), ...]`` where
    ``positions`` are the records' original batch offsets in arrival
    order.  Routing is the global ``route_batch`` composed with the
    shard→node ``assignment`` — exactly what a single sharded detector
    followed by node grouping would do.
    """
    assignment = np.asarray(assignment, dtype=np.int64)
    array = np.frombuffer(records, dtype=RECORD_DTYPE)
    if array.shape[0] == 0:
        return []
    node_of = assignment[route_batch(array["identifier"], total_shards)]
    return [
        (int(node), positions, array[positions].tobytes())
        for node, positions in shard_groups(node_of)
    ]


def merge_verdict_payloads(
    count: int, parts: Sequence[Tuple["np.ndarray", bytes]]
) -> bytes:
    """Scatter per-node verdict payloads back into batch order.

    Inverse of :func:`split_batch_records` on the response path: each
    part is ``(positions, verdict_bytes)`` and the result is the
    ``count``-byte payload a single server would have produced.
    """
    out = np.zeros(count, dtype=np.uint8)
    filled = 0
    for positions, payload in parts:
        part = np.frombuffer(payload, dtype=np.uint8)
        if part.shape[0] != positions.shape[0]:
            raise ProtocolError(
                f"node answered {part.shape[0]} verdicts for "
                f"{positions.shape[0]} records"
            )
        out[positions] = part
        filled += int(part.shape[0])
    if filled != count:
        raise ProtocolError(
            f"gathered {filled} verdicts for a {count}-record batch"
        )
    return out.tobytes()


# ----------------------------------------------------------------------
# Per-(session x node) upstream channel
# ----------------------------------------------------------------------

#: Placeholder in the response-order queue for journal-replay frames
#: whose responses must be consumed and dropped, not matched.
_DISCARD = object()


class _ChannelEntry:
    __slots__ = ("seq", "frame", "nbytes", "future", "sent_epoch", "resolved")

    def __init__(self, seq: int, frame: bytes, nbytes: int, future) -> None:
        self.seq = seq
        self.frame = frame
        self.nbytes = nbytes
        self.future = future
        self.sent_epoch = -1
        self.resolved = False


class _NodeChannel:
    """One pipelined upstream connection from a session to a node.

    Results resolve to ``(kind, payload)`` tuples with kind one of
    ``"verdicts"``, ``"overloaded"``, ``"retry"``, ``"error"``,
    ``"down"``.
    """

    def __init__(self, router: "ClusterRouter", session: "_Session", node_index: int) -> None:
        self.router = router
        self.session = session
        self.node_index = node_index
        self.node = router.nodes[node_index]
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None
        self.hello_ack = 0
        self.inflight_bytes = 0
        self.highest_answered = 0
        #: Answered (seq, frame) pairs since the last checkpoint barrier.
        self.journal: "deque" = deque()
        #: Entries awaiting a response, in submission (seq) order.
        self._pending: List[_ChannelEntry] = []
        #: Expected-response order on the current connection.
        self._send_order: "deque" = deque()
        self._epoch = 0
        self._lock = asyncio.Lock()
        self._closed = False
        self._reader_task: Optional[asyncio.Task] = None
        self._tasks: Set[asyncio.Task] = set()

    # -- public surface -------------------------------------------------

    def submit(self, seq: int, frame: bytes, nbytes: int) -> "asyncio.Future":
        future = asyncio.get_running_loop().create_future()
        entry = _ChannelEntry(seq, frame, nbytes, future)
        self._pending.append(entry)
        self.inflight_bytes += nbytes
        self._spawn(self._send(entry))
        return future

    async def ensure_connected(self) -> bool:
        async with self._lock:
            if self._closed:
                return False
            if self.writer is not None:
                return True
            return await self._connect_locked()

    def close(self, reason: str = "channel closed") -> None:
        if self._closed:
            return
        self._closed = True
        for task in list(self._tasks):
            task.cancel()
        self._disconnect()
        self._fail_pending(reason)

    # -- internals ------------------------------------------------------

    def _spawn(self, coro) -> None:
        task = asyncio.create_task(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _send(self, entry: _ChannelEntry) -> None:
        async with self._lock:
            if entry.resolved or self._closed:
                return
            if self.writer is None:
                # A successful connect resends every pending entry,
                # including this one, in submission order.
                await self._connect_locked()
                return
            if entry.sent_epoch == self._epoch:
                return  # already on the wire for this connection
            try:
                self.writer.write(entry.frame)
                entry.sent_epoch = self._epoch
                self._send_order.append(entry)
                await self.writer.drain()
            except (ConnectionResetError, BrokenPipeError, OSError):
                self._disconnect()
                await self._connect_locked()

    async def _reconnect(self) -> None:
        async with self._lock:
            if self._closed or self.writer is not None:
                return
            await self._connect_locked()

    async def _connect_locked(self) -> bool:
        config = self.router.config
        delay = config.node_backoff
        for _attempt in range(config.node_connect_attempts):
            if self._closed:
                return False
            try:
                reader, writer = await asyncio.open_connection(
                    self.node.host, self.node.port, limit=config.max_frame_bytes
                )
            except OSError:
                await asyncio.sleep(delay)
                delay = min(delay * 1.5, config.node_backoff_max)
                continue
            try:
                writer.write(MAGIC)
                ack = 0
                if self.session.client_id is not None:
                    writer.write(encode_hello(0, self.session.client_id))
                    await writer.drain()
                    header = await reader.readexactly(HEADER.size)
                    frame_type, _f, _r, _rid, payload_len = HEADER.unpack(header)
                    payload = await reader.readexactly(payload_len)
                    if frame_type != FRAME_HELLO_ACK:
                        raise ProtocolError(
                            f"expected HELLO_ACK, got 0x{frame_type:02X}"
                        )
                    ack = decode_hello_payload(payload)
                else:
                    await writer.drain()
            except (
                ProtocolError,
                ConnectionResetError,
                BrokenPipeError,
                OSError,
                asyncio.IncompleteReadError,
            ):
                try:
                    writer.close()
                except Exception:
                    pass
                await asyncio.sleep(delay)
                delay = min(delay * 1.5, config.node_backoff_max)
                continue
            self.reader, self.writer = reader, writer
            self.hello_ack = ack
            self._epoch += 1
            self._send_order = deque()
            replayed = 0
            if self.session.client_id is not None and ack < self.highest_answered:
                # The node's applied floor is behind what this channel
                # has seen answered: it restored from an older
                # checkpoint.  Roll it forward by replaying exactly the
                # journaled sub-frames above its floor; its dedup window
                # absorbs anything it does remember.
                for seq, frame in self.journal:
                    if seq > ack:
                        writer.write(frame)
                        self._send_order.append(_DISCARD)
                        replayed += 1
            for entry in self._pending:
                writer.write(entry.frame)
                entry.sent_epoch = self._epoch
                self._send_order.append(entry)
            try:
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError, OSError):
                self._disconnect()
                await asyncio.sleep(delay)
                delay = min(delay * 1.5, config.node_backoff_max)
                continue
            if replayed:
                self.router._replays_total.inc(replayed)
            self.router._connects_total.labels(node=self.node.name).inc()
            self._reader_task = asyncio.create_task(self._reader_loop(reader))
            self._tasks.add(self._reader_task)
            self._reader_task.add_done_callback(self._tasks.discard)
            return True
        self._fail_pending(f"node {self.node.name} unreachable")
        return False

    async def _reader_loop(self, reader: asyncio.StreamReader) -> None:
        try:
            while True:
                header = await reader.readexactly(HEADER.size)
                frame_type, _flags, _reserved, _rid, payload_len = HEADER.unpack(
                    header
                )
                payload = await reader.readexactly(payload_len)
                if not self._send_order:
                    continue  # unsolicited; nothing to match
                slot = self._send_order.popleft()
                if slot is _DISCARD:
                    continue  # journal replay: node caught up
                if frame_type == FRAME_VERDICTS:
                    self._resolve(slot, ("verdicts", payload))
                elif frame_type == FRAME_OVERLOADED:
                    self._resolve(slot, ("overloaded", payload))
                elif frame_type == FRAME_RETRY:
                    self._resolve(slot, ("retry", payload))
                elif frame_type == FRAME_ERROR:
                    self._resolve(slot, ("error", payload))
                else:
                    # Out-of-band frame (PONG/HELLO_ACK): not a match.
                    self._send_order.appendleft(slot)
        except asyncio.CancelledError:
            return
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
            OSError,
        ):
            pass
        if self._closed:
            return
        self._disconnect()
        if self._pending:
            # In-flight work: chase the node immediately (it may be
            # restarting).  Idle channels reconnect lazily on next use.
            self._spawn(self._reconnect())

    def _disconnect(self) -> None:
        task = self._reader_task
        self._reader_task = None
        if task is not None and task is not asyncio.current_task():
            task.cancel()
        writer = self.writer
        self.reader = None
        self.writer = None
        self._send_order = deque()
        if writer is not None:
            try:
                writer.close()
            except Exception:
                pass

    def _resolve(self, entry: _ChannelEntry, result: Tuple[str, bytes]) -> None:
        if entry.resolved:
            return
        entry.resolved = True
        try:
            self._pending.remove(entry)
        except ValueError:
            pass
        self.inflight_bytes -= entry.nbytes
        if result[0] == "verdicts":
            if entry.seq > self.highest_answered:
                self.highest_answered = entry.seq
            if self.session.client_id is not None:
                self.journal.append((entry.seq, entry.frame))
                while len(self.journal) > self.router.config.journal_entries:
                    self.journal.popleft()
                    self.router._journal_overflow_total.inc()
        if not entry.future.done():
            entry.future.set_result(result)

    def _fail_pending(self, reason: str) -> None:
        message = reason.encode()
        for entry in list(self._pending):
            self._resolve(entry, ("down", message))


# ----------------------------------------------------------------------
# Client session
# ----------------------------------------------------------------------

class _Session:
    """One client connection: reader, FIFO sender, per-node channels."""

    def __init__(
        self,
        router: "ClusterRouter",
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self.router = router
        self._reader = reader
        self._writer = writer
        self.client_id: Optional[int] = None
        self.generation = router._generation
        self.channels: Dict[int, _NodeChannel] = {}
        self.responses: "asyncio.Queue" = asyncio.Queue()

    async def run(self) -> None:
        sender = asyncio.create_task(self._sender_loop())
        try:
            await self._reader_loop()
        except asyncio.CancelledError:
            pass  # drain: stop reading; pending responses still flush
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
            OSError,
        ):
            pass
        finally:
            self._close_channels("client connection closed")
            self.responses.put_nowait(None)
            try:
                await asyncio.shield(sender)
            except asyncio.CancelledError:
                await sender
            try:
                self._writer.close()
                await self._writer.wait_closed()
            except (asyncio.CancelledError, ConnectionResetError,
                    BrokenPipeError, OSError):
                # drain() cancels every session to stop its reader, then
                # waits for it.  One already here, waiting for its socket
                # to close, has nothing left to stop; ending it cancelled
                # would only make asyncio log the cancellation as an error.
                pass

    def _close_channels(self, reason: str) -> None:
        for channel in self.channels.values():
            channel.close(reason)
        self.channels = {}

    def _channel(self, node_index: int) -> _NodeChannel:
        channel = self.channels.get(node_index)
        if channel is None:
            channel = _NodeChannel(self.router, self, node_index)
            self.channels[node_index] = channel
        return channel

    def _respond_now(self, data: bytes) -> None:
        future = asyncio.get_running_loop().create_future()
        future.set_result(data)
        self.responses.put_nowait((future, 0))

    # -- frames ---------------------------------------------------------

    async def _reader_loop(self) -> None:
        reader = self._reader
        try:
            sniff = await reader.readexactly(len(MAGIC))
        except asyncio.IncompleteReadError:
            return
        if sniff != MAGIC:
            # The router speaks only the binary protocol: JSONL requires
            # running the identifier scheme, which belongs on a node.
            self._respond_now(
                encode_jsonl_line(
                    {
                        "id": 0,
                        "error": "cluster router speaks binary RPK1 only; "
                        "connect to a serve node for JSONL debugging",
                    }
                )
            )
            return
        while True:
            try:
                header = await reader.readexactly(HEADER.size)
            except asyncio.IncompleteReadError:
                return
            frame_type, flags, reserved, request_id, payload_len = HEADER.unpack(
                header
            )
            if payload_len > self.router.config.max_frame_bytes:
                self._respond_now(
                    encode_frame(FRAME_ERROR, request_id, b"payload too large")
                )
                return  # stream sync is not worth recovering
            payload = await reader.readexactly(payload_len)
            if frame_type == FRAME_PING:
                self._respond_now(encode_frame(FRAME_PONG, request_id))
                continue
            if frame_type == FRAME_HELLO:
                await self._handle_hello(request_id, payload)
                continue
            if frame_type != FRAME_BATCH:
                reason = f"unknown frame type 0x{frame_type:02X}"
                self._respond_now(
                    encode_frame(FRAME_ERROR, request_id, reason.encode())
                )
                continue
            await self._handle_batch(request_id, flags, reserved, payload)

    async def _handle_hello(self, request_id: int, payload: bytes) -> None:
        try:
            client_id = decode_hello_payload(payload)
        except ProtocolError as error:
            self._respond_now(
                encode_frame(FRAME_ERROR, request_id, str(error).encode())
            )
            return
        if self.client_id != client_id:
            self._close_channels("client identity changed")
        self.client_id = client_id
        self.generation = self.router._generation
        # Eagerly open every node channel so each node learns the
        # identity up front; the ack is the *minimum* applied floor
        # across nodes — the client may safely resend anything above it
        # (nodes that already applied a sequence replay it from dedup).
        acks = []
        for node_index in range(len(self.router.nodes)):
            channel = self._channel(node_index)
            if await channel.ensure_connected():
                acks.append(channel.hello_ack)
            else:
                acks.append(0)
        applied = min(acks) if acks else 0
        self._respond_now(
            encode_frame(FRAME_HELLO_ACK, request_id, _U64.pack(applied))
        )

    async def _handle_batch(
        self, request_id: int, flags: int, reserved: int, payload: bytes
    ) -> None:
        router = self.router
        config = router.config
        if flags & FLAG_CHECKSUM and checksum16(payload) != reserved:
            router._corrupt_total.inc()
            self._respond_now(
                encode_frame(
                    FRAME_RETRY, request_id, b"payload damaged in transit"
                )
            )
            return
        if router._paused:
            router._refused_total.inc()
            self._respond_now(
                encode_frame(FRAME_OVERLOADED, request_id, b"router draining")
            )
            return
        try:
            trace, records = split_trace_payload(flags, payload)
            identifiers, _timestamps = decode_batch_payload(records)
        except ProtocolError as error:
            self._respond_now(
                encode_frame(FRAME_ERROR, request_id, str(error).encode())
            )
            return
        count = int(identifiers.shape[0])
        if count == 0:
            self._respond_now(encode_frame(FRAME_VERDICTS, request_id, b""))
            return
        if self.generation != router._generation:
            self._close_channels("cluster reconfigured")
            self.generation = router._generation
        wire = len(payload)
        if router._inflight_bytes + wire > config.max_inflight_bytes:
            router._refused_total.inc()
            self._respond_now(
                encode_frame(
                    FRAME_OVERLOADED, request_id, b"router inflight budget full"
                )
            )
            return
        record_array = np.frombuffer(records, dtype=RECORD_DTYPE)
        node_of = router.assignment[route_batch(identifiers, config.total_shards)]
        parts: List[Tuple[int, Optional["np.ndarray"], bytes, int]] = []
        for node_index, positions in shard_groups(node_of):
            if positions.shape[0] == count:
                # Whole batch lands on one node: forward the original
                # frame bytes untouched (flags, checksum, trace prefix).
                frame = (
                    HEADER.pack(
                        FRAME_BATCH, flags, reserved, request_id, len(payload)
                    )
                    + payload
                )
                parts.append((int(node_index), None, frame, len(payload)))
                continue
            sub = record_array[positions].tobytes()
            if trace is not None:
                sub = TRACE_CONTEXT.pack(trace[0], trace[1]) + sub
            sub_reserved = checksum16(sub) if flags & FLAG_CHECKSUM else 0
            frame = (
                HEADER.pack(FRAME_BATCH, flags, sub_reserved, request_id, len(sub))
                + sub
            )
            parts.append((int(node_index), positions, frame, len(sub)))
        # Atomic per-node admission: every target channel must have
        # budget before anything is forwarded, so a refusal really means
        # "not processed anywhere".
        channels: Dict[int, _NodeChannel] = {}
        for node_index, _positions, _frame, nbytes in parts:
            channel = self._channel(node_index)
            if channel.inflight_bytes + nbytes > config.node_inflight_bytes:
                router._refused_total.inc()
                self._respond_now(
                    encode_frame(
                        FRAME_OVERLOADED,
                        request_id,
                        f"node {router.nodes[node_index].name} inflight "
                        "budget full".encode(),
                    )
                )
                return
            channels[node_index] = channel
        router._charge(wire)
        scatter = []
        for node_index, positions, frame, nbytes in parts:
            future = channels[node_index].submit(request_id, frame, nbytes)
            scatter.append((node_index, positions, future))
            router._subframes_total.labels(node=router.nodes[node_index].name).inc()
        router._batches_total.inc()
        router._clicks_total.inc(count)
        router.total_batches += 1
        router.total_clicks += count
        task = asyncio.create_task(self._gather(request_id, count, scatter))
        router._begin_batch()
        task.add_done_callback(lambda _t: router._end_batch())
        self.responses.put_nowait((task, wire))

    async def _gather(
        self,
        request_id: int,
        count: int,
        scatter: List[Tuple[int, Optional["np.ndarray"], "asyncio.Future"]],
    ) -> bytes:
        try:
            results = []
            for node_index, positions, future in scatter:
                results.append((node_index, positions, await future))
            failures = [
                (node_index, result)
                for node_index, _positions, result in results
                if result[0] != "verdicts"
            ]
            if failures:
                hard = [entry for entry in failures if entry[1][0] == "error"]
                node_index, (kind, reason) = (hard or failures)[0]
                name = self.router.nodes[node_index].name.encode()
                if hard:
                    return encode_frame(
                        FRAME_ERROR,
                        request_id,
                        b"node " + name + b": " + bytes(reason),
                    )
                if self.client_id is not None:
                    # Exactly-once session: the same batch_seq resent is
                    # replayed from dedup by any node that applied its
                    # slice, so RETRY is the safe refusal.
                    return encode_frame(
                        FRAME_RETRY,
                        request_id,
                        b"node "
                        + name
                        + b" unavailable mid-scatter; resend this sequence",
                    )
                if kind == "overloaded":
                    return encode_frame(
                        FRAME_OVERLOADED, request_id, bytes(reason)
                    )
                return encode_frame(
                    FRAME_ERROR,
                    request_id,
                    b"node "
                    + name
                    + b" failed mid-scatter; batch dead-lettered (no HELLO "
                    b"identity to retry safely)",
                )
            if len(results) == 1 and results[0][1] is None:
                return encode_frame(
                    FRAME_VERDICTS, request_id, bytes(results[0][2][1])
                )
            merged = merge_verdict_payloads(
                count,
                [
                    (positions, result[1])
                    for _node_index, positions, result in results
                ],
            )
            return encode_frame(FRAME_VERDICTS, request_id, merged)
        except Exception as error:
            return encode_frame(
                FRAME_ERROR,
                request_id,
                f"router gather failed: {error}".encode(),
            )

    async def _sender_loop(self) -> None:
        while True:
            item = await self.responses.get()
            if item is None:
                return
            pending, release = item
            try:
                data = await pending
            except asyncio.CancelledError:
                raise
            except Exception:
                data = None
            if release:
                self.router._release(release)
            if data is None:
                continue
            try:
                self._writer.write(data)
                await self._writer.drain()
            except (ConnectionResetError, BrokenPipeError, OSError):
                continue  # client gone; keep draining to release budget


# ----------------------------------------------------------------------
# The router itself
# ----------------------------------------------------------------------

class ClusterRouter:
    """Stateless scatter/gather front for N serve nodes.

    Construct on the event loop that will run it (it binds asyncio
    primitives), or use :class:`RouterThread` for the sync harness.
    """

    def __init__(
        self,
        nodes: Sequence[NodeSpec],
        config: Optional[ClusterConfig] = None,
        assignment: Optional["np.ndarray"] = None,
        telemetry: Optional[TelemetrySession] = None,
    ) -> None:
        self.config = config if config is not None else ClusterConfig()
        self.nodes = self._validated_nodes(nodes)
        if assignment is None:
            assignment = HashRing([node.name for node in self.nodes]).assign(
                self.config.total_shards
            )
        self.assignment = self._validated_assignment(assignment, len(self.nodes))
        self.telemetry = (
            telemetry if telemetry is not None else TelemetrySession.disabled()
        )
        registry = self.telemetry.registry
        self._batches_total = registry.counter(
            "repro_cluster_batches_total", "Batches routed"
        )
        self._clicks_total = registry.counter(
            "repro_cluster_clicks_total", "Clicks routed"
        )
        self._subframes_total = registry.counter(
            "repro_cluster_subframes_total",
            "Per-node sub-frames forwarded",
            labels=("node",),
        )
        self._refused_total = registry.counter(
            "repro_cluster_refused_total",
            "Batches refused OVERLOADED (router or node budget, or paused)",
        )
        self._corrupt_total = registry.counter(
            "repro_cluster_corrupt_frames_total",
            "Batches refused RETRY on a payload checksum mismatch",
        )
        self._connects_total = registry.counter(
            "repro_cluster_node_connects_total",
            "Upstream node connections established",
            labels=("node",),
        )
        self._replays_total = registry.counter(
            "repro_cluster_journal_replays_total",
            "Journaled sub-frames replayed to a node restored behind its ack",
        )
        self._journal_overflow_total = registry.counter(
            "repro_cluster_journal_overflow_total",
            "Journal entries dropped on overflow (replay may be incomplete)",
        )
        self._inflight_gauge = registry.gauge(
            "repro_cluster_inflight_bytes",
            "Admitted-but-unanswered payload bytes at the router",
        )
        self._nodes_gauge = registry.gauge(
            "repro_cluster_nodes", "Serve nodes behind the router"
        )
        self._nodes_gauge.set(len(self.nodes))
        self.total_batches = 0
        self.total_clicks = 0
        self._generation = 0
        self._paused = False
        self._inflight_bytes = 0
        self._outstanding = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self._server: Optional[asyncio.base_events.Server] = None
        self._handlers: Set[asyncio.Task] = set()
        self._sessions: Set[_Session] = set()
        self._drained = asyncio.Event()
        self._draining = False

    @staticmethod
    def _validated_nodes(nodes: Sequence[NodeSpec]) -> Tuple[NodeSpec, ...]:
        nodes = tuple(nodes)
        if not nodes:
            raise ConfigurationError("need at least one node")
        names = [node.name for node in nodes]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate node names: {names}")
        return nodes

    def _validated_assignment(
        self, assignment: "np.ndarray", num_nodes: int
    ) -> "np.ndarray":
        assignment = np.asarray(assignment, dtype=np.int64)
        if assignment.shape != (self.config.total_shards,):
            raise ConfigurationError(
                f"assignment length {assignment.shape} does not match "
                f"total_shards {self.config.total_shards}"
            )
        if not (0 <= int(assignment.min()) and int(assignment.max()) < num_nodes):
            raise ConfigurationError(
                f"assignment references nodes outside [0, {num_nodes})"
            )
        return assignment

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        if self._server is not None:
            raise ConfigurationError("router already started")
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.config.host,
            port=self.config.port,
            limit=self.config.max_frame_bytes,
        )

    @property
    def port(self) -> int:
        if self._server is None:
            raise ConfigurationError("router not started")
        return self._server.sockets[0].getsockname()[1]

    async def wait_drained(self) -> None:
        await self._drained.wait()

    async def drain(self) -> None:
        """Quiesce admission, flush in-flight batches, close sessions."""
        if self._draining:
            await self._drained.wait()
            return
        self._draining = True
        self._paused = True
        await self._idle.wait()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in list(self._handlers):
            task.cancel()
        if self._handlers:
            await asyncio.gather(*list(self._handlers), return_exceptions=True)
        self._drained.set()

    async def quiesce(self) -> None:
        """Pause admission and wait until no batch is in flight.

        New batches are refused ``OVERLOADED`` until :meth:`resume`;
        existing connections stay open.  The cluster checkpoint barrier
        and rebalance both run inside this window.
        """
        self._paused = True
        await self._idle.wait()

    async def resume(self) -> None:
        self._paused = False

    async def reconfigure(
        self,
        nodes: Sequence[NodeSpec],
        assignment: Optional["np.ndarray"] = None,
    ) -> None:
        """Swap the node set/assignment (router must be quiesced).

        Client connections survive; their node channels are torn down
        and rebuilt lazily against the new fleet.
        """
        if not self._paused:
            raise ConfigurationError("reconfigure requires a quiesced router")
        await self._idle.wait()
        nodes = self._validated_nodes(nodes)
        if assignment is None:
            assignment = HashRing([node.name for node in nodes]).assign(
                self.config.total_shards
            )
        self.assignment = self._validated_assignment(assignment, len(nodes))
        self.nodes = nodes
        self._generation += 1
        self._nodes_gauge.set(len(nodes))
        for session in list(self._sessions):
            session._close_channels("cluster reconfigured")

    async def clear_journals(self) -> None:
        """Drop replay journals (call only at a checkpoint barrier:
        every node has durably applied everything the journals cover)."""
        for session in list(self._sessions):
            for channel in session.channels.values():
                channel.journal.clear()

    # -- bookkeeping ----------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        session = _Session(self, reader, writer)
        task = asyncio.current_task()
        self._handlers.add(task)
        self._sessions.add(session)
        try:
            await session.run()
        finally:
            self._sessions.discard(session)
            self._handlers.discard(task)

    def _charge(self, nbytes: int) -> None:
        self._inflight_bytes += nbytes
        self._inflight_gauge.set(self._inflight_bytes)

    def _release(self, nbytes: int) -> None:
        self._inflight_bytes -= nbytes
        self._inflight_gauge.set(self._inflight_bytes)

    def _begin_batch(self) -> None:
        self._outstanding += 1
        self._idle.clear()

    def _end_batch(self) -> None:
        self._outstanding -= 1
        if self._outstanding == 0:
            self._idle.set()


class RouterThread:
    """Run a :class:`ClusterRouter` on a background event loop.

    The sync harness mirror of :class:`~repro.serve.server.ServerThread`:
    cluster orchestration (quiesce/resume/reconfigure/drain) is exposed
    as thread-safe blocking calls.
    """

    def __init__(
        self,
        nodes: Sequence[NodeSpec],
        config: Optional[ClusterConfig] = None,
        assignment: Optional["np.ndarray"] = None,
        telemetry: Optional[TelemetrySession] = None,
    ) -> None:
        self._nodes = nodes
        self._config = config
        self._assignment = assignment
        self._telemetry = telemetry
        self.router: Optional[ClusterRouter] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self.port: Optional[int] = None

    def start(self, timeout: float = 10.0) -> "RouterThread":
        self._thread = threading.Thread(
            target=self._run, name="repro-cluster-router", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout):
            raise ConfigurationError("router thread failed to start in time")
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        try:
            self.router = ClusterRouter(
                self._nodes,
                config=self._config,
                assignment=self._assignment,
                telemetry=self._telemetry,
            )
            await self.router.start()
            self.port = self.router.port
            self._loop = asyncio.get_running_loop()
        except BaseException as error:  # surface to start()
            self._startup_error = error
            self._started.set()
            return
        self._started.set()
        await self.router.wait_drained()

    def _call(self, coro, timeout: float = 30.0):
        if self._loop is None:
            raise ConfigurationError("router thread not running")
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result(timeout)

    def quiesce(self, timeout: float = 30.0) -> None:
        self._call(self.router.quiesce(), timeout)

    def resume(self) -> None:
        self._call(self.router.resume())

    def reconfigure(
        self,
        nodes: Sequence[NodeSpec],
        assignment: Optional["np.ndarray"] = None,
    ) -> None:
        self._call(self.router.reconfigure(nodes, assignment))

    def clear_journals(self) -> None:
        self._call(self.router.clear_journals())

    def stop(self, timeout: float = 30.0) -> None:
        """Drain gracefully and join the loop thread."""
        if self._loop is None or self.router is None:
            return
        future = asyncio.run_coroutine_threadsafe(self.router.drain(), self._loop)
        future.result(timeout)
        if self._thread is not None:
            self._thread.join(timeout)
        self._loop = None

    def __enter__(self) -> "RouterThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

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

The client side — accept, sniff, ``PING``/``HELLO``, checksum ``RETRY``,
decode ``ERROR``, the router-wide inflight budget, and per-connection
FIFO responses — is the RPK1 front-end
:class:`~repro.serve.server.ClickIngestServer` uses too
(:mod:`repro.serve.frontend`); the router is its scatter/gather
backend, so pipelined clients observe single-server semantics.

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
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..detection.sharded import route_batch, shard_groups
from ..errors import ConfigurationError, ProtocolError
from ..serve.background import LoopThread
from ..serve.frontend import Backend, BatchFrame, Frontend, Session
from ..serve.protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    FLAG_CHECKSUM,
    FRAME_BATCH,
    FRAME_ERROR,
    FRAME_HELLO_ACK,
    FRAME_OVERLOADED,
    FRAME_RETRY,
    FRAME_VERDICTS,
    HEADER,
    MAGIC,
    RECORD_DTYPE,
    TRACE_CONTEXT,
    checksum16,
    decode_hello_payload,
    encode_frame,
    encode_hello,
    encode_jsonl_line,
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

#: Node response frame type -> the result kind a channel resolves to.
_RESULT_KINDS = {
    FRAME_VERDICTS: "verdicts",
    FRAME_OVERLOADED: "overloaded",
    FRAME_RETRY: "retry",
    FRAME_ERROR: "error",
}


async def _read_frame(reader: asyncio.StreamReader) -> Tuple[int, bytes]:
    """One node response: ``(frame_type, payload)``."""
    frame_type, _flags, _reserved, _rid, payload_len = HEADER.unpack(
        await reader.readexactly(HEADER.size)
    )
    return frame_type, await reader.readexactly(payload_len)


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
            except OSError:
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
            if await self._open():
                return True
            await asyncio.sleep(delay)
            delay = min(delay * 1.5, config.node_backoff_max)
        self._fail_pending(f"node {self.node.name} unreachable")
        return False

    async def _open(self) -> bool:
        """One attempt: dial, re-announce HELLO, replay, resend pending."""
        try:
            reader, writer = await asyncio.open_connection(
                self.node.host,
                self.node.port,
                limit=self.router.config.max_frame_bytes,
            )
        except OSError:
            return False
        try:
            writer.write(MAGIC)
            ack = 0
            if self.session.client_id is not None:
                writer.write(encode_hello(0, self.session.client_id))
                await writer.drain()
                frame_type, payload = await _read_frame(reader)
                if frame_type != FRAME_HELLO_ACK:
                    raise ProtocolError(
                        f"expected HELLO_ACK, got 0x{frame_type:02X}"
                    )
                ack = decode_hello_payload(payload)
            else:
                await writer.drain()
        except (ProtocolError, OSError, asyncio.IncompleteReadError):
            writer.close()
            return False
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
        except OSError:
            self._disconnect()
            return False
        if replayed:
            self.router._replays_total.inc(replayed)
        self.router._connects_total.labels(node=self.node.name).inc()
        self._reader_task = asyncio.create_task(self._reader_loop(reader))
        self._tasks.add(self._reader_task)
        self._reader_task.add_done_callback(self._tasks.discard)
        return True

    async def _reader_loop(self, reader: asyncio.StreamReader) -> None:
        try:
            while True:
                frame_type, payload = await _read_frame(reader)
                if not self._send_order:
                    continue  # unsolicited; nothing to match
                slot = self._send_order.popleft()
                if slot is _DISCARD:
                    continue  # journal replay: node caught up
                kind = _RESULT_KINDS.get(frame_type)
                if kind is None:
                    # Out-of-band frame (PONG/HELLO_ACK): not a match.
                    self._send_order.appendleft(slot)
                else:
                    self._resolve(slot, (kind, payload))
        except asyncio.CancelledError:
            return
        except (asyncio.IncompleteReadError, OSError):
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

class _Session(Session):
    """A client connection plus its per-node upstream channels."""

    def __init__(
        self, router: "ClusterRouter", writer: asyncio.StreamWriter
    ) -> None:
        super().__init__(writer)
        self.router = router
        self.generation = router._generation
        self.channels: Dict[int, _NodeChannel] = {}

    def close(self) -> None:
        self.close_channels("client connection closed")

    def close_channels(self, reason: str) -> None:
        for channel in self.channels.values():
            channel.close(reason)
        self.channels = {}

    def channel(self, node_index: int) -> _NodeChannel:
        channel = self.channels.get(node_index)
        if channel is None:
            channel = _NodeChannel(self.router, self, node_index)
            self.channels[node_index] = channel
        return channel


# ----------------------------------------------------------------------
# The router itself
# ----------------------------------------------------------------------

class ClusterRouter(Backend):
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
        self._nodes_gauge = registry.gauge(
            "repro_cluster_nodes", "Serve nodes behind the router"
        )
        self._nodes_gauge.set(len(self.nodes))
        self.total_batches = 0
        self.total_clicks = 0
        self._generation = 0
        self._paused = False
        self._outstanding = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self._drained = asyncio.Event()
        self._draining = False
        # One budget: the router-wide cap doubles as the per-session one.
        self.frontend = Frontend(
            self, self.config, registry, "repro_cluster",
            session_inflight_bytes=self.config.max_inflight_bytes,
        )

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
        await self.frontend.start()

    @property
    def port(self) -> int:
        return self.frontend.port

    async def drain(self) -> None:
        """Quiesce admission, flush in-flight batches, close sessions."""
        if self._draining:
            await self._drained.wait()
            return
        self._draining = True
        self._paused = True
        await self._idle.wait()
        self.frontend.stop_reading()
        await self.frontend.wait_closed()
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
        for session in list(self.frontend.sessions.values()):
            session.close_channels("cluster reconfigured")

    async def clear_journals(self) -> None:
        """Drop replay journals (call only at a checkpoint barrier:
        every node has durably applied everything the journals cover)."""
        for session in list(self.frontend.sessions.values()):
            for channel in session.channels.values():
                channel.journal.clear()

    # -- the front-end's backend hooks ---------------------------------

    def open_session(self, writer: asyncio.StreamWriter) -> _Session:
        return _Session(self, writer)

    async def jsonl(
        self, session: Session, reader: asyncio.StreamReader, first: bytes
    ) -> None:
        # The router speaks only the binary protocol: JSONL requires
        # running the identifier scheme, which belongs on a node.
        session.respond(
            encode_jsonl_line(
                {
                    "id": 0,
                    "error": "cluster router speaks binary RPK1 only; "
                    "connect to a serve node for JSONL debugging",
                }
            )
        )

    async def hello(self, session: _Session, client_id: int) -> int:
        if session.client_id != client_id:
            session.close_channels("client identity changed")
        session.client_id = client_id
        session.generation = self._generation
        # Eagerly open every node channel so each node learns the
        # identity up front; the ack is the *minimum* applied floor
        # across nodes — the client may safely resend anything above it
        # (nodes that already applied a sequence replay it from dedup).
        acks = []
        for node_index in range(len(self.nodes)):
            channel = session.channel(node_index)
            connected = await channel.ensure_connected()
            acks.append(channel.hello_ack if connected else 0)
        return min(acks)

    def batch(self, session: _Session, frame: BatchFrame) -> None:
        request_id = frame.request_id
        if self._paused:
            self._refused_total.inc()
            session.respond(
                encode_frame(FRAME_OVERLOADED, request_id, b"router draining")
            )
            return
        count = int(frame.identifiers.shape[0])
        if count == 0:
            session.respond(encode_frame(FRAME_VERDICTS, request_id, b""))
            return
        if session.generation != self._generation:
            session.close_channels("cluster reconfigured")
            session.generation = self._generation
        wire = len(frame.payload)
        if not self.frontend.admit(session, wire):
            self._refused_total.inc()
            session.respond(
                encode_frame(
                    FRAME_OVERLOADED, request_id, b"router inflight budget full"
                )
            )
            return
        parts = self._split(frame, count)
        # Atomic per-node admission: every target channel must have
        # budget before anything is forwarded, so a refusal really means
        # "not processed anywhere".
        channels: Dict[int, _NodeChannel] = {}
        for node_index, _positions, _frame, nbytes in parts:
            channel = session.channel(node_index)
            if channel.inflight_bytes + nbytes > self.config.node_inflight_bytes:
                self.frontend.release(session, wire)
                self._refused_total.inc()
                session.respond(
                    encode_frame(
                        FRAME_OVERLOADED,
                        request_id,
                        f"node {self.nodes[node_index].name} inflight "
                        "budget full".encode(),
                    )
                )
                return
            channels[node_index] = channel
        scatter = []
        for node_index, positions, sub_frame, nbytes in parts:
            future = channels[node_index].submit(request_id, sub_frame, nbytes)
            scatter.append((node_index, positions, future))
            self._subframes_total.labels(node=self.nodes[node_index].name).inc()
        self._batches_total.inc()
        self._clicks_total.inc(count)
        self.total_batches += 1
        self.total_clicks += count
        task = asyncio.create_task(
            self._gather(session, request_id, count, scatter)
        )
        self._begin_batch()
        task.add_done_callback(lambda _t: self._end_batch())
        session.respond_later(task, wire)

    def _split(
        self, frame: BatchFrame, count: int
    ) -> List[Tuple[int, Optional["np.ndarray"], bytes, int]]:
        """Per-node sub-frames ``(node, positions, frame_bytes, nbytes)``."""
        flags = frame.flags
        node_of = self.assignment[
            route_batch(frame.identifiers, self.config.total_shards)
        ]
        record_array = np.frombuffer(frame.records, dtype=RECORD_DTYPE)
        parts = []
        for node_index, positions in shard_groups(node_of):
            if positions.shape[0] == count:
                # Whole batch lands on one node: forward the original
                # frame bytes untouched (flags, checksum, trace prefix).
                payload = frame.payload
                reserved = frame.reserved
                positions = None
            else:
                payload = record_array[positions].tobytes()
                if frame.trace is not None:
                    payload = TRACE_CONTEXT.pack(*frame.trace) + payload
                reserved = checksum16(payload) if flags & FLAG_CHECKSUM else 0
            header = HEADER.pack(
                FRAME_BATCH, flags, reserved, frame.request_id, len(payload)
            )
            parts.append((int(node_index), positions, header + payload, len(payload)))
        return parts

    async def _gather(
        self,
        session: _Session,
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
                name = self.nodes[node_index].name.encode()
                if hard:
                    return encode_frame(
                        FRAME_ERROR,
                        request_id,
                        b"node " + name + b": " + bytes(reason),
                    )
                if session.client_id is not None:
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

    # -- bookkeeping ----------------------------------------------------

    def _begin_batch(self) -> None:
        self._outstanding += 1
        self._idle.clear()

    def _end_batch(self) -> None:
        self._outstanding -= 1
        if self._outstanding == 0:
            self._idle.set()


class RouterThread(LoopThread):
    """Run a :class:`ClusterRouter` on a background event loop.

    Cluster orchestration (quiesce/resume/reconfigure/drain) is exposed
    as thread-safe blocking calls.
    """

    def __init__(
        self,
        nodes: Sequence[NodeSpec],
        config: Optional[ClusterConfig] = None,
        assignment: Optional["np.ndarray"] = None,
        telemetry: Optional[TelemetrySession] = None,
    ) -> None:
        super().__init__(
            lambda: ClusterRouter(
                nodes, config=config, assignment=assignment, telemetry=telemetry
            ),
            "repro-cluster-router",
        )

    @property
    def router(self) -> Optional[ClusterRouter]:
        return self.service

    def quiesce(self, timeout: float = 30.0) -> None:
        self._call(self.router.quiesce, timeout=timeout)

    def resume(self) -> None:
        self._call(self.router.resume)

    def reconfigure(
        self,
        nodes: Sequence[NodeSpec],
        assignment: Optional["np.ndarray"] = None,
    ) -> None:
        self._call(self.router.reconfigure, nodes, assignment)

    def clear_journals(self) -> None:
        self._call(self.router.clear_journals)

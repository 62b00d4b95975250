"""The RPK1 session front-end shared by the ingest server and the router.

:class:`~repro.serve.server.ClickIngestServer` and
:class:`~repro.cluster.router.ClusterRouter` answer clients in the same
protocol (docs/serving.md §2), so one :class:`Frontend` owns everything
that does not depend on what becomes of a batch:

* accepting connections, with a drain-safe lifecycle: a reader that
  drain cancels still flushes every response it owes, and a session's
  bookkeeping is undone whatever interrupts its close;
* the sniff: ``RPK1`` selects binary frames, anything else is handed to
  the backend as a JSONL stream;
* the request-frame loop: an oversized ``payload_len`` is answered
  ``ERROR`` and the connection closed (framing is lost), ``PING``
  ``PONG``, ``HELLO`` ``HELLO_ACK`` with the floor the backend returns,
  an unknown type ``ERROR``; a ``BATCH`` whose checksum fails gets
  ``RETRY`` and one that does not decode (bad shape, regressing or
  non-finite timestamps, short trace prefix) ``ERROR``, both before the
  backend sees it, so a refused frame never touches backend state;
* the inflight-byte budget, global and per session;
* one FIFO sender per connection: responses leave in request order,
  and a request's bytes are released after its response is written.

A :class:`Backend` decides the rest: what a session holds, how
``HELLO`` and a decoded ``BATCH`` are served, and what a non-RPK1
stream gets.
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict, NamedTuple, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError, ProtocolError
from .protocol import (
    FLAG_CHECKSUM,
    FRAME_BATCH,
    FRAME_ERROR,
    FRAME_HELLO,
    FRAME_HELLO_ACK,
    FRAME_PING,
    FRAME_PONG,
    FRAME_RETRY,
    HEADER,
    MAGIC,
    _U64,
    checksum16,
    decode_batch_payload,
    decode_hello_payload,
    encode_frame,
    split_trace_payload,
)

__all__ = ["BatchFrame", "Session", "Backend", "Frontend"]


class BatchFrame(NamedTuple):
    """A ``BATCH`` frame that passed its checksum and decoded cleanly."""

    request_id: int
    flags: int
    reserved: int
    #: The payload as received, trace prefix included.
    payload: bytes
    #: ``(trace_id, parent_span_id)`` of a ``FLAG_TRACE`` frame, else None.
    trace: Optional[Tuple[int, int]]
    #: The click-record bytes: the payload without the trace prefix (a
    #: memoryview slice of it on a traced frame).
    records: bytes
    #: Zero-copy views over ``records`` (see ``decode_batch_payload``).
    identifiers: "np.ndarray"
    timestamps: "np.ndarray"


class Session:
    """One client connection: its writer, response FIFO and byte charge.

    Backends subclass it to keep their own per-connection state.
    """

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.peer = str(writer.get_extra_info("peername"))
        #: FIFO of ``(future-of-bytes, release_bytes)``; ``None`` ends the
        #: sender.  Request order in == response order out.
        self.responses: "asyncio.Queue" = asyncio.Queue()
        self.inflight_bytes = 0
        #: Set by the backend on ``HELLO``: the idempotency identity.
        self.client_id: Optional[int] = None

    def respond(self, data: bytes) -> None:
        """Queue an already-final response behind every earlier one."""
        future = asyncio.get_running_loop().create_future()
        future.set_result(data)
        self.responses.put_nowait((future, 0))

    def respond_later(self, future: "asyncio.Future", nbytes: int) -> None:
        """Queue a response still being computed (a future that resolves
        to bytes and never raises); its ``nbytes`` of admitted budget are
        released once it is written."""
        self.responses.put_nowait((future, nbytes))

    def close(self) -> None:
        """The reader has stopped; responses already queued still flush."""


class Backend:
    """What a :class:`Frontend` asks of the service behind it."""

    def open_session(self, writer: asyncio.StreamWriter) -> Session:
        return Session(writer)

    def frame_refused(
        self, response_type: int, request_id: int, item, reason: str
    ) -> None:
        """The front-end answered a frame ``ERROR`` or ``RETRY``."""

    async def hello(self, session: Session, client_id: int) -> int:
        """Take the session's identity; return its ``HELLO_ACK`` floor."""
        raise NotImplementedError

    def batch(self, session: Session, frame: BatchFrame) -> None:
        """Admit or refuse one decoded batch; queue exactly one response."""
        raise NotImplementedError

    async def jsonl(
        self, session: Session, reader: asyncio.StreamReader, first: bytes
    ) -> None:
        """Serve a connection that did not open with ``RPK1``; ``first``
        holds the bytes the sniff consumed."""
        raise NotImplementedError


class Frontend:
    """Accept RPK1 connections and run their sessions against a backend.

    ``config`` is the backend's own (``ServeConfig`` or
    ``ClusterConfig``); the front-end reads its ``host``, ``port``,
    ``max_frame_bytes`` and ``max_inflight_bytes``.  ``prefix`` names
    the front-end's instruments in ``registry``:
    ``{prefix}_connections_total``, ``{prefix}_connections_active``,
    ``{prefix}_inflight_bytes`` and ``{prefix}_corrupt_frames_total``.
    ``stages``, when given, times the ``decode`` and ``response_write``
    stages.
    """

    def __init__(
        self,
        backend: Backend,
        config,
        registry,
        prefix: str,
        *,
        session_inflight_bytes: int,
        stages=None,
    ) -> None:
        self._backend = backend
        self._config = config
        self._session_inflight_bytes = session_inflight_bytes
        self._stages = stages
        self._connections_total = registry.counter(
            f"{prefix}_connections_total", "Connections accepted"
        )
        self._connections_active = registry.gauge(
            f"{prefix}_connections_active", "Connections currently open"
        )
        self._inflight_gauge = registry.gauge(
            f"{prefix}_inflight_bytes", "Admitted-but-unanswered payload bytes"
        )
        self._corrupt_frames = registry.counter(
            f"{prefix}_corrupt_frames_total",
            "Batches refused with RETRY on a payload checksum mismatch",
        )
        #: Admitted-but-unanswered payload bytes across every session.
        self.inflight_bytes = 0
        #: Open connections: handler task -> its session.
        self.sessions: Dict[asyncio.Task, Session] = {}
        self._server: Optional[asyncio.base_events.Server] = None

    # -- lifecycle -----------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0``)."""
        if self._server is None:
            raise ConfigurationError("not started")
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        if self._server is not None:
            raise ConfigurationError("already started")
        config = self._config
        self._server = await asyncio.start_server(
            self.handle,
            host=config.host,
            port=config.port,
            limit=config.max_frame_bytes,
        )

    def stop_listening(self) -> None:
        """Close the listening socket; open sessions carry on."""
        if self._server is not None:
            self._server.close()

    def stop_reading(self) -> None:
        """Stop accepting and cancel every session's reader.  Each
        session still flushes the responses it owes, then closes."""
        self.stop_listening()
        for task in list(self.sessions):
            task.cancel()

    async def wait_closed(self) -> None:
        """Wait until every session has flushed and closed."""
        if self.sessions:
            await asyncio.gather(*list(self.sessions), return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()

    # -- admission -----------------------------------------------------

    def admit(self, session: Session, nbytes: int) -> bool:
        """Charge ``nbytes`` to the session and global budgets; False,
        charging nothing, when either would overflow."""
        if (
            session.inflight_bytes + nbytes > self._session_inflight_bytes
            or self.inflight_bytes + nbytes > self._config.max_inflight_bytes
        ):
            return False
        session.inflight_bytes += nbytes
        self.inflight_bytes += nbytes
        self._inflight_gauge.set(self.inflight_bytes)
        return True

    def release(self, session: Session, nbytes: int) -> None:
        session.inflight_bytes -= nbytes
        self.inflight_bytes -= nbytes
        self._inflight_gauge.set(self.inflight_bytes)

    # -- one connection ------------------------------------------------

    async def handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one connection until its peer leaves or drain stops it."""
        session = self._backend.open_session(writer)
        task = asyncio.current_task()
        self.sessions[task] = session
        self._connections_total.inc()
        self._connections_active.inc()
        sender = asyncio.create_task(self._send(session))
        try:
            await self._read(session, reader)
        except (asyncio.CancelledError, asyncio.IncompleteReadError, OSError):
            # Drain stopped the reader, or the peer tore a frame or the
            # connection: stop reading; owed responses still flush.
            pass
        finally:
            try:
                session.close()
                session.responses.put_nowait(None)
                try:
                    await asyncio.shield(sender)
                except asyncio.CancelledError:
                    try:
                        await sender
                    except asyncio.CancelledError:
                        # Loop teardown (an abrupt kill) cancelled the
                        # sender too; the socket must still close below,
                        # or the peer hangs instead of seeing EOF.
                        pass
                try:
                    writer.close()
                    await writer.wait_closed()
                except (asyncio.CancelledError, OSError):
                    # drain() cancels every handler to stop its reader.
                    # One already closing its socket has nothing left to
                    # stop; ending it cancelled would only make asyncio
                    # log the cancellation as an error.
                    pass
            finally:
                self.sessions.pop(task, None)
                self._connections_active.dec()

    async def _read(
        self, session: Session, reader: asyncio.StreamReader
    ) -> None:
        try:
            sniff = await reader.readexactly(len(MAGIC))
        except asyncio.IncompleteReadError:
            return
        if sniff != MAGIC:
            await self._backend.jsonl(session, reader, sniff)
            return
        max_frame_bytes = self._config.max_frame_bytes
        while True:
            try:
                header = await reader.readexactly(HEADER.size)
            except asyncio.IncompleteReadError:
                return
            frame_type, flags, reserved, request_id, payload_len = HEADER.unpack(
                header
            )
            if payload_len > max_frame_bytes:
                # Stream sync would mean skipping an absurd payload from a
                # peer already breaking the contract: refuse and hang up.
                self._refuse(
                    session, FRAME_ERROR, request_id, header,
                    f"payload {payload_len} exceeds cap", b"payload too large",
                )
                return
            payload = await reader.readexactly(payload_len)
            if frame_type == FRAME_BATCH:
                self._batch(session, header, flags, reserved, request_id, payload)
            elif frame_type == FRAME_PING:
                session.respond(encode_frame(FRAME_PONG, request_id))
            elif frame_type == FRAME_HELLO:
                await self._hello(session, request_id, payload)
            else:
                self._refuse(
                    session, FRAME_ERROR, request_id, payload[:64],
                    f"unknown frame type 0x{frame_type:02X}",
                )

    async def _hello(
        self, session: Session, request_id: int, payload: bytes
    ) -> None:
        try:
            client_id = decode_hello_payload(payload)
        except ProtocolError as error:
            self._refuse(session, FRAME_ERROR, request_id, payload[:64], str(error))
            return
        floor = await self._backend.hello(session, client_id)
        session.respond(
            encode_frame(FRAME_HELLO_ACK, request_id, _U64.pack(floor))
        )

    def _batch(
        self,
        session: Session,
        header: bytes,
        flags: int,
        reserved: int,
        request_id: int,
        payload: bytes,
    ) -> None:
        if flags & FLAG_CHECKSUM and checksum16(payload) != reserved:
            # Damaged in transit: RETRY asks for the same bytes again —
            # unlike ERROR, nothing about the batch itself was wrong.
            self._corrupt_frames.inc()
            self._refuse(
                session, FRAME_RETRY, request_id, header,
                f"payload checksum mismatch on request {request_id}",
                b"payload damaged in transit",
            )
            return
        stages = self._stages
        try:
            decode_t0 = time.perf_counter() if stages is not None else 0.0
            trace, records = split_trace_payload(flags, payload)
            identifiers, timestamps = decode_batch_payload(records)
            if stages is not None:
                stages.observe("decode", time.perf_counter() - decode_t0)
        except ProtocolError as error:
            self._refuse(session, FRAME_ERROR, request_id, payload[:64], str(error))
            return
        self._backend.batch(
            session,
            BatchFrame(
                request_id, flags, reserved, payload, trace, records,
                identifiers, timestamps,
            ),
        )

    def _refuse(
        self,
        session: Session,
        response_type: int,
        request_id: int,
        item,
        reason: str,
        message: Optional[bytes] = None,
    ) -> None:
        self._backend.frame_refused(response_type, request_id, item, reason)
        session.respond(
            encode_frame(
                response_type,
                request_id,
                reason.encode() if message is None else message,
            )
        )

    async def _send(self, session: Session) -> None:
        """Write responses in request order; release budgets after each."""
        writer = session.writer
        while True:
            entry = await session.responses.get()
            if entry is None:
                return
            pending, release = entry
            data = await pending
            # Time only request responses (release > 0): control frames
            # would skew the stage.
            stages = self._stages if release else None
            write_t0 = time.perf_counter() if stages is not None else 0.0
            try:
                writer.write(data)
                await writer.drain()
            except OSError:
                # Peer gone: keep consuming so budgets release and the
                # backend's work is not blocked.
                pass
            else:
                if stages is not None:
                    stages.observe("response_write", time.perf_counter() - write_t0)
            if release:
                self.release(session, release)

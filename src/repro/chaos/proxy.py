"""A frame-aware TCP fault proxy for the click-ingest protocol.

The proxy sits between a :class:`~repro.serve.client.ServeClient` and a
real :class:`~repro.serve.server.ClickIngestServer` and damages the
*network* deterministically: it parses the client's binary frames and,
per frame, may drop it, duplicate it, delay it, corrupt a payload byte,
truncate it mid-frame (then reset — framing is gone), or reset the
whole connection; the server→client direction can be bandwidth
throttled.  Every decision is a pure function of ``(seed,
connection_index, frame_index)`` (the :class:`~repro.resilience.faults
.FaultInjector` keyed-RNG idiom), so a chaos soak that found a bug
replays the identical fault schedule from the same seed.

The faults are *client→server only* and frame-aligned on purpose: they
model the failures the retry-safe protocol claims to survive — lost,
repeated, damaged, and torn deliveries — while leaving each delivered
frame's boundaries parseable by the server.  Header-level damage
(which breaks framing outright) is modelled by ``truncate``/``reset``,
which kill the connection the way real torn TCP streams do.

:class:`ProxyThread` is the synchronous harness (the same
:class:`~repro.serve.background.LoopThread` that runs
:class:`~repro.serve.server.ServerThread`); :meth:`ProxyThread.retarget`
repoints new upstream connections at a different port, which is how the
soak swaps in a restored server mid-schedule without the client ever
learning the address changed.
"""

from __future__ import annotations

import asyncio
import random
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Set

from ..errors import ConfigurationError
from ..serve.background import LoopThread
from ..serve.protocol import HEADER, MAGIC

__all__ = ["FAULT_KINDS", "FaultPlan", "ChaosProxy", "ProxyThread"]

#: Frame fates a :class:`FaultPlan` can choose (plus implicit "pass").
FAULT_KINDS = ("drop", "duplicate", "delay", "corrupt", "truncate", "reset")


@dataclass(frozen=True)
class FaultPlan:
    """Seeded per-frame fault probabilities.

    Rates are independent probabilities that must sum to at most 1; the
    remainder is the pass-through rate.  ``decide`` draws once per
    frame from an RNG keyed on ``(seed, connection, frame)``, so the
    schedule is a property of the plan, not of timing.
    """

    seed: int = 0
    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    delay_rate: float = 0.0
    corrupt_rate: float = 0.0
    truncate_rate: float = 0.0
    reset_rate: float = 0.0
    #: Seconds a "delay" fault holds the frame back.
    delay_seconds: float = 0.02
    #: Server→client bandwidth cap; ``None`` = unthrottled.
    bytes_per_second: Optional[int] = None

    def __post_init__(self) -> None:
        total = 0.0
        for kind in FAULT_KINDS:
            rate = getattr(self, f"{kind}_rate")
            if not 0.0 <= rate <= 1.0:
                raise ConfigurationError(
                    f"{kind}_rate must be in [0, 1], got {rate}"
                )
            total += rate
        if total > 1.0:
            raise ConfigurationError(
                f"fault rates sum to {total}; must be <= 1"
            )
        if self.delay_seconds < 0:
            raise ConfigurationError(
                f"delay_seconds must be >= 0, got {self.delay_seconds}"
            )
        if self.bytes_per_second is not None and self.bytes_per_second < 1:
            raise ConfigurationError(
                f"bytes_per_second must be >= 1, got {self.bytes_per_second}"
            )

    def _rng(self, *salt: object) -> random.Random:
        return random.Random((self.seed, *salt).__repr__())

    def decide(self, connection: int, frame: int) -> str:
        """The fate of frame ``frame`` on connection ``connection``."""
        roll = self._rng(connection, frame).random()
        for kind in FAULT_KINDS:
            roll -= getattr(self, f"{kind}_rate")
            if roll < 0.0:
                return kind
        return "pass"

    def corrupt_offset(self, connection: int, frame: int, size: int) -> int:
        """Which payload byte a "corrupt" fault flips."""
        return self._rng("corrupt", connection, frame).randrange(size)

    def truncate_at(self, connection: int, frame: int, size: int) -> int:
        """How many payload bytes a "truncate" fault lets through."""
        return self._rng("truncate", connection, frame).randrange(size + 1)


class ChaosProxy:
    """The asyncio proxy; construct and :meth:`start` inside a loop.

    ``faults`` counts applied faults by kind — a soak asserts from it
    that the schedule actually exercised something.
    """

    def __init__(
        self,
        upstream_port: int,
        plan: Optional[FaultPlan] = None,
        upstream_host: str = "127.0.0.1",
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.plan = plan if plan is not None else FaultPlan()
        self.upstream_host = upstream_host
        self.upstream_port = upstream_port
        self._host = host
        self._port = port
        self._server: Optional[asyncio.base_events.Server] = None
        self._conns: Set[asyncio.Task] = set()
        self._connections = 0
        self.faults: Counter = Counter()

    @property
    def port(self) -> int:
        if self._server is None:
            raise ConfigurationError("proxy not started")
        return self._server.sockets[0].getsockname()[1]

    def retarget(self, port: int, host: Optional[str] = None) -> None:
        """Point *new* upstream connections elsewhere (server restarted)."""
        self.upstream_port = port
        if host is not None:
            self.upstream_host = host

    async def start(self) -> None:
        if self._server is not None:
            raise ConfigurationError("proxy already started")
        self._server = await asyncio.start_server(
            self._handle, host=self._host, port=self._port
        )

    async def drain(self) -> None:
        """Stop accepting and tear down every proxied connection."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._conns):
            task.cancel()
        if self._conns:
            await asyncio.gather(*list(self._conns), return_exceptions=True)

    # -- per-connection plumbing ---------------------------------------

    async def _handle(
        self, client_reader: asyncio.StreamReader, client_writer: asyncio.StreamWriter
    ) -> None:
        self._conns.add(asyncio.current_task())
        index = self._connections
        self._connections += 1
        upstream_writer = None
        try:
            try:
                upstream_reader, upstream_writer = await asyncio.open_connection(
                    self.upstream_host, self.upstream_port
                )
            except OSError:
                # Server down (e.g. mid-restart): the client sees the
                # refusal as a dropped connection and backs off.
                return
            up = asyncio.create_task(
                self._pump_frames(index, client_reader, upstream_writer)
            )
            down = asyncio.create_task(
                self._pump_bytes(upstream_reader, client_writer)
            )
            done, pending = await asyncio.wait(
                {up, down}, return_when=asyncio.FIRST_COMPLETED
            )
            for task in pending:
                task.cancel()
            await asyncio.gather(up, down, return_exceptions=True)
        except asyncio.CancelledError:
            pass
        finally:
            for writer in (client_writer, upstream_writer):
                if writer is None:
                    continue
                try:
                    writer.close()
                except Exception:
                    pass
            self._conns.discard(asyncio.current_task())

    async def _pump_frames(
        self,
        index: int,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Client→server: parse frames, apply the plan, forward."""
        try:
            magic = await reader.readexactly(len(MAGIC))
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            return
        writer.write(magic)
        if magic != MAGIC:
            # Not the binary protocol (JSONL debugging): pass bytes
            # through unharmed — the plan is defined over frames.
            await self._pump_bytes(reader, writer, primed=True)
            return
        frame = 0
        try:
            while True:
                header = await reader.readexactly(HEADER.size)
                _type, _flags, _res, _id, payload_len = HEADER.unpack(header)
                payload = (
                    await reader.readexactly(payload_len) if payload_len else b""
                )
                fate = self.plan.decide(index, frame)
                frame += 1
                if fate != "pass":
                    self.faults[fate] += 1
                if fate == "drop":
                    continue
                if fate == "reset":
                    self._abort(writer)
                    return
                if fate == "truncate":
                    cut = self.plan.truncate_at(index, frame - 1, payload_len)
                    writer.write(header + payload[:cut])
                    await writer.drain()
                    # Half a frame is on the wire: framing is lost, so
                    # tear the connection down the way a torn TCP
                    # stream would.
                    self._abort(writer)
                    return
                if fate == "corrupt" and payload:
                    damaged = bytearray(payload)
                    damaged[
                        self.plan.corrupt_offset(index, frame - 1, len(damaged))
                    ] ^= 0xFF
                    payload = bytes(damaged)
                elif fate == "delay":
                    await asyncio.sleep(self.plan.delay_seconds)
                writer.write(header + payload)
                if fate == "duplicate":
                    writer.write(header + payload)
                await writer.drain()
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            return

    async def _pump_bytes(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        primed: bool = False,
    ) -> None:
        """Server→client: verbatim bytes, optionally throttled."""
        throttle = None if primed else self.plan.bytes_per_second
        try:
            while True:
                chunk = await reader.read(65536)
                if not chunk:
                    return
                writer.write(chunk)
                await writer.drain()
                if throttle is not None:
                    await asyncio.sleep(len(chunk) / throttle)
        except (ConnectionError, OSError):
            return

    @staticmethod
    def _abort(writer: asyncio.StreamWriter) -> None:
        transport = writer.transport
        if transport is not None:
            transport.abort()


class ProxyThread(LoopThread):
    """Run a :class:`ChaosProxy` on a background event loop.

    The synchronous harness for soaks and tests: start it, point a
    client at ``thread.port``, and the plan does the rest.
    """

    def __init__(
        self,
        upstream_port: int,
        plan: Optional[FaultPlan] = None,
        upstream_host: str = "127.0.0.1",
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        super().__init__(
            lambda: ChaosProxy(upstream_port, plan, upstream_host, host, port),
            "repro-chaos-proxy",
        )

    @property
    def proxy(self) -> Optional[ChaosProxy]:
        return self.service

    def retarget(self, port: int, host: Optional[str] = None) -> None:
        """Thread-safe :meth:`ChaosProxy.retarget`."""
        if self.proxy is None:
            raise ConfigurationError("proxy not started")
        self.proxy.retarget(port, host)

"""The load generator: one RPK1 connection, closed and open loop.

Frames are encoded and verdicts decoded with the public codecs of
``repro.serve.protocol``.  ``ServeClient`` is not used: its ``collect``
blocks, which would stall an open-loop schedule.
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.serve.protocol import (
    FRAME_HELLO_ACK,
    FRAME_VERDICTS,
    HEADER,
    MAGIC,
    decode_header,
    decode_hello_payload,
    decode_verdicts_payload,
    encode_batch,
    encode_hello,
)

#: (identifiers, timestamps or None) of one frame.
Frame = Tuple[np.ndarray, Optional[np.ndarray]]


@dataclass
class Phase:
    """What one served phase sent and got back."""

    #: Stream frame index of every frame sent, in send order.
    sent: List[int] = field(default_factory=list)
    #: Frame index -> verdict array, for frames answered with VERDICTS.
    verdicts: Dict[int, np.ndarray] = field(default_factory=dict)
    #: Frame indices answered with OVERLOADED, ERROR or RETRY.
    refused: List[int] = field(default_factory=list)
    start: float = 0.0
    end: float = 0.0

    @property
    def clicks(self) -> int:
        return sum(v.shape[0] for v in self.verdicts.values())

    @property
    def unanswered(self) -> int:
        return len(self.sent) - len(self.verdicts) - len(self.refused)


class Connection:
    """One RPK1 session with a HELLO identity; request ids are batch_seq."""

    def __init__(self, port: int, client_id: int, timeout: float = 60.0) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._reader = self.sock.makefile("rb", buffering=1 << 20)
        self.sock.sendall(MAGIC + encode_hello(0, client_id))
        frame_type, _, payload = self.read()
        if frame_type != FRAME_HELLO_ACK:
            raise ConnectionError(f"expected HELLO_ACK, got 0x{frame_type:02X}")
        decode_hello_payload(payload)
        self._next_id = 1
        #: request id -> stream frame index, for frames awaiting a reply.
        self._pending: Dict[int, int] = {}

    def send(self, index: int, frame: Frame, trace=None) -> int:
        request_id = self._next_id
        self._next_id += 1
        self._pending[request_id] = index
        self.sock.sendall(encode_batch(request_id, frame[0], frame[1], trace=trace))
        return request_id

    def read(self) -> Tuple[int, int, bytes]:
        header = self._reader.read(HEADER.size)
        if len(header) != HEADER.size:
            raise ConnectionError("server closed the connection")
        frame_type, request_id, length = decode_header(header, expect_response=True)
        payload = self._reader.read(length)
        if len(payload) != length:
            raise ConnectionError("server closed the connection mid-frame")
        return frame_type, request_id, payload

    def receive(self, phase: Phase) -> Tuple[int, int]:
        """Read one reply into ``phase``; returns (request id, frame index)."""
        frame_type, request_id, payload = self.read()
        index = self._pending.pop(request_id)
        if frame_type == FRAME_VERDICTS:
            phase.verdicts[index] = decode_verdicts_payload(payload)
        else:
            phase.refused.append(index)
        return request_id, index

    def close(self) -> None:
        self._reader.close()
        self.sock.close()


def closed_loop(
    conn: Connection,
    frames: Sequence[Frame],
    first: int,
    depth: int,
    seconds: float,
    stop: Optional[int] = None,
) -> Phase:
    """Keep ``depth`` frames in flight from ``first`` on for ``seconds``.

    Stops sending at the deadline (or at frame ``stop``, by default the
    end of ``frames``) and waits for every reply; wall time runs from
    the first send to the last reply.
    """
    phase = Phase()
    stop = len(frames) if stop is None else stop
    in_flight = 0
    index = first
    phase.start = time.perf_counter()
    deadline = phase.start + seconds
    while True:
        while (in_flight < depth and index < stop
               and time.perf_counter() < deadline):
            conn.send(index, frames[index])
            phase.sent.append(index)
            index += 1
            in_flight += 1
        if not in_flight:
            break
        conn.receive(phase)
        in_flight -= 1
    phase.end = time.perf_counter()
    return phase


@dataclass
class OpenLoop:
    phase: Phase
    #: Per frame, in send order: due time, actual send time, reply time.
    due: np.ndarray
    sent_at: np.ndarray
    replied_at: np.ndarray
    #: Frame index -> trace id, for the sampled FLAG_TRACE frames.
    traced: Dict[int, int]

    def latencies_ms(self) -> np.ndarray:
        """Due time to verdict, per answered frame."""
        answered = np.isfinite(self.replied_at)
        return (self.replied_at[answered] - self.due[answered]) * 1e3

    def lateness_ms(self) -> np.ndarray:
        return (self.sent_at - self.due) * 1e3


def open_loop(
    conn: Connection,
    frames: Sequence[Frame],
    first: int,
    count: int,
    rate: float,
    trace_every: int = 0,
) -> OpenLoop:
    """Send ``count`` frames from ``first`` on at ``rate`` frames/s.

    A sender thread sends frame ``j`` at ``start + j / rate`` (or as
    soon after as it can); the calling thread reads replies.  Latency
    runs from each frame's due time, so a stall charges every frame
    queued behind it.  Every ``trace_every``-th frame carries a
    ``FLAG_TRACE`` context whose trace id is its frame index plus one.
    """
    phase = Phase()
    due = np.empty(count)
    sent_at = np.empty(count)
    replied_at = np.full(count, np.inf)
    traced: Dict[int, int] = {}
    position: Dict[int, int] = {}
    errors: List[BaseException] = []
    start = time.perf_counter() + 0.01
    due[:] = start + np.arange(count) / rate

    def sender() -> None:
        try:
            for j in range(count):
                delay = due[j] - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                index = first + j
                trace = None
                if trace_every and index % trace_every == 0:
                    trace = (index + 1, index + 1)
                    traced[index] = index + 1
                position[index] = j
                phase.sent.append(index)
                sent_at[j] = time.perf_counter()
                conn.send(index, frames[index], trace=trace)
        except BaseException as error:  # surfaced by the reader below
            errors.append(error)

    thread = threading.Thread(target=sender, name="open-loop-sender")
    phase.start = start
    thread.start()
    try:
        for _ in range(count):
            _, index = conn.receive(phase)
            replied_at[position[index]] = time.perf_counter()
    finally:
        thread.join()
    if errors:
        raise errors[0]
    phase.end = float(replied_at.max())
    return OpenLoop(phase, due, sent_at, replied_at, traced)

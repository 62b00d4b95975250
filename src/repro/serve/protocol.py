"""The click-ingest wire protocol: length-prefixed binary frames + JSONL.

Binary mode (the production path)
---------------------------------
A connection opens with the 4-byte magic ``RPK1``; everything after is
a stream of frames in both directions::

    header  : little-endian struct <BBHQI  (16 bytes)
              type u8 | flags u8 | reserved u16 | request_id u64 |
              payload_len u32
    payload : payload_len bytes

Client → server frame types:

``BATCH`` (0x01)
    ``payload_len // 16`` click records, each ``identifier u64 le |
    timestamp f64 le``.  The identifier scheme runs *client-side*
    (:meth:`repro.streams.click.IdentifierScheme.identify_batch`) — the
    paper's model where "each click has a predefined identifier" — so
    the server's hot path goes straight from bytes to arrays with no
    per-click Python work.  Timestamps must be finite and
    non-decreasing within a batch (a batch breaking either is refused
    with ``ERROR``), and across batches of one connection when the
    detector is time-based; *across* connections the server merges
    and clamps bounded clock skew itself (``ServeConfig.skew_tolerance``),
    so clients need not share a clock.
``PING`` (0x02)
    Health probe; empty payload.
``HELLO`` (0x03)
    Opt into *exactly-once delivery*: the payload is the client's
    stable 8-byte ``client_id`` (u64 le).  From then on every
    ``BATCH``'s ``request_id`` is read as that client's monotone
    ``batch_seq``, and the pair ``(client_id, batch_seq)`` is an
    idempotency key: the server remembers recently applied sequences in
    a bounded response cache (persisted across drain/restore), so a
    batch resent after a dropped connection is *replayed from the
    cache* — or detected as already applied — and never mutates
    detector state twice.  Send it first on every (re)connection; the
    same ``client_id`` must keep the same monotone sequence across
    reconnects.

Server → client frame types (``request_id`` always echoes the request):

``VERDICTS`` (0x81)
    One byte per click, ``1`` = duplicate (do not bill), ``0`` = valid,
    in the exact order of the batch's records.
``PONG`` (0x82)
    Ping reply.
``HELLO_ACK`` (0x83)
    Reply to ``HELLO``; the payload is the highest ``batch_seq`` the
    server knows it has applied for this ``client_id`` (u64 le, ``0``
    when none) — a reconnecting client may use it to reconcile, though
    simply resending everything unacknowledged is always safe.
``OVERLOADED`` (0xE0)
    Admission control refused the batch — it was *not* processed; the
    payload is a human-readable reason.  Back off and resend.
``ERROR`` (0xE1)
    The frame was malformed and has been dead-lettered; payload is the
    reason.  Framed errors (bad type, bad payload shape) keep the
    connection alive; an unparseable *header* forces a close, since
    stream sync is lost.
``RETRY`` (0xE2)
    Transport damage: the frame arrived intact enough to parse but its
    payload failed the integrity check (below).  The batch was *not*
    processed and the same bytes, resent, are expected to succeed —
    unlike ``ERROR``, this is the network's fault, not the client's.

Payload integrity
-----------------
``BATCH`` frames carry ``CRC-32(payload) & 0xFFFF`` in the header's
``reserved`` field with ``flags`` bit ``FLAG_CHECKSUM`` set, so a byte
corrupted in transit is detected *before* it can silently change an
identifier or timestamp (TCP's 16-bit checksum misses roughly one in
65k damaged segments; at click-stream volumes that is a matter of
time).  A server seeing a mismatch answers ``RETRY`` and drops the
frame; servers predating the flag ignore both fields, so checksummed
clients interoperate either way.  The 16-byte header itself is not
covered — header damage breaks framing and surfaces as a connection
error, which the retry path already heals.

Trace context
-------------
A sampled client may set ``flags`` bit ``FLAG_TRACE`` on a ``BATCH``:
the payload then *begins* with a 16-byte trace context — ``trace_id
u64 le | parent_span_id u64 le`` — followed by the click records.  The
checksum covers the full payload including the prefix, and the record
count becomes ``(payload_len - 16) // 16``.  Servers strip the prefix
with a ``memoryview`` slice (:func:`split_trace_payload`), so the
record decode stays zero-copy; servers predating the flag would
misread a traced payload, which is why tracing is opt-in per frame and
default-off.  An untraced frame is byte-identical to what older
clients send.

JSONL mode (debugging)
----------------------
A connection whose first byte is ``{`` speaks newline-delimited JSON
instead: requests ``{"id": n, "clicks": [<click records>]}`` with the
same click fields the stream files use (:func:`repro.streams.io
.click_to_record`), responses ``{"id": n, "verdicts": [0, 1, ...]}``,
``{"id": n, "overloaded": reason}`` or ``{"id": n, "error": reason}``.
Full clicks on the wire mean the server runs the identifier scheme —
convenient for ``nc``/``telnet`` poking, an order of magnitude slower.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from typing import Optional, Tuple

import numpy as np

from ..errors import ProtocolError

__all__ = [
    "MAGIC",
    "HEADER",
    "RECORD_BYTES",
    "RECORD_DTYPE",
    "FRAME_BATCH",
    "FRAME_PING",
    "FRAME_HELLO",
    "FRAME_VERDICTS",
    "FRAME_PONG",
    "FRAME_HELLO_ACK",
    "FRAME_OVERLOADED",
    "FRAME_ERROR",
    "FRAME_RETRY",
    "FLAG_CHECKSUM",
    "FLAG_TRACE",
    "TRACE_CONTEXT",
    "DEFAULT_MAX_FRAME_BYTES",
    "checksum16",
    "split_trace_payload",
    "encode_frame",
    "decode_header",
    "encode_hello",
    "decode_hello_payload",
    "encode_batch",
    "decode_batch_payload",
    "check_timestamps",
    "encode_verdicts",
    "decode_verdicts_payload",
    "ProtocolError",
]

MAGIC = b"RPK1"

#: type u8 | flags u8 | reserved u16 | request_id u64 | payload_len u32
HEADER = struct.Struct("<BBHQI")

#: One click record: identifier u64 le + timestamp f64 le.
RECORD_DTYPE = np.dtype([("identifier", "<u8"), ("timestamp", "<f8")])
RECORD_BYTES = RECORD_DTYPE.itemsize  # 16

FRAME_BATCH = 0x01
FRAME_PING = 0x02
FRAME_HELLO = 0x03
FRAME_VERDICTS = 0x81
FRAME_PONG = 0x82
FRAME_HELLO_ACK = 0x83
FRAME_OVERLOADED = 0xE0
FRAME_ERROR = 0xE1
FRAME_RETRY = 0xE2

#: Header ``flags`` bit: ``reserved`` holds ``CRC-32(payload) & 0xFFFF``.
FLAG_CHECKSUM = 0x01

#: Header ``flags`` bit: the payload starts with a :data:`TRACE_CONTEXT`
#: prefix (sampled distributed tracing — see the module docstring).
FLAG_TRACE = 0x02

#: ``FLAG_TRACE`` payload prefix: trace_id u64 le | parent_span_id u64 le.
TRACE_CONTEXT = struct.Struct("<QQ")

_REQUEST_TYPES = frozenset({FRAME_BATCH, FRAME_PING, FRAME_HELLO})
_RESPONSE_TYPES = frozenset(
    {
        FRAME_VERDICTS,
        FRAME_PONG,
        FRAME_HELLO_ACK,
        FRAME_OVERLOADED,
        FRAME_ERROR,
        FRAME_RETRY,
    }
)

#: ``HELLO``/``HELLO_ACK`` payload: one u64 little-endian value.
_U64 = struct.Struct("<Q")

#: Hard per-frame ceiling; an honest client never needs more, a broken
#: one must not make the server buffer without bound.
DEFAULT_MAX_FRAME_BYTES = 4 * 1024 * 1024


def checksum16(payload: bytes) -> int:
    """The 16-bit payload digest carried in a checksummed frame header."""
    return zlib.crc32(payload) & 0xFFFF


def encode_frame(
    frame_type: int,
    request_id: int,
    payload: bytes = b"",
    flags: int = 0,
    reserved: int = 0,
) -> bytes:
    """One wire frame: header + payload."""
    return (
        HEADER.pack(frame_type, flags, reserved, request_id, len(payload))
        + payload
    )


def decode_header(
    raw: bytes,
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    expect_response: bool = False,
) -> Tuple[int, int, int]:
    """Parse and validate a 16-byte frame header.

    Returns ``(type, request_id, payload_len)``.  Raises
    :class:`ProtocolError` for a short header, unknown type, or a
    payload length over ``max_frame_bytes`` — the caller decides
    whether stream sync survives (known length → yes).
    """
    if len(raw) != HEADER.size:
        raise ProtocolError(f"short frame header: {len(raw)} of {HEADER.size} bytes")
    frame_type, _flags, _reserved, request_id, payload_len = HEADER.unpack(raw)
    allowed = _RESPONSE_TYPES if expect_response else _REQUEST_TYPES
    if frame_type not in allowed:
        raise ProtocolError(f"unknown frame type 0x{frame_type:02X}")
    if payload_len > max_frame_bytes:
        raise ProtocolError(
            f"frame payload {payload_len} bytes exceeds cap {max_frame_bytes}"
        )
    return frame_type, request_id, payload_len


def encode_hello(request_id: int, client_id: int) -> bytes:
    """A ``HELLO`` frame announcing the client's idempotency identity."""
    return encode_frame(FRAME_HELLO, request_id, _U64.pack(client_id))


def decode_hello_payload(payload: bytes) -> int:
    """The u64 of a ``HELLO``/``HELLO_ACK`` payload."""
    if len(payload) != _U64.size:
        raise ProtocolError(
            f"HELLO payload must be {_U64.size} bytes, got {len(payload)}"
        )
    return _U64.unpack(payload)[0]


def encode_batch(
    request_id: int,
    identifiers: "np.ndarray",
    timestamps: Optional["np.ndarray"] = None,
    trace: Optional[Tuple[int, int]] = None,
) -> bytes:
    """A ``BATCH`` frame from parallel identifier/timestamp arrays.

    ``timestamps`` defaults to zeros (count-based detectors never read
    them, and the record layout is fixed either way).  A sampled client
    passes ``trace=(trace_id, parent_span_id)`` to prepend the 16-byte
    trace context and set ``FLAG_TRACE``; ``None`` (the default) emits
    a frame byte-identical to the untraced protocol.
    """
    identifiers = np.ascontiguousarray(identifiers, dtype=np.uint64)
    records = np.empty(identifiers.shape[0], dtype=RECORD_DTYPE)
    records["identifier"] = identifiers
    if timestamps is None:
        records["timestamp"] = 0.0
    else:
        records["timestamp"] = np.asarray(timestamps, dtype=np.float64)
    flags = FLAG_CHECKSUM
    payload = records.tobytes()
    if trace is not None:
        payload = TRACE_CONTEXT.pack(trace[0], trace[1]) + payload
        flags |= FLAG_TRACE
    return encode_frame(
        FRAME_BATCH,
        request_id,
        payload,
        flags=flags,
        reserved=checksum16(payload),
    )


def split_trace_payload(flags: int, payload: bytes):
    """Split a ``BATCH`` payload into its trace context and record bytes.

    Returns ``(trace, records)`` where ``trace`` is ``(trace_id,
    parent_span_id)`` when ``FLAG_TRACE`` is set (``None`` otherwise)
    and ``records`` is the click-record bytes ready for
    :func:`decode_batch_payload`.  The strip is a ``memoryview`` slice,
    not a copy, so the traced path keeps the zero-copy decode.
    """
    if not flags & FLAG_TRACE:
        return None, payload
    if len(payload) < TRACE_CONTEXT.size:
        raise ProtocolError(
            f"traced batch payload of {len(payload)} bytes is shorter than "
            f"the {TRACE_CONTEXT.size}-byte trace context"
        )
    trace = TRACE_CONTEXT.unpack_from(payload)
    return trace, memoryview(payload)[TRACE_CONTEXT.size :]


def decode_batch_payload(payload: bytes) -> Tuple["np.ndarray", "np.ndarray"]:
    """Split a ``BATCH`` payload into (identifiers, timestamps) arrays.

    Zero-copy: the returned arrays are read-only *views* over the wire
    bytes (``np.frombuffer`` + structured-field access), strided at the
    16-byte record pitch.  Nothing on the fast path mutates them — the
    hash family, coalescer, and detectors only read — so the payload's
    bytes are the single allocation a batch ever needs between socket
    and verdict.  See ``docs/performance.md``.
    """
    if len(payload) % RECORD_BYTES != 0:
        raise ProtocolError(
            f"batch payload of {len(payload)} bytes is not a multiple of "
            f"the {RECORD_BYTES}-byte record size"
        )
    records = np.frombuffer(payload, dtype=RECORD_DTYPE)
    identifiers = records["identifier"]
    timestamps = records["timestamp"]
    check_timestamps(timestamps)
    return identifiers, timestamps


def check_timestamps(timestamps: "np.ndarray") -> None:
    """Refuse a batch whose timestamps regress or are not finite.

    One vectorized pass: ``diff >= 0`` is false both for a regression
    and for a NaN, and a non-decreasing run with finite ends holds no
    infinity, so only the two end stamps need ``isfinite``.  A refused
    batch never reaches a detector, whose clock would otherwise jump to
    the bad stamp.
    """
    if timestamps.shape[0] == 0:
        return
    if not bool((np.diff(timestamps) >= 0).all()):
        raise ProtocolError(
            "batch timestamps regress or are NaN; streams must be time-ordered"
        )
    first, last = float(timestamps[0]), float(timestamps[-1])
    if not (math.isfinite(first) and math.isfinite(last)):
        raise ProtocolError(
            f"batch timestamps must be finite, got {first!r} .. {last!r}"
        )


def encode_verdicts(request_id: int, verdicts: "np.ndarray") -> bytes:
    """A ``VERDICTS`` frame: one byte per click, batch order."""
    payload = np.asarray(verdicts, dtype=bool).astype(np.uint8).tobytes()
    return encode_frame(FRAME_VERDICTS, request_id, payload)


def decode_verdicts_payload(payload: bytes) -> "np.ndarray":
    """Invert :func:`encode_verdicts` into a bool array."""
    return np.frombuffer(payload, dtype=np.uint8).astype(bool)


# ----------------------------------------------------------------------
# JSONL mode
# ----------------------------------------------------------------------

def encode_jsonl_line(message: dict) -> bytes:
    """One newline-delimited JSON message."""
    return json.dumps(message, separators=(",", ":")).encode("utf-8") + b"\n"


def decode_jsonl_line(line: bytes) -> dict:
    """Parse one JSONL message; :class:`ProtocolError` on garbage."""
    try:
        message = json.loads(line)
    except ValueError as error:
        raise ProtocolError(f"bad JSON line: {error}") from error
    if not isinstance(message, dict):
        raise ProtocolError(
            f"JSONL message must be an object, got {type(message).__name__}"
        )
    return message

"""Worker-process main loop for the parallel detection engine.

Each worker owns one hash-partitioned shard: it receives the shard's
checkpoint blob over its control pipe at startup (so the worker starts
from *bit-identical* state, whatever the start method), then serves a
command stream from its request ring:

* ``OP_INDICES`` — a pre-hashed batch: a ``(count, k)`` uint64 index
  array.  The router already evaluated the hash family, so the worker
  only probes/sets — it tallies the hash evaluations (to keep summed
  :class:`~repro.bitset.words.OperationCounter` totals bit-identical to
  a single-process run) and calls ``process_indices_batch``.
* ``OP_IDS`` — raw identifiers, for shard detectors without a
  pre-hashable batch path; the worker hashes locally.
* ``OP_IDS_TS`` — identifiers + timestamps for time-based shards (the
  hash is evaluated inside the unit-grouped batch kernel, so there is
  no separable pre-hash entry point).

Both raw ops go through the shard's ``observe_batch``.
* ``OP_CHECKPOINT`` / ``OP_TELEMETRY`` / ``OP_OPCOUNTS`` — control
  commands answered over the pipe.  Because they travel through the
  same FIFO ring as batches, reaching one means every earlier batch has
  been fully applied — the ring *is* the quiescence barrier.
* ``OP_STOP`` — acknowledge and exit.

Verdict batches return through the response ring as one bool byte per
click.  Failure discipline: any exception is reported over the pipe as
``("error", traceback)`` and the worker exits — the engine decides
whether that propagates (deterministic data errors such as a regressing
timestamp) or triggers respawn-from-checkpoint (unclean death).
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core.checkpoint import load_detector, save_detector
from ..telemetry.requesttrace import SpanShardWriter, new_span_id
from .ring import BatchRing, RingSpec

__all__ = [
    "OP_STOP",
    "OP_INDICES",
    "OP_IDS",
    "OP_IDS_TS",
    "OP_CHECKPOINT",
    "OP_TELEMETRY",
    "OP_OPCOUNTS",
    "OP_VERDICTS",
    "WorkerSpec",
    "shard_worker_main",
]

OP_STOP = 0
OP_INDICES = 1
OP_IDS = 2
OP_IDS_TS = 3
OP_CHECKPOINT = 4
OP_TELEMETRY = 5
OP_OPCOUNTS = 6
OP_VERDICTS = 7

#: Poll granularity for ring waits; each expiry re-checks parent liveness.
_POLL_SECONDS = 0.2


@dataclass
class WorkerSpec:
    """Startup bundle for one worker (picklable under every start method)."""

    index: int
    request: RingSpec
    response: RingSpec
    conn: object  # child end of the control pipe
    #: When set, the worker appends a span shard here for every batch
    #: whose ring slot carried a nonzero trace context (sampled tracing).
    trace_dir: Optional[str] = None


def _op_counts(detector) -> dict:
    counter = detector.counter
    return {
        "word_reads": counter.word_reads,
        "word_writes": counter.word_writes,
        "hash_evaluations": counter.hash_evaluations,
        "elements": counter.elements,
        "duplicates": getattr(detector, "duplicates", 0),
    }


def _apply_op_counts(detector, counts: dict) -> None:
    """Seed a freshly loaded detector with its predecessor's counters.

    Checkpoint blobs deliberately omit the :class:`OperationCounter`
    (profiling metadata, not sketch state), but a *respawned* worker must
    continue the dead worker's totals or the engine's summed counts
    would diverge from an uninterrupted run."""
    counter = detector.counter
    counter.word_reads = int(counts["word_reads"])
    counter.word_writes = int(counts["word_writes"])
    counter.hash_evaluations = int(counts["hash_evaluations"])
    counter.elements = int(counts["elements"])


def _parent_alive() -> bool:
    parent = multiprocessing.parent_process()
    return parent is None or parent.is_alive()


def _push_verdicts(ring: BatchRing, verdicts: "np.ndarray") -> bool:
    """Blocking push of one verdict batch; False if the parent vanished."""
    payload = np.ascontiguousarray(verdicts, dtype=bool).tobytes()
    while not ring.push(
        OP_VERDICTS, (payload,), count=len(payload), timeout=_POLL_SECONDS
    ):
        if not _parent_alive():
            return False
    return True


def shard_worker_main(spec: WorkerSpec) -> None:
    """Entry point run in the child process (top-level for ``spawn``)."""
    conn = spec.conn
    request = BatchRing.attach(spec.request)
    response = BatchRing.attach(spec.response)
    spans = (
        SpanShardWriter(spec.trace_dir, f"worker-{spec.index}")
        if spec.trace_dir
        else None
    )
    try:
        blob, counts = conn.recv()
        detector = load_detector(blob)
        if counts is not None:
            _apply_op_counts(detector, counts)
        _serve(detector, request, response, conn, spans)
    except (EOFError, BrokenPipeError, KeyboardInterrupt):  # pragma: no cover
        pass
    except Exception:  # noqa: BLE001 - report, then die; the engine decides
        try:
            conn.send(("error", traceback.format_exc()))
        except (OSError, BrokenPipeError):  # pragma: no cover
            pass
    finally:
        if spans is not None:
            spans.close()
        request.close()
        response.close()
        try:
            conn.close()
        except OSError:  # pragma: no cover
            pass


def _serve(
    detector,
    request: BatchRing,
    response: BatchRing,
    conn,
    spans: Optional[SpanShardWriter] = None,
) -> None:
    process_indices_batch = getattr(detector, "process_indices_batch", None)

    while True:
        popped = request.pop(timeout=_POLL_SECONDS)
        if popped is None:
            if not _parent_alive():
                return
            continue
        op, count, num_hashes, payload = popped

        if op == OP_STOP:
            request.release_slot()
            conn.send(("stopped", None))
            return

        if op == OP_CHECKPOINT:
            request.release_slot()
            # The counter snapshot rides along so a respawn from this
            # checkpoint continues the same operation totals.
            conn.send(("checkpoint", (save_detector(detector), _op_counts(detector))))
            continue

        if op == OP_TELEMETRY:
            request.release_slot()
            conn.send(("telemetry", detector.telemetry_snapshot()))
            continue

        if op == OP_OPCOUNTS:
            request.release_slot()
            conn.send(("opcounts", _op_counts(detector)))
            continue

        trace_id, parent_span = request.last_trace
        traced = spans is not None and trace_id != 0
        if traced:
            span_wall = time.time()
            span_t0 = time.perf_counter()

        if op == OP_INDICES:
            indices = np.frombuffer(
                payload, dtype=np.uint64, count=count * num_hashes
            ).reshape(count, num_hashes)
            # Replicate process_batch exactly: it tallies the hash
            # evaluations before delegating to the index kernel, so the
            # summed counters match the single-process run bit for bit.
            detector.counter.hash_evaluations += count * num_hashes
            verdicts = process_indices_batch(indices)
        elif op in (OP_IDS, OP_IDS_TS):
            identifiers = np.frombuffer(payload, dtype=np.uint64, count=count)
            timestamps = (
                np.frombuffer(payload, dtype=np.float64, count=count, offset=count * 8)
                if op == OP_IDS_TS
                else None
            )
            verdicts = detector.observe_batch(identifiers, timestamps)
        else:
            request.release_slot()
            raise RuntimeError(f"unknown ring op {op}")

        if traced:
            spans.write(
                "worker.shard_batch",
                trace_id,
                new_span_id(),
                parent_id=parent_span,
                start=span_wall,
                duration=time.perf_counter() - span_t0,
                clicks=count,
                op=op,
            )

        # The verdict array no longer references the slot (batch kernels
        # copy on dtype conversion), so free it before the response push
        # can block.
        request.release_slot()
        if not _push_verdicts(response, verdicts):
            return

"""Multi-core parallel detection engine: process-backed shards.

The single-process sharded detectors in :mod:`repro.detection.sharded`
prove the semantics — identifier-partitioned dedup needs no cross-shard
communication on the hot path — but they still execute every shard's
probe/set work on one core.  This module keeps the exact same
partitioning and moves each shard into its own worker process:

* The **router** (parent) stays the only place that sees the stream.
  It routes a batch with one vectorized :func:`~repro.detection.sharded.route_batch`
  call, evaluates each shard's hash family once
  (:func:`~repro.hashing.vectorized.precompute_indices`), and writes the
  pre-hashed sub-batches into per-worker shared-memory rings
  (:class:`~repro.parallel.ring.BatchRing`).  Workers only probe/set.
* **Verdicts** come back through response rings and are scattered into
  the output array at the positions the stable shard-group sort
  recorded, so the caller sees exact stream-order verdicts.
* **Semantics are bit-identical** to the single-process detectors:
  verdicts, per-shard checkpoint blobs, and summed
  :class:`~repro.bitset.words.OperationCounter` totals all match a
  :class:`~repro.detection.sharded.ShardedDetector` run (property-tested
  in ``tests/test_parallel_engine.py``).

Supervision: every completed sub-batch is journaled in the router until
the next per-worker checkpoint.  When a worker dies uncleanly (SIGKILL,
OOM), the engine respawns it from its last checkpoint blob and replays
the journal — deterministic one-pass detectors make the replay exact,
so an interrupted run finishes with the same state and duplicate counts
as an uninterrupted one.  When respawn is disabled or exhausted, the
shard degrades under the same fail-open / fail-closed policies as the
in-process detectors.  Deterministic *data* errors raised inside a
worker (e.g. a regressing timestamp) propagate as
:class:`~repro.errors.ParallelError` instead of triggering respawn —
replaying them would fail identically.

Checkpointing is two-phase and rides the rings' FIFO ordering: phase 1
pushes a checkpoint command down every healthy worker's request ring
(everything sent earlier is necessarily applied by the time the worker
answers — the ring is the quiescence barrier) and gathers the per-shard
blobs; phase 2 commits one manifest frame holding the blobs plus the
router's own state (arrival counts, degraded map, engine options).  The
manifest registers as checkpoint kind ``parallel-sharded`` (blobs of the
retired ``parallel-time-sharded`` kind still load), so
:class:`~repro.resilience.SupervisedPipeline` journals a parallel
deployment exactly like a single detector — and a restore *respawns the
fleet* from the manifest.
"""

from __future__ import annotations

import multiprocessing
import time
from typing import Callable, Dict, List, Optional, Union

import numpy as np

from ..core.checkpoint import (
    load_detector,
    pack_frame,
    register_checkpoint_kind,
    register_retired_kind,
    save_detector,
)
from ..core.contract import batch_arrays, require_timestamps
from ..errors import CheckpointError, ConfigurationError, ParallelError
from ..detection.sharded import (
    FailoverPolicy,
    ShardedDetector,
    _split_shard_blobs,
    route_batch,
    shard_groups,
)
from ..hashing.vectorized import precompute_indices
from ..telemetry.requesttrace import current_trace
from .ring import BatchRing
from .worker import (
    _op_counts as _shard_counts,
    OP_CHECKPOINT,
    OP_IDS,
    OP_IDS_TS,
    OP_INDICES,
    OP_OPCOUNTS,
    OP_STOP,
    OP_TELEMETRY,
    OP_VERDICTS,
    WorkerSpec,
    shard_worker_main,
)

__all__ = [
    "ParallelShardedDetector",
    "lift_sharded",
]


class _WorkerDied(Exception):
    """Internal: a worker went away uncleanly (no error report)."""


class _WorkerState:
    """Parent-side handle for one shard's worker process."""

    __slots__ = (
        "index",
        "process",
        "conn",
        "request",
        "response",
        "outstanding",
        "collected",
        "pieces_expected",
        "txn",
        "last_checkpoint",
        "last_counts",
        "journal",
        "items_since_checkpoint",
        "respawns",
    )

    def __init__(self, index: int, blob: bytes, counts: Optional[dict]) -> None:
        self.index = index
        self.process = None
        self.conn = None
        self.request: Optional[BatchRing] = None
        self.response: Optional[BatchRing] = None
        self.outstanding = 0
        self.collected: List[np.ndarray] = []
        self.pieces_expected = 0
        self.txn = None  # (ids, timestamps) of the in-flight sub-batch
        self.last_checkpoint = blob
        # Counter snapshot paired with last_checkpoint: blobs omit the
        # OperationCounter, so respawned workers are seeded from this to
        # keep summed totals identical to an uninterrupted run.
        self.last_counts = counts
        self.journal: List[tuple] = []
        self.items_since_checkpoint = 0
        self.respawns = 0


class ParallelShardedDetector:
    """Sharded detection across worker processes, for either time model.

    Drop-in for :class:`~repro.detection.sharded.ShardedDetector` on the
    detector contract (``timed`` / ``observe`` / ``observe_batch``),
    with bit-identical verdicts, checkpoint states, and summed op
    counts.  Time-based fleets keep exact window semantics: the global
    clock travels with every batch.

    Parameters
    ----------
    base:
        The single-process sharded detector whose shards this engine
        runs in worker processes.  Its current state seeds the workers
        (via checkpoint blobs, so the hand-off is bit-exact); with
        ``close(sync=True)`` the final worker states are written back
        into it.  Only the default router is supported — the router must
        be replayable in the parent and round-trip through checkpoints.
    start_method:
        ``multiprocessing`` start method (``None`` = platform default;
        ``"spawn"`` is the strictest and the macOS default).
    slots / slot_items:
        Ring geometry: ``slots`` in-flight sub-batches per worker, each
        of at most ``slot_items`` clicks.  Larger sub-batches are split.
    respawn / max_respawns:
        Whether (and how many times per worker) an uncleanly dead worker
        is respawned from its last checkpoint with journal replay.
    death_policy:
        Failover policy a shard degrades to once respawn is exhausted
        or disabled (same semantics as ``ShardedDetector.fail_shard``).
    checkpoint_every_items:
        Pull a per-worker checkpoint after this many clicks on a shard,
        bounding the replay journal (0 = only explicit checkpoints).
    worker_timeout:
        Seconds a ring or control transfer may stall before the engine
        declares the worker wedged (the deadlock guard).
    trace_dir:
        When set, workers append span shards here for sampled-traced
        batches (the trace context rides the ring slot headers — see
        :mod:`repro.telemetry.requesttrace`).  Runtime-only: it is
        deliberately *not* serialized into checkpoints, so a restored
        fleet traces only if its restorer asks for it.
    """

    def __init__(
        self,
        base,
        *,
        start_method: Optional[str] = None,
        slots: int = 4,
        slot_items: int = 8192,
        respawn: bool = True,
        max_respawns: int = 3,
        death_policy: Union[FailoverPolicy, str] = FailoverPolicy.FAIL_CLOSED,
        checkpoint_every_items: int = 1 << 16,
        worker_timeout: float = 60.0,
        trace_dir: Optional[str] = None,
    ) -> None:
        if type(base) is not ShardedDetector:
            raise ConfigurationError(
                f"{type(self).__name__} wraps a ShardedDetector, "
                f"got {type(base).__name__}"
            )
        if not base._router_is_default:
            raise ConfigurationError(
                "the parallel engine requires the default router (custom "
                "routers cannot be replayed for respawn or checkpointing)"
            )
        if slots < 2:
            raise ConfigurationError(f"slots must be >= 2, got {slots}")
        if slot_items < 1:
            raise ConfigurationError(f"slot_items must be >= 1, got {slot_items}")
        if max_respawns < 0:
            raise ConfigurationError(f"max_respawns must be >= 0, got {max_respawns}")
        if checkpoint_every_items < 0:
            raise ConfigurationError(
                f"checkpoint_every_items must be >= 0, got {checkpoint_every_items}"
            )
        self.base = base
        self.timed = base.timed
        self.start_method = start_method
        self.slots = slots
        self.slot_items = slot_items
        self.respawn = respawn
        self.max_respawns = max_respawns
        self.death_policy = FailoverPolicy(death_policy)
        self.checkpoint_every_items = checkpoint_every_items
        self.worker_timeout = worker_timeout
        self.trace_dir = trace_dir
        self._poll = 0.05
        self._ctx = multiprocessing.get_context(start_method)
        self._closed = False

        # Transport plan per shard: pre-hashed indices whenever the
        # shard exposes the index kernel (the router then hashes once
        # and workers only probe/set); identifiers+timestamps for
        # time-based shards; raw identifiers otherwise.
        self._families = []
        self._ops = []
        self._bytes_per_item = []
        for shard in base.shards:
            family = getattr(shard, "family", None)
            if self.timed:
                op, width = OP_IDS_TS, 16
            elif family is not None and hasattr(shard, "process_indices_batch"):
                op, width = OP_INDICES, 8 * family.num_hashes
            else:
                op, width = OP_IDS, 8
            self._families.append(family)
            self._ops.append(op)
            self._bytes_per_item.append(width)

        # Failover bookkeeping mirrors _ShardFailover, lifted from base.
        self._degraded: Dict[int, Dict[str, object]] = {
            shard: {"policy": entry["policy"], "clicks": int(entry["clicks"])}
            for shard, entry in base._degraded.items()
        }
        self._per_shard_arrivals = list(base._per_shard_arrivals)
        self.worker_deaths = 0
        self.worker_respawns = 0
        self._death_counter = None
        self._respawn_counter = None
        self._failover_counter = None

        self._workers: List[_WorkerState] = []
        try:
            for index, shard in enumerate(base.shards):
                state = _WorkerState(index, save_detector(shard), _shard_counts(shard))
                self._workers.append(state)
                self._spawn(state)
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------

    def _spawn(self, state: _WorkerState) -> None:
        request = BatchRing.create(
            self._ctx, self.slots, self.slot_items * self._bytes_per_item[state.index]
        )
        response = BatchRing.create(self._ctx, self.slots, max(8, self.slot_items))
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=shard_worker_main,
            args=(
                WorkerSpec(
                    state.index,
                    request.spec,
                    response.spec,
                    child_conn,
                    trace_dir=self.trace_dir,
                ),
            ),
            name=f"repro-shard-{state.index}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        parent_conn.send((state.last_checkpoint, state.last_counts))
        state.process = process
        state.conn = parent_conn
        state.request = request
        state.response = response
        state.outstanding = 0
        state.collected = []
        state.pieces_expected = 0

    def _teardown(self, state: _WorkerState) -> None:
        if state.process is not None and state.process.is_alive():
            state.process.terminate()
            state.process.join(timeout=5.0)
            if state.process.is_alive():  # pragma: no cover - last resort
                state.process.kill()
                state.process.join(timeout=5.0)
        for attribute in ("conn",):
            conn = getattr(state, attribute)
            if conn is not None:
                try:
                    conn.close()
                except OSError:  # pragma: no cover
                    pass
                setattr(state, attribute, None)
        for attribute in ("request", "response"):
            ring = getattr(state, attribute)
            if ring is not None:
                ring.close()
                setattr(state, attribute, None)
        if state.process is not None:
            state.process = None

    def _record_death(self, state: _WorkerState) -> None:
        self.worker_deaths += 1
        if self._death_counter is not None:
            self._death_counter.inc()

    def _ensure_worker(self, state: _WorkerState) -> bool:
        """Respawn ``state``'s worker from its last checkpoint and replay
        the journal; False when respawn is disabled or exhausted (the
        caller then degrades the shard)."""
        while True:
            self._record_death(state)
            if not self.respawn or state.respawns >= self.max_respawns:
                return False
            state.respawns += 1
            self.worker_respawns += 1
            if self._respawn_counter is not None:
                self._respawn_counter.inc()
            self._teardown(state)
            self._spawn(state)
            try:
                for ids, timestamps in state.journal:
                    self._run_sync(state, ids, timestamps)
                return True
            except _WorkerDied:
                continue

    def _degrade(self, shard: int) -> None:
        self._degraded[shard] = {"policy": self.death_policy, "clicks": 0}
        if self._failover_counter is not None:
            self._failover_counter.labels(policy=self.death_policy.value).inc()

    def fail_worker(
        self, shard: int, policy: Union[FailoverPolicy, str, None] = None
    ) -> None:
        """Explicitly degrade a shard (stops routing clicks to its worker)."""
        self._check_shard(shard)
        policy = FailoverPolicy(policy) if policy is not None else self.death_policy
        self._degraded[shard] = {"policy": policy, "clicks": 0}
        if self._failover_counter is not None:
            self._failover_counter.labels(policy=policy.value).inc()

    def restore_worker(self, shard: int, blob: Optional[bytes] = None) -> int:
        """End a shard's degraded window, respawning its worker.

        Restores from ``blob`` when given, else from the worker's last
        checkpoint.  Returns the clicks answered by policy while
        degraded (mirrors ``ShardedDetector.restore_shard``).
        """
        self._check_shard(shard)
        state = self._workers[shard]
        if blob is not None:
            state.last_checkpoint = blob
            # An external blob carries no counter snapshot — the rebuilt
            # worker starts fresh, matching ShardedDetector.restore_shard.
            state.last_counts = None
            state.journal = []
            state.items_since_checkpoint = 0
        self._teardown(state)
        self._spawn(state)
        try:
            for ids, timestamps in state.journal:
                self._run_sync(state, ids, timestamps)
        except _WorkerDied as error:
            raise ParallelError(
                f"worker {shard} died again during restore replay"
            ) from error
        entry = self._degraded.pop(shard, None)
        return int(entry["clicks"]) if entry is not None else 0

    def _check_shard(self, shard: int) -> None:
        if not 0 <= shard < len(self._workers):
            raise ConfigurationError(
                f"shard index {shard} out of range [0, {len(self._workers)})"
            )

    # ------------------------------------------------------------------
    # Ring + pipe transfer primitives (all with the deadlock guard)
    # ------------------------------------------------------------------

    def _check_alive(self, state: _WorkerState) -> None:
        conn = state.conn
        if conn is not None and conn.poll(0):
            try:
                tag, value = conn.recv()
            except (EOFError, OSError) as error:
                raise _WorkerDied from error
            if tag == "error":
                raise ParallelError(f"worker {state.index} failed:\n{value}")
            raise ParallelError(
                f"worker {state.index} sent unexpected {tag!r} message"
            )
        if state.process is None or not state.process.is_alive():
            raise _WorkerDied

    def _push(
        self, state: _WorkerState, op: int, parts=(), count: int = 0, k: int = 0
    ) -> None:
        # The installed trace context (set by the serve engine around a
        # sampled group's detector call) rides the slot header into the
        # worker; (0, 0) — the overwhelmingly common case — means the
        # worker skips span writing entirely.
        trace_id, span_id = current_trace()
        deadline = time.monotonic() + self.worker_timeout
        while not state.request.push(
            op,
            parts,
            count=count,
            num_hashes=k,
            timeout=self._poll,
            trace_id=trace_id,
            span_id=span_id,
        ):
            self._check_alive(state)
            if time.monotonic() > deadline:
                raise ParallelError(
                    f"worker {state.index} request ring stalled for "
                    f"{self.worker_timeout:.0f}s (deadlock guard)"
                )

    def _pop_verdicts(self, state: _WorkerState) -> np.ndarray:
        deadline = time.monotonic() + self.worker_timeout
        while True:
            popped = state.response.pop(timeout=self._poll)
            if popped is not None:
                op, count, _, payload = popped
                if op != OP_VERDICTS:  # pragma: no cover - protocol guard
                    state.response.release_slot()
                    raise ParallelError(f"worker {state.index} sent ring op {op}")
                verdicts = np.frombuffer(payload, dtype=bool, count=count).copy()
                state.response.release_slot()
                state.outstanding -= 1
                return verdicts
            self._check_alive(state)
            if time.monotonic() > deadline:
                raise ParallelError(
                    f"worker {state.index} produced no verdicts for "
                    f"{self.worker_timeout:.0f}s (deadlock guard)"
                )

    def _await_control(self, state: _WorkerState, tag: str):
        deadline = time.monotonic() + self.worker_timeout
        while True:
            if state.conn.poll(self._poll):
                try:
                    got, value = state.conn.recv()
                except (EOFError, OSError) as error:
                    raise _WorkerDied from error
                if got == "error":
                    raise ParallelError(f"worker {state.index} failed:\n{value}")
                if got != tag:
                    raise ParallelError(
                        f"worker {state.index} answered {got!r}, expected {tag!r}"
                    )
                return value
            if state.process is None or not state.process.is_alive():
                raise _WorkerDied
            if time.monotonic() > deadline:
                raise ParallelError(
                    f"worker {state.index} did not answer {tag!r} within "
                    f"{self.worker_timeout:.0f}s"
                )

    # ------------------------------------------------------------------
    # Sub-batch transactions
    # ------------------------------------------------------------------

    def _encode(self, shard: int, ids: np.ndarray, timestamps):
        """Slot payload for one piece, per the shard's transport plan."""
        op = self._ops[shard]
        if op == OP_INDICES:
            indices = precompute_indices(self._families[shard], ids)
            return op, (np.ascontiguousarray(indices, dtype=np.uint64).tobytes(),), int(
                indices.shape[1]
            )
        if op == OP_IDS_TS:
            return op, (ids.tobytes(), timestamps.tobytes()), 0
        return op, (ids.tobytes(),), 0

    def _dispatch(self, state: _WorkerState, ids: np.ndarray, timestamps) -> None:
        """Send one sub-batch (split into slot-sized pieces), without
        waiting for its verdicts; pops opportunistically when the ring
        is full so dispatching to many workers never deadlocks."""
        state.txn = (ids, timestamps)
        state.collected = []
        state.pieces_expected = 0
        shard = state.index
        step = self.slot_items
        for start in range(0, ids.shape[0], step):
            piece_ids = ids[start : start + step]
            piece_ts = timestamps[start : start + step] if timestamps is not None else None
            op, parts, k = self._encode(shard, piece_ids, piece_ts)
            while state.outstanding >= self.slots:
                state.collected.append(self._pop_verdicts(state))
            self._push(state, op, parts, count=piece_ids.shape[0], k=k)
            state.outstanding += 1
            state.pieces_expected += 1

    def _collect(self, state: _WorkerState) -> np.ndarray:
        """Gather the in-flight sub-batch's verdicts, journal it, and
        honour the checkpoint cadence."""
        while len(state.collected) < state.pieces_expected:
            state.collected.append(self._pop_verdicts(state))
        ids, timestamps = state.txn
        verdicts = (
            state.collected[0]
            if len(state.collected) == 1
            else np.concatenate(state.collected)
        )
        state.txn = None
        state.collected = []
        state.pieces_expected = 0
        state.journal.append((ids, timestamps))
        state.items_since_checkpoint += ids.shape[0]
        if (
            self.checkpoint_every_items
            and state.items_since_checkpoint >= self.checkpoint_every_items
        ):
            self._pull_checkpoint(state)
        return verdicts

    def _run_sync(self, state: _WorkerState, ids: np.ndarray, timestamps) -> np.ndarray:
        """Piece-by-piece push/pop of one sub-batch (replay/recovery path).

        Does not journal — callers replaying the journal must not grow it.
        """
        out: List[np.ndarray] = []
        step = self.slot_items
        shard = state.index
        for start in range(0, ids.shape[0], step):
            piece_ids = ids[start : start + step]
            piece_ts = timestamps[start : start + step] if timestamps is not None else None
            op, parts, k = self._encode(shard, piece_ids, piece_ts)
            self._push(state, op, parts, count=piece_ids.shape[0], k=k)
            state.outstanding += 1
            out.append(self._pop_verdicts(state))
        return out[0] if len(out) == 1 else np.concatenate(out)

    def _recover_txn(self, state: _WorkerState) -> Optional[np.ndarray]:
        """After an unclean death: respawn + replay, then rerun the
        in-flight sub-batch.  ``None`` means the shard degraded."""
        ids, timestamps = state.txn
        state.txn = None
        state.collected = []
        state.pieces_expected = 0
        while True:
            if not self._ensure_worker(state):
                self._degrade(state.index)
                entry = self._degraded[state.index]
                entry["clicks"] = int(entry["clicks"]) + int(ids.shape[0])
                return None
            try:
                verdicts = self._run_sync(state, ids, timestamps)
            except _WorkerDied:
                continue
            state.journal.append((ids, timestamps))
            state.items_since_checkpoint += ids.shape[0]
            if (
                self.checkpoint_every_items
                and state.items_since_checkpoint >= self.checkpoint_every_items
            ):
                self._pull_checkpoint(state)
            return verdicts

    def _policy_verdicts(self, shard: int, count: int) -> np.ndarray:
        policy = self._degraded[shard]["policy"]
        return np.full(count, policy is FailoverPolicy.FAIL_CLOSED, dtype=bool)

    def _shard_batch(self, shard: int, ids: np.ndarray, timestamps) -> np.ndarray:
        """One complete sub-batch transaction against one worker."""
        state = self._workers[shard]
        try:
            self._dispatch(state, ids, timestamps)
            return self._collect(state)
        except _WorkerDied:
            verdicts = self._recover_txn(state)
            if verdicts is None:
                return self._policy_verdicts(shard, ids.shape[0])
            return verdicts

    def _process_grouped(self, identifiers: np.ndarray, timestamps) -> np.ndarray:
        """Route, fan out to all workers, then gather in shard order."""
        out = np.empty(identifiers.shape[0], dtype=bool)
        if identifiers.shape[0] == 0:
            return out
        shard_of = route_batch(identifiers, len(self._workers))
        pending = []
        for shard, positions in shard_groups(shard_of):
            count = int(positions.shape[0])
            self._per_shard_arrivals[shard] += count
            entry = self._degraded.get(shard)
            if entry is not None:
                entry["clicks"] = int(entry["clicks"]) + count
                out[positions] = entry["policy"] is FailoverPolicy.FAIL_CLOSED
                continue
            ids = identifiers[positions]
            ts = timestamps[positions] if timestamps is not None else None
            state = self._workers[shard]
            try:
                self._dispatch(state, ids, ts)
            except _WorkerDied:
                verdicts = self._recover_txn(state)
                out[positions] = (
                    self._policy_verdicts(shard, count)
                    if verdicts is None
                    else verdicts
                )
                continue
            pending.append((state, positions))
        for state, positions in pending:
            try:
                verdicts = self._collect(state)
            except _WorkerDied:
                verdicts = self._recover_txn(state)
                if verdicts is None:
                    verdicts = self._policy_verdicts(
                        state.index, int(positions.shape[0])
                    )
            out[positions] = verdicts
        return out

    # ------------------------------------------------------------------
    # The detector contract
    # ------------------------------------------------------------------

    def observe(self, identifier: int, timestamp: Optional[float] = None) -> bool:
        """One click (one ring round-trip — prefer :meth:`observe_batch`
        on the hot path)."""
        if self.timed:
            require_timestamps(self, timestamp, "observe")
        shard = self.base.router(identifier)
        self._per_shard_arrivals[shard] += 1
        entry = self._degraded.get(shard)
        if entry is not None:
            entry["clicks"] = int(entry["clicks"]) + 1
            return entry["policy"] is FailoverPolicy.FAIL_CLOSED
        ids = np.asarray([identifier], dtype=np.uint64)
        timestamps = (
            np.asarray([timestamp], dtype=np.float64) if self.timed else None
        )
        return bool(self._shard_batch(shard, ids, timestamps)[0])

    def observe_batch(self, identifiers, timestamps=None) -> np.ndarray:
        return self._process_grouped(*batch_arrays(self, identifiers, timestamps))

    def load_imbalance(self) -> float:
        total = sum(self._per_shard_arrivals)
        if total == 0:
            return 1.0
        return max(self._per_shard_arrivals) / (total / len(self._workers))

    def shard_arrivals(self) -> List[int]:
        return list(self._per_shard_arrivals)

    # ------------------------------------------------------------------
    # Checkpointing (two-phase) and state sync
    # ------------------------------------------------------------------

    def _pull_checkpoint(self, state: _WorkerState) -> bytes:
        """Fetch one worker's blob (quiesced by ring order) and truncate
        its replay journal."""
        while True:
            try:
                self._push(state, OP_CHECKPOINT)
                blob, counts = self._await_control(state, "checkpoint")
            except _WorkerDied:
                if not self._ensure_worker(state):
                    self._degrade(state.index)
                    return state.last_checkpoint
                continue
            state.last_checkpoint = blob
            state.last_counts = counts
            state.journal = []
            state.items_since_checkpoint = 0
            return blob

    def quiesce(self) -> None:
        """Drain every ring: collect any outstanding verdict batches.

        Between ``observe_batch`` calls the engine is already quiet (the
        hot path gathers what it sends), so this is a cheap invariant
        check — but supervisors call it before checkpointing so the
        two-phase snapshot never races an in-flight batch.
        """
        for state in self._workers:
            while state.outstanding > 0:  # pragma: no cover - defensive
                state.collected.append(self._pop_verdicts(state))

    def resume(self) -> None:
        """Lifecycle counterpart of :meth:`quiesce` (see
        :class:`~repro.detection.api.DetectorLifecycle`).  The rings
        accept work whenever they have free slots, so leaving the
        quiesced state needs no action."""

    def spec(self):
        """One :class:`~repro.detection.DetectorSpec` rebuilding this fleet.

        Delegates to the base sharded detector (worker configuration is
        fixed at construction, so the stale base states do not matter)
        and stamps ``engine="parallel"``.
        """
        from dataclasses import replace

        return replace(self.base.spec(), engine="parallel")

    def _gather_blobs(self) -> List[bytes]:
        """Phase 1: quiesce + collect a consistent blob per shard.

        Checkpoint commands are fanned out to every healthy worker
        first, then the answers are gathered — the workers quiesce and
        serialize concurrently.  Degraded shards contribute their last
        checkpoint (their live sketch is gone, exactly as in the
        single-process failover model).
        """
        self.quiesce()
        blobs: List[Optional[bytes]] = [None] * len(self._workers)
        gathering = []
        for state in self._workers:
            if state.index in self._degraded:
                blobs[state.index] = state.last_checkpoint
                continue
            try:
                self._push(state, OP_CHECKPOINT)
            except _WorkerDied:
                blobs[state.index] = self._pull_after_death(state)
                continue
            gathering.append(state)
        for state in gathering:
            try:
                blob, counts = self._await_control(state, "checkpoint")
            except _WorkerDied:
                blobs[state.index] = self._pull_after_death(state)
                continue
            state.last_checkpoint = blob
            state.last_counts = counts
            state.journal = []
            state.items_since_checkpoint = 0
            blobs[state.index] = blob
        return blobs

    def _pull_after_death(self, state: _WorkerState) -> bytes:
        if not self._ensure_worker(state):
            self._degrade(state.index)
            return state.last_checkpoint
        return self._pull_checkpoint(state)

    def checkpoint_shard(self, shard: int) -> bytes:
        """Snapshot one shard's sketch (API parity with ShardedDetector)."""
        self._check_shard(shard)
        state = self._workers[shard]
        if shard in self._degraded:
            return state.last_checkpoint
        return self._pull_checkpoint(state)

    def _failover_header(self) -> Dict[str, Dict[str, object]]:
        return {
            str(shard): {"policy": entry["policy"].value, "clicks": entry["clicks"]}
            for shard, entry in self._degraded.items()
        }

    def _options(self) -> Dict[str, object]:
        # trace_dir is runtime-only and deliberately absent: a manifest
        # restored on another host must not try to write span shards to
        # a path that belonged to the recording run.
        return {
            "start_method": self.start_method,
            "slots": self.slots,
            "slot_items": self.slot_items,
            "respawn": self.respawn,
            "max_respawns": self.max_respawns,
            "death_policy": self.death_policy.value,
            "checkpoint_every_items": self.checkpoint_every_items,
            "worker_timeout": self.worker_timeout,
        }

    def checkpoint(self) -> bytes:
        """Two-phase consistent snapshot of the whole fleet.

        Phase 1 quiesces the rings and gathers per-worker blobs
        (:meth:`_gather_blobs`); phase 2 commits them into one manifest
        frame with the router's state.  ``save_detector`` dispatches
        here, so a :class:`~repro.resilience.SupervisedPipeline` journals
        a parallel deployment like any single detector.
        """
        blobs = self._gather_blobs()
        header: Dict[str, object] = {
            "kind": "parallel-sharded",
            "workers": len(self._workers),
            "lengths": [len(blob) for blob in blobs],
            "degraded": self._failover_header(),
            "options": self._options(),
            "per_shard_arrivals": list(self._per_shard_arrivals),
        }
        return pack_frame(header, b"".join(blobs))

    def checkpoint_state(self) -> bytes:
        """Serialized fleet state: alias of :meth:`checkpoint`, the
        operational surface every in-process tier offers too."""
        return self.checkpoint()

    @classmethod
    def _from_checkpoint(cls, header: Dict[str, object], payload: bytes):
        blobs = _split_shard_blobs(header, payload)
        base = ShardedDetector([load_detector(blob) for blob in blobs])
        arrivals = header.get("per_shard_arrivals")
        if header.get("kind") == "parallel-time-sharded":
            # The retired time-based kind kept no arrival counts.
            arrivals = [0] * len(blobs)
        if not isinstance(arrivals, list) or len(arrivals) != len(blobs):
            raise CheckpointError("parallel checkpoint arrivals do not match shards")
        base._per_shard_arrivals = [int(count) for count in arrivals]
        base._restore_failover(header.get("degraded", {}))
        # The constructor accepts death_policy as its string value, so
        # the serialized options dict round-trips directly.
        return cls(base, **dict(header.get("options") or {}))

    def sync_base(self):
        """Write the workers' current state back into ``base`` and return it.

        After this the single-process detector is bit-identical to the
        fleet — the inverse of construction.
        """
        blobs = self._gather_blobs()
        for index, blob in enumerate(blobs):
            self.base.shards[index] = load_detector(blob)
        self.base._per_shard_arrivals = list(self._per_shard_arrivals)
        self.base._degraded = {
            shard: {"policy": entry["policy"], "clicks": int(entry["clicks"])}
            for shard, entry in self._degraded.items()
        }
        return self.base

    # ------------------------------------------------------------------
    # Aggregated views
    # ------------------------------------------------------------------

    def op_counts(self) -> Dict[str, int]:
        """Summed per-worker operation counters (bit-identical to the
        single-process totals; degraded shards report their last live
        values from the checkpoint they will respawn from)."""
        totals = {
            "word_reads": 0,
            "word_writes": 0,
            "hash_evaluations": 0,
            "elements": 0,
            "duplicates": 0,
        }
        for state in self._workers:
            counts = None
            if state.index not in self._degraded:
                counts = self._worker_control(state, OP_OPCOUNTS, "opcounts")
            if counts is None:
                # Degraded shard: its live sketch is gone; report the
                # totals as of the checkpoint it would respawn from.
                counts = state.last_counts or {}
            for key in totals:
                totals[key] += int(counts.get(key, 0))
        return totals

    def _worker_control(self, state: _WorkerState, op: int, tag: str):
        """One control round-trip with death handling; None if the shard
        ends up degraded."""
        while True:
            try:
                self._push(state, op)
                return self._await_control(state, tag)
            except _WorkerDied:
                if not self._ensure_worker(state):
                    self._degrade(state.index)
                    return None

    def telemetry_snapshot(self) -> Dict[str, object]:
        """Fleet-wide health: per-worker shard snapshots aggregated into
        one view, with per-worker health gauges and failover counters."""
        elements = 0
        duplicates = 0
        worst_fp = 0.0
        shards: Dict[str, Dict[str, float]] = {}
        workers: Dict[str, Dict[str, float]] = {}
        for state in self._workers:
            index = state.index
            alive = state.process is not None and state.process.is_alive()
            degraded = index in self._degraded
            snapshot = None
            if not degraded:
                snapshot = self._worker_control(state, OP_TELEMETRY, "telemetry")
                degraded = index in self._degraded  # may have just degraded
                alive = state.process is not None and state.process.is_alive()
            gauges: Dict[str, float] = {}
            if snapshot is not None:
                gauges.update(snapshot.get("gauges", {}))
                counters = snapshot.get("counters", {})
                elements += int(counters.get("elements", 0))
                duplicates += int(counters.get("duplicates", 0))
                worst_fp = max(worst_fp, float(gauges.get("estimated_fp_rate", 0.0)))
            gauges["degraded"] = 1.0 if degraded else 0.0
            gauges["alive"] = 1.0 if alive else 0.0
            gauges["respawns"] = float(state.respawns)
            shards[str(index)] = gauges
            workers[str(index)] = {
                "alive": 1.0 if alive else 0.0,
                "respawns": float(state.respawns),
                "degraded": 1.0 if degraded else 0.0,
                "journal_batches": float(len(state.journal)),
            }
        snapshot = {
            "gauges": {
                "estimated_fp_rate": worst_fp,
                "observed_duplicate_rate": duplicates / elements if elements else 0.0,
                "degraded_shards": float(len(self._degraded)),
                "workers_alive": sum(entry["alive"] for entry in workers.values()),
            },
            "counters": {
                "elements": elements,
                "duplicates": duplicates,
                "worker_deaths": self.worker_deaths,
                "worker_respawns": self.worker_respawns,
            },
            "shards": shards,
            "workers": workers,
        }
        snapshot["gauges"]["load_imbalance"] = self.load_imbalance()
        return snapshot

    def attach_telemetry(self, registry) -> None:
        """Route worker deaths/respawns/failovers through a registry."""
        self._death_counter = registry.counter(
            "repro_worker_deaths_total", "Worker processes lost uncleanly"
        )
        self._respawn_counter = registry.counter(
            "repro_worker_respawns_total",
            "Workers respawned from their last checkpoint",
        )
        self._failover_counter = registry.counter(
            "repro_shard_failovers_total",
            "Shards declared lost, by failover policy",
            labels=("policy",),
        )

    # -- introspection --------------------------------------------------

    @property
    def num_shards(self) -> int:
        return len(self._workers)

    @property
    def num_workers(self) -> int:
        return len(self._workers)

    @property
    def memory_bits(self) -> int:
        return self.base.memory_bits

    def degraded_shards(self) -> Dict[int, Dict[str, object]]:
        return {
            shard: {"policy": entry["policy"].value, "clicks": entry["clicks"]}
            for shard, entry in self._degraded.items()
        }

    @property
    def is_degraded(self) -> bool:
        return bool(self._degraded)

    def worker_pids(self) -> List[Optional[int]]:
        return [
            state.process.pid if state.process is not None else None
            for state in self._workers
        ]

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------

    def close(self, sync: bool = False) -> None:
        """Stop the fleet.  With ``sync=True``, first write the workers'
        final state back into ``base`` (see :meth:`sync_base`)."""
        if self._closed:
            return
        if sync:
            self.sync_base()
        for state in self._workers:
            if (
                state.process is not None
                and state.process.is_alive()
                and state.index not in self._degraded
            ):
                try:
                    if state.request.push(OP_STOP, timeout=0.5):
                        self._await_control(state, "stopped")
                except (ParallelError, _WorkerDied, OSError):
                    pass
        for state in self._workers:
            self._teardown(state)
        self._closed = True

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass


def lift_sharded(detector, workers: Optional[int] = None, **options):
    """Lift a single-process sharded detector into a parallel engine.

    ``workers`` (when given) must equal the detector's shard count —
    each hash-partitioned shard runs in exactly one worker process, so
    the shard count *is* the parallelism degree.  Already-parallel
    engines pass through unchanged.
    """
    if isinstance(detector, ParallelShardedDetector):
        return detector
    if type(detector) is not ShardedDetector:
        raise ConfigurationError(
            f"cannot parallelize {type(detector).__name__}; build a "
            "ShardedDetector with one shard per worker"
        )
    if workers is not None and workers != detector.num_shards:
        raise ConfigurationError(
            f"workers={workers} but the detector has {detector.num_shards} "
            "shards; one worker runs exactly one shard"
        )
    return ParallelShardedDetector(detector, **options)


def _save_parallel(engine: ParallelShardedDetector) -> bytes:
    return engine.checkpoint()


register_checkpoint_kind(
    "parallel-sharded",
    ParallelShardedDetector,
    _save_parallel,
    ParallelShardedDetector._from_checkpoint,
)
# Load-only alias: time-based fleets saved before the count/time collapse.
register_retired_kind(
    "parallel-time-sharded", ParallelShardedDetector._from_checkpoint
)

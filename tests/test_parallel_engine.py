"""Tests for the multi-process parallel detection engine.

The contract under test: a ``ParallelShardedDetector`` (of either time
model) is observationally *bit-identical* to
the single-process sharded detector it wraps — same verdicts in stream
order, same per-shard checkpoint blobs, same summed operation counters —
while executing each shard in its own worker process over shared-memory
rings.  Failure handling: SIGKILLed workers respawn from their last
checkpoint and replay the journal to the exact same state; with respawn
exhausted or disabled the shard degrades under fail-open/fail-closed.
"""

import os
import signal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.checkpoint import load_detector, save_detector
from repro.detection.sharded import FailoverPolicy, ShardedDetector, route_batch
from repro.errors import ConfigurationError, ParallelError
from repro.parallel import BatchRing, ParallelShardedDetector, lift_sharded
from tests.fleets import tbf_fleet, timed_tbf_fleet

START_METHOD = os.environ.get("REPRO_PARALLEL_START_METHOD") or None


def make_pair(num_shards, seed=1, window=64, entries=4096, num_hashes=4, **options):
    """A (reference, parallel) pair built from identical configs."""
    reference = tbf_fleet(window, num_shards, entries, num_hashes, seed=seed)
    parallel = ParallelShardedDetector(
        tbf_fleet(window, num_shards, entries, num_hashes, seed=seed),
        start_method=START_METHOD,
        slot_items=512,
        **options,
    )
    return reference, parallel


def sum_op_counts(detector):
    totals = {
        "word_reads": 0,
        "word_writes": 0,
        "hash_evaluations": 0,
        "elements": 0,
        "duplicates": 0,
    }
    for shard in detector.shards:
        counter = shard.counter
        totals["word_reads"] += counter.word_reads
        totals["word_writes"] += counter.word_writes
        totals["hash_evaluations"] += counter.hash_evaluations
        totals["elements"] += counter.elements
        totals["duplicates"] += getattr(shard, "duplicates", 0)
    return totals


# ----------------------------------------------------------------------
# The ring transport itself
# ----------------------------------------------------------------------

class TestBatchRing:
    def test_push_pop_roundtrip(self):
        import multiprocessing

        ring = BatchRing.create(multiprocessing.get_context(), slots=2, slot_bytes=64)
        try:
            payload = np.arange(8, dtype=np.uint64)
            assert ring.push(3, (payload.tobytes(),), count=8, num_hashes=2)
            op, count, num_hashes, view = ring.pop(timeout=1.0)
            assert (op, count, num_hashes) == (3, 8, 2)
            received = np.frombuffer(view, dtype=np.uint64, count=8).copy()
            del view  # drop the shared-memory view before closing
            assert np.array_equal(received, payload)
            ring.release_slot()
        finally:
            ring.close()

    def test_push_blocks_when_full(self):
        import multiprocessing

        ring = BatchRing.create(multiprocessing.get_context(), slots=2, slot_bytes=8)
        try:
            assert ring.push(1, timeout=0.1)
            assert ring.push(1, timeout=0.1)
            assert not ring.push(1, timeout=0.1)  # full: times out
            ring.pop(timeout=1.0)
            ring.release_slot()
            assert ring.push(1, timeout=0.1)  # freed one slot
        finally:
            ring.close()

    def test_oversized_payload_rejected(self):
        import multiprocessing

        ring = BatchRing.create(multiprocessing.get_context(), slots=2, slot_bytes=16)
        try:
            with pytest.raises(ConfigurationError, match="exceeds ring slot"):
                ring.push(1, (b"x" * 17,))
            # The slot was returned: the ring still has full capacity.
            assert ring.push(1, (b"x" * 16,), timeout=0.1)
            assert ring.push(1, timeout=0.1)
        finally:
            ring.close()


# ----------------------------------------------------------------------
# Bit-identical equivalence with the single-process detectors
# ----------------------------------------------------------------------

class TestEquivalence:
    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    def test_verdicts_counters_checkpoints(self, num_shards):
        reference, parallel = make_pair(num_shards)
        rng = np.random.default_rng(13)
        try:
            for _ in range(4):
                ids = rng.integers(0, 400, size=2500, dtype=np.uint64)
                assert np.array_equal(
                    reference.observe_batch(ids), parallel.observe_batch(ids)
                )
            assert parallel.op_counts() == sum_op_counts(reference)
            for shard in range(num_shards):
                assert parallel.checkpoint_shard(shard) == reference.checkpoint_shard(
                    shard
                )
            assert parallel.shard_arrivals() == reference.shard_arrivals()
        finally:
            parallel.close()

    def test_scalar_process_matches(self):
        reference, parallel = make_pair(2)
        rng = np.random.default_rng(3)
        try:
            for identifier in rng.integers(0, 50, size=300, dtype=np.uint64):
                assert reference.observe(int(identifier)) == parallel.observe(
                    int(identifier)
                )
        finally:
            parallel.close()

    def test_sub_batches_split_across_slots(self):
        # Batches far larger than slot_items must split transparently.
        reference, parallel = make_pair(2, entries=8192)
        rng = np.random.default_rng(5)
        ids = rng.integers(0, 2000, size=30_000, dtype=np.uint64)
        try:
            assert np.array_equal(
                reference.observe_batch(ids), parallel.observe_batch(ids)
            )
        finally:
            parallel.close()

    def test_time_based_equivalence(self):
        reference = timed_tbf_fleet(10.0, 8, 3, 4096, 4, seed=2)
        parallel = ParallelShardedDetector(
            timed_tbf_fleet(10.0, 8, 3, 4096, 4, seed=2),
            start_method=START_METHOD, slot_items=256,
        )
        rng = np.random.default_rng(8)
        try:
            timestamps = np.sort(rng.uniform(0.0, 60.0, size=6000))
            ids = rng.integers(0, 500, size=6000, dtype=np.uint64)
            assert np.array_equal(
                reference.observe_batch(ids, timestamps),
                parallel.observe_batch(ids, timestamps),
            )
            for shard in range(3):
                assert parallel.checkpoint_shard(shard) == reference.checkpoint_shard(
                    shard
                )
        finally:
            parallel.close()

    def test_sync_base_writes_final_state_back(self):
        reference, parallel = make_pair(2)
        rng = np.random.default_rng(4)
        ids = rng.integers(0, 300, size=5000, dtype=np.uint64)
        try:
            reference.observe_batch(ids)
            parallel.observe_batch(ids)
        finally:
            parallel.close(sync=True)
        for expected, synced in zip(reference.shards, parallel.base.shards):
            assert save_detector(expected) == save_detector(synced)
        assert parallel.base.shard_arrivals() == reference.shard_arrivals()

    # The acceptance property: random streams and configs, workers in
    # {1, 2, 4} — verdicts, summed op counts, and per-shard checkpoint
    # states all bit-identical to the single-process run.
    @settings(max_examples=8, deadline=None)
    @given(
        workers=st.sampled_from([1, 2, 4]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        universe=st.integers(min_value=8, max_value=1500),
        length=st.integers(min_value=1, max_value=4000),
        num_hashes=st.integers(min_value=2, max_value=6),
    )
    def test_property_equivalence(self, workers, seed, universe, length, num_hashes):
        reference, parallel = make_pair(
            workers, seed=seed % 1000, num_hashes=num_hashes
        )
        rng = np.random.default_rng(seed)
        ids = rng.integers(0, universe, size=length, dtype=np.uint64)
        try:
            assert np.array_equal(
                reference.observe_batch(ids), parallel.observe_batch(ids)
            )
            assert parallel.op_counts() == sum_op_counts(reference)
            for shard in range(workers):
                assert parallel.checkpoint_shard(shard) == reference.checkpoint_shard(
                    shard
                )
        finally:
            parallel.close()


# ----------------------------------------------------------------------
# Fleet checkpointing: two-phase manifest, save/load round-trip
# ----------------------------------------------------------------------

class TestFleetCheckpoint:
    def test_manifest_roundtrip_resumes_identically(self):
        reference, parallel = make_pair(2)
        rng = np.random.default_rng(17)
        warmup = rng.integers(0, 300, size=4000, dtype=np.uint64)
        more = rng.integers(0, 300, size=2000, dtype=np.uint64)
        try:
            reference.observe_batch(warmup)
            parallel.observe_batch(warmup)
            blob = save_detector(parallel)  # dispatches to checkpoint()
        finally:
            parallel.close()
        restored = load_detector(blob)
        assert isinstance(restored, ParallelShardedDetector)
        try:
            assert np.array_equal(
                reference.observe_batch(more), restored.observe_batch(more)
            )
            assert restored.shard_arrivals() == reference.shard_arrivals()
        finally:
            restored.close()

    def test_manifest_preserves_engine_options(self):
        _, parallel = make_pair(
            2, death_policy=FailoverPolicy.FAIL_OPEN, max_respawns=7
        )
        try:
            blob = parallel.checkpoint()
        finally:
            parallel.close()
        restored = load_detector(blob)
        try:
            assert restored.death_policy is FailoverPolicy.FAIL_OPEN
            assert restored.max_respawns == 7
            assert restored.slot_items == 512
        finally:
            restored.close()

    def test_checkpoint_after_traffic_equals_reference_frame_payloads(self):
        # Phase-1 blobs inside the manifest must equal the reference
        # detector's shard frames, byte for byte.
        reference, parallel = make_pair(3)
        rng = np.random.default_rng(23)
        ids = rng.integers(0, 700, size=9000, dtype=np.uint64)
        try:
            reference.observe_batch(ids)
            parallel.observe_batch(ids)
            from repro.detection.sharded import unpack_frame

            header, payload = unpack_frame(parallel.checkpoint())
            offset = 0
            for shard, length in zip(reference.shards, header["lengths"]):
                assert payload[offset : offset + length] == save_detector(shard)
                offset += length
        finally:
            parallel.close()

    def test_custom_router_rejected(self):
        from repro.core import TBFDetector

        shards = [TBFDetector(64, 1024, 4, seed=i) for i in range(2)]
        sharded = ShardedDetector(shards, router=lambda identifier: identifier % 2)
        with pytest.raises(ConfigurationError, match="default router"):
            ParallelShardedDetector(sharded)


# ----------------------------------------------------------------------
# Worker death: respawn-from-checkpoint, journal replay, degrade
# ----------------------------------------------------------------------

class TestWorkerDeath:
    def test_sigkill_mid_run_respawns_to_identical_state(self):
        reference, parallel = make_pair(3, seed=2)
        rng = np.random.default_rng(11)
        chunks = [rng.integers(0, 400, size=1500, dtype=np.uint64) for _ in range(8)]
        try:
            for index, chunk in enumerate(chunks):
                if index == 3:
                    os.kill(parallel.worker_pids()[1], signal.SIGKILL)
                assert np.array_equal(
                    reference.observe_batch(chunk), parallel.observe_batch(chunk)
                )
            assert parallel.worker_deaths >= 1
            assert parallel.worker_respawns >= 1
            assert not parallel.is_degraded
            # Final duplicate counts and states equal the uninterrupted run.
            assert parallel.op_counts() == sum_op_counts(reference)
            for shard in range(3):
                assert parallel.checkpoint_shard(shard) == reference.checkpoint_shard(
                    shard
                )
            snapshot = parallel.telemetry_snapshot()
            assert snapshot["counters"]["worker_deaths"] >= 1
            assert snapshot["counters"]["worker_respawns"] >= 1
        finally:
            parallel.close()

    def test_kill_after_midrun_checkpoint_replays_journal_tail(self):
        # A periodic checkpoint truncates the journal; the kill then
        # replays only the tail — state must still match exactly.
        reference, parallel = make_pair(2, seed=6, checkpoint_every_items=1000)
        rng = np.random.default_rng(29)
        chunks = [rng.integers(0, 300, size=900, dtype=np.uint64) for _ in range(6)]
        try:
            for index, chunk in enumerate(chunks):
                if index == 4:
                    for pid in parallel.worker_pids():
                        os.kill(pid, signal.SIGKILL)
                assert np.array_equal(
                    reference.observe_batch(chunk), parallel.observe_batch(chunk)
                )
            assert parallel.op_counts() == sum_op_counts(reference)
        finally:
            parallel.close()

    def test_respawn_disabled_degrades_with_policy(self):
        reference, parallel = make_pair(
            3, seed=2, respawn=False, death_policy=FailoverPolicy.FAIL_OPEN
        )
        rng = np.random.default_rng(7)
        first = rng.integers(0, 400, size=1000, dtype=np.uint64)
        second = rng.integers(0, 400, size=1000, dtype=np.uint64)
        try:
            parallel.observe_batch(first)
            os.kill(parallel.worker_pids()[0], signal.SIGKILL)
            verdicts = parallel.observe_batch(second)
            assert parallel.is_degraded
            assert 0 in parallel.degraded_shards()
            shard_of = route_batch(second, 3)
            # Degraded shard answers fail-open: nothing flagged duplicate.
            assert not verdicts[shard_of == 0].any()
            snapshot = parallel.telemetry_snapshot()
            assert snapshot["gauges"]["degraded_shards"] == 1.0
            assert snapshot["workers"]["0"]["degraded"] == 1.0
        finally:
            parallel.close()

    def test_fail_closed_policy_flags_everything(self):
        _, parallel = make_pair(
            2, respawn=False, death_policy=FailoverPolicy.FAIL_CLOSED
        )
        rng = np.random.default_rng(9)
        ids = rng.integers(0, 100, size=500, dtype=np.uint64)
        try:
            os.kill(parallel.worker_pids()[1], signal.SIGKILL)
            verdicts = parallel.observe_batch(ids)
            shard_of = route_batch(ids, 2)
            assert verdicts[shard_of == 1].all()
        finally:
            parallel.close()

    def test_explicit_fail_and_restore_worker(self):
        reference, parallel = make_pair(2, seed=4)
        rng = np.random.default_rng(21)
        first = rng.integers(0, 200, size=1000, dtype=np.uint64)
        second = rng.integers(0, 200, size=1000, dtype=np.uint64)
        third = rng.integers(0, 200, size=1000, dtype=np.uint64)
        try:
            reference.observe_batch(first)
            parallel.observe_batch(first)

            reference.fail_shard(1, FailoverPolicy.FAIL_OPEN)
            parallel.fail_worker(1, FailoverPolicy.FAIL_OPEN)
            assert np.array_equal(
                reference.observe_batch(second), parallel.observe_batch(second)
            )

            # Restore both from the same snapshot taken before failure.
            blob = reference.checkpoint_shard(0)  # any valid shard blob
            ref_missed = reference.restore_shard(1, blob)
            par_missed = parallel.restore_worker(1, blob)
            assert ref_missed == par_missed
            assert np.array_equal(
                reference.observe_batch(third), parallel.observe_batch(third)
            )
        finally:
            parallel.close()

    def test_worker_data_error_propagates(self):
        parallel = ParallelShardedDetector(
            timed_tbf_fleet(10.0, 8, 2, 2048, 4, seed=1),
            start_method=START_METHOD,
        )
        try:
            parallel.observe_batch(
                np.array([1, 2, 3], dtype=np.uint64), np.array([5.0, 5.5, 6.0])
            )
            with pytest.raises(ParallelError, match="worker"):
                # Regressing timestamp: deterministic data error — replay
                # would fail identically, so it must surface, not respawn.
                parallel.observe_batch(
                    np.array([4], dtype=np.uint64), np.array([0.5])
                )
        finally:
            parallel.close()


# ----------------------------------------------------------------------
# Telemetry aggregation
# ----------------------------------------------------------------------

class TestTelemetry:
    def test_snapshot_aggregates_workers(self):
        reference, parallel = make_pair(2)
        rng = np.random.default_rng(31)
        ids = rng.integers(0, 250, size=4000, dtype=np.uint64)
        try:
            reference.observe_batch(ids)
            parallel.observe_batch(ids)
            snapshot = parallel.telemetry_snapshot()
            expected = reference.telemetry_snapshot()
            assert snapshot["counters"]["elements"] == expected["counters"]["elements"]
            assert (
                snapshot["counters"]["duplicates"]
                == expected["counters"]["duplicates"]
            )
            assert snapshot["gauges"]["workers_alive"] == 2
            assert snapshot["gauges"]["load_imbalance"] == pytest.approx(
                expected["gauges"]["load_imbalance"]
            )
            assert set(snapshot["workers"]) == {"0", "1"}
            for view in snapshot["workers"].values():
                assert view["alive"] == 1.0
        finally:
            parallel.close()

    def test_fp_bound_dispatch(self):
        from repro.telemetry.instruments import theoretical_fp_bound

        reference, parallel = make_pair(2)
        try:
            assert theoretical_fp_bound(parallel) == theoretical_fp_bound(reference)
            assert theoretical_fp_bound(parallel) is not None
        finally:
            parallel.close()

    def test_instrumented_session(self):
        from repro.telemetry import TelemetrySession

        _, parallel = make_pair(2)
        session = TelemetrySession(snapshot_every=10_000)
        try:
            session.instrument_detector(parallel)
            rng = np.random.default_rng(2)
            parallel.observe_batch(rng.integers(0, 100, size=500, dtype=np.uint64))
            session.emit()
            rendered = session.registry.to_prometheus()
            assert "repro_detector_gauge" in rendered
            assert "repro_worker_deaths_total" in rendered
        finally:
            parallel.close()


# ----------------------------------------------------------------------
# Lifting helper and guardrails
# ----------------------------------------------------------------------

class TestLift:
    def test_lift_shard_count_mismatch(self):
        sharded = tbf_fleet(64, 2, 2048, 4, seed=1)
        with pytest.raises(ConfigurationError, match="2 shards"):
            lift_sharded(sharded, workers=4)

    def test_lift_passthrough(self):
        _, parallel = make_pair(2)
        try:
            assert lift_sharded(parallel) is parallel
        finally:
            parallel.close()

    def test_lift_rejects_unsharded(self):
        from repro.core import TBFDetector

        with pytest.raises(ConfigurationError, match="cannot parallelize"):
            lift_sharded(TBFDetector(64, 1024, 4, seed=1))

    def test_engine_rejects_bad_options(self):
        sharded = tbf_fleet(64, 2, 2048, 4, seed=1)
        with pytest.raises(ConfigurationError, match="slots"):
            ParallelShardedDetector(sharded, slots=1)
        with pytest.raises(ConfigurationError, match="max_respawns"):
            ParallelShardedDetector(sharded, max_respawns=-1)

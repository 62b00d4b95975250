"""Tests for shard failover: fail-open/fail-closed policies, rebuild from
checkpoint, degraded-window stats, and whole-sharded-detector checkpoints."""

import random

import pytest

from repro.core import CheckpointError, load_detector, save_detector
from repro.detection import DetectionPipeline, FailoverPolicy, ShardedDetector
from repro.errors import ConfigurationError
from repro.resilience import SupervisedPipeline
from tests.fleets import tbf_fleet, timed_tbf_fleet


def drive(detector, count, seed, universe=80):
    rng = random.Random(seed)
    return [detector.observe(rng.randrange(universe)) for _ in range(count)]


def test_fail_open_accepts_and_fail_closed_rejects_everything():
    detector = tbf_fleet(64, 4, 4096, seed=1)
    drive(detector, 200, seed=2)

    detector.fail_shard(1, FailoverPolicy.FAIL_OPEN)
    detector.fail_shard(2, "fail-closed")  # strings accepted too
    rng = random.Random(3)
    for _ in range(300):
        identifier = rng.randrange(80)
        shard = detector.router(identifier)
        verdict = detector.observe(identifier)
        if shard == 1:
            assert verdict is False  # fail-open: everything accepted
        elif shard == 2:
            assert verdict is True  # fail-closed: everything rejected

    stats = detector.degraded_shards()
    assert set(stats) == {1, 2}
    assert stats[1]["policy"] == "fail-open"
    assert stats[2]["policy"] == "fail-closed"
    assert stats[1]["clicks"] > 0 and stats[2]["clicks"] > 0
    assert detector.is_degraded


def test_restore_shard_resumes_exact_verdicts():
    # Two detectors fed identically; one loses a shard and rebuilds it
    # from a checkpoint taken at that instant.  With no clicks processed
    # during the degraded window, verdicts must stay identical forever.
    healthy = tbf_fleet(64, 4, 4096, seed=1)
    failing = tbf_fleet(64, 4, 4096, seed=1)
    assert drive(healthy, 300, seed=5) == drive(failing, 300, seed=5)

    blob = failing.checkpoint_shard(2)
    failing.fail_shard(2)
    degraded_clicks = failing.restore_shard(2, blob)
    assert degraded_clicks == 0
    assert not failing.is_degraded
    assert drive(healthy, 400, seed=6) == drive(failing, 400, seed=6)


def test_degraded_window_damage_is_bounded_to_one_shard():
    healthy = tbf_fleet(64, 4, 4096, seed=1)
    failing = tbf_fleet(64, 4, 4096, seed=1)
    drive(healthy, 300, seed=5)
    drive(failing, 300, seed=5)

    blob = failing.checkpoint_shard(2)
    failing.fail_shard(2, FailoverPolicy.FAIL_OPEN)
    rng_a, rng_b = random.Random(7), random.Random(7)
    disagreements = 0
    for _ in range(200):
        x = rng_a.randrange(80)
        if healthy.observe(x) != failing.observe(rng_b.randrange(80)):
            assert failing.router(x) == 2  # only the degraded shard differs
            disagreements += 1
    assert disagreements > 0
    assert failing.restore_shard(2, blob) > 0  # degraded clicks were counted


def test_restore_shard_type_mismatch_rejected():
    detector = tbf_fleet(64, 4, 4096, seed=1)
    from repro.core import GBFDetector

    wrong = save_detector(GBFDetector(64, 8, 1024, 4, seed=3))
    with pytest.raises(CheckpointError, match="GBFDetector"):
        detector.restore_shard(1, wrong)


def test_shard_index_validated():
    detector = tbf_fleet(64, 4, 4096, seed=1)
    with pytest.raises(ConfigurationError):
        detector.fail_shard(4)
    with pytest.raises(ConfigurationError):
        detector.checkpoint_shard(-1)


def test_time_sharded_failover():
    detector = timed_tbf_fleet(30.0, 8, 4, 8192, seed=1)
    rng = random.Random(2)
    timestamp = 0.0
    for _ in range(300):
        timestamp += rng.random() * 0.2
        detector.observe(rng.randrange(80), timestamp)

    blob = detector.checkpoint_shard(0)
    detector.fail_shard(0, FailoverPolicy.FAIL_CLOSED)
    for _ in range(50):
        timestamp += rng.random() * 0.2
        identifier = rng.randrange(80)
        verdict = detector.observe(identifier, timestamp)
        if detector.router(identifier) == 0:
            assert verdict is True
    assert detector.restore_shard(0, blob) > 0
    assert not detector.is_degraded


def test_whole_sharded_detector_checkpoint_preserves_degradation():
    detector = tbf_fleet(64, 4, 4096, seed=1)
    drive(detector, 300, seed=5)
    detector.fail_shard(3, FailoverPolicy.FAIL_OPEN)
    drive(detector, 50, seed=6)

    restored = load_detector(save_detector(detector))
    assert restored.degraded_shards() == detector.degraded_shards()
    assert restored.shard_arrivals() == detector.shard_arrivals()
    assert drive(detector, 300, seed=7) == drive(restored, 300, seed=7)


def test_custom_router_refused_for_whole_detector_checkpoint():
    from repro.core import TBFDetector

    detector = ShardedDetector(
        [TBFDetector(16, 512, 4, seed=s) for s in range(2)],
        router=lambda identifier: identifier % 2,
    )
    with pytest.raises(CheckpointError, match="router"):
        save_detector(detector)
    # Per-shard checkpoints still work — that is the escape hatch.
    load_detector(detector.checkpoint_shard(0))


def test_supervised_pipeline_surfaces_degraded_window(tmp_path):
    from tests.test_resilience import make_billing, make_stream

    detector = tbf_fleet(64, 4, 4096, seed=1)
    detector.fail_shard(1, FailoverPolicy.FAIL_CLOSED)
    pipeline = DetectionPipeline(detector, billing=make_billing())
    supervisor = SupervisedPipeline(pipeline, tmp_path, checkpoint_every=50)
    result = supervisor.run(make_stream(120))
    assert 1 in result.degraded
    assert result.degraded[1]["policy"] == "fail-closed"
    assert result.degraded[1]["clicks"] > 0
    # Fail-closed means those clicks were rejected, not billed.
    assert result.duplicates >= result.degraded[1]["clicks"]


# ----------------------------------------------------------------------
# Failover under the vectorized batch path: a shard lost mid-stream must
# produce exactly the verdicts, degraded-click accounting, and telemetry
# that the scalar path produces.
# ----------------------------------------------------------------------

def _stream_arrays(count, seed, universe=80):
    import numpy as np

    rng = random.Random(seed)
    return np.array(
        [rng.randrange(universe) for _ in range(count)], dtype=np.uint64
    )


def test_batch_failover_matches_scalar_path():
    import numpy as np

    scalar = tbf_fleet(64, 4, 4096, seed=1)
    batched = tbf_fleet(64, 4, 4096, seed=1)
    warmup = _stream_arrays(300, seed=5)
    assert [scalar.observe(int(x)) for x in warmup] == list(
        batched.observe_batch(warmup)
    )

    # Lose the shard "mid-run": both detectors degrade identically.
    scalar.fail_shard(2, FailoverPolicy.FAIL_OPEN)
    batched.fail_shard(2, FailoverPolicy.FAIL_OPEN)
    after = _stream_arrays(400, seed=6)
    scalar_verdicts = [scalar.observe(int(x)) for x in after]
    batch_verdicts = batched.observe_batch(after)
    assert scalar_verdicts == [bool(v) for v in batch_verdicts]

    # Degraded-window accounting and telemetry agree between the paths.
    assert scalar.degraded_shards() == batched.degraded_shards()
    assert scalar.shard_arrivals() == batched.shard_arrivals()
    scalar_snap = scalar.telemetry_snapshot()
    batch_snap = batched.telemetry_snapshot()
    assert scalar_snap["counters"] == batch_snap["counters"]
    assert scalar_snap["gauges"]["degraded_shards"] == 1
    assert batch_snap["gauges"]["degraded_shards"] == 1
    assert batch_snap["shards"]["2"]["degraded"] == 1.0


def test_batch_failover_kill_between_chunks_and_restore():
    import numpy as np

    scalar = tbf_fleet(64, 4, 4096, seed=1)
    batched = tbf_fleet(64, 4, 4096, seed=1)
    chunks = [_stream_arrays(150, seed=s) for s in range(8)]
    blob = None
    for index, chunk in enumerate(chunks):
        if index == 3:  # kill the shard mid-stream, checkpoint first
            blob = batched.checkpoint_shard(1)
            scalar.fail_shard(1, FailoverPolicy.FAIL_CLOSED)
            batched.fail_shard(1, FailoverPolicy.FAIL_CLOSED)
        if index == 6:  # rebuild from the pre-failure checkpoint
            missed_scalar = scalar.restore_shard(1, blob)
            missed_batched = batched.restore_shard(1, blob)
            assert missed_scalar == missed_batched > 0
        expected = [scalar.observe(int(x)) for x in chunk]
        assert expected == [bool(v) for v in batched.observe_batch(chunk)]
    assert not batched.is_degraded
    assert scalar.telemetry_snapshot()["counters"] == (
        batched.telemetry_snapshot()["counters"]
    )


def test_time_sharded_batch_failover_matches_scalar_path():
    import numpy as np

    scalar = timed_tbf_fleet(30.0, 8, 4, 8192, seed=1)
    batched = timed_tbf_fleet(30.0, 8, 4, 8192, seed=1)
    rng = random.Random(9)
    timestamp, ids, stamps = 0.0, [], []
    for _ in range(500):
        timestamp += rng.random() * 0.2
        ids.append(rng.randrange(80))
        stamps.append(timestamp)
    ids = np.array(ids, dtype=np.uint64)
    stamps = np.array(stamps, dtype=np.float64)

    half = 250
    for a, b in ((0, half), (half, len(ids))):
        if a == half:
            scalar.fail_shard(0, FailoverPolicy.FAIL_CLOSED)
            batched.fail_shard(0, FailoverPolicy.FAIL_CLOSED)
        expected = [
            scalar.observe(int(i), float(t))
            for i, t in zip(ids[a:b], stamps[a:b])
        ]
        got = batched.observe_batch(ids[a:b], stamps[a:b])
        assert expected == [bool(v) for v in got]
    assert scalar.degraded_shards() == batched.degraded_shards()

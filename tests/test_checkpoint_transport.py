"""Checkpoint blobs must survive multiprocessing transport bit-identically.

The parallel engine ships detector state between processes three ways:
as the startup blob over a pipe, as the per-shard checkpoint response,
and inside the fleet manifest.  Under the ``spawn`` start method the
child shares *nothing* with the parent — whatever arrives must rebuild
the exact detector from bytes alone.  This suite pushes every detector
variant's checkpoint through a spawn-context child that loads it,
re-serializes it, and sends the bytes back: the round trip must be the
identity, and the rebuilt detector must verdict identically.
"""

import multiprocessing
import random

import pytest

from repro.core import (
    GBFDetector,
    TBFDetector,
    TBFJumpingDetector,
    TimeBasedGBFDetector,
    TimeBasedTBFDetector,
    load_detector,
    save_detector,
)
from tests.fleets import tbf_fleet, timed_tbf_fleet


def _variants():
    return [
        ("gbf", lambda: GBFDetector(64, 8, 1024, 4, seed=3)),
        ("tbf", lambda: TBFDetector(64, 2048, 4, seed=3)),
        ("tbf-jumping", lambda: TBFJumpingDetector(64, 8, 2048, 4, seed=3)),
        (
            "gbf-time",
            lambda: TimeBasedGBFDetector(24.0, 4, 1024, 4, units_per_subwindow=4, seed=3),
        ),
        ("tbf-time", lambda: TimeBasedTBFDetector(24.0, 8, 2048, 4, seed=3)),
        ("sharded", lambda: tbf_fleet(64, 3, 4096, 4, seed=3)),
        ("time-sharded", lambda: timed_tbf_fleet(24.0, 8, 3, 4096, 4, seed=3)),
    ]


def _drive(detector, count, seed):
    """Warm a detector with deterministic traffic of either time model."""
    rng = random.Random(seed)
    if not detector.timed:
        for _ in range(count):
            detector.observe(rng.randrange(60))
        return
    timestamp = 0.0
    for _ in range(count):
        timestamp += rng.random() * 0.05
        detector.observe(rng.randrange(60), timestamp)


def _echo_child(conn):
    """Spawn-context child: load each blob, re-save, send the bytes back."""
    while True:
        blob = conn.recv_bytes()
        if not blob:
            return
        conn.send_bytes(save_detector(load_detector(blob)))


@pytest.fixture(scope="module")
def echo():
    """One spawn-context child shared by the module (spawn startup is slow)."""
    ctx = multiprocessing.get_context("spawn")
    parent, child = ctx.Pipe()
    process = ctx.Process(target=_echo_child, args=(child,), daemon=True)
    process.start()
    child.close()
    yield parent
    parent.send_bytes(b"")
    process.join(timeout=30)
    parent.close()


@pytest.mark.parametrize("name,factory", _variants(), ids=[n for n, _ in _variants()])
def test_spawn_transport_is_bit_identical(name, factory, echo):
    detector = factory()
    _drive(detector, 400, seed=7)
    blob = save_detector(detector)

    echo.send_bytes(blob)
    returned = echo.recv_bytes()
    assert returned == blob

    # And the round-tripped detector behaves identically from here on.
    continued = load_detector(returned)
    if not detector.timed:
        rng_a, rng_b = random.Random(9), random.Random(9)
        assert [detector.observe(rng_a.randrange(60)) for _ in range(300)] == [
            continued.observe(rng_b.randrange(60)) for _ in range(300)
        ]
    else:
        rng = random.Random(9)
        timestamp = 25.0
        for _ in range(300):
            timestamp += rng.random() * 0.05
            identifier = rng.randrange(60)
            assert detector.observe(identifier, timestamp) == continued.observe(
                identifier, timestamp
            )


@pytest.mark.parametrize("name,factory", _variants(), ids=[n for n, _ in _variants()])
def test_pickle_of_checkpoint_blob_is_stable(name, factory):
    # multiprocessing pickles pipe payloads; a blob must be pickle-stable.
    import pickle

    detector = factory()
    _drive(detector, 200, seed=4)
    blob = save_detector(detector)
    assert pickle.loads(pickle.dumps(blob, protocol=4)) == blob
    # Saving twice without intervening traffic is deterministic.
    assert save_detector(detector) == blob

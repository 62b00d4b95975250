"""Blobs of the four retired checkpoint kinds still restore and continue.

Each tier once saved its time-based detectors under a kind of its own:
``time-sharded``, ``parallel-time-sharded``, ``cluster-time-slice`` and
``adaptive-timed``.  ``tests/data/retired_kinds/`` holds one small blob
of each, written by the last commit that saved them, with that code's
verdicts on a seeded continuation (its README says how both were made).
Every blob must load into the one class of its tier, continue with
exactly those verdicts, and save again under the tier's one kind.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.adaptive import AdaptiveDetector
from repro.cluster import ClusterSlice, build_slice_blob, slice_shard_blobs
from repro.core.checkpoint import load_detector, save_detector, unpack_frame
from repro.detection import ShardedDetector
from repro.detection.sharded import route_batch
from repro.parallel import ParallelShardedDetector

DATA = Path(__file__).parent / "data" / "retired_kinds"
MANIFEST = json.loads((DATA / "verdicts.json").read_text())

#: retired kind -> (the tier's one class, the kind it saves now)
SUCCESSORS = {
    "time-sharded": (ShardedDetector, "sharded"),
    "parallel-time-sharded": (ParallelShardedDetector, "parallel-sharded"),
    "cluster-time-slice": (ClusterSlice, "cluster-slice"),
    "adaptive-timed": (AdaptiveDetector, "adaptive"),
}


def _blob(kind):
    return (DATA / MANIFEST[kind]["blob"]).read_bytes()


def _continuation(entry):
    rng = np.random.default_rng(entry["seed"])
    identifiers = rng.integers(0, 400, size=entry["clicks"], dtype=np.uint64)
    timestamps = entry["start"] + np.cumsum(
        rng.exponential(0.01, size=entry["clicks"])
    )
    if entry["owned_shards"] is not None:
        keep = np.isin(
            route_batch(identifiers, entry["total_shards"]), entry["owned_shards"]
        )
        identifiers, timestamps = identifiers[keep], timestamps[keep]
    return identifiers, timestamps


def test_every_retired_kind_has_a_blob():
    assert set(MANIFEST) == set(SUCCESSORS)


@pytest.mark.parametrize("kind", sorted(SUCCESSORS))
def test_retired_kind_restores_and_continues(kind):
    entry = MANIFEST[kind]
    blob = _blob(kind)
    assert unpack_frame(blob)[0]["kind"] == kind
    detector = load_detector(blob)
    try:
        tier, new_kind = SUCCESSORS[kind]
        assert type(detector) is tier
        assert detector.timed
        identifiers, timestamps = _continuation(entry)
        expected = np.unpackbits(
            np.frombuffer(bytes.fromhex(entry["verdicts"]), dtype=np.uint8),
            count=identifiers.shape[0],
        ).astype(bool)
        verdicts = detector.observe_batch(identifiers, timestamps)
        assert int(verdicts.sum()) == entry["duplicates"]
        assert np.array_equal(verdicts, expected)
        assert unpack_frame(save_detector(detector))[0]["kind"] == new_kind
    finally:
        close = getattr(detector, "close", None)
        if close is not None:
            close()


def test_retired_slice_kind_regroups_as_timed():
    total, timed, shard_blobs = slice_shard_blobs(_blob("cluster-time-slice"))
    assert timed and total == 4
    rebuilt = build_slice_blob(total, shard_blobs, timed=timed)
    header = unpack_frame(rebuilt)[0]
    assert header["kind"] == "cluster-slice" and header["timed"] is True
    restored = load_detector(rebuilt)
    assert restored.timed and restored.owned == tuple(sorted(shard_blobs))
    for shard, raw in shard_blobs.items():
        assert restored.checkpoint_shard(shard) == raw


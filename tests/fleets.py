"""Sharded TBF fleets for the tests, built through the spec path.

``create_detector(DetectorSpec(..., shards=N))`` splits the window (for
count-based fleets) and the entry budget evenly and seeds shard ``s``
with ``seed + s``.  At ``shards=1`` the factory returns the bare
variant, so these helpers wrap it in a one-shard
:class:`~repro.detection.ShardedDetector` to keep the fleet surface.
"""

from repro.detection import (
    DetectorSpec,
    ShardedDetector,
    TBFParams,
    WindowSpec,
    create_detector,
)


def _fleet(spec):
    detector = create_detector(spec)
    return detector if spec.shards > 1 else ShardedDetector([detector])


def tbf_fleet(window, shards, entries, num_hashes=10, seed=0):
    """Count-based TBF fleet: ``window`` and ``entries`` are totals."""
    return _fleet(
        DetectorSpec(
            "tbf",
            WindowSpec("sliding", window),
            params=TBFParams(entries, num_hashes),
            seed=seed,
            shards=shards,
        )
    )


def timed_tbf_fleet(duration, resolution, shards, entries, num_hashes=10, seed=0):
    """Time-based TBF fleet: every shard runs the full ``duration``."""
    return _fleet(
        DetectorSpec(
            "tbf-time",
            # Descriptive only: exact params size a time-based sketch.
            WindowSpec("sliding", 1024),
            params=TBFParams(entries, num_hashes),
            duration=duration,
            resolution=resolution,
            seed=seed,
            shards=shards,
        )
    )

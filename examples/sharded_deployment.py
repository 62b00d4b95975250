#!/usr/bin/env python
"""Operating duplicate detection like a real system: shards + restarts.

Two deployment concerns the single-machine quickstart ignores:

1. **Scale-out** — identifier-partitioned sharding lets S workers each
   hold 1/S of the sketch with no hot-path coordination (all repeats of
   an identifier meet on one worker).
2. **Restarts** — a worker that loses its sketch forgets the last
   window; checkpoint/restore keeps the zero-false-negative guarantee
   across deploys.

The script runs a four-shard detector over botnet-laced traffic,
crashes and restores one shard mid-stream from its checkpoint, and
verifies the fleet's decisions still match a never-restarted fleet.

Run:  python examples/sharded_deployment.py
"""

from repro.core import load_detector, save_detector
from repro.detection import DetectorSpec, TBFParams, WindowSpec, create_detector
from repro.streams import DuplicateSpec, duplicated_stream


def main() -> None:
    window, shards, entries = 8192, 4, 1 << 18
    stream = [int(x) for x in duplicated_stream(
        60_000, DuplicateSpec(rate=0.3, max_lag=4000), seed=9
    )]

    # Fleet A: uninterrupted.  Fleet B: shard 2 "crashes" mid-stream and
    # is restored from its latest checkpoint.  The spec splits the window
    # and the entry budget evenly across the shards.
    spec = DetectorSpec(
        "tbf", WindowSpec("sliding", window),
        params=TBFParams(entries, num_hashes=8), seed=1, shards=shards,
    )
    fleet_a = create_detector(spec)
    fleet_b = create_detector(spec)

    crash_at = 30_000
    checkpoint = None
    mismatches = 0
    duplicates = 0
    for position, identifier in enumerate(stream):
        if position == crash_at - 1:
            checkpoint = save_detector(fleet_b.shards[2])
        if position == crash_at:
            # Simulated crash + restore of shard 2 from its checkpoint.
            fleet_b.shards[2] = load_detector(checkpoint)
        verdict_a = fleet_a.observe(identifier)
        verdict_b = fleet_b.observe(identifier)
        duplicates += verdict_a
        if verdict_a != verdict_b:
            mismatches += 1

    print(f"stream: {len(stream)} clicks, {duplicates} duplicates flagged")
    print(f"shards: {fleet_a.num_shards}, "
          f"memory {fleet_a.memory_bits / 8 / 1024:.0f} KiB total, "
          f"load imbalance {fleet_a.load_imbalance():.3f}")
    print(f"checkpoint size: {len(checkpoint) / 1024:.1f} KiB (shard 2)")
    print(f"decision mismatches after crash+restore: {mismatches}")
    assert mismatches == 0, "restore must be bit-identical"
    print("crash+restore preserved every verdict - zero clicks forgotten.")


if __name__ == "__main__":
    main()

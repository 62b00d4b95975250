"""Dense vs sparse writer tables on the same batch calls.

Times one detector call per size with each layout of
:class:`repro.core.batch.WriterTable` forced, alternating the two on
identical twins in one process so host noise hits both alike, and
checks that the verdicts agree.  Its output is what
:data:`repro.core.batch.DENSE_SHARE` is set from (docs/performance.md,
"How it works", step 3; tables of at most
:data:`repro.core.batch.DENSE_ENTRIES` entries stay dense whatever the
share):

    PYTHONPATH=src python benchmarks/sweep_writer_table.py tbf 256,8192,16384
    PYTHONPATH=src python benchmarks/sweep_writer_table.py time-limited-bf 2048,8192

Detectors are the e2ebench workloads' configurations (2^16-click
window, FP 10^-3; the time-limited BF over 64 s in 16 units).  Each
call is fresh ids with 10% repeats of warm-up ids, after 2^17 warm-up
clicks; time-based calls fit in one expiry unit.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro.core import batch
from repro.detection import DetectorSpec, WindowSpec, create_detector

#: ``(DENSE_ENTRIES, DENSE_SHARE)`` forcing each layout.
LAYOUTS = {"dense": (0, 0.0), "sparse": (0, float("inf"))}


def build(algorithm: str):
    window = WindowSpec("sliding", 1 << 16)
    if algorithm == "time-limited-bf":
        return create_detector(DetectorSpec(
            algorithm, window, target_fp=1e-3, duration=64.0, resolution=16
        ))
    return create_detector(DetectorSpec(algorithm, window, target_fp=1e-3))


def sweep(algorithm: str, size: int, calls: int):
    """Median ms per call of each layout at ``size`` rows."""
    rng = np.random.default_rng(11)
    twins = {name: build(algorithm) for name in LAYOUTS}
    clock = dict.fromkeys(LAYOUTS, 0.0)

    def call(name, identifiers):
        batch.DENSE_ENTRIES, batch.DENSE_SHARE = LAYOUTS[name]
        detector = twins[name]
        if not detector.timed:
            return detector.process_batch(identifiers)
        unit = detector.unit_duration
        start = clock[name]
        clock[name] = start + unit
        stamps = start + np.arange(identifiers.shape[0]) * (
            0.99 * unit / identifiers.shape[0]
        )
        return detector.process_batch_at(identifiers, stamps)

    warmup = rng.integers(1, 2**63, 1 << 17, dtype=np.uint64)
    for start in range(0, warmup.shape[0], 4096):
        for name in LAYOUTS:
            call(name, warmup[start : start + 4096])
    seconds = {name: [] for name in LAYOUTS}
    for index in range(calls):
        identifiers = rng.integers(1, 2**63, size, dtype=np.uint64)
        repeats = rng.random(size) < 0.1
        identifiers[repeats] = rng.choice(warmup[-20000:], int(repeats.sum()))
        order = list(LAYOUTS) if index % 2 == 0 else list(LAYOUTS)[::-1]
        verdicts = {}
        for name in order:
            begin = time.perf_counter()
            verdicts[name] = call(name, identifiers)
            seconds[name].append(time.perf_counter() - begin)
        assert np.array_equal(verdicts["dense"], verdicts["sparse"])
    return {name: 1e3 * float(np.median(times)) for name, times in seconds.items()}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("algorithm", choices=["tbf", "time-limited-bf"])
    parser.add_argument("sizes", help="comma-separated rows per call")
    parser.add_argument("--calls", type=int, default=40)
    args = parser.parse_args()
    default = batch.DENSE_ENTRIES, batch.DENSE_SHARE
    detector = build(args.algorithm)
    k = getattr(detector, "num_required", None) or detector.num_hashes
    table = k * getattr(detector, "slice_bits", 0) or detector.num_entries
    for size in (int(value) for value in args.sizes.split(",")):
        ms = sweep(args.algorithm, size, args.calls)
        print(
            f"{args.algorithm} n={size} n*k/table={size * k / table:.3f}: "
            f"sparse {ms['sparse']:.2f} ms  dense {ms['dense']:.2f} ms  "
            f"ratio {ms['sparse'] / ms['dense']:.2f}",
            flush=True,
        )
    batch.DENSE_ENTRIES, batch.DENSE_SHARE = default


if __name__ == "__main__":
    main()

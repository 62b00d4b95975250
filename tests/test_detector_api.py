"""Protocol-conformance suite: every variant and every tier, one contract.

Every algorithm :func:`create_detector` builds, and every tier above
``core`` (sharded, parallel, cluster slice, adaptive) in both time
models, must satisfy :class:`repro.detection.api.Detector` — ``timed``,
``observe(identifier, timestamp)`` and ``observe_batch`` — with
``observe`` matching the variant's own scalar call and
``observe_batch`` matching an ``observe`` loop.
"""

import numpy as np
import pytest

from repro.adaptive import AdaptiveDetector
from repro.cluster import ClusterSlice, split_sharded
from repro.core import CountBasedDetector, TimeBasedDetector
from repro.detection import (
    ALGORITHMS,
    Detector,
    DetectorSpec,
    ShardedDetector,
    WindowSpec,
    create_detector,
)
from repro.errors import ConfigurationError
from repro.parallel import ParallelShardedDetector

#: Every algorithm of the factory, plus sharded and parallel fleets.
SPECS = {
    "gbf": DetectorSpec(
        algorithm="gbf", window=WindowSpec("jumping", 256, 8), target_fp=0.01
    ),
    "gbf-time": DetectorSpec(
        algorithm="gbf-time", window=WindowSpec("jumping", 256, 8),
        target_fp=0.01, duration=64.0,
    ),
    "tbf": DetectorSpec(
        algorithm="tbf", window=WindowSpec("sliding", 256), target_fp=0.01
    ),
    "tbf-time": DetectorSpec(
        algorithm="tbf-time", window=WindowSpec("sliding", 256),
        target_fp=0.01, duration=64.0, resolution=16,
    ),
    "tbf-jumping": DetectorSpec(
        algorithm="tbf-jumping", window=WindowSpec("jumping", 1024, 64),
        memory_bits=1 << 16,
    ),
    "apbf": DetectorSpec(
        algorithm="apbf", window=WindowSpec("sliding", 256), target_fp=0.01
    ),
    "time-limited-bf": DetectorSpec(
        algorithm="time-limited-bf", window=WindowSpec("sliding", 256),
        target_fp=0.01, duration=64.0, resolution=16,
    ),
    "exact": DetectorSpec(algorithm="exact", window=WindowSpec("sliding", 256)),
    "landmark-bloom": DetectorSpec(
        algorithm="landmark-bloom", window=WindowSpec("landmark", 256),
        target_fp=0.01,
    ),
    "naive-bloom": DetectorSpec(
        algorithm="naive-bloom", window=WindowSpec("jumping", 256, 8),
        target_fp=0.01,
    ),
    "metwally-cbf": DetectorSpec(
        algorithm="metwally-cbf", window=WindowSpec("jumping", 256, 8),
        target_fp=0.01,
    ),
    "stable-bloom": DetectorSpec(
        algorithm="stable-bloom", window=WindowSpec("sliding", 256),
        target_fp=0.01,
    ),
    "sharded": DetectorSpec(
        algorithm="tbf", window=WindowSpec("sliding", 256),
        target_fp=0.01, shards=2,
    ),
    "sharded-time": DetectorSpec(
        algorithm="tbf-time", window=WindowSpec("sliding", 256),
        target_fp=0.01, duration=64.0, resolution=16, shards=2,
    ),
    "sharded-apbf": DetectorSpec(
        algorithm="apbf", window=WindowSpec("sliding", 256),
        target_fp=0.01, shards=2,
    ),
    "sharded-tlbf": DetectorSpec(
        algorithm="time-limited-bf", window=WindowSpec("sliding", 256),
        target_fp=0.01, duration=64.0, resolution=16, shards=2,
    ),
    "parallel": DetectorSpec(
        algorithm="tbf", window=WindowSpec("sliding", 256),
        target_fp=0.01, shards=2, engine="parallel",
    ),
    "parallel-time": DetectorSpec(
        algorithm="tbf-time", window=WindowSpec("sliding", 256),
        target_fp=0.01, duration=64.0, resolution=16, shards=2,
        engine="parallel",
    ),
    "parallel-apbf": DetectorSpec(
        algorithm="apbf", window=WindowSpec("sliding", 256),
        target_fp=0.01, shards=2, engine="parallel",
    ),
}


def _whole_fleet_slice(name):
    # One node owning every shard, so the slice answers every click.
    fleet = create_detector(SPECS[name])
    return split_sharded(fleet, np.zeros(fleet.num_shards, dtype=np.int64), 1)[0]


#: Every variant: the spec-built ones plus the adaptive and cluster tiers.
VARIANTS = {
    **{name: (lambda spec=spec: create_detector(spec)) for name, spec in SPECS.items()},
    "adaptive": lambda: AdaptiveDetector(SPECS["apbf"]),
    "adaptive-time": lambda: AdaptiveDetector(SPECS["time-limited-bf"]),
    "cluster-slice": lambda: _whole_fleet_slice("sharded"),
    "cluster-slice-time": lambda: _whole_fleet_slice("sharded-time"),
}

TIMED = {
    "gbf-time",
    "tbf-time",
    "time-limited-bf",
    "sharded-time",
    "sharded-tlbf",
    "parallel-time",
    "adaptive-time",
    "cluster-slice-time",
}

#: Baselines answer the contract but keep no checkpoint or telemetry.
BASELINES = {"exact", "landmark-bloom", "naive-bloom", "metwally-cbf", "stable-bloom"}


def _stream(count=3000, seed=11):
    rng = np.random.default_rng(seed)
    identifiers = rng.integers(0, 120, size=count, dtype=np.uint64)
    timestamps = np.cumsum(rng.exponential(0.05, size=count))
    return identifiers, timestamps


def _close(detector):
    close = getattr(detector, "close", None)
    if close is not None:
        close()


def _native(detector):
    """The variant's own scalar call as ``(identifier, timestamp) -> bool``.

    Core variants and baselines keep their scalar reference loops
    (``process`` / ``process_at``).  The tiers answer only the contract,
    so theirs is ``observe`` — without the timestamp when count-based.
    """
    if detector.timed:
        return getattr(detector, "process_at", detector.observe)
    process = getattr(detector, "process", None)
    if process is None:
        return lambda identifier, timestamp: detector.observe(identifier)
    return lambda identifier, timestamp: process(identifier)


@pytest.fixture(params=sorted(VARIANTS))
def variant(request):
    detector = VARIANTS[request.param]()
    try:
        yield request.param, detector
    finally:
        _close(detector)


class TestProtocolConformance:
    def test_satisfies_protocol(self, variant):
        name, detector = variant
        assert isinstance(detector, Detector)
        assert detector.timed is (name in TIMED)

    def test_covers_every_algorithm_and_tier(self):
        assert {spec.algorithm for spec in SPECS.values()} == set(ALGORITHMS)
        built = {}
        for name, factory in VARIANTS.items():
            detector = factory()
            try:
                built.setdefault(type(detector), set()).add(detector.timed)
            finally:
                _close(detector)
        for tier in (
            ShardedDetector, ParallelShardedDetector, ClusterSlice, AdaptiveDetector
        ):
            assert built[tier] == {False, True}, tier.__name__

    def test_operational_surface(self, variant):
        name, detector = variant
        if name in BASELINES:
            assert int(detector.memory_bits) >= 0
            return
        blob = detector.checkpoint_state()
        assert isinstance(blob, bytes) and blob
        snapshot = detector.telemetry_snapshot()
        assert isinstance(snapshot, dict)
        assert int(detector.memory_bits) > 0

    def test_observe_matches_native_scalar(self, variant):
        name, _ = variant
        identifiers, timestamps = _stream()
        native = VARIANTS[name]()
        observed = VARIANTS[name]()
        try:
            scalar = _native(native)
            expected = [
                scalar(int(i), float(t)) for i, t in zip(identifiers, timestamps)
            ]
            got = [
                observed.observe(int(i), float(t))
                for i, t in zip(identifiers, timestamps)
            ]
            assert got == expected
        finally:
            _close(native)
            _close(observed)

    def test_observe_batch_matches_observe(self, variant):
        name, _ = variant
        identifiers, timestamps = _stream()
        scalar = VARIANTS[name]()
        batch = VARIANTS[name]()
        try:
            expected = np.array(
                [
                    scalar.observe(int(i), float(t))
                    for i, t in zip(identifiers, timestamps)
                ],
                dtype=bool,
            )
            got = np.asarray(batch.observe_batch(identifiers, timestamps), dtype=bool)
            assert (got == expected).all()
        finally:
            _close(scalar)
            _close(batch)


class TestContract:
    def test_counted_ignores_timestamp(self):
        detector = VARIANTS["tbf"]()
        assert detector.observe(7) is False
        assert detector.observe(7, timestamp=123.0) is True

    def test_timed_requires_timestamp(self):
        for name in sorted(TIMED):
            detector = VARIANTS[name]()
            try:
                with pytest.raises(ConfigurationError):
                    detector.observe(7)
                with pytest.raises(ConfigurationError):
                    detector.observe_batch(np.array([7], dtype=np.uint64))
            finally:
                _close(detector)

    def test_scalar_fallback_without_batch_method(self):
        class Scalar(CountBasedDetector):
            def __init__(self):
                self.seen = set()

            def process(self, identifier):
                duplicate = identifier in self.seen
                self.seen.add(identifier)
                return duplicate

        class TimedScalar(TimeBasedDetector):
            def __init__(self):
                self.last = {}

            def process_at(self, identifier, timestamp):
                duplicate = timestamp - self.last.get(identifier, -10.0) < 10.0
                if not duplicate:
                    self.last[identifier] = timestamp
                return duplicate

        identifiers = np.array([1, 2, 1, 3, 2], dtype=np.uint64)
        verdicts = Scalar().observe_batch(identifiers)
        assert list(verdicts) == [False, False, True, False, True]
        verdicts = TimedScalar().observe_batch(
            identifiers, np.array([0.0, 1.0, 2.0, 3.0, 20.0])
        )
        assert list(verdicts) == [False, False, True, False, False]

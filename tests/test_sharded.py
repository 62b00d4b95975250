"""Tests for sharded (distributed) duplicate detection."""

import random

import pytest

from repro.baselines import TimeBasedExactDetector
from repro.core import TBFDetector, TimeBasedTBFDetector
from repro.detection import ShardedDetector, default_router
from repro.errors import ConfigurationError
from repro.windows import TimeBasedSlidingWindow
from tests.fleets import tbf_fleet, timed_tbf_fleet


class TestRouter:
    def test_stable_and_in_range(self):
        route = default_router(7)
        for identifier in range(1000):
            shard = route(identifier)
            assert 0 <= shard < 7
            assert route(identifier) == shard

    def test_roughly_balanced(self):
        route = default_router(8)
        counts = [0] * 8
        for identifier in range(80_000):
            counts[route(identifier)] += 1
        assert max(counts) < 1.1 * min(counts)


class TestShardedDetector:
    def test_needs_shards(self):
        with pytest.raises(ConfigurationError):
            ShardedDetector([])
        with pytest.raises(ConfigurationError):
            tbf_fleet(1024, 0, 1 << 14)

    def test_immediate_repeat_detected(self):
        sharded = tbf_fleet(1024, 4, 1 << 16, seed=1)
        assert sharded.observe(42) is False
        assert sharded.observe(42) is True
        assert sharded.query(42) is True

    def test_repeats_route_to_same_shard(self):
        sharded = tbf_fleet(1024, 8, 1 << 16, seed=1)
        rng = random.Random(3)
        for _ in range(2000):
            sharded.observe(rng.randrange(500))
        # Every identifier's state lives in exactly one shard: a repeat
        # is found regardless of what other shards saw.
        assert sharded.observe(12345) is False
        for filler in range(10_000, 10_050):
            sharded.observe(filler)
        assert sharded.observe(12345) is True

    def test_memory_and_shard_accounting(self):
        sharded = tbf_fleet(1024, 4, 1 << 16, seed=1)
        for identifier in range(4000):
            sharded.observe(identifier)
        assert sharded.num_shards == 4
        assert sum(sharded.shard_arrivals()) == 4000
        assert 1.0 <= sharded.load_imbalance() < 1.3
        assert sharded.memory_bits <= TBFDetector(1024, 1 << 16).memory_bits * 1.1

    def test_local_window_approximates_global(self):
        # A duplicate at small global lag is always caught; only lags
        # near the window boundary are subject to shard-local skew.
        sharded = tbf_fleet(1024, 4, 1 << 18, seed=2)
        rng = random.Random(5)
        sharded.observe(777)
        for _ in range(100):  # global lag 100 << N=1024
            sharded.observe(rng.randrange(10**9, 2 * 10**9))
        assert sharded.observe(777) is True

    def test_empty_imbalance(self):
        assert tbf_fleet(64, 2, 1024).load_imbalance() == 1.0

    def test_refuses_mixed_time_models(self):
        with pytest.raises(ConfigurationError, match="time model"):
            ShardedDetector(
                [TBFDetector(64, 1024, 4), TimeBasedTBFDetector(8.0, 8, 1024, 4)]
            )


class TestTimeBasedSharding:
    def test_matches_exact_semantics(self):
        # Time-based sharding is exact: compare against the exact
        # labeler at unit-aligned timestamps.
        duration, resolution = 16.0, 16
        sharded = timed_tbf_fleet(
            duration, resolution, 4, 1 << 18, num_hashes=8, seed=3
        )
        exact = TimeBasedExactDetector(TimeBasedSlidingWindow(duration))
        rng = random.Random(7)
        now = 0.0
        for _ in range(1500):
            now += float(rng.choice([0.0, 1.0, 2.0]))
            identifier = rng.randrange(80)
            assert sharded.observe(identifier, now) == exact.process_at(
                identifier, now
            )

    def test_memory_split_across_shards(self):
        sharded = timed_tbf_fleet(10.0, 10, 4, 1 << 16, seed=1)
        single = TimeBasedTBFDetector(10.0, 10, 1 << 16, seed=1)
        assert sharded.memory_bits <= single.memory_bits * 1.1

    def test_needs_shards(self):
        with pytest.raises(ConfigurationError):
            ShardedDetector([])
        with pytest.raises(ConfigurationError):
            timed_tbf_fleet(10.0, 10, 0, 1024)

"""Unit tests for the detection layer: factory, pipeline, scoring, alerts."""

import pytest

from repro.adnet import TrafficProfile, demo_network
from repro.baselines import (
    ExactDetector,
    LandmarkBloomDetector,
    MetwallyCBFDetector,
    NaiveSubwindowBloomDetector,
    StableBloomDetector,
)
from repro.core import GBFDetector, TBFDetector, TBFJumpingDetector
from repro.detection import (
    AlertEngine,
    AlertRule,
    DetectionPipeline,
    WindowSpec,
    classify_stream,
    DetectorSpec,
    create_detector,
    default_rules,
)
from repro.errors import ConfigurationError
from repro.streams import Click, TrafficClass


class TestWindowSpec:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            WindowSpec("bogus", 100)
        with pytest.raises(ConfigurationError):
            WindowSpec("sliding", 0)
        with pytest.raises(ConfigurationError):
            WindowSpec("jumping", 100, 3)

    def test_valid_specs(self):
        WindowSpec("sliding", 100)
        WindowSpec("jumping", 100, 4)
        WindowSpec("landmark", 100)


class TestCreateDetector:
    def test_gbf_from_memory(self):
        detector = create_detector(DetectorSpec(algorithm="gbf", window=WindowSpec("jumping", 1024, 8), memory_bits=1 << 16))
        assert isinstance(detector, GBFDetector)
        assert detector.logical_memory_bits <= 1 << 16

    def test_gbf_for_target(self):
        detector = create_detector(DetectorSpec(algorithm="gbf", window=WindowSpec("jumping", 1024, 8), target_fp=0.01))
        assert isinstance(detector, GBFDetector)

    def test_tbf_from_memory(self):
        detector = create_detector(DetectorSpec(algorithm="tbf", window=WindowSpec("sliding", 1024), memory_bits=1 << 18))
        assert isinstance(detector, TBFDetector)
        assert detector.memory_bits <= 1 << 18

    def test_tbf_for_target_meets_fp(self):
        from repro.analysis import tbf_fp

        detector = create_detector(DetectorSpec(algorithm="tbf", window=WindowSpec("sliding", 4096), target_fp=0.01))
        assert tbf_fp(4096, detector.num_entries, detector.num_hashes) <= 0.01

    def test_tbf_jumping(self):
        detector = create_detector(DetectorSpec(algorithm="tbf-jumping", window=WindowSpec("jumping", 1024, 64), memory_bits=1 << 16))
        assert isinstance(detector, TBFJumpingDetector)

    def test_exact_variants(self):
        for kind in ("sliding", "jumping", "landmark"):
            spec = WindowSpec(kind, 64, 4 if kind == "jumping" else 1)
            assert isinstance(create_detector(DetectorSpec(algorithm="exact", window=spec)), ExactDetector)

    def test_other_algorithms(self):
        assert isinstance(
            create_detector(DetectorSpec(algorithm="landmark-bloom", window=WindowSpec("landmark", 256), memory_bits=4096)),
            LandmarkBloomDetector,
        )
        assert isinstance(
            create_detector(DetectorSpec(algorithm="naive-bloom", window=WindowSpec("jumping", 256, 4), memory_bits=1 << 14)),
            NaiveSubwindowBloomDetector,
        )
        assert isinstance(
            create_detector(DetectorSpec(algorithm="metwally-cbf", window=WindowSpec("jumping", 256, 4), memory_bits=1 << 16)),
            MetwallyCBFDetector,
        )
        assert isinstance(
            create_detector(DetectorSpec(algorithm="stable-bloom", window=WindowSpec("sliding", 256), memory_bits=1 << 14)),
            StableBloomDetector,
        )

    def test_window_kind_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            create_detector(DetectorSpec(algorithm="gbf", window=WindowSpec("sliding", 256), memory_bits=4096))
        with pytest.raises(ConfigurationError):
            create_detector(DetectorSpec(algorithm="tbf", window=WindowSpec("jumping", 256, 4), memory_bits=4096))

    def test_sizing_arguments_required_and_exclusive(self):
        spec = WindowSpec("sliding", 256)
        with pytest.raises(ConfigurationError):
            create_detector(DetectorSpec(algorithm="tbf", window=spec))
        with pytest.raises(ConfigurationError):
            create_detector(DetectorSpec(algorithm="tbf", window=spec, memory_bits=1024, target_fp=0.1))

    def test_unknown_algorithm(self):
        with pytest.raises(ConfigurationError):
            create_detector(DetectorSpec(algorithm="quantum", window=WindowSpec("sliding", 10), memory_bits=10))

    def test_spec_time_based_variants(self):
        from repro.core import TimeBasedGBFDetector, TimeBasedTBFDetector

        gbf = create_detector(DetectorSpec(
            algorithm="gbf-time", window=WindowSpec("jumping", 1024, 8),
            target_fp=0.01, duration=60.0,
        ))
        assert isinstance(gbf, TimeBasedGBFDetector)
        tbf = create_detector(DetectorSpec(
            algorithm="tbf-time", window=WindowSpec("sliding", 1024),
            target_fp=0.01, duration=60.0, resolution=16,
        ))
        assert isinstance(tbf, TimeBasedTBFDetector)

    def test_spec_duration_required_and_forbidden(self):
        with pytest.raises(ConfigurationError):
            DetectorSpec(algorithm="tbf-time",
                         window=WindowSpec("sliding", 1024), target_fp=0.01)
        with pytest.raises(ConfigurationError):
            DetectorSpec(algorithm="tbf", window=WindowSpec("sliding", 1024),
                         target_fp=0.01, duration=60.0)

    def test_spec_sharded_variants(self):
        from repro.detection import ShardedDetector

        sharded = create_detector(DetectorSpec(
            algorithm="tbf", window=WindowSpec("sliding", 1024),
            target_fp=0.01, shards=4,
        ))
        assert isinstance(sharded, ShardedDetector)
        assert sharded.num_shards == 4
        timed = create_detector(DetectorSpec(
            algorithm="tbf-time", window=WindowSpec("sliding", 1024),
            target_fp=0.01, duration=60.0, shards=4,
        ))
        assert isinstance(timed, ShardedDetector)
        assert timed.timed and not sharded.timed

    def test_spec_shards_require_shardable_algorithm(self):
        with pytest.raises(ConfigurationError):
            DetectorSpec(algorithm="gbf", window=WindowSpec("jumping", 1024, 8),
                         target_fp=0.01, shards=4)

    def test_spec_rejects_extra_kwargs(self):
        spec = DetectorSpec(algorithm="tbf", window=WindowSpec("sliding", 1024),
                            target_fp=0.01)
        with pytest.raises(ConfigurationError):
            create_detector(spec, target_fp=0.5)
        with pytest.raises(ConfigurationError):
            create_detector(spec, window=WindowSpec("sliding", 64))


class TestPipeline:
    def _run(self, with_billing=True, seed=0):
        network = demo_network(seed=seed)
        clicks = network.run(
            duration=1200.0,
            profile=TrafficProfile(click_rate=1.5, num_visitors=40),
        )
        detector = create_detector(DetectorSpec(algorithm="tbf", window=WindowSpec("sliding", 2048), memory_bits=1 << 18))
        billing = network.make_billing_engine() if with_billing else None
        pipeline = DetectionPipeline(detector, billing=billing)
        return pipeline.run(clicks), clicks

    def test_counts_are_consistent(self):
        result, clicks = self._run(with_billing=False)
        assert result.processed == len(clicks)
        assert result.valid + result.duplicates == result.processed
        assert 0.0 <= result.duplicate_rate <= 1.0

    def test_botnet_repeats_rejected(self):
        result, clicks = self._run()
        # The demo botnet re-clicks the same ads from stable identities;
        # most of its clicks beyond the first per window are duplicates.
        assert result.duplicates > 0
        assert result.billing_summary["fraud_prevented"] > 0

    def test_bot_traffic_rejected_more_than_legitimate(self):
        # Per-click dedup hits the botnet (stable identities hammering
        # the same ads) much harder than organic browsing, even though
        # some legitimate repeat-pairs are also deduplicated.
        result, clicks = self._run()
        charged = {id(c): c.charged for c in clicks}
        legit = [c for c in clicks if c.traffic_class is TrafficClass.LEGITIMATE]
        bots = [c for c in clicks if c.traffic_class is TrafficClass.BOTNET]
        legit_charged = sum(1 for c in legit if charged[id(c)]) / len(legit)
        bot_charged = sum(1 for c in bots if charged[id(c)]) / len(bots)
        assert bot_charged < legit_charged

    def test_scoreboard_ranks_bots_first(self):
        result, clicks = self._run()
        top = result.scoreboard.top_sources(count=5, min_clicks=10)
        bot_ips = {c.source_ip for c in clicks if c.traffic_class is TrafficClass.BOTNET}
        assert top, "scoreboard should have entries"
        top_ips = {ip for ip, _ in top}
        assert top_ips & bot_ips, "bot identities should rank among top suspects"

    def test_classify_stream(self):
        clicks = [
            Click(0.0, 1, 1, 1, 0, 0),
            Click(1.0, 1, 1, 1, 0, 0),
            Click(2.0, 2, 2, 1, 0, 0),
        ]
        detector = create_detector(DetectorSpec(algorithm="tbf", window=WindowSpec("sliding", 64), memory_bits=1 << 14))
        verdicts = classify_stream(clicks, detector)
        assert verdicts == [False, True, False]

    def test_empty_stream_duplicate_rate(self):
        detector = create_detector(DetectorSpec(algorithm="tbf", window=WindowSpec("sliding", 64), memory_bits=1 << 14))
        result = DetectionPipeline(detector).run([])
        assert result.processed == 0
        assert result.duplicate_rate == 0.0
        assert DetectionPipeline(detector).run_batch([]).duplicate_rate == 0.0

    @pytest.mark.parametrize("chunk_size", [1, 97, 4096])
    def test_run_batch_matches_run(self, chunk_size):
        network = demo_network(seed=0)
        clicks = network.run(
            duration=600.0,
            profile=TrafficProfile(click_rate=1.5, num_visitors=40),
        )

        def make_pipeline():
            detector = create_detector(DetectorSpec(algorithm="tbf", window=WindowSpec("sliding", 2048), memory_bits=1 << 18))
            return DetectionPipeline(detector, billing=network.make_billing_engine())

        scalar = make_pipeline().run(clicks)
        batched = make_pipeline().run_batch(clicks, chunk_size=chunk_size)
        assert batched.processed == scalar.processed
        assert batched.valid == scalar.valid
        assert batched.duplicates == scalar.duplicates
        assert batched.budget_exhausted == scalar.budget_exhausted
        assert batched.billing_summary == scalar.billing_summary

    def test_run_batch_rejects_bad_chunk_size(self):
        detector = create_detector(DetectorSpec(algorithm="tbf", window=WindowSpec("sliding", 64), memory_bits=1 << 14))
        with pytest.raises(ConfigurationError):
            DetectionPipeline(detector).run_batch([], chunk_size=0)


class TestAlerts:
    def test_rule_validation(self):
        with pytest.raises(ConfigurationError):
            AlertRule("x", "bogus", 0.5)
        with pytest.raises(ConfigurationError):
            AlertRule("x", "source", 0.0)
        with pytest.raises(ConfigurationError):
            AlertRule("x", "source", 0.5, min_clicks=0)

    def test_alert_fires_once_per_key(self):
        engine = AlertEngine([AlertRule("hot", "source", 0.5, min_clicks=4)])
        fired = []
        for step in range(10):
            click = Click(float(step), source_ip=7, cookie=1, ad_id=1,
                          publisher_id=0, advertiser_id=0)
            fired.extend(engine.observe(click, duplicate=True))
        assert len(fired) == 1
        assert fired[0].key == 7
        assert fired[0].duplicate_rate >= 0.5

    def test_alert_rearm(self):
        engine = AlertEngine([AlertRule("hot", "source", 0.5, min_clicks=2)])
        click = Click(0.0, source_ip=7, cookie=1, ad_id=1, publisher_id=0, advertiser_id=0)
        engine.observe(click, True)
        assert engine.observe(click, True)  # fires
        engine.reset_key("hot", 7)
        assert engine.observe(click, True)  # fires again after re-arm

    def test_clean_sources_never_alert(self):
        engine = AlertEngine(default_rules())
        for step in range(100):
            click = Click(float(step), source_ip=step, cookie=step, ad_id=1,
                          publisher_id=0, advertiser_id=0)
            assert engine.observe(click, duplicate=False) == []
        assert engine.alerts == []

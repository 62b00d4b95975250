"""Integration tests: the full system end to end.

These exercise the deployment story the paper motivates — an ad network
under attack, both parties auditing, billing settled through a sketch
detector — across module boundaries (streams -> adnet -> detection ->
core -> metrics)."""

import pytest

from repro import (
    AdNetwork,
    DetectionPipeline,
    TrafficProfile,
    WindowSpec,
    DetectorSpec,
    create_detector,
    run_audit,
)
from repro.adnet import competitor_botnet
from repro.baselines import ExactDetector
from repro.core import CountBasedDetector
from repro.detection import AlertEngine, default_rules
from repro.streams import (
    DEFAULT_SCHEME,
    TrafficClass,
    load_clicks,
    write_clicks_jsonl,
)


@pytest.fixture(scope="module")
def attack_run():
    """One shared simulation: a mid-size network under botnet attack.

    Large enough ad inventory that organic browsing rarely repeats a
    (visitor, ad) pair, so duplicate statistics separate bots from
    humans cleanly.
    """
    network = AdNetwork(seed=21)
    keywords = [f"kw{i}" for i in range(30)]
    rng_bids = [(f"adv{i}", {k: 0.2 + ((i * 7 + j) % 10) * 0.1
                             for j, k in enumerate(keywords) if (i + j) % 3})
                for i in range(12)]
    for name, bids in rng_bids:
        network.add_advertiser(name, budget=10_000.0, bids=bids)
    for p in range(3):
        network.add_publisher(f"pub{p}", traffic_weight=1.0 + p)
    network.run_auctions(keywords)
    competitor_botnet(network, num_bots=40, mean_interval=90.0, seed=22)
    clicks = network.run(
        duration=2400.0,
        profile=TrafficProfile(click_rate=2.0, num_visitors=300,
                               ad_popularity_exponent=0.8,
                               revisit_probability=0.05,
                               revisit_mean_delay=400.0),
    )
    return network, clicks


def test_sketch_pipeline_matches_exact_pipeline(attack_run):
    network, clicks = attack_run
    sketch = create_detector(DetectorSpec(algorithm="tbf", window=WindowSpec("sliding", 4096), target_fp=0.001))
    exact = ExactDetector.sliding(4096)
    sketch_verdicts = []
    exact_verdicts = []
    for click in clicks:
        identifier = DEFAULT_SCHEME.identify(click)
        sketch_verdicts.append(sketch.process(identifier))
        exact_verdicts.append(exact.process(identifier))
    mismatches = sum(
        1 for s, e in zip(sketch_verdicts, exact_verdicts) if s != e
    )
    # At target_fp=0.001 over a few thousand clicks, the sketch should
    # disagree with exact ground truth on at most a handful of clicks.
    assert mismatches <= max(5, len(clicks) // 500)


def test_billing_economics_of_detection(attack_run):
    network, clicks = attack_run
    billing = network.make_billing_engine()
    detector = create_detector(DetectorSpec(algorithm="tbf", window=WindowSpec("sliding", 4096), target_fp=0.001))
    pipeline = DetectionPipeline(detector, billing=billing)
    result = pipeline.run(clicks)
    summary = result.billing_summary
    assert result.processed == len(clicks)
    # The botnets hammer the same ads: duplicate rejection must prevent
    # a substantial fraction of the fraudulent spend.
    fraud_total = summary["fraud_prevented"] + summary["fraud_charged"]
    assert fraud_total > 0
    assert summary["fraud_prevented"] > 0.5 * fraud_total
    # Publisher earnings and advertiser spend stay consistent.
    spent = sum(a.spent for a in network.advertisers.all())
    earned = sum(p.earned for p in network.publishers.all())
    assert spent == pytest.approx(summary["charged_amount"], rel=1e-6)
    assert earned + billing.network_revenue == pytest.approx(spent, rel=1e-6)


def test_advertiser_publisher_audit_agreement(attack_run):
    _, clicks = attack_run
    # Advertiser runs GBF over a jumping window, publisher runs TBF over
    # a sliding window of the same span: window semantics differ at block
    # edges, but both are zero-FN and low-FP, so agreement stays high.
    advertiser = create_detector(DetectorSpec(algorithm="gbf", window=WindowSpec("jumping", 4096, 8), target_fp=0.001))
    publisher = create_detector(DetectorSpec(algorithm="tbf", window=WindowSpec("sliding", 4096), target_fp=0.001))
    report = run_audit(clicks, advertiser, publisher)
    assert report.total_clicks == len(clicks)
    assert report.agreement_rate > 0.95
    assert report.disputed < report.total_clicks * 0.05


def test_alerts_identify_attack_sources(attack_run):
    _, clicks = attack_run
    detector = create_detector(DetectorSpec(algorithm="tbf", window=WindowSpec("sliding", 4096), target_fp=0.001))
    engine = AlertEngine(default_rules())
    for click in clicks:
        duplicate = detector.process(DEFAULT_SCHEME.identify(click))
        engine.observe(click, duplicate)
    flagged = {alert.key for alert in engine.alerts if alert.scope == "source"}
    bot_ips = {c.source_ip for c in clicks if c.traffic_class is TrafficClass.BOTNET}
    legit_ips = {c.source_ip for c in clicks if c.traffic_class is TrafficClass.LEGITIMATE}
    # Essentially every bot is flagged (they hammer the same ads)...
    assert len(flagged & bot_ips) >= 0.8 * len(bot_ips)
    # ...and the alert discriminates: the flag rate among bots exceeds
    # the flag rate among legitimate visitors.  (This toy network has so
    # few ads that even organic browsing repeats pairs, so some
    # legitimate flags are correct behaviour, not false alarms.)
    legit_only = legit_ips - bot_ips
    legit_rate = len(flagged & legit_only) / max(1, len(legit_only))
    bot_rate = len(flagged & bot_ips) / len(bot_ips)
    assert bot_rate > legit_rate


def test_stream_roundtrip_preserves_detection(tmp_path, attack_run):
    _, clicks = attack_run
    path = tmp_path / "stream.jsonl"
    write_clicks_jsonl(path, clicks)
    reloaded = load_clicks(path)
    assert len(reloaded) == len(clicks)
    a = create_detector(DetectorSpec(algorithm="tbf", window=WindowSpec("sliding", 1024), memory_bits=1 << 18, seed=9))
    b = create_detector(DetectorSpec(algorithm="tbf", window=WindowSpec("sliding", 1024), memory_bits=1 << 18, seed=9))
    for original, loaded in zip(clicks, reloaded):
        assert a.process(DEFAULT_SCHEME.identify(original)) == b.process(
            DEFAULT_SCHEME.identify(loaded)
        )


def test_budget_protection_under_attack():
    # Without dedup the botnet drains the advertiser budget; with dedup
    # the same traffic leaves most of it intact.
    def run_with(detector):
        network = AdNetwork(seed=33)
        network.add_advertiser("victim", budget=200.0, bids={"w": 2.0})
        network.add_publisher("p")
        network.run_auctions(["w"])
        competitor_botnet(network, num_bots=30, mean_interval=60.0, seed=34)
        clicks = network.run(
            duration=3600.0,
            profile=TrafficProfile(click_rate=0.2, num_visitors=30),
        )
        billing = network.make_billing_engine()
        pipeline = DetectionPipeline(detector, billing=billing)
        pipeline.run(clicks)
        return network.advertisers.get(0).remaining_budget

    class NoDetection(CountBasedDetector):
        def process(self, identifier):
            return False

    unprotected = run_with(NoDetection())
    protected = run_with(
        create_detector(DetectorSpec(algorithm="tbf", window=WindowSpec("sliding", 8192), target_fp=0.001))
    )
    assert protected > unprotected


def test_coalition_detector_finds_botnet(attack_run):
    # The 40 bots all click the same two target ads; organic visitors
    # wander over ~90 placements.  The MinHash coalition detector groups
    # the bots without any duplicate-detection signal at all.
    from repro.detection import CoalitionDetector

    _, clicks = attack_run
    detector = CoalitionDetector(num_hashes=64, max_sources=512, min_clicks=8, seed=1)
    for click in clicks:
        detector.observe_click(click)
    bot_ips = {c.source_ip for c in clicks if c.traffic_class is TrafficClass.BOTNET}
    groups = detector.coalitions(threshold=0.9)
    assert groups, "the botnet must form at least one coalition"
    largest = groups[0]
    assert largest <= bot_ips, "the top coalition must be pure botnet"
    assert len(largest) >= 0.7 * len(bot_ips)


def test_skew_monitor_flags_botnet_targets(attack_run):
    from repro.detection import SkewMonitor

    _, clicks = attack_run
    monitor = SkewMonitor(capacity=128)
    for click in clicks:
        monitor.observe(click)
    bot_ads = {c.ad_id for c in clicks if c.traffic_class is TrafficClass.BOTNET}
    flagged = {hitter.element for hitter in monitor.suspicious_ads(phi=0.05)}
    assert bot_ads & flagged, "hammered ads must surface as heavy hitters"

#!/usr/bin/env python
"""Scenario 2 from the paper: a botnet attacks a pay-per-click network.

Simulates a small advertising network (keyword auctions, visitors,
billing) with a competitor-operated botnet hammering the most expensive
placements, then runs the full detection pipeline — TBF duplicate
detection, billing settlement, fraud scoring, and alerting — and
reports the economics with and without detection.

Run:  python examples/botnet_attack.py
"""

from repro import (
    AdNetwork,
    DetectionPipeline,
    DetectorSpec,
    TrafficProfile,
    WindowSpec,
    create_detector,
)
from repro.adnet import competitor_botnet
from repro.core import CountBasedDetector
from repro.detection import AlertEngine, default_rules
from repro.metrics import render_table
from repro.streams import DEFAULT_SCHEME, TrafficClass


def build_network(seed: int = 11) -> AdNetwork:
    network = AdNetwork(seed=seed)
    network.add_advertiser("BlueWidgets", budget=30_000.0,
                           bids={"widgets": 1.50, "gadgets": 0.60, "sprockets": 0.45})
    network.add_advertiser("GadgetKing", budget=20_000.0,
                           bids={"gadgets": 1.10, "widgets": 0.80, "deals": 0.20,
                                 "cameras": 0.70})
    network.add_advertiser("CheapDeals", budget=10_000.0,
                           bids={"deals": 0.40, "gadgets": 0.30, "shoes": 0.25,
                                 "cameras": 0.35})
    network.add_advertiser("ShoeBarn", budget=10_000.0,
                           bids={"shoes": 0.55, "deals": 0.15, "sprockets": 0.20})
    network.add_publisher("search-portal", traffic_weight=2.0, revenue_share=0.68)
    network.add_publisher("blog-ring", traffic_weight=1.0, revenue_share=0.75)
    network.run_auctions(
        ["widgets", "gadgets", "deals", "sprockets", "cameras", "shoes"]
    )
    return network


def run_once(with_detection: bool, seed: int = 11):
    network = build_network(seed)
    # 150 bots re-clicking the two priciest placements every ~2 minutes.
    competitor_botnet(network, num_bots=150, mean_interval=120.0, seed=seed + 1)
    clicks = network.run(
        duration=4 * 3600.0,  # four hours of traffic
        profile=TrafficProfile(click_rate=1.2, num_visitors=400,
                               revisit_probability=0.04, revisit_mean_delay=1800.0),
    )
    if with_detection:
        detector = create_detector(DetectorSpec(algorithm="tbf", window=WindowSpec("sliding", 16_384), target_fp=0.001, seed=seed))
    else:
        class AcceptEverything(CountBasedDetector):
            def process(self, identifier: int) -> bool:
                return False

        detector = AcceptEverything()
    pipeline = DetectionPipeline(detector, billing=network.make_billing_engine())
    result = pipeline.run(clicks)
    return network, clicks, result


def main() -> None:
    undefended_network, clicks, undefended = run_once(with_detection=False)
    defended_network, _, defended = run_once(with_detection=True)

    total = len(clicks)
    bot_clicks = sum(1 for c in clicks if c.traffic_class is TrafficClass.BOTNET)
    print(f"Traffic: {total} clicks over 4h; {bot_clicks} from the botnet "
          f"({100 * bot_clicks / total:.1f}%)\n")

    rows = []
    for label, result in (("no detection", undefended), ("TBF pipeline", defended)):
        summary = result.billing_summary
        rows.append(
            [
                label,
                summary["charged_clicks"],
                summary["rejected_clicks"],
                f"${summary['charged_amount']:.2f}",
                f"${summary['fraud_charged']:.2f}",
                f"${summary['fraud_prevented']:.2f}",
            ]
        )
    print(
        render_table(
            ["pipeline", "charged", "rejected", "billed total",
             "fraud billed", "fraud prevented"],
            rows,
            title="Billing outcome with and without duplicate detection",
        )
    )

    victim = defended_network.advertisers.get(0)
    victim_undefended = undefended_network.advertisers.get(0)
    print(f"Top bidder's budget left:  undefended ${victim_undefended.remaining_budget:.2f}"
          f"  vs defended ${victim.remaining_budget:.2f}\n")

    # Fraud scoring + alerting on the defended run.
    detector = create_detector(DetectorSpec(algorithm="tbf", window=WindowSpec("sliding", 16_384), target_fp=0.001, seed=99))
    engine = AlertEngine(default_rules())
    for click in clicks:
        engine.observe(click, detector.process(DEFAULT_SCHEME.identify(click)))
    bot_ips = {c.source_ip for c in clicks if c.traffic_class is TrafficClass.BOTNET}
    flagged = [a for a in engine.alerts if a.scope == "source"]
    hits = sum(1 for alert in flagged if alert.key in bot_ips)
    print(f"Alerts: {len(flagged)} hot sources flagged; "
          f"{hits} are actual bots ({len(bot_ips)} bots total)")
    for alert in flagged[:5]:
        kind = "BOT" if alert.key in bot_ips else "human"
        print(f"  [{alert.rule_name}] source {alert.key:#010x} ({kind}): "
              f"{alert.clicks} clicks, {100 * alert.duplicate_rate:.0f}% duplicates")


if __name__ == "__main__":
    main()

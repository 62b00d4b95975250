#!/usr/bin/env python
"""Beyond binary dedup: click quality and smart pricing (the paper's
"click quality" future-work direction).

A dishonest publisher inflates its revenue with a self-clicking script.
Duplicate detection rejects the repeats click by click; *smart pricing*
goes further and discounts every remaining click from that publisher by
its windowed valid-click ratio, so even the one billable click per
window earns a fraction of list price.  Budget pacing meanwhile keeps
the advertiser's budget from being drained in the first hour.

Run:  python examples/smart_pricing.py
"""

from repro import AdNetwork, DetectorSpec, TrafficProfile, WindowSpec, create_detector
from repro.adnet import BudgetPacer, PacingConfig, dishonest_publisher, paced_charge
from repro.detection import ClickQualityTracker, QualityConfig
from repro.errors import BudgetError
from repro.metrics import render_table
from repro.streams import DEFAULT_SCHEME


def main() -> None:
    network = AdNetwork(seed=17)
    keywords = [f"niche-{i}" for i in range(10)]
    network.add_advertiser(
        "Advertiser-A", budget=5_000.0,
        bids={k: 0.40 + 0.07 * i for i, k in enumerate(keywords) if i % 2 == 0},
    )
    network.add_advertiser(
        "Advertiser-B", budget=5_000.0,
        bids={k: 0.35 + 0.06 * i for i, k in enumerate(keywords) if i % 2 == 1},
    )
    network.add_advertiser(
        "Advertiser-C", budget=5_000.0,
        bids={k: 0.30 + 0.05 * i for i, k in enumerate(keywords) if i % 3},
    )
    network.add_publisher("honest-news", traffic_weight=2.0)
    shady = network.add_publisher("shady-aggregator", traffic_weight=1.0)
    network.run_auctions(keywords)
    # The shady publisher clicks its own placements every ~6 s.
    dishonest_publisher(network, shady.publisher_id, clicker_interval=6.0, seed=18)

    clicks = network.run(
        duration=6 * 3600.0,
        profile=TrafficProfile(click_rate=0.8, num_visitors=2500,
                               ad_popularity_exponent=0.5,
                               revisit_probability=0.03),
    )

    detector = create_detector(DetectorSpec(algorithm="tbf", window=WindowSpec("sliding", 8192), target_fp=0.001, seed=3))
    quality = ClickQualityTracker(QualityConfig(window=4096, grace_clicks=50))
    billing = network.make_billing_engine()
    pacer = BudgetPacer(PacingConfig(horizon=24 * 3600.0))

    discounts = 0.0
    for click in clicks:
        duplicate = detector.process(DEFAULT_SCHEME.identify(click))
        quality.observe(click, duplicate)
        if duplicate:
            billing.reject_duplicate(click)
            continue
        multiplier = quality.price_multiplier(click.publisher_id)
        try:
            charged = paced_charge(billing, pacer, click)
        except BudgetError:
            break
        if charged:
            # Smart pricing refunds the quality discount to the advertiser.
            discount = charged * (1.0 - multiplier)
            if discount > 0:
                billing.refund(click.advertiser_id, discount)
                publisher = network.publishers.get(click.publisher_id)
                publisher.earned -= discount * publisher.revenue_share
                discounts += discount

    print(f"processed {len(clicks)} clicks over 6h\n")
    rows = []
    for publisher, data in sorted(quality.report().items()):
        name = network.publishers.get(publisher).name
        rows.append([name, data["clicks"], f"{data['quality']:.3f}",
                     f"x{data['multiplier']:.3f}",
                     f"${network.publishers.get(publisher).earned:.2f}"])
    print(render_table(
        ["publisher", "clicks", "quality", "smart price", "earned"],
        rows,
        title="Per-publisher click quality and revenue",
    ))
    summary = billing.summary()
    print(f"\nduplicates rejected: {summary['rejected_clicks']} "
          f"(${summary['rejected_amount']:.2f} not billed)")
    print(f"smart-pricing refunds: ${discounts:.2f}")
    print(f"advertiser spend: ${summary['charged_amount'] - discounts:.2f} "
          f"(list-price value ${summary['charged_amount']:.2f})")


if __name__ == "__main__":
    main()

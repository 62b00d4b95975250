"""Tests for the resilience package: fault injection and input
hardening (dead letters from the stream readers).

``make_billing`` and ``make_stream`` are shared fixtures: other suites
import them from here.
"""

import random

import pytest

from repro.adnet.billing import BillingEngine
from repro.adnet.entities import AdLink, Advertiser, Publisher, Registry
from repro.core import TBFDetector
from repro.errors import CheckpointError, StreamError
from repro.resilience import DeadLetterSink, FaultInjector
from repro.streams.click import Click, TrafficClass
from repro.streams.io import read_clicks_jsonl, write_clicks_jsonl


# ----------------------------------------------------------------------
# Fixtures: a small ad network and a deterministic stream
# ----------------------------------------------------------------------

def make_billing():
    advertisers, publishers = Registry(), Registry()
    advertisers.add(0, Advertiser(0, "a0", budget=1000.0))
    advertisers.add(1, Advertiser(1, "a1", budget=3.0))  # exhausts mid-run
    publishers.add(0, Publisher(0, "p0"))
    publishers.add(1, Publisher(1, "p1", revenue_share=0.6))
    ad_links = {
        0: AdLink(0, 0, 0, "kw", 0.5),
        1: AdLink(1, 1, 1, "kw", 0.25),
        2: AdLink(2, 0, 1, "kw", 0.75),
    }
    return BillingEngine(advertisers, publishers, ad_links)


def make_stream(count=180, seed=11):
    rng = random.Random(seed)
    timestamp, clicks = 0.0, []
    for _ in range(count):
        timestamp += rng.random() * 0.4
        clicks.append(
            Click(
                timestamp=timestamp,
                source_ip=rng.randrange(24),
                cookie=rng.randrange(8),
                ad_id=rng.randrange(3),
                publisher_id=rng.randrange(2),
                advertiser_id=rng.randrange(2),
                traffic_class=(
                    TrafficClass.BOTNET
                    if rng.random() < 0.3
                    else TrafficClass.LEGITIMATE
                ),
            )
        )
    return clicks


# ----------------------------------------------------------------------
# Fault injector: deterministic, and the faults do what they claim
# ----------------------------------------------------------------------

def test_injector_is_deterministic():
    blob = bytes(range(256)) * 4
    a, b = FaultInjector(seed=3), FaultInjector(seed=3)
    for mode in ("flip-byte", "truncate", "zero-prefix"):
        assert a.corrupt(blob, mode) == b.corrupt(blob, mode)
        assert a.corrupt(blob, mode) != blob
    other = FaultInjector(seed=4)
    assert other.corrupt(blob, "flip-byte") != a.corrupt(blob, "flip-byte")


def test_corrupted_blob_never_loads(tmp_path):
    from repro.core import save_detector, load_detector

    blob = save_detector(TBFDetector(64, 2048, 4, seed=3))
    injector = FaultInjector(seed=2)
    for mode in ("flip-byte", "truncate", "zero-prefix"):
        with pytest.raises(CheckpointError):
            load_detector(injector.corrupt(blob, mode))


def test_dead_letter_sink_sample_bound():
    sink = DeadLetterSink(sample_size=2)
    for index in range(10):
        sink.record(index, reason="test")
    assert sink.total == 10
    assert len(sink.samples) == 2


# ----------------------------------------------------------------------
# Reader hardening feeds the same sink
# ----------------------------------------------------------------------

def test_jsonl_reader_skip_malformed_counts_lines(tmp_path):
    path = tmp_path / "stream.jsonl"
    write_clicks_jsonl(path, make_stream(5))
    lines = path.read_text().splitlines()
    lines.insert(2, "{ this is not json }")
    lines.append('{"timestamp": "noon"}')
    path.write_text("\n".join(lines) + "\n")

    # Default mode: first bad record aborts, naming the line.
    with pytest.raises(StreamError, match=r"stream\.jsonl:3"):
        list(read_clicks_jsonl(path))

    # Skip mode: everything parseable loads; the sink holds the rest.
    sink = DeadLetterSink()
    clicks = list(read_clicks_jsonl(path, on_malformed=sink))
    assert len(clicks) == 5
    assert sink.total == 2
    assert [letter.item.line_number for letter in sink.samples] == [3, 7]


def test_csv_reader_skip_malformed(tmp_path):
    from repro.streams.io import read_clicks_csv, write_clicks_csv

    path = tmp_path / "stream.csv"
    write_clicks_csv(path, make_stream(4))
    lines = path.read_text().splitlines()
    lines.insert(3, "only,three,fields")
    path.write_text("\n".join(lines) + "\n")

    with pytest.raises(StreamError, match=r"stream\.csv:4"):
        list(read_clicks_csv(path))
    sink = DeadLetterSink()
    assert len(list(read_clicks_csv(path, on_malformed=sink))) == 4
    assert sink.total == 1

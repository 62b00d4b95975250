"""Unit tests for the telemetry substrate: registry, tracing, session.

Covers the three registry design constraints (hot-path recording,
no-op twins, crash-consistent state) plus the Prometheus text
exposition — including the line-format lint the CI observability job
runs, so a malformed sample line fails before a scraper ever sees it.
"""

import asyncio
import json
import math
import re
import threading

import pytest

from repro.errors import ConfigurationError
from repro.core import GBFDetector
from repro.telemetry import (
    MetricsRegistry,
    NullRegistry,
    NullTracer,
    TelemetrySession,
    Tracer,
)
from repro.telemetry.registry import DEFAULT_BUCKETS, format_value
from repro.telemetry.tracing import NULL_SPAN


class TestCounter:
    def test_inc(self):
        counter = MetricsRegistry().counter("c_total", "help")
        counter.inc()
        counter.inc(5)
        assert counter._default().value == 6

    def test_negative_inc_raises(self):
        counter = MetricsRegistry().counter("c_total")
        with pytest.raises(ConfigurationError):
            counter.inc(-1)


class TestGauge:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("g", "help")
        gauge.set(10.5)
        gauge.inc(2)
        gauge.dec(0.5)
        assert gauge._default().value == 12.0


class TestHistogram:
    def test_bucket_placement_and_cumulation(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", buckets=(1.0, 2.0, 5.0))
        for value in (0.5, 1.0, 1.5, 10.0):
            histogram.observe(value)
        child = histogram._default()
        # 0.5 and 1.0 land in the <=1.0 bucket (upper bounds, bisect_left
        # puts an exact boundary hit in its own bucket), 1.5 in <=2.0,
        # 10.0 in +Inf.
        cumulative = child.cumulative_buckets()
        assert cumulative == [(1.0, 2), (2.0, 3), (5.0, 3), (math.inf, 4)]
        assert child.count == 4
        assert child.sum == pytest.approx(13.0)
        assert child.mean == pytest.approx(13.0 / 4)
        assert child.min == 0.5 and child.max == 10.0

    def test_reservoir_is_a_ring(self):
        registry = MetricsRegistry()
        histogram = registry.histogram(
            "h", buckets=(1.0,), reservoir_size=4
        )._default()
        for value in range(10):
            histogram.observe(float(value))
        assert len(histogram.reservoir) == 4
        assert sorted(histogram.reservoir) == [6.0, 7.0, 8.0, 9.0]
        assert histogram.count == 10

    def test_quantiles(self):
        histogram = MetricsRegistry().histogram("h")._default()
        assert histogram.quantile(0.5) == 0.0  # empty reservoir
        for value in range(1, 101):
            histogram.observe(float(value))
        assert histogram.quantile(0.0) == 1.0
        assert histogram.quantile(0.5) == 51.0
        assert histogram.quantile(1.0) == 100.0
        with pytest.raises(ConfigurationError):
            histogram.quantile(1.5)

    def test_bad_buckets_raise(self):
        registry = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            registry.histogram("h1", buckets=())
        with pytest.raises(ConfigurationError):
            registry.histogram("h2", buckets=(2.0, 1.0))
        with pytest.raises(ConfigurationError):
            registry.histogram("h3", buckets=(1.0, 1.0))
        with pytest.raises(ConfigurationError):
            registry.histogram("h4", reservoir_size=0)


class TestFamilies:
    def test_labeled_children_are_cached(self):
        family = MetricsRegistry().counter("c_total", labels=("shard",))
        assert family.labels(shard="0") is family.labels(shard="0")
        assert family.labels(shard="0") is not family.labels(shard="1")

    def test_missing_or_extra_labels_raise(self):
        family = MetricsRegistry().counter("c_total", labels=("shard",))
        with pytest.raises(ConfigurationError):
            family.labels()
        with pytest.raises(ConfigurationError):
            family.labels(shard="0", extra="1")

    def test_labeled_family_rejects_bare_recording(self):
        family = MetricsRegistry().counter("c_total", labels=("shard",))
        with pytest.raises(ConfigurationError):
            family.inc()

    def test_registration_is_idempotent(self):
        registry = MetricsRegistry()
        assert registry.counter("c_total", "help") is registry.counter("c_total")

    def test_conflicting_registration_raises(self):
        registry = MetricsRegistry()
        registry.counter("series", labels=("a",))
        with pytest.raises(ConfigurationError):
            registry.gauge("series", labels=("a",))
        with pytest.raises(ConfigurationError):
            registry.counter("series", labels=("b",))

    def test_invalid_names_raise(self):
        registry = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            registry.counter("bad-name")
        with pytest.raises(ConfigurationError):
            registry.counter("ok", labels=("bad-label",))


def _populated_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("repro_clicks_total", "Clicks").inc(42)
    registry.gauge("repro_fill", "Fill ratio").set(0.125)
    labeled = registry.counter(
        "repro_events_total", "Events", labels=("detector", "key")
    )
    labeled.labels(detector="gbf", key="rotations").inc(3)
    labeled.labels(detector='we"ird\\', key="x").inc()
    histogram = registry.histogram(
        "repro_latency_seconds", "Latency", buckets=(0.01, 0.1)
    )
    histogram.observe(0.005)
    histogram.observe(0.5)
    return registry


# One Prometheus text-format line: comment, or `name{labels} value`.
_PROM_COMMENT = re.compile(r"^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+$")
_PROM_SAMPLE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\]|\\.)*\""
    r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\]|\\.)*\")*\})?"
    r" (NaN|[+-]Inf|[-+]?[0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)?)$"
)


class TestPrometheusExposition:
    def test_every_line_is_well_formed(self):
        text = _populated_registry().to_prometheus()
        assert text.endswith("\n")
        for line in text.splitlines():
            assert _PROM_COMMENT.match(line) or _PROM_SAMPLE.match(line), line

    def test_help_and_type_precede_samples(self):
        lines = _populated_registry().to_prometheus().splitlines()
        index = lines.index("# HELP repro_clicks_total Clicks")
        assert lines[index + 1] == "# TYPE repro_clicks_total counter"
        assert lines[index + 2] == "repro_clicks_total 42"

    def test_label_escaping(self):
        text = _populated_registry().to_prometheus()
        assert 'detector="we\\"ird\\\\"' in text

    def test_histogram_series(self):
        text = _populated_registry().to_prometheus()
        assert 'repro_latency_seconds_bucket{le="0.01"} 1' in text
        assert 'repro_latency_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_latency_seconds_bucket{le="+Inf"} 2' in text
        assert "repro_latency_seconds_count 2" in text

    def test_format_value(self):
        assert format_value(3) == "3"
        assert format_value(0.25) == "0.25"
        assert format_value(float("nan")) == "NaN"
        assert format_value(float("inf")) == "+Inf"
        assert format_value(float("-inf")) == "-Inf"


class TestStateRoundTrip:
    def test_bit_identical_through_json(self):
        registry = _populated_registry()
        state = registry.state_dict()
        # The journal goes through JSON inside checkpoint frames.
        wire = json.loads(json.dumps(state))

        restored = _restored_like(registry, wire)
        assert restored.state_dict() == state
        assert restored.to_prometheus() == registry.to_prometheus()

    def test_load_before_register_is_parked(self):
        state = _populated_registry().state_dict()
        registry = MetricsRegistry()
        registry.load_state(state)
        # Nothing registered yet: snapshot is empty, state is pending.
        assert registry.snapshot()["counters"] == []
        counter = registry.counter("repro_clicks_total", "Clicks")
        assert counter._default().value == 42

    def test_unknown_series_are_kept_pending_not_dropped(self):
        registry = MetricsRegistry()
        registry.load_state({"counters": {"later_total": 7}})
        registry.counter("later_total").inc(0)  # force child creation
        assert registry.counter("later_total")._default().value == 7


def _restored_like(registry: MetricsRegistry, state) -> MetricsRegistry:
    """A fresh registry with the same families, loaded from ``state``."""
    restored = MetricsRegistry()
    restored.load_state(state)
    for family in registry.families():
        method = getattr(restored, family.kind)
        kwargs = dict(family._metric_kwargs)  # histogram bucket layout
        fresh = method(family.name, family.help, labels=family.label_names, **kwargs)
        for key, _ in family.children():
            fresh.labels(**dict(zip(family.label_names, key)))
    return restored


class TestNullRegistry:
    def test_disabled_contract(self):
        registry = NullRegistry()
        assert registry.enabled is False
        counter = registry.counter("x_total")
        counter.inc()
        counter.labels(anything="goes").inc(5)
        registry.gauge("g").set(1.0)
        registry.histogram("h").observe(2.0)
        assert registry.snapshot() == {
            "counters": [], "gauges": [], "histograms": []
        }
        assert registry.to_prometheus() == ""
        assert registry.state_dict() == {}
        registry.load_state({"counters": {"x_total": 3}})  # no-op


class TestTracer:
    def test_span_timing_and_attributes(self):
        tracer = Tracer()
        with tracer.span("phase", size=10) as span:
            span.annotate(extra=1)
        spans = tracer.spans()
        assert len(spans) == 1
        assert spans[0].name == "phase"
        assert spans[0].duration >= 0.0
        assert spans[0].attributes == {"size": 10, "extra": 1}

    def test_nesting_records_parent(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        by_name = {span.name: span for span in tracer.spans()}
        assert by_name["inner"].parent == "outer"
        assert by_name["outer"].parent is None

    def test_exception_annotated_and_propagated(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("failing"):
                raise ValueError("boom")
        assert tracer.spans()[0].attributes["error"] == "ValueError"

    def test_ring_drops_oldest(self):
        tracer = Tracer(max_spans=2)
        for index in range(4):
            with tracer.span(f"s{index}"):
                pass
        assert [span.name for span in tracer.spans()] == ["s2", "s3"]
        assert tracer.dropped == 2

    def test_chrome_trace_export(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner", size=3):
                pass
        events = json.loads(tracer.to_json())["traceEvents"]
        assert {event["name"] for event in events} == {"outer", "inner"}
        inner = next(event for event in events if event["name"] == "inner")
        assert inner["ph"] == "X"
        assert inner["args"] == {"size": 3, "parent": "outer"}
        assert inner["dur"] >= 0.0

    def test_null_tracer(self):
        tracer = NullTracer()
        span = tracer.span("anything", key="value")
        assert span is NULL_SPAN
        with span:
            span.annotate(ignored=True)
        assert tracer.spans() == []
        assert json.loads(tracer.to_json()) == {"traceEvents": []}


class TestSession:
    def test_disabled_session_is_inert(self):
        session = TelemetrySession.disabled()
        assert session.enabled is False
        assert session.instrument_detector(object()) is None
        session.advance(10_000_000)
        assert session.emit() is None
        assert session.state_dict() == {}

    def test_advance_fires_snapshot_callbacks_on_cadence(self):
        session = TelemetrySession(snapshot_every=100)
        detector = GBFDetector(64, 8, 512, 3, seed=1)
        session.instrument_detector(detector)
        seen = []
        session.on_snapshot(seen.append)
        for identifier in range(250):
            detector.process(identifier)
            session.advance(1)
        assert len(seen) == 2  # at click 100 and 200
        names = {entry["name"] for entry in seen[-1]["gauges"]}
        assert "repro_detector_fill_ratio" in names
        assert "repro_detector_estimated_fp_rate" in names

    def test_advance_without_subscribers_still_refreshes_gauges(self):
        session = TelemetrySession(snapshot_every=10)
        detector = GBFDetector(64, 8, 512, 3, seed=1)
        session.instrument_detector(detector)
        for identifier in range(50):
            detector.process(identifier)
            session.advance(1)
        snapshot = session.registry.snapshot()
        fills = [
            entry["value"]
            for entry in snapshot["gauges"]
            if entry["name"] == "repro_detector_fill_ratio"
        ]
        assert any(fill > 0 for fill in fills)

    def test_reads_are_current_without_a_cadence(self):
        session = TelemetrySession(snapshot_every=10_000)
        detector = GBFDetector(64, 8, 512, 3, seed=1)
        session.instrument_detector(detector)
        elements = "repro_detector_events_total{detector=GBFDetector,key=elements}"
        estimate = "repro_detector_estimated_fp_rate{detector=GBFDetector}"
        for clicks in (7, 19):
            while detector.counter.elements < clicks:
                detector.process(detector.counter.elements)
                session.advance(1)  # never reaches the cadence
            state = session.registry.state_dict()
            assert state["counters"][elements] == clicks
            assert state["gauges"][estimate] == detector.estimated_fp_rate()
            snapshot = {
                entry["name"]: entry["value"]
                for entry in session.registry.snapshot()["gauges"]
                if not entry["labels"].get("part")
            }
            assert snapshot["repro_detector_estimated_fp_rate"] == (
                detector.estimated_fp_rate()
            )
            text = session.registry.to_prometheus()
            assert (
                'repro_detector_events_total{detector="GBFDetector",'
                f'key="elements"}} {clicks}'
            ) in text

    def test_advance_without_subscribers_collects_nothing(self):
        session = TelemetrySession(snapshot_every=10)
        collected = []

        class Probe:
            def collect(self):
                collected.append(1)

        session.add_instrument(Probe())
        session.advance(1_000)
        assert collected == []
        session.registry.snapshot()
        assert collected == [1]

    def test_pipelines_sharing_a_session_keep_their_own_instruments(self):
        from repro.detection import DetectionPipeline

        session = TelemetrySession()
        first = DetectionPipeline(GBFDetector(64, 8, 512, 3, seed=1), telemetry=session)
        second = DetectionPipeline(GBFDetector(64, 8, 512, 3, seed=2), telemetry=session)
        assert session.instruments == [first.instrument, second.instrument]
        replaced = first.instrument
        first.set_detector(GBFDetector(64, 8, 512, 3, seed=3))
        assert replaced not in session.instruments
        assert session.instruments == [second.instrument, first.instrument]

    def test_instruments_collect_on_their_loop(self):
        session = TelemetrySession()
        threads = []

        class Probe:
            def collect(self):
                threads.append(threading.get_ident())

        loop = asyncio.new_event_loop()
        runner = threading.Thread(target=loop.run_forever, daemon=True)
        runner.start()
        try:
            async def add():
                session.add_instrument(Probe())

            asyncio.run_coroutine_threadsafe(add(), loop).result(5)
            session.registry.snapshot()  # from this thread: runs on the loop
            assert threads == [runner.ident]
        finally:
            loop.call_soon_threadsafe(loop.stop)
            runner.join(5)
        assert not runner.is_alive()
        # Stopped but not closed: the read runs the collect inline.
        session.registry.snapshot()
        loop.close()
        session.registry.snapshot()  # closed: inline too
        assert threads == [runner.ident, threading.get_ident(), threading.get_ident()]

    def test_two_loops_sharing_a_session_never_wait_on_each_other(self):
        session = TelemetrySession()
        seen = {}
        loops = [asyncio.new_event_loop() for _ in range(2)]
        runners = [
            threading.Thread(target=loop.run_forever, daemon=True) for loop in loops
        ]
        for runner in runners:
            runner.start()
        try:
            for index, loop in enumerate(loops):

                class Probe:
                    def collect(self, index=index):
                        seen.setdefault(index, set()).add(threading.get_ident())

                async def add(probe=Probe()):
                    session.add_instrument(probe)

                asyncio.run_coroutine_threadsafe(add(), loop).result(5)

            async def read():
                session.registry.snapshot()

            # Both loops read at once, each collecting the other's probe.
            futures = [asyncio.run_coroutine_threadsafe(read(), loop) for loop in loops]
            for future in futures:
                future.result(10)
            assert seen[0] == {runners[0].ident}
            assert seen[1] == {runners[1].ident}
        finally:
            for loop in loops:
                loop.call_soon_threadsafe(loop.stop)
            for runner in runners:
                runner.join(5)
            for loop in loops:
                loop.close()

    def test_default_buckets_are_increasing(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)

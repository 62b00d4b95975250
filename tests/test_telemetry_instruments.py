"""Integration tests for detector/pipeline/supervisor instrumentation.

The tentpole invariants:

* every detector's live ``estimated_fp_rate`` gauge equals the
  closed-form value from :mod:`repro.bloom.params` for the same
  measured fill state (property-tested, exact float equality);
* the ``duplicates`` total survives checkpoint save/load for every
  variant;
* instrument counters are delta-incremented, so collect() twice and a
  checkpoint restore never double-count;
* a supervised crash + resume leaves the telemetry counters exactly
  where an uninterrupted run would (the journal is bit-identical).
"""

import json
import logging
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bloom.params import false_positive_rate, false_positive_rate_from_fill
from repro.core import (
    GBFDetector,
    TBFDetector,
    TBFJumpingDetector,
    TimeBasedGBFDetector,
    TimeBasedTBFDetector,
    load_detector,
    save_detector,
)
from repro.cluster import LocalCluster
from repro.core.checkpoint import unpack_frame
from repro.detection import DetectionPipeline, DetectorSpec, WindowSpec, create_detector
from repro.detection.sharded import FailoverPolicy
from repro.resilience import (
    CheckpointStore,
    FaultInjector,
    InjectedCrash,
    SupervisedPipeline,
)
from repro.serve import ServeClient, ServeConfig, ServerThread
from repro.streams.click import Click
from repro.telemetry import (
    DetectorInstrument,
    MetricsRegistry,
    TelemetrySession,
    theoretical_fp_bound,
)
from tests.fleets import tbf_fleet

DETECTOR_VARIANTS = [
    ("gbf", lambda: GBFDetector(64, 8, 1024, 4, seed=3)),
    ("tbf", lambda: TBFDetector(64, 2048, 4, seed=3)),
    ("tbf-jumping", lambda: TBFJumpingDetector(64, 8, 2048, 4, seed=3)),
    (
        "gbf-time",
        lambda: TimeBasedGBFDetector(
            24.0, 4, 1024, 4, units_per_subwindow=4, seed=3
        ),
    ),
    ("tbf-time", lambda: TimeBasedTBFDetector(24.0, 8, 2048, 4, seed=3)),
]


def drive(detector, identifiers):
    """Feed a stream to a detector of either time model."""
    if not detector.timed:
        return [detector.observe(identifier) for identifier in identifiers]
    return [
        detector.observe(identifier, 0.5 * index)
        for index, identifier in enumerate(identifiers)
    ]


def closed_form_fp(detector) -> float:
    """The paper's FP formula applied to the detector's measured fills.

    Recomposed here independently of ``estimated_fp_rate`` so the test
    checks the detector against :mod:`repro.bloom.params` rather than
    against itself.
    """
    if hasattr(detector, "active_lanes"):  # GBF family (Theorem 1 form)
        product = 1.0
        for lane in detector.active_lanes():
            fill = detector.lane_bits_set(lane) / detector.bits_per_filter
            product *= 1.0 - false_positive_rate_from_fill(
                fill, detector.num_hashes
            )
        return 1.0 - product
    # TBF family (Theorem 2 form)
    return false_positive_rate_from_fill(
        detector.active_entries() / detector.num_entries, detector.num_hashes
    )


class TestTheoreticalBounds:
    def test_gbf_bound_is_theorem_1(self):
        detector = GBFDetector(64, 8, 1024, 4, seed=3)
        f_sub = false_positive_rate(1024, 8, 4)
        assert theoretical_fp_bound(detector) == pytest.approx(
            1.0 - (1.0 - f_sub) ** 9
        )

    def test_tbf_bound_is_theorem_2(self):
        detector = TBFDetector(64, 2048, 4, seed=3)
        assert theoretical_fp_bound(detector) == false_positive_rate(2048, 64, 4)

    def test_tbf_jumping_bound_covers_partial_subwindow(self):
        detector = TBFJumpingDetector(64, 8, 2048, 4, seed=3)
        assert theoretical_fp_bound(detector) == false_positive_rate(2048, 72, 4)

    def test_time_based_variants_have_no_a_priori_bound(self):
        assert theoretical_fp_bound(
            TimeBasedTBFDetector(24.0, 8, 2048, 4, seed=3)
        ) is None

    def test_sharded_bound_is_worst_shard(self):
        detector = tbf_fleet(64, 4, 4096, seed=1)
        shard_bounds = [theoretical_fp_bound(shard) for shard in detector.shards]
        assert theoretical_fp_bound(detector) == max(shard_bounds)


class TestLiveFpGauge:
    @pytest.mark.parametrize("name,factory", DETECTOR_VARIANTS)
    @given(stream=st.lists(st.integers(0, 40), max_size=150))
    @settings(max_examples=25, deadline=None)
    def test_estimate_matches_closed_form_exactly(self, name, factory, stream):
        detector = factory()
        drive(detector, stream)
        expected = closed_form_fp(detector)
        assert detector.estimated_fp_rate() == expected  # exact, not approx
        assert detector.telemetry_snapshot()["gauges"]["estimated_fp_rate"] == expected

    @pytest.mark.parametrize("name,factory", DETECTOR_VARIANTS)
    def test_gauge_lands_in_registry(self, name, factory):
        detector = factory()
        drive(detector, list(range(30)) * 2)
        registry = MetricsRegistry()
        instrument = DetectorInstrument(detector, registry)
        instrument.collect()
        series = registry.state_dict()["gauges"]
        key = f"repro_detector_estimated_fp_rate{{detector={type(detector).__name__}}}"
        assert series[key] == closed_form_fp(detector)


class TestDuplicatesPersistence:
    @pytest.mark.parametrize("name,factory", DETECTOR_VARIANTS)
    def test_duplicates_survive_checkpoint(self, name, factory):
        detector = factory()
        verdicts = drive(detector, [1, 2, 3, 1, 2, 3, 4, 4])
        assert detector.duplicates == sum(verdicts) > 0
        restored = load_detector(save_detector(detector))
        assert restored.duplicates == detector.duplicates
        # observed_duplicate_rate intentionally resets: the operation counter
        # is measurement state, not sketch state, and checkpoints only carry
        # the sketch.  Continuity of rates across restarts comes from the
        # journaled registry, exercised in TestSupervisedTelemetry.


class TestDetectorInstrument:
    def test_counters_are_delta_incremented(self):
        detector = GBFDetector(64, 8, 1024, 4, seed=3)
        registry = MetricsRegistry()
        instrument = DetectorInstrument(detector, registry)
        drive(detector, [1, 2, 1])
        instrument.collect()
        instrument.collect()  # second collect with no new clicks: no-op
        counters = registry.state_dict()["counters"]
        assert counters[
            "repro_detector_events_total{detector=GBFDetector,key=elements}"
        ] == 3
        assert counters[
            "repro_detector_events_total{detector=GBFDetector,key=duplicates}"
        ] == 1

    def test_new_instrument_baselines_at_current_totals(self):
        # A restored registry already carries the journaled totals; a
        # fresh instrument on a restored detector must not replay them.
        detector = GBFDetector(64, 8, 1024, 4, seed=3)
        drive(detector, [1, 2, 1])
        registry = MetricsRegistry()
        instrument = DetectorInstrument(detector, registry)
        instrument.collect()
        counters = registry.state_dict().get("counters", {})
        assert (
            "repro_detector_events_total{detector=GBFDetector,key=elements}"
            not in counters
        )
        drive(detector, [7])
        instrument.collect()
        assert registry.state_dict()["counters"][
            "repro_detector_events_total{detector=GBFDetector,key=elements}"
        ] == 1

    def test_breach_counter_fires_past_margin(self):
        detector = TBFDetector(64, 128, 2, seed=3)  # undersized: high fill
        registry = MetricsRegistry()
        instrument = DetectorInstrument(detector, registry, fp_margin=1e-12)
        drive(detector, range(60))
        instrument.collect()
        assert registry.state_dict()["counters"][
            "repro_fp_bound_breaches_total{detector=TBFDetector}"
        ] >= 1

    def test_no_breach_inside_bound(self):
        detector = TBFDetector(64, 4096, 4, seed=3)  # generously sized
        registry = MetricsRegistry()
        instrument = DetectorInstrument(detector, registry, fp_margin=2.0)
        drive(detector, range(20))
        instrument.collect()
        # The series exists (pre-registered by the instrument) but never fires.
        counters = registry.state_dict()["counters"]
        assert (
            counters.get("repro_fp_bound_breaches_total{detector=TBFDetector}", 0)
            == 0
        )


class TestShardedTelemetry:
    def test_snapshot_reports_per_shard_health(self):
        detector = tbf_fleet(64, 4, 4096, seed=1)
        drive(detector, list(range(40)) * 2)
        detector.fail_shard(2, FailoverPolicy.FAIL_OPEN)
        snapshot = detector.telemetry_snapshot()
        assert snapshot["gauges"]["degraded_shards"] == 1
        assert "load_imbalance" in snapshot["gauges"]
        assert set(snapshot["shards"]) == {"0", "1", "2", "3"}
        assert snapshot["shards"]["2"]["degraded"] == 1.0
        assert snapshot["shards"]["0"]["degraded"] == 0.0
        assert snapshot["counters"]["elements"] == 80
        assert snapshot["gauges"]["estimated_fp_rate"] == detector.estimated_fp_rate()

    def test_failover_transitions_counted(self):
        detector = tbf_fleet(64, 4, 4096, seed=1)
        registry = MetricsRegistry()
        DetectorInstrument(detector, registry)  # attaches failover counters
        blob = detector.checkpoint_shard(1)
        detector.fail_shard(1, FailoverPolicy.FAIL_OPEN)
        detector.fail_shard(3, "fail-closed")
        detector.restore_shard(1, blob)
        counters = registry.state_dict()["counters"]
        assert counters["repro_shard_failovers_total{policy=fail-open}"] == 1
        assert counters["repro_shard_failovers_total{policy=fail-closed}"] == 1
        assert counters["repro_shard_restores_total"] == 1


def make_clicks(count=200, universe=40, seed=11):
    import random

    rng = random.Random(seed)
    return [
        Click(
            timestamp=float(index),
            source_ip=rng.randrange(universe),
            cookie=rng.randrange(universe),
            ad_id=rng.randrange(4),
            publisher_id=rng.randrange(3),
            advertiser_id=rng.randrange(3),
        )
        for index in range(count)
    ]


def pipeline_series(registry):
    """The continuous-across-restore counter series."""
    return {
        series: value
        for series, value in registry.state_dict()["counters"].items()
        if series.startswith(("repro_pipeline_", "repro_detector_events_total"))
    }


class TestPipelineTelemetry:
    def test_run_and_run_batch_record_identical_totals(self):
        clicks = make_clicks()
        totals = []
        for method in ("run", "run_batch"):
            session = TelemetrySession(snapshot_every=50)
            pipeline = DetectionPipeline(
                GBFDetector(64, 8, 1024, 4, seed=3), telemetry=session
            )
            result = getattr(pipeline, method)(clicks)
            counters = registry_counters = session.registry.state_dict()["counters"]
            assert counters["repro_pipeline_clicks_total"] == result.processed
            assert counters["repro_pipeline_duplicates_total"] == result.duplicates
            assert counters["repro_pipeline_valid_total"] == result.valid
            totals.append(pipeline_series(session.registry))
        assert totals[0] == totals[1]

    def test_spans_cover_batch_chunks(self):
        session = TelemetrySession()
        pipeline = DetectionPipeline(
            TBFDetector(64, 2048, 4, seed=3), telemetry=session
        )
        pipeline.run_batch(make_clicks(130), chunk_size=50)
        chunk_spans = [
            span for span in session.tracer.spans()
            if span.name == "pipeline.run_batch.chunk"
        ]
        assert [span.attributes["size"] for span in chunk_spans] == [50, 50, 30]

    def test_disabled_pipeline_records_nothing(self):
        pipeline = DetectionPipeline(TBFDetector(64, 2048, 4, seed=3))
        pipeline.run(make_clicks(50))
        assert pipeline.telemetry.enabled is False
        assert pipeline.telemetry.registry.to_prometheus() == ""
        assert pipeline.telemetry.tracer.spans() == []


def make_supervised(store_dir, snapshot_every=10, checkpoint_every=20):
    session = TelemetrySession(snapshot_every=snapshot_every)
    pipeline = DetectionPipeline(
        GBFDetector(64, 8, 1024, 4, seed=3), telemetry=session
    )
    supervisor = SupervisedPipeline(
        pipeline, CheckpointStore(store_dir), checkpoint_every=checkpoint_every
    )
    return session, supervisor


class TestSupervisedTelemetry:
    def test_checkpoint_journals_registry_state(self, tmp_path):
        session, supervisor = make_supervised(tmp_path / "store")
        supervisor.run(make_clicks(100))
        header, _ = unpack_frame(supervisor.store.latest.read_bytes())
        journaled = header["telemetry"]
        # Bit-identical: the journal IS the registry state at write time.
        assert journaled["counters"]["repro_pipeline_clicks_total"] == 100
        fresh = MetricsRegistry()
        fresh.load_state(json.loads(json.dumps(journaled)))
        fresh.counter("repro_pipeline_clicks_total")._default()
        assert (
            fresh.state_dict()["counters"]["repro_pipeline_clicks_total"] == 100
        )
        # The journal is captured before the write is acknowledged, so the
        # self-referential written-counter is one behind the live registry;
        # everything else matches bit-for-bit.
        live = dict(session.registry.state_dict()["counters"])
        snap = dict(journaled["counters"])
        assert live.pop("repro_checkpoints_written_total") == (
            snap.pop("repro_checkpoints_written_total") + 1
        )
        assert live == snap

    def test_journal_is_current_when_cadence_misaligns(self, tmp_path):
        # snapshot_every=7 never lands on a checkpoint offset, so a journal
        # that only carried the last periodic collect would be stale by up
        # to 6 clicks.  state_dict() must refresh instruments at write time.
        session, supervisor = make_supervised(tmp_path / "store", snapshot_every=7)
        supervisor.run(make_clicks(100))
        header, _ = unpack_frame(supervisor.store.latest.read_bytes())
        journaled = header["telemetry"]["counters"]
        assert journaled[
            "repro_detector_events_total{detector=GBFDetector,key=elements}"
        ] == journaled["repro_pipeline_clicks_total"] == 100

    def test_disabled_telemetry_keeps_headers_clean(self, tmp_path):
        pipeline = DetectionPipeline(GBFDetector(64, 8, 1024, 4, seed=3))
        supervisor = SupervisedPipeline(
            pipeline, CheckpointStore(tmp_path / "store"), checkpoint_every=20
        )
        supervisor.run(make_clicks(60))
        header, _ = unpack_frame(supervisor.store.latest.read_bytes())
        assert "telemetry" not in header

    def test_crash_resume_counters_match_uninterrupted_run(self, tmp_path):
        clicks = make_clicks(200)

        baseline_session, baseline = make_supervised(tmp_path / "base")
        baseline.run(clicks)

        crashed_session, crashed = make_supervised(tmp_path / "crash")
        injector = FaultInjector(seed=5)
        with pytest.raises(InjectedCrash):
            crashed.run(injector.crash_stream(clicks, 50))

        # Fresh process: new session, pipeline, supervisor on the store.
        resumed_session, resumed = make_supervised(tmp_path / "crash")
        result = resumed.run(clicks)

        # `processed` is cumulative across the restore (journaled totals),
        # so the resumed run reports the full stream.
        assert result.processed == len(clicks)
        assert result.start_offset > 0
        assert pipeline_series(resumed_session.registry) == pipeline_series(
            baseline_session.registry
        )
        # Restore latency was observed without perturbing the counters.
        histograms = resumed_session.registry.state_dict()["histograms"]
        assert histograms["repro_checkpoint_restore_seconds"]["count"] >= 1
        assert histograms["repro_checkpoint_write_seconds"]["count"] >= 1

    def test_dead_letters_counted_by_reason(self, tmp_path):
        session, supervisor = make_supervised(tmp_path / "store")
        clicks = make_clicks(30)
        clicks[5] = Click(
            timestamp=float("nan"), source_ip=1, cookie=1, ad_id=0,
            publisher_id=0, advertiser_id=0,
        )
        supervisor.run(clicks)
        assert session.registry.state_dict()["counters"][
            "repro_dead_letters_total{reason=bad-timestamp}"
        ] == 1


class TestFaultCounters:
    def test_injected_faults_are_counted(self):
        registry = MetricsRegistry()
        injector = FaultInjector(seed=5, registry=registry)
        clicks = make_clicks(40)
        with pytest.raises(InjectedCrash):
            list(injector.crash_stream(clicks, 10))
        injector.corrupt(b"some checkpoint bytes" * 4)
        list(injector.reorder_stream(clicks, 6))
        list(injector.delay_stream(clicks, 2, probability=0.5))
        counters = registry.state_dict()["counters"]
        assert counters["repro_faults_injected_total{kind=crash}"] == 1
        assert counters["repro_faults_injected_total{kind=corrupt}"] == 1
        assert counters["repro_faults_injected_total{kind=reorder}"] >= 1
        assert counters["repro_faults_injected_total{kind=delay}"] >= 1


class TestMonitorCli:
    def test_monitor_smoke(self, tmp_path, capsys):
        from repro.cli import main
        from repro.streams import write_clicks_jsonl

        stream_path = tmp_path / "clicks.jsonl"
        write_clicks_jsonl(stream_path, make_clicks(300))
        code = main([
            "monitor", str(stream_path),
            "--algorithm", "gbf", "--window", "64",
            "--every", "100", "--chunk-size", "50",
            "--prometheus",
            "--trace-out", str(tmp_path / "trace.json"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "repro_detector_estimated_fp_rate" in out
        assert "duplicates" in out
        trace = json.loads((tmp_path / "trace.json").read_text())
        assert any(
            event["name"] == "pipeline.run_batch.chunk"
            for event in trace["traceEvents"]
        )


SERVED_SPEC = DetectorSpec("tbf", WindowSpec("sliding", 4096), target_fp=0.01)


def served_stream(count, seed=5, universe=3_000):
    rng = np.random.default_rng(seed)
    return rng.integers(0, universe, size=count, dtype=np.uint64)


class TestPullCollection:
    """Serving computes no telemetry; a read computes it, on the loop."""

    def test_served_run_without_a_reader_never_snapshots(self):
        detector = create_detector(SERVED_SPEC)
        calls = []
        snapshot = detector.telemetry_snapshot

        def counted():
            calls.append(1)
            return snapshot()

        detector.telemetry_snapshot = counted
        session = TelemetrySession(snapshot_every=1_000)
        identifiers = served_stream(20_000)
        with ServerThread(detector, telemetry=session) as thread:
            baseline = len(calls)  # the instrument's counter baseline
            with ServeClient("127.0.0.1", thread.port) as client:
                for chunk in np.array_split(identifiers, 20):
                    client.send(chunk)
            assert len(calls) == baseline
            gauges = {
                entry["name"]: entry["value"]
                for entry in session.registry.snapshot()["gauges"]
                if entry["name"] == "repro_detector_estimated_fp_rate"
            }
            assert len(calls) == baseline + 1
            assert gauges["repro_detector_estimated_fp_rate"] == (
                detector.estimated_fp_rate()
            )
        assert detector.counter.elements == identifiers.shape[0]

    def test_scrapes_from_another_thread_during_parallel_serving(self, caplog):
        spec = DetectorSpec(
            "tbf", WindowSpec("sliding", 4096), target_fp=0.01, shards=2
        )
        identifiers = served_stream(24_000, seed=9)
        session = TelemetrySession()
        stop = threading.Event()
        reads, errors = [], []

        def scrape():
            while not stop.is_set():
                try:
                    session.registry.snapshot()
                except Exception as error:  # surfaced by the asserts below
                    errors.append(error)
                    return
                reads.append(1)

        with caplog.at_level(logging.ERROR, logger="asyncio"):
            with ServerThread(
                create_detector(spec), ServeConfig(workers=2), telemetry=session
            ) as thread:
                engine = thread.server.pipeline.detector
                collected_on = []
                snapshot = engine.telemetry_snapshot

                def on_which_thread():
                    collected_on.append(threading.get_ident())
                    return snapshot()

                engine.telemetry_snapshot = on_which_thread
                scraper = threading.Thread(target=scrape, daemon=True)
                scraper.start()
                try:
                    with ServeClient("127.0.0.1", thread.port) as client:
                        served = np.concatenate([
                            client.send(chunk)
                            for chunk in np.array_split(identifiers, 24)
                        ])
                finally:
                    stop.set()
                    scraper.join(30)
                assert engine.worker_deaths == 0
                assert engine.worker_respawns == 0
                assert engine.degraded_shards() == {}
                # Every collect ran on the server's loop, never on the
                # scraper: the rings the collect writes have one producer.
                assert collected_on
                assert set(collected_on) == {thread._thread.ident}
        assert not scraper.is_alive()
        assert errors == []
        assert len(reads) > 1
        expected = DetectionPipeline(
            create_detector(spec), score_sources=False
        ).run_identified_batch(identifiers)
        assert (served == expected).all()
        counters = session.registry.state_dict()["counters"]
        assert counters.get("repro_serve_engine_errors_total", 0) == 0
        assert [r for r in caplog.records if r.levelno >= logging.ERROR] == []

    def test_shared_cluster_session_instruments_every_node(self, tmp_path):
        session = TelemetrySession()
        identifiers = served_stream(6_000, seed=3, universe=1_024)
        with LocalCluster(
            lambda: tbf_fleet(1 << 10, 8, 1 << 13, 4, seed=1),
            2,
            tmp_path / "state",
            telemetry=session,
        ) as cluster:
            instrumented = [
                instrument.detector
                for instrument in session.instruments
                if isinstance(instrument, DetectorInstrument)
            ]
            engines = [thread.server.pipeline.detector for thread in cluster.servers]
            assert len(instrumented) == 2
            assert all(
                any(detector is engine for detector in instrumented)
                for engine in engines
            )
            with ServeClient("127.0.0.1", cluster.port) as client:
                for chunk in np.array_split(identifiers, 6):
                    client.send(chunk)
            # Both nodes' instruments add their deltas to one series.
            counters = session.registry.state_dict()["counters"]
            assert counters[
                "repro_detector_events_total{detector=ClusterSlice,key=elements}"
            ] == identifiers.shape[0]
            # One shared registry: the scrape reads it once for all.
            scraped = cluster.scrape()
            assert all(
                node["metrics"] is scraped["router"]
                for node in scraped["nodes"].values()
            )

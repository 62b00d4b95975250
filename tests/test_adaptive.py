"""Adaptive portfolio: filters, lifecycle, controller, and live resize.

Four layers, one suite:

* the APBF / time-limited-BF variants' window semantics (zero false
  negatives inside the guaranteed window, expiry beyond it) and their
  live estimated-FP gauges, which must equal the closed-form slice
  formula EXACTLY (same DP over measured fills);
* the ``DetectorLifecycle`` surface the adaptive wrappers answer and
  ``spec()`` round-trips (``create_detector(d.spec())`` rebuilds a
  bit-identical detector);
* the migrate-replay property: after ``migrate(new_spec)``, wrapper
  state is bit-identical to a fresh ``new_spec`` detector that replayed
  exactly the retained window (hypothesis-fuzzed);
* the controller loop (grow on sustained breach, shrink on sustained
  slack, cooldown, rails, bounded journal) and the live serve path:
  a controller-driven resize under traffic with zero lost clicks.
"""

import numpy as np
import pytest

from repro.adaptive import (
    AdaptiveController,
    AdaptiveDetector,
    AgePartitionedBFDetector,
    ControllerConfig,
    TimeLimitedBFDetector,
    scaled_spec,
)
from repro.bloom.params import apbf_false_positive_rate, sliced_false_positive_rate
from repro.core.checkpoint import load_detector, save_detector
from repro.detection import (
    APBFParams,
    DetectorLifecycle,
    DetectorSpec,
    WindowSpec,
    create_detector,
)
from repro.errors import ConfigurationError, StreamError

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

SETTINGS = settings(max_examples=25, deadline=None)

APBF_SPEC = DetectorSpec(
    algorithm="apbf", window=WindowSpec("sliding", 64), target_fp=0.02
)
TLBF_SPEC = DetectorSpec(
    algorithm="time-limited-bf", window=WindowSpec("sliding", 64),
    target_fp=0.02, duration=16.0, resolution=8,
)


def _distinct(count, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 1 << 60, size=count, dtype=np.uint64)


class TestAPBFSemantics:
    def test_no_false_negatives_in_guaranteed_window(self):
        detector = AgePartitionedBFDetector(4, 8, 512, 8, seed=1)
        window = detector.guaranteed_window
        ids = _distinct(window * 4, seed=3)
        for index, identifier in enumerate(ids):
            detector.process(int(identifier))
            # Everything inside the guaranteed window must still hit.
            for back in range(0, min(index + 1, window)):
                assert detector.query(int(ids[index - back]))

    def test_old_elements_expire(self):
        detector = AgePartitionedBFDetector(4, 8, 256, 4, seed=1)
        probe = 1234567
        detector.process(probe)
        # After enough fresh generations the l oldest slices that held
        # the element have all been recycled.
        total = detector.guaranteed_window + detector.num_aged * detector.generation_size
        fresh = _distinct(total * 2, seed=9)
        for identifier in fresh:
            detector.process(int(identifier))
        assert not detector.query(probe)

    def test_duplicates_not_reinserted(self):
        detector = AgePartitionedBFDetector(3, 6, 256, 8, seed=2)
        detector.process(42)
        count = detector._generation_count
        assert detector.process(42) is True
        assert detector._generation_count == count  # no new insert

    def test_estimated_fp_equals_closed_form_exactly(self):
        detector = AgePartitionedBFDetector(4, 6, 128, 8, seed=5)
        for identifier in _distinct(300, seed=7):
            detector.process(int(identifier))
        fills = detector.slice_fills()
        expected = sliced_false_positive_rate(fills, detector.num_required)
        assert detector.estimated_fp_rate() == expected
        gauge = detector.telemetry_snapshot()["gauges"]["estimated_fp_rate"]
        assert gauge == expected

    def test_theoretical_bound_honored_by_planner(self):
        for target in (0.05, 0.01, 0.001):
            detector = create_detector(DetectorSpec(
                "apbf", WindowSpec("sliding", 512), target_fp=target
            ))
            assert detector.theoretical_fp_bound() <= target

    @pytest.mark.parametrize("size", [4096, 16384, 32768])
    def test_batch_probes_each_row_once(self, size):
        # Runs end where the generation fills, so a call of n clicks
        # probes n rows however many slices retire inside it (it used
        # to re-probe the rest of the call after every retirement).
        detector = create_detector(DetectorSpec(
            "apbf", WindowSpec("sliding", 1 << 16), target_fp=1e-3
        ))
        assert (detector.num_required, detector.num_aged) == (15, 20)
        assert (detector.slice_bits, detector.generation_size) == (70_894, 3_276)
        rng = np.random.default_rng(size)
        fill = rng.integers(1, 2**63, 1 << 16, dtype=np.uint64)
        detector.process_batch(fill)
        probed = []
        probe_run = detector._probe_run
        detector._probe_run = lambda idx: probed.append(len(idx)) or probe_run(idx)
        clicks = 0
        for _ in range(2):
            batch = rng.integers(1, 2**63, size, dtype=np.uint64)
            batch[::10] = rng.choice(fill, batch[::10].shape[0])
            detector.process_batch(batch)
            clicks += size
        assert sum(probed) <= 1.1 * clicks


class TestTLBFSemantics:
    def test_duplicate_within_duration(self):
        detector = TimeLimitedBFDetector(8.0, 4, 8, 512, seed=1)
        assert detector.process_at(7, 0.0) is False
        assert detector.process_at(7, 7.9) is True

    def test_expiry_after_duration(self):
        detector = TimeLimitedBFDetector(8.0, 4, 8, 512, seed=1)
        detector.process_at(7, 0.0)
        assert detector.process_at(7, 17.0) is False

    def test_timestamp_regression_raises(self):
        detector = TimeLimitedBFDetector(8.0, 4, 8, 512, seed=1)
        detector.process_at(1, 5.0)
        with pytest.raises(StreamError):
            detector.process_at(2, 4.0)

    def test_estimated_fp_equals_closed_form_exactly(self):
        detector = TimeLimitedBFDetector(8.0, 4, 6, 128, seed=3)
        stamps = np.cumsum(np.full(200, 0.05))
        detector.process_batch_at(_distinct(200, seed=4), stamps)
        fills = detector.slice_fills()
        expected = sliced_false_positive_rate(fills, detector.num_required)
        assert detector.estimated_fp_rate() == expected


class TestSpecRoundTrips:
    CASES = {
        "gbf": DetectorSpec("gbf", WindowSpec("jumping", 256, 8), target_fp=0.01),
        "tbf": DetectorSpec("tbf", WindowSpec("sliding", 256), target_fp=0.01),
        "tbf-jumping": DetectorSpec(
            "tbf-jumping", WindowSpec("jumping", 256, 8), target_fp=0.01
        ),
        "gbf-time": DetectorSpec(
            "gbf-time", WindowSpec("jumping", 256, 8),
            target_fp=0.01, duration=32.0,
        ),
        "tbf-time": DetectorSpec(
            "tbf-time", WindowSpec("sliding", 256),
            target_fp=0.01, duration=32.0, resolution=8,
        ),
        "apbf": APBF_SPEC,
        "time-limited-bf": TLBF_SPEC,
        "sharded-tbf": DetectorSpec(
            "tbf", WindowSpec("sliding", 256), target_fp=0.01, shards=3
        ),
        "sharded-apbf": DetectorSpec(
            "apbf", WindowSpec("sliding", 256), target_fp=0.01, shards=3
        ),
        "sharded-tlbf": DetectorSpec(
            "time-limited-bf", WindowSpec("sliding", 256),
            target_fp=0.01, duration=16.0, resolution=8, shards=3,
        ),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_create_from_spec_is_bit_identical(self, name):
        original = create_detector(self.CASES[name])
        rebuilt = create_detector(original.spec())
        assert save_detector(rebuilt) == save_detector(original)
        assert rebuilt.spec() == original.spec()

    def test_exact_round_trip(self):
        original = create_detector(DetectorSpec("exact", WindowSpec("sliding", 64)))
        rebuilt = create_detector(original.spec())
        assert type(rebuilt) is type(original)
        assert rebuilt.window.size == original.window.size

    def test_params_exclude_sizing_knobs(self):
        params = APBFParams(4, 8, 256, 8)
        with pytest.raises(ConfigurationError):
            DetectorSpec(
                "apbf", WindowSpec("sliding", 64),
                target_fp=0.01, params=params,
            )
        with pytest.raises(ConfigurationError):
            DetectorSpec(
                "tbf", WindowSpec("sliding", 64), params=params
            )  # wrong params type for the algorithm


class TestCheckpointRoundTrips:
    @pytest.mark.parametrize("shards", [1, 3])
    def test_apbf(self, shards):
        spec = DetectorSpec(
            "apbf", WindowSpec("sliding", 128), target_fp=0.01, shards=shards
        )
        detector = create_detector(spec)
        detector.observe_batch(_distinct(500, seed=11))
        blob = save_detector(detector)
        restored = load_detector(blob)
        probe = _distinct(300, seed=12)
        assert np.array_equal(
            detector.observe_batch(probe), restored.observe_batch(probe)
        )
        assert save_detector(detector) == save_detector(restored)

    @pytest.mark.parametrize("shards", [1, 3])
    def test_tlbf(self, shards):
        spec = DetectorSpec(
            "time-limited-bf", WindowSpec("sliding", 128),
            target_fp=0.01, duration=16.0, resolution=8, shards=shards,
        )
        detector = create_detector(spec)
        stamps = np.cumsum(np.full(500, 0.01))
        detector.observe_batch(_distinct(500, seed=11), stamps)
        restored = load_detector(save_detector(detector))
        probe = _distinct(300, seed=12)
        later = stamps[-1] + np.cumsum(np.full(300, 0.01))
        assert np.array_equal(
            detector.observe_batch(probe, later),
            restored.observe_batch(probe, later),
        )
        assert save_detector(detector) == save_detector(restored)


class TestLifecycleSurface:
    def test_adaptive_wrappers_are_native_lifecycles(self):
        count = AdaptiveDetector(APBF_SPEC)
        timed = AdaptiveDetector(TLBF_SPEC)
        assert isinstance(count, DetectorLifecycle)
        assert isinstance(timed, DetectorLifecycle)
        assert not count.timed and timed.timed

    def test_factory_picks_time_model(self):
        # One wrapper class: the spec picks the time model, and a
        # migrate may not switch it.
        count = AdaptiveDetector(APBF_SPEC)
        timed = AdaptiveDetector(TLBF_SPEC)
        assert not count.timed and timed.timed
        with pytest.raises(ConfigurationError):
            count.migrate(TLBF_SPEC)
        with pytest.raises(ConfigurationError):
            timed.migrate(APBF_SPEC)
        with pytest.raises(ConfigurationError):
            timed.observe(7)  # time-based: the timestamp is required

    def test_wrapper_checkpoint_round_trip(self):
        wrapper = AdaptiveDetector(APBF_SPEC, retain=64)
        wrapper.observe_batch(_distinct(300, seed=1))
        wrapper.migrate(scaled_spec(wrapper.spec(), 2.0))
        blob = wrapper.checkpoint()
        restored = load_detector(blob)
        assert type(restored) is AdaptiveDetector
        assert restored.migrations == wrapper.migrations
        probe = _distinct(200, seed=2)
        assert np.array_equal(
            wrapper.observe_batch(probe), restored.observe_batch(probe)
        )
        assert wrapper.checkpoint() == restored.checkpoint()

    def test_timed_wrapper_checkpoint_round_trip(self):
        wrapper = AdaptiveDetector(TLBF_SPEC, retain=64)
        stamps = np.cumsum(np.full(300, 0.01))
        wrapper.observe_batch(_distinct(300, seed=1), stamps)
        restored = load_detector(wrapper.checkpoint())
        probe = _distinct(100, seed=2)
        later = stamps[-1] + np.cumsum(np.full(100, 0.01))
        assert np.array_equal(
            wrapper.observe_batch(probe, later),
            restored.observe_batch(probe, later),
        )
        assert wrapper.checkpoint() == restored.checkpoint()


SMALL_SPEC = DetectorSpec(
    "apbf", window=WindowSpec("sliding", 30),
    params=APBFParams(3, 5, 64, 6),
)


class TestMigrateReplayProperty:
    @SETTINGS
    @given(
        ids=st.lists(st.integers(0, 50), min_size=1, max_size=200),
        retain=st.integers(1, 60),
        grow=st.booleans(),
    )
    def test_migrate_equals_fresh_replay(self, ids, retain, grow):
        wrapper = AdaptiveDetector(SMALL_SPEC, retain=retain)
        for identifier in ids:
            wrapper.observe(identifier)
        new_spec = scaled_spec(wrapper.spec(), 2.0 if grow else 0.5)
        wrapper.migrate(new_spec)
        fresh = create_detector(new_spec)
        for identifier in ids[-retain:]:
            fresh.process(identifier)
        assert save_detector(wrapper.inner) == save_detector(fresh)
        # Verdicts keep matching on a continued stream.
        probe = np.array([x * 7 % 61 for x in range(40)], dtype=np.uint64)
        assert np.array_equal(
            wrapper.observe_batch(probe), fresh.process_batch(probe)
        )

    @SETTINGS
    @given(
        ids=st.lists(st.integers(0, 50), min_size=1, max_size=150),
        gaps=st.lists(
            st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
            min_size=1, max_size=150,
        ),
        retain=st.integers(1, 60),
    )
    def test_timed_migrate_equals_fresh_replay(self, ids, gaps, retain):
        spec = DetectorSpec(
            "time-limited-bf", WindowSpec("sliding", 64),
            target_fp=0.05, duration=8.0, resolution=4,
        )
        wrapper = AdaptiveDetector(spec, retain=retain)
        n = min(len(ids), len(gaps))
        stamps = np.cumsum(gaps[:n])
        for identifier, stamp in zip(ids[:n], stamps):
            wrapper.observe(identifier, float(stamp))
        new_spec = scaled_spec(wrapper.spec(), 2.0)
        wrapper.migrate(new_spec)
        fresh = create_detector(new_spec)
        for identifier, stamp in list(zip(ids[:n], stamps))[-retain:]:
            fresh.process_at(identifier, float(stamp))
        assert save_detector(wrapper.inner) == save_detector(fresh)


class TestController:
    def test_grows_on_sustained_breach(self):
        detector = AdaptiveDetector(APBF_SPEC, retain=64)
        controller = AdaptiveController(
            detector, ControllerConfig(breach_streak=2, cooldown=0)
        )
        rng = np.random.default_rng(1)
        event = None
        for _ in range(200):
            detector.observe_batch(
                rng.integers(0, 1 << 40, 64).astype(np.uint64)
            )
            event = controller.observe()
            if event is not None:
                break
        assert event is not None and event.direction == "grow"
        assert event.new_memory_bits > event.old_memory_bits
        assert controller.journal[-1] is event
        assert detector.migrations == 1

    def test_shrinks_on_sustained_slack(self):
        detector = AdaptiveDetector(APBF_SPEC, retain=64)  # empty: FP ~ 0
        controller = AdaptiveController(
            detector,
            ControllerConfig(shrink_streak=3, cooldown=0, shrink_fraction=0.5),
        )
        events = [controller.observe() for _ in range(3)]
        assert events[-1] is not None and events[-1].direction == "shrink"

    def test_cooldown_blocks_consecutive_resizes(self):
        detector = AdaptiveDetector(APBF_SPEC, retain=64)
        controller = AdaptiveController(
            detector,
            ControllerConfig(
                shrink_streak=1, cooldown=10, shrink_fraction=0.5,
                min_memory_bits=1,
            ),
        )
        events = [controller.observe() for _ in range(25)]
        fired = [i for i, event in enumerate(events) if event is not None]
        assert len(fired) >= 2  # keeps resizing, but never back to back
        assert all(b - a >= 10 for a, b in zip(fired, fired[1:]))

    def test_memory_rails_stop_runaway(self):
        detector = AdaptiveDetector(APBF_SPEC, retain=64)
        controller = AdaptiveController(
            detector,
            ControllerConfig(
                shrink_streak=1, cooldown=0, shrink_fraction=0.5,
                min_memory_bits=detector.memory_bits,
            ),
        )
        assert all(controller.observe() is None for _ in range(5))
        assert detector.migrations == 0

    def test_journal_is_bounded(self):
        detector = AdaptiveDetector(APBF_SPEC, retain=64)
        config = ControllerConfig(
            shrink_streak=1, cooldown=0, shrink_fraction=0.5,
            min_memory_bits=1, journal_limit=2,
        )
        controller = AdaptiveController(detector, config)
        # The empty detector reads as permanent slack, so every sample
        # shrinks (bottoming out at the 8-bit slice floor) — more events
        # than the journal keeps.
        for _ in range(10):
            controller.observe()
        assert detector.migrations > 2
        assert len(controller.journal) == 2

    @pytest.mark.parametrize("spec", [
        APBF_SPEC,
        DetectorSpec("tbf", WindowSpec("sliding", 64), target_fp=0.02),
        DetectorSpec("tbf", WindowSpec("sliding", 64), target_fp=0.02, shards=2),
    ])
    def test_bits_per_click_gauge(self, spec):
        from repro.telemetry import MetricsRegistry

        registry = MetricsRegistry()
        detector = AdaptiveDetector(spec, retain=64)
        controller = AdaptiveController(
            detector, ControllerConfig(cooldown=1_000), registry=registry
        )
        detector.observe_batch(_distinct(300, seed=4))
        elements = detector.telemetry_snapshot()["counters"]["elements"]
        assert elements == 300
        inner = detector.inner
        snapshots = []
        snapshot = inner.telemetry_snapshot

        def counted():
            snapshots.append(1)
            return snapshot()

        inner.telemetry_snapshot = counted
        controller.observe()
        gauges = registry.state_dict()["gauges"]
        assert gauges["repro_adaptive_bits_per_click"] == (
            detector.memory_bits / elements
        )
        # A detector with an operation counter is read, not swept; a
        # sharded fleet has none and answers through its snapshot.
        assert len(snapshots) == (0 if spec.shards == 1 else 1)

    def test_scaled_spec_validation(self):
        with pytest.raises(ConfigurationError):
            scaled_spec(APBF_SPEC, 2.0)  # target_fp sizing has no knob
        with pytest.raises(ConfigurationError):
            scaled_spec(SMALL_SPEC, 0.0)
        grown = scaled_spec(SMALL_SPEC, 2.0)
        assert grown.params.slice_bits == 128
        by_memory = scaled_spec(
            DetectorSpec("tbf", WindowSpec("sliding", 64), memory_bits=4096),
            0.5,
        )
        assert by_memory.memory_bits == 2048

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            ControllerConfig(grow_factor=0.5)
        with pytest.raises(ConfigurationError):
            ControllerConfig(breach_streak=0)
        with pytest.raises(ConfigurationError):
            ControllerConfig(shrink_fraction=2.0)


class TestServeAdaptive:
    def test_controller_resize_live_zero_lost_clicks(self):
        from repro.serve import ServeClient, ServeConfig, ServerThread
        from repro.telemetry import TelemetrySession

        spec = DetectorSpec(
            "apbf", WindowSpec("sliding", 128), target_fp=0.01
        )
        detector = AdaptiveDetector(spec)
        config = ServeConfig(
            max_batch=256,
            max_delay=0.001,
            adaptive_interval=1,
            adaptive=ControllerConfig(breach_streak=1, cooldown=0),
        )
        session = TelemetrySession()
        identifiers = _distinct(20_000, seed=21)
        with ServerThread(detector, config, telemetry=session) as thread:
            with ServeClient("127.0.0.1", thread.port) as client:
                verdicts = np.concatenate([
                    client.send(chunk)
                    for chunk in np.array_split(identifiers, 40)
                ])
            server = thread.server
            assert server is not None and server._controller is not None
            journal = server._controller.journal
        # Zero lost clicks: every click got exactly one verdict.
        assert verdicts.size == identifiers.size
        # The controller resized at least once, and recorded it.
        assert detector.migrations >= 1
        assert len(journal) >= 1
        assert any(
            event[2] == "resize" for event in server.flight.events()
        )
        rendered = session.registry.to_prometheus()
        assert "repro_adaptive_resizes_total" in rendered

    def test_adaptive_interval_requires_inline_engine(self):
        from repro.serve import ServeConfig

        with pytest.raises(ConfigurationError):
            ServeConfig(adaptive_interval=4, workers=2)

    def test_adaptive_interval_requires_resizable_detector(self):
        from repro.serve import ServeConfig, ServerThread

        config = ServeConfig(adaptive_interval=4)
        thread = ServerThread(create_detector(APBF_SPEC), config)
        with pytest.raises(ConfigurationError):
            thread.start()

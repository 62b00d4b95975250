"""Tests for detector checkpointing: bit-identical restore, corruption
rejection, custom-family refusal, and the generational checkpoint store."""

import random

import numpy as np
import pytest

from repro.core import (
    CheckpointError,
    CheckpointStore,
    GBFDetector,
    TBFDetector,
    TBFJumpingDetector,
    TimeBasedGBFDetector,
    TimeBasedTBFDetector,
    load_detector,
    pack_frame,
    save_detector,
    unpack_frame,
)
from repro.cluster import read_manifest
from repro.errors import RecoveryError
from repro.hashing import CarterWegmanFamily, HashFamily
from repro.resilience import FaultInjector


def _drive(detector, count, seed):
    rng = random.Random(seed)
    return [detector.process(rng.randrange(200)) for _ in range(count)]


DETECTOR_FACTORIES = [
    ("gbf", lambda: GBFDetector(64, 8, 1024, 4, seed=3)),
    ("gbf-wide", lambda: GBFDetector(72, 24, 512, 3, word_bits=8, seed=3)),
    ("tbf", lambda: TBFDetector(64, 2048, 4, seed=3)),
    ("tbf-small-slack", lambda: TBFDetector(64, 2048, 4, cleanup_slack=5, seed=3)),
    ("tbf-jumping", lambda: TBFJumpingDetector(64, 8, 2048, 4, seed=3)),
]


@pytest.mark.parametrize("name,factory", DETECTOR_FACTORIES)
def test_restore_is_bit_identical(name, factory):
    original = factory()
    _drive(original, 500, seed=1)
    blob = save_detector(original)
    restored = load_detector(blob)
    # From here both must make IDENTICAL decisions on any continuation.
    rng_a, rng_b = random.Random(9), random.Random(9)
    for _ in range(800):
        x = rng_a.randrange(200)
        y = rng_b.randrange(200)
        assert original.process(x) == restored.process(y)


TIMEBASED_FACTORIES = [
    ("gbf-time", lambda: TimeBasedGBFDetector(24.0, 4, 1024, 4,
                                              units_per_subwindow=4, seed=3)),
    (
        "gbf-time-wide",
        lambda: TimeBasedGBFDetector(24.0, 12, 512, 3, units_per_subwindow=2,
                                     word_bits=8, seed=3),
    ),
    ("tbf-time", lambda: TimeBasedTBFDetector(24.0, 8, 2048, 4, seed=3)),
    (
        "tbf-time-small-slack",
        lambda: TimeBasedTBFDetector(24.0, 8, 2048, 4, cleanup_slack=2, seed=3),
    ),
]


def _drive_timed(detector, count, seed, start=0.0, step=0.3):
    rng = random.Random(seed)
    timestamp, verdicts = start, []
    for _ in range(count):
        timestamp += rng.random() * step
        verdicts.append(detector.process_at(rng.randrange(200), timestamp))
    return timestamp


@pytest.mark.parametrize("name,factory", TIMEBASED_FACTORIES)
def test_timebased_restore_is_bit_identical(name, factory):
    original = factory()
    resume_at = _drive_timed(original, 500, seed=1)
    restored = load_detector(save_detector(original))
    # From here both must make IDENTICAL decisions on any continuation —
    # including across lane rotations, cleaning sweeps, and idle gaps.
    rng = random.Random(9)
    timestamp = resume_at
    for index in range(800):
        timestamp += rng.random() * 0.3
        if index == 400:
            timestamp += 1000.0  # idle gap: exercises the fast-forward wipe
        x = rng.randrange(200)
        assert original.process_at(x, timestamp) == restored.process_at(x, timestamp)


@pytest.mark.parametrize("name,factory", TIMEBASED_FACTORIES)
def test_timebased_fresh_detector_roundtrips(name, factory):
    # A checkpoint of a detector that never saw a click (clock unset).
    restored = load_detector(save_detector(factory()))
    original = factory()
    timestamp = 0.0
    rng = random.Random(2)
    for _ in range(300):
        timestamp += rng.random() * 0.3
        x = rng.randrange(200)
        assert original.process_at(x, timestamp) == restored.process_at(x, timestamp)


def test_timebased_tbf_corrupt_payload_rejected():
    detector = TimeBasedTBFDetector(24.0, 8, 512, 3, seed=1)
    _drive_timed(detector, 100, seed=2)
    blob = bytearray(save_detector(detector))
    blob[len(blob) // 2] ^= 0xFF
    with pytest.raises(CheckpointError, match="CRC"):
        load_detector(bytes(blob))


def test_restore_mid_cleaning_cycle():
    # Checkpoint exactly while a GBF lane is half-cleaned.
    detector = GBFDetector(64, 8, 4096, 4, seed=5)
    for i in range(68):  # 4 past a rotation: cleaning in progress
        detector.process(10_000 + i)
    assert detector._cleaning_lane is not None
    assert 0 < detector._clean_cursor < detector.bits_per_filter
    restored = load_detector(save_detector(detector))
    for i in range(500):
        assert detector.process(i) == restored.process(i)


def test_checkpoint_roundtrips_query_state():
    detector = TBFDetector(32, 1024, 4, seed=7)
    for i in range(40):
        detector.process(i)
    restored = load_detector(save_detector(detector))
    for i in range(60):
        assert detector.query(i) == restored.query(i)


def test_corrupt_payload_rejected():
    detector = TBFDetector(32, 512, 3, seed=1)
    _drive(detector, 100, seed=2)
    blob = bytearray(save_detector(detector))
    blob[len(blob) // 2] ^= 0xFF
    with pytest.raises(CheckpointError, match="CRC"):
        load_detector(bytes(blob))


def test_truncated_blob_rejected():
    detector = TBFDetector(32, 512, 3, seed=1)
    blob = save_detector(detector)
    with pytest.raises(CheckpointError):
        load_detector(blob[: len(blob) // 2 - 3])
    with pytest.raises(CheckpointError):
        load_detector(b"")


def test_wrong_magic_rejected():
    detector = TBFDetector(32, 512, 3, seed=1)
    blob = save_detector(detector)
    with pytest.raises(CheckpointError, match="magic"):
        load_detector(b"XXXXXXXX" + blob[8:])


def test_unsupported_detector_rejected():
    class NotADetector:
        pass

    with pytest.raises(CheckpointError, match="unsupported"):
        save_detector(NotADetector())


def test_custom_family_refused_at_save_time():
    class WeirdFamily(HashFamily):
        def indices(self, identifier):
            return [identifier % self.num_buckets] * self.num_hashes

    detector = TBFDetector(32, 512, family=WeirdFamily(3, 512))
    with pytest.raises(CheckpointError, match="custom hash family"):
        save_detector(detector)


def test_builtin_nondefault_family_roundtrips():
    family = CarterWegmanFamily(4, 1024, seed=11)
    detector = GBFDetector(64, 8, 1024, family=family)
    _drive(detector, 300, seed=4)
    restored = load_detector(save_detector(detector))
    for i in range(300):
        assert detector.process(i) == restored.process(i)


def test_zero_fn_survives_restart():
    # The deployment property that motivates checkpointing: restarting
    # from a checkpoint never forgets accepted clicks still in-window.
    from repro.windows import SlidingWindow

    detector = TBFDetector(32, 4096, 4, seed=13)
    window = SlidingWindow(32)
    last_valid = {}
    rng = random.Random(17)

    def step(active_detector, identifier):
        window.observe()
        predicted = active_detector.process(identifier)
        previous = last_valid.get(identifier)
        if previous is not None and window.is_active(previous):
            assert predicted, "restart lost an accepted click"
        if not predicted:
            last_valid[identifier] = window.position

    for _ in range(200):
        step(detector, rng.randrange(64))
    detector = load_detector(save_detector(detector))  # simulated restart
    for _ in range(200):
        step(detector, rng.randrange(64))


# ----------------------------------------------------------------------
# CheckpointStore: atomic generations and the one reader
# ----------------------------------------------------------------------

def _frame(kind, value):
    return pack_frame({"kind": kind, "value": value}, b"")


def _value(header, _payload):
    return header["value"]


def test_store_prunes_to_keep_and_orders_generations(tmp_path):
    store = CheckpointStore(tmp_path, keep=3)
    for generation in range(7):
        store.save(b"generation %d" % generation)
    paths = store.paths()
    assert len(paths) == 3
    assert [p.read_bytes() for p in paths] == [
        b"generation 4", b"generation 5", b"generation 6",
    ]
    # No temp files left behind by the atomic write protocol.
    assert not list(tmp_path.glob(".ckpt-*"))


def test_store_load_newest_first(tmp_path):
    store = CheckpointStore(tmp_path, keep=2)
    assert store.load("test", _value) is None  # empty store: a cold start
    store.save(_frame("test", "old"))
    store.save(_frame("test", "new"))
    assert store.load("test", _value) == "new"


def test_store_load_falls_back_past_unusable_generations(tmp_path):
    store = CheckpointStore(tmp_path, keep=4)
    store.save(_frame("test", "good"))
    store.save(_frame("other-kind", "wrong kind"))
    store.save(_frame("test", "refused"))
    FaultInjector(seed=1).corrupt_file(store.save(_frame("test", "rotten")))

    def parse(header, payload):
        if header["value"] == "refused":
            raise CheckpointError("parse refused this generation")
        return header["value"]

    assert store.load("test", parse) == "good"


def test_store_load_without_a_usable_generation_raises(tmp_path):
    store = CheckpointStore(tmp_path, keep=2)
    injector = FaultInjector(seed=4)
    injector.corrupt_file(store.save(_frame("test", "old")), "truncate")
    injector.corrupt_file(store.save(_frame("test", "new")), "flip-byte")
    with pytest.raises(RecoveryError, match="no usable 'test' checkpoint among 2"):
        store.load("test", _value)


@pytest.mark.parametrize(
    "factory",
    [
        lambda: TBFDetector(64, 2048, 4, seed=3),
        lambda: TBFJumpingDetector(64, 8, 2048, 4, seed=3),
        lambda: TimeBasedTBFDetector(24.0, 8, 2048, 4, seed=3),
    ],
    ids=["tbf", "tbf-jumping", "tbf-time"],
)
def test_every_tbf_kind_refuses_a_payload_of_another_dtype(factory):
    """A frame whose header widens the entries (uint8 -> uint16, the
    payload re-encoded to match) has the right entry count but not the
    configuration's dtype; no TBF kind may load it."""
    detector = factory()
    for position in range(200):
        detector.observe(position % 50, float(position) / 10)
    header, payload = unpack_frame(save_detector(detector))
    assert header["dtype"] == "uint8"
    header["dtype"] = "uint16"
    widened = np.frombuffer(payload, dtype=np.uint8).astype(np.uint16)
    with pytest.raises(CheckpointError, match="dtype"):
        load_detector(pack_frame(header, widened.tobytes()))


@pytest.mark.parametrize("name,factory", DETECTOR_FACTORIES)
def test_a_payload_of_the_wrong_length_is_refused(name, factory):
    """A frame whose CRC holds but whose payload is one byte too long is
    a :class:`CheckpointError` (which a store falls back past), never a
    decoding error that escapes the loader."""
    header, payload = unpack_frame(save_detector(factory()))
    with pytest.raises(CheckpointError, match="payload size"):
        load_detector(pack_frame(header, payload + b"\0"))


def test_store_lists_generations_past_eight_digits(tmp_path):
    """The generation after ``ckpt-99999999`` is ``ckpt-100000000``; it
    must be listed, ordered by number, and be what ``load`` returns."""
    old = tmp_path / "ckpt-99999999.rpk"
    old.write_bytes(_frame("test", "old"))
    store = CheckpointStore(tmp_path, keep=2)
    newest = store.save(_frame("test", "new"))
    assert newest.name == "ckpt-100000000.rpk"
    assert store.paths() == [old, newest]
    assert store.load("test", _value) == "new"


def test_reading_an_absent_store_writes_nothing(tmp_path):
    directory = tmp_path / "typo"
    store = CheckpointStore(directory / "node-0")
    assert store.paths() == []
    assert store.load("test", _value) is None
    assert read_manifest(directory) is None
    assert not directory.exists()
    store.save(_frame("test", "first"))
    assert store.load("test", _value) == "first"

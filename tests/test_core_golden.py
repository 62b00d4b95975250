"""Golden fixture for the five core GBF/TBF variants.

``tests/data/core_golden/`` pins, for seven seeded cases, what each
variant returned and held at commit ``45ab610``: verdicts of a warm-up
and a continuation (``numpy.packbits`` hex), the checkpoint header and
payload SHA-256 after each phase, the :class:`OperationCounter` totals
and ``duplicates``.  Each case is recorded twice, once through an
``observe`` loop and once through ``observe_batch`` in fixed chunks,
and its warm-up checkpoint is stored as a blob that must load and
continue to the recorded verdicts.  Time-based cases also pin a batch
that ends in a regressing stamp: it raises :class:`StreamError` after
the valid prefix, with that prefix's counters.

Regenerate (only on purpose, from a tree whose behaviour is the
reference)::

    PYTHONPATH=src python -m tests.test_core_golden --write
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import (
    GBFDetector,
    TBFDetector,
    TBFJumpingDetector,
    TimeBasedGBFDetector,
    TimeBasedTBFDetector,
)
from repro.core.checkpoint import load_detector, save_detector, unpack_frame
from repro.errors import StreamError

DATA = Path(__file__).parent / "data" / "core_golden"

#: Clicks per phase, and the ``observe_batch`` chunk size (not a divisor
#: of the phase, so chunks straddle segment and phase boundaries).
PHASE = 1200
CHUNK = 97

#: name -> (constructor, identifier range, idle gap in time units or
#: ``None`` for count-based cases)
CASES = {
    "gbf": (lambda: GBFDetector(240, 4, 512, num_hashes=4, seed=3), 400, None),
    # Q + 1 = 81 lanes do not fit a 64-bit word: the scalar fallback.
    "gbf-wide": (lambda: GBFDetector(800, 80, 256, num_hashes=3, seed=4), 900, None),
    # C = N - 1: scan 4 per arrival, chunks capped at the window.
    "tbf": (lambda: TBFDetector(300, 1024, num_hashes=4, seed=5), 400, None),
    # C = 3: scan 128 per arrival, so a chunk holds 4 arrivals (cursor lap).
    "tbf-small-slack": (
        lambda: TBFDetector(300, 512, num_hashes=4, cleanup_slack=3, seed=6),
        400,
        None,
    ),
    "tbf-jumping": (
        lambda: TBFJumpingDetector(400, 8, 1024, num_hashes=4, seed=7),
        500,
        None,
    ),
    # R = 8 units of 0.5; C = 31 gives 16-entry quotas, so one-unit
    # sweeps take the scalar loop and longer ones the kernel; the idle
    # gap of 10 units wipes the table.
    "tbf-time": (
        lambda: TimeBasedTBFDetector(
            4.0, 8, 512, num_hashes=4, cleanup_slack=31, seed=8
        ),
        150,
        10,
    ),
    # Q = 4 sub-windows of 4 units of 0.25; a gap of 28 units (7
    # sub-windows) exceeds the 5-lane cycle, so the matrix is wiped.
    "gbf-time": (
        lambda: TimeBasedGBFDetector(
            4.0, 4, 512, num_hashes=4, units_per_subwindow=4, seed=9
        ),
        150,
        28,
    ),
}


def _stream(name, phase):
    """``(identifiers, timestamps)`` of one phase (0 warm-up, 1 continuation).

    Timestamps are whole ticks of an eighth of a time unit, so every
    eighth tick falls exactly on a unit boundary; a third of the steps
    are zero (bursts on one stamp), and the middle of each phase holds
    the case's idle gap.
    """
    make, id_range, gap = CASES[name]
    rng = np.random.default_rng(list(CASES).index(name) + 1)
    identifiers = rng.integers(0, id_range, size=2 * PHASE, dtype=np.uint64)
    rows = slice(phase * PHASE, (phase + 1) * PHASE)
    if gap is None:
        return identifiers[rows], None
    steps = rng.choice(np.array([0, 0, 1, 2, 3], dtype=np.int64), size=2 * PHASE)
    steps[PHASE // 2] = steps[PHASE + PHASE // 2] = 8 * gap
    ticks = 8 * 1001 + np.cumsum(steps)
    return identifiers[rows], ticks[rows] * (make().unit_duration / 8)


def _state(detector):
    header, payload = unpack_frame(save_detector(detector))
    counter = detector.counter
    return {
        "header": header,
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
        "counter": {
            "elements": counter.elements,
            "hash_evaluations": counter.hash_evaluations,
            "word_reads": counter.word_reads,
            "word_writes": counter.word_writes,
        },
        "duplicates": detector.duplicates,
    }


def _observe(detector, identifiers, timestamps):
    if timestamps is None:
        return np.array(
            [detector.observe(int(i)) for i in identifiers], dtype=bool
        )
    return np.array(
        [detector.observe(int(i), float(t)) for i, t in zip(identifiers, timestamps)],
        dtype=bool,
    )


def _observe_batch(detector, identifiers, timestamps):
    out = np.empty(identifiers.shape[0], dtype=bool)
    for start in range(0, identifiers.shape[0], CHUNK):
        stop = start + CHUNK
        out[start:stop] = detector.observe_batch(
            identifiers[start:stop],
            None if timestamps is None else timestamps[start:stop],
        )
    return out


MODES = {"observe": _observe, "observe_batch": _observe_batch}


def _hex(verdicts):
    return np.packbits(verdicts).tobytes().hex()


def _verdicts(text, count):
    return np.unpackbits(
        np.frombuffer(bytes.fromhex(text), dtype=np.uint8), count=count
    ).astype(bool)


def record_run(name, mode):
    """Warm-up, then continuation, through one mode; returns the record
    and the warm-up checkpoint blob."""
    detector = CASES[name][0]()
    run = MODES[mode]
    record = {}
    blob = None
    for phase, label in enumerate(("warmup", "continuation")):
        identifiers, timestamps = _stream(name, phase)
        verdicts = run(detector, identifiers, timestamps)
        record[label] = {"verdicts": _hex(verdicts), **_state(detector)}
        if blob is None:
            blob = save_detector(detector)
    return record, blob


def _regressing_batch(name):
    """The warm-up stream with its last stamp moved before its first."""
    identifiers, timestamps = _stream(name, 0)
    timestamps = timestamps.copy()
    timestamps[-1] = timestamps[0] - 1.0
    return identifiers, timestamps


def record_regression(name):
    detector = CASES[name][0]()
    identifiers, timestamps = _regressing_batch(name)
    with pytest.raises(StreamError):
        detector.observe_batch(identifiers, timestamps)
    return _state(detector)


TIMED_CASES = [name for name, (_, _, gap) in CASES.items() if gap is not None]
MANIFEST_PATH = DATA / "golden.json"


def _manifest():
    return json.loads(MANIFEST_PATH.read_text())


def test_every_case_is_recorded():
    manifest = _manifest()
    assert set(manifest["cases"]) == set(CASES)
    assert set(manifest["regressions"]) == set(TIMED_CASES)


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("name", sorted(CASES))
def test_case_matches_golden(name, mode):
    expected = _manifest()["cases"][name][mode]
    record, blob = record_run(name, mode)
    assert record == expected
    assert blob == (DATA / f"{name}.rpk").read_bytes()


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("name", sorted(CASES))
def test_warmup_blob_continues(name, mode):
    """The blob the parent wrote loads and continues to its verdicts."""
    expected = _manifest()["cases"][name][mode]["continuation"]
    detector = load_detector((DATA / f"{name}.rpk").read_bytes())
    assert type(detector) is type(CASES[name][0]())
    identifiers, timestamps = _stream(name, 1)
    verdicts = MODES[mode](detector, identifiers, timestamps)
    assert np.array_equal(verdicts, _verdicts(expected["verdicts"], PHASE))
    state = _state(detector)
    assert state["header"] == expected["header"]
    assert state["payload_sha256"] == expected["payload_sha256"]
    assert state["duplicates"] == expected["duplicates"]


@pytest.mark.parametrize("name", TIMED_CASES)
def test_regressing_batch_keeps_the_prefix(name):
    assert record_regression(name) == _manifest()["regressions"][name]


def write_fixture():
    DATA.mkdir(parents=True, exist_ok=True)
    manifest = {"cases": {}, "regressions": {}}
    for name in CASES:
        manifest["cases"][name] = {}
        blobs = set()
        for mode in MODES:
            record, blob = record_run(name, mode)
            manifest["cases"][name][mode] = record
            blobs.add(blob)
        assert len(blobs) == 1, f"{name}: observe and observe_batch blobs differ"
        (DATA / f"{name}.rpk").write_bytes(blobs.pop())
    for name in TIMED_CASES:
        manifest["regressions"][name] = record_regression(name)
    MANIFEST_PATH.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.test_core_golden --write")
    write_fixture()

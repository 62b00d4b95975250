"""Adaptive detector wrappers: live resize via checkpoint-migrate.

The sketches in :mod:`repro.core` and :mod:`repro.adaptive.filters` are
sized once, at construction.  When live traffic drifts away from the
sizing assumptions — the estimated FP rate creeps past the paper's
bound, or a shrunken stream leaves most of the memory idle — the only
remedy is a *resize*: build a filter of the new size and warm it with
the recent past.

:class:`AdaptiveDetector` makes that remedy a method call, for either
time model.  It wraps an inner detector built from a
:class:`~repro.detection.DetectorSpec` and retains a bounded window of
the most recent arrivals (with their timestamps when the spec is
time-based).  ``migrate(new_spec)`` builds a fresh inner
detector from ``new_spec``, replays the retained window through it, and
swaps it in — the wrapper object (and therefore every reference held by
pipelines, routers, and instruments) survives the resize.  The wrapper
natively implements the full
:class:`~repro.detection.DetectorLifecycle` protocol
(``quiesce / checkpoint / migrate / resume``), so the supervised
pipeline, the parallel fleet, and the cluster router drive them through
the same four verbs they use for everything else.

Replay semantics are deliberately simple and testable: after
``migrate(new_spec)``, the wrapper's verdicts match a *fresh* detector
of ``new_spec`` that processed exactly the retained window (property-
tested).  Clicks older than the retained window are forgotten — the
same guarantee decay already gives them.

Checkpoints round-trip the whole assembly — wrapper bookkeeping,
retained window, spec, and the inner detector's bit-exact state — under
the ``"adaptive"`` frame kind; blobs of the retired ``"adaptive-timed"``
kind still load.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict
from typing import Iterable, Optional, Tuple

import numpy as np

from ..core.checkpoint import (
    CheckpointError,
    load_detector,
    pack_frame,
    register_checkpoint_kind,
    register_retired_kind,
    save_detector,
)
from ..core.contract import batch_arrays
from ..detection.detector import (
    PARAMS_TYPES,
    TIME_BASED_ALGORITHMS,
    DetectorSpec,
    WindowSpec,
    create_detector,
)
from ..errors import ConfigurationError

__all__ = [
    "AdaptiveDetector",
    "spec_to_dict",
    "spec_from_dict",
]


def spec_to_dict(spec: DetectorSpec) -> dict:
    """Serialize a :class:`DetectorSpec` to a JSON-safe dict."""
    window = spec.window
    return {
        "algorithm": spec.algorithm,
        "window": {
            "kind": window.kind,
            "size": window.size,
            "num_subwindows": window.num_subwindows,
        },
        "memory_bits": spec.memory_bits,
        "target_fp": spec.target_fp,
        "num_hashes": spec.num_hashes,
        "seed": spec.seed,
        "duration": spec.duration,
        "resolution": spec.resolution,
        "shards": spec.shards,
        "engine": spec.engine,
        "params": None if spec.params is None else asdict(spec.params),
    }


def spec_from_dict(data: dict) -> DetectorSpec:
    """Rebuild the :class:`DetectorSpec` :func:`spec_to_dict` emitted."""
    window = data["window"]
    params = data.get("params")
    if params is not None:
        params_type = PARAMS_TYPES.get(data["algorithm"])
        if params_type is None:
            raise CheckpointError(
                f"checkpoint carries params for {data['algorithm']!r}, "
                "which takes none"
            )
        params = params_type(**params)
    return DetectorSpec(
        algorithm=data["algorithm"],
        window=WindowSpec(
            window["kind"], window["size"], window["num_subwindows"]
        ),
        memory_bits=data["memory_bits"],
        target_fp=data["target_fp"],
        num_hashes=data["num_hashes"],
        seed=data["seed"],
        duration=data["duration"],
        resolution=data["resolution"],
        shards=data["shards"],
        engine=data["engine"],
        params=params,
    )


class AdaptiveDetector:
    """Resizable detector over either time model (see module docstring).

    Parameters
    ----------
    spec:
        The :class:`DetectorSpec` of the initial inner detector.  Its
        algorithm fixes ``timed`` for the wrapper's life: a migrate must
        keep the time model.
    retain:
        Replay-window length in clicks; defaults to ``spec.window.size``
        (the window the sketch guarantees anyway).
    """

    def __init__(
        self,
        spec: DetectorSpec,
        *,
        retain: Optional[int] = None,
        _inner=None,
        _buffer: Optional[Iterable] = None,
    ) -> None:
        if retain is None:
            retain = spec.window.size
        if retain < 1:
            raise ConfigurationError(f"retain must be >= 1, got {retain}")
        self._spec = spec
        self.retain = retain
        self.timed = spec.algorithm in TIME_BASED_ALGORITHMS
        self.inner = _inner if _inner is not None else create_detector(spec)
        self.migrations = 0
        self._quiesced = False
        #: The newest arrivals: identifiers, or ``(identifier, timestamp)``
        #: pairs when time-based.
        self._buffer = deque(_buffer or (), maxlen=self.retain)

    # -- lifecycle ---------------------------------------------------

    def quiesce(self) -> None:
        """Stop background work so state is stable for checkpoint/migrate."""
        hook = getattr(self.inner, "quiesce", None)
        if hook is not None:
            hook()
        self._quiesced = True

    def resume(self) -> None:
        """Undo :meth:`quiesce`; the detector accepts traffic again."""
        hook = getattr(self.inner, "resume", None)
        if hook is not None:
            hook()
        self._quiesced = False

    def checkpoint(self) -> bytes:
        """Serialize wrapper + retained window + inner state to bytes."""
        return save_detector(self)

    # Supervised-pipeline compatibility: it snapshots via
    # ``checkpoint_state()`` when a detector offers one.
    def checkpoint_state(self) -> bytes:
        return save_detector(self)

    def migrate(self, new_spec: DetectorSpec) -> None:
        """Swap in a fresh detector of ``new_spec`` warmed by replay.

        After this returns, verdicts match a fresh ``new_spec`` detector
        that processed exactly the retained window.  The wrapper object
        itself is unchanged — references held elsewhere stay valid.
        """
        if (new_spec.algorithm in TIME_BASED_ALGORITHMS) != self.timed:
            model = "time" if self.timed else "count"
            raise ConfigurationError(
                f"cannot migrate a {model}-based adaptive detector to "
                f"{new_spec.algorithm!r}; a migrate keeps the time model"
            )
        fresh = create_detector(new_spec)
        if self._buffer:
            fresh.observe_batch(*self._buffer_arrays())
        self.inner = fresh
        self._spec = new_spec
        self.migrations += 1

    # -- the detector contract ---------------------------------------

    def observe(self, identifier: int, timestamp: Optional[float] = None) -> bool:
        verdict = self.inner.observe(identifier, timestamp)
        self._buffer.append(
            (int(identifier), float(timestamp)) if self.timed else int(identifier)
        )
        return verdict

    def observe_batch(self, identifiers, timestamps=None) -> np.ndarray:
        identifiers, timestamps = batch_arrays(self, identifiers, timestamps)
        verdicts = self.inner.observe_batch(identifiers, timestamps)
        tail = identifiers[-self.retain :].tolist()
        if timestamps is None:
            self._buffer.extend(tail)
        else:
            self._buffer.extend(zip(tail, timestamps[-self.retain :].tolist()))
        return verdicts

    def _buffer_arrays(self) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """The retained window as ``(identifiers, timestamps or None)``."""
        if not self.timed:
            return np.fromiter(self._buffer, dtype=np.uint64), None
        ids = np.fromiter((i for i, _ in self._buffer), dtype=np.uint64)
        times = np.fromiter((t for _, t in self._buffer), dtype=np.float64)
        return ids, times

    # -- shared surface ----------------------------------------------

    def spec(self) -> DetectorSpec:
        """The spec of the *current* inner detector."""
        inner_spec = getattr(self.inner, "spec", None)
        if inner_spec is not None:
            return inner_spec()
        return self._spec

    @property
    def memory_bits(self) -> int:
        return self.inner.memory_bits

    def theoretical_fp_bound(self) -> Optional[float]:
        from ..telemetry.instruments import theoretical_fp_bound

        return theoretical_fp_bound(self.inner)

    def estimated_fp_rate(self) -> Optional[float]:
        estimate = getattr(self.inner, "estimated_fp_rate", None)
        if estimate is not None:
            return estimate()
        gauges = self.inner.telemetry_snapshot().get("gauges", {})
        return gauges.get("estimated_fp_rate")

    def telemetry_snapshot(self) -> dict:
        snapshot_fn = getattr(self.inner, "telemetry_snapshot", None)
        snapshot = snapshot_fn() if snapshot_fn is not None else {}
        gauges = dict(snapshot.get("gauges", {}))
        gauges["retained_window"] = float(len(self._buffer))
        gauges["retain_limit"] = float(self.retain)
        counters = dict(snapshot.get("counters", {}))
        counters["migrations"] = self.migrations
        out = dict(snapshot)
        out["gauges"] = gauges
        out["counters"] = counters
        return out

    def __getattr__(self, name: str):
        # Fallback delegation for read-only surface (duplicates, query
        # helpers, counters).  Only called when normal lookup fails.
        # The inner detector's process* entry points stay hidden: a
        # click that skipped observe/observe_batch would never reach
        # the retained window, and a migrate would forget it.
        if name.startswith(("_", "process")):
            raise AttributeError(name)
        return getattr(self.inner, name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(inner={self.inner!r}, "
            f"retain={self.retain}, migrations={self.migrations})"
        )


# -- checkpointing ---------------------------------------------------


def _save_adaptive(detector: AdaptiveDetector) -> bytes:
    inner_blob = save_detector(detector.inner)
    ids, times = detector._buffer_arrays()
    header = {
        "kind": "adaptive",
        "spec": spec_to_dict(detector._spec),
        "retain": detector.retain,
        "migrations": detector.migrations,
        "buffer_len": int(ids.size),
    }
    retained = ids.tobytes() + (b"" if times is None else times.tobytes())
    return pack_frame(header, retained + inner_blob)


def _load_adaptive(header: dict, payload: bytes) -> AdaptiveDetector:
    """Inverse of :func:`_save_adaptive`; the spec says whether the
    retained ids are followed by their timestamps."""
    spec = spec_from_dict(header["spec"])
    timed = spec.algorithm in TIME_BASED_ALGORITHMS
    buffer_len = int(header["buffer_len"])
    ids = np.frombuffer(payload[: buffer_len * 8], dtype=np.uint64)
    split = buffer_len * 8
    times = None
    if timed:
        times = np.frombuffer(payload[split : split * 2], dtype=np.float64)
        split *= 2
    if ids.size != buffer_len or (timed and times.size != buffer_len):
        raise CheckpointError(f"{header['kind']} checkpoint buffer truncated")
    detector = AdaptiveDetector(
        spec,
        retain=int(header["retain"]),
        _inner=load_detector(payload[split:]),
        _buffer=zip(ids.tolist(), times.tolist()) if timed else ids.tolist(),
    )
    detector.migrations = int(header["migrations"])
    return detector


register_checkpoint_kind(
    "adaptive", AdaptiveDetector, _save_adaptive, _load_adaptive
)
# Load-only alias: time-based wrappers saved before the count/time collapse.
register_retired_kind("adaptive-timed", _load_adaptive)

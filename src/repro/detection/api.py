"""The one detector contract, and the lifecycle every tier shares.

:class:`Detector` is the surface every variant answers — the core GBF /
TBF / APBF / TLBF variants, the baselines, and the sharded, parallel,
cluster and adaptive tiers: a ``timed`` flag plus ``observe`` and
``observe_batch``.  Callers always pass the click's timestamp;
count-based detectors ignore it and time-based ones require it.
Pipelines, the network server (:mod:`repro.serve`), the parallel
workers and the fault injectors call the contract directly, so one
class per tier serves both time models.

The core variants and baselines get the contract from the two base
classes in :mod:`repro.core.contract`, which forward to their scalar
reference loops (``process`` / ``process_at``) and batch paths
(``process_batch`` / ``process_batch_at``).

:class:`DetectorLifecycle` names the four operational verbs (quiesce,
checkpoint, migrate, resume) the supervisor, the parallel fleet, the
cluster and the adaptive controller drive.
"""

from __future__ import annotations

from typing import Any, Optional, Protocol, runtime_checkable

import numpy as np

from ..errors import ConfigurationError

__all__ = [
    "Detector",
    "DetectorLifecycle",
    "LifecycleAdapter",
    "as_lifecycle",
]


@runtime_checkable
class Detector(Protocol):
    """A duplicate detector over a count- or time-based window.

    ``observe_batch`` is bit-identical to an ``observe`` loop over the
    same clicks: same verdicts, same final state (property-tested in
    ``tests/test_batch_equivalence.py`` and
    ``tests/test_detector_api.py``).  Checkpointable detectors add
    ``checkpoint_state()`` and ``telemetry_snapshot()`` beside it.
    """

    #: ``True`` when the window ages by the caller's clock.
    timed: bool

    def observe(self, identifier: int, timestamp: Optional[float] = None) -> bool:
        """Observe one click; ``True`` means duplicate (do not bill)."""
        ...

    def observe_batch(
        self,
        identifiers: "np.ndarray",
        timestamps: Optional["np.ndarray"] = None,
    ) -> "np.ndarray":
        """Verdicts for parallel 1-D uint64 / float64 arrays."""
        ...

    @property
    def memory_bits(self) -> int:
        """Total bits of summary-structure state."""
        ...


@runtime_checkable
class DetectorLifecycle(Protocol):
    """The one lifecycle every operational flow drives.

    Three flows grew their own ad-hoc variants of the same dance —
    supervised restore (:mod:`repro.resilience.supervisor`), parallel
    fleet checkpointing (:mod:`repro.parallel.engine`), and cluster
    rebalancing (:mod:`repro.cluster.local`).  This protocol names the
    four steps they share so controllers (notably
    :class:`repro.adaptive.controller.AdaptiveController`) can run
    *quiesce → checkpoint → migrate(new_spec) → resume* against any of
    them without knowing which tier they are talking to.
    """

    def quiesce(self) -> None:
        """Drain in-flight work; afterwards state is stable to read."""
        ...

    def checkpoint(self) -> bytes:
        """Serialized state (``repro.core.load_detector`` inverts)."""
        ...

    def migrate(self, new_spec: Any) -> None:
        """Reconfigure in place to ``new_spec``, carrying state over."""
        ...

    def resume(self) -> None:
        """Leave the quiesced state and accept traffic again."""
        ...


class LifecycleAdapter:
    """Give a plain detector the :class:`DetectorLifecycle` surface.

    Plain detectors are synchronous — every call returns with state
    settled — so ``quiesce``/``resume`` delegate when the detector has
    them (sharded/parallel tiers) and are no-ops otherwise, and
    ``checkpoint`` rides the registry.  ``migrate`` delegates too;
    a detector with no native migrate cannot carry state across a
    reconfiguration by itself — wrap it in
    :class:`repro.adaptive.lifecycle.AdaptiveDetector`, which replays a
    bounded retained window, to get one.
    """

    __slots__ = ("base",)

    def __init__(self, base: Any) -> None:
        self.base = base

    def quiesce(self) -> None:
        method = getattr(self.base, "quiesce", None)
        if method is not None:
            method()

    def checkpoint(self) -> bytes:
        method = getattr(self.base, "checkpoint_state", None)
        if method is not None:
            return method()
        from ..core.checkpoint import save_detector

        return save_detector(self.base)

    def migrate(self, new_spec: Any) -> None:
        method = getattr(self.base, "migrate", None)
        if method is None:
            raise ConfigurationError(
                f"{type(self.base).__name__} has no native migrate; wrap it "
                "in repro.adaptive.lifecycle.AdaptiveDetector to migrate "
                "with bounded replay"
            )
        method(new_spec)

    def resume(self) -> None:
        method = getattr(self.base, "resume", None)
        if method is not None:
            method()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LifecycleAdapter({type(self.base).__name__})"


def as_lifecycle(detector: Any) -> DetectorLifecycle:
    """The :class:`DetectorLifecycle` view of any detector.

    Objects already exposing the full surface (sharded tiers, parallel
    engines, clusters, adaptive wrappers) pass through unchanged;
    everything else is wrapped in a :class:`LifecycleAdapter`.
    """
    if isinstance(detector, DetectorLifecycle):
        return detector
    return LifecycleAdapter(detector)

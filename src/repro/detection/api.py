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
checkpoint, migrate, resume) of the parallel fleet, the cluster and the
adaptive wrappers.
"""

from __future__ import annotations

from typing import Any, Optional, Protocol, runtime_checkable

import numpy as np

__all__ = [
    "Detector",
    "DetectorLifecycle",
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

    Parallel fleet checkpointing (:mod:`repro.parallel.engine`), cluster
    rebalancing (:mod:`repro.cluster.local`) and adaptive resizing
    (:mod:`repro.adaptive.lifecycle`) share the same dance.  This
    protocol names its four steps so a controller (notably
    :class:`repro.adaptive.controller.AdaptiveController`) can run
    *quiesce → checkpoint → migrate(new_spec) → resume* against any of
    them without knowing which tier it is talking to.  A plain detector
    is synchronous — every call returns with state settled — so it
    needs no quiesce; to migrate one, wrap it in
    :class:`repro.adaptive.lifecycle.AdaptiveDetector`.
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

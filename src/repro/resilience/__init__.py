"""Fault tolerance for the serve path: input hardening and fault injection.

The detection pipeline as the paper frames it is one perfect pass over
one well-formed stream.  Production is neither: producers emit garbage,
checkpoint files rot, engine tasks die or wedge.  The serve path's
recovery — drain checkpoints in a
:class:`~repro.core.checkpoint.CheckpointStore`, resume with fallback
past a rotten generation, refusal when none is usable — lives in
:mod:`repro.serve.server`; this package holds what hardens and tests it:

* :class:`DeadLetterSink` — quarantine instead of crash, for malformed
  reader records and the frames the ingest server refuses.
* :class:`FaultInjector`, :class:`EngineFaultHooks` and
  :class:`ChaosDetector` — seeded checkpoint corruption, engine-task
  deaths and stalls, failed checkpoint writes and failing detector
  calls, so tests and the chaos soak prove the recovery invariants
  instead of assuming them.

The recovery taxonomy (which errors mean retry, fall back, or page a
human) is documented in :mod:`repro.errors`; the operational
trade-offs (checkpoint cadence, fail-open vs fail-closed shards) in
``docs/operations.md``.
"""

from .faults import (
    CORRUPTION_MODES,
    ChaosDetector,
    EngineFaultHooks,
    FaultInjector,
    InjectedFault,
)
from .hardening import DeadLetter, DeadLetterSink

__all__ = [
    "DeadLetter",
    "DeadLetterSink",
    "ChaosDetector",
    "EngineFaultHooks",
    "FaultInjector",
    "InjectedFault",
    "CORRUPTION_MODES",
]

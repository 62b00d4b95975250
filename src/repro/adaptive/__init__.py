"""Adaptive filter portfolio and the self-tuning resize controller.

* :mod:`repro.adaptive.filters` — the Age-Partitioned Bloom Filter and
  the time-limited Bloom filter, sliding-window duplicate detectors
  with tighter FP-per-bit than the paper's GBF/TBF designs.
* :mod:`repro.adaptive.lifecycle` — resizable wrappers implementing the
  :class:`~repro.detection.api.DetectorLifecycle` protocol with a
  bounded replay window, so ``migrate(new_spec)`` loses no state it
  should keep.
* :mod:`repro.adaptive.controller` — the closed loop: watch the live
  estimated-FP gauges, grow on sustained bound breach, shrink on
  sustained underutilization, with hysteresis, cooldown, and a bounded
  resize-event journal.
"""

from .filters import (
    AgePartitionedBFDetector,
    APBFPlan,
    TimeLimitedBFDetector,
    TLBFPlan,
    plan_apbf_for_target,
    plan_apbf_from_memory,
    plan_tlbf_for_target,
    plan_tlbf_from_memory,
)
from .lifecycle import AdaptiveDetector
from .controller import AdaptiveController, ControllerConfig, ResizeEvent, scaled_spec

__all__ = [
    "AgePartitionedBFDetector",
    "TimeLimitedBFDetector",
    "APBFPlan",
    "TLBFPlan",
    "plan_apbf_for_target",
    "plan_apbf_from_memory",
    "plan_tlbf_for_target",
    "plan_tlbf_from_memory",
    "AdaptiveDetector",
    "AdaptiveController",
    "ControllerConfig",
    "ResizeEvent",
    "scaled_spec",
]

"""Self-tuning resize controller: watch the FP envelope, act on it.

The paper sizes its sketches offline from an assumed arrival rate.
Production traffic does not read the paper: a rate step fills the
filter past its design point and the live estimated FP rate climbs
through the a-priori bound, silently refunding fraudulent clicks.  The
opposite drift wastes memory.

:class:`AdaptiveController` closes the loop.  Each :meth:`observe` call
samples the wrapped detector's live ``estimated_fp_rate`` against the
configuration's :func:`~repro.core.contract.theoretical_fp_bound`
and keeps two streak counters:

* **breach** — ``estimate > bound * breach_factor`` for
  ``breach_streak`` consecutive samples triggers a *grow* resize
  (memory scaled by ``grow_factor``);
* **slack** — ``estimate < bound * shrink_fraction`` for
  ``shrink_streak`` consecutive samples triggers a *shrink* resize
  (memory scaled by ``shrink_factor``).

Streaks are the hysteresis: one noisy sample never resizes, and the
asymmetric streak lengths (grow fast, shrink slowly) bias toward
correctness over parsimony.  After any resize a ``cooldown`` of samples
must pass before the next, and hard ``min/max_memory_bits`` rails stop
runaway oscillation.  Every resize runs through the detector's
:class:`~repro.detection.DetectorLifecycle` verbs —
``quiesce -> migrate(new_spec) -> resume`` — so no click is lost and no
caller's reference goes stale, and is recorded as a
:class:`ResizeEvent` in a bounded journal plus ``repro_adaptive_*``
metrics when a registry is attached.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional

from ..core.contract import theoretical_fp_bound
from ..detection.detector import (
    APBFParams,
    DetectorSpec,
    GBFParams,
    TBFParams,
    TLBFParams,
)
from ..errors import ConfigurationError

__all__ = [
    "AdaptiveController",
    "ControllerConfig",
    "ResizeEvent",
    "scaled_spec",
]


def scaled_spec(spec: DetectorSpec, factor: float) -> DetectorSpec:
    """``spec`` with its memory scaled by ``factor``.

    Exact ``params`` have their size field scaled (hash counts and
    window shape are preserved); a ``memory_bits`` sizing is scaled
    directly; a ``target_fp`` sizing has no memory knob to scale —
    call ``detector.spec()`` first, which always emits exact params.
    """
    if factor <= 0:
        raise ConfigurationError(f"scale factor must be > 0, got {factor}")
    params = spec.params
    if params is not None:
        if type(params) is GBFParams:
            scaled = replace(
                params,
                bits_per_filter=max(8, round(params.bits_per_filter * factor)),
            )
        elif type(params) is TBFParams:
            scaled = replace(
                params, num_entries=max(8, round(params.num_entries * factor))
            )
        elif type(params) is APBFParams:
            scaled = replace(
                params, slice_bits=max(8, round(params.slice_bits * factor))
            )
        elif type(params) is TLBFParams:
            scaled = replace(
                params, slice_bits=max(8, round(params.slice_bits * factor))
            )
        else:  # pragma: no cover - PARAMS_TYPES is closed
            raise ConfigurationError(
                f"cannot scale params of type {type(params).__name__}"
            )
        return replace(spec, params=scaled)
    if spec.memory_bits is not None:
        return replace(
            spec, memory_bits=max(64, round(spec.memory_bits * factor))
        )
    raise ConfigurationError(
        "spec sized by target_fp has no memory knob to scale; use "
        "detector.spec(), which emits exact params"
    )


@dataclass(frozen=True)
class ControllerConfig:
    """Knobs for :class:`AdaptiveController` (see module docstring).

    ``target_fp`` overrides the theoretical bound as the comparison
    baseline — required for detectors (time-based sketches) whose
    per-window load is unknown a priori, so no bound is derivable.
    """

    breach_factor: float = 1.0
    breach_streak: int = 3
    shrink_fraction: float = 0.1
    shrink_streak: int = 24
    cooldown: int = 8
    grow_factor: float = 2.0
    shrink_factor: float = 0.5
    min_memory_bits: int = 1 << 10
    max_memory_bits: int = 1 << 28
    journal_limit: int = 64
    target_fp: Optional[float] = None

    def __post_init__(self) -> None:
        if self.breach_streak < 1 or self.shrink_streak < 1:
            raise ConfigurationError("streak lengths must be >= 1")
        if self.cooldown < 0:
            raise ConfigurationError("cooldown must be >= 0")
        if not (0 < self.shrink_factor < 1 < self.grow_factor):
            raise ConfigurationError(
                "need shrink_factor < 1 < grow_factor, got "
                f"{self.shrink_factor} / {self.grow_factor}"
            )
        if not 0 <= self.shrink_fraction < self.breach_factor:
            raise ConfigurationError(
                "need shrink_fraction < breach_factor (hysteresis band), "
                f"got {self.shrink_fraction} / {self.breach_factor}"
            )


@dataclass(frozen=True)
class ResizeEvent:
    """One completed resize, as journaled by the controller."""

    direction: str  # "grow" | "shrink"
    sample: int  # observe() count at which the resize fired
    estimated_fp: float
    bound: float
    old_spec: DetectorSpec
    new_spec: DetectorSpec
    old_memory_bits: int
    new_memory_bits: int


class AdaptiveController:
    """Drives resizes on one adaptive detector (see module docstring).

    Parameters
    ----------
    detector:
        An :class:`~repro.adaptive.AdaptiveDetector` (or anything with
        ``spec() / quiesce / migrate / resume``, ``memory_bits``, and an
        ``estimated_fp_rate()``).
    config:
        A :class:`ControllerConfig`; defaults are conservative.
    registry:
        Optional :class:`~repro.telemetry.registry.MetricsRegistry`;
        when given, publishes ``repro_adaptive_*`` metrics.
    """

    def __init__(
        self,
        detector,
        config: Optional[ControllerConfig] = None,
        *,
        registry=None,
    ) -> None:
        self.detector = detector
        self.config = config or ControllerConfig()
        self.samples = 0
        self.breach_run = 0
        self.slack_run = 0
        self.breach_samples = 0
        self._since_resize = self.config.cooldown  # first resize unfenced
        self.journal: List[ResizeEvent] = []
        self._metrics = None
        if registry is not None:
            self._metrics = {
                "resizes": registry.counter(
                    "repro_adaptive_resizes_total",
                    "Controller-driven detector resizes",
                    labels=("direction",),
                ),
                "breach_samples": registry.counter(
                    "repro_adaptive_breach_samples_total",
                    "Samples with estimated FP above bound * breach_factor",
                ),
                "breach_run": registry.gauge(
                    "repro_adaptive_breach_run",
                    "Current consecutive-breach sample count",
                ),
                "memory_bits": registry.gauge(
                    "repro_adaptive_memory_bits",
                    "Physical memory of the adaptive detector",
                ),
                "bits_per_click": registry.gauge(
                    "repro_adaptive_bits_per_click",
                    "Memory bits per click processed since construction",
                ),
            }

    # -- readings ----------------------------------------------------

    def bound(self) -> Optional[float]:
        """The FP baseline: config override, else the a-priori bound."""
        if self.config.target_fp is not None:
            return self.config.target_fp
        return theoretical_fp_bound(self.detector)

    def estimate(self) -> Optional[float]:
        estimate_fn = getattr(self.detector, "estimated_fp_rate", None)
        if estimate_fn is not None:
            return estimate_fn()
        snapshot_fn = getattr(self.detector, "telemetry_snapshot", None)
        if snapshot_fn is None:
            return None
        return snapshot_fn().get("gauges", {}).get("estimated_fp_rate")

    def _elements(self) -> int:
        """Clicks the detector has processed, read off its operation
        counter; only a detector without one (a sharded fleet) pays for
        a full telemetry snapshot."""
        counter = getattr(self.detector, "counter", None)
        if counter is not None:
            return counter.elements
        return self.detector.telemetry_snapshot().get("counters", {}).get(
            "elements", 0
        )

    # -- the control loop --------------------------------------------

    def observe(self) -> Optional[ResizeEvent]:
        """Take one sample; resize and return the event if one fired."""
        self.samples += 1
        self._since_resize += 1
        estimate = self.estimate()
        bound = self.bound()
        metrics = self._metrics
        if metrics is not None:
            metrics["memory_bits"].set(self.detector.memory_bits)
            elements = self._elements()
            if elements:
                metrics["bits_per_click"].set(
                    self.detector.memory_bits / elements
                )
        if estimate is None or bound is None:
            return None

        config = self.config
        if estimate > bound * config.breach_factor:
            self.breach_run += 1
            self.slack_run = 0
            self.breach_samples += 1
            if metrics is not None:
                metrics["breach_samples"].inc()
        elif estimate < bound * config.shrink_fraction:
            self.slack_run += 1
            self.breach_run = 0
        else:
            self.breach_run = 0
            self.slack_run = 0
        if metrics is not None:
            metrics["breach_run"].set(self.breach_run)

        if self._since_resize < config.cooldown:
            return None
        if self.breach_run >= config.breach_streak:
            return self._resize("grow", estimate, bound)
        if self.slack_run >= config.shrink_streak:
            return self._resize("shrink", estimate, bound)
        return None

    def _resize(
        self, direction: str, estimate: float, bound: float
    ) -> Optional[ResizeEvent]:
        config = self.config
        factor = (
            config.grow_factor if direction == "grow" else config.shrink_factor
        )
        old_bits = self.detector.memory_bits
        projected = old_bits * factor
        if direction == "grow" and projected > config.max_memory_bits:
            self._back_off()
            return None
        if direction == "shrink" and projected < config.min_memory_bits:
            self._back_off()
            return None
        old_spec = self.detector.spec()
        new_spec = scaled_spec(old_spec, factor)

        self.detector.quiesce()
        try:
            self.detector.migrate(new_spec)
        finally:
            self.detector.resume()

        event = ResizeEvent(
            direction=direction,
            sample=self.samples,
            estimated_fp=estimate,
            bound=bound,
            old_spec=old_spec,
            new_spec=new_spec,
            old_memory_bits=old_bits,
            new_memory_bits=self.detector.memory_bits,
        )
        self.journal.append(event)
        del self.journal[: -config.journal_limit]
        if self._metrics is not None:
            self._metrics["resizes"].labels(direction=direction).inc()
            self._metrics["memory_bits"].set(self.detector.memory_bits)
        self._back_off()
        return event

    def _back_off(self) -> None:
        self.breach_run = 0
        self.slack_run = 0
        self._since_resize = 0

    def telemetry_snapshot(self) -> dict:
        """Controller health in the standard snapshot shape."""
        return {
            "gauges": {
                "breach_run": float(self.breach_run),
                "slack_run": float(self.slack_run),
                "memory_bits": float(self.detector.memory_bits),
            },
            "counters": {
                "samples": self.samples,
                "breach_samples": self.breach_samples,
                "resizes": len(self.journal),
            },
        }

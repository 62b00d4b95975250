"""Detector instrumentation: health snapshots projected into metrics.

Every detector exposes a ``telemetry_snapshot()`` dict of three
sections — ``gauges`` (point-in-time values), ``counters`` (monotonic
totals), ``fills`` (per-lane / per-filter fill fractions) — and sharded
detectors add a ``shards`` section of per-shard gauge maps.
:class:`DetectorInstrument` projects that dict into a
:class:`~repro.telemetry.registry.MetricsRegistry` on each
:meth:`collect`:

* gauges   -> ``repro_detector_<key>{detector=...}``
* counters -> ``repro_detector_<key>_total{detector=...}`` (delta-
  incremented against the last observed totals, so registry counters
  stay continuous across detector swaps and checkpoint restores)
* fills    -> ``repro_detector_fill_ratio{detector=...,part=...}``
* shards   -> ``repro_shard_<key>{detector=...,shard=...}``

The instrument also monitors the paper's FP envelope: it publishes the
detector's a-priori bound (:func:`theoretical_fp_bound`: the
detector's own ``theoretical_fp_bound()``, Theorems 1-4 applied to the
configuration) next to the live
``estimated_fp_rate`` gauge, and counts the collections that found
the live estimate above ``bound * margin``.  A
:class:`~repro.telemetry.TelemetrySession` collects on every registry
read, so that counter counts reads that found a breach.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..core.contract import theoretical_fp_bound

__all__ = ["DetectorInstrument", "theoretical_fp_bound"]


class DetectorInstrument:
    """Publishes one detector's health snapshot into a registry.

    Parameters
    ----------
    detector:
        Anything with a ``telemetry_snapshot()`` method.
    registry:
        A :class:`~repro.telemetry.registry.MetricsRegistry` (or the
        null registry, making every recording call a no-op).
    name:
        The ``detector`` label value; defaults to the class name.
    fp_margin:
        Breach threshold multiplier: a breach is counted when the live
        estimated FP rate exceeds ``theoretical_fp_bound * fp_margin``.
    """

    def __init__(
        self,
        detector,
        registry,
        name: Optional[str] = None,
        fp_margin: float = 2.0,
    ) -> None:
        self.detector = detector
        self.registry = registry
        self.name = name or type(detector).__name__
        self.fp_margin = fp_margin
        self.fp_bound = theoretical_fp_bound(detector)

        self._gauges = registry.gauge(
            "repro_detector_gauge", "Detector health gauges", labels=("detector", "key")
        )
        self._counters = registry.counter(
            "repro_detector_events_total",
            "Detector monotonic event totals",
            labels=("detector", "key"),
        )
        self._fills = registry.gauge(
            "repro_detector_fill_ratio",
            "Fraction of filter positions set, per lane/filter",
            labels=("detector", "part"),
        )
        self._shard_gauges = registry.gauge(
            "repro_shard_gauge", "Per-shard health gauges", labels=("detector", "shard", "key")
        )
        self._fp_estimate = registry.gauge(
            "repro_detector_estimated_fp_rate",
            "Live FP-rate estimate from measured fill state",
            labels=("detector",),
        ).labels(detector=self.name)
        self._fp_bound_gauge = registry.gauge(
            "repro_detector_fp_bound",
            "A-priori theoretical FP bound for the configuration",
            labels=("detector",),
        ).labels(detector=self.name)
        self._breaches = registry.counter(
            "repro_fp_bound_breaches_total",
            "Collections (registry reads) where the live FP estimate "
            "exceeded bound * margin",
            labels=("detector",),
        ).labels(detector=self.name)
        if self.fp_bound is not None:
            self._fp_bound_gauge.set(self.fp_bound)

        # Baseline the counter totals at the detector's *current* state:
        # the registry's series keep running totals across a detector
        # swap (``DetectionPipeline.set_detector``), so replaying the
        # swapped-in detector's lifetime totals here would double-count.
        self._last_counters: Dict[str, Any] = dict(
            detector.telemetry_snapshot().get("counters", {})
        )

        attach = getattr(detector, "attach_telemetry", None)
        if attach is not None:
            attach(registry)

    def collect(self) -> None:
        """Read one snapshot from the detector and record it."""
        snapshot = self.detector.telemetry_snapshot()
        name = self.name

        for key, value in snapshot.get("gauges", {}).items():
            if key == "estimated_fp_rate":
                self._fp_estimate.set(value)
                if (
                    self.fp_bound is not None
                    and value > self.fp_bound * self.fp_margin
                ):
                    self._breaches.inc()
            else:
                self._gauges.labels(detector=name, key=key).set(value)

        last = self._last_counters
        for key, total in snapshot.get("counters", {}).items():
            delta = total - last.get(key, 0)
            if delta > 0:  # clamp: a shard restore can roll totals back
                self._counters.labels(detector=name, key=key).inc(delta)
            last[key] = total

        for part, fill in snapshot.get("fills", {}).items():
            self._fills.labels(detector=name, part=part).set(fill)

        for shard, gauges in snapshot.get("shards", {}).items():
            for key, value in gauges.items():
                self._shard_gauges.labels(detector=name, shard=shard, key=key).set(value)

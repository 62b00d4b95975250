"""Zero-dependency metrics registry: counters, gauges, histograms.

The registry is the substrate of the runtime telemetry layer.  Design
constraints, in order:

1. **Hot-path cost.**  A recording call must be a couple of attribute
   operations — no locks, no dict lookups, no string formatting.
   Metric objects are resolved once (at registration or via a cached
   ``labels(...)`` child) and then mutated with plain ``+=``, which is
   effectively atomic under the GIL for our single-writer pipelines
   ("lock-free-ish"); a lock guards only registration, never recording.
2. **Optionality.**  :class:`NullRegistry` satisfies the same API with
   shared no-op metric objects, so instrumented code pays one dead
   method call when telemetry is disabled (benchmarked ceiling in
   ``benchmarks/test_telemetry_overhead.py``).
3. **Exact reads.**  :meth:`MetricsRegistry.state_dict` returns every
   series' raw value keyed by series name, and survives a JSON round
   trip bit-identically, so a reader can compare values with ``==``.

Exposition: :meth:`MetricsRegistry.to_prometheus` emits the Prometheus
text format (``# HELP`` / ``# TYPE`` / samples, histograms as
cumulative ``_bucket`` series); :meth:`MetricsRegistry.snapshot`
returns a JSON-able dict for dashboards and the ``repro monitor`` CLI.
Values derived from live state (fills, FP estimates, quantiles) are
computed when read: every read first runs the collectors registered
with :meth:`MetricsRegistry.add_collector`.
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left
from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple

from ..errors import ConfigurationError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "NullRegistry",
    "DEFAULT_BUCKETS",
]

#: Default histogram buckets, tuned for sub-second latencies (seconds).
DEFAULT_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)

_METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def format_value(value: float) -> str:
    """Render a sample value the way the Prometheus text format expects."""
    if isinstance(value, bool):  # bool is an int subclass; be explicit
        value = int(value)
    if isinstance(value, int):
        return str(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(float(value))


class Counter:
    """Monotonically increasing count.  ``inc`` is the only mutator."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ConfigurationError(
                f"counters only go up; inc({amount}) is negative"
            )
        self.value += amount

    def _state(self) -> float:
        return self.value

    def _sample(self) -> float:
        return self.value


class Gauge:
    """A value that can go up and down (fill ratio, lag, queue depth)."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def dec(self, amount: float = 1) -> None:
        self.value -= amount

    def _state(self) -> float:
        return self.value

    def _sample(self) -> float:
        return self.value


class Histogram:
    """Fixed-bucket histogram with a bounded reservoir of raw values.

    Buckets follow the Prometheus model (upper bounds, cumulative at
    exposition time, implicit ``+Inf``).  The reservoir keeps the most
    recent ``reservoir_size`` observations in a ring so dashboards can
    show approximate quantiles without unbounded memory.
    """

    __slots__ = (
        "bounds", "bucket_counts", "count", "sum",
        "min", "max", "reservoir", "reservoir_size",
    )
    kind = "histogram"

    def __init__(
        self,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        reservoir_size: int = 256,
    ) -> None:
        bounds = tuple(float(bound) for bound in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ConfigurationError(
                f"histogram buckets must be non-empty and strictly "
                f"increasing, got {buckets!r}"
            )
        if reservoir_size < 1:
            raise ConfigurationError(
                f"reservoir_size must be >= 1, got {reservoir_size}"
            )
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # last = +Inf
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.reservoir: List[float] = []
        self.reservoir_size = reservoir_size

    def observe(self, value: float) -> None:
        value = float(value)
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        if len(self.reservoir) < self.reservoir_size:
            self.reservoir.append(value)
        else:
            self.reservoir[self.count % self.reservoir_size] = value
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate quantile from the reservoir (0 when empty)."""
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile must be in [0, 1], got {q}")
        if not self.reservoir:
            return 0.0
        ordered = sorted(self.reservoir)
        return ordered[min(len(ordered) - 1, int(q * len(ordered)))]

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, ending at ``+Inf``."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, count in zip(self.bounds, self.bucket_counts):
            running += count
            out.append((bound, running))
        out.append((math.inf, running + self.bucket_counts[-1]))
        return out

    def _state(self) -> Dict[str, Any]:
        return {
            "bucket_counts": list(self.bucket_counts),
            "count": self.count,
            "sum": self.sum,
            "min": None if math.isinf(self.min) else self.min,
            "max": None if math.isinf(self.max) else self.max,
            "reservoir": list(self.reservoir),
        }


_METRIC_CLASSES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """One named metric plus its labeled children.

    An unlabeled family proxies the recording methods straight to its
    single default child, so ``registry.counter("x").inc()`` works; a
    labeled family hands out cached children via :meth:`labels`.
    """

    __slots__ = (
        "name", "help", "kind", "label_names", "_children", "_metric_kwargs",
    )

    def __init__(
        self,
        name: str,
        help_text: str,
        kind: str,
        label_names: Tuple[str, ...],
        metric_kwargs: Dict[str, Any],
    ) -> None:
        self.name = name
        self.help = help_text
        self.kind = kind
        self.label_names = label_names
        self._children: Dict[Tuple[str, ...], Any] = {}
        self._metric_kwargs = metric_kwargs

    def labels(self, **labels: str):
        """The child metric for one label combination (created on demand)."""
        try:
            key = tuple(str(labels[name]) for name in self.label_names)
        except KeyError as error:
            raise ConfigurationError(
                f"metric {self.name!r} requires labels {self.label_names}, "
                f"got {tuple(labels)}"
            ) from error
        if len(labels) != len(self.label_names):
            raise ConfigurationError(
                f"metric {self.name!r} requires labels {self.label_names}, "
                f"got {tuple(labels)}"
            )
        child = self._children.get(key)
        if child is None:
            child = _METRIC_CLASSES[self.kind](**self._metric_kwargs)
            self._children[key] = child
        return child

    def _default(self):
        if self.label_names:
            raise ConfigurationError(
                f"metric {self.name!r} is labeled by {self.label_names}; "
                "call .labels(...) first"
            )
        return self.labels()

    # Unlabeled convenience proxies -----------------------------------
    def inc(self, amount: float = 1) -> None:
        self._default().inc(amount)

    def dec(self, amount: float = 1) -> None:
        self._default().dec(amount)

    def set(self, value: float) -> None:
        self._default().set(value)

    def observe(self, value: float) -> None:
        self._default().observe(value)

    def children(self) -> Iterable[Tuple[Tuple[str, ...], Any]]:
        return sorted(self._children.items())


def _series_key(name: str, label_names: Tuple[str, ...], label_values: Tuple[str, ...]) -> str:
    if not label_names:
        return name
    inner = ",".join(
        f"{label}={value}" for label, value in zip(label_names, label_values)
    )
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """Registry of metric families with snapshot/exposition/state APIs."""

    enabled = True

    def __init__(self) -> None:
        self._families: "Dict[str, MetricFamily]" = {}
        self._lock = threading.Lock()
        self._collectors: List[Callable[[], None]] = []

    # -- registration --------------------------------------------------

    def add_collector(self, collector: Callable[[], None]) -> None:
        """Run ``collector`` at the start of every read.

        :meth:`snapshot`, :meth:`to_prometheus` and :meth:`state_dict`
        call each collector first, so series computed from live state
        are exact at the moment they are read and cost nothing while
        nobody reads.
        """
        self._collectors.append(collector)

    def _collect(self) -> None:
        for collector in tuple(self._collectors):
            collector()

    def counter(self, name: str, help_text: str = "", labels: Sequence[str] = ()):
        return self._family(name, help_text, "counter", labels, {})

    def gauge(self, name: str, help_text: str = "", labels: Sequence[str] = ()):
        return self._family(name, help_text, "gauge", labels, {})

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        reservoir_size: int = 256,
    ):
        # Validate eagerly so a bad bucket layout fails at the
        # registration site, not at the first labeled child.
        Histogram(buckets=buckets, reservoir_size=reservoir_size)
        return self._family(
            name, help_text, "histogram", labels,
            {"buckets": tuple(buckets), "reservoir_size": reservoir_size},
        )

    def _family(
        self,
        name: str,
        help_text: str,
        kind: str,
        labels: Sequence[str],
        metric_kwargs: Dict[str, Any],
    ) -> MetricFamily:
        if not _METRIC_NAME.match(name):
            raise ConfigurationError(f"invalid metric name {name!r}")
        label_names = tuple(labels)
        for label in label_names:
            if not _LABEL_NAME.match(label):
                raise ConfigurationError(f"invalid label name {label!r}")
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if family.kind != kind or family.label_names != label_names:
                    raise ConfigurationError(
                        f"metric {name!r} already registered as {family.kind} "
                        f"with labels {family.label_names}"
                    )
                return family
            family = MetricFamily(
                name, help_text, kind, label_names, metric_kwargs
            )
            self._families[name] = family
        # Unlabeled families materialize their single series eagerly (like
        # the Prometheus clients): the series exists at 0 from registration.
        if not label_names:
            family._default()
        return family

    # -- snapshot ------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """JSON-able view of every live series (dashboard food)."""
        self._collect()
        out: Dict[str, Any] = {"counters": [], "gauges": [], "histograms": []}
        for family in self._families.values():
            for key, metric in family.children():
                labels = dict(zip(family.label_names, key))
                if family.kind == "histogram":
                    out["histograms"].append({
                        "name": family.name,
                        "labels": labels,
                        "count": metric.count,
                        "sum": metric.sum,
                        "mean": metric.mean,
                        "min": None if math.isinf(metric.min) else metric.min,
                        "max": None if math.isinf(metric.max) else metric.max,
                        "p50": metric.quantile(0.5),
                        "p99": metric.quantile(0.99),
                    })
                else:
                    out[family.kind + "s"].append({
                        "name": family.name,
                        "labels": labels,
                        "value": metric._sample(),
                    })
        return out

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        self._collect()
        lines: List[str] = []
        for family in self._families.values():
            if not family._children:
                continue
            if family.help:
                escaped = family.help.replace("\\", "\\\\").replace("\n", "\\n")
                lines.append(f"# HELP {family.name} {escaped}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for key, metric in family.children():
                labelstr = _prom_labels(family.label_names, key)
                if family.kind == "histogram":
                    for bound, cumulative in metric.cumulative_buckets():
                        le = _prom_labels(
                            family.label_names + ("le",),
                            key + (format_value(bound),),
                        )
                        lines.append(f"{family.name}_bucket{le} {cumulative}")
                    lines.append(
                        f"{family.name}_sum{labelstr} {format_value(metric.sum)}"
                    )
                    lines.append(
                        f"{family.name}_count{labelstr} {metric.count}"
                    )
                else:
                    lines.append(
                        f"{family.name}{labelstr} "
                        f"{format_value(metric._sample())}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")

    # -- exact state --------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        """Every live series' state, keyed by its series name.

        Values are the raw counts and floats, not formatted samples, and
        round-trip through JSON bit-identically (Python float repr is
        exact).
        """
        self._collect()
        state: Dict[str, Any] = {"counters": {}, "gauges": {}, "histograms": {}}
        for family in self._families.values():
            for key, metric in family.children():
                series = _series_key(family.name, family.label_names, key)
                state[family.kind + "s"][series] = metric._state()
        return state


def _prom_labels(label_names: Tuple[str, ...], values: Tuple[str, ...]) -> str:
    if not label_names:
        return ""
    inner = ",".join(
        '{}="{}"'.format(
            label, value.replace("\\", "\\\\").replace('"', '\\"')
        )
        for label, value in zip(label_names, values)
    )
    return "{" + inner + "}"


class _NullMetric:
    """Shared do-nothing metric: every recording call is a single no-op."""

    __slots__ = ()
    kind = "null"

    def labels(self, **labels: str) -> "_NullMetric":
        return self

    def inc(self, amount: float = 1) -> None:
        pass

    def dec(self, amount: float = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


NULL_METRIC = _NullMetric()


class NullRegistry(MetricsRegistry):
    """Telemetry disabled: same API, shared no-op metrics, empty output."""

    enabled = False

    def counter(self, name: str, help_text: str = "", labels: Sequence[str] = ()):
        return NULL_METRIC

    def gauge(self, name: str, help_text: str = "", labels: Sequence[str] = ()):
        return NULL_METRIC

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        reservoir_size: int = 256,
    ):
        return NULL_METRIC

    def snapshot(self) -> Dict[str, Any]:
        return {"counters": [], "gauges": [], "histograms": []}

    def to_prometheus(self) -> str:
        return ""

    def state_dict(self) -> Dict[str, Any]:
        return {}

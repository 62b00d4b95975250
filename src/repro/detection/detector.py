"""Unified construction of duplicate-click detectors.

One factory, every algorithm in the library, with auto-sizing: describe
the detector you need as a :class:`DetectorSpec` — window shape plus
either explicit filter parameters or a memory budget / FP target — and
:func:`create_detector` returns a ready detector satisfying the
:class:`~repro.detection.api.Detector` contract.

The spec covers all seven runtime variants from one surface::

    create_detector(DetectorSpec("gbf", WindowSpec("jumping", 4096, 8),
                                 target_fp=1e-3))
    create_detector(DetectorSpec("tbf-time", WindowSpec("sliding", 4096),
                                 duration=60.0, resolution=64,
                                 memory_bits=1 << 18))
    create_detector(DetectorSpec("tbf", WindowSpec("sliding", 65536),
                                 target_fp=1e-3, shards=4))
    create_detector(DetectorSpec("tbf", WindowSpec("sliding", 65536),
                                 target_fp=1e-3, shards=4,
                                 engine="parallel"))

For time-based algorithms (``gbf-time`` / ``tbf-time``) the window spec
sizes the sketch — ``window.size`` is the expected number of arrivals
per window — while ``duration`` sets the wall-clock window length the
detector actually enforces.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from ..analysis.sizing import (
    plan_gbf_for_target,
    plan_gbf_from_memory,
    plan_tbf_for_target,
    plan_tbf_from_memory,
)
from ..baselines import (
    ExactDetector,
    LandmarkBloomDetector,
    MetwallyCBFDetector,
    NaiveSubwindowBloomDetector,
    StableBloomDetector,
)
from ..core import (
    GBFDetector,
    TBFDetector,
    TBFJumpingDetector,
    TimeBasedGBFDetector,
    TimeBasedTBFDetector,
)
from ..errors import ConfigurationError

ALGORITHMS = (
    "gbf",
    "gbf-time",
    "tbf",
    "tbf-time",
    "tbf-jumping",
    "apbf",
    "time-limited-bf",
    "exact",
    "landmark-bloom",
    "naive-bloom",
    "metwally-cbf",
    "stable-bloom",
)

#: Algorithms driven by an explicit clock (``process_at`` surface).
TIME_BASED_ALGORITHMS = ("gbf-time", "tbf-time", "time-limited-bf")

#: Algorithms that can be hash-partitioned across shards / workers.
SHARDABLE_ALGORITHMS = ("tbf", "tbf-time", "apbf", "time-limited-bf")

ENGINES = ("inline", "parallel")


@dataclass(frozen=True)
class GBFParams:
    """Exact GBF filter parameters (``gbf`` / ``gbf-time``)."""

    bits_per_filter: int
    num_hashes: int


@dataclass(frozen=True)
class TBFParams:
    """Exact TBF parameters (``tbf`` / ``tbf-time`` / ``tbf-jumping``).

    ``num_entries`` is the *total* across shards when the spec shards.
    """

    num_entries: int
    num_hashes: int
    cleanup_slack: Optional[int] = None


@dataclass(frozen=True)
class APBFParams:
    """Exact Age-Partitioned BF parameters (``apbf``).

    ``slice_bits`` and ``generation_size`` are totals across shards
    when the spec shards.
    """

    num_required: int
    num_aged: int
    slice_bits: int
    generation_size: int


@dataclass(frozen=True)
class TLBFParams:
    """Exact time-limited-BF parameters (``time-limited-bf``).

    ``slice_bits`` is the total across shards when the spec shards;
    the aging resolution rides on ``DetectorSpec.resolution`` (slices
    retired per ``duration``).
    """

    num_required: int
    num_aged: int
    slice_bits: int


#: Which exact-parameter dataclass each algorithm accepts.
PARAMS_TYPES = {
    "gbf": GBFParams,
    "gbf-time": GBFParams,
    "tbf": TBFParams,
    "tbf-time": TBFParams,
    "tbf-jumping": TBFParams,
    "apbf": APBFParams,
    "time-limited-bf": TLBFParams,
}


@dataclass(frozen=True)
class WindowSpec:
    """A decaying-window requirement.

    ``kind`` is ``"sliding"``, ``"jumping"`` or ``"landmark"``;
    ``num_subwindows`` applies to jumping windows only.
    """

    kind: str
    size: int
    num_subwindows: int = 1

    def __post_init__(self) -> None:
        if self.kind not in ("sliding", "jumping", "landmark"):
            raise ConfigurationError(f"unknown window kind {self.kind!r}")
        if self.size < 1:
            raise ConfigurationError(f"window size must be >= 1, got {self.size}")
        if self.kind == "jumping":
            if self.num_subwindows < 1:
                raise ConfigurationError(
                    f"num_subwindows must be >= 1, got {self.num_subwindows}"
                )
            if self.size % self.num_subwindows != 0:
                raise ConfigurationError(
                    f"window size {self.size} not divisible by "
                    f"{self.num_subwindows} sub-windows"
                )


@dataclass(frozen=True)
class DetectorSpec:
    """Everything :func:`create_detector` needs, in one value.

    Parameters
    ----------
    algorithm:
        One of :data:`ALGORITHMS`.
    window:
        The :class:`WindowSpec`.  For time-based algorithms this sizes
        the sketch (``window.size`` = expected arrivals per window);
        ``duration`` sets the enforced wall-clock length.
    memory_bits / target_fp:
        Exactly one sizes the sketch (``exact`` needs neither).
    num_hashes:
        Overrides the auto-chosen optimum ``k``.
    seed:
        Hash-family seed; shards derive per-shard seeds from it.
    duration:
        Wall-clock window length; required for ``gbf-time``/``tbf-time``.
    resolution:
        Time units per window (``tbf-time``) or cleaning units per
        sub-window (``gbf-time``).
    shards:
        Hash-partition the detector across this many shards (> 1 needs
        a :data:`SHARDABLE_ALGORITHMS` member); memory splits evenly.
    engine:
        ``"inline"`` (default) runs shards in-process; ``"parallel"``
        runs one worker process per shard over shared-memory rings
        (:mod:`repro.parallel`).
    params:
        Exact filter parameters (the matching :data:`PARAMS_TYPES`
        dataclass), bypassing auto-sizing entirely.  Mutually exclusive
        with ``memory_bits`` / ``target_fp`` / ``num_hashes``; the
        window is then descriptive rather than sizing.  This is what
        every detector's ``spec()`` method emits, so
        ``create_detector(detector.spec())`` rebuilds the identical
        configuration — the resize primitive of
        :mod:`repro.adaptive.controller`.
    """

    algorithm: str
    window: Optional[WindowSpec] = None
    memory_bits: Optional[int] = None
    target_fp: Optional[float] = None
    num_hashes: Optional[int] = None
    seed: int = 0
    duration: Optional[float] = None
    resolution: int = 16
    shards: int = 1
    engine: str = "inline"
    params: Optional[object] = None

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ConfigurationError(
                f"unknown algorithm {self.algorithm!r}; choose from {ALGORITHMS}"
            )
        if self.window is None:
            raise ConfigurationError(
                f"{self.algorithm} needs a WindowSpec (for time-based "
                "algorithms it sizes the sketch)"
            )
        if self.engine not in ENGINES:
            raise ConfigurationError(
                f"unknown engine {self.engine!r}; choose from {ENGINES}"
            )
        if self.shards < 1:
            raise ConfigurationError(f"shards must be >= 1, got {self.shards}")
        if self.resolution < 1:
            raise ConfigurationError(
                f"resolution must be >= 1, got {self.resolution}"
            )
        sharded = self.shards > 1 or self.engine == "parallel"
        if sharded and self.algorithm not in SHARDABLE_ALGORITHMS:
            raise ConfigurationError(
                f"{self.algorithm} cannot shard; sharding supports "
                f"{SHARDABLE_ALGORITHMS}"
            )
        if self.algorithm in TIME_BASED_ALGORITHMS:
            if self.duration is None or self.duration <= 0:
                raise ConfigurationError(
                    f"{self.algorithm} needs duration > 0 (wall-clock window "
                    f"length), got {self.duration}"
                )
        elif self.duration is not None:
            raise ConfigurationError(
                f"{self.algorithm} is count-based; duration does not apply"
            )
        if self.params is not None:
            expected = PARAMS_TYPES.get(self.algorithm)
            if expected is None:
                raise ConfigurationError(
                    f"{self.algorithm} does not take exact params"
                )
            if type(self.params) is not expected:
                raise ConfigurationError(
                    f"{self.algorithm} params must be {expected.__name__}, "
                    f"got {type(self.params).__name__}"
                )
            if self.memory_bits is not None or self.target_fp is not None:
                raise ConfigurationError(
                    "params carry exact sizes; memory_bits / target_fp "
                    "do not apply"
                )
            if self.num_hashes is not None:
                raise ConfigurationError(
                    "params carry the hash count; num_hashes does not apply"
                )
        elif self.algorithm != "exact":
            if self.memory_bits is None and self.target_fp is None:
                raise ConfigurationError(
                    f"{self.algorithm} needs memory_bits, target_fp, or "
                    "params for sizing"
                )
            if self.memory_bits is not None and self.target_fp is not None:
                raise ConfigurationError(
                    "pass memory_bits or target_fp, not both"
                )


def create_detector(spec: DetectorSpec, *extra, **options):
    """Build the detector a :class:`DetectorSpec` describes.

    Every setting lives in the spec; anything else is refused.
    """
    if not isinstance(spec, DetectorSpec) or extra or options:
        raise ConfigurationError(
            "create_detector takes one DetectorSpec and nothing else; put "
            "every setting in the spec"
        )
    return _build(spec)


def _build(spec: DetectorSpec):
    if spec.shards > 1 or spec.engine == "parallel":
        return _sharded(spec)
    window = spec.window
    algorithm = spec.algorithm
    if algorithm == "exact":
        return _create_exact(window)

    if algorithm == "gbf":
        _require(window, "jumping", algorithm)
        plan = _gbf_plan(spec)
        return GBFDetector(
            window.size,
            window.num_subwindows,
            plan.bits_per_filter,
            spec.num_hashes or plan.num_hashes,
            seed=spec.seed,
        )

    if algorithm == "gbf-time":
        _require(window, "jumping", algorithm)
        plan = _gbf_plan(spec)
        return TimeBasedGBFDetector(
            spec.duration,
            window.num_subwindows,
            plan.bits_per_filter,
            spec.num_hashes or plan.num_hashes,
            units_per_subwindow=spec.resolution,
            seed=spec.seed,
        )

    if algorithm == "tbf":
        _require(window, "sliding", algorithm)
        plan = _tbf_plan(spec)
        k = spec.num_hashes or plan.num_hashes
        return TBFDetector(
            window.size,
            plan.num_entries,
            k,
            cleanup_slack=plan.cleanup_slack,
            seed=spec.seed,
        )

    if algorithm == "tbf-time":
        _require(window, "sliding", algorithm)
        plan = _tbf_plan(spec)
        k = spec.num_hashes or plan.num_hashes
        return TimeBasedTBFDetector(
            spec.duration,
            spec.resolution,
            plan.num_entries,
            k,
            # Sizing plans carry count-window slack, which does not
            # apply to the time-based cleaner; only exact params pin it.
            cleanup_slack=(
                spec.params.cleanup_slack if spec.params is not None else None
            ),
            seed=spec.seed,
        )

    if algorithm == "apbf":
        _require(window, "sliding", algorithm)
        plan = _apbf_plan(spec)
        from ..adaptive.filters import AgePartitionedBFDetector

        return AgePartitionedBFDetector(
            plan.num_required,
            plan.num_aged,
            plan.slice_bits,
            plan.generation_size,
            seed=spec.seed,
        )

    if algorithm == "time-limited-bf":
        _require(window, "sliding", algorithm)
        plan = _tlbf_plan(spec)
        from ..adaptive.filters import TimeLimitedBFDetector

        return TimeLimitedBFDetector(
            spec.duration,
            plan.num_required,
            plan.num_aged,
            plan.slice_bits,
            seed=spec.seed,
        )

    if algorithm == "tbf-jumping":
        _require(window, "jumping", algorithm)
        if spec.params is not None:
            return TBFJumpingDetector(
                window.size,
                window.num_subwindows,
                spec.params.num_entries,
                spec.params.num_hashes,
                cleanup_slack=spec.params.cleanup_slack,
                seed=spec.seed,
            )
        # Size like a sliding-window TBF but with sub-window timestamps
        # (entries need only ceil(log2(2Q + 1)) bits).
        if spec.memory_bits is not None:
            import math

            entry_bits = max(
                1, math.ceil(math.log2(2 * window.num_subwindows + 2))
            )
            num_entries = max(1, spec.memory_bits // entry_bits)
        else:
            num_entries = plan_tbf_for_target(window.size, spec.target_fp).num_entries
        from ..bloom.params import optimal_num_hashes

        k = spec.num_hashes or optimal_num_hashes(num_entries, window.size)
        return TBFJumpingDetector(
            window.size, window.num_subwindows, num_entries, k, seed=spec.seed
        )

    if algorithm == "landmark-bloom":
        _require(window, "landmark", algorithm)
        num_bits, k = _plain_bloom_size(window.size, spec.memory_bits, spec.target_fp)
        return LandmarkBloomDetector(
            window.size, num_bits, spec.num_hashes or k, seed=spec.seed
        )

    if algorithm == "naive-bloom":
        _require(window, "jumping", algorithm)
        plan = _gbf_plan(spec)
        return NaiveSubwindowBloomDetector(
            window.size,
            window.num_subwindows,
            plan.bits_per_filter,
            spec.num_hashes or plan.num_hashes,
            seed=spec.seed,
        )

    if algorithm == "metwally-cbf":
        _require(window, "jumping", algorithm)
        counter_bits = 8
        if spec.memory_bits is not None:
            num_counters = max(
                1, spec.memory_bits // ((window.num_subwindows + 1) * counter_bits)
            )
        else:
            # Main filter carries the full window load; size it for that.
            from ..bloom.params import bits_for_target_rate

            num_counters = bits_for_target_rate(window.size, spec.target_fp)
        from ..bloom.params import optimal_num_hashes

        k = spec.num_hashes or optimal_num_hashes(num_counters, window.size)
        return MetwallyCBFDetector(
            window.size,
            window.num_subwindows,
            num_counters,
            k,
            counter_bits=counter_bits,
            seed=spec.seed,
        )

    # stable-bloom
    if window.kind != "sliding":
        raise ConfigurationError("stable-bloom approximates sliding windows only")
    cell_bits = 3
    if spec.memory_bits is not None:
        num_cells = max(1, spec.memory_bits // cell_bits)
    else:
        from ..bloom.params import bits_for_target_rate

        num_cells = bits_for_target_rate(window.size, spec.target_fp)
    return StableBloomDetector.with_tuned_decay(
        window.size, num_cells, spec.num_hashes or 4,
        cell_bits=cell_bits, seed=spec.seed,
    )


def _gbf_plan(spec: DetectorSpec):
    if spec.params is not None:
        return spec.params
    window = spec.window
    if spec.memory_bits is not None:
        return plan_gbf_from_memory(
            window.size, window.num_subwindows, spec.memory_bits, spec.num_hashes
        )
    return plan_gbf_for_target(window.size, window.num_subwindows, spec.target_fp)


def _tbf_plan(spec: DetectorSpec):
    if spec.params is not None:
        return spec.params
    if spec.memory_bits is not None:
        return plan_tbf_from_memory(spec.window.size, spec.memory_bits, spec.num_hashes)
    return plan_tbf_for_target(spec.window.size, spec.target_fp)


def _apbf_plan(spec: DetectorSpec):
    if spec.params is not None:
        return spec.params
    from ..adaptive.filters import plan_apbf_for_target, plan_apbf_from_memory

    if spec.memory_bits is not None:
        # num_hashes plays the run-length role (k young slices).
        return plan_apbf_from_memory(
            spec.window.size, spec.memory_bits, spec.num_hashes
        )
    return plan_apbf_for_target(spec.window.size, spec.target_fp)


def _tlbf_plan(spec: DetectorSpec):
    if spec.params is not None:
        return spec.params
    from ..adaptive.filters import plan_tlbf_for_target, plan_tlbf_from_memory

    if spec.memory_bits is not None:
        return plan_tlbf_from_memory(
            spec.window.size, spec.resolution, spec.memory_bits, spec.num_hashes
        )
    return plan_tlbf_for_target(spec.window.size, spec.resolution, spec.target_fp)


def _sharded(spec: DetectorSpec):
    """Hash-partition ``spec`` into ``spec.shards`` detectors.

    Every shard is built from one exact-params spec seeded
    ``spec.seed + shard``.  Memory splits evenly — TBF entries, slice
    bits and the APBF generation size — and so does a count window;
    time-based shards keep the full duration.  With
    ``engine="parallel"`` each shard runs in its own worker process.
    """
    n = spec.shards
    if spec.algorithm in ("tbf", "tbf-time"):
        plan = _tbf_plan(spec)
        params = TBFParams(
            max(1, plan.num_entries // n), spec.num_hashes or plan.num_hashes
        )
    elif spec.algorithm == "apbf":
        plan = _apbf_plan(spec)
        params = APBFParams(
            plan.num_required,
            plan.num_aged,
            max(1, plan.slice_bits // n),
            max(1, plan.generation_size // n),
        )
    else:
        plan = _tlbf_plan(spec)
        params = TLBFParams(
            plan.num_required, plan.num_aged, max(1, plan.slice_bits // n)
        )
    window = spec.window
    local = replace(
        spec,
        window=WindowSpec(window.kind, max(1, window.size // n)),
        memory_bits=None,
        target_fp=None,
        num_hashes=None,
        shards=1,
        engine="inline",
        params=params,
    )
    from .sharded import ShardedDetector

    base = ShardedDetector(
        [_build(replace(local, seed=spec.seed + shard)) for shard in range(n)]
    )
    if spec.engine == "parallel":
        from ..parallel import ParallelShardedDetector

        return ParallelShardedDetector(base)
    return base


def _create_exact(window: WindowSpec):
    if window.kind == "sliding":
        return ExactDetector.sliding(window.size)
    if window.kind == "jumping":
        return ExactDetector.jumping(window.size, window.num_subwindows)
    return ExactDetector.landmark(window.size)


def _require(window: WindowSpec, kind: str, algorithm: str) -> None:
    if window.kind != kind:
        raise ConfigurationError(
            f"{algorithm} runs over {kind} windows, got {window.kind!r}"
        )


def _plain_bloom_size(
    window_size: int, memory_bits: Optional[int], target_fp: Optional[float]
):
    from ..bloom.params import bits_for_target_rate, optimal_num_hashes

    if memory_bits is not None:
        num_bits = memory_bits
    else:
        num_bits = bits_for_target_rate(window_size, target_fp)
    return num_bits, optimal_num_hashes(num_bits, window_size)

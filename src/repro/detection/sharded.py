"""Sharded duplicate detection: scaling one pass across workers.

An ICDCS-scale deployment processes clicks on many workers.  Duplicate
detection shards naturally: route every click by a hash of its
*identifier*, so all repeats of one identifier land on the same worker
and that worker's local sketch decides.  No cross-worker communication
is needed on the hot path — the defining advantage of
identifier-partitioned dedup.

Window semantics under sharding:

* **Time-based windows shard exactly.**  Every worker evaluates "did an
  identical click arrive in the last T seconds" against the global
  clock carried by the click, so the sharded verdicts equal a single
  detector's (tested against the exact labeler).
* **Count-based windows shard approximately.**  "The last N clicks" is
  a global notion, but a worker only counts its own arrivals, so each
  worker runs a window of ``N / S``.  With a balanced hash the local
  window expires identifiers after ~N global arrivals, with deviation
  proportional to the shard-load imbalance (measured by
  :meth:`ShardedDetector.load_imbalance`).

Failover semantics: a worker dies and its sketch is gone.  While the
shard rebuilds from its checkpoint (:meth:`checkpoint_shard` /
:meth:`restore_shard`) the operator picks an explicit policy for the
clicks routed to it — **fail-open** accepts everything (duplicates bill;
the attacker's window) or **fail-closed** rejects everything (no fraud
billed; legitimate revenue forfeited).  Neither is free, which is why
the choice is per-shard and the degraded window is surfaced in stats
rather than decided silently.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, List, Optional, Union

import numpy as np

from ..core.checkpoint import (
    CheckpointError,
    load_detector,
    pack_frame,
    register_checkpoint_kind,
    register_retired_kind,
    save_detector,
    unpack_frame,
)
from ..core.contract import (
    batch_arrays,
    require_query,
    require_timestamps,
    worst_fp_bound,
)
from ..errors import ConfigurationError
from ..hashing.family import _splitmix64, splitmix64_batch

_MASK64 = (1 << 64) - 1


def default_router(num_shards: int) -> Callable[[int], int]:
    """Stable identifier-to-shard router (splitmix64 of the identifier).

    Deliberately independent of every detector hash family in this
    library (different mixing constants path), so routing does not bias
    the per-shard filters.
    """

    def route(identifier: int) -> int:
        return _splitmix64((identifier ^ 0xA5A5A5A5A5A5A5A5) & _MASK64) % num_shards

    return route


def route_batch(
    identifiers: "np.ndarray",
    num_shards: int,
    router: Optional[Callable[[int], int]] = None,
) -> "np.ndarray":
    """Shard index per identifier, vectorized for the default router.

    With ``router=None`` the numpy path replays :func:`default_router`
    exactly (:func:`~repro.hashing.family.splitmix64_batch` is
    bit-identical to the scalar finalizer); custom routers fall back to
    a Python loop.  Shared by the in-process sharded detector and the
    multi-process router in :mod:`repro.parallel`.
    """
    if router is None:
        mixed = splitmix64_batch(identifiers ^ np.uint64(0xA5A5A5A5A5A5A5A5))
        return (mixed % np.uint64(num_shards)).astype(np.int64)
    return np.fromiter(
        (router(int(identifier)) for identifier in identifiers),
        dtype=np.int64,
        count=identifiers.shape[0],
    )


def _route_batch(detector, identifiers: "np.ndarray") -> "np.ndarray":
    return route_batch(
        identifiers,
        len(detector.shards),
        None if detector._router_is_default else detector.router,
    )


def shard_groups(shard_of: "np.ndarray"):
    """Yield ``(shard, positions)`` per shard with one stable argsort.

    ``positions`` are the original batch offsets in arrival order (the
    stable sort preserves it), so each shard sees exactly the
    subsequence the scalar loop would have fed it.
    """
    n = shard_of.shape[0]
    order = np.argsort(shard_of, kind="stable")
    sorted_shards = shard_of[order]
    boundaries = np.nonzero(sorted_shards[1:] != sorted_shards[:-1])[0] + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [n]))
    for group_start, group_end in zip(starts, ends):
        yield int(sorted_shards[group_start]), order[group_start:group_end]


class FailoverPolicy(enum.Enum):
    """What a degraded shard answers while its sketch is rebuilding.

    ``FAIL_OPEN`` accepts every click (verdict: not a duplicate) — no
    legitimate revenue is lost, but every duplicate routed to the shard
    bills.  ``FAIL_CLOSED`` rejects every click (verdict: duplicate) —
    no fraud bills, but every legitimate click's revenue is forfeited.
    """

    FAIL_OPEN = "fail-open"
    FAIL_CLOSED = "fail-closed"


class _ShardFailover:
    """Degraded-shard bookkeeping of :class:`ShardedDetector`."""

    shards: List

    def _init_failover(self) -> None:
        #: shard index -> {"policy": FailoverPolicy, "clicks": int}
        self._degraded: Dict[int, Dict[str, object]] = {}
        self._failover_counter = None
        self._restore_counter = None

    def attach_telemetry(self, registry) -> None:
        """Route failover transitions through a metrics registry.

        Registers ``repro_shard_failovers_total{policy}`` and
        ``repro_shard_restores_total``.  Without a registry attached
        (the default) failover stays untouched — zero overhead.
        """
        self._failover_counter = registry.counter(
            "repro_shard_failovers_total",
            "Shards declared lost, by failover policy",
            labels=("policy",),
        )
        self._restore_counter = registry.counter(
            "repro_shard_restores_total",
            "Degraded shards rebuilt from a checkpoint",
        )

    def _check_shard_index(self, shard: int) -> None:
        if not 0 <= shard < len(self.shards):
            raise ConfigurationError(
                f"shard index {shard} out of range [0, {len(self.shards)})"
            )

    def checkpoint_shard(self, shard: int) -> bytes:
        """Snapshot one shard's sketch (see :func:`repro.core.save_detector`)."""
        self._check_shard_index(shard)
        return save_detector(self.shards[shard])

    def checkpoint_state(self) -> bytes:
        """Serialized fleet state (invert with :func:`repro.core.load_detector`).

        Operational surface beside the
        :class:`~repro.detection.api.Detector` contract; the blob holds
        every shard's frame plus the degraded-shard map.
        """
        return save_detector(self)

    def fail_shard(
        self, shard: int, policy: Union[FailoverPolicy, str] = FailoverPolicy.FAIL_CLOSED
    ) -> None:
        """Declare a shard's sketch lost; answer with ``policy`` until restored."""
        self._check_shard_index(shard)
        policy = FailoverPolicy(policy)
        self._degraded[shard] = {"policy": policy, "clicks": 0}
        if self._failover_counter is not None:
            self._failover_counter.labels(policy=policy.value).inc()

    def restore_shard(self, shard: int, blob: bytes) -> int:
        """Rebuild a shard from a checkpoint blob and end its degraded window.

        Returns the number of clicks answered by policy while degraded.
        The restored detector must be the same type as the shard it
        replaces — a mismatched sketch must never take over a route.
        """
        self._check_shard_index(shard)
        restored = load_detector(blob)
        current = self.shards[shard]
        if type(restored) is not type(current):
            raise CheckpointError(
                f"checkpoint holds a {type(restored).__name__}, shard {shard} "
                f"runs a {type(current).__name__}"
            )
        self.shards[shard] = restored
        entry = self._degraded.pop(shard, None)
        if self._restore_counter is not None:
            self._restore_counter.inc()
        return int(entry["clicks"]) if entry is not None else 0

    def degraded_shards(self) -> Dict[int, Dict[str, object]]:
        """Currently degraded shards: ``{shard: {"policy", "clicks"}}``."""
        return {
            shard: {"policy": entry["policy"].value, "clicks": entry["clicks"]}
            for shard, entry in self._degraded.items()
        }

    @property
    def is_degraded(self) -> bool:
        return bool(self._degraded)

    def _degraded_verdict(self, shard: int, count: bool = True) -> Optional[bool]:
        entry = self._degraded.get(shard)
        if entry is None:
            return None
        if count:
            entry["clicks"] = int(entry["clicks"]) + 1
        return entry["policy"] is FailoverPolicy.FAIL_CLOSED

    # -- telemetry ----------------------------------------------------

    def _shard_health(self) -> Dict[str, Dict[str, float]]:
        """Per-shard gauge map for the telemetry instrument."""
        health: Dict[str, Dict[str, float]] = {}
        for index, shard in enumerate(self.shards):
            snapshot = getattr(shard, "telemetry_snapshot", None)
            gauges = dict(snapshot().get("gauges", {})) if snapshot else {}
            gauges["degraded"] = 1.0 if index in self._degraded else 0.0
            health[str(index)] = gauges
        return health

    def _aggregate_telemetry(self) -> Dict[str, object]:
        """Fleet-wide rollup: totals plus the worst shard's FP estimate."""
        elements = 0
        duplicates = 0
        worst_fp = 0.0
        for shard in self.shards:
            elements += shard.counter.elements
            duplicates += getattr(shard, "duplicates", 0)
            estimate = getattr(shard, "estimated_fp_rate", None)
            if estimate is not None:
                worst_fp = max(worst_fp, estimate())
        return {
            "gauges": {
                "estimated_fp_rate": worst_fp,
                "observed_duplicate_rate": duplicates / elements if elements else 0.0,
                "degraded_shards": len(self._degraded),
            },
            "counters": {"elements": elements, "duplicates": duplicates},
            "shards": self._shard_health(),
        }

    def theoretical_fp_bound(self) -> Optional[float]:
        """Worst (maximum) a-priori FP bound across the shards."""
        return worst_fp_bound(self.shards)

    def estimated_fp_rate(self) -> float:
        """Worst (maximum) live FP estimate across healthy shards."""
        worst = 0.0
        for shard in self.shards:
            estimate = getattr(shard, "estimated_fp_rate", None)
            if estimate is not None:
                worst = max(worst, estimate())
        return worst

    # -- checkpoint plumbing ------------------------------------------

    def _failover_header(self) -> Dict[str, Dict[str, object]]:
        return {
            str(shard): {"policy": entry["policy"].value, "clicks": entry["clicks"]}
            for shard, entry in self._degraded.items()
        }

    def _restore_failover(self, spec: Dict[str, Dict[str, object]]) -> None:
        self._degraded = {
            int(shard): {
                "policy": FailoverPolicy(entry["policy"]),
                "clicks": int(entry["clicks"]),
            }
            for shard, entry in spec.items()
        }


class ShardedDetector(_ShardFailover):
    """Hash-partitioned duplicate detector over either time model.

    Parameters
    ----------
    shards:
        One detector per worker, all count-based or all time-based
        (``timed`` follows them).  Count-based shards each run a window
        of ``global_window / len(shards)``; time-based shards run the
        full duration.  ``create_detector(DetectorSpec(..., shards=N))``
        builds the common configurations.
    router:
        Identifier -> shard index; defaults to :func:`default_router`.
    """

    def __init__(
        self,
        shards: List,
        router: Optional[Callable[[int], int]] = None,
    ) -> None:
        if not shards:
            raise ConfigurationError("need at least one shard")
        self.shards = list(shards)
        self.timed = shards_time_model(self.shards)
        self._router_is_default = router is None
        self.router = router or default_router(len(shards))
        self._per_shard_arrivals = [0] * len(shards)
        self._init_failover()

    def observe(self, identifier: int, timestamp: Optional[float] = None) -> bool:
        if self.timed:
            require_timestamps(self, timestamp, "observe")
        shard = self.router(identifier)
        self._per_shard_arrivals[shard] += 1
        verdict = self._degraded_verdict(shard)
        if verdict is not None:
            return verdict
        return self.shards[shard].observe(identifier, timestamp)

    def observe_batch(self, identifiers, timestamps=None) -> "np.ndarray":
        """Observe a batch, partitioned across shards with one argsort.

        Verdicts, per-shard state, arrival counts, and degraded-click
        tallies are identical to an :meth:`observe` loop: every shard
        receives its clicks in arrival order, and degraded shards
        answer by policy without touching their (lost) sketch.  For
        time-based shards a regressing timestamp raises from the owning
        shard; unlike the scalar loop, sibling shards may have advanced
        past it by then — keep streams time-ordered, as the window
        semantics require.
        """
        identifiers, timestamps = batch_arrays(self, identifiers, timestamps)
        out = np.empty(identifiers.shape[0], dtype=bool)
        if identifiers.shape[0] == 0:
            return out
        for shard, positions in shard_groups(_route_batch(self, identifiers)):
            count = int(positions.shape[0])
            self._per_shard_arrivals[shard] += count
            entry = self._degraded.get(shard)
            if entry is not None:
                entry["clicks"] = int(entry["clicks"]) + count
                out[positions] = entry["policy"] is FailoverPolicy.FAIL_CLOSED
                continue
            out[positions] = self.shards[shard].observe_batch(
                identifiers[positions],
                None if timestamps is None else timestamps[positions],
            )
        return out

    def query(self, identifier: int) -> bool:
        """Side-effect-free duplicate check on the owning shard
        (count-based fleets; a time-based one answers :meth:`query_at`)."""
        require_query(self, timed=False)
        return self._query(identifier, None)

    def query_at(self, identifier: int, timestamp: float) -> bool:
        """Duplicate check at ``timestamp`` on the owning shard
        (time-based fleets); like the shard's own ``query_at``, it
        advances that shard's clock but records nothing."""
        require_query(self, timed=True)
        return self._query(identifier, timestamp)

    def _query(self, identifier: int, timestamp: Optional[float]) -> bool:
        shard = self.router(identifier)
        verdict = self._degraded_verdict(shard, count=False)
        if verdict is not None:
            return verdict
        if timestamp is None:
            return self.shards[shard].query(identifier)
        return self.shards[shard].query_at(identifier, timestamp)

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def memory_bits(self) -> int:
        return sum(shard.memory_bits for shard in self.shards)

    def load_imbalance(self) -> float:
        """Max shard load over mean shard load (1.0 = perfectly even)."""
        total = sum(self._per_shard_arrivals)
        if total == 0:
            return 1.0
        mean = total / len(self.shards)
        return max(self._per_shard_arrivals) / mean

    def shard_arrivals(self) -> List[int]:
        return list(self._per_shard_arrivals)

    def telemetry_snapshot(self) -> Dict[str, object]:
        """Fleet health metrics for :mod:`repro.telemetry.instruments`."""
        snapshot = self._aggregate_telemetry()
        snapshot["gauges"]["load_imbalance"] = self.load_imbalance()
        return snapshot

    def spec(self):
        """One :class:`~repro.detection.DetectorSpec` rebuilding the fleet.

        Requires a homogeneous fleet (same shard configuration with
        sequential per-shard seeds) behind the default router — exactly
        what the spec path builds.
        """
        return _combined_spec(self)


def shards_time_model(shards) -> bool:
    """The ``timed`` flag a set of shards shares.

    Raises :class:`ConfigurationError` when count-based and time-based
    shards are mixed: one fleet answers one contract.
    """
    models = {bool(shard.timed) for shard in shards}
    if len(models) > 1:
        raise ConfigurationError(
            "shards mix count-based and time-based detectors; one fleet "
            "runs one time model"
        )
    return models.pop()


def _combined_spec(detector):
    """One spec for a homogeneous shard fleet (inverse of the spec build).

    Per-shard specs carry local sizes; the combined spec multiplies the
    split quantities (window, TBF entries, slice bits, generation size)
    back up by the shard count so the factory's even split reproduces
    the fleet exactly.
    """
    from dataclasses import replace

    from .detector import APBFParams, TBFParams, TLBFParams, WindowSpec

    if not detector._router_is_default:
        raise ConfigurationError("spec() cannot express a custom router")
    shards = detector.shards
    n = len(shards)
    first = shards[0].spec()
    base_seed = first.seed
    for index, shard in enumerate(shards[1:], 1):
        other = shard.spec()
        if replace(other, seed=base_seed) != first or other.seed != base_seed + index:
            raise ConfigurationError(
                "spec() needs a homogeneous fleet with sequential per-shard "
                f"seeds; shard {index} differs from shard 0"
            )
    params = first.params
    if type(params) is TBFParams:
        default_slack = (
            first.resolution - 1
            if first.duration is not None
            else first.window.size - 1
        )
        if params.cleanup_slack not in (None, default_slack):
            raise ConfigurationError(
                "spec() cannot express non-default per-shard cleanup_slack "
                f"({params.cleanup_slack})"
            )
        scaled = TBFParams(params.num_entries * n, params.num_hashes, None)
    elif type(params) is APBFParams:
        scaled = APBFParams(
            params.num_required,
            params.num_aged,
            params.slice_bits * n,
            params.generation_size * n,
        )
    elif type(params) is TLBFParams:
        scaled = TLBFParams(
            params.num_required, params.num_aged, params.slice_bits * n
        )
    else:
        raise ConfigurationError(
            f"spec() cannot shard-combine {type(params).__name__} params"
        )
    window = WindowSpec(
        first.window.kind, first.window.size * n, first.window.num_subwindows
    )
    return replace(first, window=window, params=scaled, shards=n)


# ----------------------------------------------------------------------
# Checkpoint kinds: a sharded detector serializes as its shards' frames
# concatenated, so a serve drain checkpoints sharded deployments exactly
# like single detectors.  Custom routers are closures and cannot
# round-trip; only the default router is accepted.
# ----------------------------------------------------------------------

def _save_shards(detector, kind: str, extra: Dict[str, object]) -> bytes:
    if not detector._router_is_default:
        raise CheckpointError(
            "cannot checkpoint a sharded detector with a custom router; "
            "checkpoint the shards individually with checkpoint_shard()"
        )
    blobs = [save_detector(shard) for shard in detector.shards]
    header = {
        "kind": kind,
        "lengths": [len(blob) for blob in blobs],
        "degraded": detector._failover_header(),
    }
    header.update(extra)
    return pack_frame(header, b"".join(blobs))


def _split_shard_blobs(header: Dict[str, object], payload: bytes) -> List[bytes]:
    try:
        lengths = [int(length) for length in header["lengths"]]
    except (KeyError, TypeError, ValueError) as error:
        raise CheckpointError(f"bad sharded checkpoint header: {error}") from error
    if sum(lengths) != len(payload):
        raise CheckpointError("sharded checkpoint payload size mismatch")
    blobs, offset = [], 0
    for length in lengths:
        blobs.append(payload[offset : offset + length])
        offset += length
    return blobs


def _save_sharded(detector: ShardedDetector) -> bytes:
    return _save_shards(
        detector, "sharded", {"per_shard_arrivals": detector._per_shard_arrivals}
    )


def _load_sharded(header: Dict[str, object], payload: bytes) -> ShardedDetector:
    blobs = _split_shard_blobs(header, payload)
    detector = ShardedDetector([load_detector(blob) for blob in blobs])
    arrivals = header.get("per_shard_arrivals")
    if header.get("kind") == "time-sharded":
        # The retired time-based kind kept no arrival counts.
        arrivals = [0] * len(blobs)
    if not isinstance(arrivals, list) or len(arrivals) != len(blobs):
        raise CheckpointError("sharded checkpoint arrivals do not match shards")
    detector._per_shard_arrivals = [int(count) for count in arrivals]
    detector._restore_failover(header.get("degraded", {}))
    return detector


register_checkpoint_kind("sharded", ShardedDetector, _save_sharded, _load_sharded)
# Load-only alias: time-based fleets saved before the count/time collapse.
register_retired_kind("time-sharded", _load_sharded)

# unpack_frame is re-exported for tools that inspect shard blobs directly.
__all__ = [
    "default_router",
    "route_batch",
    "shard_groups",
    "FailoverPolicy",
    "ShardedDetector",
    "shards_time_model",
    "unpack_frame",
]

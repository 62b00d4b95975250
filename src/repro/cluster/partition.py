"""Node-local slices of one global :class:`ShardedDetector`.

A cluster node does not run "a detector with fewer shards" — it runs a
*slice* of the one global sharded detector: the subset of the global
shards the consistent-hash ring assigned to it, each shard keeping its
global index, seed, and window size.  Clicks are still routed by the
global ``route_batch(identifiers, total_shards)``; a slice merely
refuses shards it does not own.  That is the whole parity argument:
shard ``s`` on node ``n`` is constructed and fed exactly like shard
``s`` of a single-process ``ShardedDetector``, so its filter bytes —
and therefore the cluster's verdict stream — are bit-identical to the
single-process run.

Slices checkpoint under their own frame kind (``cluster-slice``; blobs
of the retired ``cluster-time-slice`` kind still load) whose payload is
the concatenation of the owned shards' individual
:func:`save_detector` blobs.  Keeping per-shard blobs
addressable inside the frame is what makes rebalancing cheap:
:func:`slice_shard_blobs` / :func:`build_slice_blob` regroup raw CRC'd
blobs between nodes without ever deserializing a filter.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

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
from ..core.contract import batch_arrays, require_query, worst_fp_bound
from ..detection.sharded import (
    ShardedDetector,
    default_router,
    route_batch,
    shard_groups,
    shards_time_model,
)
from ..errors import ConfigurationError

__all__ = [
    "ClusterSlice",
    "split_sharded",
    "slice_shard_blobs",
    "build_slice_blob",
]


class ClusterSlice:
    """The node-local face of one global :class:`ShardedDetector`.

    ``timed`` follows the owned shards, which must share one time model;
    a slice that owns no shards takes it from ``timed`` (the fleet's).
    """

    kind = "cluster-slice"

    def __init__(
        self,
        total_shards: int,
        shards: Dict[int, object],
        timed: Optional[bool] = None,
    ) -> None:
        total_shards = int(total_shards)
        if total_shards < 1:
            raise ConfigurationError(
                f"total_shards must be >= 1, got {total_shards}"
            )
        for shard in shards:
            if not 0 <= int(shard) < total_shards:
                raise ConfigurationError(
                    f"shard id {shard} out of range [0, {total_shards})"
                )
        self.total_shards = total_shards
        #: global shard id -> detector, sorted for deterministic blobs
        self.shards: Dict[int, object] = {
            int(shard): detector for shard, detector in sorted(shards.items())
        }
        if self.shards:
            owned_model = shards_time_model(self.shards.values())
            if timed is not None and bool(timed) != owned_model:
                raise ConfigurationError(
                    f"slice declared timed={timed} owns shards with "
                    f"timed={owned_model}"
                )
            timed = owned_model
        self.timed = bool(timed)
        self._scalar_router = default_router(total_shards)

    @property
    def owned(self) -> Tuple[int, ...]:
        return tuple(self.shards)

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def memory_bits(self) -> int:
        return sum(shard.memory_bits for shard in self.shards.values())

    def _owned_detector(self, shard: int):
        try:
            return self.shards[shard]
        except KeyError:
            raise ConfigurationError(
                f"shard {shard} routed to a slice owning only {self.owned}; "
                "the router's shard->node assignment disagrees with this "
                "node's slice"
            ) from None

    def observe(self, identifier: int, timestamp: Optional[float] = None) -> bool:
        shard = self._scalar_router(int(identifier))
        return self._owned_detector(shard).observe(int(identifier), timestamp)

    def observe_batch(self, identifiers, timestamps=None) -> "np.ndarray":
        identifiers, timestamps = batch_arrays(self, identifiers, timestamps)
        out = np.empty(identifiers.shape[0], dtype=bool)
        if identifiers.shape[0] == 0:
            return out
        for shard, positions in shard_groups(
            route_batch(identifiers, self.total_shards)
        ):
            out[positions] = self._owned_detector(shard).observe_batch(
                identifiers[positions],
                None if timestamps is None else timestamps[positions],
            )
        return out

    def query(self, identifier: int) -> bool:
        """Side-effect-free duplicate check on the owning shard
        (count-based slices; a time-based one answers :meth:`query_at`)."""
        require_query(self, timed=False)
        shard = self._scalar_router(int(identifier))
        return self._owned_detector(shard).query(int(identifier))

    def query_at(self, identifier: int, timestamp: float) -> bool:
        """Duplicate check at ``timestamp`` on the owning shard
        (time-based slices); advances that shard's clock only."""
        require_query(self, timed=True)
        shard = self._scalar_router(int(identifier))
        return self._owned_detector(shard).query_at(int(identifier), timestamp)

    def checkpoint_shard(self, shard: int) -> bytes:
        """One owned shard's blob — comparable byte-for-byte with
        :meth:`ShardedDetector.checkpoint_shard` of the same index."""
        return save_detector(self._owned_detector(int(shard)))

    def checkpoint_state(self) -> bytes:
        return save_detector(self)

    def theoretical_fp_bound(self) -> Optional[float]:
        """Worst (maximum) a-priori FP bound across the owned shards."""
        return worst_fp_bound(self.shards.values())

    def estimated_fp_rate(self) -> float:
        """Worst (maximum) live FP estimate across the owned shards."""
        estimates = [
            estimate()
            for estimate in (
                getattr(shard, "estimated_fp_rate", None)
                for shard in self.shards.values()
            )
            if estimate is not None
        ]
        return max(estimates, default=0.0)

    def telemetry_snapshot(self) -> Dict[str, object]:
        elements = 0
        duplicates = 0
        for shard in self.shards.values():
            elements += shard.counter.elements
            duplicates += getattr(shard, "duplicates", 0)
        return {
            "gauges": {
                "estimated_fp_rate": self.estimated_fp_rate(),
                "owned_shards": float(len(self.shards)),
                "total_shards": float(self.total_shards),
                "observed_duplicate_rate": (
                    duplicates / elements if elements else 0.0
                ),
            },
            "counters": {"elements": elements, "duplicates": duplicates},
        }


def split_sharded(
    detector: ShardedDetector,
    assignment: "np.ndarray",
    num_nodes: int,
) -> List[ClusterSlice]:
    """Split one sharded detector into ``num_nodes`` slices.

    The slices *take ownership of the detector's shard objects* — they
    are the same filter instances, not copies — so a freshly split
    fleet is bit-identical to the reference by construction.  The
    reference detector must not be used afterwards.
    """
    if not isinstance(detector, ShardedDetector):
        raise ConfigurationError(
            f"cannot split a {type(detector).__name__}; need a "
            "ShardedDetector"
        )
    if not detector._router_is_default:
        raise ConfigurationError(
            "cluster parity requires the default router; custom routers "
            "cannot be replayed by the cluster tier"
        )
    if detector.is_degraded:
        raise ConfigurationError(
            "cannot split a degraded sharded detector; restore its shards "
            "first"
        )
    total = detector.num_shards
    assignment = np.asarray(assignment, dtype=np.int64)
    if assignment.shape != (total,):
        raise ConfigurationError(
            f"assignment length {assignment.shape} does not match "
            f"{total} shards"
        )
    if num_nodes < 1:
        raise ConfigurationError(f"num_nodes must be >= 1, got {num_nodes}")
    if assignment.size and not (
        0 <= int(assignment.min()) and int(assignment.max()) < num_nodes
    ):
        raise ConfigurationError(
            f"assignment references nodes outside [0, {num_nodes})"
        )
    return [
        ClusterSlice(
            total,
            {
                shard: detector.shards[shard]
                for shard in range(total)
                if int(assignment[shard]) == node
            },
            timed=detector.timed,
        )
        for node in range(num_nodes)
    ]


# ----------------------------------------------------------------------
# Checkpoint kinds.  The payload keeps each owned shard's own CRC'd
# frame addressable so rebalancing can regroup raw blobs between nodes.
# ----------------------------------------------------------------------

def _save_slice(detector: ClusterSlice) -> bytes:
    owned = list(detector.shards)
    blobs = [save_detector(detector.shards[shard]) for shard in owned]
    return _pack_slice(detector.timed, detector.total_shards, owned, blobs)


def _pack_slice(timed: bool, total_shards: int, owned, blobs) -> bytes:
    header = {
        "kind": ClusterSlice.kind,
        "total_shards": int(total_shards),
        "owned": owned,
        "lengths": [len(blob) for blob in blobs],
        "timed": bool(timed),
    }
    return pack_frame(header, b"".join(blobs))


#: The retired time-based slice kind; its blobs still load (as timed).
_RETIRED_TIME_KIND = "cluster-time-slice"


def _split_slice_payload(
    header: Dict[str, object], payload: bytes
) -> Tuple[int, bool, Dict[int, bytes]]:
    try:
        total = int(header["total_shards"])
        owned = [int(shard) for shard in header["owned"]]
        lengths = [int(length) for length in header["lengths"]]
    except (KeyError, TypeError, ValueError) as error:
        raise CheckpointError(
            f"bad cluster-slice checkpoint header: {error}"
        ) from error
    if len(owned) != len(lengths) or sum(lengths) != len(payload):
        raise CheckpointError("cluster-slice checkpoint payload mismatch")
    blobs: Dict[int, bytes] = {}
    offset = 0
    for shard, length in zip(owned, lengths):
        blobs[shard] = payload[offset : offset + length]
        offset += length
    timed = bool(header.get("timed", header.get("kind") == _RETIRED_TIME_KIND))
    return total, timed, blobs


def _load_slice(header: Dict[str, object], payload: bytes) -> ClusterSlice:
    total, timed, blobs = _split_slice_payload(header, payload)
    return ClusterSlice(
        total,
        {shard: load_detector(blob) for shard, blob in blobs.items()},
        timed=timed,
    )


def slice_shard_blobs(blob: bytes) -> Tuple[int, bool, Dict[int, bytes]]:
    """``(total_shards, timed, {shard: raw blob})`` from a slice checkpoint.

    Pure byte surgery — no detector is deserialized — so rebalancing can
    ship shard state between nodes at checkpoint speed.  Each returned
    blob still carries its own magic and CRC; corruption surfaces when
    (and only when) someone loads it.  Blobs of the retired
    ``cluster-time-slice`` kind are read as timed slices.
    """
    header, payload = unpack_frame(blob)
    kind = header.get("kind")
    if kind not in (ClusterSlice.kind, _RETIRED_TIME_KIND):
        raise CheckpointError(
            f"expected a cluster-slice checkpoint, got kind {kind!r}"
        )
    return _split_slice_payload(header, payload)


def build_slice_blob(
    total_shards: int, shard_blobs: Dict[int, bytes], *, timed: bool
) -> bytes:
    """Inverse of :func:`slice_shard_blobs`: regroup raw shard blobs
    into a loadable slice checkpoint for a (possibly different) node.

    Always writes the one ``cluster-slice`` kind, so regrouping a state
    directory of retired ``cluster-time-slice`` blobs upgrades it.
    """
    owned = sorted(int(shard) for shard in shard_blobs)
    return _pack_slice(
        timed, total_shards, owned, [shard_blobs[shard] for shard in owned]
    )


register_checkpoint_kind(ClusterSlice.kind, ClusterSlice, _save_slice, _load_slice)
register_retired_kind(_RETIRED_TIME_KIND, _load_slice)

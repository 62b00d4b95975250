"""Cluster serving tier: scale the serve path past one process.

The pieces, front to back:

- :class:`HashRing` — deterministic consistent-hash placement of the
  global shards onto named nodes (fixed shard count, movable ownership).
- :class:`ClusterSlice` / :func:`split_sharded` — node-local slices
  of one global sharded
  detector, bit-identical shard-for-shard to the single-process run.
- :class:`ClusterRouter` / :class:`RouterThread` — the stateless RPK1
  scatter/gather front that fans batches across nodes and reassembles
  verdict streams in order.
- :class:`LocalCluster` — router + N in-process nodes with the full
  operational surface: checkpoint barriers, kill/restore failover,
  checkpoint-shipping rebalance, journaled drain manifests.

See docs/serving.md §"Cluster topology" and docs/operations.md for the
wire-level contract and runbooks.
"""

from .hashring import HashRing
from .local import (
    LocalCluster,
    MANIFEST_KIND,
    read_manifest,
    rebalance_checkpoints,
)
from .partition import (
    ClusterSlice,
    build_slice_blob,
    slice_shard_blobs,
    split_sharded,
)
from .router import (
    ClusterConfig,
    ClusterRouter,
    NodeSpec,
    RouterThread,
    merge_verdict_payloads,
    split_batch_records,
)

__all__ = [
    "HashRing",
    "LocalCluster",
    "MANIFEST_KIND",
    "read_manifest",
    "rebalance_checkpoints",
    "ClusterSlice",
    "split_sharded",
    "slice_shard_blobs",
    "build_slice_blob",
    "ClusterConfig",
    "ClusterRouter",
    "NodeSpec",
    "RouterThread",
    "split_batch_records",
    "merge_verdict_payloads",
]

"""Boot and operate a self-contained local cluster: router + N nodes.

``LocalCluster`` is the cluster tier's answer to
:class:`~repro.serve.server.ServerThread`: everything runs in-process
(each node a :class:`ServerThread`, the router a
:class:`~repro.cluster.router.RouterThread`), but the topology, state
layout, and operational verbs are exactly what a multi-host deployment
would use — per-node checkpoint directories, a journaled cluster
manifest, checkpoint barriers, kill/restore failover, and rebalancing
by shipping CRC-checked shard blobs between node checkpoint stores.

State layout under ``state_dir``::

    state_dir/
      node-0/   ckpt-*.rpk + flight-*.jsonl   (node 0's store)
      node-1/   ...
      manifest/ ckpt-*.rpk                    (cluster manifests)

The drain manifest records the assignment, per-node addresses and
processed counts, cluster totals, and a merged telemetry snapshot — one
journaled record describing the whole fleet at the instant it went
quiet.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

import numpy as np

from ..core.checkpoint import CheckpointError, CheckpointStore, pack_frame
from ..errors import ConfigurationError, RecoveryError
from ..serve.server import _CHECKPOINT_KIND, ServeConfig, ServerThread
from ..telemetry import TelemetrySession
from .hashring import HashRing
from .partition import build_slice_blob, slice_shard_blobs, split_sharded
from .router import ClusterConfig, NodeSpec, RouterThread

__all__ = [
    "LocalCluster",
    "MANIFEST_KIND",
    "read_manifest",
    "rebalance_checkpoints",
]

MANIFEST_KIND = "cluster-manifest"


def _node_names(count: int) -> List[str]:
    return [f"node-{index}" for index in range(count)]


def read_manifest(state_dir: Union[str, Path]) -> Optional[dict]:
    """The newest usable cluster manifest under ``state_dir``, or None."""
    store = CheckpointStore(Path(state_dir) / "manifest", keep=8)
    try:
        return store.load(MANIFEST_KIND, lambda header, _payload: header)
    except RecoveryError:
        # An unusable manifest counts as absent: it only names the node
        # directories, and rebalance then finds them by the ``node-*``
        # glob instead.
        return None


def _collect_checkpoint_dirs(directories, keep: int = 2, expected_total=None):
    """Newest usable serve checkpoint of each directory → per-shard blobs plus
    merged ``(processed, watermark, dedup floors)`` and the slices' time
    model.

    Dedup windows are merged as *floors*: per client the new floor is
    the max ``max_applied`` over the old fleet with no cached entries,
    so a late retry from before the resize is refused as already
    applied instead of re-entering any detector.
    """
    shard_blobs: Dict[int, bytes] = {}
    processed = 0
    watermark: Optional[float] = None
    floors: Dict[int, int] = {}
    timed = False
    total = expected_total
    for directory in directories:
        found = CheckpointStore(directory, keep=keep).load(
            _CHECKPOINT_KIND,
            lambda header, payload: (header, slice_shard_blobs(bytes(payload))),
        )
        if found is None:
            raise CheckpointError(
                f"{directory} has no checkpoint to rebalance from"
            )
        header, (blob_total, timed, blobs) = found
        if total is None:
            total = blob_total
        elif blob_total != total:
            raise CheckpointError(
                f"{directory} checkpoint covers {blob_total} shards, "
                f"expected {total}"
            )
        shard_blobs.update(blobs)
        processed += int(header.get("processed", 0))
        mark = header.get("watermark")
        if mark is not None:
            watermark = (
                float(mark) if watermark is None
                else max(watermark, float(mark))
            )
        dedup = header.get("dedup") or {}
        for client_id, _floor, max_applied, _entries in dedup.get(
            "clients", []
        ):
            client_id = int(client_id)
            floors[client_id] = max(floors.get(client_id, 0), int(max_applied))
    merged_dedup = (
        {
            "clients": [
                [client_id, floor, floor, []]
                for client_id, floor in sorted(floors.items())
            ]
        }
        if floors
        else None
    )
    merged = {
        "processed": processed,
        "watermark": watermark,
        "dedup": merged_dedup,
    }
    return shard_blobs, merged, timed, total


def _seed_node_checkpoints(
    state_dir: Path,
    new_nodes: int,
    timed: bool,
    total: int,
    shard_blobs: Dict[int, bytes],
    merged: dict,
    keep: int = 2,
) -> "np.ndarray":
    """Write each new node's seeded checkpoint; returns the assignment."""
    missing = set(range(total)) - set(shard_blobs)
    if missing:
        raise CheckpointError(
            f"rebalance lost shards {sorted(missing)}: no checkpoint "
            "covers them"
        )
    assignment = HashRing(_node_names(new_nodes)).assign(total)
    for index in range(new_nodes):
        owned = {
            shard: shard_blobs[shard]
            for shard in range(total)
            if int(assignment[shard]) == index
        }
        header = {
            "kind": _CHECKPOINT_KIND,
            "processed": merged["processed"] if index == 0 else 0,
            "watermark": merged["watermark"],
            "dedup": merged["dedup"],
        }
        directory = state_dir / f"node-{index}"
        directory.mkdir(parents=True, exist_ok=True)
        CheckpointStore(directory, keep=keep).save(
            pack_frame(header, build_slice_blob(total, owned, timed=timed))
        )
    return assignment


def rebalance_checkpoints(
    state_dir: Union[str, Path], new_nodes: int, keep: int = 2
) -> dict:
    """Offline resize of a *drained* cluster's state directory.

    Reads the newest checkpoint of every old node (the drain manifest
    names them; a ``node-*`` glob is the fallback), regroups the raw
    CRC-checked shard blobs under the new consistent-hash assignment,
    seeds ``node-0`` … ``node-{new_nodes-1}`` with their new
    checkpoints, retires directories beyond the new fleet, and writes a
    fresh manifest.  ``repro cluster run`` on the same directory then
    boots the resized fleet.
    """
    if new_nodes < 1:
        raise ConfigurationError(f"new_nodes must be >= 1, got {new_nodes}")
    state = Path(state_dir)
    manifest = read_manifest(state)
    if manifest is not None and manifest.get("nodes"):
        old_dirs = [Path(record["checkpoint_dir"]) for record in manifest["nodes"]]
    else:
        old_dirs = sorted(
            (
                entry
                for entry in state.glob("node-*")
                if entry.is_dir() and entry.name[len("node-"):].isdigit()
            ),
            key=lambda entry: int(entry.name[len("node-"):]),
        )
    if not old_dirs:
        raise CheckpointError(f"no node checkpoint directories under {state}")
    shard_blobs, merged, timed, total = _collect_checkpoint_dirs(
        old_dirs, keep=keep
    )
    assignment = _seed_node_checkpoints(
        state, new_nodes, timed, total, shard_blobs, merged, keep=keep
    )
    # Retire old directories past the new fleet so a later collection
    # can never pick up their stale shard state.
    for directory in old_dirs[new_nodes:]:
        retired = directory.with_name(directory.name + ".retired")
        suffix = 0
        while retired.exists():
            suffix += 1
            retired = directory.with_name(f"{directory.name}.retired-{suffix}")
        directory.rename(retired)
    new_manifest = {
        "kind": MANIFEST_KIND,
        "total_shards": int(total),
        "assignment": [int(node) for node in assignment],
        "totals": {"batches": 0, "clicks": merged["processed"]},
        "nodes": [
            {
                "name": f"node-{index}",
                "host": "127.0.0.1",
                "port": None,
                "checkpoint_dir": str(state / f"node-{index}"),
                "shards": [
                    int(shard) for shard in np.flatnonzero(assignment == index)
                ],
                "processed_clicks": merged["processed"] if index == 0 else 0,
            }
            for index in range(new_nodes)
        ],
        "telemetry": {},
        "rebalanced_from": len(old_dirs),
    }
    CheckpointStore(state / "manifest", keep=8).save(
        pack_frame(new_manifest, b"")
    )
    return new_manifest


class LocalCluster:
    """Router + N serve nodes, one process, full cluster semantics.

    ``detector_factory`` must return a *pristine* sharded detector
    (``ShardedDetector``, of either time model) on every call; its
    ``num_shards`` fixes the cluster's ``total_shards``.  The factory is
    re-invoked to build fallback slices when a node boots — a node with
    a readable checkpoint restores from it instead.
    """

    def __init__(
        self,
        detector_factory: Callable[[], object],
        nodes: int,
        state_dir: Union[str, Path],
        config: Optional[ClusterConfig] = None,
        node_config: Optional[ServeConfig] = None,
        telemetry: Union[bool, TelemetrySession] = False,
        fault_hooks=None,
    ) -> None:
        if nodes < 1:
            raise ConfigurationError(f"nodes must be >= 1, got {nodes}")
        self.factory = detector_factory
        self.num_nodes = nodes
        self.state_dir = Path(state_dir)
        self._config = config
        #: Template for per-node ServeConfig; port/checkpoint_dir are
        #: overridden per node.
        self._node_template = (
            node_config if node_config is not None else ServeConfig()
        )
        #: ``True`` gives router and every node its own live session;
        #: a shared :class:`TelemetrySession` aggregates them — same
        #: metric names resolve to the same registry families, so
        #: fleet-wide counters come out pre-summed (the chaos soak
        #: reconciles against exactly this).
        self._telemetry = telemetry
        #: Injected into every node's engine (chaos soak).
        self._fault_hooks = fault_hooks
        self.router: Optional[RouterThread] = None
        self.servers: List[Optional[ServerThread]] = []
        self.assignment: Optional["np.ndarray"] = None
        self.total_shards: Optional[int] = None
        self._ports: Dict[int, int] = {}

    # -- lifecycle ------------------------------------------------------

    @property
    def port(self) -> int:
        """The router's client-facing port."""
        if self.router is None or self.router.port is None:
            raise ConfigurationError("cluster not started")
        return self.router.port

    def node_dir(self, index: int) -> Path:
        return self.state_dir / f"node-{index}"

    def _session(self) -> TelemetrySession:
        if isinstance(self._telemetry, TelemetrySession):
            return self._telemetry
        return (
            TelemetrySession() if self._telemetry
            else TelemetrySession.disabled()
        )

    def start(self) -> "LocalCluster":
        reference = self.factory()
        total = reference.num_shards
        if self._config is None:
            self._config = ClusterConfig(total_shards=total)
        elif self._config.total_shards != total:
            raise ConfigurationError(
                f"ClusterConfig.total_shards {self._config.total_shards} != "
                f"detector num_shards {total}"
            )
        self.total_shards = total
        names = _node_names(self.num_nodes)
        self.assignment = HashRing(names).assign(total)
        slices = split_sharded(reference, self.assignment, self.num_nodes)
        self.servers = []
        try:
            for index in range(self.num_nodes):
                self.servers.append(self._boot_node(index, slices[index]))
        except BaseException:
            # A node refused to boot (say, every generation of its store
            # is unusable): stop the ones already up without a drain, so
            # none of them writes a checkpoint over what is on disk.
            for thread in self.servers:
                thread.kill()
            self.servers = []
            raise
        specs = [
            NodeSpec("127.0.0.1", self._ports[index], name=names[index])
            for index in range(self.num_nodes)
        ]
        self.router = RouterThread(
            specs,
            config=self._config,
            assignment=self.assignment,
            telemetry=self._session(),
        ).start()
        return self

    def _boot_node(self, index: int, fallback_slice) -> ServerThread:
        directory = self.node_dir(index)
        directory.mkdir(parents=True, exist_ok=True)
        config = dataclasses.replace(
            self._node_template,
            port=self._ports.get(index, 0),
            checkpoint_dir=directory,
        )
        thread = ServerThread(
            fallback_slice,
            config=config,
            telemetry=self._session(),
            fault_hooks=self._fault_hooks,
        ).start()
        self._ports[index] = thread.port
        return thread

    # -- operational verbs ---------------------------------------------

    def checkpoint(self) -> None:
        """Cluster-wide checkpoint barrier.

        Quiesce the router (no batch in flight anywhere), have every
        node write a checkpoint, then clear the router's replay journals
        — everything they covered is now durable on every node — and
        resume admission.
        """
        if self.router is None:
            raise ConfigurationError("cluster not started")
        self.router.quiesce()
        try:
            for thread in self.servers:
                if thread is not None and thread._loop is not None:
                    thread.checkpoint()
            self.router.clear_journals()
        finally:
            self.router.resume()

    # -- DetectorLifecycle verbs ----------------------------------------
    #
    # The cluster speaks the same quiesce / checkpoint / migrate /
    # resume surface as the other tiers (``repro.detection.api``), so a
    # controller drives a fleet and an adaptive detector identically.
    # ``checkpoint`` (above) is the cluster-wide barrier; ``migrate``'s
    # resize axis is fleet width — a checkpoint-shipping rebalance.

    def quiesce(self) -> None:
        """Stop admission at the router; no batch is in flight anywhere."""
        if self.router is None:
            raise ConfigurationError("cluster not started")
        self.router.quiesce()

    def resume(self) -> None:
        """Reopen admission after :meth:`quiesce`."""
        if self.router is None:
            raise ConfigurationError("cluster not started")
        self.router.resume()

    def migrate(self, new_spec) -> None:
        """Lifecycle migrate: resize the fleet.

        ``new_spec`` is the target node count (the cluster's resize
        axis); delegates to :meth:`rebalance`, which quiesces, ships
        checkpoints to the new assignment, and resumes.
        """
        if not isinstance(new_spec, int):
            raise ConfigurationError(
                "LocalCluster.migrate resizes fleet width; pass the "
                f"target node count, got {type(new_spec).__name__}"
            )
        self.rebalance(new_spec)

    def kill_node(self, index: int) -> None:
        """SIGKILL-equivalent: the node vanishes without drain or
        checkpoint; durable state stays at its last checkpoint."""
        thread = self.servers[index]
        if thread is not None:
            thread.kill()

    def restore_node(self, index: int) -> None:
        """Boot a replacement node on the same port and state directory.

        The replacement resumes from the newest readable checkpoint in
        its store (falling back to a pristine slice when none exists);
        the router's per-channel journals roll it forward past its
        checkpoint on the first reconnect.
        """
        if self.assignment is None:
            raise ConfigurationError("cluster not started")
        fresh = split_sharded(self.factory(), self.assignment, self.num_nodes)
        self.servers[index] = self._boot_node(index, fresh[index])

    def rebalance(self, new_nodes: int) -> None:
        """Resize the fleet to ``new_nodes`` by shipping checkpoints.

        Two-phase: quiesce the router and drain every node (each writes
        a final checkpoint), then regroup the per-shard blobs under the
        new consistent-hash assignment — pure byte surgery on the
        CRC-checked frames, no filter is ever deserialized — write each
        new node's seeded checkpoint into its store, boot the new fleet,
        and point the router at it.  Dedup floors are merged across the
        old fleet so a client retry from before the resize is refused as
        already-applied rather than double-applied.

        Per-node ``processed`` counters restart at the merged cluster
        total attributed to node 0 (attribution per node is meaningless
        after shards move); cluster totals live in the drain manifest.
        """
        if self.router is None or self.assignment is None:
            raise ConfigurationError("cluster not started")
        if new_nodes < 1:
            raise ConfigurationError(f"new_nodes must be >= 1, got {new_nodes}")
        self.router.quiesce()
        for thread in self.servers:
            if thread is not None:
                thread.stop()
        keep = self._node_template.checkpoint_keep
        shard_blobs, merged, timed, _total = _collect_checkpoint_dirs(
            [self.node_dir(index) for index in range(self.num_nodes)],
            keep=keep,
            expected_total=self.total_shards,
        )
        new_assignment = _seed_node_checkpoints(
            self.state_dir,
            new_nodes,
            timed,
            self.total_shards,
            shard_blobs,
            merged,
            keep=keep,
        )
        self.num_nodes = new_nodes
        self.assignment = new_assignment
        self._ports = {}
        fallback = split_sharded(self.factory(), new_assignment, new_nodes)
        self.servers = [
            self._boot_node(index, fallback[index]) for index in range(new_nodes)
        ]
        specs = [
            NodeSpec("127.0.0.1", self._ports[index], name=name)
            for index, name in enumerate(_node_names(new_nodes))
        ]
        self.router.reconfigure(specs, new_assignment)
        self.router.resume()

    # -- telemetry ------------------------------------------------------

    def scrape(self) -> dict:
        """One merged snapshot: router registry + every node registry.

        Each registry is read once, which collects every node's
        instruments on that node's loop; a shared session is one
        registry, so its snapshot serves router and nodes alike.
        """
        snapshots: Dict[int, dict] = {}

        def snapshot(registry) -> dict:
            if id(registry) not in snapshots:
                snapshots[id(registry)] = registry.snapshot()
            return snapshots[id(registry)]

        router_snapshot = (
            snapshot(self.router.router.telemetry.registry)
            if self.router is not None and self.router.router is not None
            else {}
        )
        nodes = {}
        for index, thread in enumerate(self.servers):
            if thread is None or thread.server is None:
                continue
            nodes[f"node-{index}"] = {
                "port": self._ports.get(index),
                "processed_clicks": thread.server.processed_clicks,
                "metrics": snapshot(thread.server.telemetry.registry),
            }
        return {"router": router_snapshot, "nodes": nodes}

    # -- shutdown -------------------------------------------------------

    def drain(self) -> Optional[dict]:
        """Two-phase graceful shutdown; returns the manifest header.

        Phase 1 quiesces router admission (clients see ``OVERLOADED``,
        in-flight batches finish), phase 2 drains every node (each
        writes its final checkpoint), then one journaled cluster
        manifest lands in ``state_dir/manifest``.
        """
        if self.router is None:
            return None
        self.router.quiesce()
        router_obj = self.router.router
        totals = {
            "batches": router_obj.total_batches if router_obj else 0,
            "clicks": router_obj.total_clicks if router_obj else 0,
        }
        snapshot = self.scrape()
        self.router.stop()
        self.router = None
        node_records = []
        for index, thread in enumerate(self.servers):
            if thread is None:
                continue
            processed = 0
            if thread._loop is not None:  # alive: drain writes checkpoint
                thread.stop()
            if thread.server is not None:
                processed = thread.server.processed_clicks
            node_records.append(
                {
                    "name": f"node-{index}",
                    "host": "127.0.0.1",
                    "port": self._ports.get(index),
                    "checkpoint_dir": str(self.node_dir(index)),
                    "shards": (
                        [
                            int(shard)
                            for shard in np.flatnonzero(self.assignment == index)
                        ]
                        if self.assignment is not None
                        else []
                    ),
                    "processed_clicks": processed,
                }
            )
        self.servers = []
        manifest = {
            "kind": MANIFEST_KIND,
            "total_shards": self.total_shards,
            "assignment": (
                [int(node) for node in self.assignment]
                if self.assignment is not None
                else []
            ),
            "totals": totals,
            "nodes": node_records,
            "telemetry": snapshot,
        }
        store = CheckpointStore(self.state_dir / "manifest", keep=8)
        store.save(pack_frame(manifest, b""))
        return manifest

    def __enter__(self) -> "LocalCluster":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        try:
            self.drain()
        finally:
            for thread in self.servers:
                if thread is not None and thread._loop is not None:
                    thread.kill()
            self.servers = []

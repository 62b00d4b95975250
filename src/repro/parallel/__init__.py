"""Multi-core parallel detection: process-backed shards over shared memory.

The package splits into three layers:

* :mod:`repro.parallel.ring` — the SPSC shared-memory batch transport
  (no pickling on the hot path, semaphore-paced bounded buffers).
* :mod:`repro.parallel.worker` — the worker-process main loop serving
  one shard from its rings (pre-hashed probes, checkpoint/telemetry
  control commands).
* :mod:`repro.parallel.engine` — the router-side engine
  (:class:`ParallelShardedDetector`) with bit-identical semantics to the
  single-process sharded detector, journaled respawn-from-checkpoint on
  worker death, and two-phase fleet checkpoints.

Importing this package registers the ``parallel-sharded`` checkpoint
kind (and loads blobs of the retired ``parallel-time-sharded`` kind).
"""

from .engine import ParallelShardedDetector, lift_sharded
from .ring import BatchRing, RingSpec

__all__ = [
    "BatchRing",
    "RingSpec",
    "ParallelShardedDetector",
    "lift_sharded",
]

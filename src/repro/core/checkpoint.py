"""Detector checkpointing: serialize and restore in-flight sketch state.

A production click-stream processor restarts — deploys, crashes,
rebalances.  Losing a detector's state silently un-flags every click of
the last window (the attacker's dream), so the sketch must checkpoint.
This module holds the frame format, the kind registry and the store;
every detector family registers a codec here that snapshots its state
to bytes and restores it bit-identically: the restored detector makes
exactly the decisions the original would have (tested).  The five core
variants use two codecs, one per family (:mod:`repro.core.tbf`,
:mod:`repro.core.gbf`).

Format: an 8-byte magic, a length-prefixed JSON header carrying the
configuration and scalar state, then the raw little-endian array
payload, then a CRC32 of everything before it.  Corruption, truncation,
or a configuration mismatch raises :class:`CheckpointError` — a wrong
sketch must never load quietly.

Hash-family seeds are part of the configuration, so a checkpoint
restores with the identical family.  Checkpoints of detectors built on
externally supplied ``family`` objects record the family's class name
and parameters and rebuild it; exotic custom families are rejected at
save time rather than mis-restored at load time.

Dispatch is an open registry: :func:`register_checkpoint_kind` binds a
``kind`` tag to a (class, save, load) triple, so the core families and
higher layers — the sharded detectors in :mod:`repro.detection.sharded`, the parallel
engine, the adaptive wrappers — add their own frame kinds without this
module importing them (no upward dependency).

Frames at rest live in a :class:`CheckpointStore`: atomic, generational
files in one directory, and the one rule for which generation a restore
trusts.
"""

from __future__ import annotations

import json
import os
import re
import struct
import zlib
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, TypeVar, Union


from ..errors import CheckpointError, ConfigurationError, RecoveryError
from ..hashing import (
    CarterWegmanFamily,
    DoubleHashingFamily,
    MultiplyShiftFamily,
    SplitMixFamily,
    TabulationFamily,
)

__all__ = [
    "CheckpointError",
    "CheckpointStore",
    "save_detector",
    "load_detector",
    "pack_frame",
    "unpack_frame",
    "register_checkpoint_kind",
    "register_retired_kind",
]

_MAGIC = b"RPROCKP1"

_FAMILY_CLASSES = {
    cls.__name__: cls
    for cls in (
        SplitMixFamily,
        CarterWegmanFamily,
        TabulationFamily,
        MultiplyShiftFamily,
        DoubleHashingFamily,
    )
}


def _family_spec(family) -> Dict[str, Any]:
    name = type(family).__name__
    if name not in _FAMILY_CLASSES:
        raise CheckpointError(
            f"cannot checkpoint custom hash family {name!r}; use a built-in "
            "family or persist the detector yourself"
        )
    return {
        "class": name,
        "num_hashes": family.num_hashes,
        "num_buckets": family.num_buckets,
        "seed": family.seed,
    }


def _rebuild_family(spec: Dict[str, Any]):
    try:
        cls = _FAMILY_CLASSES[spec["class"]]
        return cls(spec["num_hashes"], spec["num_buckets"], spec["seed"])
    except (KeyError, TypeError) as error:
        raise CheckpointError(f"bad hash-family spec in checkpoint: {error}") from error


# ----------------------------------------------------------------------
# Frame format (shared by every checkpoint kind, including the serve
# drain checkpoint and the cluster manifest)
# ----------------------------------------------------------------------

def pack_frame(header: Dict[str, Any], payload: bytes) -> bytes:
    """Frame ``header`` (JSON) + ``payload`` with magic and CRC32."""
    header_bytes = json.dumps(header, separators=(",", ":")).encode()
    body = (
        _MAGIC
        + struct.pack("<I", len(header_bytes))
        + header_bytes
        + struct.pack("<Q", len(payload))
        + payload
    )
    return body + struct.pack("<I", zlib.crc32(body))


def unpack_frame(blob: bytes) -> Tuple[Dict[str, Any], bytes]:
    """Inverse of :func:`pack_frame`; raises :class:`CheckpointError`."""
    if len(blob) < len(_MAGIC) + 4 + 8 + 4:
        raise CheckpointError("checkpoint truncated")
    if blob[: len(_MAGIC)] != _MAGIC:
        raise CheckpointError("bad checkpoint magic")
    body, (crc,) = blob[:-4], struct.unpack("<I", blob[-4:])
    if zlib.crc32(body) != crc:
        raise CheckpointError("checkpoint CRC mismatch (corrupt data)")
    offset = len(_MAGIC)
    (header_len,) = struct.unpack_from("<I", body, offset)
    offset += 4
    try:
        header = json.loads(body[offset : offset + header_len])
    except ValueError as error:
        raise CheckpointError(f"unreadable checkpoint header: {error}") from error
    offset += header_len
    (payload_len,) = struct.unpack_from("<Q", body, offset)
    offset += 8
    payload = body[offset : offset + payload_len]
    if len(payload) != payload_len:
        raise CheckpointError("checkpoint payload truncated")
    return header, payload



# ----------------------------------------------------------------------
# Generational store
# ----------------------------------------------------------------------

#: Generation files: ``ckpt-<n>.rpk`` with ``n`` zero-padded to at least
#: 8 digits (past 10^8 generations the name simply grows).
_GENERATION = re.compile(r"^ckpt-(\d{8,})\.rpk$")

_Parsed = TypeVar("_Parsed")


class CheckpointStore:
    """Atomic, generational checkpoint files in one directory.

    ``save`` writes ``ckpt-<n>.rpk`` via temp file + ``fsync`` +
    ``os.replace`` (+ directory fsync), so a crash at any instant leaves
    either the previous generations or the previous generations plus a
    complete new one — never a torn file under the real name.  The last
    ``keep`` generations are retained; older ones are pruned after the
    rename, so the fallback generation always exists on disk before its
    predecessor dies.  :meth:`load` is the one reader: every restore
    trusts the generation it picks.  Only :meth:`save` creates the
    directory, so reading an absent store writes nothing.
    """

    def __init__(self, directory: Union[str, Path], keep: int = 2) -> None:
        if keep < 1:
            raise ConfigurationError(f"keep must be >= 1, got {keep}")
        self.directory = Path(directory)
        self.keep = keep

    def paths(self) -> List[Path]:
        """Checkpoint files, oldest first (none for an absent directory)."""
        if not self.directory.is_dir():
            return []
        found = []
        for path in self.directory.iterdir():
            match = _GENERATION.match(path.name)
            if match:
                found.append((int(match.group(1)), path))
        return [path for _, path in sorted(found)]

    def save(self, blob: bytes) -> Path:
        """Durably write the next generation and prune old ones."""
        self.directory.mkdir(parents=True, exist_ok=True)
        paths = self.paths()
        index = int(_GENERATION.match(paths[-1].name).group(1)) + 1 if paths else 1
        final = self.directory / f"ckpt-{index:08d}.rpk"
        temp = self.directory / f".ckpt-{index:08d}.tmp"
        with open(temp, "wb") as handle:
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, final)
        self._fsync_directory()
        for stale in self.paths()[: -self.keep]:
            try:
                stale.unlink()
            except OSError:
                pass
        return final

    def _fsync_directory(self) -> None:
        try:
            fd = os.open(self.directory, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform-dependent
            return
        try:
            os.fsync(fd)
        except OSError:  # pragma: no cover - platform-dependent
            pass
        finally:
            os.close(fd)

    def load(
        self,
        kind: str,
        parse: Callable[[Dict[str, Any], bytes], _Parsed],
    ) -> Optional[_Parsed]:
        """``parse(header, payload)`` of the newest usable generation.

        A generation is usable when its file reads, its frame unpacks
        with ``kind`` in the header, and ``parse`` accepts it (raising
        :class:`CheckpointError` rejects it).  A rejected generation
        falls back to the one before it.  ``None`` means the store is
        empty: a cold start.  When generations exist but none is usable,
        this raises :class:`RecoveryError` rather than let the caller
        start with an empty window (the recovery taxonomy in
        :mod:`repro.errors`).
        """
        paths = self.paths()
        if not paths:
            return None
        failures = []
        for path in reversed(paths):
            try:
                header, payload = unpack_frame(path.read_bytes())
                if header.get("kind") != kind:
                    raise CheckpointError(
                        f"not a {kind!r} checkpoint (kind {header.get('kind')!r})"
                    )
                return parse(header, payload)
            except (OSError, CheckpointError) as error:
                failures.append(f"{path.name}: {error}")
        raise RecoveryError(
            f"no usable {kind!r} checkpoint among {len(paths)} generation(s) "
            f"in {self.directory} ({'; '.join(failures)}); restore the store "
            "or move it aside to cold-start with an empty window"
        )


# ----------------------------------------------------------------------
# Open kind registry
# ----------------------------------------------------------------------

_SAVERS: List[Tuple[type, str, Callable[[Any], bytes]]] = []
_LOADERS: Dict[str, Callable[[Dict[str, Any], bytes], Any]] = {}


def register_checkpoint_kind(
    kind: str,
    cls: type,
    save: Callable[[Any], bytes],
    load: Callable[[Dict[str, Any], bytes], Any],
) -> None:
    """Bind a checkpoint ``kind`` tag to a detector class.

    ``save(detector) -> bytes`` must produce a :func:`pack_frame` blob
    whose header carries ``{"kind": kind}``; ``load(header, payload)``
    must rebuild the detector.  Registering a kind again replaces the
    previous binding (latest wins) — instances are matched by exact
    type first, then by ``isinstance`` in registration order.
    """
    global _SAVERS
    _SAVERS = [entry for entry in _SAVERS if entry[1] != kind]
    _SAVERS.append((cls, kind, save))
    _LOADERS[kind] = load


def register_retired_kind(
    kind: str, load: Callable[[Dict[str, Any], bytes], Any]
) -> None:
    """Keep loading a ``kind`` tag that nothing saves any more.

    Blobs written before a kind was folded into another one (old
    checkpoints, serve drain blobs, cluster manifests) restore through
    ``load``, which builds the detector class that replaced it.
    """
    _LOADERS[kind] = load


def save_detector(detector) -> bytes:
    """Serialize any registered detector kind to bytes."""
    for cls, _, save in _SAVERS:
        if type(detector) is cls:
            return save(detector)
    for cls, _, save in _SAVERS:
        if isinstance(detector, cls):
            return save(detector)
    raise CheckpointError(
        f"unsupported detector type {type(detector).__name__}"
    )


#: Kinds registered by modules outside the core import graph, resolved
#: on first load.  Saving never needs this (a live detector's module is
#: necessarily imported), but a restorer — a spawn-mode parallel worker,
#: a serve node resuming from a store — may see the blob first.
_LAZY_KIND_MODULES = {
    "apbf": "repro.adaptive.filters",
    "time-limited-bf": "repro.adaptive.filters",
    "adaptive": "repro.adaptive.lifecycle",
    "adaptive-timed": "repro.adaptive.lifecycle",
}


def load_detector(blob: bytes):
    """Restore a detector from :func:`save_detector` output."""
    header, payload = unpack_frame(blob)
    kind = header.get("kind")
    loader = _LOADERS.get(kind)
    if loader is None and kind in _LAZY_KIND_MODULES:
        import importlib

        importlib.import_module(_LAZY_KIND_MODULES[kind])
        loader = _LOADERS.get(kind)
    if loader is None:
        raise CheckpointError(f"unknown detector kind {kind!r} in checkpoint")
    return loader(header, payload)

"""Detector checkpointing: serialize and restore in-flight sketch state.

A production click-stream processor restarts — deploys, crashes,
rebalances.  Losing a detector's state silently un-flags every click of
the last window (the attacker's dream), so the sketch must checkpoint.
This module snapshots GBF / TBF detectors — count-based and time-based
variants — to bytes and restores them to bit-identical state: the
restored detector makes exactly the decisions the original would have
(tested).

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
``kind`` tag to a (class, save, load) triple, so higher layers — the
sharded detectors in :mod:`repro.detection.sharded`, the parallel
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

import numpy as np

from ..errors import CheckpointError, ConfigurationError, RecoveryError
from ..hashing import (
    CarterWegmanFamily,
    DoubleHashingFamily,
    MultiplyShiftFamily,
    SplitMixFamily,
    TabulationFamily,
)
from .gbf import GBFDetector
from .gbf_timebased import TimeBasedGBFDetector
from .tbf import TBFDetector
from .tbf_jumping import TBFJumpingDetector
from .tbf_timebased import TimeBasedTBFDetector

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


# Backwards-compatible private aliases.
_pack = pack_frame
_unpack = unpack_frame


# ----------------------------------------------------------------------
# Generational store
# ----------------------------------------------------------------------

_GENERATION = re.compile(r"^ckpt-(\d{8})\.rpk$")

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
    trusts the generation it picks.
    """

    def __init__(self, directory: Union[str, Path], keep: int = 2) -> None:
        if keep < 1:
            raise ConfigurationError(f"keep must be >= 1, got {keep}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.keep = keep

    def paths(self) -> List[Path]:
        """Checkpoint files, oldest first."""
        found = []
        for path in self.directory.iterdir():
            match = _GENERATION.match(path.name)
            if match:
                found.append((int(match.group(1)), path))
        return [path for _, path in sorted(found)]

    def save(self, blob: bytes) -> Path:
        """Durably write the next generation and prune old ones."""
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


# ----------------------------------------------------------------------
# Per-detector handlers
# ----------------------------------------------------------------------

def _save_gbf(detector: GBFDetector) -> bytes:
    header = {
        "kind": "gbf",
        "window_size": detector.window_size,
        "num_subwindows": detector.num_subwindows,
        "bits_per_filter": detector.bits_per_filter,
        "word_bits": detector.word_bits,
        "family": _family_spec(detector.family),
        "position": detector._position,
        "current_lane": detector._current_lane,
        "cleaning_lane": detector._cleaning_lane,
        "clean_cursor": detector._clean_cursor,
        "active_masks": [str(mask) for mask in detector._active_masks],
        "duplicates": detector.duplicates,
    }
    payload = detector._matrix._words.tobytes()
    return pack_frame(header, payload)


def _load_gbf(header: Dict[str, Any], payload: bytes) -> GBFDetector:
    family = _rebuild_family(header["family"])
    try:
        detector = GBFDetector(
            header["window_size"],
            header["num_subwindows"],
            header["bits_per_filter"],
            word_bits=header["word_bits"],
            family=family,
        )
        words = np.frombuffer(payload, dtype=np.uint64).copy()
        if words.shape != detector._matrix._words.shape:
            raise CheckpointError("GBF payload size does not match configuration")
        detector._matrix._words = words
        detector._position = header["position"]
        detector._current_lane = header["current_lane"]
        detector._cleaning_lane = header["cleaning_lane"]
        detector._clean_cursor = header["clean_cursor"]
        detector._active_masks = [int(mask) for mask in header["active_masks"]]
        detector.duplicates = int(header.get("duplicates", 0))
    except KeyError as error:
        raise CheckpointError(f"missing GBF checkpoint field: {error}") from error
    return detector


def _save_tbf(detector: TBFDetector) -> bytes:
    header = {
        "kind": "tbf",
        "window_size": detector.window_size,
        "num_entries": detector.num_entries,
        "cleanup_slack": detector.cleanup_slack,
        "family": _family_spec(detector.family),
        "position": detector._position,
        "clean_cursor": detector._clean_cursor,
        "dtype": detector._entries.dtype.name,
        "duplicates": detector.duplicates,
    }
    return pack_frame(header, detector._entries.tobytes())


def _load_tbf(header: Dict[str, Any], payload: bytes) -> TBFDetector:
    family = _rebuild_family(header["family"])
    try:
        detector = TBFDetector(
            header["window_size"],
            header["num_entries"],
            cleanup_slack=header["cleanup_slack"],
            family=family,
        )
        entries = np.frombuffer(payload, dtype=np.dtype(header["dtype"])).copy()
        if entries.shape != detector._entries.shape:
            raise CheckpointError("TBF payload size does not match configuration")
        if entries.dtype != detector._entries.dtype:
            raise CheckpointError("TBF payload dtype does not match configuration")
        detector._entries = entries
        detector._position = header["position"]
        detector._clean_cursor = header["clean_cursor"]
        detector.duplicates = int(header.get("duplicates", 0))
    except KeyError as error:
        raise CheckpointError(f"missing TBF checkpoint field: {error}") from error
    return detector


def _save_tbf_jumping(detector: TBFJumpingDetector) -> bytes:
    header = {
        "kind": "tbf-jumping",
        "window_size": detector.window_size,
        "num_subwindows": detector.num_subwindows,
        "num_entries": detector.num_entries,
        "cleanup_slack": detector.cleanup_slack,
        "family": _family_spec(detector.family),
        "position": detector._position,
        "clean_cursor": detector._clean_cursor,
        "dtype": detector._entries.dtype.name,
        "duplicates": detector.duplicates,
    }
    return pack_frame(header, detector._entries.tobytes())


def _load_tbf_jumping(header: Dict[str, Any], payload: bytes) -> TBFJumpingDetector:
    family = _rebuild_family(header["family"])
    try:
        detector = TBFJumpingDetector(
            header["window_size"],
            header["num_subwindows"],
            header["num_entries"],
            cleanup_slack=header["cleanup_slack"],
            family=family,
        )
        entries = np.frombuffer(payload, dtype=np.dtype(header["dtype"])).copy()
        if entries.shape != detector._entries.shape:
            raise CheckpointError(
                "TBF-jumping payload size does not match configuration"
            )
        detector._entries = entries
        detector._position = header["position"]
        detector._clean_cursor = header["clean_cursor"]
        detector.duplicates = int(header.get("duplicates", 0))
    except KeyError as error:
        raise CheckpointError(
            f"missing TBF-jumping checkpoint field: {error}"
        ) from error
    return detector


def _save_tbf_timebased(detector: TimeBasedTBFDetector) -> bytes:
    header = {
        "kind": "tbf-time",
        "duration": detector.duration,
        "resolution": detector.resolution,
        "num_entries": detector.num_entries,
        "cleanup_slack": detector.cleanup_slack,
        "family": _family_spec(detector.family),
        "clean_cursor": detector._clean_cursor,
        "last_unit": detector._last_unit,
        "last_time": detector._last_time,
        "dtype": detector._entries.dtype.name,
        "duplicates": detector.duplicates,
    }
    return pack_frame(header, detector._entries.tobytes())


def _load_tbf_timebased(header: Dict[str, Any], payload: bytes) -> TimeBasedTBFDetector:
    family = _rebuild_family(header["family"])
    try:
        detector = TimeBasedTBFDetector(
            header["duration"],
            header["resolution"],
            header["num_entries"],
            cleanup_slack=header["cleanup_slack"],
            family=family,
        )
        entries = np.frombuffer(payload, dtype=np.dtype(header["dtype"])).copy()
        if entries.shape != detector._entries.shape:
            raise CheckpointError(
                "time-based TBF payload size does not match configuration"
            )
        if entries.dtype != detector._entries.dtype:
            raise CheckpointError(
                "time-based TBF payload dtype does not match configuration"
            )
        detector._entries = entries
        detector._clean_cursor = header["clean_cursor"]
        detector._last_unit = header["last_unit"]
        detector._last_time = header["last_time"]
        detector.duplicates = int(header.get("duplicates", 0))
    except KeyError as error:
        raise CheckpointError(
            f"missing time-based TBF checkpoint field: {error}"
        ) from error
    return detector


def _save_gbf_timebased(detector: TimeBasedGBFDetector) -> bytes:
    header = {
        "kind": "gbf-time",
        "duration": detector.duration,
        "num_subwindows": detector.num_subwindows,
        "units_per_subwindow": detector.units_per_subwindow,
        "bits_per_filter": detector.bits_per_filter,
        "word_bits": detector.word_bits,
        "family": _family_spec(detector.family),
        "current_lane": detector._current_lane,
        "cleaning_lane": detector._cleaning_lane,
        "clean_cursor": detector._clean_cursor,
        "last_unit": detector._last_unit,
        "last_time": detector._last_time,
        "active_masks": [str(mask) for mask in detector._active_masks],
        "duplicates": detector.duplicates,
    }
    payload = detector._matrix._words.tobytes()
    return pack_frame(header, payload)


def _load_gbf_timebased(header: Dict[str, Any], payload: bytes) -> TimeBasedGBFDetector:
    family = _rebuild_family(header["family"])
    try:
        detector = TimeBasedGBFDetector(
            header["duration"],
            header["num_subwindows"],
            header["bits_per_filter"],
            units_per_subwindow=header["units_per_subwindow"],
            word_bits=header["word_bits"],
            family=family,
        )
        words = np.frombuffer(payload, dtype=np.uint64).copy()
        if words.shape != detector._matrix._words.shape:
            raise CheckpointError(
                "time-based GBF payload size does not match configuration"
            )
        detector._matrix._words = words
        detector._current_lane = header["current_lane"]
        detector._cleaning_lane = header["cleaning_lane"]
        detector._clean_cursor = header["clean_cursor"]
        detector._last_unit = header["last_unit"]
        detector._last_time = header["last_time"]
        detector._active_masks = [int(mask) for mask in header["active_masks"]]
        detector.duplicates = int(header.get("duplicates", 0))
    except KeyError as error:
        raise CheckpointError(
            f"missing time-based GBF checkpoint field: {error}"
        ) from error
    return detector


register_checkpoint_kind("gbf", GBFDetector, _save_gbf, _load_gbf)
register_checkpoint_kind("tbf", TBFDetector, _save_tbf, _load_tbf)
register_checkpoint_kind(
    "tbf-jumping", TBFJumpingDetector, _save_tbf_jumping, _load_tbf_jumping
)
register_checkpoint_kind(
    "tbf-time", TimeBasedTBFDetector, _save_tbf_timebased, _load_tbf_timebased
)
register_checkpoint_kind(
    "gbf-time", TimeBasedGBFDetector, _save_gbf_timebased, _load_gbf_timebased
)

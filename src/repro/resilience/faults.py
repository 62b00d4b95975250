"""Deterministic fault injection for recovery testing.

A recovery path that is never exercised is a recovery path that does
not work.  This module manufactures the failures the serve path meets —
checkpoint bytes rotting on disk, an engine task that dies or wedges, a
checkpoint write that fails, a detector call that raises — as *pure,
seeded* faults, so a test can corrupt generation 2 of the checkpoint
store or kill engine group 6, replay the identical scenario, and assert
the recovery.

The raised faults (engine task, checkpoint write, detector call) are
:class:`InjectedFault`, a ``ReproError`` subclass that production code
never raises: if a recovery test sees one escape, the fault fired where
it was scheduled.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import Dict, Iterable, Optional, Union

from ..errors import ConfigurationError, ReproError

#: Byte-corruption modes understood by :meth:`FaultInjector.corrupt`.
CORRUPTION_MODES = ("flip-byte", "truncate", "zero-prefix")


class InjectedFault(ReproError, RuntimeError):
    """A failure manufactured by the fault injectors of this module."""


class EngineFaultHooks:
    """Deterministic faults for the serve engine task (chaos testing).

    Passed to :class:`repro.serve.server.ClickIngestServer` as
    ``fault_hooks``; the server invokes :meth:`before_group` (awaited)
    in front of every coalesced engine group and :meth:`on_checkpoint`
    in front of every checkpoint write.  The schedule is by *index* —
    group ``0`` is the first group the engine ever coalesces,
    checkpoint ``0`` the first write attempt — so a seeded soak replays
    the identical fault sequence every run.

    * ``fail_groups`` — raise :class:`InjectedFault` before that group:
      the engine task dies with the group requeued untouched; the
      server's watchdog must restart it with zero click loss.
    * ``stall_groups`` — ``{index: seconds}``: sleep (asyncio) before
      that group, impersonating a wedged detector; the watchdog must
      cancel and restart the engine, again with the group requeued.
    * ``fail_checkpoints`` — raise from that checkpoint write attempt:
      the server must survive (retry or fall back to the previous
      generation), never crash the drain.
    """

    def __init__(
        self,
        fail_groups: Iterable[int] = (),
        stall_groups: Optional[Dict[int, float]] = None,
        fail_checkpoints: Iterable[int] = (),
    ) -> None:
        self.fail_groups = frozenset(fail_groups)
        self.stall_groups = dict(stall_groups or {})
        self.fail_checkpoints = frozenset(fail_checkpoints)
        self.groups_seen = 0
        self.checkpoints_seen = 0

    async def before_group(self, group) -> None:
        import asyncio

        index = self.groups_seen
        self.groups_seen += 1
        stall = self.stall_groups.get(index)
        if stall is not None:
            await asyncio.sleep(stall)
        if index in self.fail_groups:
            raise InjectedFault(f"injected engine failure before group {index}")

    def on_checkpoint(self) -> None:
        index = self.checkpoints_seen
        self.checkpoints_seen += 1
        if index in self.fail_checkpoints:
            raise InjectedFault(
                f"injected checkpoint-write failure at attempt {index}"
            )


class ChaosDetector:
    """Wrap a detector so scheduled batch calls raise :class:`InjectedFault`.

    ``fail_calls`` indexes the sequence of ``observe_batch``
    invocations.  Everything else — checkpointing, telemetry, window
    introspection — delegates to the wrapped detector, so the wrapper
    slots anywhere the real one does.  The serve engine must answer
    the affected group with ``ERROR`` frames and keep serving (the
    per-group never-crash discipline), which ``tests/test_chaos.py``
    asserts.
    """

    def __init__(self, detector, fail_calls: Iterable[int] = ()) -> None:
        self._detector = detector
        self._fail_calls = frozenset(fail_calls)
        self._calls = 0

    def _maybe_fail(self) -> None:
        index = self._calls
        self._calls += 1
        if index in self._fail_calls:
            raise InjectedFault(f"injected detector failure at batch call {index}")

    # Defined here, not reached through __getattr__: a delegated call
    # would go straight to the wrapped detector and skip the fault.
    def observe_batch(self, identifiers, timestamps=None):
        self._maybe_fail()
        return self._detector.observe_batch(identifiers, timestamps)

    def __getattr__(self, name):
        return getattr(self._detector, name)


class FaultInjector:
    """Seeded checkpoint corruption.

    Every method derives its randomness from ``seed`` plus its own
    arguments, never from global state, so the same injector replays
    the same faults — determinism is the whole point.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed

    def _rng(self, *salt: object) -> random.Random:
        return random.Random((self.seed, *salt).__repr__())

    def corrupt(self, blob: bytes, mode: str = "flip-byte") -> bytes:
        """Damage checkpoint bytes deterministically.

        ``flip-byte`` inverts one seeded byte (CRC catches it);
        ``truncate`` cuts the blob at a seeded offset past the magic;
        ``zero-prefix`` wipes the magic and header length (unreadable
        frame).  All three must make loading fail with
        :class:`~repro.errors.CheckpointError`, never load quietly.
        """
        if mode not in CORRUPTION_MODES:
            raise ConfigurationError(
                f"unknown corruption mode {mode!r}; choose from {CORRUPTION_MODES}"
            )
        if not blob:
            return blob
        rng = self._rng("corrupt", mode, len(blob))
        if mode == "flip-byte":
            damaged = bytearray(blob)
            damaged[rng.randrange(len(damaged))] ^= 0xFF
            return bytes(damaged)
        if mode == "truncate":
            if len(blob) <= 9:
                return blob[: len(blob) // 2]
            return blob[: rng.randrange(8, len(blob) - 1)]
        damaged = bytearray(blob)
        damaged[: min(12, len(damaged))] = b"\x00" * min(12, len(damaged))
        return bytes(damaged)

    def corrupt_file(self, path: Union[str, Path], mode: str = "flip-byte") -> None:
        """In-place :meth:`corrupt` of a checkpoint file."""
        path = Path(path)
        path.write_bytes(self.corrupt(path.read_bytes(), mode))

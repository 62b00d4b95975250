"""Deterministic fault injection for recovery testing.

A recovery path that is never exercised is a recovery path that does
not work.  This module manufactures the three failures a stream
processor actually meets — a process dying mid-stream, checkpoint bytes
rotting on disk, and clicks arriving late or out of order — as *pure,
seeded* transformations, so a test can kill the pipeline at click 137,
corrupt generation 2 of the checkpoint store, replay the identical
scenario, and assert bit-identical recovery.

Crashes are delivered as :class:`InjectedCrash`, a ``ReproError``
subclass that production code never raises or catches: if a recovery
test sees one escape the supervisor, the kill worked; if library code
swallows it, the test fails loudly.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Union

from ..errors import ConfigurationError, ReproError
from ..streams.click import Click

#: Byte-corruption modes understood by :meth:`FaultInjector.corrupt`.
CORRUPTION_MODES = ("flip-byte", "truncate", "zero-prefix")


class InjectedFault(ReproError, RuntimeError):
    """Base class for failures manufactured by :class:`FaultInjector`."""


class InjectedCrash(InjectedFault):
    """The simulated process kill: raised from inside the click stream."""


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
        injector: Optional["FaultInjector"] = None,
    ) -> None:
        self.fail_groups = frozenset(fail_groups)
        self.stall_groups = dict(stall_groups or {})
        self.fail_checkpoints = frozenset(fail_checkpoints)
        self._injector = injector
        self.groups_seen = 0
        self.checkpoints_seen = 0

    async def before_group(self, group) -> None:
        import asyncio

        index = self.groups_seen
        self.groups_seen += 1
        stall = self.stall_groups.get(index)
        if stall is not None:
            if self._injector is not None:
                self._injector._count_fault("engine-stall")
            await asyncio.sleep(stall)
        if index in self.fail_groups:
            if self._injector is not None:
                self._injector._count_fault("engine-fail")
            raise InjectedFault(f"injected engine failure before group {index}")

    def on_checkpoint(self) -> None:
        index = self.checkpoints_seen
        self.checkpoints_seen += 1
        if index in self.fail_checkpoints:
            if self._injector is not None:
                self._injector._count_fault("checkpoint-fail")
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
    """Seeded factory for crash, corruption, and disorder faults.

    Every method derives its randomness from ``seed`` plus its own
    arguments, never from global state, so the same injector replays
    the same faults — determinism is the whole point.
    """

    def __init__(self, seed: int = 0, registry=None) -> None:
        self.seed = seed
        self._fault_counter = (
            registry.counter(
                "repro_faults_injected_total",
                "Faults manufactured by the injector, by kind",
                labels=("kind",),
            )
            if registry is not None
            else None
        )

    def _count_fault(self, kind: str) -> None:
        if self._fault_counter is not None:
            self._fault_counter.labels(kind=kind).inc()

    def _rng(self, *salt: object) -> random.Random:
        return random.Random((self.seed, *salt).__repr__())

    # ------------------------------------------------------------------
    # Process kills
    # ------------------------------------------------------------------

    def crash_stream(
        self, clicks: Iterable[Click], crash_at: int
    ) -> Iterator[Click]:
        """Yield ``clicks`` but raise :class:`InjectedCrash` at index ``crash_at``.

        The crash fires *before* click ``crash_at`` is delivered —
        exactly ``crash_at`` clicks reach the consumer, mimicking a kill
        between two arrivals.
        """
        if crash_at < 0:
            raise ConfigurationError(f"crash_at must be >= 0, got {crash_at}")
        for index, click in enumerate(clicks):
            if index == crash_at:
                self._count_fault("crash")
                raise InjectedCrash(f"injected crash before click {crash_at}")
            yield click

    # ------------------------------------------------------------------
    # Checkpoint rot
    # ------------------------------------------------------------------

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
        self._count_fault("corrupt")
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

    # ------------------------------------------------------------------
    # Stream disorder
    # ------------------------------------------------------------------

    def reorder_stream(
        self, clicks: Iterable[Click], max_displacement: int
    ) -> Iterator[Click]:
        """Scramble arrival order within blocks of ``max_displacement + 1``.

        Timestamps are untouched, so the output interleaves clicks whose
        clocks regress by up to the block span — the fan-in disorder a
        :class:`~repro.resilience.ReorderBuffer` of capacity
        ``>= max_displacement`` fully repairs.
        """
        if max_displacement < 0:
            raise ConfigurationError(
                f"max_displacement must be >= 0, got {max_displacement}"
            )
        block: List[Click] = []
        block_index = 0
        for click in clicks:
            block.append(click)
            if len(block) > max_displacement:
                self._rng("reorder", block_index).shuffle(block)
                self._count_fault("reorder")
                yield from block
                block = []
                block_index += 1
        if block:
            self._rng("reorder", block_index).shuffle(block)
            self._count_fault("reorder")
            yield from block

    def delay_stream(
        self,
        clicks: Iterable[Click],
        hold_back: int,
        probability: float = 0.1,
    ) -> Iterator[Click]:
        """Randomly hold clicks back ``hold_back`` positions (straggler model).

        Each click is delayed independently with ``probability``; a
        delayed click is emitted after the next ``hold_back`` undelayed
        clicks pass it, its timestamp unchanged — a single slow
        collector among fast ones.
        """
        if hold_back < 0:
            raise ConfigurationError(f"hold_back must be >= 0, got {hold_back}")
        if not 0.0 <= probability <= 1.0:
            raise ConfigurationError(
                f"probability must be in [0, 1], got {probability}"
            )
        rng = self._rng("delay", hold_back)
        #: (remaining passes, click) for each straggler in flight
        held: List[List[object]] = []
        for click in clicks:
            if rng.random() < probability:
                held.append([hold_back, click])
                self._count_fault("delay")
                continue
            yield click
            ready: List[Click] = []
            for entry in held:
                entry[0] -= 1
                if entry[0] <= 0:
                    ready.append(entry[1])
            if ready:
                held = [entry for entry in held if entry[0] > 0]
                yield from ready
        for _, click in held:
            yield click

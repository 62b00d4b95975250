"""Age-partitioned sliding-window filters: the adaptive portfolio.

Two duplicate detectors built on *sliced* Bloom filters.  A sliced
filter is ``S = k + l`` equal bit slices; an element is reported a
duplicate exactly when some run of ``k`` consecutive slices (in age
order) all report a hit, and an insertion sets one bit in each of the
``k`` youngest slices:

* :class:`AgePartitionedBFDetector` — the Age-Partitioned Bloom Filter
  (Shtul et al., 2020).  Count-based: after every ``generation_size``
  insertions the oldest slice retires and a cleared slice becomes the
  youngest, so the filter always covers the last ``l * g`` insertions
  (zero false negatives in that window).
* :class:`TimeLimitedBFDetector` — the time-limited Bloom filter
  (Rodrigues et al., 2023).  The same slice machinery driven by the
  stream clock: slices retire on unit boundaries of a wall-clock
  window, so anything seen within the last ``duration`` is reported
  under any arrival rate.

Expiry is gradual in both, not exact.  An element ``j`` retirements
past its window keeps ``k - j`` bits in the oldest slices and is still
reported whenever the ``j`` younger slices of the run hit by chance;
its last bit retires only ``k`` retirements later (``(l + k) * g``
insertions for the APBF, ``duration`` plus ``k`` units for the
time-limited filter).  With planted twins (64 s window, 4 s units, a
steady 1,024 clicks/s) the time-limited filter still flagged 101 of
200 at 1.5 units past the window, 52 at 2.5, 23 at 3.5, 14 at 4.5 and
none from 9.5 units on.

One hash function attaches to each *physical* slice row and stays with
it while the row ages through every logical position, which makes
retirement a single row-zeroing rather than a rebuild, and makes the
FP rate of the structure exactly the run-of-``k`` closed form in
:func:`repro.bloom.params.sliced_false_positive_rate` evaluated at the
measured per-slice fills — the live gauge and the formula agree by
construction (property-tested in ``tests/test_adaptive.py``).

Operation accounting (shared by scalar and batch paths, equal in
closed form): every processed element costs ``S`` hash evaluations and
``S`` word reads; every insertion costs ``k`` word writes; every slice
retirement costs ``words_per_slice`` word writes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..bitset.words import OperationCounter
from ..bloom.params import apbf_false_positive_rate, sliced_false_positive_rate
from ..errors import ConfigurationError, StreamError
from ..hashing import HashFamily, SplitMixFamily
from ..core.batch import resolve_inserts, row_run
from ..core.checkpoint import (
    CheckpointError,
    _family_spec,
    _rebuild_family,
    pack_frame,
    register_checkpoint_kind,
    save_detector,
)
from ..core.contract import CountBasedDetector, TimeBasedDetector

__all__ = [
    "AgePartitionedBFDetector",
    "TimeLimitedBFDetector",
    "APBFPlan",
    "TLBFPlan",
    "plan_apbf_for_target",
    "plan_apbf_from_memory",
    "plan_tlbf_for_target",
    "plan_tlbf_from_memory",
]

class _SlicedFilter:
    """Shared machinery: slice storage, probes, inserts, retirement.

    Subclasses decide *when* slices retire (a generation counter for
    the APBF, the stream clock for the time-limited variant); this base
    owns the ring of physical rows, the hash family, the scalar and
    vectorized probe/insert paths, and the telemetry surface.
    """

    #: Upper bound on one vectorized run (bounds temp-array memory).
    _MAX_SEGMENT = 1 << 16

    def __init__(
        self,
        num_required: int,
        num_aged: int,
        slice_bits: int,
        seed: int = 0,
        family: Optional[HashFamily] = None,
    ) -> None:
        if num_required < 1:
            raise ConfigurationError(
                f"num_required must be >= 1, got {num_required}"
            )
        if num_aged < 1:
            raise ConfigurationError(f"num_aged must be >= 1, got {num_aged}")
        if slice_bits < 1:
            raise ConfigurationError(f"slice_bits must be >= 1, got {slice_bits}")
        self.num_required = int(num_required)
        self.num_aged = int(num_aged)
        self.num_slices = self.num_required + self.num_aged
        self.slice_bits = int(slice_bits)
        if family is None:
            family = SplitMixFamily(self.num_slices, slice_bits, seed)
        if family.num_hashes != self.num_slices:
            raise ConfigurationError(
                f"hash family size {family.num_hashes} != num_slices "
                f"{self.num_slices} (one hash per physical slice)"
            )
        if family.num_buckets != slice_bits:
            raise ConfigurationError(
                f"hash family range {family.num_buckets} != slice_bits "
                f"{slice_bits}"
            )
        self.family = family
        self.words_per_slice = -(-self.slice_bits // 64)
        self._slices = np.zeros(
            (self.num_slices, self.words_per_slice), dtype=np.uint64
        )
        #: Physical row of the youngest logical slice; logical age ``a``
        #: lives at physical row ``(base + a) % S``.
        self._base = 0
        #: Slice retirements so far (telemetry).
        self.shifts = 0
        self.counter = OperationCounter()
        #: Duplicate verdicts issued so far (telemetry; kept off the
        #: :class:`OperationCounter` to preserve its equality semantics).
        self.duplicates = 0

    # ------------------------------------------------------------------
    # Slice primitives
    # ------------------------------------------------------------------

    def _shift(self) -> None:
        """Retire the oldest slice: zero its row, make it the youngest."""
        row = (self._base + self.num_slices - 1) % self.num_slices
        self._slices[row, :] = 0
        self._base = row
        self.shifts += 1
        self.counter.word_writes += self.words_per_slice

    def _match_scalar(self, indices: Sequence[int]) -> bool:
        """Run-of-``k`` membership; ``indices`` in physical slice order."""
        words = self._slices
        num_slices = self.num_slices
        num_required = self.num_required
        base = self._base
        run = 0
        for age in range(num_slices):
            row = (base + age) % num_slices
            index = indices[row]
            if (int(words[row, index >> 6]) >> (index & 63)) & 1:
                run += 1
                if run >= num_required:
                    return True
            else:
                run = 0
        return False

    def _insert_scalar(self, indices: Sequence[int]) -> None:
        """Set one bit in each of the ``k`` youngest slices."""
        words = self._slices
        num_slices = self.num_slices
        base = self._base
        one = np.uint64(1)
        for age in range(self.num_required):
            row = (base + age) % num_slices
            index = indices[row]
            words[row, index >> 6] |= one << np.uint64(index & 63)

    # ------------------------------------------------------------------
    # Vectorized run (no retirement inside)
    # ------------------------------------------------------------------

    def _probe_run(self, idx: "np.ndarray"):
        """Resolve a retirement-free run of arrivals; mutates nothing.

        ``idx`` is ``(n, S)`` int64 hash indices in *physical* slice
        order (column ``p`` = the hash attached to physical row ``p``).
        Returns ``(duplicate, inserters, young)`` where ``young`` is
        the ``(n, k)`` young-slice index matrix in logical order, ready
        for :meth:`_apply_inserts`.

        Intra-run interactions are resolved exactly by
        :func:`repro.core.batch.resolve_inserts` with the run-of-``k``
        verdict: inserts touch the ``k`` young slices only, and each
        logical slice has its own hash, so slot ``s`` of young slice
        ``a`` is entry ``a * m + s`` of one ``k * m`` table.
        """
        n, num_slices = idx.shape
        num_required = self.num_required
        order = (self._base + np.arange(num_slices, dtype=np.int64)) % num_slices
        words = self._slices
        match0 = np.empty((n, num_slices), dtype=bool)
        for age in range(num_slices):
            row = int(order[age])
            col = idx[:, row]
            bits = words[row][col >> 6] >> (col & 63).astype(np.uint64)
            match0[:, age] = bits & np.uint64(1)
        young = idx[:, order[:num_required]]

        duplicate = row_run(match0, num_required)
        if n == 1 or duplicate.all():
            return duplicate, ~duplicate, young
        m = self.slice_bits
        duplicate, inserters, _, _ = resolve_inserts(
            duplicate,
            match0,
            young + np.arange(0, num_required * m, m, dtype=np.int64),
            num_required * m,
            need_covered=False,
            run=num_required,
        )
        return duplicate, inserters, young

    def _apply_inserts(self, young: "np.ndarray") -> None:
        """Set young-slice bits for inserting rows (``(j, k)`` indices)."""
        words = self._slices
        num_slices = self.num_slices
        base = self._base
        one = np.uint64(1)
        for age in range(self.num_required):
            row = (base + age) % num_slices
            col = young[:, age]
            np.bitwise_or.at(
                words[row], col >> 6, one << (col & 63).astype(np.uint64)
            )

    def _tally_run(self, n: int, num_inserts: int, duplicate: "np.ndarray") -> None:
        self.counter.elements += n
        self.counter.word_reads += self.num_slices * n
        self.counter.word_writes += self.num_required * int(num_inserts)
        self.duplicates += int(np.count_nonzero(duplicate))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def num_hashes(self) -> int:
        """Hash functions evaluated per element (one per slice)."""
        return self.family.num_hashes

    @property
    def memory_bits(self) -> int:
        """Physical footprint after word packing."""
        return self.num_slices * self.words_per_slice * 64

    @property
    def logical_memory_bits(self) -> int:
        """``(k + l) * m`` without word padding."""
        return self.num_slices * self.slice_bits

    @property
    def observed_duplicate_rate(self) -> float:
        """Fraction of processed clicks flagged duplicate so far."""
        return self.duplicates / self.counter.elements if self.counter.elements else 0.0

    def slice_fills(self) -> List[float]:
        """Per-slice fill fractions in logical age order (youngest first)."""
        m = self.slice_bits
        num_slices = self.num_slices
        fills = []
        for age in range(num_slices):
            row = (self._base + age) % num_slices
            pop = int(np.unpackbits(self._slices[row].view(np.uint8)).sum())
            fills.append(pop / m)
        return fills

    def estimated_fp_rate(self) -> float:
        """Live FP estimate: the exact run-of-``k`` closed form at the
        measured per-slice fills (same function the a-priori bounds
        use, so gauge and formula agree exactly)."""
        return sliced_false_positive_rate(self.slice_fills(), self.num_required)

    def checkpoint_state(self) -> bytes:
        """Serialized sketch state (invert with :func:`repro.core.load_detector`).

        Operational surface beside the
        :class:`~repro.detection.api.Detector` contract; delegates to the
        checkpoint registry (:func:`repro.core.save_detector`).
        """
        return save_detector(self)

    def _telemetry_common(self) -> dict:
        counter = self.counter
        fills = self.slice_fills()
        return {
            "gauges": {
                "estimated_fp_rate": sliced_false_positive_rate(
                    fills, self.num_required
                ),
                "observed_duplicate_rate": self.observed_duplicate_rate,
                "base_slice": self._base,
            },
            "counters": {
                "elements": counter.elements,
                "duplicates": self.duplicates,
                "hash_evaluations": counter.hash_evaluations,
                "word_reads": counter.word_reads,
                "word_writes": counter.word_writes,
                "shifts": self.shifts,
            },
            "fills": {
                f"slice{age}": fill for age, fill in enumerate(fills)
            },
        }


class AgePartitionedBFDetector(_SlicedFilter, CountBasedDetector):
    """Age-Partitioned Bloom Filter over a count-based sliding window.

    Parameters
    ----------
    num_required:
        ``k``, the young slices every insertion writes and the run
        length a duplicate verdict requires.
    num_aged:
        ``l``, the aged slices; the guaranteed window is
        ``l * generation_size`` insertions.
    slice_bits:
        ``m``, bits per slice.
    generation_size:
        ``g``, insertions per slice retirement.
    seed / family:
        Hash-family configuration (a pre-built family overrides
        ``seed``; it must provide ``k + l`` hashes over ``m`` bits).
    """

    def __init__(
        self,
        num_required: int,
        num_aged: int,
        slice_bits: int,
        generation_size: int,
        seed: int = 0,
        family: Optional[HashFamily] = None,
    ) -> None:
        super().__init__(num_required, num_aged, slice_bits, seed, family)
        if generation_size < 1:
            raise ConfigurationError(
                f"generation_size must be >= 1, got {generation_size}"
            )
        self.generation_size = int(generation_size)
        self._generation_count = 0

    # -- stream interface ---------------------------------------------

    def process(self, identifier: int) -> bool:
        """Observe the next click; True means duplicate (not recorded)."""
        self.counter.hash_evaluations += self.family.num_hashes
        return self.process_indices(self.family.indices(identifier))

    def process_indices(self, indices: Sequence[int]) -> bool:
        """Observe the next click given pre-computed hash indices."""
        self.counter.elements += 1
        self.counter.word_reads += self.num_slices
        if self._match_scalar(indices):
            self.duplicates += 1
            return True
        self._insert_scalar(indices)
        self.counter.word_writes += self.num_required
        self._generation_count += 1
        if self._generation_count >= self.generation_size:
            self._shift()
            self._generation_count = 0
        return False

    def query(self, identifier: int) -> bool:
        """Side-effect-free duplicate check against the current slices."""
        return self.query_indices(self.family.indices(identifier))

    def query_indices(self, indices: Sequence[int]) -> bool:
        return self._match_scalar(indices)

    # -- batch interface ----------------------------------------------

    def process_batch(self, identifiers: "np.ndarray") -> "np.ndarray":
        """Observe a batch of clicks; bit-identical to a scalar loop."""
        identifiers = np.asarray(identifiers, dtype=np.uint64)
        if identifiers.ndim != 1:
            raise ValueError(f"identifiers must be 1-D, got {identifiers.ndim}-D")
        self.counter.hash_evaluations += self.family.num_hashes * int(
            identifiers.shape[0]
        )
        return self.process_indices_batch(self.family.indices_batch(identifiers))

    def process_indices_batch(self, indices: "np.ndarray") -> "np.ndarray":
        """Batch variant of :meth:`process_indices` (``(n, S)`` indices).

        Each run holds at most as many rows as the current generation
        has inserts left, so no retirement can fall inside it: a run
        that fills the generation does so with its last row, and the
        slice retires after the run.  Every row is probed once.
        """
        idx = np.asarray(indices)
        if idx.ndim != 2:
            raise ValueError(f"indices must be (n, S), got {idx.ndim}-D")
        idx = idx.astype(np.int64, copy=False)
        n = idx.shape[0]
        out = np.empty(n, dtype=bool)
        start = 0
        while start < n:
            capacity = self.generation_size - self._generation_count
            stop = min(n, start + self._MAX_SEGMENT, start + capacity)
            duplicate, inserters, young = self._probe_run(idx[start:stop])
            ins = np.nonzero(inserters)[0]
            if ins.size:
                self._apply_inserts(young[ins])
            self._tally_run(stop - start, ins.size, duplicate)
            out[start:stop] = duplicate
            self._generation_count += int(ins.size)
            if self._generation_count == self.generation_size:
                self._shift()
                self._generation_count = 0
            start = stop
        return out

    # -- introspection -------------------------------------------------

    @property
    def guaranteed_window(self) -> int:
        """Insertions always remembered: ``l * generation_size``."""
        return self.num_aged * self.generation_size

    def theoretical_fp_bound(self) -> float:
        """Worst-case (end-of-generation) design FP rate."""
        return apbf_false_positive_rate(
            self.num_required, self.num_aged, self.slice_bits, self.generation_size
        )

    def spec(self):
        """The :class:`~repro.detection.DetectorSpec` rebuilding this detector."""
        from ..detection.detector import APBFParams, DetectorSpec, WindowSpec

        if type(self.family) is not SplitMixFamily:
            raise ConfigurationError(
                "spec() requires the default SplitMixFamily; "
                f"this detector uses {type(self.family).__name__}"
            )
        return DetectorSpec(
            algorithm="apbf",
            window=WindowSpec("sliding", self.guaranteed_window),
            params=APBFParams(
                num_required=self.num_required,
                num_aged=self.num_aged,
                slice_bits=self.slice_bits,
                generation_size=self.generation_size,
            ),
            seed=self.family.seed,
        )

    def telemetry_snapshot(self) -> dict:
        """Health metrics for :mod:`repro.telemetry.instruments`."""
        snapshot = self._telemetry_common()
        snapshot["gauges"]["generation_fill"] = (
            self._generation_count / self.generation_size
        )
        return snapshot

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AgePartitionedBFDetector(k={self.num_required}, l={self.num_aged}, "
            f"m={self.slice_bits}, g={self.generation_size})"
        )


class TimeLimitedBFDetector(_SlicedFilter, TimeBasedDetector):
    """Time-limited Bloom filter over a wall-clock sliding window.

    Parameters
    ----------
    duration:
        Window length ``T`` in stream time units; an inserted element
        stays detectable for at least ``duration``.
    num_required / num_aged / slice_bits / seed / family:
        As in :class:`AgePartitionedBFDetector`; the expiry granularity
        is ``duration / num_aged`` (one slice retires per elapsed
        unit).
    """

    def __init__(
        self,
        duration: float,
        num_required: int,
        num_aged: int,
        slice_bits: int,
        seed: int = 0,
        family: Optional[HashFamily] = None,
    ) -> None:
        super().__init__(num_required, num_aged, slice_bits, seed, family)
        if duration <= 0:
            raise ConfigurationError(f"duration must be > 0, got {duration}")
        self.duration = float(duration)
        self.unit_duration = self.duration / self.num_aged
        self._last_unit: Optional[int] = None
        self._last_time: Optional[float] = None

    # -- clock handling ------------------------------------------------

    def _advance_clock(self, timestamp: float) -> None:
        """Retire one slice per elapsed time unit (at most ``S``)."""
        if self._last_time is not None and timestamp < self._last_time:
            raise StreamError(
                f"timestamp regressed: {timestamp} after {self._last_time}"
            )
        self._last_time = timestamp
        unit = int(timestamp // self.unit_duration)
        if self._last_unit is None:
            self._last_unit = unit
            return
        elapsed = unit - self._last_unit
        self._last_unit = unit
        if elapsed <= 0:
            return
        for _ in range(min(elapsed, self.num_slices)):
            self._shift()

    # -- stream interface ---------------------------------------------

    def process_at(self, identifier: int, timestamp: float) -> bool:
        """Observe a click at ``timestamp``; True means duplicate."""
        self.counter.hash_evaluations += self.family.num_hashes
        return self.process_indices_at(self.family.indices(identifier), timestamp)

    def process_indices_at(self, indices: Sequence[int], timestamp: float) -> bool:
        self._advance_clock(timestamp)
        self.counter.elements += 1
        self.counter.word_reads += self.num_slices
        if self._match_scalar(indices):
            self.duplicates += 1
            return True
        self._insert_scalar(indices)
        self.counter.word_writes += self.num_required
        return False

    def query_at(self, identifier: int, timestamp: float) -> bool:
        """Duplicate check at ``timestamp`` without recording the element.

        Advances the slice clock (time passes regardless) but does not
        insert.
        """
        indices = self.family.indices(identifier)
        self._advance_clock(timestamp)
        return self._match_scalar(indices)

    # -- batch interface ----------------------------------------------

    def process_batch_at(
        self, identifiers: "np.ndarray", timestamps: "np.ndarray"
    ) -> "np.ndarray":
        """Observe a batch of clicks with timestamps; bit-identical to a
        scalar :meth:`process_at` loop.

        Arrivals sharing a time unit form one vectorized run (no slice
        retires inside a unit); unit boundaries advance the clock
        scalar-style.  A regressing timestamp raises
        :class:`~repro.errors.StreamError` exactly as the scalar loop
        would: the elements before it are fully processed, the
        regressing element is not.
        """
        identifiers = np.asarray(identifiers, dtype=np.uint64)
        timestamps = np.asarray(timestamps, dtype=np.float64)
        if identifiers.ndim != 1:
            raise ValueError(f"identifiers must be 1-D, got {identifiers.ndim}-D")
        if timestamps.shape != identifiers.shape:
            raise ValueError(
                f"timestamps shape {timestamps.shape} != identifiers "
                f"shape {identifiers.shape}"
            )
        n = identifiers.shape[0]
        out = np.empty(n, dtype=bool)
        if n == 0:
            return out
        previous = np.empty(n, dtype=np.float64)
        previous[0] = self._last_time if self._last_time is not None else -np.inf
        previous[1:] = timestamps[:-1]
        regressions = np.nonzero(timestamps < previous)[0]
        limit = int(regressions[0]) if regressions.size else n
        # The scalar loop hashes the regressing element before its
        # _advance_clock raises, so it is included in the tally.
        self.counter.hash_evaluations += self.family.num_hashes * min(limit + 1, n)
        if limit:
            idx = self.family.indices_batch(identifiers[:limit]).astype(
                np.int64, copy=False
            )
            units = np.floor_divide(timestamps[:limit], self.unit_duration).astype(
                np.int64
            )
            start = 0
            while start < limit:
                self._advance_clock(float(timestamps[start]))
                end = int(np.searchsorted(units, units[start], side="right"))
                end = min(end, start + self._MAX_SEGMENT)
                duplicate, inserters, young = self._probe_run(idx[start:end])
                ins = np.nonzero(inserters)[0]
                if ins.size:
                    self._apply_inserts(young[ins])
                self._tally_run(end - start, ins.size, duplicate)
                out[start:end] = duplicate
                self._last_time = float(timestamps[end - 1])
                start = end
        if limit < n:
            raise StreamError(
                f"timestamp regressed: {float(timestamps[limit])} "
                f"after {float(previous[limit])}"
            )
        return out

    # -- introspection -------------------------------------------------

    def spec(self):
        """The :class:`~repro.detection.DetectorSpec` rebuilding this detector."""
        from ..detection.detector import DetectorSpec, TLBFParams, WindowSpec

        if type(self.family) is not SplitMixFamily:
            raise ConfigurationError(
                "spec() requires the default SplitMixFamily; "
                f"this detector uses {type(self.family).__name__}"
            )
        return DetectorSpec(
            algorithm="time-limited-bf",
            window=WindowSpec("sliding", max(1, self.slice_bits)),
            params=TLBFParams(
                num_required=self.num_required,
                num_aged=self.num_aged,
                slice_bits=self.slice_bits,
            ),
            duration=self.duration,
            resolution=self.num_aged,
            seed=self.family.seed,
        )

    def telemetry_snapshot(self) -> dict:
        """Health metrics for :mod:`repro.telemetry.instruments`."""
        snapshot = self._telemetry_common()
        snapshot["gauges"]["time_unit"] = (
            self._last_unit if self._last_unit is not None else -1
        )
        return snapshot

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TimeLimitedBFDetector(T={self.duration}, k={self.num_required}, "
            f"l={self.num_aged}, m={self.slice_bits})"
        )


# ----------------------------------------------------------------------
# Sizing planners (consumed by repro.detection.detector)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class APBFPlan:
    num_required: int
    num_aged: int
    slice_bits: int
    generation_size: int


@dataclass(frozen=True)
class TLBFPlan:
    num_required: int
    num_aged: int
    slice_bits: int


def plan_apbf_for_target(window_size: int, target_fp: float) -> APBFPlan:
    """Smallest APBF design meeting ``target_fp`` over ``window_size``.

    Follows the Shtul et al. recipe (``l = 2 * ceil(log2(1/f))``, then
    ``k`` against the ``l + 1`` run starts), then grows the slice until
    the exact design bound satisfies the target, so the returned plan
    is sufficient, not merely approximately so.
    """
    if window_size < 1:
        raise ConfigurationError(f"window_size must be >= 1, got {window_size}")
    if not 0.0 < target_fp < 1.0:
        raise ConfigurationError(f"target_fp must be in (0, 1), got {target_fp}")
    base_k = max(1, math.ceil(math.log2(1.0 / target_fp)))
    num_aged = 2 * base_k
    num_required = max(1, math.ceil(math.log2((num_aged + 1) / target_fp)))
    generation = max(1, window_size // num_aged)
    slice_bits = max(8, round(num_required * generation / math.log(2)))
    while (
        apbf_false_positive_rate(num_required, num_aged, slice_bits, generation)
        > target_fp
    ):
        slice_bits = math.ceil(slice_bits * 1.05) + 1
    return APBFPlan(num_required, num_aged, slice_bits, generation)


def plan_apbf_from_memory(
    window_size: int, memory_bits: int, num_required: Optional[int] = None
) -> APBFPlan:
    """Best APBF design inside a total memory budget of ``memory_bits``."""
    if window_size < 1:
        raise ConfigurationError(f"window_size must be >= 1, got {window_size}")
    if memory_bits < 1:
        raise ConfigurationError(f"memory_bits must be >= 1, got {memory_bits}")
    if num_required is not None:
        num_aged = 2 * num_required
        generation = max(1, window_size // num_aged)
        slice_bits = max(1, memory_bits // (num_required + num_aged))
        return APBFPlan(num_required, num_aged, slice_bits, generation)
    best = None
    for k in range(2, 21):
        num_aged = 2 * k
        generation = max(1, window_size // num_aged)
        slice_bits = max(1, memory_bits // (k + num_aged))
        rate = apbf_false_positive_rate(k, num_aged, slice_bits, generation)
        if best is None or rate < best[0]:
            best = (rate, k, num_aged, slice_bits, generation)
    _, k, num_aged, slice_bits, generation = best
    return APBFPlan(k, num_aged, slice_bits, generation)


def plan_tlbf_for_target(
    window_size: int, num_aged: int, target_fp: float
) -> TLBFPlan:
    """Time-limited-BF design meeting ``target_fp`` at the expected load.

    ``window_size`` is the expected arrivals per window; the per-unit
    load estimate ``window_size / num_aged`` plays the APBF generation
    role in the sizing bound (the realized FP rate is load-dependent,
    which is what the live gauge plus the adaptive controller manage).
    """
    if window_size < 1:
        raise ConfigurationError(f"window_size must be >= 1, got {window_size}")
    if num_aged < 1:
        raise ConfigurationError(f"num_aged must be >= 1, got {num_aged}")
    if not 0.0 < target_fp < 1.0:
        raise ConfigurationError(f"target_fp must be in (0, 1), got {target_fp}")
    num_required = max(1, math.ceil(math.log2((num_aged + 1) / target_fp)))
    generation = max(1, round(window_size / num_aged))
    slice_bits = max(8, round(num_required * generation / math.log(2)))
    while (
        apbf_false_positive_rate(num_required, num_aged, slice_bits, generation)
        > target_fp
    ):
        slice_bits = math.ceil(slice_bits * 1.05) + 1
    return TLBFPlan(num_required, num_aged, slice_bits)


def plan_tlbf_from_memory(
    window_size: int,
    num_aged: int,
    memory_bits: int,
    num_required: Optional[int] = None,
) -> TLBFPlan:
    """Best time-limited-BF design inside a total memory budget."""
    if window_size < 1:
        raise ConfigurationError(f"window_size must be >= 1, got {window_size}")
    if num_aged < 1:
        raise ConfigurationError(f"num_aged must be >= 1, got {num_aged}")
    if memory_bits < 1:
        raise ConfigurationError(f"memory_bits must be >= 1, got {memory_bits}")
    if num_required is not None:
        slice_bits = max(1, memory_bits // (num_required + num_aged))
        return TLBFPlan(num_required, num_aged, slice_bits)
    generation = max(1, round(window_size / num_aged))
    best = None
    for k in range(2, 21):
        slice_bits = max(1, memory_bits // (k + num_aged))
        rate = apbf_false_positive_rate(k, num_aged, slice_bits, generation)
        if best is None or rate < best[0]:
            best = (rate, k, slice_bits)
    _, k, slice_bits = best
    return TLBFPlan(k, num_aged, slice_bits)


# ----------------------------------------------------------------------
# Checkpoint kinds
# ----------------------------------------------------------------------

def _save_apbf(detector: AgePartitionedBFDetector) -> bytes:
    header = {
        "kind": "apbf",
        "num_required": detector.num_required,
        "num_aged": detector.num_aged,
        "slice_bits": detector.slice_bits,
        "generation_size": detector.generation_size,
        "family": _family_spec(detector.family),
        "base": detector._base,
        "generation_count": detector._generation_count,
        "shifts": detector.shifts,
        "duplicates": detector.duplicates,
    }
    return pack_frame(header, detector._slices.tobytes())


def _load_apbf(header, payload) -> AgePartitionedBFDetector:
    family = _rebuild_family(header["family"])
    try:
        detector = AgePartitionedBFDetector(
            header["num_required"],
            header["num_aged"],
            header["slice_bits"],
            header["generation_size"],
            family=family,
        )
        words = np.frombuffer(payload, dtype=np.uint64).copy()
        if words.size != detector._slices.size:
            raise CheckpointError("APBF payload size does not match configuration")
        detector._slices = words.reshape(detector._slices.shape)
        detector._base = int(header["base"])
        detector._generation_count = int(header["generation_count"])
        detector.shifts = int(header.get("shifts", 0))
        detector.duplicates = int(header.get("duplicates", 0))
    except KeyError as error:
        raise CheckpointError(f"missing APBF checkpoint field: {error}") from error
    return detector


def _save_tlbf(detector: TimeLimitedBFDetector) -> bytes:
    header = {
        "kind": "time-limited-bf",
        "duration": detector.duration,
        "num_required": detector.num_required,
        "num_aged": detector.num_aged,
        "slice_bits": detector.slice_bits,
        "family": _family_spec(detector.family),
        "base": detector._base,
        "last_unit": detector._last_unit,
        "last_time": detector._last_time,
        "shifts": detector.shifts,
        "duplicates": detector.duplicates,
    }
    return pack_frame(header, detector._slices.tobytes())


def _load_tlbf(header, payload) -> TimeLimitedBFDetector:
    family = _rebuild_family(header["family"])
    try:
        detector = TimeLimitedBFDetector(
            header["duration"],
            header["num_required"],
            header["num_aged"],
            header["slice_bits"],
            family=family,
        )
        words = np.frombuffer(payload, dtype=np.uint64).copy()
        if words.size != detector._slices.size:
            raise CheckpointError(
                "time-limited-BF payload size does not match configuration"
            )
        detector._slices = words.reshape(detector._slices.shape)
        detector._base = int(header["base"])
        detector._last_unit = header["last_unit"]
        detector._last_time = header["last_time"]
        detector.shifts = int(header.get("shifts", 0))
        detector.duplicates = int(header.get("duplicates", 0))
    except KeyError as error:
        raise CheckpointError(
            f"missing time-limited-BF checkpoint field: {error}"
        ) from error
    return detector


register_checkpoint_kind(
    "apbf", AgePartitionedBFDetector, _save_apbf, _load_apbf
)
register_checkpoint_kind(
    "time-limited-bf", TimeLimitedBFDetector, _save_tlbf, _load_tlbf
)

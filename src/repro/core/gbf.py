"""GBF algorithm — duplicate detection over jumping windows (§3 of the paper).

The construction
----------------
A jumping window of ``N`` arrivals is split into ``Q`` sub-windows of
``N/Q`` arrivals.  A naive design keeps one ``m``-bit Bloom filter per
sub-window, but then every duplicate check touches ``Q * k`` memory
words and every expiry needs an ``O(m)`` cleaning burst.

The *Group Bloom Filter* fixes both problems:

1. **Lane interleaving.**  ``Q + 1`` logical Bloom filters (the
   "lanes") share one hash family, and bit ``i`` of every lane is
   packed into the same machine word — with ``Q + 1 <= D`` several
   whole slots per word (see
   :class:`~repro.core.lanes.LanePackedBitMatrix`).  A duplicate check
   reads the ``k`` hashed words, ANDs them, and masks to the active
   lanes — any surviving 1 bit means some active sub-window saw all
   ``k`` positions: ``k`` reads instead of ``Q * k``.

2. **Spare lane + incremental cleaning.**  The extra ``(Q+1)``-th lane
   lets the filter that expired at the last jump be zeroed *gradually*
   — ``ceil(m / (N/Q))`` slots per arrival, which dense packing turns
   into ``~(Q+1)/D`` of that many word operations — while a fresh,
   already-clean lane receives the new sub-window's insertions.  Lanes
   rotate round-robin: sub-window ``s`` writes lane ``s mod (Q+1)``,
   and the lane that expires when sub-window ``s`` begins is exactly
   the lane sub-window ``s + 1`` will need, so each lane has one full
   sub-window of arrivals to get clean.

Properties (Theorem 1): zero false negatives; false positive rate
``O(Q)`` times a single sub-filter's; worst-case ``O(Q/D * M/N)`` word
operations per element.

The §3.1 time-based extension is the same lane matrix under another
cleaning clock.  :class:`GroupFilter` is that matrix — lane masks and
rotation, the scalar and batch probe/insert, introspection, telemetry
and the checkpoint codec — and each variant keeps its own clock:
:class:`GBFDetector` rotates every ``N/Q`` arrivals and cleans a quota
per arrival, :class:`~repro.core.gbf_timebased.TimeBasedGBFDetector`
rotates every ``T/Q`` of stream time and cleans a quota per time unit.
"""

from __future__ import annotations

from functools import partial
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..bitset.words import OperationCounter
from ..bloom.params import false_positive_rate, false_positive_rate_from_fill
from ..errors import ConfigurationError
from ..hashing import HashFamily, SplitMixFamily
from . import kernels
from .batch import resolve_inserts
from .checkpoint import (
    CheckpointError,
    _family_spec,
    _rebuild_family,
    pack_frame,
    register_checkpoint_kind,
    save_detector,
)
from .contract import HashedCountDetector, index_matrix, spec_seed
from .lanes import LanePackedBitMatrix


class GroupFilter:
    """The GBF lane matrix under any cleaning clock.

    A variant calls :meth:`_init_lanes` and supplies:

    * its clock: when to :meth:`_rotate_to` a sub-window and how many
      slots of the cleaning lane to :meth:`_clean` (scalar) or to clear
      ahead of a :meth:`_fused_probe` (batch);
    * ``kind``, ``_CONFIG`` and ``_STATE``: the checkpoint kind, the
      constructor arguments the header records, and the clock state
      it restores (attribute ``_<name>``);
    * ``current_subwindow`` (telemetry counts it as ``rotations``),
      ``spec()`` and, when it has one, ``theoretical_fp_bound()``.
    """

    #: Upper bound on one vectorized segment (bounds temp-array memory).
    _MAX_SEGMENT = 1 << 16

    kind: str
    _CONFIG: Tuple[str, ...]
    _STATE: Tuple[str, ...]

    def __init_subclass__(cls, **kwargs) -> None:
        # Every variant that names its kind checkpoints through the one
        # codec below.
        super().__init_subclass__(**kwargs)
        if "kind" in vars(cls):
            register_checkpoint_kind(
                cls.kind, cls, _save_group_filter, partial(_load_group_filter, cls)
            )

    def _init_lanes(
        self,
        num_subwindows: int,
        bits_per_filter: int,
        num_hashes: int,
        word_bits: int,
        seed: int,
        family: Optional[HashFamily],
    ) -> None:
        if bits_per_filter < 1:
            raise ConfigurationError(
                f"bits_per_filter must be >= 1, got {bits_per_filter}"
            )
        if family is None:
            family = SplitMixFamily(num_hashes, bits_per_filter, seed)
        if family.num_buckets != bits_per_filter:
            raise ConfigurationError(
                f"hash family range {family.num_buckets} != bits_per_filter "
                f"{bits_per_filter}"
            )
        self.num_subwindows = num_subwindows
        self.bits_per_filter = bits_per_filter
        self.word_bits = word_bits
        self.family = family
        self.num_lanes = num_subwindows + 1

        self.counter = OperationCounter()
        #: Duplicate verdicts issued so far (telemetry; not part of
        #: :class:`OperationCounter` so its equality semantics stay put).
        self.duplicates = 0
        self._matrix = LanePackedBitMatrix(
            bits_per_filter, self.num_lanes, word_bits, self.counter
        )
        self._current_lane = 0
        self._cleaning_lane: Optional[int] = None
        self._clean_cursor = bits_per_filter  # nothing to clean yet
        # Active-lane mask, shaped like the matrix's probe result: one
        # field when lanes fit a word, else one int per word offset.
        self._active_masks = [0] * self._matrix.words_per_slot
        self._lane_bit(0, set_active=True)

    # ------------------------------------------------------------------
    # Lane bookkeeping
    # ------------------------------------------------------------------

    @property
    def words_per_slot(self) -> int:
        """Words per probed slot group (1 when ``Q + 1 <= D``)."""
        return self._matrix.words_per_slot

    @property
    def slots_per_word(self) -> int:
        """Fields densely packed per word (``D // (Q+1)`` when it fits)."""
        return self._matrix.slots_per_word

    def _lane_position(self, lane: int) -> Tuple[int, int]:
        """``(word offset, bit)`` of ``lane`` in the active-lane masks."""
        if self._matrix.words_per_slot == 1:
            return 0, lane
        return divmod(lane, self.word_bits)

    def _lane_bit(self, lane: int, set_active: bool) -> None:
        """Add or remove ``lane`` from the active-lane masks."""
        offset, bit = self._lane_position(lane)
        if set_active:
            self._active_masks[offset] |= 1 << bit
        else:
            self._active_masks[offset] &= ~(1 << bit)

    def _rotate_to(self, subwindow: int) -> None:
        """Make ``subwindow``'s lane current and start cleaning the
        lane that just expired.

        Sub-window ``subwindow - Q`` expires; its lane is
        ``(subwindow - Q) mod (Q+1) == (subwindow + 1) mod (Q+1)`` —
        exactly the lane the *next* sub-window will claim.
        """
        new_lane = subwindow % self.num_lanes
        self._current_lane = new_lane
        self._lane_bit(new_lane, set_active=True)
        if subwindow >= self.num_subwindows:
            expired_lane = (subwindow + 1) % self.num_lanes
            self._lane_bit(expired_lane, set_active=False)
            self._cleaning_lane = expired_lane
            self._clean_cursor = 0

    @property
    def _cleaning(self) -> bool:
        """Whether the cleaning lane still has slots to zero."""
        return (
            self._cleaning_lane is not None
            and self._clean_cursor < self.bits_per_filter
        )

    def _clean(self, budget: int) -> None:
        """Zero the cleaning lane's bit in the next ``budget`` slots."""
        if not self._cleaning or budget <= 0:
            return
        self._matrix.clear_lane_range(self._cleaning_lane, self._clean_cursor, budget)
        self._clean_cursor = min(self._clean_cursor + budget, self.bits_per_filter)

    # ------------------------------------------------------------------
    # Probe and insert
    # ------------------------------------------------------------------

    def _insert(self, indices: Sequence[int]) -> bool:
        """Probe the active lanes, insert into the current one on a miss;
        True means duplicate."""
        combined = self._matrix.probe_and(indices)
        self.counter.elements += 1
        masks = self._active_masks
        for offset, field in enumerate(combined):
            if field & masks[offset]:
                self.duplicates += 1
                return True
        self._matrix.set_lane(indices, self._current_lane)
        return False

    def query_indices(self, indices: Sequence[int]) -> bool:
        """Side-effect-free duplicate check against the active lanes."""
        combined = self._matrix.probe_and(indices)
        masks = self._active_masks
        return any(field & masks[offset] for offset, field in enumerate(combined))

    def _fused_probe(self, idx: "np.ndarray", out: "np.ndarray") -> None:
        """Vectorized probe/insert of one rotation-free run of arrivals.

        Dense layout only.  Cleaning touches the cleaning lane alone,
        which is neither active nor current, so a variant clears the
        run's quota before this call and every verdict, bit mutation
        and op tally equals the scalar interleaving; intra-run
        duplicates are resolved exactly by
        :func:`repro.core.batch.resolve_inserts`.
        """
        n = idx.shape[0]
        matrix = self._matrix
        fields = matrix.probe_fields_batch(idx)
        self.counter.elements += n
        mask = np.uint64(self._active_masks[0])
        dup0 = (kernels.row_and(fields) & mask) != 0
        cov0 = ((fields >> np.uint64(self._current_lane)) & np.uint64(1)).astype(bool)
        duplicate, inserters, _, _ = resolve_inserts(
            dup0, cov0, idx, matrix.num_slots, need_covered=False
        )
        ins = np.nonzero(inserters)[0]
        if ins.size:
            matrix.or_lane_batch(idx if ins.size == n else idx[ins], self._current_lane)
        self.duplicates += int(np.count_nonzero(duplicate))
        out[:] = duplicate

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def num_hashes(self) -> int:
        return self.family.num_hashes

    @property
    def memory_bits(self) -> int:
        """Physical modeled footprint after word packing."""
        return self._matrix.memory_bits

    @property
    def logical_memory_bits(self) -> int:
        """The paper's ``M = m * (Q + 1)`` (no word padding)."""
        return self.bits_per_filter * self.num_lanes

    def active_lanes(self) -> List[int]:
        """Indices of lanes currently counted in duplicate checks."""
        lanes = []
        for lane in range(self.num_lanes):
            offset, bit = self._lane_position(lane)
            if self._active_masks[offset] >> bit & 1:
                lanes.append(lane)
        return lanes

    def lane_bits_set(self, lane: int) -> int:
        """Population count of one lane (testing/diagnostics)."""
        return self._matrix.lane_population(lane)

    @property
    def observed_duplicate_rate(self) -> float:
        """Fraction of processed clicks flagged duplicate so far."""
        return self.duplicates / self.counter.elements if self.counter.elements else 0.0

    def _fp_from_populations(self, populations: Iterable[int]) -> float:
        """``1 - prod_i (1 - f_i^k)`` over the given lanes' populations."""
        product = 1.0
        m = self.bits_per_filter
        k = self.num_hashes
        for population in populations:
            product *= 1.0 - false_positive_rate_from_fill(population / m, k)
        return 1.0 - product

    def estimated_fp_rate(self) -> float:
        """Live FP estimate from the lanes' *measured* fill.

        A query is a false positive when at least one active lane has
        all ``k`` probed bits set, so with per-lane fills ``f_i`` the
        rate is ``1 - prod_i (1 - f_i^k)`` — the union bound of §3 made
        exact for the current fill state.
        """
        return self._fp_from_populations(
            self._matrix.lane_population(lane) for lane in self.active_lanes()
        )

    def _spec_seed(self) -> int:
        """The family seed a spec carries (default family and word size)."""
        seed = spec_seed(self.family)
        if self.word_bits != 64:
            raise ConfigurationError(
                f"spec() cannot express word_bits={self.word_bits}"
            )
        return seed

    def checkpoint_state(self) -> bytes:
        """Serialized sketch state (invert with :func:`repro.core.load_detector`).

        Operational surface beside the
        :class:`~repro.detection.api.Detector` contract; delegates to the
        checkpoint registry (:func:`repro.core.save_detector`).
        """
        return save_detector(self)

    def telemetry_snapshot(self) -> dict:
        """Health metrics for :mod:`repro.telemetry.instruments`."""
        counter = self.counter
        # One population count per lane, shared by the fill gauges and
        # the FP estimate (same floats as estimated_fp_rate()).
        m = self.bits_per_filter
        pops = [self._matrix.lane_population(lane) for lane in range(self.num_lanes)]
        active = self.active_lanes()
        return {
            "gauges": {
                **self._clock_gauge(),
                "estimated_fp_rate": self._fp_from_populations(
                    pops[lane] for lane in active
                ),
                "observed_duplicate_rate": self.observed_duplicate_rate,
                "clean_cursor": self._clean_cursor if self._cleaning else 0,
                "active_lanes": len(active),
            },
            "counters": {
                "elements": counter.elements,
                "duplicates": self.duplicates,
                "hash_evaluations": counter.hash_evaluations,
                "word_reads": counter.word_reads,
                "word_writes": counter.word_writes,
                "rotations": self.current_subwindow,
            },
            "fills": {
                f"lane{lane}": pops[lane] / m
                for lane in range(self.num_lanes)
            },
        }


def _save_group_filter(detector: GroupFilter) -> bytes:
    cls = type(detector)
    header = {
        "kind": cls.kind,
        **{name: getattr(detector, name) for name in cls._CONFIG},
        "family": _family_spec(detector.family),
        **{name: getattr(detector, "_" + name) for name in cls._STATE},
        "active_masks": [str(mask) for mask in detector._active_masks],
        "duplicates": detector.duplicates,
    }
    return pack_frame(header, detector._matrix._words.tobytes())


def _load_group_filter(cls, header, payload: bytes) -> GroupFilter:
    family = _rebuild_family(header["family"])
    try:
        detector = cls(**{name: header[name] for name in cls._CONFIG}, family=family)
        if len(payload) != detector._matrix._words.nbytes:
            raise CheckpointError(
                f"{cls.kind} payload size does not match configuration"
            )
        detector._matrix._words = np.frombuffer(payload, dtype=np.uint64).copy()
        for name in cls._STATE:
            setattr(detector, "_" + name, header[name])
        detector._active_masks = [int(mask) for mask in header["active_masks"]]
        detector.duplicates = int(header.get("duplicates", 0))
    except KeyError as error:
        raise CheckpointError(
            f"missing {cls.kind} checkpoint field: {error}"
        ) from error
    return detector


class GBFDetector(GroupFilter, HashedCountDetector):
    """One-pass duplicate-click detector over a count-based jumping window.

    Parameters
    ----------
    window_size:
        Jumping-window size ``N`` in arrivals; must be divisible by
        ``num_subwindows``.
    num_subwindows:
        ``Q``, the number of sub-windows the window jumps by.
    bits_per_filter:
        ``m``, the size of each of the ``Q + 1`` lane filters.  The
        paper's total budget is ``M = m * (Q + 1)`` bits
        (:attr:`logical_memory_bits`); the physical footprint after
        word packing is :attr:`memory_bits`.
    num_hashes:
        ``k`` hash functions, shared by all lanes (§3.1: "all Bloom
        filters should use the same set of hash functions").
    word_bits:
        Modeled machine-word width ``D``.
    seed / family:
        Hash-family configuration (a pre-built family overrides
        ``num_hashes``/``seed``).
    """

    kind = "gbf"
    _CONFIG = ("window_size", "num_subwindows", "bits_per_filter", "word_bits")
    _STATE = ("position", "current_lane", "cleaning_lane", "clean_cursor")

    def __init__(
        self,
        window_size: int,
        num_subwindows: int,
        bits_per_filter: int,
        num_hashes: int = 4,
        word_bits: int = 64,
        seed: int = 0,
        family: Optional[HashFamily] = None,
    ) -> None:
        if window_size < 1:
            raise ConfigurationError(f"window_size must be >= 1, got {window_size}")
        if num_subwindows < 1:
            raise ConfigurationError(
                f"num_subwindows must be >= 1, got {num_subwindows}"
            )
        if window_size % num_subwindows != 0:
            raise ConfigurationError(
                f"window_size {window_size} not divisible by Q={num_subwindows}"
            )
        self.window_size = window_size
        self.subwindow_size = window_size // num_subwindows
        self._init_lanes(
            num_subwindows, bits_per_filter, num_hashes, word_bits, seed, family
        )
        # Cleaning quota: finish m slots within one sub-window of arrivals.
        self._clean_per_element = -(-bits_per_filter // self.subwindow_size)
        self._position = -1  # position of the most recent arrival

    # -- the clock: rotate every N/Q arrivals, clean a quota per arrival --

    def _rotate(self, subwindow: int) -> None:
        """Advance to ``subwindow`` (called at each jump boundary).

        The invariant asserted here is the crux of the spare-lane
        design: the lane about to become current must be fully zeroed,
        which the per-element cleaning quota guarantees.
        """
        if self._cleaning:
            raise AssertionError(
                "GBF invariant violated: lane rotation before cleaning finished "
                f"(cursor {self._clean_cursor} / {self.bits_per_filter})"
            )
        self._rotate_to(subwindow)

    def process_indices(self, indices: Sequence[int]) -> bool:
        """Observe the next click given pre-computed hash indices.

        This is the replay path the experiment harness uses after batch
        hashing; the behaviour is identical to :meth:`process`.
        """
        self._position += 1
        if self._position > 0 and self._position % self.subwindow_size == 0:
            self._rotate(self._position // self.subwindow_size)
        self._clean(self._clean_per_element)
        return self._insert(indices)

    def process_indices_batch(self, indices: "np.ndarray") -> "np.ndarray":
        """Batch variant of :meth:`process_indices` (``(n, k)`` index array).

        Bit-identical to the scalar loop.  The batch is split into
        segments at sub-window boundaries so lane rotation stays a
        scalar event; within a segment the cleaning sweep, probes and
        inserts are single array operations.
        """
        idx = index_matrix(indices)
        n = idx.shape[0]
        out = np.empty(n, dtype=bool)
        if self._matrix.words_per_slot != 1:
            # Wide layout (Q + 1 > D): the regime the paper hands to the
            # TBF; keep the scalar path rather than vectorizing it.
            for row in range(n):
                out[row] = self.process_indices(idx[row].tolist())
            return out
        sub = self.subwindow_size
        quota = self._clean_per_element
        start = 0
        while start < n:
            first = self._position + 1
            if first > 0 and first % sub == 0:
                self._rotate(first // sub)
            count = min(n - start, sub - first % sub, self._MAX_SEGMENT)
            if self._cleaning:
                self._matrix.clear_lane_segments(
                    self._cleaning_lane, self._clean_cursor, quota, count
                )
                self._clean_cursor = min(
                    self._clean_cursor + count * quota, self.bits_per_filter
                )
            self._fused_probe(idx[start : start + count], out[start : start + count])
            self._position += count
            start += count
        return out

    # -- introspection ---------------------------------------------------

    @property
    def position(self) -> int:
        """Position of the most recent arrival (-1 before any)."""
        return self._position

    @property
    def current_subwindow(self) -> int:
        return max(self._position, 0) // self.subwindow_size

    def theoretical_fp_bound(self) -> float:
        """Theorem 1: each of the ``Q + 1`` lanes is a Bloom filter
        holding at most one sub-window (``N/Q`` distinct elements), and
        a false positive needs at least one active lane to fire:
        ``1 - (1 - f_sub)^(Q+1)`` with ``f_sub = f(m, N/Q, k)``."""
        f_sub = false_positive_rate(
            self.bits_per_filter, self.subwindow_size, self.num_hashes
        )
        return 1.0 - (1.0 - f_sub) ** self.num_lanes

    def spec(self):
        """The :class:`~repro.detection.DetectorSpec` rebuilding this detector.

        Exact round trip — ``create_detector(detector.spec())`` yields
        an identically configured detector — which is the resize
        primitive the adaptive controller scales.  Requires the default
        hash family and word size (custom ones cannot ride a spec).
        """
        from ..detection.detector import DetectorSpec, GBFParams, WindowSpec

        seed = self._spec_seed()
        return DetectorSpec(
            algorithm="gbf",
            window=WindowSpec("jumping", self.window_size, self.num_subwindows),
            params=GBFParams(self.bits_per_filter, self.family.num_hashes),
            seed=seed,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GBFDetector(N={self.window_size}, Q={self.num_subwindows}, "
            f"m={self.bits_per_filter}, k={self.num_hashes}, D={self.word_bits})"
        )

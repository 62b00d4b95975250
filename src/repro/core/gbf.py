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
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..bitset.words import OperationCounter
from ..bloom.params import false_positive_rate_from_fill
from ..errors import ConfigurationError
from ..hashing import HashFamily, SplitMixFamily
from . import kernels
from .batch import resolve_inserts
from .contract import CountBasedDetector
from .lanes import LanePackedBitMatrix


class GBFDetector(CountBasedDetector):
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

        self.window_size = window_size
        self.num_subwindows = num_subwindows
        self.subwindow_size = window_size // num_subwindows
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
        # Cleaning quota: finish m slots within one sub-window of arrivals.
        self._clean_per_element = -(-bits_per_filter // self.subwindow_size)

        self._position = -1  # position of the most recent arrival
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

    def _lane_bit(self, lane: int, set_active: bool) -> None:
        """Add or remove ``lane`` from the active-lane masks."""
        if self._matrix.words_per_slot == 1:
            offset, bit = 0, lane
        else:
            offset, bit = divmod(lane, self.word_bits)
        if set_active:
            self._active_masks[offset] |= 1 << bit
        else:
            self._active_masks[offset] &= ~(1 << bit)

    def _rotate(self) -> None:
        """Advance to a new sub-window (called at each jump boundary).

        The invariant asserted here is the crux of the spare-lane
        design: the lane about to become current must be fully zeroed,
        which the per-element cleaning quota guarantees.
        """
        if self._cleaning_lane is not None and self._clean_cursor < self.bits_per_filter:
            raise AssertionError(
                "GBF invariant violated: lane rotation before cleaning finished "
                f"(cursor {self._clean_cursor} / {self.bits_per_filter})"
            )
        subwindow = self._position // self.subwindow_size
        new_lane = subwindow % self.num_lanes
        self._current_lane = new_lane
        self._lane_bit(new_lane, set_active=True)
        if subwindow >= self.num_subwindows:
            # Sub-window (subwindow - Q) just expired; its lane is
            # (subwindow - Q) mod (Q+1) == (subwindow + 1) mod (Q+1) —
            # exactly the lane the *next* sub-window will claim.
            expired_lane = (subwindow + 1) % self.num_lanes
            self._lane_bit(expired_lane, set_active=False)
            self._cleaning_lane = expired_lane
            self._clean_cursor = 0

    def _clean_step(self) -> None:
        """Zero the cleaning lane's bit in the next quota of slots."""
        lane = self._cleaning_lane
        if lane is None or self._clean_cursor >= self.bits_per_filter:
            return
        self._matrix.clear_lane_range(lane, self._clean_cursor, self._clean_per_element)
        self._clean_cursor = min(
            self._clean_cursor + self._clean_per_element, self.bits_per_filter
        )

    # ------------------------------------------------------------------
    # Stream interface
    # ------------------------------------------------------------------

    def process(self, identifier: int) -> bool:
        """Observe the next click; True means duplicate (not recorded)."""
        self.counter.hash_evaluations += self.family.num_hashes
        return self.process_indices(self.family.indices(identifier))

    def process_indices(self, indices: Sequence[int]) -> bool:
        """Observe the next click given pre-computed hash indices.

        This is the replay path the experiment harness uses after batch
        hashing; the behaviour is identical to :meth:`process`.
        """
        self._position += 1
        if self._position > 0 and self._position % self.subwindow_size == 0:
            self._rotate()
        self._clean_step()

        combined = self._matrix.probe_and(indices)
        self.counter.elements += 1
        masks = self._active_masks
        for offset, field in enumerate(combined):
            if field & masks[offset]:
                self.duplicates += 1
                return True
        self._matrix.set_lane(indices, self._current_lane)
        return False

    # ------------------------------------------------------------------
    # Batch interface
    # ------------------------------------------------------------------

    #: Upper bound on one vectorized segment (bounds temp-array memory).
    _MAX_SEGMENT = 1 << 16

    def process_batch(self, identifiers: "np.ndarray") -> "np.ndarray":
        """Observe a batch of clicks; returns the per-click verdicts.

        Bit-identical to calling :meth:`process` in a loop — verdicts,
        filter state, and operation counts all match exactly (see
        tests/test_batch_equivalence.py) — but hashing, probing,
        insertion, and lane cleaning run as numpy array ops.
        """
        identifiers = np.asarray(identifiers, dtype=np.uint64)
        if identifiers.ndim != 1:
            raise ValueError(f"identifiers must be 1-D, got {identifiers.ndim}-D")
        self.counter.hash_evaluations += self.family.num_hashes * int(
            identifiers.shape[0]
        )
        return self.process_indices_batch(self.family.indices_batch(identifiers))

    def process_indices_batch(self, indices: "np.ndarray") -> "np.ndarray":
        """Batch variant of :meth:`process_indices` (``(n, k)`` index array).

        The batch is split into segments at sub-window boundaries so
        lane rotation stays a scalar event; within a segment probes,
        inserts, and the cleaning sweep are single array operations,
        with intra-segment duplicate interactions resolved exactly by
        :func:`repro.core.batch.resolve_inserts`.
        """
        idx = np.asarray(indices)
        if idx.ndim != 2:
            raise ValueError(f"indices must be (n, k), got {idx.ndim}-D")
        n = idx.shape[0]
        out = np.empty(n, dtype=bool)
        if n == 0:
            return out
        if self._matrix.words_per_slot != 1:
            # Wide layout (Q + 1 > D): the regime the paper hands to the
            # TBF; keep the scalar path rather than vectorizing it.
            for row in range(n):
                out[row] = self.process_indices([int(v) for v in idx[row]])
            return out
        idx = idx.astype(np.int64, copy=False)
        sub = self.subwindow_size
        start = 0
        while start < n:
            first_pos = self._position + 1
            if first_pos > 0 and first_pos % sub == 0:
                # _rotate() reads _position; give it the boundary value.
                self._position = first_pos
                self._rotate()
                self._position = first_pos - 1
            into_sub = first_pos % sub
            seg = min(n - start, sub - into_sub if into_sub else sub, self._MAX_SEGMENT)
            self._process_segment(idx[start : start + seg], out[start : start + seg])
            start += seg
        return out

    def _process_segment(self, idx: "np.ndarray", out: "np.ndarray") -> None:
        """Vectorized processing of one rotation-free run of arrivals."""
        n, k = idx.shape
        matrix = self._matrix
        if self._cleaning_lane is not None and self._clean_cursor < self.bits_per_filter:
            quota = self._clean_per_element
            matrix.clear_lane_segments(
                self._cleaning_lane, self._clean_cursor, quota, n
            )
            self._clean_cursor = min(
                self._clean_cursor + n * quota, self.bits_per_filter
            )
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
            slots = idx if ins.size == n else idx[ins]
            matrix.or_lane_batch(slots, self._current_lane)
        self._position += n
        self.duplicates += int(np.count_nonzero(duplicate))
        out[:] = duplicate

    def query(self, identifier: int) -> bool:
        """Side-effect-free duplicate check against the active window."""
        return self.query_indices(self.family.indices(identifier))

    def query_indices(self, indices: Sequence[int]) -> bool:
        combined = self._matrix.probe_and(indices)
        masks = self._active_masks
        return any(field & masks[offset] for offset, field in enumerate(combined))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def num_hashes(self) -> int:
        return self.family.num_hashes

    @property
    def position(self) -> int:
        """Position of the most recent arrival (-1 before any)."""
        return self._position

    @property
    def current_subwindow(self) -> int:
        return max(self._position, 0) // self.subwindow_size

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
            if self._matrix.words_per_slot == 1:
                offset, bit = 0, lane
            else:
                offset, bit = divmod(lane, self.word_bits)
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

    def estimated_fp_rate(self) -> float:
        """Live FP estimate from the lanes' *measured* fill.

        A query is a false positive when at least one active lane has
        all ``k`` probed bits set, so with per-lane fills ``f_i`` the
        rate is ``1 - prod_i (1 - f_i^k)`` — the union bound of §3 made
        exact for the current fill state.
        """
        product = 1.0
        m = self.bits_per_filter
        k = self.num_hashes
        for lane in self.active_lanes():
            fill = self._matrix.lane_population(lane) / m
            product *= 1.0 - false_positive_rate_from_fill(fill, k)
        return 1.0 - product

    def spec(self):
        """The :class:`~repro.detection.DetectorSpec` rebuilding this detector.

        Exact round trip — ``create_detector(detector.spec())`` yields
        an identically configured detector — which is the resize
        primitive the adaptive controller scales.  Requires the default
        hash family and word size (custom ones cannot ride a spec).
        """
        from ..detection.detector import DetectorSpec, GBFParams, WindowSpec

        if type(self.family) is not SplitMixFamily:
            raise ConfigurationError(
                "spec() requires the default SplitMixFamily; this detector "
                f"uses {type(self.family).__name__}"
            )
        if self.word_bits != 64:
            raise ConfigurationError(
                f"spec() cannot express word_bits={self.word_bits}"
            )
        return DetectorSpec(
            algorithm="gbf",
            window=WindowSpec("jumping", self.window_size, self.num_subwindows),
            params=GBFParams(self.bits_per_filter, self.family.num_hashes),
            seed=self.family.seed,
        )

    def checkpoint_state(self) -> bytes:
        """Serialized sketch state (invert with :func:`repro.core.load_detector`).

        Operational surface beside the
        :class:`~repro.detection.api.Detector` contract; delegates to the
        checkpoint registry (:func:`repro.core.save_detector`).
        """
        from .checkpoint import save_detector

        return save_detector(self)

    def telemetry_snapshot(self) -> dict:
        """Health metrics for :mod:`repro.telemetry.instruments`."""
        counter = self.counter
        cleaning = (
            self._cleaning_lane is not None
            and self._clean_cursor < self.bits_per_filter
        )
        # One population count per lane, shared by the fill gauges and
        # the FP estimate (same floats as estimated_fp_rate()).
        m = self.bits_per_filter
        k = self.num_hashes
        pops = [self._matrix.lane_population(lane) for lane in range(self.num_lanes)]
        active = self.active_lanes()
        product = 1.0
        for lane in active:
            product *= 1.0 - false_positive_rate_from_fill(pops[lane] / m, k)
        return {
            "gauges": {
                "position": self._position,
                "estimated_fp_rate": 1.0 - product,
                "observed_duplicate_rate": self.observed_duplicate_rate,
                "clean_cursor": self._clean_cursor if cleaning else 0,
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

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GBFDetector(N={self.window_size}, Q={self.num_subwindows}, "
            f"m={self.bits_per_filter}, k={self.num_hashes}, D={self.word_bits})"
        )

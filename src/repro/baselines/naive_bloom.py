"""Naive per-sub-window Bloom filters — the strawman GBF improves on (§3.1).

Keeps ``Q + 1`` *separate* ``m``-bit Bloom filters sharing one hash
family: ``Q`` for the active sub-windows, one spare being cleaned
incrementally, exactly the memory organization of the GBF but without
the lane interleaving.  A duplicate check therefore reads up to
``Q * k`` memory words instead of GBF's ``k * ceil((Q+1)/D)``.

Because the two algorithms make identical accept/reject decisions for
every input (only the memory layout differs), this detector doubles as
a differential-testing oracle for :class:`~repro.core.gbf.GBFDetector`
when both are built over the same hash family.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..bitset import BitVector
from ..bitset.words import OperationCounter
from ..core.contract import CountBasedDetector
from ..errors import ConfigurationError
from ..hashing import HashFamily, SplitMixFamily


class NaiveSubwindowBloomDetector(CountBasedDetector):
    """Duplicate detector over a jumping window with separate filters."""

    def __init__(
        self,
        window_size: int,
        num_subwindows: int,
        bits_per_filter: int,
        num_hashes: int = 4,
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
        self.family = family
        self.num_filters = num_subwindows + 1

        self._filters: List[BitVector] = [
            BitVector(bits_per_filter) for _ in range(self.num_filters)
        ]
        self._position = -1
        self._current = 0
        self._active: List[int] = [0]
        self._cleaning: Optional[int] = None
        self._clean_cursor = 0
        self._clean_per_element = -(-bits_per_filter // self.subwindow_size)
        self.counter = OperationCounter()

    def _rotate(self) -> None:
        if self._cleaning is not None and self._clean_cursor < self.bits_per_filter:
            raise AssertionError("naive detector: rotation before cleaning finished")
        subwindow = self._position // self.subwindow_size
        self._current = subwindow % self.num_filters
        self._active.append(self._current)
        if subwindow >= self.num_subwindows:
            expired = (subwindow + 1) % self.num_filters
            self._active.remove(expired)
            self._cleaning = expired
            self._clean_cursor = 0

    def _clean_step(self) -> None:
        if self._cleaning is None or self._clean_cursor >= self.bits_per_filter:
            return
        bits = self._filters[self._cleaning]
        stop = min(self._clean_cursor + self._clean_per_element, self.bits_per_filter)
        for index in range(self._clean_cursor, stop):
            bits.clear(index)
        self.counter.word_reads += stop - self._clean_cursor
        self.counter.word_writes += stop - self._clean_cursor
        self._clean_cursor = stop

    def process(self, identifier: int) -> bool:
        """Observe the next click; True means duplicate (not recorded)."""
        self.counter.hash_evaluations += self.family.num_hashes
        return self.process_indices(self.family.indices(identifier))

    def process_indices(self, indices: Sequence[int]) -> bool:
        self._position += 1
        if self._position > 0 and self._position % self.subwindow_size == 0:
            self._rotate()
        self._clean_step()

        # The costly part the GBF removes: every active filter is probed
        # independently, up to Q * k reads.
        reads = 0
        duplicate = False
        for filter_index in self._active:
            bits = self._filters[filter_index]
            matched = True
            for index in indices:
                reads += 1
                if not bits.get(index):
                    matched = False
                    break
            if matched:
                duplicate = True
                break
        self.counter.word_reads += reads
        self.counter.elements += 1
        if duplicate:
            return True
        current = self._filters[self._current]
        for index in indices:
            current.set(index)
        self.counter.word_writes += len(indices)
        return False

    def query(self, identifier: int) -> bool:
        indices = self.family.indices(identifier)
        return any(
            self._filters[filter_index].all_set(indices)
            for filter_index in self._active
        )

    @property
    def num_hashes(self) -> int:
        return self.family.num_hashes

    @property
    def memory_bits(self) -> int:
        return self.bits_per_filter * self.num_filters

    def active_filters(self) -> List[int]:
        return sorted(self._active)

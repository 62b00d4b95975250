"""The "previous algorithm" of Figure 1: jumping windows via counting
Bloom filters (Metwally, Agrawal & El Abbadi, WWW 2005; critiqued in §3.3).

One counting Bloom filter per sub-window plus a *main* counting filter
holding the pointwise sum of all active sub-filters.  New elements are
checked against the main filter; when a sub-window expires, its filter
is subtracted from the main one counter by counter.

§3.3 identifies the two structural weaknesses this implementation
reproduces faithfully:

1. **Main-filter congestion** — the membership check sees all ``N``
   window elements in a single ``m``-counter filter, as if no
   sub-window structure existed, so its false-positive rate is that of
   a Bloom filter loaded with ``N`` (not ``N/Q``) elements.
2. **Counter saturation** — counters must be wide enough for ``N/Q``
   (sub-filters) and ``N`` (main) in the worst case; with realistic
   widths, saturated counters survive subtraction and *stick on*
   (extra false positives) or are over-subtracted (false negatives).
   Ablation A3 sweeps ``counter_bits`` to chart this failure mode.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Sequence

from ..bitset.words import OperationCounter
from ..bloom import CountingBloomFilter
from ..core.contract import CountBasedDetector
from ..errors import ConfigurationError
from ..hashing import HashFamily, SplitMixFamily


class MetwallyCBFDetector(CountBasedDetector):
    """Jumping-window duplicate detector with counting Bloom filters.

    Parameters
    ----------
    window_size, num_subwindows:
        Jumping-window geometry ``N`` and ``Q``.
    num_counters:
        Counters per filter ``m`` (the "same size" axis of Figure 1).
    counter_bits:
        Width of each counter.  ``memory_bits`` reflects the true cost
        ``(Q + 1) * m * counter_bits`` — the hidden multiplier §3.3
        points out when comparing against plain-bit schemes.
    """

    def __init__(
        self,
        window_size: int,
        num_subwindows: int,
        num_counters: int,
        num_hashes: int = 4,
        counter_bits: int = 8,
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
            family = SplitMixFamily(num_hashes, num_counters, seed)
        if family.num_buckets != num_counters:
            raise ConfigurationError(
                f"hash family range {family.num_buckets} != num_counters {num_counters}"
            )
        self.window_size = window_size
        self.num_subwindows = num_subwindows
        self.subwindow_size = window_size // num_subwindows
        self.num_counters = num_counters
        self.counter_bits = counter_bits
        self.family = family

        def _make() -> CountingBloomFilter:
            return CountingBloomFilter(
                num_counters,
                counter_bits=counter_bits,
                family=family,
                saturate=True,
            )

        self._make_filter = _make
        self._main = _make()
        self._subfilters: Deque[CountingBloomFilter] = deque([_make()])
        self._position = -1
        self.counter = OperationCounter()

    def _rotate(self) -> None:
        """Start a new sub-window; expire the eldest once Q are active."""
        if len(self._subfilters) == self.num_subwindows:
            eldest = self._subfilters.popleft()
            # The O(m) subtraction of §3.3 (performed as a burst here;
            # the paper notes FPs grow if inserts land before it ends).
            self._main.subtract_filter(eldest)
            self.counter.word_reads += 2 * self.num_counters
            self.counter.word_writes += self.num_counters
        self._subfilters.append(self._make_filter())

    def process(self, identifier: int) -> bool:
        """Observe the next click; True means duplicate per the main filter."""
        self.counter.hash_evaluations += self.family.num_hashes
        return self.process_indices(self.family.indices(identifier))

    def process_indices(self, indices: Sequence[int]) -> bool:
        self._position += 1
        if self._position > 0 and self._position % self.subwindow_size == 0:
            self._rotate()
        self.counter.word_reads += len(indices)
        self.counter.elements += 1
        if self._main.contains_indices(indices):
            return True
        self._subfilters[-1].add_indices(list(indices))
        self._main.add_indices(list(indices))
        self.counter.word_reads += 2 * len(indices)
        self.counter.word_writes += 2 * len(indices)
        return False

    def query(self, identifier: int) -> bool:
        return self._main.contains(identifier)

    @property
    def num_hashes(self) -> int:
        return self.family.num_hashes

    @property
    def memory_bits(self) -> int:
        """True footprint: main + Q sub-filters, each m counters wide."""
        return (len(self._subfilters) + 1) * self.num_counters * self.counter_bits

    @property
    def saturation_events(self) -> int:
        """Counter-ceiling hits across main and sub-filters (ablation A3)."""
        return self._main.saturation_events + sum(
            subfilter.saturation_events for subfilter in self._subfilters
        )

"""Landmark-window Bloom filter (Metwally, Agrawal & El Abbadi, WWW 2005).

The direct deployment of a classical Bloom filter that §3.1 starts
from: all clicks of an epoch are hashed into one filter, and the filter
is cleared when the epoch ends.  Simple and fast, but the window "jumps"
by its full size — a duplicate pair straddling an epoch boundary is
never detected, and the epoch reset is an O(m) burst.
"""

from __future__ import annotations

from typing import Optional

from ..bitset.words import OperationCounter
from ..bloom import BloomFilter
from ..core.contract import CountBasedDetector
from ..errors import ConfigurationError
from ..hashing import HashFamily
from ..windows import LandmarkWindow


class LandmarkBloomDetector(CountBasedDetector):
    """Duplicate detector over a landmark window of ``window_size`` arrivals."""

    def __init__(
        self,
        window_size: int,
        num_bits: int,
        num_hashes: int = 4,
        seed: int = 0,
        family: Optional[HashFamily] = None,
    ) -> None:
        if window_size < 1:
            raise ConfigurationError(f"window_size must be >= 1, got {window_size}")
        self.window = LandmarkWindow(window_size)
        self.filter = BloomFilter(num_bits, num_hashes, seed, family)
        self.counter = OperationCounter()

    def process(self, identifier: int) -> bool:
        """Observe the next click; True means duplicate within the epoch."""
        self.window.observe()
        if self.window.at_epoch_boundary() and self.window.position > 0:
            # Epoch switch: the O(m) clear the decaying-window algorithms
            # amortize away happens here all at once.
            self.filter.clear()
            self.counter.word_writes += self.filter.num_bits
        self.counter.hash_evaluations += self.filter.num_hashes
        self.counter.word_reads += self.filter.num_hashes
        duplicate = self.filter.add_if_absent(identifier)
        if not duplicate:
            self.counter.word_writes += self.filter.num_hashes
        self.counter.elements += 1
        return duplicate

    def query(self, identifier: int) -> bool:
        return self.filter.contains(identifier)

    @property
    def num_hashes(self) -> int:
        return self.filter.num_hashes

    @property
    def memory_bits(self) -> int:
        return self.filter.num_bits

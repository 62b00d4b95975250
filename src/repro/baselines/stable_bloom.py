"""Stable-Bloom-filter duplicate detector (Deng & Rafiei, SIGMOD 2006).

The related-work alternative of §2.4 wrapped in the library's common
detector interface.  Unlike every window-based detector here it has no
crisp window at all: old elements fade out *probabilistically* as their
cells are randomly decremented, so it exhibits **false negatives** —
the flaw the paper's zero-FN guarantee (Theorems 1.1, 2.1) is defined
against.  The experiment harness runs it side by side with TBF to
demonstrate the difference.
"""

from __future__ import annotations

from typing import Optional

from ..bloom import StableBloomFilter
from ..core.contract import CountBasedDetector
from ..errors import ConfigurationError
from ..hashing import HashFamily


class StableBloomDetector(CountBasedDetector):
    """Duplicate detector backed by a stable Bloom filter.

    ``window_size`` is *nominal*: it is used only by
    :meth:`with_tuned_decay` to pick the decrement rate ``p`` so that an
    element's cells survive roughly ``window_size`` arrivals — the
    closest SBF analogue of a sliding window.
    """

    def __init__(
        self,
        num_cells: int,
        num_hashes: int = 4,
        cell_bits: int = 3,
        decrements_per_insert: int = 10,
        seed: int = 0,
        family: Optional[HashFamily] = None,
        window_size: Optional[int] = None,
    ) -> None:
        self.filter = StableBloomFilter(
            num_cells,
            num_hashes=num_hashes,
            cell_bits=cell_bits,
            decrements_per_insert=decrements_per_insert,
            seed=seed,
            family=family,
        )
        self.window_size = window_size

    @classmethod
    def with_tuned_decay(
        cls,
        window_size: int,
        num_cells: int,
        num_hashes: int = 4,
        cell_bits: int = 3,
        seed: int = 0,
    ) -> "StableBloomDetector":
        """Pick ``p`` so a cell's expected survival matches ``window_size``.

        A freshly set cell at value ``Max`` is decremented with
        probability ``p/m`` per arrival, so it survives about
        ``Max * m / p`` arrivals; solving for ``p`` gives the decrement
        rate that makes the SBF's memory horizon comparable to a sliding
        window of ``window_size``.
        """
        if window_size < 1:
            raise ConfigurationError(f"window_size must be >= 1, got {window_size}")
        max_value = (1 << cell_bits) - 1
        decrements = max(1, round(max_value * num_cells / window_size))
        return cls(
            num_cells,
            num_hashes=num_hashes,
            cell_bits=cell_bits,
            decrements_per_insert=decrements,
            seed=seed,
            window_size=window_size,
        )

    def process(self, identifier: int) -> bool:
        """Observe the next click; True means it looked like a duplicate.

        May return False for a genuine duplicate whose cells decayed —
        the false-negative behaviour the paper's algorithms eliminate.
        """
        return self.filter.process(identifier)

    def query(self, identifier: int) -> bool:
        return self.filter.query(identifier)

    @property
    def num_hashes(self) -> int:
        return self.filter.num_hashes

    @property
    def memory_bits(self) -> int:
        return self.filter.memory_bits

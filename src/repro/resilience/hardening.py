"""Input hardening at the boundary: quarantine instead of crash.

Production click feeds are hostile in a mundane way long before any
fraud: producers emit garbage records.  The stock readers treat a bad
record as fatal (:class:`StreamError`).  :class:`DeadLetterSink`
quarantines anything unprocessable instead — a malformed reader record
(the readers' ``on_malformed`` hook), a frame the ingest server refused
— keeping a bounded sample and full counters so the stream keeps
flowing *and* the operator can see what it shed (a rising quarantine
rate is itself an attack signal: garbage-flooding a collector is the
cheapest way to hide a fraud burst).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List

from ..errors import ConfigurationError


@dataclass
class DeadLetter:
    """One quarantined item and why it was shed."""

    reason: str
    item: Any


class DeadLetterSink:
    """Bounded quarantine for records the pipeline refuses to process.

    Counts every dead letter by reason but retains at most
    ``sample_size`` items — the counters are the monitoring signal, the
    samples are for debugging, and an unbounded quarantine would just
    move the outage from the detector to the heap.

    Instances are callable with a single record so they plug directly
    into the readers' ``on_malformed`` hook
    (:func:`repro.streams.read_clicks_jsonl`).
    """

    def __init__(self, sample_size: int = 100) -> None:
        if sample_size < 0:
            raise ConfigurationError(
                f"sample_size must be >= 0, got {sample_size}"
            )
        self.sample_size = sample_size
        self.samples: List[DeadLetter] = []
        self.counts: Dict[str, int] = {}

    def record(self, item: Any, reason: str = "malformed") -> None:
        self.counts[reason] = self.counts.get(reason, 0) + 1
        if len(self.samples) < self.sample_size:
            self.samples.append(DeadLetter(reason, item))

    __call__ = record

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def __len__(self) -> int:
        return self.total

"""The benchmark's own labeler: window ground truth from the verdicts.

Written apart from the detectors.  Like the zero-false-negative check
of the property tests, it keeps a dict from identifier to the last
click the detector *accepted* (verdict 0, billed).  A later click with
the same identifier is

* a false negative when it is accepted while that twin is still inside
  the guaranteed window, and
* eligible for the false-positive count when no accepted twin lies
  within the horizon (``Workload.horizon``), where every bit of the twin
  has retired.  An eligible click flagged as a duplicate is a false
  positive.

Both count-based filters forget exactly at the window, so their horizon
is the window.  The time-limited filter does not: a twin ``j`` units
past the window still has ``k - j`` of its bits in the oldest slices,
and is flagged when the ``j`` younger slices next to them hit by
chance, about half the time per slice at steady fill.  Flags on clicks
whose twin lies between the window and the horizon are counted apart,
as near-expiry flags, and held to the decay of that chance: measured
with planted twins it halves per unit, from one half at 1.5 units past
the window, i.e. ``2 ** (0.5 - d)`` at ``d`` units.  The limit allows
a quarter unit more, ``min(1, 2 ** (0.75 - d))`` per such click, plus
binomial slack; a filter that expired one unit late would flag with
about ``2 ** (1.5 - d)`` and fail.

Identifiers that occur once in the stream can have no twin: they are
eligible, and skip the dict loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from workloads import TARGET_FP, Workload

#: Standard deviations of binomial slack allowed above each limit.
MARGIN_SIGMAS = 4.0


@dataclass(frozen=True)
class Audit:
    clicks: int
    false_negatives: int
    false_positives: int
    eligible: int
    #: Flagged clicks whose twin is past the guaranteed window but
    #: within the horizon (time-limited filter only), and the most the
    #: decay curve allows.
    near_expiry: int
    near_expiry_limit: float

    @property
    def fp_rate(self) -> float:
        return self.false_positives / self.eligible if self.eligible else 0.0

    @property
    def fp_limit(self) -> float:
        """Largest FP count consistent with :data:`TARGET_FP`."""
        mean = self.eligible * TARGET_FP
        return mean + MARGIN_SIGMAS * math.sqrt(mean * (1.0 - TARGET_FP))

    @property
    def ok(self) -> bool:
        return (self.false_negatives == 0
                and self.false_positives <= self.fp_limit
                and self.near_expiry <= self.near_expiry_limit)


def audit(
    workload: Workload,
    identifiers: np.ndarray,
    timestamps: Optional[np.ndarray],
    verdicts: np.ndarray,
) -> Audit:
    """Check ``verdicts`` (True = duplicate) for the stream's prefix."""
    n = verdicts.shape[0]
    identifiers = identifiers[:n]
    _, inverse, counts = np.unique(
        identifiers, return_inverse=True, return_counts=True
    )
    repeated = np.nonzero(counts[inverse] > 1)[0]
    single_duplicates = int(np.count_nonzero(verdicts)) - int(
        np.count_nonzero(verdicts[repeated])
    )
    guaranteed, remembered, flag_chance = _window_rules(workload, timestamps)
    last_accepted = {}
    false_negatives = 0
    near_expiry = 0
    near_mean = near_variance = 0.0
    false_positives = single_duplicates
    eligible = n - repeated.shape[0]
    keys = identifiers[repeated].tolist()
    flags = verdicts[repeated].tolist()
    for position, key, duplicate in zip(repeated.tolist(), keys, flags):
        twin = last_accepted.get(key)
        if twin is None or not remembered(twin, position):
            eligible += 1
            false_positives += duplicate
        elif guaranteed(twin, position):
            false_negatives += not duplicate
        else:
            near_expiry += duplicate
            chance = flag_chance(twin, position)
            near_mean += chance
            near_variance += chance * (1.0 - chance)
        if not duplicate:
            last_accepted[key] = position
    limit = near_mean + MARGIN_SIGMAS * math.sqrt(near_variance)
    return Audit(n, false_negatives, false_positives, eligible, near_expiry, limit)


def _window_rules(workload: Workload, timestamps):
    """``(guaranteed, remembered, flag_chance)`` over (twin, click) positions.

    ``guaranteed``: the detector must flag the click.  ``remembered``:
    the detector may still flag it; outside it a flag is a false
    positive.  ``flag_chance``: the most a near-expiry click (remembered
    but not guaranteed) may be flagged with.
    """
    if workload.timed:
        times = timestamps.tolist()
        span = workload.duration
        unit = span / workload.resolution
        horizon = workload.horizon()

        def guaranteed(twin, position):
            return times[position] - times[twin] < span

        def remembered(twin, position):
            return times[position] - times[twin] < horizon

        def flag_chance(twin, position):
            past = (times[position] - times[twin] - span) / unit
            return min(1.0, 2.0 ** (0.75 - past))

        return guaranteed, remembered, flag_chance
    if workload.subwindows > 1:
        block = workload.window // workload.subwindows
        blocks = workload.subwindows

        def active(twin, position):
            return position // block - twin // block < blocks

        return active, active, None
    size = workload.window

    def active(twin, position):
        return position - twin < size

    return active, active, None

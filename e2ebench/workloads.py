"""The benchmark's three traffic shapes and their seeded click streams.

Each workload fixes one detector configuration, one framing and one
stream recipe.  The stream depends only on the workload and the seed,
so two runs with the same seed send the same clicks in the same frames.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.adaptive.filters import plan_tlbf_for_target
from repro.detection import DetectorSpec, WindowSpec

#: Every workload is sized for this false-positive target.
TARGET_FP = 1e-3

#: Offered load of the timed stream in clicks per stream-second: bursts
#: at 3x the mean alternate with lulls at 0.6x, in blocks of equal
#: expected click count, so the harmonic mean is exactly 1,024/s and a
#: 64 s window holds 2^16 clicks on average.
TIMED_MEAN_RATE = 1024.0
TIMED_BURST_RATES = (3.0 * TIMED_MEAN_RATE, 0.6 * TIMED_MEAN_RATE)


@dataclass(frozen=True)
class Workload:
    """One traffic shape: detector, framing, load and stream recipe."""

    name: str
    algorithm: str
    #: Window in clicks (count-based) or expected clicks per window
    #: (time-based; it sizes the sketch).
    window: int
    #: Clicks per BATCH frame.
    frame: int
    #: Closed loop: frames kept in flight on the one connection.
    depth: int
    #: Open loop: offered frames per second.  Far enough below the
    #: measured knee that a frame's service (coalescer deadline plus one
    #: detector call) ends before the next frame is due, so latency does
    #: not swing with group size when the host slows down.
    rate: float
    #: Share of clicks that repeat an earlier click at a lag inside the
    #: window (log-uniform, so in-frame and far-window lags both occur)
    #: and beyond it (uniform from the window to one window past the
    #: horizon, see :meth:`horizon`).
    repeat_inside: float
    repeat_beyond: float
    subwindows: int = 1
    #: Time-based window length in stream seconds (0 = count-based).
    duration: float = 0.0
    resolution: int = 16

    @property
    def timed(self) -> bool:
        return self.duration > 0

    def spec(self) -> DetectorSpec:
        """The detector the server builds for this workload."""
        kind = "jumping" if self.subwindows > 1 else "sliding"
        window = WindowSpec(kind, self.window, self.subwindows)
        if self.timed:
            return DetectorSpec(
                algorithm=self.algorithm,
                window=window,
                target_fp=TARGET_FP,
                duration=self.duration,
                resolution=self.resolution,
            )
        return DetectorSpec(
            algorithm=self.algorithm, window=window, target_fp=TARGET_FP
        )

    def horizon(self) -> float:
        """Lag from which an accepted click is forgotten entirely.

        Count-based filters forget exactly at the window.  The
        time-limited filter sets one bit in each of the ``k`` youngest of
        its ``k + l`` slices, and one slice retires per expiry unit, so
        its last bit retires after ``l + k`` units: the window (``l``
        units) plus ``k`` more.
        """
        if not self.timed:
            return float(self.window)
        plan = plan_tlbf_for_target(self.window, self.resolution, TARGET_FP)
        return self.duration * (1 + plan.num_required / self.resolution)

    def server_command(self, launcher: str) -> List[str]:
        """argv that boots this workload's server on an ephemeral port.

        Count-based workloads boot the shipped ``repro serve``; the
        time-based one goes through ``launcher`` because ``repro serve``
        offers no time-based algorithm.
        """
        if self.timed:
            return [sys.executable, launcher, self.name, "--port", "0"]
        return [sys.executable, "-m", "repro", "serve", "--algorithm",
                self.algorithm, "--subwindows", str(self.subwindows),
                "--window", str(self.window), "--target-fp", str(TARGET_FP),
                "--port", "0"]

    def warmup_clicks(self) -> int:
        """Clicks sent before any timing: 1.25 windows, in whole frames."""
        frames = -(-(self.window + self.window // 4) // self.frame)
        return frames * self.frame


WORKLOADS = {
    workload.name: workload
    for workload in (
        # Per-call and per-frame costs dominate: small frames, and a
        # sliding-window TBF whose batch call builds dense (m,) tables.
        Workload(
            name="trickle-tbf",
            algorithm="tbf",
            window=1 << 16,
            frame=256,
            depth=64,
            rate=50.0,
            repeat_inside=0.10,
            repeat_beyond=0.05,
        ),
        # Per-click work dominates: frames as large as a coalesced
        # group, almost all clicks distinct (insert-heavy, as in the
        # paper's evaluation stream), 14 hashes per click.
        Workload(
            name="bulk-gbf",
            algorithm="gbf",
            window=1 << 16,
            subwindows=8,
            frame=16384,
            depth=4,
            rate=12.0,
            repeat_inside=0.01,
            repeat_beyond=0.01,
        ),
        # The only time-based path: bursty timestamps split calls per
        # expiry unit; repeats land on both sides of the time window.
        Workload(
            name="timed-tlbf",
            algorithm="time-limited-bf",
            window=1 << 16,
            frame=2048,
            depth=16,
            rate=20.0,
            repeat_inside=0.08,
            repeat_beyond=0.04,
            duration=(1 << 16) / TIMED_MEAN_RATE,
        ),
    )
}


#: The stream is generated in blocks of this many clicks, each from its
#: own generator seeded by (seed, block), so its content never depends
#: on how far a run extends it.
BLOCK = 1 << 16

#: Clicks the stream can hold.  The buffers are reserved once and only
#: the part generated is touched, so growing the stream never copies it.
CAPACITY = 1 << 27


def _log_uniform(rng: np.random.Generator, low: float, high: float, size: int):
    return np.exp(rng.uniform(np.log(low), np.log(high), size))


class Stream:
    """A workload's seeded click stream, cut into frames, grown on demand.

    Fresh clicks draw a random 64-bit identifier.  A repeat copies the
    identifier of the click ``lag`` earlier (in arrivals, or in stream
    seconds for the timed workload); chains of repeats inside a block
    resolve to their first click by pointer jumping.  Timestamps (timed
    workload only) alternate burst and lull runs of 1-8k clicks.
    ``frames[i]`` is ``(identifiers, timestamps or None)`` of frame
    ``i``, as zero-copy slices.
    """

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed % (1 << 63)
        self.size = workload.frame
        self.clicks = 0
        self._ids = np.empty(CAPACITY, dtype=np.uint64)
        self._ts = np.empty(CAPACITY) if workload.timed else None

    def __len__(self) -> int:
        return self.clicks // self.size

    def __getitem__(self, index: int) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        lo = index * self.size
        hi = lo + self.size
        if hi > self.clicks:
            raise IndexError(f"frame {index} is beyond the generated stream")
        stamps = None if self._ts is None else self._ts[lo:hi]
        return self._ids[lo:hi], stamps

    def joined(self, indices: List[int]) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        parts = [self[i] for i in indices]
        stamps = None
        if self._ts is not None:
            stamps = np.concatenate([p[1] for p in parts])
        return np.concatenate([p[0] for p in parts]), stamps

    def ensure(self, frames: int) -> None:
        """Generate whole blocks until ``frames`` frames exist, or the
        stream is full."""
        needed = min(frames * self.size, CAPACITY)
        while self.clicks < needed:
            self._append_block()

    def _append_block(self) -> None:
        workload, start, n = self.workload, self.clicks, BLOCK
        rng = np.random.default_rng([self.seed, start // BLOCK, workload.frame])
        fresh = rng.integers(0, np.iinfo(np.uint64).max, size=n,
                             dtype=np.uint64, endpoint=True)
        draw = rng.random(n)
        inside = draw < workload.repeat_inside
        repeat = draw < workload.repeat_inside + workload.repeat_beyond
        if workload.timed:
            sizes = rng.integers(1024, 8193, size=n // 1024 + 1)
            rates = np.where(np.arange(sizes.shape[0]) % 2 == 0,
                             *TIMED_BURST_RATES)
            gaps = rng.exponential(1.0, n) / np.repeat(rates, sizes)[:n]
            previous = self._ts[start - 1] if start else 1000.0
            stamps = previous + np.cumsum(gaps)
            self._ts[start:start + n] = stamps
            span = workload.duration
            lag = np.where(inside, _log_uniform(rng, 1e-3, span, n),
                           rng.uniform(span, workload.horizon() + span, n))
            source = np.searchsorted(self._ts[:start + n], stamps - lag,
                                     side="right") - 1
        else:
            span = workload.window
            lag = np.where(inside, _log_uniform(rng, 1.0, span, n).astype(np.int64),
                           rng.integers(span, int(workload.horizon()) + span, n))
            source = start + np.arange(n) - lag
        repeat &= source >= 0
        local = np.arange(n)
        internal = repeat & (source >= start)
        root = np.where(internal, source - start, local)
        while True:
            hop = root[root]
            if np.array_equal(hop, root):
                break
            root = hop
        ids = fresh[root]
        external = (repeat & ~internal)[root]
        ids[external] = self._ids[source[root[external]]]
        self._ids[start:start + n] = ids
        self.clicks = start + n

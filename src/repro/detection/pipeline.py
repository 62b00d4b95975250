"""The end-to-end detection pipeline: clicks → detector → billing.

Ties the whole system together: every click is projected to its
identifier, passed through a one-pass duplicate detector, and settled —
charged if valid, rejected if duplicate — while per-source statistics
accumulate for fraud scoring.  This is the deployment shape the paper
envisions for either party of the advertiser/publisher audit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

import numpy as np

from ..adnet.billing import BillingEngine
from ..errors import BudgetError, ConfigurationError
from ..streams.click import Click, DEFAULT_SCHEME, IdentifierScheme
from ..telemetry import TelemetrySession
from ..telemetry.requesttrace import new_trace_id
from .scoring import SourceScoreboard


@dataclass
class PipelineResult:
    """Everything a pipeline run produced."""

    processed: int = 0
    valid: int = 0
    duplicates: int = 0
    budget_exhausted: int = 0
    scoreboard: Optional[SourceScoreboard] = None
    billing_summary: Dict[str, float] = field(default_factory=dict)

    @property
    def duplicate_rate(self) -> float:
        return self.duplicates / self.processed if self.processed else 0.0


class DetectionPipeline:
    """One party's online click-processing loop.

    Parameters
    ----------
    detector:
        Any :class:`~repro.detection.api.Detector`; the click's
        timestamp drives the window clock of time-based ones.
    billing:
        Optional :class:`~repro.adnet.billing.BillingEngine`; without
        it the pipeline only classifies (the auditing-side use case).
    scheme:
        How clicks map to duplicate-detection identifiers.
    score_sources:
        Track per-source duplicate ratios for fraud scoring.
    telemetry:
        A :class:`~repro.telemetry.TelemetrySession`.  Defaults to the
        disabled session, whose registry is a no-op twin — the
        instrumented paths below then cost single dead calls.  When the
        session carries a span writer, :meth:`run_batch` writes one
        ``pipeline.run_batch.chunk`` span per chunk to it.
    """

    def __init__(
        self,
        detector,
        billing: Optional[BillingEngine] = None,
        scheme: IdentifierScheme = DEFAULT_SCHEME,
        score_sources: bool = True,
        telemetry: Optional[TelemetrySession] = None,
    ) -> None:
        self.billing = billing
        self.scheme = scheme
        self.scoreboard = SourceScoreboard() if score_sources else None
        self.telemetry = (
            telemetry if telemetry is not None else TelemetrySession.disabled()
        )
        registry = self.telemetry.registry
        self._clicks_total = registry.counter(
            "repro_pipeline_clicks_total", "Clicks processed by the pipeline"
        )
        self._duplicates_total = registry.counter(
            "repro_pipeline_duplicates_total", "Clicks rejected as duplicates"
        )
        self._valid_total = registry.counter(
            "repro_pipeline_valid_total", "Clicks accepted (and billed, if billing)"
        )
        self._budget_exhausted_total = registry.counter(
            "repro_pipeline_budget_exhausted_total",
            "Clicks dropped because an advertiser budget was exhausted",
        )
        #: This pipeline's :class:`~repro.telemetry.DetectorInstrument`
        #: (``None`` with telemetry disabled).
        self.instrument = None
        self.set_detector(detector)

    def set_detector(self, detector) -> None:
        """Swap in a (restored) detector.

        The pipeline talks to the detector only through the
        :class:`~repro.detection.api.Detector` contract
        (``observe`` / ``observe_batch``).
        """
        self.detector = detector
        self._classify = detector.observe
        if self.telemetry.enabled:
            # Re-instrument so gauges track the detector now in service;
            # registry counters keep their running totals (the new
            # instrument baselines at the detector's current counters).
            # Only this pipeline's instrument goes: pipelines sharing
            # the session (cluster nodes) keep theirs.
            if self.instrument is not None:
                self.telemetry.remove_instrument(self.instrument)
            self.instrument = self.telemetry.instrument_detector(detector)

    def _record_totals(
        self, processed: int, duplicates: int, valid: int, budget_exhausted: int
    ) -> None:
        """Fold one run/chunk's tallies into the pipeline counters."""
        if processed:
            self._clicks_total.inc(processed)
        if duplicates:
            self._duplicates_total.inc(duplicates)
        if valid:
            self._valid_total.inc(valid)
        if budget_exhausted:
            self._budget_exhausted_total.inc(budget_exhausted)

    def process_click(self, click: Click) -> bool:
        """Handle one click; returns True when rejected as duplicate."""
        identifier = self.scheme.identify(click)
        duplicate = self._classify(identifier, click.timestamp)
        if self.scoreboard is not None:
            self.scoreboard.record(click, duplicate)
        if self.billing is not None:
            if duplicate:
                self.billing.reject_duplicate(click)
            else:
                self.billing.charge(click)
        return duplicate

    def run(self, clicks: Iterable[Click]) -> PipelineResult:
        """Process a whole stream, tolerating exhausted budgets."""
        result = PipelineResult(scoreboard=self.scoreboard)
        # The verdict dispatch is bound once (set_detector); hoist the
        # remaining lookups too.
        process_click = self.process_click
        for click in clicks:
            result.processed += 1
            try:
                duplicate = process_click(click)
            except BudgetError:
                result.budget_exhausted += 1
                continue
            if duplicate:
                result.duplicates += 1
            else:
                result.valid += 1
        self._record_totals(
            result.processed, result.duplicates, result.valid,
            result.budget_exhausted,
        )
        self.telemetry.advance(result.processed)
        if self.billing is not None:
            result.billing_summary = self.billing.summary()
        return result

    def run_batch(
        self,
        clicks: Iterable[Click],
        chunk_size: int = 4096,
        workers: Optional[int] = None,
    ) -> PipelineResult:
        """Process a stream through the detector's vectorized batch path.

        Clicks are consumed in chunks of ``chunk_size``; each chunk's
        identifiers are hashed and classified with one ``observe_batch``
        call, then scoring and billing settle per click (billing raises
        per click, so budget accounting matches :meth:`run` exactly).
        Batch verdicts are bit-identical to :meth:`run`'s by
        construction.

        With ``workers=N`` the detector (which must be a
        ``ShardedDetector`` with ``N`` shards, or an already-parallel
        engine) is lifted into a multi-process
        engine for the duration of the run: each shard executes in its
        own worker process fed through shared-memory rings.  Afterwards
        the workers' final state is written back into the original
        detector, so the run is observationally identical to ``workers
        = None`` — just faster on multi-core hosts.
        """
        if workers is not None:
            # Deferred import: repro.parallel builds on this module.
            from ..parallel import lift_sharded

            original = self.detector
            engine = lift_sharded(original, workers)
            owned = engine is not original
            self.set_detector(engine)
            try:
                return self._run_batch_chunks(clicks, chunk_size)
            finally:
                if owned:
                    engine.close(sync=True)
                self.set_detector(original)
        return self._run_batch_chunks(clicks, chunk_size)

    def _run_batch_chunks(
        self, clicks: Iterable[Click], chunk_size: int
    ) -> PipelineResult:
        if chunk_size < 1:
            raise ConfigurationError(f"chunk_size must be >= 1, got {chunk_size}")
        result = PipelineResult(scoreboard=self.scoreboard)
        observe_batch = self.detector.observe_batch
        timed = self.detector.timed
        identify = self.scheme.identify
        scoreboard = self.scoreboard
        billing = self.billing
        telemetry = self.telemetry
        spans = telemetry.spans
        trace_id = new_trace_id() if spans is not None else 0

        def classify(chunk: List[Click]) -> "np.ndarray":
            identifiers = np.fromiter(
                (identify(click) for click in chunk),
                dtype=np.uint64,
                count=len(chunk),
            )
            timestamps = (
                np.fromiter(
                    (click.timestamp for click in chunk),
                    dtype=np.float64,
                    count=len(chunk),
                )
                if timed
                else None
            )
            return observe_batch(identifiers, timestamps)

        iterator = iter(clicks)
        while True:
            chunk = list(itertools.islice(iterator, chunk_size))
            if not chunk:
                break
            before = (
                result.processed, result.duplicates, result.valid,
                result.budget_exhausted,
            )
            if spans is None:
                verdicts = classify(chunk)
            else:
                with spans.span(
                    "pipeline.run_batch.chunk", trace_id, size=len(chunk)
                ):
                    verdicts = classify(chunk)
            for click, verdict in zip(chunk, verdicts):
                duplicate = bool(verdict)
                result.processed += 1
                if scoreboard is not None:
                    scoreboard.record(click, duplicate)
                if billing is not None:
                    try:
                        if duplicate:
                            billing.reject_duplicate(click)
                        else:
                            billing.charge(click)
                    except BudgetError:
                        result.budget_exhausted += 1
                        continue
                if duplicate:
                    result.duplicates += 1
                else:
                    result.valid += 1
            self._record_totals(
                result.processed - before[0],
                result.duplicates - before[1],
                result.valid - before[2],
                result.budget_exhausted - before[3],
            )
            telemetry.advance(len(chunk))
        if self.billing is not None:
            result.billing_summary = self.billing.summary()
        return result

    def run_identified_batch(
        self,
        identifiers: "np.ndarray",
        timestamps: Optional["np.ndarray"] = None,
    ) -> "np.ndarray":
        """Classify pre-projected identifiers; the network-serving hot path.

        The wire protocol of :mod:`repro.serve` ships ``(identifier,
        timestamp)`` pairs — the identifier scheme runs client-side, as
        the paper assumes ("each click has a predefined identifier") —
        so this path skips :class:`Click` materialization entirely and
        drives the detector through the same ``observe_batch`` as
        :meth:`run_batch`.  Verdicts are bit-identical to
        :meth:`run_batch` over clicks projecting to the same
        identifiers, because detector state depends only on
        ``(identifier, timestamp)``.

        Pipeline click/duplicate counters and telemetry advance as
        usual; the scoreboard is *not* updated (it needs full clicks) and
        billing is refused outright — settling money against clicks
        that were never shipped would silently diverge from :meth:`run`.
        """
        if self.billing is not None:
            raise ConfigurationError(
                "run_identified_batch cannot settle billing; bill through "
                "run()/run_batch() with full clicks"
            )
        verdicts = np.asarray(
            self.detector.observe_batch(identifiers, timestamps), dtype=bool
        )
        processed = int(verdicts.shape[0])
        duplicates = int(np.count_nonzero(verdicts))
        self._record_totals(processed, duplicates, processed - duplicates, 0)
        self.telemetry.advance(processed)
        return verdicts


def classify_stream(
    clicks: Iterable[Click],
    detector,
    scheme: IdentifierScheme = DEFAULT_SCHEME,
) -> List[bool]:
    """Bare classification: the detector's verdict per click, in order."""
    identify = scheme.identify
    observe = detector.observe
    return [observe(identify(click), click.timestamp) for click in clicks]

"""repro — duplicate-click (click-fraud) detection in pay-per-click streams.

A complete, from-scratch reproduction of

    Linfeng Zhang and Yong Guan,
    "Detecting Click Fraud in Pay-Per-Click Streams of Online
    Advertising Networks", ICDCS 2008.

The paper's contribution — the **GBF** (Group Bloom Filter) algorithm
for jumping windows and the **TBF** (Timing Bloom Filter) algorithm for
sliding windows — lives in :mod:`repro.core`.  Everything they depend
on or are compared against is built here too: hash families, window
models, classical/counting/stable Bloom filters, exact baselines, the
Metwally counting-filter scheme, synthetic click streams with fraud
campaigns, a pay-per-click advertising-network simulator with auctions
and billing, detection pipelines, theory, and the full experiment
harness reproducing every figure.

Quick start::

    from repro import TBFDetector

    detector = TBFDetector(window_size=100_000, num_entries=1_500_000,
                           num_hashes=10, seed=7)
    for click_id in click_ids:
        if detector.process(click_id):
            ...  # duplicate: do not bill
"""

from ._version import __version__
from .adnet import AdNetwork, BillingEngine, TrafficProfile, demo_network, run_audit
from .analysis import (
    plan_gbf_for_target,
    plan_gbf_from_memory,
    plan_tbf_for_target,
    plan_tbf_from_memory,
)
from .baselines import (
    ExactDetector,
    LandmarkBloomDetector,
    MetwallyCBFDetector,
    NaiveSubwindowBloomDetector,
    StableBloomDetector,
)
from .bloom import BloomFilter, CountingBloomFilter, StableBloomFilter
from .core import (
    CheckpointStore,
    GBFDetector,
    TBFDetector,
    TBFJumpingDetector,
    TimeBasedGBFDetector,
    TimeBasedTBFDetector,
)
from .adaptive import (
    AdaptiveController,
    AdaptiveDetector,
    AgePartitionedBFDetector,
    ControllerConfig,
    ResizeEvent,
    TimeLimitedBFDetector,
    scaled_spec,
)
from .detection import (
    AlertEngine,
    APBFParams,
    DetectionPipeline,
    Detector,
    DetectorLifecycle,
    DetectorSpec,
    GBFParams,
    TBFParams,
    TLBFParams,
    WindowSpec,
    create_detector,
)
from .errors import (
    BudgetError,
    CapacityError,
    CheckpointError,
    ConfigurationError,
    OverloadedError,
    ProtocolError,
    RecoveryError,
    ReproError,
    StreamError,
)
from .resilience import DeadLetterSink, FaultInjector
from .telemetry import (
    DetectorInstrument,
    MetricsRegistry,
    NullRegistry,
    TelemetrySession,
    render_dashboard,
    theoretical_fp_bound,
)
from .streams import (
    BotnetCampaign,
    Click,
    IdentifierScheme,
    TrafficClass,
    distinct_stream,
    duplicated_stream,
)
from .windows import JumpingWindow, LandmarkWindow, SlidingWindow

__all__ = [
    "__version__",
    # core algorithms
    "GBFDetector",
    "TBFDetector",
    "TBFJumpingDetector",
    "TimeBasedGBFDetector",
    "TimeBasedTBFDetector",
    # baselines
    "ExactDetector",
    "LandmarkBloomDetector",
    "NaiveSubwindowBloomDetector",
    "MetwallyCBFDetector",
    "StableBloomDetector",
    # substrates
    "BloomFilter",
    "CountingBloomFilter",
    "StableBloomFilter",
    "SlidingWindow",
    "JumpingWindow",
    "LandmarkWindow",
    # streams & network
    "Click",
    "TrafficClass",
    "IdentifierScheme",
    "distinct_stream",
    "duplicated_stream",
    "BotnetCampaign",
    "AdNetwork",
    "TrafficProfile",
    "BillingEngine",
    "demo_network",
    "run_audit",
    # adaptive portfolio & lifecycle
    "AgePartitionedBFDetector",
    "TimeLimitedBFDetector",
    "AdaptiveDetector",
    "AdaptiveController",
    "ControllerConfig",
    "ResizeEvent",
    "scaled_spec",
    "DetectorLifecycle",
    # detection & planning
    "create_detector",
    "DetectorSpec",
    "Detector",
    "WindowSpec",
    "GBFParams",
    "TBFParams",
    "APBFParams",
    "TLBFParams",
    "DetectionPipeline",
    "AlertEngine",
    "plan_gbf_from_memory",
    "plan_gbf_for_target",
    "plan_tbf_from_memory",
    "plan_tbf_for_target",
    # resilience
    "CheckpointStore",
    "DeadLetterSink",
    "FaultInjector",
    # telemetry
    "TelemetrySession",
    "MetricsRegistry",
    "NullRegistry",
    "DetectorInstrument",
    "render_dashboard",
    "theoretical_fp_bound",
    # errors
    "ReproError",
    "ConfigurationError",
    "CapacityError",
    "StreamError",
    "BudgetError",
    "CheckpointError",
    "RecoveryError",
    "ProtocolError",
    "OverloadedError",
]

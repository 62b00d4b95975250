"""High-level detection: unified protocol + factory, pipeline, scoring, alerting."""

from .alerts import Alert, AlertEngine, AlertRule, default_rules
from .api import Detector, DetectorLifecycle, LifecycleAdapter, as_lifecycle
from .coalitions import CoalitionDetector, CoalitionPair, MinHashSignature
from .detector import (
    ALGORITHMS,
    PARAMS_TYPES,
    SHARDABLE_ALGORITHMS,
    TIME_BASED_ALGORITHMS,
    APBFParams,
    DetectorSpec,
    GBFParams,
    TBFParams,
    TLBFParams,
    WindowSpec,
    create_detector,
)
from .heavy_hitters import HeavyHitter, SkewMonitor, SpaceSaving
from .pipeline import DetectionPipeline, PipelineResult, classify_stream
from .quality import ClickQualityTracker, QualityConfig
from .scoring import SourceScoreboard, SourceStats
from .sharded import FailoverPolicy, ShardedDetector, default_router

__all__ = [
    # The blessed public surface: protocol + spec + factory first.
    "Detector",
    "DetectorSpec",
    "WindowSpec",
    "create_detector",
    "GBFParams",
    "TBFParams",
    "APBFParams",
    "TLBFParams",
    "PARAMS_TYPES",
    "ALGORITHMS",
    "TIME_BASED_ALGORITHMS",
    "SHARDABLE_ALGORITHMS",
    "DetectorLifecycle",
    "LifecycleAdapter",
    "as_lifecycle",
    # Pipelines and sharding.
    "DetectionPipeline",
    "PipelineResult",
    "classify_stream",
    "ShardedDetector",
    "FailoverPolicy",
    "default_router",
    # Scoring, quality, alerting, coalition analysis.
    "SourceScoreboard",
    "SourceStats",
    "ClickQualityTracker",
    "QualityConfig",
    "SpaceSaving",
    "SkewMonitor",
    "HeavyHitter",
    "CoalitionDetector",
    "CoalitionPair",
    "MinHashSignature",
    "AlertEngine",
    "AlertRule",
    "Alert",
    "default_rules",
]

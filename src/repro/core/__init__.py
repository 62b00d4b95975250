"""The paper's contribution: GBF and TBF duplicate-click detectors."""

from .checkpoint import (
    CheckpointError,
    CheckpointStore,
    load_detector,
    pack_frame,
    register_checkpoint_kind,
    save_detector,
    unpack_frame,
)
from .contract import CountBasedDetector, TimeBasedDetector
from .gbf import GBFDetector
from .gbf_timebased import TimeBasedGBFDetector
from .memory_model import (
    OpCost,
    exact_dict_cost,
    gbf_cost,
    gbf_tbf_crossover_subwindows,
    metwally_cbf_cost,
    naive_subwindow_bloom_cost,
    tbf_cost,
)
from .tbf import TBFDetector, entry_bits_required
from .tbf_jumping import TBFJumpingDetector
from .tbf_timebased import TimeBasedTBFDetector

__all__ = [
    "save_detector",
    "load_detector",
    "pack_frame",
    "unpack_frame",
    "register_checkpoint_kind",
    "CheckpointError",
    "CheckpointStore",
    "CountBasedDetector",
    "TimeBasedDetector",
    "GBFDetector",
    "TBFDetector",
    "TBFJumpingDetector",
    "TimeBasedGBFDetector",
    "TimeBasedTBFDetector",
    "entry_bits_required",
    "OpCost",
    "gbf_cost",
    "tbf_cost",
    "naive_subwindow_bloom_cost",
    "metwally_cbf_cost",
    "exact_dict_cost",
    "gbf_tbf_crossover_subwindows",
]

"""Multi-view multi-point tracking evaluation."""

__version__ = "0.1.0"

from .core import (
    Dataset,
    DatasetError,
    EvalConfig,
    IdMap,
    Point,
    Role,
    ValidationReport,
    parse_dataset,
    remap_gt_ids,
    serialize_dataset,
    validate_pair,
)
from .matching import FrameMatch, assign_temporal_ids, match_frame
from .metrics import (
    EvaluationError,
    MetricReport,
    OcclusionReport,
    Scene,
    evaluate,
    evaluate_detailed,
    hota,
    mv_hota,
    occlusion_index,
)
from .synth import SynthConfig, correspondence_contrast_fixture, generate, three_view_fixture

__all__ = [
    "Dataset",
    "DatasetError",
    "EvalConfig",
    "EvaluationError",
    "FrameMatch",
    "IdMap",
    "MetricReport",
    "OcclusionReport",
    "Point",
    "Role",
    "Scene",
    "SynthConfig",
    "ValidationReport",
    "assign_temporal_ids",
    "evaluate",
    "evaluate_detailed",
    "correspondence_contrast_fixture",
    "generate",
    "hota",
    "match_frame",
    "mv_hota",
    "occlusion_index",
    "parse_dataset",
    "remap_gt_ids",
    "serialize_dataset",
    "three_view_fixture",
    "validate_pair",
]

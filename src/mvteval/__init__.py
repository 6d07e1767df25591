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
from .matching import (
    Assignment,
    CostMatrix,
    FrameMatch,
    TrackRegistry,
    assign_temporal_ids,
    build_cost_matrix,
    match_frame,
    minimize_cost,
    solve_assignment,
)
from .metrics import (
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
    "Assignment",
    "CostMatrix",
    "Dataset",
    "DatasetError",
    "EvalConfig",
    "FrameMatch",
    "IdMap",
    "MetricReport",
    "OcclusionReport",
    "Point",
    "Role",
    "Scene",
    "SynthConfig",
    "TrackRegistry",
    "ValidationReport",
    "assign_temporal_ids",
    "build_cost_matrix",
    "evaluate",
    "evaluate_detailed",
    "correspondence_contrast_fixture",
    "generate",
    "hota",
    "match_frame",
    "minimize_cost",
    "mv_hota",
    "occlusion_index",
    "parse_dataset",
    "remap_gt_ids",
    "serialize_dataset",
    "solve_assignment",
    "three_view_fixture",
    "validate_pair",
]

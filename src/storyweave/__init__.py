"""Crossing-minimized layouts for time-interval storylines.

Data with coarse timestamps (years, scenes, chapters) has no total order on
its interactions, only on its time intervals.  This package lays such data
out as a storyline: characters as x-monotone curves, interactions as
vertical groups, every time interval as a slice of one or more layers whose
internal order is free.  That freedom is spent on minimizing curve
crossings, either heuristically (coloring, per-slice path ordering, then a
min-plus DP over the character orders of the fixed layers) or exactly with
four 0/1 program formulations, all scored by the same counting oracle.
"""

from .core import (
    ActivityMode,
    CharId,
    CombinatorialStoryline,
    CrossingCount,
    InstanceError,
    Interaction,
    InteractionId,
    Layer,
    LayoutReport,
    SearchSpaceError,
    StorylineInstance,
    TimeId,
    brute_force_optimum,
    count_crossings,
    gap_crossings,
    order_fixed_layers,
    validate_instance,
    validate_storyline,
)
from .bip import (
    BinaryProgram,
    ModelBuilder,
    SolveResult,
    VarId,
    export_lp,
    gap_percent,
    parse_lp,
    solve,
)
from .coloring import Coloring, ConflictGraph, build_conflict_graph, layer_budget, min_coloring
from .ordering import (
    RandCounts,
    approx_path_order,
    build_slice_graph,
    min_path_order,
    pattern_count,
    rand_counts,
    rand_index,
)
from .formulations import (
    ILP1,
    ILP1ML,
    ILP2,
    ILP2ML,
    LayerSlot,
    ModelKind,
    VariableCatalog,
    build_model,
    decode,
    solve_exact,
)
from .pipeline import PipelineConfig, layout, orient_slice_paths, run_pipeline
from .render import (
    GeometricStoryline,
    assign_coordinates,
    emit_svg,
    pad_short_curves,
)

__version__ = "0.1.0"

__all__ = [
    "ActivityMode",
    "BinaryProgram",
    "CharId",
    "Coloring",
    "CombinatorialStoryline",
    "ConflictGraph",
    "CrossingCount",
    "GeometricStoryline",
    "ILP1",
    "ILP1ML",
    "ILP2",
    "ILP2ML",
    "InstanceError",
    "Interaction",
    "InteractionId",
    "Layer",
    "LayerSlot",
    "LayoutReport",
    "ModelBuilder",
    "ModelKind",
    "PipelineConfig",
    "RandCounts",
    "SearchSpaceError",
    "SolveResult",
    "StorylineInstance",
    "TimeId",
    "VarId",
    "VariableCatalog",
    "__version__",
    "approx_path_order",
    "assign_coordinates",
    "brute_force_optimum",
    "build_conflict_graph",
    "build_model",
    "build_slice_graph",
    "count_crossings",
    "decode",
    "emit_svg",
    "export_lp",
    "gap_crossings",
    "gap_percent",
    "layer_budget",
    "layout",
    "min_coloring",
    "min_path_order",
    "order_fixed_layers",
    "orient_slice_paths",
    "pad_short_curves",
    "parse_lp",
    "pattern_count",
    "rand_counts",
    "rand_index",
    "run_pipeline",
    "solve",
    "solve_exact",
    "validate_instance",
    "validate_storyline",
]

"""Heuristic layout pipeline.

Three stages: (i) assign each timestamp's interactions to layers through
exact conflict-graph coloring, (ii) order the layers of every slice along a
minimum-weight Hamiltonian path under the chosen crossing estimate (exactly
up to ``ordering.MAX_EXACT_PATH_NODES`` layers while the budget lasts, by
nearest neighbour plus 2-opt, cut at the budget, otherwise) and orient each
path against the slice before it, then (iii) order the characters of the
now fixed layers with :func:`core.order_fixed_layers`, a min-plus DP over
every layer's candidate orders when they are few enough.  The two variants
differ only in the stage (ii) edge weights: partition similarity ("rand")
or unavoidable-pattern counts ("pattern").
"""

from __future__ import annotations

import itertools
import logging
import time
from dataclasses import dataclass

from . import coloring, ordering
from .core import (
    CharId,
    CombinatorialStoryline,
    InteractionId,
    Layer,
    LayoutReport,
    StorylineInstance,
    TimeId,
    count_crossings,
    order_fixed_layers,
)

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class PipelineConfig:
    heuristic: str = "rand"  # "rand" or "pattern"
    cap: int | None = None
    timeout: float = 3600.0

    def __post_init__(self) -> None:
        if self.heuristic not in ordering.HEURISTICS:
            raise ValueError(f"unknown heuristic {self.heuristic!r}")
        if not self.timeout > 0:  # also rejects nan
            raise ValueError("timeout must be positive")

    @property
    def algorithm(self) -> str:
        return "ps" if self.heuristic == "rand" else "pp"


def orient_slice_paths(
    slices: list[list[tuple[frozenset[CharId], ...]]], heuristic: str
) -> list[bool]:
    """Whether to reverse each slice's layer path, left to right.

    The path solver returns an undirected path per slice; stitching is
    greedy: a slice is reversed when its last layer scores a strictly
    smaller weight than its first against the previous slice's last layer,
    as that slice is drawn.  Ties, and the first slice, keep the canonical
    direction, so a slice whose end layers are equal is never reversed; a
    one-layer slice is not scored at all.
    """
    flips = [False] * len(slices)
    for k, (prev, s) in enumerate(itertools.pairwise(slices), 1):
        last = prev[0] if flips[k - 1] else prev[-1]
        flips[k] = len(s) > 1 and (
            ordering.layer_weight(last, s[-1], heuristic)
            < ordering.layer_weight(last, s[0], heuristic)
        )
    return flips


def run_pipeline(
    inst: StorylineInstance, cfg: PipelineConfig
) -> tuple[CombinatorialStoryline, LayoutReport]:
    """Run coloring, slice ordering and fixed-layer crossing minimization.

    A slice too large for the exact path, or whose exact path outlasts
    ``cfg.timeout``, takes the approximate path, which also stops at the
    budget, and the last stage gets what remains.  Orders it cannot prove
    optimal are reported as ``feasible-timeout`` with a 100 % gap.
    Crossings are recounted with the oracle.  ``stage_seconds`` splits
    ``runtime`` into ``coloring``, ``ordering`` and ``crossing``.
    """
    t0 = time.monotonic()
    deadline = t0 + cfg.timeout

    # Stage (i): one color class per layer, per timestamp.
    slices: list[tuple[TimeId, list[list[InteractionId]]]] = []
    for t in range(inst.num_timestamps):
        graph = coloring.build_conflict_graph(inst, t)
        if graph.nodes:
            slices.append((t, coloring.min_coloring(graph, cfg.cap).classes()))
    t_color = time.monotonic()

    # Stage (ii): order each slice's layers along a cheapest path, then orient it.
    def groups_of(ids: list[InteractionId]) -> tuple[frozenset[CharId], ...]:
        return tuple(inst.interactions[iid].characters for iid in ids)

    for t, layers in slices:
        weights = ordering.integer_weights(
            ordering.build_slice_graph([groups_of(ids) for ids in layers], cfg.heuristic)
        )
        path = ordering.min_path_order(weights, deadline)
        if path is None:
            log.info("timestamp %d: %d layers, ordered heuristically", t, len(layers))
            path = ordering.approx_path_order(weights, deadline)
        layers[:] = [layers[i] for i in path]
    flips = orient_slice_paths(
        [[groups_of(ids) for ids in layers] for _t, layers in slices], cfg.heuristic
    )
    t_order = time.monotonic()

    # Stage (iii): character orders within the fixed layers.
    fixed = [
        (t, tuple(ids), inst.potential[t])
        for (t, layers), flip in zip(slices, flips)
        for ids in (layers[::-1] if flip else layers)
    ]
    orders, _cost, proven = order_fixed_layers(
        [(groups_of(ids), act) for _t, ids, act in fixed], deadline=deadline
    )
    story = CombinatorialStoryline(
        tuple(Layer(t, ids, order, act) for (t, ids, act), order in zip(fixed, orders))
    )
    crossings = count_crossings(story).total
    runtime = time.monotonic() - t0
    stages = {"coloring": t_color - t0, "ordering": t_order - t_color}
    stages["crossing"] = runtime - (t_order - t0)
    status, gap = ("optimal", None) if proven else ("feasible-timeout", 100.0)
    return story, LayoutReport(
        cfg.algorithm, crossings, len(story.layers), runtime, status, gap, stages
    )

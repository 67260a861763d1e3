"""Heuristic layout pipeline.

Three stages: (i) assign each timestamp's interactions to layers through
exact conflict-graph coloring, (ii) order the layers of every slice along a
minimum-weight Hamiltonian path under the chosen crossing estimate (exactly
up to ``ordering.MAX_EXACT_PATH_NODES`` layers, by nearest neighbour plus
2-opt beyond that), then (iii) order the characters of the now fixed layers
with :func:`core.order_fixed_layers`, a min-plus DP over every layer's
candidate orders when they are few enough.  The two variants differ only
in the stage (ii) edge weights: partition similarity ("rand") or
unavoidable-pattern counts ("pattern").
"""

from __future__ import annotations

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
    potential_characters,
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
) -> list[list[tuple[frozenset[CharId], ...]]]:
    """Pick a left-to-right direction for each slice's layer path.

    The path solver returns an undirected path per slice; stitching is
    greedy: keep the orientation whose first layer scores the smaller
    weight against the previous slice's last layer, ties keeping the
    canonical direction.
    """
    if len(slices) <= 1:
        return [list(s) for s in slices]

    out = [list(slices[0])]
    for s in slices[1:]:
        prev_last = out[-1][-1]
        keep = ordering.layer_weight(prev_last, s[0], heuristic)
        flip = ordering.layer_weight(prev_last, s[-1], heuristic)
        out.append(list(reversed(s)) if flip < keep else list(s))
    return out


def run_pipeline(
    inst: StorylineInstance, cfg: PipelineConfig
) -> tuple[CombinatorialStoryline, LayoutReport]:
    """Run coloring, slice ordering and fixed-layer crossing minimization.

    The last stage gets what remains of ``cfg.timeout``.  Orders it cannot
    prove optimal are reported as ``feasible-timeout`` with a 100 % gap.
    Crossings are recounted with the oracle.  ``stage_seconds`` splits
    ``runtime`` into ``coloring``, ``ordering`` and ``crossing``.
    """
    t0 = time.monotonic()

    # Stage (i): one color class per layer, per timestamp.
    classes_at: dict[TimeId, list[list[InteractionId]]] = {}
    for t in range(inst.num_timestamps):
        graph = coloring.build_conflict_graph(inst, t)
        if not graph.nodes:
            continue
        classes_at[t] = coloring.min_coloring(graph, cfg.cap).classes()
    t_color = time.monotonic()

    # Stage (ii): order each slice's layers along a cheapest path.
    def groups_of(ids: list[InteractionId]) -> tuple[frozenset[CharId], ...]:
        return tuple(inst.interactions[iid].characters for iid in ids)

    slice_times = sorted(classes_at)
    slices: list[list[tuple[frozenset[CharId], ...]]] = []
    slice_ids: list[list[list[InteractionId]]] = []
    for t in slice_times:
        layers = classes_at[t]
        weights = ordering.build_slice_graph([groups_of(ids) for ids in layers], cfg.heuristic)
        if len(layers) <= ordering.MAX_EXACT_PATH_NODES:
            path = ordering.min_path_order(weights)
        else:
            log.info("timestamp %d: %d layers, ordered heuristically", t, len(layers))
            path = ordering.approx_path_order(weights)
        slices.append([groups_of(layers[i]) for i in path])
        slice_ids.append([layers[i] for i in path])
    oriented = orient_slice_paths(slices, cfg.heuristic)
    # Layers with equal contents are interchangeable, so matching by content
    # against the canonical direction recovers each slice's flip decision.
    oriented_ids = [
        list(reversed(ids)) if done != canonical else ids
        for canonical, done, ids in zip(slices, oriented, slice_ids)
    ]
    t_order = time.monotonic()

    # Stage (iii): character orders within the fixed layers.
    fixed = [
        (t, tuple(sorted(ids)), potential_characters(inst, t))
        for t, layers_ids in zip(slice_times, oriented_ids)
        for ids in layers_ids
    ]
    orders, _cost, proven = order_fixed_layers(
        [(groups_of(ids), act) for _t, ids, act in fixed],
        deadline=t0 + cfg.timeout,
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

"""Heuristic layout pipeline.

Three stages: (i) assign each timestamp's interactions to layers through
exact conflict-graph coloring, (ii) order the layers of every slice along a
minimum-weight Hamiltonian path under the chosen crossing estimate (exactly
up to ``ordering.MAX_EXACT_PATH_NODES`` layers, by nearest neighbour plus
2-opt beyond that), then (iii) optimize the character order of every layer
with the fixed-layer model.  The two variants differ only in the stage (ii)
edge weights: partition similarity ("rand") or unavoidable-pattern counts
("pattern").
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, replace

from . import bip, coloring, formulations, ordering
from .core import (
    CharId,
    CombinatorialStoryline,
    InteractionId,
    LayoutReport,
    StorylineInstance,
    TimeId,
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
        if self.timeout <= 0:
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
) -> tuple[CombinatorialStoryline | None, LayoutReport]:
    """Run coloring, slice ordering and fixed-layer crossing minimization.

    The crossing-minimization stage receives whatever remains of
    ``cfg.timeout`` after the first two stages, at least
    ``formulations.MIN_SEARCH_SECONDS``.  Its result goes through
    ``formulations.decode_and_report`` like an exact solve: a timeout
    surfaces as a ``feasible-timeout`` report built from the solver's
    incumbent, and a timeout before any ordering was found returns no
    storyline.  ``stage_seconds`` splits ``runtime`` into ``coloring``,
    ``ordering`` and ``crossing`` (search, decoding and recount).
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
        graph = ordering.build_slice_graph([groups_of(ids) for ids in layers], cfg.heuristic, t)
        if len(layers) <= ordering.MAX_EXACT_PATH_NODES:
            path = ordering.min_path_order(graph)
        else:
            log.info("timestamp %d: %d layers, ordered heuristically", t, len(layers))
            path = ordering.approx_path_order(graph)
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

    # Stage (iii): fixed layers, optimal character orders.
    budgets = {t: len(classes_at[t]) for t in slice_times}
    assignment: dict[InteractionId, int] = {}
    slot_base = 0
    for layers_ids in oriented_ids:
        for pos, ids in enumerate(layers_ids):
            for iid in ids:
                assignment[iid] = slot_base + pos
        slot_base += len(layers_ids)
    program, cat = formulations.build_model(
        inst, formulations.FIXED_LAYER, budgets, fixed_assignment=assignment
    )
    result = bip.solve(program, timeout=formulations.search_seconds(cfg.timeout, t0))
    story, report = formulations.decode_and_report(inst, cat, result, cfg.algorithm, t0)
    stages = {"coloring": t_color - t0, "ordering": t_order - t_color}
    stages["crossing"] = report.runtime - (t_order - t0)
    return story, replace(report, stage_seconds=stages)

"""Heuristic layout pipeline.

Three stages: (i) assign each timestamp's interactions to layers through
exact conflict-graph coloring, (ii) order the layers of every slice along a
minimum-weight Hamiltonian path under the chosen crossing estimate (exactly
up to ``ordering.MAX_EXACT_PATH_NODES`` layers while the budget lasts, by
nearest neighbour plus 2-opt, cut at the budget, otherwise) and orient each
path against the slice before it, then (iii) order the characters of the
now fixed layers with :func:`core.order_fixed_layers`, one run of the
min-plus engine that the exhaustive optimum also runs, over every layer's
candidate orders when they are few enough.  The two variants
differ only in the stage (ii) edge weights: partition similarity ("rand")
or unavoidable-pattern counts ("pattern").  :func:`layout` runs any of the
six ``ALGORITHMS``; the pipeline and the exact solve end in one tail,
:func:`core._finish`, which judges status and gap from the oracle count and
the bound each proved.
"""

from __future__ import annotations

import itertools
import logging
import time
from dataclasses import dataclass

from . import coloring, formulations, ordering
from .core import (
    DEFAULT_TIMEOUT,
    CharId,
    CombinatorialStoryline,
    InteractionId,
    Layer,
    LayoutReport,
    StorylineInstance,
    TimeId,
    _finish,
    order_fixed_layers,
)

log = logging.getLogger(__name__)
_PIPELINE_ALGORITHMS = {"rand": "ps", "pattern": "pp"}
ALGORITHMS = (*_PIPELINE_ALGORITHMS.values(), *formulations.EXACT_KINDS)


@dataclass(frozen=True)
class PipelineConfig:
    heuristic: str = "rand"  # "rand" or "pattern"
    cap: int | None = None
    timeout: float = DEFAULT_TIMEOUT

    def __post_init__(self) -> None:
        if self.heuristic not in ordering.HEURISTICS:
            raise ValueError(f"unknown heuristic {self.heuristic!r}")
        coloring.check_cap(self.cap)
        if not self.timeout > 0:  # also rejects nan
            raise ValueError("timeout must be positive")

    @property
    def algorithm(self) -> str:
        return _PIPELINE_ALGORITHMS[self.heuristic]


def orient_slice_paths(
    slices: list[list[tuple[frozenset[CharId], ...]]], heuristic: str
) -> list[bool]:
    """Whether to reverse each slice's layer path, left to right.

    The path solver returns an undirected path per slice; stitching is
    greedy: a slice is reversed when its last layer scores a strictly
    smaller weight than its first against the previous slice's last layer,
    as that slice is drawn.  Ties, and the first slice, keep the canonical
    direction, so a slice whose end layers are equal is never reversed; a
    one-layer slice is not scored at all.  The weights are exact ratios,
    compared by cross-multiplication.
    """
    flips = [False] * len(slices)
    for k, (prev, s) in enumerate(itertools.pairwise(slices), 1):
        if len(s) > 1:
            last = prev[0] if flips[k - 1] else prev[-1]
            num_end, den_end = ordering.layer_distance(last, s[-1], heuristic)
            num_start, den_start = ordering.layer_distance(last, s[0], heuristic)
            flips[k] = num_end * den_start < num_start * den_end
    return flips


def run_pipeline(
    inst: StorylineInstance, cfg: PipelineConfig
) -> tuple[CombinatorialStoryline, LayoutReport]:
    """Run coloring, slice ordering and fixed-layer crossing minimization.

    A slice too large for the exact path, or whose exact path outlasts
    ``cfg.timeout``, takes the approximate path, which also stops at the
    budget, and the last stage gets what remains.  The bound handed to the
    shared tail is the crossing count of the character orders when they are
    proven optimal for the fixed layers, and 0 otherwise.  ``stage_seconds``
    splits ``runtime`` into ``coloring``, ``ordering`` and ``crossing``.
    """
    t0 = time.monotonic()
    deadline = t0 + cfg.timeout

    # Stage (i): one color class per layer, per timestamp, with the character
    # groups of its interactions.
    slices: list[tuple[TimeId, list[tuple[tuple[InteractionId, ...], ordering.LayerGroups]]]] = []
    for t in range(inst.num_timestamps):
        graph = coloring.build_conflict_graph(inst, t)
        if graph.nodes:
            layers = [
                (tuple(ids), tuple(inst.interactions[iid].characters for iid in ids))
                for ids in coloring.min_coloring(graph, cfg.cap).classes()
            ]
            slices.append((t, layers))
    t_color = time.monotonic()

    # Stage (ii): order each slice's layers along a cheapest path, then orient
    # it.  A one-layer slice has one path, [0].
    for t, layers in slices:
        if len(layers) == 1:
            continue
        weights = ordering.build_slice_graph([groups for _ids, groups in layers], cfg.heuristic)
        path = ordering.min_path_order(weights, deadline)
        if path is None:
            log.info("timestamp %d: %d layers, ordered heuristically", t, len(layers))
            path = ordering.approx_path_order(weights, deadline)
        layers[:] = [layers[i] for i in path]
    flips = orient_slice_paths(
        [[groups for _ids, groups in layers] for _t, layers in slices], cfg.heuristic
    )
    t_order = time.monotonic()

    # Stage (iii): character orders within the fixed layers.
    fixed = [
        (t, ids, groups, inst.potential[t])
        for (t, layers), flip in zip(slices, flips)
        for ids, groups in (layers[::-1] if flip else layers)
    ]
    orders, cost, proven = order_fixed_layers(
        [(groups, act) for _t, _ids, groups, act in fixed], deadline=deadline
    )
    story = CombinatorialStoryline(
        tuple(Layer(t, ids, order, act) for (t, ids, _g, act), order in zip(fixed, orders))
    )
    starts = {"coloring": t0, "ordering": t_color, "crossing": t_order}
    return _finish(cfg.algorithm, story, t0, cost if proven else 0, starts)


def layout(
    inst: StorylineInstance,
    algorithm: str,
    timeout: float = DEFAULT_TIMEOUT,
    cap: int | None = None,
) -> tuple[CombinatorialStoryline | None, LayoutReport]:
    """Run one of ``ALGORITHMS`` by name; an unknown name raises ValueError."""
    for heuristic, name in _PIPELINE_ALGORITHMS.items():
        if algorithm == name:
            return run_pipeline(inst, PipelineConfig(heuristic, cap, timeout))
    if algorithm not in formulations.EXACT_KINDS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    kind = formulations.EXACT_KINDS[algorithm]
    return formulations.solve_exact(inst, kind, timeout=timeout, cap=cap)

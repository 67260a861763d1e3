"""Horizontal ordering of the layers inside one slice.

Given the provisional layers of a timestamp (sets of character groups), we
score every layer pair with an estimate of the crossings they would force
if drawn next to each other, then pick the layer sequence as a
minimum-weight Hamiltonian path on the complete weighted graph.

Two estimators are available: partition similarity (Rand index over shared
character pairs, converted to a distance) and a direct count of four
character patterns that make a crossing unavoidable.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import CharId

# A layer is handled here as a collection of character groups, one frozenset
# per interaction; groups within one layer are pairwise disjoint.
LayerGroups = Sequence[frozenset[CharId]]
# Symmetric edge weights of a slice's complete layer graph, indexed by layer.
Weights = tuple[tuple[Fraction | int, ...], ...]

HEURISTICS = ("rand", "pattern")

MAX_EXACT_PATH_NODES = 18


@dataclass(frozen=True)
class RandCounts:
    """Pair classification behind the Rand index.

    The counting universe is every unordered pair of characters appearing
    in both layers; each such pair is together (inside one group) or apart
    in each layer, giving four buckets.
    """

    together_both: int
    apart_both: int
    apart_then_together: int
    together_then_apart: int

    @property
    def universe(self) -> int:
        return (
            self.together_both
            + self.apart_both
            + self.apart_then_together
            + self.together_then_apart
        )


def _together_pairs(layer: LayerGroups, shared: set[CharId]) -> set[frozenset[CharId]]:
    """Pairs of ``shared`` characters inside one group of ``layer``."""
    return {frozenset(p) for g in layer for p in itertools.combinations(g & shared, 2)}


def rand_counts(a: LayerGroups, b: LayerGroups) -> RandCounts:
    shared = set().union(*a) & set().union(*b)
    together_a = _together_pairs(a, shared)
    together_b = _together_pairs(b, shared)
    both = len(together_a & together_b)
    a_only = len(together_a - together_b)
    b_only = len(together_b - together_a)
    apart = math.comb(len(shared), 2) - both - a_only - b_only
    return RandCounts(both, apart, b_only, a_only)


def rand_index(a: LayerGroups, b: LayerGroups) -> Fraction:
    """Partition similarity of two layers over their shared character pairs.

    (pairs classified the same way in both layers) / (all shared pairs);
    an empty universe scores 1, as layers without shared pairs cannot force
    a crossing.
    """
    c = rand_counts(a, b)
    if c.universe == 0:
        return Fraction(1)
    return Fraction(c.together_both + c.apart_both, c.universe)


def _quad_splits(layer: LayerGroups) -> dict[frozenset[CharId], set[frozenset[frozenset[CharId]]]]:
    """For each 4-character set: the 2+2 splits realized by two distinct groups."""
    out: dict[frozenset[CharId], set[frozenset[frozenset[CharId]]]] = {}
    for g1, g2 in itertools.combinations(layer, 2):
        for a, b in itertools.combinations(sorted(g1), 2):
            for c, d in itertools.combinations(sorted(g2), 2):
                quad = frozenset((a, b, c, d))
                if len(quad) != 4:
                    continue
                split = frozenset((frozenset((a, b)), frozenset((c, d))))
                out.setdefault(quad, set()).add(split)
    return out


def pattern_count(a: LayerGroups, b: LayerGroups) -> int:
    """Number of unavoidable-crossing patterns between two layers.

    A pattern is four characters split 2+2 by two groups of one layer and
    split differently by two groups of the other; whatever the orders, one
    of the four curves must cross another.  Each (character set, split,
    split) realization counts once.
    """
    splits_a = _quad_splits(a)
    splits_b = _quad_splits(b)
    total = 0
    for quad, sa in splits_a.items():
        sb = splits_b.get(quad)
        if sb:
            total += len(sa) * len(sb) - len(sa & sb)
    return total


def build_slice_graph(
    layers: Sequence[LayerGroups], heuristic: str
) -> tuple[tuple[int, ...], ...]:
    """Edge weights of the complete graph over one slice's layers, as ints.

    Each edge weighs :func:`layer_distance`, times the least common multiple
    of the slice's denominators.  A positive scale keeps every comparison
    and tie, so both path solvers return the paths the exact ratios give,
    and int sums are several times cheaper than :class:`Fraction` sums.
    """
    if heuristic not in HEURISTICS:
        raise ValueError(f"unknown heuristic {heuristic!r}")
    n = len(layers)
    pairs = list(itertools.combinations(range(n), 2))
    ratios = [layer_distance(layers[i], layers[j], heuristic) for i, j in pairs]
    scale = math.lcm(*(den for _num, den in ratios))
    weights = [[0] * n for _ in range(n)]
    for (i, j), (num, den) in zip(pairs, ratios):
        weights[i][j] = weights[j][i] = num * (scale // den)
    return tuple(tuple(row) for row in weights)


def layer_distance(a: LayerGroups, b: LayerGroups, heuristic: str) -> tuple[int, int]:
    """The weight of a layer pair as an exact ratio ``(num, den)``, den > 0.

    ``pattern`` is :func:`pattern_count` over 1; ``rand`` is
    1 - :func:`rand_index`, turning similarity into a distance so that the
    path solver can minimize: the shared pairs grouped differently in the
    two layers over all shared pairs, or 0 over 1 when there are none.
    """
    if heuristic == "pattern":
        return pattern_count(a, b), 1
    if heuristic == "rand":
        c = rand_counts(a, b)
        return c.apart_then_together + c.together_then_apart, c.universe or 1
    raise ValueError(f"unknown heuristic {heuristic!r}")


def min_path_order(w: Weights, deadline: float = math.inf) -> list[int] | None:
    """Minimum-weight Hamiltonian path over the weight matrix ``w``, exactly.

    Subset dynamic programming.  Among all optimal paths the
    lexicographically smallest index sequence is returned, which also fixes
    the orientation of the path.  None is returned for more than
    :data:`MAX_EXACT_PATH_NODES` nodes, and as soon as the
    ``time.monotonic`` clock, read once per subset, has passed ``deadline``.
    """
    n = len(w)
    if n == 0:
        raise ValueError("slice has no layers")
    if n > MAX_EXACT_PATH_NODES:
        return None
    if n == 1:
        return [0]

    # best[mask][v]: cheapest path visiting exactly ``mask`` and ending at v.
    full = (1 << n) - 1
    best: list[list] = [[None] * n for _ in range(full + 1)]
    for v in range(n):
        best[1 << v][v] = 0
    for mask in range(1, full + 1):
        if time.monotonic() > deadline:
            return None
        row = best[mask]
        for v in range(n):
            cur = row[v]
            if cur is None or not (mask >> v) & 1:
                continue
            for u in range(n):
                if (mask >> u) & 1:
                    continue
                nxt = cur + w[v][u]
                cell = best[mask | (1 << u)]
                if cell[u] is None or nxt < cell[u]:
                    cell[u] = nxt

    opt = min(c for c in best[full] if c is not None)

    # A path over ``mask`` starting at v costs best[mask][v] read backwards,
    # so the lexicographically smallest optimum can be built front to back.
    path: list[int] = []
    mask = full
    budget = opt
    prev: int | None = None
    for _ in range(n):
        for v in range(n):
            if not (mask >> v) & 1:
                continue
            step = 0 if prev is None else w[prev][v]
            if best[mask][v] is not None and step + best[mask][v] == budget:
                path.append(v)
                budget -= step
                mask ^= 1 << v
                prev = v
                break
        else:
            raise AssertionError("path reconstruction failed")
    return path


def approx_path_order(w: Weights, deadline: float = math.inf) -> list[int]:
    """A cheap Hamiltonian path for slices :func:`min_path_order` cannot order.

    Nearest neighbour from every start node (ties to the smaller index),
    keeping the cheapest path and the earliest start among equals, then
    2-opt: reverse the first segment, in index order, whose reversal makes
    the path strictly cheaper, until no reversal does.  Start 0 always runs;
    each further start and each 2-opt pass runs only while the
    ``time.monotonic`` clock has not passed ``deadline``.  Weights are
    exact, so a run that ends within ``deadline`` is deterministic; the
    result is not optimal in general.
    """
    n = len(w)
    if n == 0:
        raise ValueError("slice has no layers")

    def cost(path: list[int]) -> Fraction | int:
        return sum((w[a][b] for a, b in itertools.pairwise(path)), 0)

    def nearest_neighbour(start: int) -> list[int]:
        path = [start]
        left = set(range(n)) - {start}
        while left:
            nxt = min(left, key=lambda u: (w[path[-1]][u], u))
            path.append(nxt)
            left.remove(nxt)
        return path

    starts = itertools.takewhile(lambda s: s == 0 or time.monotonic() <= deadline, range(n))
    best = min(map(nearest_neighbour, starts), key=cost)

    # Reversing best[i..j] swaps edge (best[i-1], best[i]) for (best[i-1], best[j])
    # and edge (best[j], best[j+1]) for (best[i], best[j+1]); path ends have no edge.
    improved = True
    while improved and time.monotonic() <= deadline:
        improved = False
        for i, j in itertools.combinations(range(n), 2):
            a, b = best[i], best[j]
            delta = 0
            if i > 0:
                delta += w[best[i - 1]][b] - w[best[i - 1]][a]
            if j < n - 1:
                delta += w[a][best[j + 1]] - w[b][best[j + 1]]
            if delta < 0:
                best[i : j + 1] = best[i : j + 1][::-1]
                improved = True
                break
    return best

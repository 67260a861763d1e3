"""Per-timestamp conflict graphs and exact minimum coloring.

Interactions sharing a character cannot sit in the same layer, so the
interactions of one timestamp form a conflict graph whose chromatic number
is the fewest layers that timestamp needs.  Coloring is found exactly by a
backtracking search over palettes of growing size, from the size of a
greedily grown clique up, as no smaller palette can color a clique; an
optional cap bounds the size of every color class, trading more layers for
shorter ones.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import InteractionId, StorylineInstance, TimeId


@dataclass(frozen=True)
class ConflictGraph:
    nodes: tuple[InteractionId, ...]
    edges: tuple[tuple[InteractionId, InteractionId], ...]


@dataclass(frozen=True)
class Coloring:
    assignment: dict[InteractionId, int]
    num_colors: int

    def classes(self) -> list[list[InteractionId]]:
        out: list[list[InteractionId]] = [[] for _ in range(self.num_colors)]
        for node in sorted(self.assignment):
            out[self.assignment[node]].append(node)
        return out


def build_conflict_graph(inst: StorylineInstance, time: TimeId) -> ConflictGraph:
    """Nodes are the timestamp's interactions, edges join those sharing a character."""
    items = inst.by_time[time]
    edges = tuple(
        (a.id, b.id)
        for a, b in itertools.combinations(items, 2)
        if a.characters & b.characters
    )
    return ConflictGraph(tuple(it.id for it in items), edges)


def greedy_clique(g: ConflictGraph) -> tuple[InteractionId, ...]:
    """The largest clique grown greedily from some node of ``g``, adding
    neighbours by descending degree, then in ``g.nodes`` order, while they
    are adjacent to every node taken so far."""
    adj: dict[InteractionId, set[InteractionId]] = {v: set() for v in g.nodes}
    for a, b in g.edges:
        adj[a].add(b)
        adj[b].add(a)
    by_degree = sorted(g.nodes, key=lambda v: -len(adj[v]))
    best: tuple[InteractionId, ...] = ()
    for v in g.nodes:
        clique, common = [v], adj[v]
        for u in by_degree:
            if u in common:
                clique.append(u)
                common = common & adj[u]
        best = max(best, tuple(clique), key=len)
    return best


def min_coloring(g: ConflictGraph, cap: int | None = None) -> Coloring:
    """Exact minimum proper coloring, optionally capping every class at ``cap``.

    Palettes of k = ceil(n / cap) (1 without a cap) or, beyond 2 nodes, the
    size of :func:`greedy_clique` if larger, k+1, ... colors are tried in
    turn; no smaller palette can color a clique.  For each, a fresh
    depth-first search visits the nodes in ``g.nodes`` order and gives each
    the smallest color that no earlier neighbour holds and whose class is
    below the cap.  A node may open at most one new color, which prunes
    color permutations without changing the first coloring found.

    Search color c is reported as k-1-c.  The result is thus the
    lexicographically first coloring over the reversed palette, which is
    what a 0/1 program over assign[v, c], branched value-0-first in node
    order, returns; the classes, hence the pipeline's layers and their
    order, stay those of the 0/1 formulation this search replaced.

    A graph of at most two nodes gets the search's answer without the
    search: two nodes share a color unless they are adjacent or ``cap`` is
    1, and then the first one takes color 1.
    """
    if cap is not None and cap < 1:
        raise ValueError("cap must be at least 1")
    nodes = g.nodes
    if len(nodes) < 2:
        return Coloring(dict.fromkeys(nodes, 0), len(nodes))
    if len(nodes) == 2:
        if g.edges or cap == 1:
            return Coloring({nodes[0]: 1, nodes[1]: 0}, 2)
        return Coloring(dict.fromkeys(nodes, 0), 1)
    return _palette_search(g, cap)


def _palette_search(g: ConflictGraph, cap: int | None) -> Coloring:
    """The search of :func:`min_coloring`, for any number of nodes."""
    nodes = g.nodes
    n = len(nodes)
    index = {v: i for i, v in enumerate(nodes)}
    earlier: list[list[int]] = [[] for _ in nodes]
    for a, b in g.edges:
        i, j = sorted((index[a], index[b]))
        earlier[j].append(i)
    limit = cap or n
    k = -(-n // cap) if cap else min(n, 1)
    if n > 2:
        k = max(k, len(greedy_clique(g)))
    while True:
        color = [-1] * n
        size = [0] * k
        opened = [0] * (n + 1)  # opened[i]: colors in use among nodes < i
        i = 0
        while 0 <= i < n:
            c = color[i]
            if c >= 0:
                size[c] -= 1
            taken = {color[j] for j in earlier[i]}
            top = min(k, opened[i] + 1)
            c += 1
            while c < top and (c in taken or size[c] == limit):
                c += 1
            if c < top:
                color[i] = c
                size[c] += 1
                opened[i + 1] = max(opened[i], c + 1)
                i += 1
            else:
                color[i] = -1
                i -= 1
        if i == n:
            return Coloring({v: k - 1 - c for v, c in zip(nodes, color)}, k)
        k += 1


def layer_budget(
    inst: StorylineInstance, minimize: bool, cap: int | None = None
) -> dict[TimeId, int]:
    """Layer slots granted to each timestamp.

    With ``minimize`` the budget is the (capped) chromatic number of the
    conflict graph; otherwise it is simply the interaction count, one
    potential layer per interaction, and a ``cap`` is rejected.
    """
    if cap is not None and not minimize:
        raise ValueError("cap only applies to minimized layer budgets")
    budgets: dict[TimeId, int] = {}
    for t in range(inst.num_timestamps):
        if minimize:
            budgets[t] = min_coloring(build_conflict_graph(inst, t), cap).num_colors
        else:
            budgets[t] = len(inst.by_time[t])
    return budgets

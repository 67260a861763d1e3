"""Independent correctness checks on the documents the program writes.

Everything here works on the raw instance and storyline documents and on
the SVG text, with its own code: it shares no logic with storyweave, so a
fault in the package cannot hide itself by agreeing with its own helpers.
"""

from __future__ import annotations

import itertools
import xml.etree.ElementTree as ET


def _index(inst_doc: dict) -> tuple[dict[str, int], dict[str, int], list[tuple[frozenset, int]]]:
    chars = {name: i for i, name in enumerate(inst_doc["characters"])}
    times = {label: i for i, label in enumerate(inst_doc["timestamps"])}
    inters = [
        (frozenset(chars[c] for c in it["characters"]), times[it["time"]])
        for it in inst_doc["interactions"]
    ]
    return chars, times, inters


def layout_problems(inst_doc: dict, story_doc: dict) -> list[str]:
    """Legality of a storyline document against its instance document."""
    chars, times, inters = _index(inst_doc)
    out: list[str] = []
    placed: list[int] = []
    last_time = -1
    runs: dict[int, list[int]] = {}
    for li, layer in enumerate(story_doc["layers"]):
        t = times[layer["time"]]
        if t < last_time:
            out.append(f"layer {li}: time goes backwards")
        last_time = t
        order = [chars[c] for c in layer["order"]]
        if sorted(order) != sorted(chars[c] for c in layer["active"]) or len(set(order)) != len(order):
            out.append(f"layer {li}: order is not a permutation of the active set")
        pos = {c: k for k, c in enumerate(order)}
        members: set[int] = set()
        for iid in layer["interactions"]:
            group, it_time = inters[iid]
            placed.append(iid)
            if it_time != t:
                out.append(f"layer {li}: interaction {iid} at another timestamp")
            if group & members:
                out.append(f"layer {li}: interactions share a character")
            members |= group
            spots = sorted(pos.get(c, -10**9) for c in group)
            if spots[0] < 0 or spots[-1] - spots[0] != len(spots) - 1:
                out.append(f"layer {li}: interaction {iid} not contiguous")
        if not layer["interactions"]:
            out.append(f"layer {li}: empty")
        for c in order:
            runs.setdefault(c, []).append(li)
    if sorted(placed) != list(range(len(inters))):
        out.append("interactions not placed exactly once")
    for c, layers in runs.items():
        if layers[-1] - layers[0] != len(layers) - 1:
            out.append(f"character {c}: activity not contiguous")
    return out


def flip_recount(story_doc: dict) -> int:
    """Pairs present in two consecutive layers whose relative order flips."""
    total = 0
    layers = story_doc["layers"]
    for left, right in itertools.pairwise(layers):
        pos_l = {c: k for k, c in enumerate(left["order"])}
        pos_r = {c: k for k, c in enumerate(right["order"])}
        both = sorted(set(pos_l) & set(pos_r))
        for u, v in itertools.combinations(both, 2):
            if (pos_l[u] < pos_l[v]) != (pos_r[u] < pos_r[v]):
                total += 1
    return total


def svg_counts(svg: str) -> tuple[int, int]:
    """(character paths, interaction bars) in an SVG document."""
    root = ET.fromstring(svg)
    paths = bars = 0
    for el in root.iter():
        cls = el.get("class")
        tag = el.tag.rsplit("}", 1)[-1]
        if tag == "path" and cls == "character":
            paths += 1
        elif tag == "rect" and cls == "interaction":
            bars += 1
    return paths, bars


def conflict_graphs(inst_doc: dict) -> list[tuple[int, list[tuple[int, int]]]]:
    """Per timestamp: (node count, edges) of interactions sharing a character."""
    _chars, times, inters = _index(inst_doc)
    out = []
    for t in range(len(times)):
        groups = [g for g, it_time in inters if it_time == t]
        edges = [
            (a, b)
            for a, b in itertools.combinations(range(len(groups)), 2)
            if groups[a] & groups[b]
        ]
        out.append((len(groups), edges))
    return out


def colorable(n: int, edges: list[tuple[int, int]], k: int) -> bool:
    """Backtracking test for a proper k-coloring.

    Colors the vertex with the most distinctly colored neighbors next
    (ties: most neighbors), and tries at most one unused color, since
    unused colors are interchangeable.
    """
    adj = [set() for _ in range(n)]
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    color = [-1] * n

    def place(done: int, used: int) -> bool:
        if done == n:
            return True
        best = -1
        best_key = (-1, -1)
        for v in range(n):
            if color[v] < 0:
                key = (len({color[u] for u in adj[v] if color[u] >= 0}), len(adj[v]))
                if key > best_key:
                    best, best_key = v, key
        taken = {color[u] for u in adj[best]}
        for c in range(min(used + 1, k)):
            if c not in taken:
                color[best] = c
                if place(done + 1, max(used, c + 1)):
                    return True
                color[best] = -1
        return False

    return place(0, 0)


def chromatic_numbers(inst_doc: dict) -> list[int]:
    out = []
    for n, edges in conflict_graphs(inst_doc):
        k = 0
        while not colorable(n, edges, k):
            k += 1
        out.append(k)
    return out


def greedy_layout(inst_doc: dict) -> dict:
    """A legal storyline document built without the program.

    Interactions are packed first-fit, in input order, into the layers of
    their timestamp; a character is present in every layer from its first
    to its last timestamp; each layer lists its blocks (interaction groups
    and lone characters) by smallest character index.
    """
    chars, _times, inters = _index(inst_doc)
    names = inst_doc["characters"]
    labels = inst_doc["timestamps"]
    first: dict[int, int] = {}
    last: dict[int, int] = {}
    for group, t in inters:
        for c in group:
            first[c] = min(first.get(c, t), t)
            last[c] = max(last.get(c, t), t)
    layers = []
    for t in range(len(labels)):
        packed: list[tuple[list[int], set[int]]] = []
        for iid, (group, it_time) in enumerate(inters):
            if it_time != t:
                continue
            for ids, members in packed:
                if not members & group:
                    ids.append(iid)
                    members |= group
                    break
            else:
                packed.append(([iid], set(group)))
        for ids, _members in packed:
            blocks = [sorted(inters[i][0]) for i in ids]
            grouped = {c for b in blocks for c in b}
            blocks += [[c] for c in chars.values() if first[c] <= t <= last[c] and c not in grouped]
            order = [names[c] for b in sorted(blocks) for c in b]
            layers.append({"time": labels[t], "interactions": ids, "order": order, "active": order})
    return {"layers": layers}

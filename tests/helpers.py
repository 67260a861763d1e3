"""Shared generators and independent reference implementations.

Everything here is deliberately written the dumb way (pairwise scans, full
enumeration) so the tests check the package against code that shares no
logic with it.
"""

from __future__ import annotations

import itertools
import math
import random

from storyweave import (
    CombinatorialStoryline,
    Layer,
    SearchSpaceError,
    StorylineInstance,
    brute_force_optimum,
    validate_instance,
)

LETTERS = "abcdefghijklmnopqrstuvwxyz"


def random_instance(
    rng: random.Random,
    max_chars: int = 5,
    max_interactions: int = 5,
    max_times: int = 3,
) -> StorylineInstance:
    """A small valid instance; characters that end up unused are dropped."""
    n = rng.randint(2, max_chars)
    p = rng.randint(1, max_times)
    m = rng.randint(1, max_interactions)
    interactions = []
    for _ in range(m):
        size = rng.randint(1, min(3, n))
        members = rng.sample(range(n), size)
        interactions.append((sorted(members), rng.randrange(p)))
    used_chars = sorted({c for members, _ in interactions for c in members})
    used_times = sorted({t for _, t in interactions})
    char_names = [LETTERS[used_chars.index(c)] for c in used_chars]
    doc = {
        "characters": char_names,
        "timestamps": [f"t{k}" for k in range(len(used_times))],
        "interactions": [
            {
                "characters": [LETTERS[used_chars.index(c)] for c in members],
                "time": f"t{used_times.index(t)}",
            }
            for members, t in interactions
        ],
    }
    return validate_instance(doc)


def dense_instance(rng: random.Random) -> StorylineInstance:
    """Overlapping size 2-3 interactions crowded onto few timestamps.

    Plain sampling almost always yields crossing-free instances; this
    profile makes nonzero optima common.
    """
    n = rng.randint(4, 5)
    p = rng.randint(1, 2)
    m = rng.randint(4, 5)
    interactions = []
    for _ in range(m):
        size = rng.choice([2, 2, 2, 3])
        interactions.append((sorted(rng.sample(range(n), size)), rng.randrange(p)))
    used_chars = sorted({c for members, _ in interactions for c in members})
    used_times = sorted({t for _, t in interactions})
    doc = {
        "characters": [LETTERS[used_chars.index(c)] for c in used_chars],
        "timestamps": [f"t{k}" for k in range(len(used_times))],
        "interactions": [
            {
                "characters": [LETTERS[used_chars.index(c)] for c in members],
                "time": f"t{used_times.index(t)}",
            }
            for members, t in interactions
        ],
    }
    return validate_instance(doc)


def cit_rung(chars: int, interactions: int, times: int, seed: int) -> StorylineInstance:
    """A c/i/t instance: interactions of 2-4 uniform members at uniform timestamps.

    Characters that end up unused are dropped; every timestamp is kept.
    """
    rng = random.Random(seed)
    drawn = []
    for _ in range(interactions):
        size = rng.randint(2, min(4, chars))
        drawn.append((rng.sample(range(chars), size), rng.randrange(times)))
    return _drawn_instance(drawn, times)


def wide_instances(count: int = 4, chars: int = 24, times: int = 2) -> list[StorylineInstance]:
    """The ``wide-export`` benchmark instances, redrawn the way
    ``benchmarks/instances.wide_draw`` draws them from structure seed 1:
    12-14 interactions of 2-4 uniform members at each timestamp."""
    rng = random.Random(1)
    out = []
    for _ in range(count):
        drawn = []
        for t in range(times):
            for _ in range(rng.randint(12, 14)):
                drawn.append((rng.sample(range(chars), rng.randint(2, 4)), t))
        out.append(_drawn_instance(drawn, times))
    return out


def matching_instance(chars: int, times: int, seed: int) -> StorylineInstance:
    """Every timestamp a random perfect matching of ``chars`` characters
    (one left over when ``chars`` is odd): disjoint pairs, so one layer per
    timestamp, each holding every character."""
    rng = random.Random(seed)
    drawn = []
    for t in range(times):
        perm = rng.sample(range(chars), chars)
        drawn.extend((perm[k : k + 2], t) for k in range(0, chars - 1, 2))
    return _drawn_instance(drawn, times)


def _drawn_instance(drawn: list[tuple[list[int], int]], times: int) -> StorylineInstance:
    """Instance from (member indices, time index) pairs; characters that end
    up unused are dropped and the rest renumbered, every timestamp is kept."""
    used = sorted({c for members, _ in drawn for c in members})
    doc = {
        "characters": [f"c{k}" for k in range(len(used))],
        "timestamps": [f"t{k}" for k in range(times)],
        "interactions": [
            {"characters": [f"c{used.index(c)}" for c in sorted(members)], "time": f"t{t}"}
            for members, t in drawn
        ],
    }
    return validate_instance(doc)


def oracle_corpus(
    seed: int,
    count: int,
    max_chars: int = 5,
    max_interactions: int = 5,
    max_times: int = 3,
    guard: int = 300_000,
) -> list[tuple[StorylineInstance, int]]:
    """Random instances paired with their exhaustive span-mode optimum.

    Mixes plain and dense sampling so a healthy share of instances have a
    strictly positive optimum.  Instances whose search space exceeds
    ``guard`` are resampled so the reference value stays cheap to compute.
    """
    rng = random.Random(seed)
    out: list[tuple[StorylineInstance, int]] = []
    while len(out) < count:
        if len(out) % 2:
            inst = dense_instance(rng)
        else:
            inst = random_instance(rng, max_chars, max_interactions, max_times)
        try:
            opt = brute_force_optimum(inst, "span", guard=guard)
        except SearchSpaceError:
            continue
        out.append((inst, opt))
    return out


def random_storyline(
    rng: random.Random, inst: StorylineInstance
) -> CombinatorialStoryline:
    """A random legal storyline: greedy layer packing, random block orders.

    After packing, each character is kept active on every layer between its
    first and last interaction layer (as a free singleton where it has no
    interaction), which makes activity contiguous.
    """
    slots: list[tuple[int, list]] = []  # (time, interactions)
    for t in range(inst.num_timestamps):
        items = list(inst.by_time[t])
        rng.shuffle(items)
        packed: list[list] = []
        for it in items:
            for group in packed:
                if not any(it.characters & other.characters for other in group):
                    group.append(it)
                    break
            else:
                packed.append([it])
        rng.shuffle(packed)
        slots.extend((t, group) for group in packed)

    first: dict[int, int] = {}
    last: dict[int, int] = {}
    for li, (_t, group) in enumerate(slots):
        for it in group:
            for c in it.characters:
                first.setdefault(c, li)
                last[c] = li

    layers: list[Layer] = []
    for li, (t, group) in enumerate(slots):
        in_group = {c for it in group for c in it.characters}
        passing = [c for c in first if first[c] <= li <= last[c] and c not in in_group]
        items = [sorted(it.characters) for it in group] + [[c] for c in passing]
        rng.shuffle(items)
        order: list[int] = []
        for block in items:
            rng.shuffle(block)
            order.extend(block)
        layers.append(
            Layer(
                time=t,
                interactions=tuple(sorted(it.id for it in group)),
                order=tuple(order),
                active=frozenset(order),
            )
        )
    return CombinatorialStoryline(tuple(layers))


def naive_gap_crossings(left: Layer, right: Layer) -> int:
    """O(k^2) reference: count co-present pairs whose relative order flips."""
    common = left.active & right.active
    pos_l = {c: i for i, c in enumerate(left.order)}
    pos_r = {c: i for i, c in enumerate(right.order)}
    total = 0
    for u, v in itertools.combinations(sorted(common), 2):
        before_l = pos_l[u] < pos_l[v]
        before_r = pos_r[u] < pos_r[v]
        if before_l != before_r:
            total += 1
    return total


def total_wiggle(ys, story: CombinatorialStoryline) -> float:
    """Vertical movement of every curve between consecutive layers, read from
    a ``(character, layer index) -> y`` map."""
    total = 0.0
    for li, (left, right) in enumerate(itertools.pairwise(story.layers)):
        for c in left.active & right.active:
            total += abs(ys[(c, li + 1)] - ys[(c, li)])
    return total


def reference_rand_counts(a, b) -> tuple[int, int, int, int]:
    """Rand-index buckets by classifying every shared character pair:
    (together in both, apart in both, apart then together, together then apart)."""
    chars_a = set().union(*a)
    chars_b = set().union(*b)
    n1 = n2 = n3 = n4 = 0
    for u, v in itertools.combinations(sorted(chars_a & chars_b), 2):
        in_a = any(u in g and v in g for g in a)
        in_b = any(u in g and v in g for g in b)
        if in_a and in_b:
            n1 += 1
        elif not in_a and not in_b:
            n2 += 1
        elif not in_a:
            n3 += 1
        else:
            n4 += 1
    return n1, n2, n3, n4


def brute_chromatic(nodes: list[int], edges: set[frozenset[int]], cap: int | None = None) -> int:
    """Reference chromatic number by trying palette sizes from 1 up."""
    n = len(nodes)
    if n == 0:
        return 0
    idx = {v: i for i, v in enumerate(nodes)}
    adj = [[False] * n for _ in range(n)]
    for e in edges:
        a, b = tuple(e)
        adj[idx[a]][idx[b]] = adj[idx[b]][idx[a]] = True

    def colorable(k: int) -> bool:
        colors = [-1] * n
        counts = [0] * k

        def rec(v: int) -> bool:
            if v == n:
                return True
            for c in range(k):
                if cap is not None and counts[c] >= cap:
                    continue
                if any(adj[v][u] for u in range(v) if colors[u] == c):
                    continue
                colors[v] = c
                counts[c] += 1
                if rec(v + 1):
                    return True
                colors[v] = -1
                counts[c] -= 1
            return False

        return rec(0)

    for k in range(1, n + 1):
        if colorable(k):
            return k
    raise AssertionError("n colors always suffice")


def brute_best_path(weights) -> tuple:
    """Reference path solver: scan every permutation, keep the cheapest."""
    n = len(weights)
    best_cost = None
    best = None
    for perm in itertools.permutations(range(n)):
        cost = sum(weights[a][b] for a, b in itertools.pairwise(perm))
        if best_cost is None or cost < best_cost or (cost == best_cost and perm < best):
            best_cost, best = cost, perm
    return best_cost, list(best)


def enumerate_binary_optimum(program) -> int | None:
    """Reference 0/1 solve by full enumeration; None when infeasible."""
    n = len(program.variables)
    best = None
    for bits in itertools.product((0, 1), repeat=n):
        ok = True
        for c in program.constraints:
            lhs = sum(coef * bits[v.index] for coef, v in c.terms)
            if c.op == "<=" and lhs > c.rhs:
                ok = False
            elif c.op == ">=" and lhs < c.rhs:
                ok = False
            elif c.op == "=" and lhs != c.rhs:
                ok = False
            if not ok:
                break
        if not ok:
            continue
        obj = sum(coef * bits[v.index] for coef, v in program.objective)
        if best is None or obj < best:
            best = obj
    return best


def random_fixed_layers(
    rng: random.Random, max_paths: int = 2000
) -> list[tuple[list[frozenset[int]], frozenset[int]]]:
    """2-4 layers over 3-5 characters, each with disjoint random groups.

    Most layers hold every character and group most of them, so crossings
    are common.  Draws with more than ``max_paths`` combinations of layer
    orders are redrawn, so full enumeration stays cheap.
    """
    while True:
        chars = range(rng.randint(3, 5))
        layers = []
        paths = 1
        for _ in range(rng.randint(2, 4)):
            size = len(chars) if rng.random() < 0.7 else rng.randint(2, len(chars))
            active = rng.sample(chars, size)
            groups = []
            while len(active) > 1 and rng.random() < 0.8:
                size = rng.randint(2, min(3, len(active)))
                groups.append(frozenset(active[:size]))
                active = active[size:]
            paths *= math.factorial(len(groups) + len(active))
            paths *= math.prod(math.factorial(len(g)) for g in groups)
            layers.append((groups, frozenset(active).union(*groups)))
        if paths <= max_paths:
            return layers


def reference_fixed_orders(layers) -> tuple[list[tuple[int, ...]], int]:
    """Reference for ``order_fixed_layers``: ``(orders, crossings)`` by enumeration.

    Candidates are the permutations of a layer's active set that keep every
    group consecutive.  Each layer starts at its candidate with the least
    "smaller character first" bit vector over the pairs in index order.
    Those starting orders are kept when no path costs fewer crossings;
    otherwise the product of all candidates is scanned for the least
    (crossings, flip bits gap by gap, order bits layer by layer).
    """

    def order_bits(order, active):
        pos = {c: k for k, c in enumerate(order)}
        return tuple(int(pos[u] < pos[v]) for u, v in itertools.combinations(sorted(active), 2))

    def flip_bits(left, right, common):
        pl = {c: k for k, c in enumerate(left)}
        pr = {c: k for k, c in enumerate(right)}
        return tuple(
            int((pl[u] < pl[v]) != (pr[u] < pr[v]))
            for u, v in itertools.combinations(sorted(common), 2)
        )

    candidates = []
    for groups, active in layers:
        fits = []
        for perm in itertools.permutations(sorted(active)):
            pos = {c: k for k, c in enumerate(perm)}
            if all(max(pos[c] for c in g) - min(pos[c] for c in g) == len(g) - 1 for g in groups):
                fits.append(perm)
        candidates.append(fits)

    def key(orders):
        flips = tuple(
            flip_bits(a, b, la[1] & lb[1])
            for a, b, la, lb in zip(orders, orders[1:], layers, layers[1:])
        )
        bits = tuple(order_bits(o, act) for o, (_g, act) in zip(orders, layers))
        return sum(map(sum, flips)), flips, bits

    start = [min(fits, key=lambda o, a=act: order_bits(o, a)) for fits, (_g, act) in zip(candidates, layers)]
    start_cost = key(start)[0]
    if start_cost == 0:
        return start, 0
    best = min(itertools.product(*candidates), key=key)
    if key(best)[0] == start_cost:
        return start, start_cost
    return list(best), key(best)[0]

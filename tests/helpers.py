"""Shared generators and independent reference implementations.

Everything here is deliberately written the dumb way (pairwise scans, full
enumeration) so the tests check the package against code that shares no
logic with it.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import json
import math
import random
import re
from typing import Iterable

from storyweave import (
    BinaryProgram,
    CombinatorialStoryline,
    Layer,
    StorylineInstance,
    VarId,
    brute_force_optimum,
    build_model,
    count_crossings,
    layer_budget,
    validate_instance,
)
from storyweave import bip
from storyweave.formulations import EXACT_KINDS

LETTERS = "abcdefghijklmnopqrstuvwxyz"

# CPython 3.12 starts with objects already frozen (the base and MRO tuples of
# its static types), so there the collector pause never moves a wide model to
# the oldest generation: unfreezing would thaw those objects too.
STARTS_FROZEN = gc.get_freeze_count() > 0


def count_validations(monkeypatch) -> list[BinaryProgram]:
    """The programs passed to ``bip.validate_program`` from now on, while
    ``monkeypatch`` lasts."""
    calls: list[BinaryProgram] = []
    validate = bip.validate_program

    def counted(program: BinaryProgram) -> None:
        calls.append(program)
        validate(program)

    monkeypatch.setattr(bip, "validate_program", counted)
    return calls


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


def small_models(seed: int, count: int, symmetry_breaking: bool = True):
    """``(instance, kind name, program, catalog)`` for every exact model kind
    of ``count`` instances drawn from ``random.Random(seed)``, plain
    (``random_instance(rng, 5, 4)``) and dense draws alternating, each under
    the layer budgets its kind uses."""
    rng = random.Random(seed)
    for k in range(count):
        inst = random_instance(rng, 5, 4) if k % 2 == 0 else dense_instance(rng)
        for name, kind in EXACT_KINDS.items():
            budgets = layer_budget(inst, minimize=kind.minimize_layers)
            program, cat = build_model(inst, kind, budgets, symmetry_breaking)
            yield inst, name, program, cat


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
    strictly positive optimum.  Instances that :func:`small_enough` refuses
    at ``guard`` are resampled so the reference value stays cheap to compute.
    """
    rng = random.Random(seed)
    out: list[tuple[StorylineInstance, int]] = []
    while len(out) < count:
        if len(out) % 2:
            inst = dense_instance(rng)
        else:
            inst = random_instance(rng, max_chars, max_interactions, max_times)
        if small_enough(inst, "span", None, guard):
            out.append((inst, brute_force_optimum(inst, "span")))
    return out


def small_draws(
    seed: int,
    modes: tuple[str, ...],
    chromatic: bool = False,
    count: int | None = None,
    draws: int | None = None,
    guard: int = 200_000,
) -> list[tuple[StorylineInstance, dict[int, int] | None]]:
    """``random_instance(rng, 4, 4)`` draws from ``random.Random(seed)``, each
    with its layer budgets (chromatic, or None for one layer per
    interaction), kept when :func:`small_enough` admits it in every mode of
    ``modes``: the first ``count`` kept, or those kept among ``draws`` draws.
    """
    rng = random.Random(seed)
    out: list[tuple[StorylineInstance, dict[int, int] | None]] = []
    drawn = 0
    while len(out) < count if count is not None else drawn < draws:
        inst = random_instance(rng, max_chars=4, max_interactions=4)
        drawn += 1
        budgets = layer_budget(inst, minimize=True) if chromatic else None
        if all(small_enough(inst, mode, budgets, guard) for mode in modes):
            out.append((inst, budgets))
    return out


def small_enough(
    inst: StorylineInstance, mode: str, budgets: dict[int, int] | None, guard: int
) -> bool:
    """Whether full enumeration of ``inst`` stays within ``guard``.

    It counts layer sequences (one layered plan per timestamp) and candidate
    storylines (per sequence, the product of every layer's order count)
    under activity ``mode``, and admits ``inst`` when neither count exceeds
    ``guard``.  The test corpora are drawn with this rule, so they keep
    their instances whatever the exhaustive search costs.  Under
    ``minimal`` a character is active in a slice's layers from its first
    interaction layer (the slice's first layer if it interacted at an
    earlier timestamp) to its last (the slice's last layer if it interacts
    later); under ``span`` in every layer of the slice.
    """
    first: dict[int, int] = {}
    last: dict[int, int] = {}
    for it in inst.interactions:
        for c in it.characters:
            first[c] = min(first.get(c, it.time), it.time)
            last[c] = max(last.get(c, it.time), it.time)
    sequences = candidates = 1
    for t, items in enumerate(inst.by_time):
        if not items:
            continue
        limit = len(items) if budgets is None else budgets[t]
        present = [c for c in first if first[c] <= t <= last[c]]
        plans = orders = 0
        for part in _disjoint_partitions([it.characters for it in items]):
            if len(part) > limit:
                continue
            for plan in itertools.permutations(part):
                plans += 1
                lo: dict[int, int] = {}
                hi: dict[int, int] = {}
                for j, groups in enumerate(plan):
                    for g in groups:
                        for c in g:
                            lo.setdefault(c, j)
                            hi[c] = j
                product = 1
                for j, groups in enumerate(plan):
                    active = sum(
                        mode == "span"
                        or ((first[c] < t or lo[c] <= j) and (last[c] > t or hi[c] >= j))
                        for c in present
                    )
                    sizes = [len(g) for g in groups]
                    blocks = len(groups) + active - sum(sizes)
                    product *= math.factorial(blocks) * math.prod(map(math.factorial, sizes))
                orders += product
        sequences *= plans
        candidates *= orders
    return sequences <= guard and candidates <= guard


def _disjoint_partitions(groups: list[frozenset[int]]) -> Iterable[list[list[frozenset[int]]]]:
    """Every set partition of ``groups`` whose blocks hold pairwise disjoint groups."""
    if not groups:
        yield []
        return
    head, rest = groups[0], groups[1:]
    for part in _disjoint_partitions(rest):
        yield [[head], *part]
        for j, block in enumerate(part):
            if not any(head & g for g in block):
                yield [*part[:j], [head, *block], *part[j + 1 :]]


def corpus_digest(rows) -> str:
    """SHA-256 of ``rows`` as canonical JSON: lists and tuples as lists, an
    instance as its names and its interactions' (sorted ids, time) pairs."""

    def canon(x):
        if isinstance(x, StorylineInstance):
            return [
                list(x.characters),
                list(x.timestamps),
                [[sorted(it.characters), it.time] for it in x.interactions],
            ]
        if isinstance(x, (list, tuple)):
            return [canon(y) for y in x]
        return x

    return hashlib.sha256(json.dumps(canon(rows)).encode()).hexdigest()


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
        for terms, op, rhs in program.constraints:
            lhs = sum(coef * bits[i] for coef, i in terms)
            if op == "<=" and lhs > rhs:
                ok = False
            elif op == ">=" and lhs < rhs:
                ok = False
            elif op == "=" and lhs != rhs:
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


def wide_fixed_layers(
    rng: random.Random, max_terms: int = 150_000
) -> list[tuple[list[frozenset[int]], frozenset[int]]]:
    """3-6 layers over 6-8 characters, past what enumeration can check.

    One layer holds 2-4 characters, and its neighbours hold the others plus
    one of them, so no pair links it to either neighbour; the remaining
    layers hold every character, or 4 of them.  Each layer splits into
    groups of 2-3 and lone characters, whose free pairs make many orders
    tie.  Draws whose summed |C_i|·|C_{i+1}| exceeds ``max_terms`` are
    redrawn.
    """
    while True:
        chars = range(rng.randint(6, 8))
        count = rng.randint(3, 6)
        alone = rng.randrange(count)
        own = rng.sample(chars, rng.randint(2, 4))
        layers = []
        orders = []
        for li in range(count):
            if li == alone:
                active = own
            elif abs(li - alone) == 1:
                active = [c for c in chars if c not in own] + own[:1]
            else:
                active = list(chars) if rng.random() < 0.7 else rng.sample(chars, 4)
            active = rng.sample(active, len(active))
            groups = []
            while len(active) > 1 and rng.random() < 0.8:
                size = rng.randint(2, min(3, len(active)))
                groups.append(frozenset(active[:size]))
                active = active[size:]
            orders.append(
                math.factorial(len(groups) + len(active))
                * math.prod(math.factorial(len(g)) for g in groups)
            )
            layers.append((groups, frozenset(active).union(*groups)))
        if sum(a * b for a, b in itertools.pairwise(orders)) <= max_terms:
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


def reference_min_plus(states, tables, gates, width) -> dict[int, tuple[int, int]]:
    """Reference for ``core._min_plus``: the least ``(crossings, key)`` per
    exit class, by scoring every path in full.

    A path is an entry state and one candidate (a value of each table) per
    layer; layer k pays the flips of its mask against the one before it on
    the bits of ``gates[k]``.  Paths are compared on the tuple (crossings,
    entry key, flip mask per layer, candidate per layer), and the least of
    each exit class (last candidate & ``gates[-1]``) has those masks packed,
    ``width`` bits a field, earlier fields higher, and added to its entry
    key, which must lie above every field; width 0 makes every key 0.
    """
    best = {}
    for (m0, (c0, key0)), *path in itertools.product(
        states.items(), *(table.values() for table in tables)
    ):
        flips = [(a ^ b) & g for a, b, g in zip([m0, *path], path, gates)]
        rank = (c0 + sum(bin(f).count("1") for f in flips), key0, tuple(flips), tuple(path))
        cls = path[-1] & gates[-1]
        if cls not in best or rank < best[cls]:
            best[cls] = rank
    out = {}
    for cls, (crossings, key0, flips, path) in best.items():
        key = 0
        for field in (*flips, *path):
            key = (key << width) | field
        out[cls] = (crossings, key0 + key if width else 0)
    return out


# The rules of ``bip.validate_program`` checked one at a time, without its
# combined per-term condition (with the module constants it reads), as the
# reference for the differential test.
_NAME_RE = re.compile(r"[A-Za-z0-9_]+\Z")
_LP_KEYWORDS = {"end", "bin", "binary", "binaries", "st", "minimize", "minimise"}
_OPS = ("<=", ">=", "=")


def reference_validate_program(p: BinaryProgram) -> None:
    """Raise ValueError on the first defect of a malformed program.

    One scan, in this order: the variables (index, name characters, a
    leading digit, an LP section keyword, repeated name); each constraint
    in turn (no terms, operator, then per term the variable index, the
    coefficient and a repeated variable, then the right-hand side); the
    objective last (per term the reference, a non-negative integer
    coefficient and a repeated variable).  A row term is ``(coef, index)``
    with an in-range index that is an ``int`` other than ``bool``; an
    objective term is ``(coef, VarId)`` and may refer to an equal but
    distinct ``VarId``.  Numbers may be ``int`` subclasses other than
    ``bool``.
    """
    variables = p.variables
    names: set[str] = set()
    for i, v in enumerate(variables):
        if v.index != i:
            raise ValueError(f"variable {v.name!r} has index {v.index}, expected {i}")
        if not _NAME_RE.match(v.name):
            raise ValueError(f"variable name {v.name!r} must match [A-Za-z0-9_]+")
        if v.name[0].isdigit():
            raise ValueError(f"variable name {v.name!r} must not start with a digit")
        if v.name.lower() in _LP_KEYWORDS:
            raise ValueError(f"variable name {v.name!r} is an LP section keyword")
        if v.name in names:
            raise ValueError(f"duplicate variable name {v.name!r}")
        names.add(v.name)
    n = len(variables)

    def check_ref(v: VarId) -> None:
        if not (0 <= v.index < n) or variables[v.index] != v:
            raise ValueError(f"unknown variable {v.name!r}")

    def check_index(k: int, i: object) -> None:
        if not _integral(i) or not 0 <= i < n:
            raise ValueError(f"constraint {k}: unknown variable index {i!r}")

    # used_in[i] is the last row whose terms included variable i, so a term
    # finding its own row's number there repeats a variable of that row.
    used_in = [-1] * n
    seen = None  # the previous row's terms tuple, whose terms passed
    for k, (terms, op, rhs) in enumerate(p.constraints):
        if not terms:
            raise ValueError(f"constraint {k} has no terms")
        if op not in _OPS:
            raise ValueError(f"constraint {k} has unknown operator {op!r}")
        for coef, i in () if terms is seen else terms:
            check_index(k, i)
            if not _integral(coef):
                raise ValueError(f"constraint {k}: coefficient {coef!r} is not an integer")
            if used_in[i] == k:
                raise ValueError(f"constraint {k}: duplicate variable {variables[i].name!r}")
            used_in[i] = k
        seen = terms
        if not _integral(rhs):
            raise ValueError(f"constraint {k}: right-hand side must be an integer")
    k = len(p.constraints)  # the objective's row number
    for coef, v in p.objective:
        check_ref(v)
        i = v.index
        if not _integral(coef) or coef < 0:
            raise ValueError("objective coefficients must be non-negative integers")
        if used_in[i] == k:
            raise ValueError(f"objective lists variable {v.name!r} twice")
        used_in[i] = k


def _integral(x: object) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def reference_compile_rows(p: BinaryProgram):
    """``bip._compile_rows`` as it was before rows shared the program's
    terms: ``(cons_terms, reach, slack, raises)`` with a ``>=`` row, and the
    ``>=`` half of an ``=`` row, negated into a new list of terms, and a new
    ``(row, |coef|)`` pair per term.  Row k reads sum(coef * x) <= rhs."""
    cons_terms: list[list[tuple[int, int]]] = []
    reach: list[int] = []
    slack: list[int] = []
    raises = tuple([[] for _ in p.variables] for _ in (0, 1))

    def add(terms: list[tuple[int, int]], rhs: int) -> None:
        k = len(cons_terms)
        for coef, i in terms:
            raises[coef > 0][i].append((k, abs(coef)))
        top = max(abs(coef) for coef, _ in terms)
        cons_terms.append(terms)
        reach.append(top)
        slack.append(rhs - top - sum(coef for coef, _ in terms if coef < 0))

    for terms, op, rhs in p.constraints:
        if op != ">=":
            add(list(terms), rhs)
        if op != "<=":
            add([(-coef, i) for coef, i in terms], -rhs)
    return cons_terms, reach, slack, raises


# ``bip.export_lp`` as it was before it joined blocks of rows into chunks:
# every line in one list, joined once.  Its output is the byte-for-byte
# reference for the chunked writer.
_LINE_WIDTH = 240
Term = tuple[int, int]


def _wrap(line: str) -> list[str]:
    if len(line) <= _LINE_WIDTH:
        return [line]
    out: list[str] = []
    words = line.split(" ")
    cur = words[0]
    for w in words[1:]:
        if len(cur) + 1 + len(w) > _LINE_WIDTH:
            out.append(cur)
            cur = " " + w
        else:
            cur += " " + w
    out.append(cur)
    return out


def reference_export_lp(p: BinaryProgram, name: str = "storyweave") -> str:
    """Serialize a program in CPLEX-style LP text.

    Sections emitted: ``Minimize``, ``Subject To``, ``Binary``, ``End``.
    Output is deterministic; :func:`parse_lp` reads it back into an
    equivalent program.  Lines longer than 240 characters are wrapped.
    """
    names = [v.name for v in p.variables]
    # Unit terms, the common case, reuse one string per variable and sign.
    plus = [f"+ {nm}" for nm in names]
    minus = [f"- {nm}" for nm in names]

    def expression(terms: Iterable[Term]) -> str:
        parts = []
        for coef, i in terms:
            if coef == 1:
                parts.append(plus[i])
            elif coef == -1:
                parts.append(minus[i])
            else:
                parts.append(f"{'+' if coef >= 0 else '-'} {abs(coef)} {names[i]}")
        text = " ".join(parts)
        # The leading term carries no "+".
        return text[2:] if text.startswith("+") else text

    # The name is folded onto the comment line, split where parse_lp splits.
    out: list[str] = ["\\ " + " ".join(name.splitlines()), "Minimize"]
    obj_terms = [(coef, v.index) for coef, v in p.objective if coef != 0]
    out.extend(_wrap(" obj: " + expression(obj_terms) if obj_terms else " obj:"))
    out.append("Subject To")
    shared = expr = None
    for k, (terms, op, rhs) in enumerate(p.constraints):
        # Consecutive rows of one terms tuple (a "<=" and ">=" pair) share its text.
        if terms is not shared:
            shared, expr = terms, expression(terms)
        line = f" c{k}: {expr} {op} {rhs}"
        if len(line) > _LINE_WIDTH:
            out.extend(_wrap(line))
        else:
            out.append(line)
    out.append("Binary")
    out.extend(f" {nm}" for nm in names)
    out.append("End")
    return "\n".join(out) + "\n"


def reference_storyline_text(inst: StorylineInstance, s: CombinatorialStoryline) -> str:
    """The stored storyline format spelled the obvious way: the document as
    a dict, then ``json.dumps(doc, indent=2, ensure_ascii=False)`` and a
    newline."""
    doc = {
        "layers": [
            {
                "time": inst.timestamps[layer.time],
                "interactions": list(layer.interactions),
                "order": [inst.characters[c] for c in layer.order],
                "active": [inst.characters[c] for c in layer.order],
            }
            for layer in s.layers
        ],
        "crossings": count_crossings(s).total,
    }
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"

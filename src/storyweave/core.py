"""Combinatorial model of time-interval storylines.

An instance is a cast of characters, a totally ordered list of timestamps,
and interactions (each a group of characters meeting at one timestamp).  A
layout distributes the interactions of every timestamp over one or more
vertical layers and totally orders the characters present in each layer.
The run of layers belonging to one timestamp is called a slice; horizontal
order inside a slice carries no temporal meaning.

A pair of characters present in two consecutive layers whose relative order
flips between them is a crossing, the quantity every solver in this package
minimizes.  This module holds the instance/storyline containers, their
validation, the crossing-counting oracle used to score every algorithm, and
one min-plus engine over the candidate orders of a run of layers, with two
callers: the ordering of the characters of fixed layers, and the exhaustive
optimum for small instances, one engine run per plan of every slice, whose
state is the order of the characters two consecutive slices share.

Characters and timestamps are dense integer indices into the instance name
lists.  An instance computes its per-timestamp tables (``by_time``,
``potential``) once, on first use, and every stage reads them.  All
containers are immutable and all functions are pure, so shared use across
threads is safe.
"""

from __future__ import annotations

import bisect
import itertools
import math
import re
import time
from collections.abc import Collection, Iterator, Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import or_
from typing import Literal

CharId = int
TimeId = int
InteractionId = int

ActivityMode = Literal["span", "minimal"]

DEFAULT_SEARCH_GUARD = 10_000_000
EXHAUSTIVE_GUARD = 30_000_000

# What no output can carry: a lone surrogate (no UTF-8 form) or a character
# XML 1.0 forbids (the C0 controls other than tab, LF and CR, U+FFFE, U+FFFF).
_UNWRITABLE = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


class InstanceError(ValueError):
    """Invalid raw instance data; ``violations`` lists every problem found."""

    def __init__(self, violations: Sequence[str]):
        super().__init__("invalid instance: " + "; ".join(violations))
        self.violations = list(violations)


class SearchSpaceError(ValueError):
    """Exhaustive enumeration would exceed its safety bound."""


@dataclass(frozen=True)
class Interaction:
    """A character group pinned to one timestamp. Ids follow input order."""

    id: InteractionId
    characters: frozenset[CharId]
    time: TimeId


@dataclass(frozen=True)
class StorylineInstance:
    characters: tuple[str, ...]
    timestamps: tuple[str, ...]
    interactions: tuple[Interaction, ...]

    @property
    def num_characters(self) -> int:
        return len(self.characters)

    @property
    def num_timestamps(self) -> int:
        return len(self.timestamps)

    @property
    def num_interactions(self) -> int:
        return len(self.interactions)

    @cached_property
    def by_time(self) -> tuple[tuple[Interaction, ...], ...]:
        """``by_time[t]``: the interactions at timestamp ``t``, in input order."""
        out: list[list[Interaction]] = [[] for _ in self.timestamps]
        for it in self.interactions:
            out[it.time].append(it)
        return tuple(map(tuple, out))

    @cached_property
    def potential(self) -> tuple[frozenset[CharId], ...]:
        """``potential[t]``: the characters whose first-to-last interaction
        span (inclusive) covers timestamp ``t``."""
        first: dict[CharId, TimeId] = {}
        last: dict[CharId, TimeId] = {}
        for it in self.interactions:
            t = it.time
            for c in it.characters:
                if c not in first:
                    first[c] = last[c] = t
                elif t < first[c]:
                    first[c] = t
                elif t > last[c]:
                    last[c] = t
        # Each set gets its characters in the order they first occur.
        present: list[list[CharId]] = [[] for _ in self.timestamps]
        for c, lo in first.items():
            for t in range(lo, last[c] + 1):
                present[t].append(c)
        return tuple(map(frozenset, present))


@dataclass(frozen=True)
class Layer:
    """One column of the drawing.

    ``order`` is the top-to-bottom permutation of ``active``; the characters
    of each contained interaction must occupy consecutive positions in it.
    """

    time: TimeId
    interactions: tuple[InteractionId, ...]
    order: tuple[CharId, ...]
    active: frozenset[CharId]


@dataclass(frozen=True)
class CombinatorialStoryline:
    """Ordered layers; the discrete layout before coordinates are assigned.

    ``crossings`` is the oracle's total, :func:`count_crossings`, counted
    once per storyline object: the first count keeps it.
    """

    layers: tuple[Layer, ...]

    @cached_property
    def crossings(self) -> int:
        return count_crossings(self).total


@dataclass(frozen=True)
class CrossingCount:
    total: int
    per_gap: tuple[int, ...]


@dataclass(frozen=True)
class LayoutReport:
    """Summary row for one algorithm run on one instance."""

    algorithm: str
    crossings: int | None
    layers: int | None
    runtime: float
    status: str
    gap_percent: float | None = None
    stage_seconds: Mapping[str, float] | None = None


def validate_instance(raw: Mapping) -> StorylineInstance:
    """Normalize a decoded instance document into a StorylineInstance.

    The document must carry ``characters`` (unique non-empty names),
    ``timestamps`` (unique labels, list order is the time order; names and
    labels hold no lone surrogate and no character XML 1.0 forbids) and
    ``interactions`` (each a mapping with a non-empty duplicate-free
    ``characters`` name list and a known ``time`` label).  Every character
    must take part in at least one interaction.  All violations are
    collected and raised together as :class:`InstanceError`, each tagged
    with the path of the offending element.
    """
    bad: list[str] = []
    if not isinstance(raw, Mapping):
        raise InstanceError(["document must be a mapping"])

    chars = raw.get("characters")
    times = raw.get("timestamps")
    inters = raw.get("interactions")
    if not isinstance(chars, (list, tuple)):
        bad.append("characters: missing or not a list")
        chars = []
    if not isinstance(times, (list, tuple)):
        bad.append("timestamps: missing or not a list")
        times = []
    if not isinstance(inters, (list, tuple)):
        bad.append("interactions: missing or not a list")
        inters = []

    char_index = _index_names("characters", "name", chars, bad)
    time_index = _index_names("timestamps", "label", times, bad)

    normalized: list[Interaction] = []
    used: set[CharId] = set()
    for j, item in enumerate(inters):
        path = f"interactions[{j}]"
        if not isinstance(item, Mapping):
            bad.append(f"{path}: must be a mapping")
            continue
        members = item.get("characters")
        label = item.get("time")
        ok = True
        if not isinstance(members, (list, tuple)) or not members:
            bad.append(f"{path}.characters: empty interaction")
            ok = False
            members = []
        ids: list[CharId] = []
        for name in members:
            if not isinstance(name, str) or name not in char_index:
                bad.append(f"{path}.characters: unknown character {name!r}")
                ok = False
            elif char_index[name] in ids:
                bad.append(f"{path}.characters: duplicate character {name!r}")
                ok = False
            else:
                ids.append(char_index[name])
        if not isinstance(label, str) or label not in time_index:
            bad.append(f"{path}.time: unknown timestamp {label!r}")
            ok = False
        if ok:
            normalized.append(
                Interaction(len(normalized), frozenset(ids), time_index[label])
            )
            used.update(ids)

    if not bad:
        for name, i in char_index.items():
            if i not in used:
                bad.append(f"characters[{i}]: isolated character {name!r}")

    if bad:
        raise InstanceError(bad)
    return StorylineInstance(
        characters=tuple(chars),
        timestamps=tuple(times),
        interactions=tuple(normalized),
    )


def _index_names(key: str, noun: str, names: Sequence, bad: list[str]) -> dict[str, int]:
    """Index of every valid, first-seen entry of ``names``; violations go to ``bad``."""
    index: dict[str, int] = {}
    for i, name in enumerate(names):
        if not isinstance(name, str) or not name:
            bad.append(f"{key}[{i}]: {noun} must be a non-empty string")
        elif name in index:
            bad.append(f"{key}[{i}]: duplicate {noun} {name!r}")
        else:
            if _UNWRITABLE.search(name):
                bad.append(
                    f"{key}[{i}]: {noun} {name!r} has a lone surrogate or a character XML forbids"
                )
            index[name] = i
    return index


def validate_storyline(
    inst: StorylineInstance, s: CombinatorialStoryline
) -> list[str]:
    """Check every storyline invariant against ``inst``.

    Returns an empty list when the storyline is legal, otherwise one message
    per violation.  Never raises.
    """
    out: list[str] = []
    placed: dict[InteractionId, int] = {}
    prev_time: TimeId | None = None
    interactions = inst.interactions
    num_interactions = len(interactions)
    num_characters = len(inst.characters)

    for li, layer in enumerate(s.layers):
        path = f"layers[{li}]"
        # A layer's known interactions count as placed even when the layer
        # itself is rejected below, so they are not also reported unplaced.
        for iid in layer.interactions:
            if 0 <= iid < num_interactions:
                if iid in placed:
                    out.append(f"{path}: interaction {iid} placed twice")
                placed[iid] = li
        if not (0 <= layer.time < inst.num_timestamps):
            out.append(f"{path}: unknown timestamp index {layer.time}")
            continue
        if prev_time is not None and layer.time < prev_time:
            out.append(f"{path}: layer timestamps decrease")
        prev_time = layer.time

        if not layer.interactions:
            out.append(f"{path}: empty layer")
        order, active = layer.order, layer.active
        if len(order) != len(active) or set(order) != active:
            out.append(f"{path}: order is not a permutation of the active set")
            continue
        if order and (min(order) < 0 or max(order) >= num_characters):
            unknown = sorted(c for c in order if not 0 <= c < num_characters)
            out.append(f"{path}: unknown character id {', '.join(map(str, unknown))}")
        pos = dict(zip(order, range(len(order))))

        charsets: list[tuple[InteractionId, frozenset[CharId]]] = []
        for iid in layer.interactions:
            if not (0 <= iid < num_interactions):
                out.append(f"{path}: unknown interaction id {iid}")
                continue
            it = interactions[iid]
            if it.time != layer.time:
                out.append(f"{path}: interaction {iid} not at the layer timestamp")
            charsets.append((iid, it.characters))

        for (ia, ca), (ib, cb) in itertools.combinations(charsets, 2):
            if ca & cb:
                out.append(
                    f"{path}: layer interactions intersect ({ia} and {ib})"
                )
        for iid, cs in charsets:
            if not cs <= active:
                out.append(
                    f"{path}: interaction {iid} characters missing from active set"
                )
                continue
            spots = list(map(pos.__getitem__, cs))
            if max(spots) - min(spots) + 1 != len(spots):
                out.append(f"{path}: interaction {iid} not consecutive in order")

    for it in interactions:
        if it.id not in placed:
            out.append(f"interaction {it.id} not placed in any layer")

    # Activity of every character must form a contiguous run of layers.
    active_at: dict[CharId, list[int]] = {}
    for li, layer in enumerate(s.layers):
        for c in layer.active:
            active_at.setdefault(c, []).append(li)
    for c, idxs in sorted(active_at.items()):
        if idxs[-1] - idxs[0] + 1 != len(idxs):
            name = inst.characters[c] if 0 <= c < num_characters else str(c)
            out.append(f"character {name!r}: activity not contiguous")

    return out


def _inversions(seq: Sequence[int]) -> int:
    """Number of pairs i<j with seq[i] > seq[j] (insertion into a sorted list)."""
    seen: list[int] = []
    total = 0
    for v in seq:
        i = bisect.bisect_right(seen, v)
        total += len(seen) - i
        seen.insert(i, v)
    return total


def _order_flips(
    left: Sequence[CharId], right: Sequence[CharId], common: Collection[CharId]
) -> int:
    """Pairs of ``common`` whose relative order differs between two orders."""
    if len(common) < 2:
        return 0
    rank: dict[CharId, int] = {}
    r = 0
    for c in left:
        if c in common:
            rank[c] = r
            r += 1
    seq = [rank[c] for c in right if c in common]
    return _inversions(seq)


def gap_crossings(left: Layer, right: Layer) -> int:
    """Crossings between two consecutive layers.

    Counts unordered character pairs present in both layers whose relative
    order differs between the two orderings; pairs not co-present contribute
    nothing.  :func:`order_fixed_layers` scores its start with the same
    count.
    """
    return _order_flips(left.order, right.order, left.active & right.active)


def count_crossings(s: CombinatorialStoryline) -> CrossingCount:
    """Total and per-gap crossing counts of a legal storyline."""
    gaps = tuple(
        gap_crossings(a, b) for a, b in itertools.pairwise(s.layers)
    )
    count = CrossingCount(total=sum(gaps), per_gap=gaps)
    # The storyline is immutable, so its total can be kept for ``s.crossings``.
    vars(s)["crossings"] = count.total
    return count


# ---------------------------------------------------------------------------
# Exhaustive optimum for small instances
# ---------------------------------------------------------------------------


def _conflict_free_partitions(
    items: Sequence[Interaction],
) -> Iterator[tuple[tuple[Interaction, ...], ...]]:
    """Each set partition of ``items`` whose blocks are pairwise
    character-disjoint, generated one at a time."""
    blocks: list[list[Interaction]] = []
    block_chars: list[set[CharId]] = []

    def rec(k: int) -> Iterator[tuple[tuple[Interaction, ...], ...]]:
        if k == len(items):
            yield tuple(tuple(b) for b in blocks)
            return
        it = items[k]
        for b, chars in zip(blocks, block_chars):
            if not (chars & it.characters):
                b.append(it)
                chars |= it.characters
                yield from rec(k + 1)
                b.pop()
                chars -= it.characters
        blocks.append([it])
        block_chars.append(set(it.characters))
        yield from rec(k + 1)
        blocks.pop()
        block_chars.pop()

    return rec(0)


def _slice_plans(
    items: Sequence[Interaction], max_layers: int
) -> Iterator[tuple[tuple[Interaction, ...], ...]]:
    """Ordered, conflict-free layer assignments of one timestamp's
    interactions, generated one at a time."""
    for part in _conflict_free_partitions(items):
        if len(part) <= max_layers:
            yield from itertools.permutations(part)


def _blocks(
    groups: Sequence[Collection[CharId]], active: frozenset[CharId]
) -> list[tuple[CharId, ...]]:
    """A layer's runs of consecutive characters: each group, then each
    active character outside every group, in index order."""
    return [tuple(g) for g in groups] + [(c,) for c in sorted(active.difference(*groups))]


def _order_count(blocks: Sequence[tuple[CharId, ...]]) -> int:
    return math.factorial(len(blocks)) * math.prod(math.factorial(len(b)) for b in blocks)


def _descending(runs: Sequence[tuple[CharId, ...]]) -> tuple[CharId, ...]:
    """Blocks by descending smallest character, each block descending."""
    desc = sorted((sorted(b, reverse=True) for b in runs), key=lambda b: b[-1], reverse=True)
    return tuple(c for b in desc for c in b)


def _layer_orders(
    runs: Sequence[tuple[CharId, ...]], bit: Mapping[tuple[CharId, CharId], int]
) -> Iterator[int]:
    """The pair mask of every ordering of a layer that keeps each block of
    ``runs`` consecutive (:func:`_mask_order` spells a mask out).

    A pair inside a block depends only on that block's permutation, and a
    pair across blocks only on the arrangement of the blocks, so each mask
    ORs one mask per arrangement with one precomputed mask per permutation
    of each block of two or more characters.  The last block's masks are
    the innermost loop, so most orders cost a single OR.
    """
    n = len(runs)
    # ahead[a][b]: the bits of the pairs that block a placed before block b sets.
    ahead = [[0] * n for _ in range(n)]
    for a, b in itertools.permutations(range(n), 2):
        for u in runs[a]:
            for v in runs[b]:
                if u < v:
                    ahead[a][b] |= bit[(u, v)]
    inner = [
        [_order_mask(p, bit) for p in itertools.permutations(run)] for run in runs if len(run) > 1
    ]
    last = inner.pop() if inner else [0]
    for arrangement in itertools.permutations(range(n)):
        cross = 0
        for i, a in enumerate(arrangement):
            row = ahead[a]
            for b in arrangement[i + 1 :]:
                cross |= row[b]
        for parts in itertools.product(*inner):
            base = reduce(or_, parts, cross)
            for mask in last:
                yield base | mask


def _mask_order(
    chars: Collection[CharId], mask: int, bit: Mapping[tuple[CharId, CharId], int]
) -> tuple[CharId, ...]:
    """The order of ``chars`` whose pair mask is ``mask`` (other bits are
    ignored): each character ranks by the number of others put before it."""
    before = dict.fromkeys(chars, 0)
    for u, v in itertools.combinations(sorted(chars), 2):
        before[v if mask & bit[(u, v)] else u] += 1
    return tuple(sorted(chars, key=before.__getitem__))


def _order_mask(order: Sequence[CharId], bit: Mapping[tuple[CharId, CharId], int]) -> int:
    # bit set iff the smaller-indexed character of the pair comes first
    mask = 0
    for i, u in enumerate(order):
        for v in order[i + 1 :]:
            if u < v:
                mask |= bit[(u, v)]
    return mask


def _gate_classes(
    runs: Sequence[tuple[CharId, ...]],
    bit: Mapping[tuple[CharId, CharId], int],
    gated: int,
    deadline: float = math.inf,
) -> dict[int, int] | None:
    """One entry per class of a layer's orders (blocks ``runs``) that agree
    on the bits of ``gated``: the class ``mask & gated`` maps to the least
    mask in it.  None once ``deadline`` passes; the clock is read once per
    order listed.

    A layer's flips depend only on its bits in its two gates, so of the
    orders agreeing there only the least mask can lie on the least key.
    With ``gated`` 0 all orders form one class and none is listed: its
    entry is the mask of the descending order, the least mask when earlier
    pairs take higher bits, as in :func:`_pair_bits`.  Otherwise
    :func:`_layer_orders` lists every mask.
    """
    if not gated:
        return {0: _order_mask(_descending(runs), bit)}
    clock = time.monotonic
    least_in: dict[int, int] = {}
    for mask in _layer_orders(runs, bit):
        if clock() > deadline:
            return None
        cls = mask & gated
        if mask < least_in.get(cls, mask + 1):
            least_in[cls] = mask
    return least_in


def _pair_bits(chars: Collection[CharId]) -> dict[tuple[CharId, CharId], int]:
    """One bit per pair of ``chars`` in index order, earlier pairs in higher
    bits, so masks compare like bit vectors; a set's gate is its sorted mask."""
    pairs = list(itertools.combinations(sorted(chars), 2))
    return {pair: 1 << k for k, pair in enumerate(reversed(pairs))}


def _min_plus(
    states: Mapping[int, tuple[int, int]],
    tables: Sequence[Mapping[int, int]],
    gates: Sequence[int],
    width: int,
    deadline: float = math.inf,
) -> dict[int, tuple[int, int]] | None:
    """Least ``(crossings, key)`` per exit class of the paths through layers.

    A path enters at a mask of ``states``, takes a candidate mask (a value of
    :func:`_gate_classes`) from each of ``tables``, one at least, and pays,
    at layer k, its flips in ``gates[k]`` (``[entry, gap_1, ..., exit]``);
    its exit class is its last mask & ``gates[-1]``.  Keys gain ``width``-bit
    fields, earlier ones in higher bits: the flips at each gate but the
    exit, then each layer's mask, as :func:`order_fixed_layers` ranks them;
    width 0 makes every key 0.  A layer keeps one state per class of its gate
    to the next, as the rest of a path depends on no other bit.  Candidates
    of one gate class see the same flips: their least crossing sum over the
    states comes first, then the least key among the states reaching it.
    None once ``deadline`` passes; the clock is read once per candidate.
    """
    n = len(tables)
    for k, (table, gate) in enumerate(zip(tables, gates)):
        flip_unit = width and 1 << (2 * n - 1 - k) * width
        order_unit = width and 1 << (n - 1 - k) * width
        gated_in = [m1 & gate for m1 in states]
        costs = [c for c, _key in states.values()]
        keys = [key for _c, key in states.values()]
        least_for: dict[int, tuple[int, int]] = {}
        nxt: dict[int, tuple[int, int]] = {}
        for m2 in table.values():
            if time.monotonic() > deadline:
                return None
            g2 = m2 & gate
            if g2 not in least_for:
                sums = [c + (g1 ^ g2).bit_count() for c, g1 in zip(costs, gated_in)]
                low = min(sums)
                least_for[g2] = low, width and min(
                    key + (g1 ^ g2) * flip_unit
                    for total, key, g1 in zip(sums, keys, gated_in)
                    if total == low
                )
            low, key = least_for[g2]
            cls, best = m2 & gates[k + 1], (low, key + m2 * order_unit)
            nxt[cls] = min(best, nxt.get(cls, best))
        states = nxt
    return states


def order_fixed_layers(
    layers: Sequence[tuple[Sequence[Collection[CharId]], frozenset[CharId]]],
    deadline: float = math.inf,
) -> tuple[list[tuple[CharId, ...]], int, bool]:
    """Character orders of fixed layers: ``(orders, crossings, proven)``.

    Each layer is ``(groups, active)``: the character groups of its
    interactions, each to be kept consecutive, and the characters it holds.
    Every layer starts in descending order: blocks (groups and lone
    characters) by descending smallest character, characters descending
    inside a block.  Its cost is the oracle's count (co-present pairs that
    flip, as in :func:`gap_crossings`).  Unless that cost is 0, one
    :func:`_min_plus` run over the candidate orders C_i of every layer, one
    per class of orders that agree on the pairs shared with its neighbours
    (:func:`_gate_classes`), proves the optimum, provided the sum of
    |C_i|·|C_{i+1}| is at most ``DEFAULT_SEARCH_GUARD`` and ``deadline`` (on
    the ``time.monotonic`` clock) does not pass first; otherwise the start
    comes back with its cost, unproven.  The DP keeps the descending orders
    if they are optimal, and otherwise returns the optimum least in this
    key: crossings, then per gap the flip bit of every co-present pair, then
    per layer the "smaller character first" bit of every pair, pairs in
    index order, 0 before 1.
    """
    blocks = [_blocks(groups, active) for groups, active in layers]
    start = [_descending(runs) for runs in blocks]
    cost = sum(
        _order_flips(o1, o2, a1 & a2)
        for o1, o2, (_g, a1), (_h, a2) in zip(start, start[1:], layers, layers[1:])
    )
    counts = [_order_count(runs) for runs in blocks]
    if cost == 0 or sum(a * b for a, b in itertools.pairwise(counts)) > DEFAULT_SEARCH_GUARD:
        return start, cost, cost == 0

    bit = _pair_bits(set().union(*(active for _groups, active in layers)))
    width = len(bit)
    shared = (sorted(a & b) for (_g, a), (_h, b) in itertools.pairwise(layers))
    gates = [0, *(_order_mask(common, bit) for common in shared), 0]
    tables = [_gate_classes(r, bit, g | h, deadline) for r, g, h in zip(blocks, gates, gates[1:])]
    best = None if None in tables else _min_plus({0: (0, 0)}, tables, gates, width, deadline)
    if best is None or best[0][0] == cost:
        return start, cost, best is not None
    crossings, least = best[0]
    orders = [
        _mask_order(active, least >> (len(layers) - 1 - li) * width, bit)
        for li, (_groups, active) in enumerate(layers)
    ]
    return orders, crossings, True


def _minimal_activity(
    groups: Sequence[Sequence[frozenset[CharId]]],
) -> list[frozenset[CharId]]:
    """Per layer, the characters between their first and last interaction layer."""
    first: dict[CharId, int] = {}
    last: dict[CharId, int] = {}
    for li, layer in enumerate(groups):
        for g in layer:
            for c in g:
                first.setdefault(c, li)
                last[c] = li
    return [
        frozenset(c for c in first if first[c] <= li <= last[c])
        for li in range(len(groups))
    ]


def brute_force_optimum(
    inst: StorylineInstance,
    activity: ActivityMode = "span",
    budgets: Mapping[TimeId, int] | None = None,
) -> int:
    """Least crossings of any legal storyline, by a min-plus DP over slices.

    A slice's plan puts its interactions, in order, in at most
    ``budgets[t]`` conflict-free layers (default one per interaction; 0
    for a timestamp ``budgets`` lacks).  ``span`` makes a character active
    from its first to its last interaction timestamp, ``minimal`` from its
    first to its last interaction layer; either way consecutive slices
    share ``potential[t] & potential[t']``, and the DP's state is their
    order as a pair mask.  Each plan is one :func:`_min_plus` run from the
    states through its layers; a slice with one exit state (the last, say)
    stops once a plan reaches the least incoming cost.  Plans are generated
    as the DP reaches them, and each costs at least one term (a layer's
    incoming states times its candidates).  Passing ``EXHAUSTIVE_GUARD``
    terms, or a layer with more orders than it, raises
    :class:`SearchSpaceError`; so a refused call costs up to that many
    terms, seconds at the default.
    """
    if activity not in ("span", "minimal"):
        raise ValueError(f"unknown activity mode {activity!r}")
    guard = EXHAUSTIVE_GUARD
    times = [t for t, items in enumerate(inst.by_time) if items]
    per_time = []
    for t in times:
        limit = len(inst.by_time[t]) if budgets is None else budgets.get(t, 0)
        plans = _slice_plans(inst.by_time[t], limit)
        first = next(plans, None)  # every timestamp is checked before the DP
        if first is None:
            raise ValueError(
                f"layer budget {limit} is below the chromatic number at timestamp {t}"
            )
        per_time.append(itertools.chain((first,), plans))
    bit = _pair_bits(range(inst.num_characters))

    classes: dict[tuple, dict[int, int]] = {}
    states, shared_in, terms = {0: (0, 0)}, frozenset(), 0
    for t, plans, nxt in zip(times, per_time, [*times[1:], None]):
        pot = inst.potential[t]
        shared = frozenset() if nxt is None else pot & inst.potential[nxt]
        floor, out = min(states.values())[0], {}
        for plan in plans:
            groups = [[it.characters for it in layer] for layer in plan]
            actives = [pot] * len(plan)
            if activity == "minimal":
                actives = _minimal_activity([[shared_in], *groups, [shared]])[1:-1]
            # The entry and exit shares lie in the first and last layers.
            ends = itertools.pairwise([shared_in, *actives, shared])
            gates = [_order_mask(sorted(a & b), bit) for a, b in ends]
            tables: list[dict[int, int]] = []
            for k, (layer, act) in enumerate(zip(groups, actives)):
                key = (tuple(it.id for it in plan[k]), act, gates[k] | gates[k + 1])
                if key not in classes:
                    runs = _blocks(layer, act)
                    if _order_count(runs) > guard:
                        raise SearchSpaceError(f"search space too large: {guard}+ layer orders")
                    classes[key] = _gate_classes(runs, bit, key[2])
                terms += len(tables[-1] if tables else states) * len(classes[key])
                if terms > guard:
                    raise SearchSpaceError(f"search space too large: over {guard} min-plus terms")
                tables.append(classes[key])
            for cls, best in _min_plus(states, tables, gates, 0).items():
                out[cls] = min(best, out.get(cls, best))
            if not gates[-1] and out[0][0] == floor:
                break
        states, shared_in = out, shared
    return min(states.values())[0]

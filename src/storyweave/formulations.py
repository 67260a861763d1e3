"""Exact 0/1 models for crossing-minimal storylines.

Every timestamp gets a fixed budget of ordered layer slots.  Binary
variables then choose where each interaction goes (placement), how the
characters of every slot are ordered (one before/after variable per
character pair), and which co-present pairs flip between consecutive slots
(crossing indicators, the minimization objective).  Four model kinds are
built from the same machinery:

* ``ilp1``    one slot per interaction; a character is treated as present
              in every slot between its first and last interaction
              timestamp, inclusive.
* ``ilp1ml``  like ``ilp1`` but with the slot budget shrunk to the
              chromatic number of each timestamp's conflict graph.
* ``ilp2``    adds per-(character, slot) activity variables so a character
              can drop out of slots before its first or after its last
              placed interaction; crossings only count between co-active
              pairs.
* ``ilp2ml``  ``ilp2`` with minimized slot budgets.

Both families link a crossing indicator to its pair's two ordering
variables by the same pair of rows; ``ilp2`` only adds the four activity
terms of the pair on both sides, which relax the rows while either
character is inactive.

Variables are numbered placement, ordering, crossing, then activity; rows
come placement (with the conflict and symmetry-breaking rows), then
transitivity, interaction blocks, activity, and crossing linking last.
Both orders fix the exported LP text, which tests pin byte for byte.  A
slot with n present characters has C(n, 2) ordering variables and
2·C(n, 3) transitivity rows, so the models grow with the cube of the
characters per timestamp.  A row term is a ``(coef, index)`` pair of
ints (see :mod:`storyweave.bip`).  While building, each slot keeps one
table of its ordering terms indexed by character position: for the pair's
ordering variable x, the ``(1, x.index)`` term above the diagonal and the
``(-1, x.index)`` term below; the transitivity, block and linking rows are
read from these tables.

The builder's contract, which tests pin on small and wide models alike:
the same variables, names and numbering, the same rows in the same order,
and catalog tables that list their variables in the order they were made.
Each group of variables (placement, ordering, crossing, activity) is
counted, named and given its terms in one loop and made by one
:meth:`bip.ModelBuilder.new_vars` call; every row is appended to one list,
handed to the builder once.  The slots of a timestamp share one
``LayerSlot``.

Every model is mirror-symmetric.  Reversing the character order of every
slot maps each ordering variable x to 1 - x and leaves every other variable
as it is, and it maps the model onto itself: the transitivity, block and
linking rows are mirror-closed (a transitivity row's two sides are each
other's mirror, as are the two block rows of a member pair and an outsider,
and the two linking rows of a crossing indicator, which a flip in either
direction sets), and the placement, conflict, symmetry-breaking and
activity rows hold no ordering variable.  So every storyline and its mirror
image cost the same, and :func:`solve_exact` fixes the first ordering
variable in catalog order to 0: the search then proves each optimum once
instead of once per mirror image, and loses none.  The fix is passed to
:func:`bip.solve`, not added as a row, so the programs and their LP text
stay as built.

Solver assignments are decoded back into storylines: decoding indexes the
assignment by variable index and reads the ordering and activity
variables in catalog order, slot by slot.  Empty slots are dropped and the
reported crossing number is always recomputed with the counting oracle
rather than read off the objective.
"""

from __future__ import annotations

import itertools
import logging
import time
from dataclasses import dataclass, field
from typing import Mapping

from . import bip, coloring
from .core import (
    CharId,
    CombinatorialStoryline,
    InteractionId,
    Layer,
    LayoutReport,
    StorylineInstance,
    TimeId,
    count_crossings,
    validate_storyline,
)

log = logging.getLogger(__name__)

Term = bip.Term


@dataclass(frozen=True)
class LayerSlot:
    """One reserved column in the slice of ``time``."""

    time: TimeId


@dataclass(frozen=True)
class ModelKind:
    family: str  # "ilp1" or "ilp2"
    minimize_layers: bool = False

    @property
    def name(self) -> str:
        return self.family + ("ml" if self.minimize_layers else "")


ILP1 = ModelKind("ilp1", False)
ILP1ML = ModelKind("ilp1", True)
ILP2 = ModelKind("ilp2", False)
ILP2ML = ModelKind("ilp2", True)

EXACT_KINDS: dict[str, ModelKind] = {k.name: k for k in (ILP1, ILP1ML, ILP2, ILP2ML)}


@dataclass
class VariableCatalog:
    """Bookkeeping from model building, needed to decode a solution.

    Each table lists its variables in the order :func:`build_model` made
    them; :func:`decode` reads ``order`` and ``active`` in that order.
    """

    kind: ModelKind
    slots: tuple[LayerSlot, ...]
    placement: dict[tuple[int, InteractionId], bip.VarId] = field(default_factory=dict)
    order: dict[tuple[int, CharId, CharId], bip.VarId] = field(default_factory=dict)
    crossing: dict[tuple[int, CharId, CharId], bip.VarId] = field(default_factory=dict)
    active: dict[tuple[CharId, int], bip.VarId] = field(default_factory=dict)


@bip._collector_paused
def build_model(
    inst: StorylineInstance,
    kind: ModelKind,
    budgets: Mapping[TimeId, int],
    symmetry_breaking: bool = True,
) -> tuple[bip.BinaryProgram, VariableCatalog]:
    """Assemble the program for ``kind`` under the given slot budgets.

    ``symmetry_breaking`` forbids a slot from holding interactions while an
    earlier slot of the same slice is empty; any storyline reachable without
    the restriction is still reachable with it, at equal cost, by shifting
    its occupied slots to the front of the slice.

    The build, program validation included, runs with the cyclic garbage
    collector paused.  A wide model allocates hundreds of thousands of
    row and term tuples, and the young collections they would start
    free nothing: the model holds only acyclic containers (tuples, lists
    and dicts of ints, strings and variable ids), so reference counting
    frees all of it.  These collections are now skipped, the last one
    too: a wide model goes straight to the oldest generation when the
    pause ends (see ``bip._collector_paused``).  The caller's collector
    state is restored on return, and also when the build raises.
    """
    # The slots of a timestamp share one LayerSlot; slots_at lists their
    # numbers.
    slots_at: dict[TimeId, range] = {}
    slot_list: list[LayerSlot] = []
    for t in range(inst.num_timestamps):
        budget = budgets.get(t, 0)
        if budget > 0:
            slots_at[t] = range(len(slot_list), len(slot_list) + budget)
            slot_list += [LayerSlot(t)] * budget
    slots = tuple(slot_list)
    free = kind.family == "ilp2"  # activity is a variable
    cat = VariableCatalog(kind=kind, slots=slots)
    by_time, potential = inst.by_time, inst.potential
    mb = bip.ModelBuilder()
    new_vars = mb.new_vars
    # The characters present at each slot, in increasing order; a
    # character's index in this list is its position in the slot's tables.
    chars_at = {t: sorted(potential[t]) for t in slots_at}
    chars = [chars_at[s.time] for s in slots]

    # Rows are tuples of the (1, i) and (-1, i) terms made once per variable
    # index i, so the many rows of a large model share their terms.  Each
    # group of variables is made by one new_vars call; i counts them.
    i = 0

    # Placement variables and constraints.
    y: dict[tuple[int, InteractionId], Term] = {}
    neg_y: dict[tuple[int, InteractionId], Term] = {}
    placed: list[list[Term]] = [[] for _ in inst.interactions]  # by interaction
    names: list[str] = []
    for si, s in enumerate(slots):
        for it in by_time[s.time]:
            key = (si, it.id)
            names.append(f"y_s{si}_i{it.id}")
            y[key] = term = (1, i)
            neg_y[key] = (-1, i)
            placed[it.id].append(term)
            i += 1
    cat.placement.update(zip(y, new_vars(names)))
    rows: list[Row] = []
    for it in inst.interactions:
        if not placed[it.id]:
            raise ValueError(
                f"timestamp {it.time} has interactions but a zero slot budget"
            )
        rows.append((tuple(placed[it.id]), "=", 1))
    for t, sis in slots_at.items():
        items = by_time[t]
        for a, b in itertools.combinations(items, 2):
            if a.characters & b.characters:
                for si in sis:
                    rows.append(((y[si, a.id], y[si, b.id]), "<=", 1))
        if symmetry_breaking:
            for earlier, later in itertools.pairwise(sis):
                fill = tuple([neg_y[earlier, it.id] for it in items])
                for it in items:
                    rows.append(((y[later, it.id],) + fill, "<=", 0))

    # Ordering variables: one per slot and character pair, smaller index
    # first.  before[si][p][q] is the (1, x.index) term of the pair at
    # positions p < q of slot si, and before[si][q][p] its (-1, x.index)
    # term; up to a constant, each reads "the character at the first
    # position comes first".
    before: list[TermTable] = []
    keys: list[tuple[int, CharId, CharId]] = []
    names = []
    for si, cs in enumerate(chars):
        n = len(cs)
        table = list(map(list, itertools.repeat([_NO_TERM] * n, n)))
        for p, cp in enumerate(cs):
            row_p = table[p]
            for q in range(p + 1, n):
                cq = cs[q]
                keys.append((si, cp, cq))
                names.append(f"x_s{si}_c{cp}_c{cq}")
                row_p[q] = (1, i)
                table[q][p] = (-1, i)
                i += 1
        before.append(table)
    cat.order.update(zip(keys, new_vars(names)))

    # Crossing indicators per gap between consecutive slots, in the order of
    # their pairs of shared characters.
    shared = [
        cs if a.time == b.time else sorted(potential[a.time] & potential[b.time])
        for a, b, cs in zip(slots, slots[1:], chars)
    ]
    z: list[list[Term]] = []
    keys = []
    names = []
    for gi, common in enumerate(shared):
        gap: list[Term] = []
        for ci, cj in itertools.combinations(common, 2):
            keys.append((gi, ci, cj))
            names.append(f"z_g{gi}_c{ci}_c{cj}")
            gap.append((1, i))
            i += 1
        z.append(gap)
    crossing = new_vars(names)
    cat.crossing.update(zip(keys, crossing))

    # Activity terms by slot and position, like the ordering terms.
    act: list[list[Term]] = []
    neg_act: list[list[Term]] = []
    if free:
        akeys: list[tuple[CharId, int]] = []
        names = []
        for si, cs in enumerate(chars):
            terms: list[Term] = []
            idle: list[Term] = []
            for c in cs:
                akeys.append((c, si))
                names.append(f"a_c{c}_s{si}")
                terms.append((1, i))
                idle.append((-1, i))
                i += 1
            act.append(terms)
            neg_act.append(idle)
        cat.active.update(zip(akeys, new_vars(names)))

    # Orders must be transitive, hence total.
    _transitivity_rows(rows, before)

    # Interaction blocks: characters outside a placed interaction must end
    # up entirely before or entirely after its characters.  Per timestamp,
    # the member and outsider positions of each interaction that has a
    # member pair and an outsider.
    blocks_at: dict[TimeId, list[tuple[InteractionId, list[int], list[int]]]] = {}
    for t, cs in chars_at.items():
        blocks_at[t] = blocks = []
        for it in by_time[t]:
            members = sorted(map(cs.index, it.characters))
            if 1 < len(members) < len(cs):
                outside = [p for p in range(len(cs)) if p not in members]
                blocks.append((it.id, members, outside))
    _block_rows(rows, before, [blocks_at[s.time] for s in slots], y, neg_y)

    # Activity: forced where an interaction is placed, contiguous otherwise.
    if free:
        for si, s in enumerate(slots):
            cs, terms = chars[si], act[si]
            for it in by_time[s.time]:
                unplaced = neg_y[si, it.id]
                for c in it.characters:
                    rows.append(((terms[cs.index(c)], unplaced), ">=", 0))
        by_char: dict[CharId, list[tuple[int, int]]] = {}
        for si, cs in enumerate(chars):
            for p, c in enumerate(cs):
                by_char.setdefault(c, []).append((si, p))
        for c, places in sorted(by_char.items()):
            for (s1, p1), (s2, p2), (s3, p3) in itertools.combinations(places, 3):
                rows.append(((act[s2][p2], neg_act[s1][p1], neg_act[s3][p3]), ">=", -1))

    # Crossing linking: z is forced to 1 when the pair order flips between
    # the two slots (and, for ilp2, only while both characters are active
    # on both sides).
    _linking_rows(rows, z, shared, chars, before, neg_act if free else None)

    mb.extend(rows)
    mb.minimize(zip(itertools.repeat(1), crossing))
    return mb.build(), cat


Row = bip.Row
TermTable = list[list[Term]]
_NO_TERM: Term = (0, -1)  # fills the diagonal of a term table


def _transitivity_rows(rows: list[Row], before: list[TermTable]) -> None:
    """Append x_uv + x_vw - x_uw in [0, 1] for every slot and position
    triple u < v < w; the two rows of a triple share its terms tuple."""
    for table in before:
        n = len(table)
        for u in range(n - 2):
            row_u = table[u]
            for v in range(u + 1, n - 1):
                uv, row_v = row_u[v], table[v]
                for w in range(v + 1, n):
                    terms = (uv, row_v[w], table[w][u])
                    rows += ((terms, "<=", 1), (terms, ">=", 0))


def _block_rows(
    rows: list[Row],
    before: list[TermTable],
    blocks: list[list[tuple[InteractionId, list[int], list[int]]]],
    y: dict[tuple[int, InteractionId], Term],
    neg_y: dict[tuple[int, InteractionId], Term],
) -> None:
    """Append the block rows of every slot.  A block of a slot is an
    interaction with its member and its outsider positions, both
    increasing; ``y`` and ``neg_y`` hold the placement terms by slot and
    interaction.  For each member pair i < j and each outsider k in
    increasing order: k between the two may not sit inside the pair while
    the interaction is placed, and k before or after both must see the two
    members on the same side.
    """
    for si, (table, slot_blocks) in enumerate(zip(before, blocks)):
        for iid, members, outside in slot_blocks:
            placed, unplaced = y[si, iid], neg_y[si, iid]
            for i, j in itertools.combinations(members, 2):
                row_i, row_j = table[i], table[j]
                for k in outside:
                    row_k = table[k]
                    if k < i:
                        rows += (
                            ((row_k[i], row_j[k], placed), "<=", 1),
                            ((row_k[j], row_i[k], placed), "<=", 1),
                        )
                    elif k < j:
                        ik, kj = row_i[k], row_k[j]
                        rows += (((ik, kj, placed), "<=", 2), ((ik, kj, unplaced), ">=", 0))
                    else:
                        rows += (
                            ((row_i[k], row_k[j], placed), "<=", 1),
                            ((row_j[k], row_k[i], placed), "<=", 1),
                        )


def _linking_rows(
    rows: list[Row],
    z: list[list[Term]],
    shared: list[list[CharId]],
    chars: list[list[CharId]],
    before: list[TermTable],
    neg_act: list[list[Term]] | None,
) -> None:
    """Append the two rows tying each crossing indicator of gap gi to its
    pair's ordering terms in slots gi and gi + 1.  ``z[gi]`` follows the
    pairs of ``shared[gi]``, the gap's common characters; for ilp2 the
    pair's four ``(-1, a.index)`` activity terms join both rows."""
    for gi, (gap, common) in enumerate(zip(z, shared)):
        if not gap:
            continue
        left, right = before[gi], before[gi + 1]
        chars_l, chars_r = chars[gi], chars[gi + 1]
        places = list(zip(map(chars_l.index, common), map(chars_r.index, common)))
        pairs = zip(gap, itertools.combinations(places, 2))
        if neg_act is None:
            for zt, ((la, ra), (lb, rb)) in pairs:
                rows += (
                    ((zt, left[lb][la], right[ra][rb]), ">=", 0),
                    ((zt, left[la][lb], right[rb][ra]), ">=", 0),
                )
        else:
            idle_l, idle_r = neg_act[gi], neg_act[gi + 1]
            for zt, ((la, ra), (lb, rb)) in pairs:
                ia, ja, ib, jb = idle_l[la], idle_r[ra], idle_l[lb], idle_r[rb]
                rows += (
                    ((zt, left[lb][la], right[ra][rb], ia, ja, ib, jb), ">=", -4),
                    ((zt, left[la][lb], right[rb][ra], ia, ja, ib, jb), ">=", -4),
                )


def decode(
    inst: StorylineInstance, cat: VariableCatalog, result: bip.SolveResult
) -> CombinatorialStoryline:
    """Turn a solver assignment into a storyline of the catalog's model kind.

    Slot orders come from the pairwise ordering variables (transitivity
    makes them total), activity from the slot's character span or the
    activity variables, and slots that received no interaction are dropped.
    The result is validated; crossing numbers must be recomputed by the
    caller with the oracle, never taken from the objective.
    """
    a = result.assignment
    if a is None:
        raise ValueError(f"cannot decode a result with status {result.status!r}")

    placed_at: list[list[InteractionId]] = [[] for _ in cat.slots]
    for (si, iid), var in cat.placement.items():
        if a[var.index] == 1:
            placed_at[si].append(iid)

    # The ordering and activity variables, slot by slot in the order
    # build_model made them: pairs in order, characters in order.
    order_vars = iter(cat.order.values())
    active_vars = iter(cat.active.values())
    free = cat.kind.family == "ilp2"
    chars_at: dict[TimeId, list[CharId]] = {}
    layers: list[Layer] = []
    for si, slot in enumerate(cat.slots):
        t = slot.time
        chars = chars_at.get(t)
        if chars is None:
            chars = chars_at[t] = sorted(inst.potential[t])
        n = len(chars)
        firsts = list(itertools.islice(order_vars, n * (n - 1) // 2))
        flags = list(itertools.islice(active_vars, n)) if free else ()
        if not placed_at[si]:
            continue
        wins = dict.fromkeys(chars, 0)
        for (ci, cj), var in zip(itertools.combinations(chars, 2), firsts):
            wins[ci if a[var.index] == 1 else cj] += 1
        if sorted(wins.values()) != list(range(n)):
            raise RuntimeError(
                f"ordering variables of slot {si} do not form a total order"
            )
        # Most wins first; the sort is stable, so ties stay in character order.
        full_order = sorted(chars, key=wins.__getitem__, reverse=True)
        if free:
            active = frozenset([c for c, var in zip(chars, flags) if a[var.index] == 1])
            order = tuple(filter(active.__contains__, full_order))
        else:
            active = frozenset(chars)
            order = tuple(full_order)
        layers.append(Layer(t, tuple(sorted(placed_at[si])), order, active))

    story = CombinatorialStoryline(tuple(layers))
    problems = validate_storyline(inst, story)
    if problems:
        raise RuntimeError("decoded storyline is illegal: " + "; ".join(problems))
    return story


def solve_exact(
    inst: StorylineInstance,
    kind: ModelKind,
    timeout: float = 3600.0,
    cap: int | None = None,
) -> tuple[CombinatorialStoryline | None, LayoutReport]:
    """Build, solve and decode one of the exact models.

    ``cap`` limits color class sizes when budgets are minimized and is
    rejected (by :func:`coloring.layer_budget`) for the one-slot-per-interaction
    kinds, whose budgets do not come from coloring.  The search gets what
    remains of ``timeout`` after model building, however little that is.
    The search fixes the first ordering variable to 0, which keeps one of
    every storyline and its mirror image (see the module docstring).
    Crossings are recounted with the oracle.  A timed-out search reports the
    gap between its incumbent and the bound it proved, or no storyline and a
    100 % gap when it found no incumbent.
    ``runtime`` covers everything up to the end of the recount.  A
    ``timeout`` that is not positive (or is nan) raises ValueError.
    """
    if not timeout > 0:
        raise ValueError("timeout must be positive")
    t0 = time.monotonic()
    budgets = coloring.layer_budget(inst, minimize=kind.minimize_layers, cap=cap)
    program, cat = build_model(inst, kind, budgets)
    log.info(
        "%s model: %d vars, %d constraints",
        kind.name,
        len(program.variables),
        len(program.constraints),
    )
    # Keep one mirror image: every model is mirror-symmetric.
    first = next(iter(cat.order.values()), None)
    fixed = () if first is None else ((first.index, 0),)
    result = bip.solve(program, timeout=timeout - (time.monotonic() - t0), fixed=fixed)
    story = crossings = layers = gap = None
    if result.assignment is not None:
        story = decode(inst, cat, result)
        crossings = count_crossings(story).total
        layers = len(story.layers)
    if result.status == bip.FEASIBLE_TIMEOUT:
        # A timed-out incumbent's objective is positive: open bounds are >= 0.
        upper, lower = result.objective_value, result.best_lower_bound
        gap = 100.0 if story is None else bip.gap_percent(upper, lower)
    runtime = time.monotonic() - t0
    return story, LayoutReport(kind.name, crossings, layers, runtime, result.status, gap)

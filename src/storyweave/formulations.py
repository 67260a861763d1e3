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

Solver assignments are decoded back into storylines; empty slots are
dropped and the reported crossing number is always recomputed with the
counting oracle rather than read off the objective.
"""

from __future__ import annotations

import itertools
import logging
import time
from dataclasses import dataclass, field
from typing import Mapping, TypeVar

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

K = TypeVar("K")
Term = tuple[int, bip.VarId]


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
    """Bookkeeping from model building, needed to decode a solution."""

    kind: ModelKind
    slots: tuple[LayerSlot, ...]
    placement: dict[tuple[int, InteractionId], bip.VarId] = field(default_factory=dict)
    order: dict[tuple[int, CharId, CharId], bip.VarId] = field(default_factory=dict)
    crossing: dict[tuple[int, CharId, CharId], bip.VarId] = field(default_factory=dict)
    active: dict[tuple[CharId, int], bip.VarId] = field(default_factory=dict)


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
    """
    slots = tuple(
        LayerSlot(t) for t in range(inst.num_timestamps) for _ in range(budgets.get(t, 0))
    )
    potential = [inst.potential[s.time] for s in slots]
    free = kind.family == "ilp2"  # activity is a variable
    cat = VariableCatalog(kind=kind, slots=slots)

    mb = bip.ModelBuilder()
    add = mb.add
    slots_at: dict[TimeId, list[int]] = {}
    for si, s in enumerate(slots):
        slots_at.setdefault(s.time, []).append(si)

    # Rows are tuples of the (1, v) and (-1, v) terms that _signed makes once
    # per variable, so the many rows of a large model share their terms.

    # Placement variables and constraints.
    for si, s in enumerate(slots):
        for it in inst.by_time[s.time]:
            cat.placement[(si, it.id)] = mb.new_var(f"y_s{si}_i{it.id}")
    y, neg_y = _signed(cat.placement)
    for it in inst.interactions:
        row = tuple(y[(si, it.id)] for si in slots_at.get(it.time, []))
        if not row:
            raise ValueError(
                f"timestamp {it.time} has interactions but a zero slot budget"
            )
        add(row, "=", 1)
    for t, sis in slots_at.items():
        items = inst.by_time[t]
        for a, b in itertools.combinations(items, 2):
            if a.characters & b.characters:
                for si in sis:
                    add((y[(si, a.id)], y[(si, b.id)]), "<=", 1)
        if symmetry_breaking:
            for earlier, later in itertools.pairwise(sis):
                fill = tuple(neg_y[(earlier, it.id)] for it in items)
                for it in items:
                    add((y[(later, it.id)],) + fill, "<=", 0)

    # Ordering variables: one per slot and character pair, smaller index first.
    for si in range(len(slots)):
        for ci, cj in itertools.combinations(sorted(potential[si]), 2):
            cat.order[(si, ci, cj)] = mb.new_var(f"x_s{si}_c{ci}_c{cj}")
    x, neg_x = _signed(cat.order)

    # Crossing indicators per gap between consecutive slots.
    for gi in range(len(slots) - 1):
        for ci, cj in itertools.combinations(sorted(potential[gi] & potential[gi + 1]), 2):
            cat.crossing[(gi, ci, cj)] = mb.new_var(f"z_g{gi}_c{ci}_c{cj}")
    z = {key: (1, v) for key, v in cat.crossing.items()}

    if free:
        for si in range(len(slots)):
            for c in sorted(potential[si]):
                cat.active[(c, si)] = mb.new_var(f"a_c{c}_s{si}")
    act, neg_act = _signed(cat.active)

    # Orders must be transitive, hence total.
    for si in range(len(slots)):
        for u, v, w in itertools.combinations(sorted(potential[si]), 3):
            row = (x[(si, u, v)], x[(si, v, w)], neg_x[(si, u, w)])
            add(row, "<=", 1)
            add(row, ">=", 0)

    # Interaction blocks: characters outside a placed interaction must end
    # up entirely before or entirely after its characters.
    for si, s in enumerate(slots):
        for it in inst.by_time[s.time]:
            placed, unplaced = y[(si, it.id)], neg_y[(si, it.id)]
            members = sorted(it.characters)
            outside = sorted(potential[si] - it.characters)
            for ci, cj in itertools.combinations(members, 2):
                for ck in outside:
                    if ci < ck < cj:
                        pair = (x[(si, ci, ck)], x[(si, ck, cj)])
                        add(pair + (placed,), "<=", 2)
                        add(pair + (unplaced,), ">=", 0)
                    else:
                        # ck is beyond both members, on the same side of each pair key.
                        if ck > cj:
                            left, right = (si, ci, ck), (si, cj, ck)
                        else:
                            left, right = (si, ck, ci), (si, ck, cj)
                        add((x[left], neg_x[right], placed), "<=", 1)
                        add((x[right], neg_x[left], placed), "<=", 1)

    # Activity: forced where an interaction is placed, contiguous otherwise.
    if free:
        for si, s in enumerate(slots):
            for it in inst.by_time[s.time]:
                for c in it.characters:
                    add((act[(c, si)], neg_y[(si, it.id)]), ">=", 0)
        by_char: dict[CharId, list[int]] = {}
        for si in range(len(slots)):
            for c in potential[si]:
                by_char.setdefault(c, []).append(si)
        for c, sis in sorted(by_char.items()):
            for s1, s2, s3 in itertools.combinations(sis, 3):
                add((act[(c, s2)], neg_act[(c, s1)], neg_act[(c, s3)]), ">=", -1)

    # Crossing linking: z is forced to 1 when the pair order flips between
    # the two slots (and, for ilp2, only while both characters are active
    # on both sides).
    for gi, ci, cj in cat.crossing:
        left = (gi, ci, cj)
        right = (gi + 1, ci, cj)
        inactive = (
            neg_act[(ci, gi)],
            neg_act[(ci, gi + 1)],
            neg_act[(cj, gi)],
            neg_act[(cj, gi + 1)],
        ) if free else ()
        add((z[left], neg_x[left], x[right]) + inactive, ">=", -len(inactive))
        add((z[left], x[left], neg_x[right]) + inactive, ">=", -len(inactive))

    mb.minimize(z.values())
    return mb.build(), cat


def _signed(variables: Mapping[K, bip.VarId]) -> tuple[dict[K, Term], dict[K, Term]]:
    """The ``(1, v)`` and the ``(-1, v)`` term of every variable, by key."""
    return (
        {key: (1, v) for key, v in variables.items()},
        {key: (-1, v) for key, v in variables.items()},
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
    if result.assignment is None:
        raise ValueError(f"cannot decode a result with status {result.status!r}")

    placed_at: dict[int, list[InteractionId]] = {si: [] for si in range(len(cat.slots))}
    for (si, iid), var in cat.placement.items():
        if result.value(var) == 1:
            placed_at[si].append(iid)

    layers: list[Layer] = []
    for si, slot in enumerate(cat.slots):
        ids = sorted(placed_at[si])
        if not ids:
            continue
        chars = sorted(inst.potential[slot.time])
        wins = {c: 0 for c in chars}
        for ci, cj in itertools.combinations(chars, 2):
            if result.value(cat.order[(si, ci, cj)]) == 1:
                wins[ci] += 1
            else:
                wins[cj] += 1
        full_order = sorted(chars, key=lambda c: (-wins[c], c))
        if sorted(wins.values()) != list(range(len(chars))):
            raise RuntimeError(
                f"ordering variables of slot {si} do not form a total order"
            )
        if cat.kind.family == "ilp2":
            active = frozenset(
                c for c in chars if result.value(cat.active[(c, si)]) == 1
            )
        else:
            active = frozenset(chars)
        order = tuple(c for c in full_order if c in active)
        layers.append(
            Layer(time=slot.time, interactions=tuple(ids), order=order, active=active)
        )

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
    result = bip.solve(program, timeout=timeout - (time.monotonic() - t0))
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

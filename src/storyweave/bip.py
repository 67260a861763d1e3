"""Exact 0/1 linear programming infrastructure.

Provides the model containers shared by every optimization in this package,
a deterministic depth-first branch-and-bound solver with timeout and bound
reporting, and CPLEX-style LP text export so large models can be handed to
an external solver.

A row is a plain ``(terms, op, rhs)`` tuple whose terms are ``(coef, index)``
pairs of ints, the index being the variable's position in the program.
``VarId`` appears only in the program's ``variables`` and ``objective``.  A
row holds no object reference, so once the cyclic garbage collector has
seen it, it stops tracking it.  Consecutive rows may share one terms tuple,
which validation checks only once.  ``VarId`` is a named tuple, so
:meth:`ModelBuilder.new_vars` makes a whole group of variables without a
Python-level call per variable.  A program is validated in one scan when it
is built.  A row of three terms passes as a whole when its indices are
exact ints in range and pairwise distinct and its coefficients exact ints;
any other row goes term by term, each term through one combined test (an
index in range, an exact ``int`` coefficient, a variable new to its row).
Only a row or term that fails is classified, so the first defect is
reported in a fixed order.  A name passes when it is an ASCII identifier
whose lower case is not an LP section keyword.

LP text: :func:`export_lp` prints a row of three terms with coefficients
±1, nearly every row of the exact models, with one f-string from name
tables indexed by sign (``x`` or ``- x`` for the leading term, ``+ x`` or
``- x`` after it) and, for a right-hand side from -8 to 8, a constant
table of ``" {op} {rhs}"`` tails; any other row goes through the general
expression, term by term.  A right-hand side is always written as a plain
decimal, so an ``int`` subclass that formats itself otherwise still
reads back.  Each fixed block of rows is wrapped only when one of its lines
is too long, and joined into one chunk, so at most one block of lines is
alive next to the chunks and the result, and an export peaks at about twice
the text it returns.  Validation admits only names that the text cannot
misread: no leading digit, which would read as a coefficient, and no
section keyword such as ``End``, which would end a section; so
:func:`parse_lp` reads the text back into the same program.

The solver works in exact integer arithmetic: coefficients, right-hand
sides and objective weights are integers (scale rationals while building
the model).  Bounding uses the partial objective plus 0/1 bound
propagation; there is deliberately no LP relaxation.  The bound is checked
inside propagation: before a variable is set to one, by branching or by a
row, its objective coefficient is added to the node's and compared with the
incumbent's, and a node that reaches the incumbent stops there, before that
variable is trailed; a node that starts at the incumbent, as the root can
after the dive, stops before it sets anything.  Objective coefficients are
non-negative, so such a node could only have been pruned at its fixpoint,
and the search tree is the same as with a check there.  The solver keeps every
row in one form, ``sum(coef * x) <= rhs``, over the program's own terms
tuple: a ``>=`` row is read with its signs flipped, by a flag per row, and
an ``=`` row becomes one row of each sign over the one tuple.  Per row it
keeps the largest |coef|, ``reach``, and one number, ``slack``: the
right-hand side minus ``reach`` minus the least value the left-hand side
can still take.  An assignment lowers the slack of the rows it raises (all
±1 terms of a row share one raise entry); a row can force a variable or
fail only once its slack is negative, so propagation is event-driven and
queues just those rows, and a queued row's room is ``slack + reach``.  A
value forced by a row is set in the row's own scan, without a call per
variable, and undone from the trail like a branching value.
"""

from __future__ import annotations

import functools
import gc
import itertools
import math
import re
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Literal, NamedTuple, ParamSpec, Sequence, TypeVar

Op = Literal["<=", ">=", "="]
_P = ParamSpec("_P")
_R = TypeVar("_R")

_NAME_CHARS_RE = re.compile(r"[A-Za-z0-9_]+\Z")
# An LP-safe name is an ASCII identifier: it does not start with a digit,
# which parse_lp would read as a coefficient.  It is not, in any case, a
# section keyword, which would end a section.
_LP_KEYWORDS = frozenset(("end", "bin", "binary", "binaries", "st", "minimize", "minimise"))

OPTIMAL = "optimal"
FEASIBLE_TIMEOUT = "feasible-timeout"
INFEASIBLE = "infeasible"

_OPS = ("<=", ">=", "=")
# " {op} {rhs}" for every operator and each right-hand side in this range,
# the tail of nearly every row the exact models export.
_TAILS = {op: {rhs: f" {op} {rhs}" for rhs in range(-8, 9)} for op in _OPS}
_LINE_WIDTH = 240  # LP lines longer than this are wrapped at term boundaries
_CHUNK_ROWS = 2048  # rows whose LP lines export_lp joins into one chunk


class VarId(NamedTuple):
    index: int
    name: str


# A VarId from an (index, name) pair, made without the Python-level __new__.
_make_var = functools.partial(tuple.__new__, VarId)


Term = tuple[int, int]  # (coefficient, variable index)
Row = tuple[tuple[Term, ...], Op, int]  # (terms, op, rhs)


@dataclass(frozen=True)
class BinaryProgram:
    """A validated 0/1 program; construction raises ValueError if malformed."""

    variables: tuple[VarId, ...]
    constraints: tuple[Row, ...]
    objective: tuple[tuple[int, VarId], ...]

    def __post_init__(self) -> None:
        validate_program(self)


@dataclass(frozen=True)
class SolveResult:
    """Outcome of one solve.

    ``assignment`` is indexed by variable index and is None only when no
    feasible point was found.  ``best_lower_bound`` equals the objective
    exactly when the status is ``optimal``; on timeout it is the best bound
    proven for the unexplored part of the tree.
    """

    status: str
    assignment: tuple[int, ...] | None
    objective_value: int | None
    best_lower_bound: int | None
    nodes: int = 0


def gap_percent(upper: int, lower: int) -> float:
    """Relative optimality gap (UB-LB)/UB in percent; requires UB > 0."""
    if upper <= 0:
        raise ValueError("gap is only defined for a positive upper bound")
    return 100.0 * (upper - lower) / upper


class ModelBuilder:
    """Incremental construction of a :class:`BinaryProgram`."""

    def __init__(self) -> None:
        self._vars: list[VarId] = []
        self._constraints: list[Row] = []
        self._objective: list[tuple[int, VarId]] = []

    def new_var(self, name: str) -> VarId:
        """A new variable; its name is checked when :meth:`build` validates."""
        var = VarId(len(self._vars), name)
        self._vars.append(var)
        return var

    def new_vars(self, names: Iterable[str]) -> list[VarId]:
        """One new variable per name, in order, as :meth:`new_var` makes them."""
        made = list(map(_make_var, zip(itertools.count(len(self._vars)), names)))
        self._vars += made
        return made

    def add(self, terms: Iterable[Term], op: Op, rhs: int) -> None:
        """Append one constraint over ``(coef, var.index)`` terms; a tuple of
        terms is kept as given, not copied."""
        self._constraints.append((tuple(terms), op, rhs))

    def extend(self, rows: Iterable[Row]) -> None:
        """Append constraints given as ``(terms, op, rhs)`` tuples with a tuple
        of terms; each row is stored as given."""
        self._constraints.extend(rows)

    def minimize(self, terms: Iterable[tuple[int, VarId]]) -> None:
        """Set the objective, given as ``(coef, VarId)`` terms."""
        self._objective = list(terms)

    def build(self) -> BinaryProgram:
        """The program so far; raises ValueError as :func:`validate_program` does."""
        return BinaryProgram(
            tuple(self._vars), tuple(self._constraints), tuple(self._objective)
        )


def validate_program(p: BinaryProgram) -> None:
    """Raise ValueError on the first defect of a malformed program.

    One scan, in this order: the variables (index, name, repeated name);
    each constraint in turn (no terms, operator, then per term the
    variable index, the coefficient and a repeated variable, then the
    right-hand side); the objective last (per term the reference, a
    non-negative integer coefficient and a repeated variable).

    A name matches ``[A-Za-z0-9_]+``, does not start with a digit and is
    not, in any case, one of the LP section keywords ``End``, ``bin``,
    ``binary``, ``binaries``, ``st``, ``minimize`` and ``minimise``.  That
    is an ASCII identifier whose lower case is not a keyword, which three
    string methods and one set lookup test; only a name that fails is
    classified.

    A row term is ``(coef, index)``: the index must be an ``int`` other than
    ``bool`` in ``range(len(p.variables))``, so a negative index never wraps
    round to a variable at the end.  An objective term is ``(coef, VarId)``
    and may refer to an equal but distinct ``VarId``.  Numbers may be
    ``int`` subclasses other than ``bool``.

    A row's terms are a sequence.  A row of three terms, nearly every row
    of the exact models, is unpacked once and passes as a whole when its
    three indices are exact ``int`` values in range and pairwise distinct
    and its three coefficients are exact ``int`` values.  Any other row,
    and a three-term row that fails that test, goes through the per-term
    loop: each term is tested by one combined condition that holds for the
    common case, exact ``int`` numbers, an index in range and a variable
    new to its row; only a term that fails it is classified, in the order
    above, and may still pass.  Objective terms are tested the same way,
    the index in range meaning the very ``VarId`` object stored at it.
    """
    variables = p.variables
    names: set[str] = set()
    for i, v in enumerate(variables):
        if v.index != i:
            raise ValueError(f"variable {v.name!r} has index {v.index}, expected {i}")
        name = v.name
        if not (name.isascii() and name.isidentifier() and name.lower() not in _LP_KEYWORDS):
            _check_name(name)
        if name in names:
            raise ValueError(f"duplicate variable name {name!r}")
        names.add(name)
    n = len(variables)

    # used_in[i] is the last row whose terms included variable i, so a term
    # finding its own row's number there repeats a variable of that row.
    # Only the per-term loop reads and sets it: a row the three-term test
    # accepts has no repeat, and no later row reads its number.
    used_in = [-1] * n
    seen = None  # the previous row's terms tuple, whose terms passed
    for k, (terms, op, rhs) in enumerate(p.constraints):
        if not terms:
            raise ValueError(f"constraint {k} has no terms")
        if op not in _OPS:
            raise ValueError(f"constraint {k} has unknown operator {op!r}")
        if terms is not seen:
            three = False
            if len(terms) == 3:
                try:
                    (c0, i0), (c1, i1), (c2, i2) = terms
                except (TypeError, ValueError):  # a term that is not a pair
                    pass
                else:
                    # An if, not a bool expression: each comparison then
                    # runs fused with its jump.
                    if (
                        type(i0) is int and type(i1) is int and type(i2) is int
                        and type(c0) is int and type(c1) is int and type(c2) is int
                        and i0 >= 0 and i1 >= 0 and i2 >= 0
                        and i0 < n and i1 < n and i2 < n
                        and i0 != i1 and i0 != i2 and i1 != i2
                    ):
                        three = True
            if not three:
                for coef, i in terms:
                    if (
                        type(i) is not int or i < 0 or i >= n
                        or type(coef) is not int or used_in[i] == k
                    ):
                        _check_row_term(variables, used_in, k, coef, i)
                    used_in[i] = k
            seen = terms
        if type(rhs) is not int and not _integral(rhs):
            raise ValueError(f"constraint {k}: right-hand side must be an integer")
    k = len(p.constraints)  # the objective's row number
    for coef, v in p.objective:
        i = v.index
        if (
            i < 0 or i >= n or variables[i] is not v
            or type(coef) is not int or coef < 0 or used_in[i] == k
        ):
            _check_objective_term(variables, used_in, k, coef, v)
        used_in[i] = k


def _check_name(name: str) -> None:
    """Raise for a variable name that is not LP-safe (see
    :func:`validate_program`): a character outside ``[A-Za-z0-9_]`` (or no
    character), then a leading digit, then a name that is an LP section
    keyword."""
    if not _NAME_CHARS_RE.match(name):
        raise ValueError(f"variable name {name!r} must match [A-Za-z0-9_]+")
    if name[0].isdigit():
        raise ValueError(f"variable name {name!r} must not start with a digit")
    raise ValueError(f"variable name {name!r} is an LP section keyword")


def _check_row_term(
    variables: tuple[VarId, ...], used_in: list[int], k: int, coef: object, i: object
) -> None:
    """Raise for the first defect of a term of row ``k``, if it has one:
    an index out of range or not an int, then a bad coefficient, then a
    repeated variable."""
    if not (_integral(i) and 0 <= i < len(variables)):  # type: ignore[operator]
        raise ValueError(f"constraint {k}: unknown variable index {i!r}")
    if not _integral(coef):
        raise ValueError(f"constraint {k}: coefficient {coef!r} is not an integer")
    if used_in[i] == k:  # type: ignore[index]
        name = variables[i].name  # type: ignore[index]
        raise ValueError(f"constraint {k}: duplicate variable {name!r}")


def _check_objective_term(
    variables: tuple[VarId, ...], used_in: list[int], k: int, coef: object, v: VarId
) -> None:
    """Raise for the first defect of an objective term, if it has one: an
    unknown variable, then a coefficient that is not a non-negative
    integer, then a repeated variable."""
    if not (0 <= v.index < len(variables)) or variables[v.index] != v:
        raise ValueError(f"unknown variable {v.name!r}")
    if not _integral(coef) or coef < 0:  # type: ignore[operator]
        raise ValueError("objective coefficients must be non-negative integers")
    if used_in[v.index] == k:
        raise ValueError(f"objective lists variable {v.name!r} twice")


def _integral(x: object) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _collector_paused(fn: Callable[_P, _R]) -> Callable[_P, _R]:
    """Decorate ``fn`` to run with the cyclic garbage collector disabled;
    the collector is enabled again afterwards, on error too, if, and only
    if, it was enabled before.  A plain wrapper rather than a context
    manager, which costs a few microseconds more per call.

    A wide call leaves tens of thousands of newly tracked objects in the
    young generation, so the first allocation after the pause would start
    a young collection that walks every one of them only to untrack them
    or move them on.  Before it enables the collector again, the wrapper
    therefore checks whether a young collection is due and, if so, moves
    every tracked object straight into the oldest generation with
    ``gc.freeze()`` and ``gc.unfreeze()``: two list splices that reset the
    young count and examine nothing ("pretenuring").  This is safe: the
    moved objects are freed by reference counting as before, and a cycle
    among them by the next full collection.  Side effects:

    - the caller's own young objects are moved too, so a reference cycle
      among them is freed at the next full collection, not the next young
      one;
    - the move is skipped when the caller has frozen objects
      (``gc.get_freeze_count() > 0``), since ``unfreeze()`` would thaw them;
      CPython 3.12 freezes some of its own at startup, so there the move
      never runs;
    - the move is skipped when the collector was disabled on entry;
    - like the pause itself, the move assumes that only one thread changes
      the collector's state.
    """

    @functools.wraps(fn)
    def paused(*args: _P.args, **kwargs: _P.kwargs) -> _R:
        enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if enabled:
                if gc.get_count()[0] > gc.get_threshold()[0] and not gc.get_freeze_count():
                    gc.freeze()
                    gc.unfreeze()
                gc.enable()

    return paused


def solve(
    program: BinaryProgram,
    timeout: float = 3600.0,
    *,
    fixed: Iterable[tuple[int, int]] = (),
) -> SolveResult:
    """Depth-first branch and bound over 0/1 assignments.

    Branching follows a fixed static order (largest objective coefficient
    first, ties by variable index) and tries value 0 before 1; together with
    exact integer arithmetic this makes every run reproducible.  A single
    greedy dive runs first to seed the incumbent, so interrupted solves
    still report an upper bound.  A node is pruned as soon as the objective
    of its forced-one variables reaches the incumbent: propagation compares
    the two before it sets any variable to one and gives up at once, so no
    node runs on to its fixpoint just to be pruned there.  Every row is kept
    as ``sum(coef * x) <= rhs`` (``>=`` read negated, ``=`` split in two), and
    propagation is event-driven: after the root pass, a row is examined only
    when an assignment leaves it tight enough to force a variable or to
    fail.  The rows are compiled into that form with the cyclic garbage
    collector paused, and the compiled rows then go straight to the oldest
    generation instead of being walked by a young collection; the search
    runs with the caller's collector state.
    The wall clock is checked at every node and at every variable of the
    dive against a monotonic timer; on timeout the best incumbent is
    returned together with the lower bound proven so far.  A ``timeout``
    that is not positive is legal and stops the search at its first check; a
    nan ``timeout``, which no elapsed time exceeds, raises ValueError.

    ``fixed`` holds ``(index, value)`` pairs: each variable is set to its
    value and propagated in the root pass, before the dive, exactly as the
    one-variable row ``x = value`` would be, so the result is the one of
    the program with those rows added, down to the search tree, without
    building or validating another program.  An index out of range, or a
    value other than 0 or 1, raises ValueError; two opposite values for one
    variable make the program infeasible.
    """
    if math.isnan(timeout):
        raise ValueError("timeout must not be nan")
    nvars = len(program.variables)
    fixed = list(fixed)
    for vi, val in fixed:
        if not (_integral(vi) and 0 <= vi < nvars):
            raise ValueError(f"fixed: unknown variable index {vi!r}")
        if not (_integral(val) and val in (0, 1)):
            raise ValueError(f"fixed: value {val!r} is not 0 or 1")
    t0 = time.monotonic()

    obj = [0] * nvars
    for coef, v in program.objective:
        obj[v.index] = coef
    cons_terms, flipped, reach, slack, raises = _compile_rows(program.constraints, nvars)

    value = [-1] * nvars
    trail: list[int] = []
    cur_obj = 0
    # The incumbent's objective, infinite until there is one: propagation
    # gives up on a node as soon as its objective reaches it.
    cutoff: float = math.inf
    pending: list[int] = []  # rows to examine, each at most once
    queued = bytearray(len(slack))

    def propagate(vi: int, val: int) -> bool:
        """Set a variable, queue every row it leaves tight, and run the
        queue; False, with nothing set, if the node's objective would reach
        the cutoff."""
        nonlocal cur_obj
        if val:
            if cur_obj + obj[vi] >= cutoff:
                return False
            cur_obj += obj[vi]
        elif cur_obj >= cutoff:  # the root, when the dive met its bound
            return False
        value[vi] = val
        trail.append(vi)
        for k, a in raises[val][vi]:
            s = slack[k] - a
            slack[k] = s
            if s < 0 and not queued[k]:
                queued[k] = 1
                pending.append(k)
        return run_queue()

    def run_queue() -> bool:
        """Propagate forced values until fixpoint; False on conflict.

        Pops queued rows and gives every unassigned variable whose |coef|
        exceeds the row's room the value that leaves its left-hand side
        alone, queueing the rows that value leaves tight as
        :func:`propagate` does.  Bound propagation is monotone, so the
        fixpoint and whether it fails do not depend on the queue order.
        Forcing never lowers the scanned row's own slack, so ``room`` holds
        for a whole scan.  A forced 1 that would take the objective to the
        cutoff fails the node like a conflict, before the variable is
        trailed, so ``undo_to`` finds every trailed variable's rows updated.
        """
        nonlocal cur_obj
        while pending:
            k = pending.pop()
            queued[k] = 0
            room = slack[k] + reach[k]  # how far the left-hand side may rise
            if room < 0:
                break
            for coef, u in cons_terms[k]:
                if value[u] == -1 and (coef > room or -coef > room):
                    if (coef > 0) != flipped[k]:
                        val = 0
                    else:
                        val = 1
                        if cur_obj + obj[u] >= cutoff:
                            break
                        cur_obj += obj[u]
                    value[u] = val
                    trail.append(u)
                    for j, a in raises[val][u]:
                        s = slack[j] - a
                        slack[j] = s
                        if s < 0 and not queued[j]:
                            queued[j] = 1
                            pending.append(j)
            else:
                continue
            break
        else:
            return True
        # Conflict or cutoff: drop whatever is still queued.
        for k in pending:
            queued[k] = 0
        pending.clear()
        return False

    def undo_to(mark: int) -> None:
        """Unassign the variables set since the trail was ``mark`` long."""
        nonlocal cur_obj
        for vi in trail[mark:]:
            val = value[vi]
            if val:
                cur_obj -= obj[vi]
            for k, a in raises[val][vi]:
                slack[k] += a
            value[vi] = -1
        del trail[mark:]

    # Sorting is stable, so ties keep the index order, with reverse too.
    order = sorted(range(nvars), key=obj.__getitem__, reverse=True)

    def next_unassigned(start: int) -> int:
        while start < nvars and value[order[start]] != -1:
            start += 1
        return start

    best_assignment: list[int] | None = None
    nodes = 0
    timed_out = False

    def fix(vi: int, val: int) -> bool:
        """Set a fixed value at the root, as its one-variable row would."""
        if value[vi] == -1:
            return propagate(vi, val)
        return value[vi] == val

    # Root pass: every row that can already force a variable or fail, then
    # the fixed values.  The fixpoint does not depend on the order.
    pending.extend(k for k, s in enumerate(slack) if s < 0)
    for k in pending:
        queued[k] = 1
    root_ok = run_queue() and all(itertools.starmap(fix, fixed))

    def dive() -> None:
        """Greedy pass seeding the incumbent before the systematic search.

        Visits cheap (zero-objective) variables first so the costly
        indicator variables are mostly forced by propagation; tries 0, then
        1, and gives up at the first variable that survives neither (or
        when the deadline passes).  Runs on its own trail segment and
        leaves the state untouched.
        """
        nonlocal best_assignment, cutoff
        mark = len(trail)
        for vi in sorted(range(nvars), key=obj.__getitem__):
            if value[vi] != -1:
                continue
            if time.monotonic() - t0 > timeout:
                undo_to(mark)
                return
            step = len(trail)
            if propagate(vi, 0):
                continue
            undo_to(step)
            if propagate(vi, 1):
                continue
            undo_to(mark)
            return
        best_assignment = list(value)
        cutoff = cur_obj
        undo_to(mark)

    if root_ok:
        dive()

    # Frames: [order position of the branch var, next value, trail length
    # at entry, entry bound]
    frames: list[list[int]] = []
    if root_ok:
        pos = next_unassigned(0)
        if pos == nvars:
            best_assignment = list(value)
            cutoff = cur_obj
        else:
            frames.append([pos, 0, len(trail), cur_obj])

    # None exactly when no subtree was left unexplored, in which case the
    # search completed despite the timeout flag.
    open_bound: int | None = None
    while frames:
        f = frames[-1]
        if len(trail) > f[2]:
            undo_to(f[2])
        if f[1] > 1:
            frames.pop()
            continue
        if timed_out:
            # Everything still on the stack is unexplored search space.
            open_bound = min(g[3] for g in frames if g[1] <= 1)
            break
        val = f[1]
        f[1] += 1
        nodes += 1
        if time.monotonic() - t0 > timeout:
            timed_out = True
        if not propagate(order[f[0]], val):
            continue
        pos = next_unassigned(f[0] + 1)
        if pos == nvars:
            best_assignment = list(value)
            cutoff = cur_obj
            continue
        frames.append([pos, 0, len(trail), cur_obj])

    best_obj = None if best_assignment is None else cutoff
    bound = min((b for b in (best_obj, open_bound) if b is not None), default=None)
    status = INFEASIBLE if bound is None else OPTIMAL if bound == best_obj else FEASIBLE_TIMEOUT
    assignment = None if best_assignment is None else tuple(best_assignment)
    return SolveResult(status, assignment, best_obj, bound, nodes)


@_collector_paused
def _compile_rows(
    rows: Sequence[Row], nvars: int
) -> tuple[
    list[Sequence[Term]],
    list[bool],
    list[int],
    list[int],
    tuple[list[list[tuple[int, int]]], ...],
]:
    """The rows of a program in the solver's one form, with the collector
    paused: the young collections that a wide model's raise entries would
    start free nothing, so they are skipped.

    Returns ``(cons_terms, flipped, reach, slack, raises)``.  Row k reads
    sum(coef * x) <= rhs over cons_terms[k], each coef negated when
    flipped[k] is set: cons_terms[k] is always the program row's own terms
    tuple, read flipped for a ``>=`` row and for the ``>=`` half of an
    ``=`` row.  reach[k] is its largest |coef|.  slack[k] is
    rhs - reach[k] minus the least value the left-hand side can still take:
    the row can force a variable or fail only once slack[k] < 0, and the
    left-hand side may still rise by slack[k] + reach[k].  raises[val][vi]
    lists the (row, |coef|) pairs whose least left-hand side rises when
    variable vi takes value val, from its negative coefficients (as the
    row reads them) for 0 and its positive ones for 1; every ±1 term of
    one row shares that row's one ``(k, 1)`` pair.
    """
    cons_terms: list[Sequence[Term]] = []
    flipped: list[bool] = []
    reach: list[int] = []
    slack: list[int] = []
    raise0: list[list[tuple[int, int]]] = [[] for _ in range(nvars)]
    raise1: list[list[tuple[int, int]]] = [[] for _ in range(nvars)]
    raises = (raise0, raise1)
    for row, op, rhs in rows:
        if op != ">=":  # the row itself, or the "<=" half of an "="
            k = len(slack)
            unit = (k, 1)
            rlo = top = 0
            for coef, vi in row:
                if coef > 0:
                    raise1[vi].append(unit if coef == 1 else (k, coef))
                    if coef > top:
                        top = coef
                else:
                    rlo += coef
                    raise0[vi].append(unit if coef == -1 else (k, -coef))
                    if -coef > top:
                        top = -coef
            cons_terms.append(row)
            flipped.append(False)
            reach.append(top)
            slack.append(rhs - top - rlo)
        if op != "<=":  # a ">=" row or half, read with its sign flipped
            k = len(slack)
            unit = (k, 1)
            rlo = top = 0
            for coef, vi in row:
                if coef < 0:
                    raise1[vi].append(unit if coef == -1 else (k, -coef))
                    if -coef > top:
                        top = -coef
                else:
                    rlo -= coef
                    raise0[vi].append(unit if coef == 1 else (k, coef))
                    if coef > top:
                        top = coef
            cons_terms.append(row)
            flipped.append(True)
            reach.append(top)
            slack.append(-rhs - top - rlo)
    return cons_terms, flipped, reach, slack, raises


# ---------------------------------------------------------------------------
# LP text format
# ---------------------------------------------------------------------------


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


def export_lp(p: BinaryProgram, name: str = "storyweave") -> str:
    """Serialize a program in CPLEX-style LP text.

    Sections emitted: ``Minimize``, ``Subject To``, ``Binary``, ``End``.
    Output is deterministic; :func:`parse_lp` reads it back into an
    equivalent program.  Lines longer than 240 characters are wrapped.
    A row of three terms with coefficients ±1 and a right-hand side from
    -8 to 8 is printed by one f-string, every other row term by term; see
    the module docstring.  A right-hand side is written as a plain decimal.
    """
    names = [v.name for v in p.variables]
    # Unit terms, the common case, reuse one string per variable and sign.
    plus = [f"+ {nm}" for nm in names]
    minus = [f"- {nm}" for nm in names]
    # The row kernel's tables, by sign: the leading term carries no "+".
    lead = {1: names, -1: minus}
    rest = {1: plus, -1: minus}

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
    head = ["\\ " + " ".join(name.splitlines()), "Minimize"]
    obj_terms = [(coef, v.index) for coef, v in p.objective if coef != 0]
    head.extend(_wrap(" obj: " + expression(obj_terms) if obj_terms else " obj:"))
    head.append("Subject To")
    # Each block of rows is joined into one chunk and its lines dropped, so
    # only one block of lines is alive next to the chunks and the result.
    chunks = ["\n".join(head)]
    rows = p.constraints
    for start in range(0, len(rows), _CHUNK_ROWS):
        lines = []
        for k, (terms, op, rhs) in enumerate(rows[start : start + _CHUNK_ROWS], start):
            # Three unit terms and a small right-hand side make one f-string.
            # Another arity fails the unpacking, a coefficient other than ±1
            # or a larger right-hand side a table lookup.  A right-hand side
            # is always written as a plain decimal, whatever its int type.
            try:
                (c0, i0), (c1, i1), (c2, i2) = terms
                line = f" c{k}: {lead[c0][i0]} {rest[c1][i1]} {rest[c2][i2]}{_TAILS[op][rhs]}"
            except (ValueError, KeyError):
                line = f" c{k}: {expression(terms)} {op} {int(rhs)}"
            lines.append(line)
        if max(map(len, lines)) > _LINE_WIDTH:
            lines = [part for line in lines for part in _wrap(line)]
        chunks.append("\n".join(lines))
    chunks.append("\n".join(["Binary", *(f" {nm}" for nm in names), "End", ""]))
    return "\n".join(chunks)


_TERM_RE = re.compile(r"([+-])?\s*(\d+)?\s*([A-Za-z0-9_]+)")


def _parse_terms(text: str) -> list[tuple[int, str]]:
    terms: list[tuple[int, str]] = []
    pos = 0
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if not m:
            if text[pos].isspace():
                pos += 1
                continue
            raise ValueError(f"cannot parse linear expression at {text[pos:]!r}")
        sign, coef, name = m.groups()
        n = int(coef) if coef else 1
        terms.append((-n if sign == "-" else n, name))
        pos = m.end()
    return terms


def parse_lp(text: str) -> BinaryProgram:
    """Parse the LP subset produced by :func:`export_lp`."""
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("\\")]
    section = None
    statements: dict[str, list[str]] = {"objective": [], "constraints": [], "binary": []}
    for ln in lines:
        stripped = ln.strip()
        lowered = stripped.lower()
        if lowered in ("minimize", "minimise"):
            section = "objective"
            continue
        if lowered in ("subject to", "st", "s.t."):
            section = "constraints"
            continue
        if lowered in ("binary", "binaries", "bin"):
            section = "binary"
            continue
        if lowered == "end":
            break
        if section is None:
            raise ValueError(f"statement before any section: {stripped!r}")
        bucket = statements[section]
        # A new labelled statement starts a fresh entry; bare lines continue
        # the previous one (long rows are wrapped on export).
        if section in ("objective", "constraints") and ":" in stripped.split(" ", 1)[0]:
            bucket.append(stripped)
        elif section == "binary":
            bucket.extend(stripped.split())
        elif bucket:
            bucket[-1] += " " + stripped
        else:
            bucket.append(stripped)

    builder = ModelBuilder()
    variables = [builder.new_var(nm) for nm in statements["binary"]]
    # A repeated name maps to its last variable; validation rejects it.
    index = {v.name: v.index for v in variables}

    def resolve(terms: list[tuple[int, str]]) -> list[Term]:
        out = []
        for coef, nm in terms:
            if nm not in index:
                raise ValueError(f"variable {nm!r} missing from Binary section")
            out.append((coef, index[nm]))
        return out

    if statements["objective"]:
        body = statements["objective"][0].split(":", 1)[1].strip()
        if body:
            builder.minimize((coef, variables[i]) for coef, i in resolve(_parse_terms(body)))
    for stmt in statements["constraints"]:
        body = stmt.split(":", 1)[1].strip()
        m = re.search(r"(<=|>=|=)\s*(-?\d+)\s*$", body)
        if not m:
            raise ValueError(f"constraint without comparison: {stmt!r}")
        op = m.group(1)
        rhs = int(m.group(2))
        builder.add(resolve(_parse_terms(body[: m.start()])), op, rhs)  # type: ignore[arg-type]
    return builder.build()

import gc
import hashlib
import itertools
import platform
import random
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import pytest

import storyweave as sw
import storyweave.bip as bip
from storyweave import files, formulations
from helpers import (
    STARTS_FROZEN,
    cit_rung,
    enumerate_binary_optimum,
    reference_compile_rows,
    reference_export_lp,
    reference_validate_program,
    small_models,
    wide_instances,
)

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden.lp"
WORKSHOP = Path(__file__).parents[1] / "demos" / "data" / "workshop.json"


def tiny(objective, constraints, n):
    mb = bip.ModelBuilder()
    xs = [mb.new_var(f"x{i+1}") for i in range(n)]
    for terms, op, rhs in constraints:
        mb.add([(c, xs[i].index) for c, i in terms], op, rhs)
    mb.minimize([(c, xs[i]) for c, i in objective])
    return mb.build(), xs


def random_program(rng, max_vars=12):
    n = rng.randint(1, max_vars)
    mb = bip.ModelBuilder()
    xs = [mb.new_var(f"v{i}") for i in range(n)]
    for _ in range(rng.randint(0, 2 * n)):
        size = rng.randint(1, min(4, n))
        chosen = rng.sample(range(n), size)
        terms = [(rng.randint(-3, 3) or 1, xs[i].index) for i in chosen]
        op = rng.choice(["<=", ">=", "="])
        rhs = rng.randint(-3, 4)
        mb.add(terms, op, rhs)
    objective = [(rng.randint(0, 4), x) for x in xs if rng.random() < 0.8]
    mb.minimize(objective)
    return mb.build()


def wide_coefficient_program(rng, max_vars=10):
    """Rows of 2-5 terms with coefficients up to +-6, every operator mixed in.

    Right-hand sides sit at or near a row's value at a hidden 0/1 point, so
    most programs are feasible and most rows bind, often within one large
    coefficient of their bound while small coefficients still have slack.
    """
    n = rng.randint(2, max_vars)
    hidden = [rng.randint(0, 1) for _ in range(n)]
    mb = bip.ModelBuilder()
    xs = [mb.new_var(f"w{i}") for i in range(n)]
    for _ in range(rng.randint(1, n + 2)):
        chosen = rng.sample(range(n), rng.randint(2, min(5, n)))
        coefs = [rng.choice((-6, -5, -4, -3, -2, -1, 1, 2, 3, 4, 5, 6)) for _ in chosen]
        at_hidden = sum(c * hidden[i] for c, i in zip(coefs, chosen))
        op = rng.choice(["<=", ">=", "="])
        # A slack of -1, now and then, cuts the hidden point off.
        slack = -1 if rng.random() < 0.04 else 0 if op == "=" else rng.choice((0, 1, 2, 4))
        rhs = at_hidden - slack if op == ">=" else at_hidden + slack
        mb.add([(c, xs[i].index) for c, i in zip(coefs, chosen)], op, rhs)
    mb.minimize([(rng.randint(0, 5), x) for x in xs])
    return mb.build()


def mixed_row_program(rng):
    """1-9 variables, 0-8 rows of every operator, coefficients -3..3 with zeros."""
    n = rng.randint(1, 9)
    mb = bip.ModelBuilder()
    xs = [mb.new_var(f"m{i}") for i in range(n)]
    for _ in range(rng.randint(0, 8)):
        chosen = rng.sample(range(n), rng.randint(1, min(4, n)))
        op = rng.choice(["<=", ">=", "="])
        mb.add([(rng.randint(-3, 3), xs[i].index) for i in chosen], op, rng.randint(-1, 2))
    mb.minimize([(rng.randint(0, 4), x) for x in xs])
    return mb.build()


def clique4_over_two_timestamps():
    """Every pair of four characters meets once; pair k at timestamp k mod 2."""
    pairs = itertools.combinations("abcd", 2)
    return sw.validate_instance(
        {
            "characters": list("abcd"),
            "timestamps": ["t0", "t1"],
            "interactions": [
                {"characters": list(pair), "time": f"t{k % 2}"}
                for k, pair in enumerate(pairs)
            ],
        }
    )


def hard_cover_program(n_vars=40, n_rows=70, seed=4):
    """Set-cover style program: instant first incumbent, slow optimality proof."""
    rng = random.Random(seed)
    mb = bip.ModelBuilder()
    xs = [mb.new_var(f"x{i}") for i in range(n_vars)]
    for _ in range(n_rows):
        chosen = rng.sample(range(n_vars), 8)
        mb.add([(1, xs[i].index) for i in chosen], ">=", 2)
    mb.minimize([(1, x) for x in xs])
    return mb.build()


class TestSolve:
    def test_cover_pair(self):
        p, _ = tiny([(1, 0), (1, 1)], [([(1, 0), (1, 1)], ">=", 1)], 2)
        res = bip.solve(p)
        assert res.status == bip.OPTIMAL
        assert res.objective_value == 1
        assert res.best_lower_bound == 1

    def test_unconstrained_goes_all_zero(self):
        p, _ = tiny([(1, 0), (1, 1), (1, 2)], [], 3)
        res = bip.solve(p)
        assert res.objective_value == 0
        assert res.assignment == (0, 0, 0)

    def test_infeasible(self):
        p, _ = tiny([(1, 0)], [([(1, 0)], ">=", 1), ([(1, 0)], "<=", 0)], 1)
        res = bip.solve(p)
        assert res.status == bip.INFEASIBLE
        assert res.assignment is None

    def test_equality_propagation(self):
        p, xs = tiny(
            [(1, 0), (1, 1)],
            [([(1, 0), (1, 1)], "=", 2)],
            2,
        )
        res = bip.solve(p)
        assert res.objective_value == 2
        assert res.assignment == (1, 1)

    def test_matches_enumeration_on_random_programs(self):
        rng = random.Random(0)
        for k in range(150):
            p = random_program(rng)
            expected = enumerate_binary_optimum(p)
            res = bip.solve(p, timeout=60)
            if expected is None:
                assert res.status == bip.INFEASIBLE, f"program {k}"
            else:
                assert res.status == bip.OPTIMAL, f"program {k}"
                assert res.objective_value == expected, f"program {k}"

    def test_matches_enumeration_with_wide_coefficients(self):
        # A row is examined only once its slack drops below its largest
        # |coef|; with coefficients up to 6 that gate sits well inside the
        # row, on the "<=" and the ">=" side of "=" rows alike.  A gate that
        # skips a violated row gives wrong answers; one that skips a row able
        # to force only branches more, so the node total (recorded from the
        # solver that re-examined every row of each assigned variable) is
        # pinned too.
        rng = random.Random(5)
        statuses = set()
        nodes = 0
        for k in range(300):
            p = wide_coefficient_program(rng)
            expected = enumerate_binary_optimum(p)
            res = bip.solve(p, timeout=60)
            statuses.add(res.status)
            nodes += res.nodes
            if expected is None:
                assert res.status == bip.INFEASIBLE, f"program {k}"
            else:
                assert res.status == bip.OPTIMAL, f"program {k}"
                assert res.objective_value == expected, f"program {k}"
        assert statuses == {bip.OPTIMAL, bip.INFEASIBLE}
        assert nodes == 490

    def test_mixed_row_outcomes_unchanged(self):
        # Rows of every operator with zero and negative coefficients, down to
        # the node count and the returned point; the digest was recorded from
        # the solver that kept a lower and an upper bound per row.
        rng = random.Random(7)
        outcomes = []
        for _ in range(400):
            r = bip.solve(mixed_row_program(rng), timeout=60)
            outcomes.append(
                (r.status, r.objective_value, r.best_lower_bound, r.nodes, r.assignment)
            )
        assert {o[0] for o in outcomes} == {bip.OPTIMAL, bip.INFEASIBLE}
        assert hashlib.sha256(repr(outcomes).encode()).hexdigest() == (
            "a4632b54e66b65e8d064e5142d27b4096f80e508f23697393dfee616f0bd5e2b"
        )

    @pytest.mark.parametrize(
        "instance, kind, status, objective, bound, nodes",
        [
            ("workshop", "ilp1ml", bip.OPTIMAL, 1, 1, 52),
            ("workshop", "ilp2ml", bip.OPTIMAL, 1, 1, 52),
            ("workshop", "ilp2", bip.OPTIMAL, 0, 0, 88),
            ("clique4x2", "ilp2ml", bip.OPTIMAL, 0, 0, 80),
        ],
    )
    def test_search_tree_unchanged(self, instance, kind, status, objective, bound, nodes):
        # Constants recorded from the solver that re-examined every row of
        # each assigned variable: examining only the rows that can force
        # must reach the same fixpoints, hence the same tree and node count.
        inst = (
            files.load_instance(WORKSHOP)
            if instance == "workshop"
            else clique4_over_two_timestamps()
        )
        model = formulations.EXACT_KINDS[kind]
        budgets = sw.layer_budget(inst, minimize=model.minimize_layers)
        program, _ = sw.build_model(inst, model, budgets)
        res = bip.solve(program, timeout=60)
        assert (res.status, res.objective_value, res.best_lower_bound, res.nodes) == (
            status,
            objective,
            bound,
            nodes,
        )

    def test_small_model_search_trees_pinned(self):
        # Every outcome of the four exact models of 40 seeded small
        # instances, down to the returned point and the node count.  The
        # digest was recorded from the solver that kept a least left-hand
        # side and a cap per row and set each forced value by a call.
        h = hashlib.sha256()
        nodes = 0
        for _inst, _kind, program, _cat in small_models(23, 40):
            r = bip.solve(program, timeout=60)
            nodes += r.nodes
            h.update(
                repr(
                    (r.status, r.assignment, r.objective_value, r.best_lower_bound, r.nodes)
                ).encode()
            )
        assert nodes == 45812
        assert h.hexdigest() == (
            "f49e7bc51eb02c7aa20aaee61a4f30b210f06247e758ed2c287096d4c6963da9"
        )

    def test_second_draw_search_trees_pinned(self):
        # The same digest over a second draw, recorded from the solver that
        # pruned a node only at its propagation fixpoint; stopping
        # propagation at the incumbent must not change an outcome or a
        # node count.
        h = hashlib.sha256()
        nodes = 0
        for _inst, _kind, program, _cat in small_models(29, 40):
            r = bip.solve(program, timeout=60)
            nodes += r.nodes
            h.update(
                repr(
                    (r.status, r.assignment, r.objective_value, r.best_lower_bound, r.nodes)
                ).encode()
            )
        assert nodes == 28676
        assert h.hexdigest() == (
            "ff01dcd43954717b87a4e544ddc305a5df18a414a3b5b23e3045b840ba8ee9c0"
        )

    def test_solution_satisfies_all_constraints(self):
        rng = random.Random(1)
        for _ in range(80):
            p = random_program(rng)
            res = bip.solve(p, timeout=60)
            if res.assignment is None:
                continue
            for terms, op, rhs in p.constraints:
                lhs = sum(coef * res.assignment[i] for coef, i in terms)
                assert (
                    (op == "<=" and lhs <= rhs)
                    or (op == ">=" and lhs >= rhs)
                    or (op == "=" and lhs == rhs)
                )
            obj = sum(coef * res.assignment[v.index] for coef, v in p.objective)
            assert obj == res.objective_value

    def test_deterministic(self):
        rng = random.Random(2)
        for _ in range(20):
            p = random_program(rng)
            a = bip.solve(p, timeout=60)
            b = bip.solve(p, timeout=60)
            assert a.status == b.status
            assert a.assignment == b.assignment
            assert a.objective_value == b.objective_value

    def test_timeout_reports_bounds(self):
        p = hard_cover_program()
        res = bip.solve(p, timeout=0.3)
        assert res.status == bip.FEASIBLE_TIMEOUT
        assert res.assignment is not None
        assert res.best_lower_bound is not None
        assert res.best_lower_bound < res.objective_value

    @pytest.mark.parametrize(
        "ticks, objective, nodes", [(50, 16, 28), (200, 15, 178), (1000, 13, 978)]
    )
    def test_timeout_outcome_pinned(self, monkeypatch, ticks, objective, nodes):
        # A clock that advances one second per read stops the search after a
        # fixed number of reads, so a timed-out solve is reproducible.  The
        # root's value-1 branch is still open, so the proven bound is the
        # root's entry bound, the least over the open frames.
        class Ticks:
            now = 0

            def monotonic(self):
                self.now += 1
                return self.now

        monkeypatch.setattr(bip, "time", Ticks())
        res = bip.solve(hard_cover_program(), timeout=ticks)
        assert (res.status, res.objective_value, res.best_lower_bound, res.nodes) == (
            bip.FEASIBLE_TIMEOUT,
            objective,
            0,
            nodes,
        )

    def test_nan_timeout_rejected(self):
        # No elapsed time exceeds nan, so the budget would never be checked.
        p, _ = tiny([(1, 0)], [([(1, 0)], "<=", 1)], 1)
        with pytest.raises(ValueError, match="nan"):
            bip.solve(p, timeout=float("nan"))
        # solve_exact passes what remains of its budget, which may be spent.
        for timeout in (0.0, -1.0):
            assert bip.solve(p, timeout=timeout).status == bip.OPTIMAL

    def test_timeout_monotone(self):
        p = hard_cover_program()
        short = bip.solve(p, timeout=0.2)
        longer = bip.solve(p, timeout=1.0)
        assert short.objective_value is not None
        assert longer.objective_value is not None
        assert longer.objective_value <= short.objective_value

    def test_lower_bound_le_objective(self):
        rng = random.Random(3)
        for _ in range(40):
            p = random_program(rng)
            res = bip.solve(p, timeout=60)
            if res.objective_value is None:
                continue
            assert res.best_lower_bound <= res.objective_value
            assert (res.best_lower_bound == res.objective_value) == (
                res.status == bip.OPTIMAL
            )

    def test_deadline_checked_at_every_node(self):
        # The ilp1ml model of the 12/25/8 rung costs about a millisecond per
        # node, so only a clock read at (nearly) every node stops in the slack.
        inst = cit_rung(12, 25, 8, seed=1)
        budgets = sw.layer_budget(inst, minimize=True)
        program, _ = sw.build_model(inst, sw.ILP1ML, budgets)
        t0 = time.monotonic()
        res = bip.solve(program, timeout=0.5)
        assert time.monotonic() - t0 <= 0.5 + 0.3
        assert res.status == bip.FEASIBLE_TIMEOUT


class TestFixed:
    """``solve(fixed=...)`` sets values at the root as one-variable rows do."""

    @staticmethod
    def outcome(r):
        return (r.status, r.assignment, r.objective_value, r.best_lower_bound, r.nodes)

    def test_matches_one_variable_rows(self):
        # Down to the returned point and the node count: the fixed values
        # reach the same root fixpoint as the rows x = value, and the rows
        # never force anything after the root.
        rng = random.Random(41)
        statuses = set()
        for k in range(300):
            p = random_program(rng) if k % 2 == 0 else mixed_row_program(rng)
            n = len(p.variables)
            chosen = rng.sample(range(n), rng.randint(1, min(2, n)))
            fixed = [(i, rng.randint(0, 1)) for i in chosen]
            rows = tuple((((1, i),), "=", val) for i, val in fixed)
            with_rows = bip.BinaryProgram(p.variables, p.constraints + rows, p.objective)
            r = bip.solve(p, timeout=60, fixed=fixed)
            assert self.outcome(r) == self.outcome(bip.solve(with_rows, timeout=60)), k
            statuses.add(r.status)
        assert statuses == {bip.OPTIMAL, bip.INFEASIBLE}

    @pytest.mark.parametrize(
        "fixed, message",
        [
            ([(3, 0)], "unknown variable index 3"),
            ([(-1, 0)], "unknown variable index -1"),
            ([(True, 0)], "unknown variable index True"),
            ([(0, 2)], "value 2 is not 0 or 1"),
            ([(0, -1)], "value -1 is not 0 or 1"),
            ([(1, 0), (0, 1.0)], "value 1.0 is not 0 or 1"),
        ],
    )
    def test_bad_pairs_rejected(self, fixed, message):
        p, _ = tiny([(1, 0)], [([(1, 0), (1, 1), (1, 2)], ">=", 1)], 3)
        with pytest.raises(ValueError, match=message):
            bip.solve(p, fixed=fixed)

    def test_opposite_values_infeasible(self):
        p, _ = tiny([(1, 0), (1, 1)], [([(1, 0), (1, 1)], ">=", 1)], 2)
        r = bip.solve(p, fixed=[(0, 0), (0, 1)])
        assert self.outcome(r) == (bip.INFEASIBLE, None, None, None, 0)
        assert bip.solve(p, fixed=[(0, 1), (0, 1)]).assignment == (1, 0)


@pytest.mark.skipif(
    platform.python_implementation() != "CPython",
    reason="collection counts and gc.callbacks are CPython collector details",
)
class TestCompileCollectorPause:
    """``solve`` compiles its rows with the cyclic collector paused."""

    @staticmethod
    def wide_program():
        inst = wide_instances(1)[0]
        budgets = sw.layer_budget(inst, minimize=True)
        return sw.build_model(inst, sw.ILP2ML, budgets)[0]

    def test_wide_compile_starts_at_most_one_collection(self):
        # Without the pause, compiling this program starts 62 collections
        # (CPython 3.11).  With it, the compiled rows go straight to the
        # oldest generation, so not even the few hundred allocations after
        # the solve start the young collection that would walk them (except
        # where the interpreter starts with frozen objects, and the first
        # allocation starts that one collection).  A timeout of -1 stops the
        # search at its first clock read.
        program = self.wide_program()
        starts = []

        def count(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        gc.collect()
        assert gc.isenabled()
        gc.callbacks.append(count)
        try:
            bip.solve(program, timeout=-1)
            after = [[] for _ in range(300)]
        finally:
            gc.callbacks.remove(count)
            gc.enable()
        del after
        assert len(starts) <= STARTS_FROZEN, starts

    @pytest.mark.skipif(STARTS_FROZEN, reason="the interpreter starts with frozen objects")
    def test_no_young_collection_due_after_wide_compile(self):
        # The young count is read as the compile returns: the first
        # allocation after it would start any collection that is due.
        # Before the move, the count there is tens of thousands.
        program = self.wide_program()
        compile_rows = bip._compile_rows
        counts = []

        def compile_and_count(rows, nvars):
            compiled = compile_rows(rows, nvars)
            counts.append(gc.get_count()[0])
            return compiled

        gc.collect()
        assert gc.isenabled()
        try:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(bip, "_compile_rows", compile_and_count)
                bip.solve(program, timeout=-1)
            assert gc.isenabled()
        finally:
            gc.enable()
        assert len(counts) == 1
        assert counts[0] <= gc.get_threshold()[0], counts

    def test_collector_enabled_after_solve(self):
        p = hard_cover_program()
        assert gc.isenabled()
        try:
            bip.solve(p, timeout=0.05)
            assert gc.isenabled()
        finally:
            gc.enable()

    def test_disabled_collector_stays_disabled(self):
        p = hard_cover_program()
        gc.disable()
        try:
            bip.solve(p, timeout=0.05)
            assert not gc.isenabled()
        finally:
            gc.enable()


class TestCompileRows:
    """``_compile_rows`` reads each row from the program's own terms tuple,
    a ``>=`` row or half with its signs flipped by a flag, and gives all ±1
    terms of a compiled row one raise entry; its values are those of the
    compile that negated ``>=`` rows into new lists."""

    @staticmethod
    def draws():
        """300 programs: every operator, zero, wide and ``int``-subclass
        coefficients, and rows that repeat the previous row's terms tuple."""
        makers = (random_program, mixed_row_program, wide_coefficient_program)
        for seed in range(288):
            yield makers[seed % 3](random.Random(seed))
        for seed in range(100, 112):
            yield kernel_program(seed)

    def test_matches_reference_compile(self):
        for n, p in enumerate(self.draws()):
            terms, flipped, reach, slack, raises = bip._compile_rows(
                p.constraints, len(p.variables)
            )
            ref_terms, ref_reach, ref_slack, ref_raises = reference_compile_rows(p)
            assert (reach, slack, raises) == (ref_reach, ref_slack, ref_raises), n
            read = [[(-c, i) for c, i in t] if f else list(t) for t, f in zip(terms, flipped)]
            assert read == ref_terms, n

    def test_rows_keep_program_terms_and_share_unit_entries(self):
        shared = 0
        for n, p in enumerate(self.draws()):
            terms, flipped, _, _, raises = bip._compile_rows(p.constraints, len(p.variables))
            halves = {"<=": (False,), ">=": (True,), "=": (False, True)}
            rows = [(t, f) for t, op, _ in p.constraints for f in halves[op]]
            assert flipped == [f for _, f in rows], n
            assert all(a is t for a, (t, _) in zip(terms, rows, strict=True)), n
            # Only a ±1 term raises its row by 1; each row has one such entry.
            units: dict[int, list[tuple[int, int]]] = {}
            for entries in itertools.chain(*raises):
                for entry in entries:
                    if entry[1] == 1:
                        units.setdefault(entry[0], []).append(entry)
            for k, t in enumerate(terms):
                got = units.get(k, [])
                assert len(got) == sum(c in (1, -1) for c, _ in t), (n, k)
                assert all(e is got[0] for e in got), (n, k)
                shared += len(got) > 1
        assert shared > 1000


class TestGap:
    def test_table_convention(self):
        assert bip.gap_percent(44, 0) == 100.0
        assert bip.gap_percent(10, 5) == 50.0

    def test_needs_positive_upper_bound(self):
        with pytest.raises(ValueError):
            bip.gap_percent(0, 0)


X = bip.VarId(0, "x")
Y = bip.VarId(1, "y")
# Row terms refer to variables by index.
IX, IY = X.index, Y.index


def only_vars(*variables):
    """Program parts over ``variables`` whose rows use only the last of them."""
    last = variables[-1]
    return dict(
        variables=variables,
        constraints=((((1, last.index),), "<=", 1),),
        objective=((1, last),),
    )


# One hand-built program per rejection of validate_program, with its message.
# Each breaks one rule and keeps every other, so a scan that skips a rule
# lets its case through.  The default program has the two variables x and y.
MALFORMED = {
    "index_mismatch": (
        only_vars(bip.VarId(1, "x"), Y),
        "variable 'x' has index 1, expected 0",
    ),
    "bad_name": (
        only_vars(bip.VarId(0, "no spaces")),
        "variable name 'no spaces' must match [A-Za-z0-9_]+",
    ),
    # parse_lp would read '3x' as the coefficient 3 of a variable 'x'.
    "digit_name": (
        only_vars(bip.VarId(0, "3x")),
        "variable name '3x' must not start with a digit",
    ),
    # An 'End' line in the Binary section would end the parse.
    "keyword_name": (
        only_vars(bip.VarId(0, "End")),
        "variable name 'End' is an LP section keyword",
    ),
    "duplicate_name": (
        only_vars(X, bip.VarId(1, "x")),
        "duplicate variable name 'x'",
    ),
    "foreign_var_out_of_range": (
        dict(constraints=((((1, 5),), "<=", 1),)),
        "constraint 0: unknown variable index 5",
    ),
    "index_equal_to_count": (
        dict(constraints=((((1, 2),), "<=", 1),)),
        "constraint 0: unknown variable index 2",
    ),
    # A negative index must not wrap round to the last variable ('y').
    "negative_index": (
        dict(constraints=((((1, -1),), "<=", 1),)),
        "constraint 0: unknown variable index -1",
    ),
    # True == 1, but a bool is not an index, as it is not a coefficient.
    "bool_index": (
        dict(constraints=((((1, True),), "<=", 1),)),
        "constraint 0: unknown variable index True",
    ),
    "non_int_index": (
        dict(constraints=((((1, 1.0),), "<=", 1),)),
        "constraint 0: unknown variable index 1.0",
    ),
    # A VarId in a row term, in place of its index.
    "foreign_var_other_name": (
        dict(constraints=((((1, bip.VarId(0, "w")),), "<=", 1),)),
        "constraint 0: unknown variable index VarId(index=0, name='w')",
    ),
    "foreign_var_in_objective": (
        dict(objective=((1, bip.VarId(2, "w")),)),
        "unknown variable 'w'",
    ),
    "empty_constraint": (
        dict(constraints=(((), "<=", 1),)),
        "constraint 0 has no terms",
    ),
    "bool_coefficient": (
        dict(constraints=((((True, IX),), "<=", 1),)),
        "constraint 0: coefficient True is not an integer",
    ),
    "float_coefficient": (
        dict(constraints=((((1.0, IX),), "<=", 1),)),
        "constraint 0: coefficient 1.0 is not an integer",
    ),
    "unknown_operator": (
        dict(constraints=((((1, IX),), "<", 1),)),
        "constraint 0 has unknown operator '<'",
    ),
    "duplicate_var_in_constraint": (
        dict(constraints=((((1, IX), (1, IY), (1, IX)), "<=", 1),)),
        "constraint 0: duplicate variable 'x'",
    ),
    "bool_rhs": (
        dict(constraints=((((1, IX),), "<=", True),)),
        "constraint 0: right-hand side must be an integer",
    ),
    "float_rhs": (
        dict(constraints=((((1, IX),), "<=", 1.5),)),
        "constraint 0: right-hand side must be an integer",
    ),
    "second_constraint_numbered": (
        dict(
            constraints=(
                (((1, IX),), "<=", 1),
                (((1, IY),), "=>", 1),
            )
        ),
        "constraint 1 has unknown operator '=>'",
    ),
    "negative_objective": (
        dict(objective=((1, X), (-1, Y))),
        "objective coefficients must be non-negative integers",
    ),
    "float_objective": (
        dict(objective=((0.5, X),)),
        "objective coefficients must be non-negative integers",
    ),
    "duplicate_objective": (
        dict(objective=((1, X), (2, Y), (3, X))),
        "objective lists variable 'x' twice",
    ),
}


W = bip.VarId(5, "w")  # index out of range of every table program
IW = W.index

# Programs with two defects, and the one validate_program reports: variables
# before rows, rows by index; inside a row no terms, then the operator, then
# per term the index, the coefficient and a repeat, then the right-hand
# side; the objective after every row, per term in the same order.
FIRST_DEFECT = {
    "variables_before_rows": (
        dict(
            variables=(bip.VarId(1, "x"), Y),
            constraints=(((), "<=", 1),),
        ),
        "variable 'x' has index 1, expected 0",
    ),
    "rows_by_index": (
        dict(
            constraints=(
                (((1, IX),), "<=", 1.5),
                ((), "<=", 1),
            )
        ),
        "constraint 0: right-hand side must be an integer",
    ),
    "no_terms_before_operator": (
        dict(constraints=(((), "<", 1),)),
        "constraint 0 has no terms",
    ),
    "operator_before_terms": (
        dict(constraints=((((1.0, IW),), "<", 1),)),
        "constraint 0 has unknown operator '<'",
    ),
    "reference_before_coefficient": (
        dict(constraints=((((1.0, IW),), "<=", 1),)),
        "constraint 0: unknown variable index 5",
    ),
    "bool_index_before_coefficient": (
        dict(constraints=((((1.0, False),), "<=", 1),)),
        "constraint 0: unknown variable index False",
    ),
    "coefficient_before_duplicate": (
        dict(constraints=((((1, IX), (1.0, IX)), "<=", 1),)),
        "constraint 0: coefficient 1.0 is not an integer",
    ),
    "duplicate_before_later_term": (
        dict(constraints=((((1, IX), (1, IX), (1.0, IY)), "<=", 1),)),
        "constraint 0: duplicate variable 'x'",
    ),
    "terms_before_rhs": (
        dict(constraints=((((1, IX), (1, IW)), "<=", 1.5),)),
        "constraint 0: unknown variable index 5",
    ),
    "objective_after_rows": (
        dict(
            constraints=((((1, IX),), "<=", True),),
            objective=((-1, W),),
        ),
        "constraint 0: right-hand side must be an integer",
    ),
    "objective_reference_before_sign": (
        dict(objective=((-1, W),)),
        "unknown variable 'w'",
    ),
    "objective_sign_before_duplicate": (
        dict(objective=((1, X), (-1, X))),
        "objective coefficients must be non-negative integers",
    ),
    # A negative index must not wrap round to the last variable ('y'), even
    # behind a term that passes.
    "foreign_negative_index": (
        dict(constraints=((((1, IX), (1, -1)), "<=", 1),)),
        "constraint 0: unknown variable index -1",
    ),
    "foreign_negative_index_in_objective": (
        dict(objective=((1, bip.VarId(-1, "y")),)),
        "unknown variable 'y'",
    ),
}


def program_parts(**overrides):
    parts = dict(
        variables=(X, Y),
        constraints=((((1, IX), (-1, IY)), ">=", 0),),
        objective=((1, X), (1, Y)),
    )
    parts.update(overrides)
    return parts


class Parts(NamedTuple):
    """The three fields validation reads, without BinaryProgram's check."""

    variables: tuple
    constraints: tuple
    objective: tuple


class Weight(int):
    """An int subclass: a legal coefficient, right-hand side or index."""


# Defects the validator documents, each injected into a valid program.
DEFECT_KINDS = (
    "bad_index", "bad_name", "repeated_name", "empty_row", "unknown_op",
    "foreign_var", "bad_coefficient", "repeated_var", "bad_rhs",
    "negative_objective", "repeated_objective",
)


def defective_program(rng: random.Random) -> tuple[Parts, list[str]]:
    """A small valid program with 0-2 defects drawn from ``DEFECT_KINDS``.

    Consecutive rows sometimes share one terms list, which becomes one
    terms tuple, so a defect in it reaches both rows.  A foreign reference
    is, in a row, an index out of range, negative, a bool or not an int,
    and in the objective a ``VarId`` that is not the program's.  Objective
    terms sometimes refer to an equal but distinct ``VarId``, and row
    indices and coefficients are sometimes ``int`` subclasses, which are
    legal.
    """
    n = rng.randint(1, 6)
    variables = [bip.VarId(i, f"v{i}") for i in range(n)]
    rows: list[list] = []  # [terms list, op, rhs]
    for _ in range(rng.randint(0, 6)):
        if rows and rng.random() < 0.3:
            rows.append([rows[-1][0], rng.choice(("<=", ">=", "=")), rng.randint(-2, 3)])
            continue
        chosen = rng.sample(range(n), rng.randint(1, min(3, n)))
        terms = [(rng.choice((-2, -1, 1, 3)), i) for i in chosen]
        rows.append([terms, rng.choice(("<=", ">=", "=")), rng.randint(-2, 3)])
    objective = [(rng.randint(0, 3), v) for v in variables if rng.random() < 0.6]

    def some_row() -> list:
        if not rows:
            rows.append([[(1, rng.randrange(n))], "<=", 1])
        return rng.choice(rows)

    injected = [rng.choice(DEFECT_KINDS) for _ in range(rng.randint(0, 2))]
    for kind in injected:
        j = rng.randrange(n)
        if kind == "bad_index":
            variables[j] = bip.VarId(j + rng.choice((1, -1, 5)), variables[j].name)
        elif kind == "bad_name":
            variables[j] = bip.VarId(j, rng.choice(("", "no space", "a-b", "\u00e9")))
        elif kind == "repeated_name":
            variables[j] = bip.VarId(j, variables[rng.randrange(n)].name)
        elif kind == "empty_row":
            some_row()[0] = []
        elif kind == "unknown_op":
            some_row()[1] = rng.choice(("<", "==", "=>", "", None))
        elif kind == "foreign_var" and rng.random() < 0.7:
            terms = some_row()[0]
            foreign = rng.choice((
                n + rng.randint(0, 3),
                -1,
                -n - 2,
                j == 1,  # a bool
                float(j),
                str(j),
                variables[j],
                Weight(j),  # an int subclass in range: legal
            ))
            # Half with a bad coefficient too, which must be reported second.
            coef = rng.choice((1, 1.0))
            terms.insert(rng.randint(0, len(terms)), (coef, foreign))
        elif kind == "foreign_var":
            foreign = rng.choice((
                bip.VarId(n + rng.randint(0, 3), "w"),
                bip.VarId(-1, variables[-1].name),
                bip.VarId(-n - 2, "q"),
                bip.VarId(j, "other"),
                bip.VarId(j, variables[j].name),  # equal but distinct: legal
            ))
            coef = rng.choice((1, -1))  # a negative one is reported second
            objective.insert(rng.randint(0, len(objective)), (coef, foreign))
        elif kind == "bad_coefficient":
            terms = some_row()[0] if rng.random() < 0.7 else objective
            coef = rng.choice((1.0, True, False, Fraction(1, 2), "1", None, Weight(2)))
            if terms:
                k = rng.randrange(len(terms))
                terms[k] = (coef, terms[k][1])
        elif kind == "repeated_var":
            terms = some_row()[0]
            if terms:
                terms.insert(rng.randint(0, len(terms)), rng.choice(terms))
        elif kind == "bad_rhs":
            some_row()[2] = rng.choice((1.5, True, None, "0", Weight(1)))
        elif kind == "negative_objective":
            objective.insert(rng.randint(0, len(objective)), (rng.choice((-1, -3)), variables[j]))
        else:  # repeated_objective
            if objective:
                objective.append(rng.choice(objective))

    tuples: dict[int, tuple] = {}  # one tuple per terms list, so sharing survives
    constraints = tuple(
        (tuples.setdefault(id(terms), tuple(terms)), op, rhs) for terms, op, rhs in rows
    )
    return Parts(tuple(variables), constraints, tuple(objective)), injected


def validation_outcome(validate, parts: Parts) -> str | None:
    try:
        validate(parts)
    except ValueError as err:
        return str(err)
    return None


class TestModelBuilder:
    def test_builder_rows_stored_as_given(self):
        mb = bip.ModelBuilder()
        x, y = mb.new_var("x").index, mb.new_var("y").index
        listed = [(1, x), (-1, y)]
        shared = ((1, x), (1, y))
        given = (((1, y),), "<=", 0)
        mb.add(listed, ">=", 0)
        mb.add(shared, "<=", 1)
        mb.add(iter(shared), "=", 1)
        mb.extend(iter([(shared, ">=", 1), given]))
        rows = mb.build().constraints
        assert rows == (
            (tuple(listed), ">=", 0),
            (shared, "<=", 1),
            (shared, "=", 1),
            (shared, ">=", 1),
            given,
        )
        assert all(type(row) is tuple and type(row[0]) is tuple for row in rows)
        assert rows[1][0] is shared and rows[3][0] is shared and rows[4] is given


    def test_new_vars_number_on(self):
        mb = bip.ModelBuilder()
        x = mb.new_var("x")
        made = mb.new_vars(iter(["y", "z"]))
        w = mb.new_var("w")
        assert made == [bip.VarId(1, "y"), bip.VarId(2, "z")]
        assert all(type(v) is bip.VarId for v in made)
        assert mb.new_vars([]) == []
        assert mb.build().variables == (bip.VarId(0, "x"), *made, bip.VarId(3, "w"))
        assert (x.index, w.index) == (0, 3)


class TestValidation:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_hand_built_program_rejected(self, case):
        overrides, message = MALFORMED[case]
        with pytest.raises(ValueError) as err:
            bip.BinaryProgram(**program_parts(**overrides))
        assert str(err.value) == message

    @pytest.mark.parametrize("case", sorted(FIRST_DEFECT))
    def test_first_defect_reported(self, case):
        overrides, message = FIRST_DEFECT[case]
        with pytest.raises(ValueError) as err:
            bip.BinaryProgram(**program_parts(**overrides))
        assert str(err.value) == message

    def test_matches_reference_validator(self):
        # The combined per-term condition must reject exactly what the
        # rule-by-rule reference rejects, with the same first message.
        rng = random.Random(2024)
        kinds_seen: set[str] = set()
        outcomes = {"accepted": 0, "rejected": 0}
        for _ in range(500):
            parts, injected = defective_program(rng)
            kinds_seen.update(injected)
            expected = validation_outcome(reference_validate_program, parts)
            assert validation_outcome(bip.validate_program, parts) == expected, parts
            outcomes["accepted" if expected is None else "rejected"] += 1
        assert kinds_seen == set(DEFECT_KINDS)
        assert min(outcomes.values()) >= 100

    def test_equal_but_distinct_var_accepted(self):
        # In the objective, where terms hold a VarId; row terms hold indices.
        twin = bip.VarId(0, "x")
        assert twin == X and twin is not X
        parts = program_parts(
            constraints=((((1, IX), (1, IY)), "<=", 1),),
            objective=((2, twin),),
        )
        p = bip.BinaryProgram(**parts)
        assert bip.solve(p).objective_value == 0

    @pytest.mark.parametrize(
        "op, rhs, message",
        [
            ("<", 1, "constraint 1 has unknown operator '<'"),
            (">=", 1.5, "constraint 1: right-hand side must be an integer"),
        ],
    )
    def test_row_sharing_checked_terms_still_checked(self, op, rhs, message):
        # The second row reuses the first row's terms tuple, whose terms were
        # checked once; its own operator and right-hand side are still checked.
        terms = ((1, IX), (-1, IY))
        parts = program_parts(
            constraints=(
                (terms, "<=", 1),
                (terms, op, rhs),
            )
        )
        with pytest.raises(ValueError) as err:
            bip.BinaryProgram(**parts)
        assert str(err.value) == message

    def test_int_subclass_coefficient_accepted(self):
        parts = program_parts(
            constraints=((((Weight(2), Weight(IX)),), "<=", Weight(1)),),
        )
        p = bip.BinaryProgram(**parts)
        assert p.constraints[0][0][0] == (2, IX)
        assert bip.export_lp(p) == bip.export_lp(
            bip.BinaryProgram(**program_parts(constraints=((((2, IX),), "<=", 1),)))
        )

    def test_duplicate_var_in_constraint(self):
        mb = bip.ModelBuilder()
        x = mb.new_var("x").index
        mb.add([(1, x), (1, x)], "<=", 1)
        mb.minimize([])
        with pytest.raises(ValueError, match="duplicate variable"):
            mb.build()

    def test_negative_objective_rejected(self):
        mb = bip.ModelBuilder()
        x = mb.new_var("x")
        mb.add([(1, x.index)], "<=", 1)
        mb.minimize([(-1, x)])
        with pytest.raises(ValueError, match="non-negative"):
            mb.build()

    def test_bad_name_rejected(self):
        mb = bip.ModelBuilder()
        mb.new_var("no spaces")
        with pytest.raises(ValueError, match="A-Za-z0-9_"):
            mb.build()

    @pytest.mark.parametrize(
        "name",
        ["3x", "0", "9_a", "End", "end", "END", "bin", "Bin", "binary", "BINARY",
         "binaries", "st", "ST", "minimize", "Minimise"],
    )
    def test_lp_unsafe_name_rejected(self, name):
        # Such a name would not survive export_lp and parse_lp unchanged.
        parts = Parts(**program_parts(**only_vars(bip.VarId(0, name))))
        rule = "must not start with a digit" if name[0].isdigit() else "is an LP section keyword"
        expected = f"variable name {name!r} {rule}"
        assert validation_outcome(bip.validate_program, parts) == expected
        assert validation_outcome(reference_validate_program, parts) == expected

    def test_names_near_lp_keywords_round_trip(self):
        names = ["x3", "_3x", "End_", "ends", "bins", "st1", "minimizer",
                 "Subject", "To", "obj", "c0", "s", "_"]
        mb = bip.ModelBuilder()
        xs = [mb.new_var(nm) for nm in names]
        mb.add([(1, x.index) for x in xs], ">=", 1)
        mb.add([(3, xs[0].index), (-2, xs[-1].index)], "<=", 1)
        mb.minimize([(1, x) for x in xs])
        p = mb.build()
        back = bip.parse_lp(bip.export_lp(p))
        assert [v.name for v in back.variables] == names
        assert back.constraints == p.constraints
        assert back.objective == p.objective

    def test_empty_constraint_rejected(self):
        mb = bip.ModelBuilder()
        mb.new_var("x")
        mb.add([], "<=", 1)
        with pytest.raises(ValueError, match="no terms"):
            mb.build()


class TestLpFormat:
    def test_skeleton(self):
        p, _ = tiny([(1, 0)], [([(1, 0)], ">=", 1)], 1)
        text = bip.export_lp(p)
        assert "Minimize" in text
        assert "Subject To" in text
        assert "x1 >= 1" in text
        assert "Binary" in text
        assert text.rstrip().endswith("End")

    def test_equality_emitted_verbatim(self):
        p, _ = tiny([(1, 0)], [([(1, 0), (-2, 1)], "=", 0)], 2)
        assert "x1 - 2 x2 = 0" in bip.export_lp(p)

    def test_golden_file(self):
        mb = bip.ModelBuilder()
        a = mb.new_var("alpha")
        b = mb.new_var("beta")
        c = mb.new_var("gamma")
        d = mb.new_var("delta")
        e = mb.new_var("eps")
        ia, ib, ic, id_, ie = (v.index for v in (a, b, c, d, e))
        mb.add([(1, ia), (1, ib), (1, ic)], ">=", 2)
        mb.add([(1, ic), (-1, id_)], "<=", 0)
        mb.add([(2, ia), (3, ie)], "=", 3)
        mb.add([(1, ib), (1, id_), (1, ie)], "<=", 2)
        mb.minimize([(1, a), (2, b), (1, c), (3, d), (1, e)])
        assert bip.export_lp(mb.build()) == GOLDEN.read_text(encoding="utf-8")

    def test_round_trip(self):
        rng = random.Random(9)
        for _ in range(30):
            p = random_program(rng)
            back = bip.parse_lp(bip.export_lp(p))
            assert [v.name for v in back.variables] == [v.name for v in p.variables]
            assert back.constraints == p.constraints
            # zero-coefficient objective terms are dropped by the writer
            kept = tuple((c, v) for c, v in p.objective if c != 0)
            assert back.objective == kept

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\u2028"], ids=["lf", "crlf", "ls"])
    def test_name_cannot_inject_statements(self, newline):
        # The name is folded onto the comment line wherever parse_lp would
        # split it, so a line break in it cannot start an LP statement.
        p, _ = tiny([(1, 0)], [([(1, 0), (1, 1)], ">=", 1)], 2)
        name = newline.join(["inst", "Subject To", " c9: x1 >= 1", ""])
        text = bip.export_lp(p, name=name)
        lines = text.splitlines()
        assert [ln for ln in lines if ln.lstrip().startswith("\\")] == [lines[0]]
        assert lines[0] == "\\ inst Subject To  c9: x1 >= 1"
        assert lines[1:] == bip.export_lp(p).splitlines()[1:]
        assert bip.parse_lp(text).constraints == p.constraints

    def test_repeated_binary_name_rejected(self):
        text = "Minimize\n obj: x\nSubject To\n c0: x + y >= 1\nBinary\n x y x\nEnd\n"
        with pytest.raises(ValueError, match="duplicate variable name"):
            bip.parse_lp(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("Minimize\n obj: x\nSubject To\n c0: x + ? >= 1\nBinary\n x\nEnd\n",
             "cannot parse linear expression at '+ ? '"),
            ("x + y >= 1\nMinimize\n obj: x\nEnd\n",
             "statement before any section: 'x + y >= 1'"),
            ("Minimize\n obj: x\nSubject To\n c0: x + y >= 1\nBinary\n x\nEnd\n",
             "variable 'y' missing from Binary section"),
            ("Minimize\n obj: x\nSubject To\n c0: x + y\nBinary\n x y\nEnd\n",
             "constraint without comparison: 'c0: x + y'"),
        ],
        ids=["bad-term", "before-section", "unknown-variable", "no-comparison"],
    )
    def test_malformed_text_rejected(self, text, message):
        with pytest.raises(ValueError) as err:
            bip.parse_lp(text)
        assert str(err.value) == message

    def test_workshop_model_golden(self):
        inst = files.load_instance(WORKSHOP)
        budgets = sw.layer_budget(inst, minimize=True)
        program, _ = sw.build_model(inst, sw.ILP2ML, budgets)
        text = bip.export_lp(program, name="workshop ilp2ml")
        assert text == (DATA / "workshop_ilp2ml.lp").read_text(encoding="utf-8")

    def test_shared_terms_tuple_reuses_its_expression(self):
        mb = bip.ModelBuilder()
        a, b, c = (mb.new_var(name).index for name in "abc")
        shared = ((1, a), (-1, b))
        mb.add(shared, "<=", 1)
        mb.add(shared, ">=", -1)
        mb.add(((1, a), (-1, b)), "=", 0)  # equal terms, distinct tuple
        mb.add(((2, b), (1, c)), ">=", 1)
        p = mb.build()
        terms = [row[0] for row in p.constraints]
        assert terms[0] is terms[1]
        assert terms[2] == shared and terms[2] is not shared
        text = bip.export_lp(p)
        lines = text.splitlines()
        assert lines[lines.index("Subject To") + 1 : lines.index("Binary")] == [
            " c0: a - b <= 1",
            " c1: a - b >= -1",
            " c2: a - b = 0",
            " c3: 2 b + c >= 1",
        ]
        assert bip.parse_lp(text).constraints == p.constraints

    @pytest.mark.parametrize(
        "kind, symmetry_breaking, digest",
        [
            ("ilp1", True, "334d4fded1b54e560848c7120a89e64499149d825655155e889180d6ffe8575d"),
            ("ilp1", False, "4dbefab1388fabfb16e7d281d19cc62352a4fc1bcbe70e8b79750d8b2637fc6d"),
            ("ilp2", True, "8a549f9d43ed0141109baef233203257a7ec44a2b1f409f0fb7183d3f38fdf99"),
            ("ilp2", False, "2700e6f5a01de66ab833aac5fd6323b077a14125459d93c3165e9c6ce4a5bf61"),
            ("ilp1ml", True, "40f99e41dbc835f214b52b34e82c11866bae2d5732eef94443282904d2bc45a5"),
            ("ilp1ml", False, "c838d7a570a975c24865775478a4197754366a35520e5bdbfbddeb9df4f07e19"),
            ("ilp2ml", True, "158339fafb326d33fbdec533ea571600550c4d0234d8bc2222f0cc4fe6bd9690"),
            ("ilp2ml", False, "d81272686b1bed39c3d30dd7e611e26570ca2686763404113d33971d51569889"),
        ],
    )
    def test_wide_model_lp_unchanged(self, kind, symmetry_breaking, digest):
        # SHA-256 of the LP text recorded from the writer that printed every
        # row's expression afresh; rows sharing a terms tuple must not change it.
        inst = cit_rung(8, 12, 4, 1)
        model = formulations.EXACT_KINDS[kind]
        budgets = sw.layer_budget(inst, minimize=model.minimize_layers)
        program, _ = sw.build_model(inst, model, budgets, symmetry_breaking=symmetry_breaking)
        text = bip.export_lp(program)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest

    def test_long_rows_wrap_and_parse(self):
        mb = bip.ModelBuilder()
        xs = [mb.new_var(f"verylongname_{i:03d}") for i in range(60)]
        mb.add([(1, x.index) for x in xs], "<=", 30)
        mb.minimize([(1, x) for x in xs])
        p = mb.build()
        text = bip.export_lp(p)
        assert all(len(line) <= 240 for line in text.splitlines())
        assert bip.parse_lp(text).constraints == p.constraints


CHUNK = bip._CHUNK_ROWS


def block_program(rows: int, long_rows: frozenset[int] = frozenset()) -> bip.BinaryProgram:
    """``rows`` rows over 60 long-named variables.  Each even row after the
    first reuses the previous row's terms tuple, so a shared pair straddles
    every block boundary; a row in ``long_rows`` lists every variable and is
    wrapped."""
    mb = bip.ModelBuilder()
    variables = [mb.new_var(f"verylongname_{i:03d}") for i in range(60)]
    xs = [v.index for v in variables]
    rng = random.Random(rows)
    terms: tuple = ()
    for k in range(rows):
        if k in long_rows:
            terms = tuple((1, x) for x in xs)
        elif k % 2 or not terms:
            chosen = rng.sample(xs, rng.randint(1, 4))
            terms = tuple((rng.choice((-3, -1, 1, 2)), x) for x in chosen)
        mb.add(terms, rng.choice(("<=", ">=", "=")), rng.randint(-2, 3))
    mb.minimize([(rng.randint(0, 3), v) for v in variables])
    return mb.build()


class TestChunkedExport:
    """export_lp joins each block of ``_CHUNK_ROWS`` rows into one chunk; the
    text must equal the writer's that joined every line at once."""

    @pytest.mark.parametrize(
        "rows",
        [0, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK],
        ids=["none", "chunk-1", "chunk", "chunk+1", "2chunk"],
    )
    def test_text_equals_unchunked_writer(self, rows):
        p = block_program(rows)
        text = bip.export_lp(p, name="blocks")
        assert text == reference_export_lp(p, name="blocks")
        assert text.endswith("\nEnd\n")
        assert bip.parse_lp(text).constraints == p.constraints

    def test_wrapped_rows_on_block_boundaries(self):
        long_rows = frozenset({CHUNK - 1, CHUNK, 2 * CHUNK - 1})
        p = block_program(2 * CHUNK, long_rows)
        text = bip.export_lp(p)
        assert text == reference_export_lp(p)
        lines = text.splitlines()
        assert all(len(line) <= 240 for line in lines)
        # Each long row continues on lines without a label.
        rows = lines[lines.index("Subject To") + 1 : lines.index("Binary")]
        starts = [i for i, line in enumerate(rows) if line.startswith(" c")]
        assert len(starts) == len(p.constraints)
        for k in long_rows:
            assert not rows[starts[k] + 1].startswith(" c")
        assert bip.parse_lp(text).constraints == p.constraints

    def test_export_peaks_below_three_times_its_text(self):
        # The largest ilp2ml model of the wide benchmark instances.  Keeping
        # every line in one list and joining it once peaked near 4x the text.
        inst = wide_instances()[1]
        budgets = sw.layer_budget(inst, minimize=True)
        program, _ = sw.build_model(inst, sw.ILP2ML, budgets)
        assert len(program.constraints) == 41_950
        tracemalloc.start()
        try:
            text = bip.export_lp(program)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * len(text)


class Coef(int):
    """An ``int`` subclass, which validation admits as a coefficient."""


def kernel_program(seed: int) -> bip.BinaryProgram:
    """Random rows over names of up to 91 characters, past two block
    boundaries: arities 1-7, most of them three; coefficients 0, ±1 and
    ±2..±12, some of them :class:`Coef`; one row in four repeats the
    previous row's terms tuple."""
    rng = random.Random(seed)
    mb = bip.ModelBuilder()
    variables = [mb.new_var(f"v{i}_" + "x" * rng.randint(0, 87)) for i in range(40)]
    xs = [v.index for v in variables]
    coefs = [0, *range(-12, 13)]
    terms: tuple = ()
    for _ in range(2 * CHUNK + 100):
        if not terms or rng.random() >= 0.25:
            arity = 3 if rng.random() < 0.6 else rng.randint(1, 7)
            unit = rng.random() < 0.7
            terms = tuple(
                (
                    (Coef if rng.random() < 0.1 else int)(
                        rng.choice((1, -1)) if unit else rng.choice(coefs)
                    ),
                    x,
                )
                for x in rng.sample(xs, arity)
            )
        mb.add(terms, rng.choice(("<=", ">=", "=")), rng.randint(-12, 12))
    mb.minimize([(rng.choice((0, 1, 2, Coef(1), Coef(7))), v) for v in variables])
    return mb.build()


class TestRowKernel:
    """export_lp prints a row of three unit terms with one f-string and every
    other row through the general expression; both must print what the
    writer that built every expression term by term printed."""

    @pytest.mark.parametrize("seed", range(3))
    def test_text_equals_reference_writer(self, seed):
        p = kernel_program(seed)
        text = bip.export_lp(p, name=f"kernel {seed}")
        assert text == reference_export_lp(p, name=f"kernel {seed}")
        # The draw covers what it claims: wrapped three-term rows, the
        # general path and a shared terms tuple.
        rows = p.constraints
        assert sum(len(t) == 3 for t, _, _ in rows) > len(rows) / 2
        assert any(
            len(t) == 3 and all(c in (1, -1) for c, _ in t)
            and sum(len(p.variables[i].name) for _, i in t) > 240
            for t, _, _ in rows
        )
        assert any(type(c) is Coef for t, _, _ in rows for c, _ in t)
        assert any(a[0] is b[0] for a, b in itertools.pairwise(rows))
        assert bip.parse_lp(text).constraints == p.constraints

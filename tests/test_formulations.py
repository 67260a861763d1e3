import gc
import hashlib
import itertools
import math
import platform
import random
import time
import weakref
from dataclasses import replace
from pathlib import Path

import pytest

import storyweave as sw
import storyweave.bip as bip
from storyweave import files, formulations, pipeline
from helpers import (
    STARTS_FROZEN,
    cit_rung,
    count_validations,
    oracle_corpus,
    random_instance,
    small_draws,
    small_models,
    wide_instances,
)
from test_core import PATTERN_PAIR, make_instance


WORKSHOP = Path(__file__).parents[1] / "demos" / "data" / "workshop.json"


def small_corpus(seed=0, count=40):
    return oracle_corpus(seed=seed, count=count)


class TestPotentialCharacters:
    def test_outside_span(self):
        inst = make_instance([("a", "t0"), ("b", "t1")])
        assert 0 not in inst.potential[1]

    def test_span_is_inclusive(self):
        inst = make_instance([("ab", "t0"), ("b", "t1"), ("ab", "t2")])
        assert inst.potential[1] == frozenset({0, 1})

    def test_interacting_characters_always_present(self):
        inst = make_instance([("abc", "t0")])
        assert inst.potential[0] == frozenset({0, 1, 2})


class TestBuildModel:
    def test_zero_slot_budget_rejected(self):
        inst = make_instance([("ab", "t0"), ("ab", "t1")])
        with pytest.raises(ValueError, match="timestamp 1 has interactions but a zero slot budget"):
            sw.build_model(inst, sw.ILP1, {0: 1, 1: 0})

    def test_single_interaction_shape(self):
        inst = make_instance([("ab", "t0")])
        program, cat = sw.build_model(inst, sw.ILP1, {0: 1})
        assert len(cat.slots) == 1
        assert len(cat.placement) == 1
        assert len(cat.order) == 1
        assert len(cat.crossing) == 0
        story, report = sw.solve_exact(inst, sw.ILP1)
        assert report.crossings == 0
        assert report.status == "optimal"
        assert len(story.layers) == 1

    def test_order_variable_count_closed_form(self):
        rng = random.Random(0)
        for _ in range(20):
            inst = random_instance(rng)
            budgets = sw.layer_budget(inst, minimize=False)
            _, cat = sw.build_model(inst, sw.ILP1, budgets)
            expected = sum(
                math.comb(len(inst.potential[s.time]), 2) for s in cat.slots
            )
            assert len(cat.order) == expected

    def test_crossing_variable_count_closed_form(self):
        rng = random.Random(1)
        for _ in range(20):
            inst = random_instance(rng)
            budgets = sw.layer_budget(inst, minimize=True)
            _, cat = sw.build_model(inst, sw.ILP2, budgets)
            expected = sum(
                math.comb(len(a & b), 2)
                for a, b in itertools.pairwise(inst.potential[s.time] for s in cat.slots)
            )
            assert len(cat.crossing) == expected

    @pytest.mark.parametrize(
        "kind, symmetry_breaking, digest",
        [
            ("ilp1ml", True, "748ec42341ce9b3110538d56ee5a500fb5a4768302ea5f1e403a22639cfa2776"),
            ("ilp1ml", False, "da93ce94a185c3686776256cf26e14096b21c4ad078f5a2c326c9c6ae4436fb8"),
            ("ilp2ml", True, "7dc346ea6fca8df9253c4fbd15e8eedee76cc9f41ab9ab1c32b47f74da6dc3fb"),
            ("ilp2ml", False, "1ebab6349083c5d2cf89dde7b82354071972f916c829228c795f4136f9389c47"),
        ],
    )
    def test_wide_instance_models_pinned(self, kind, symmetry_breaking, digest):
        # SHA-256 over the LP text and every catalog entry (key, variable
        # index and name, in insertion order) of the four wide benchmark
        # instances, whose slots hold 18-21 characters, so every block-row
        # case (outsider before, between and after a member pair) occurs.
        model = formulations.EXACT_KINDS[kind]
        h = hashlib.sha256()
        for inst in wide_instances():
            assert max(map(len, inst.potential)) >= 20
            budgets = sw.layer_budget(inst, minimize=model.minimize_layers)
            program, cat = sw.build_model(
                inst, model, budgets, symmetry_breaking=symmetry_breaking
            )
            h.update(bip.export_lp(program).encode("utf-8"))
            for table in ("placement", "order", "crossing", "active"):
                for key, var in getattr(cat, table).items():
                    h.update(f"{table} {key} {var.index} {var.name}\n".encode("utf-8"))
        assert h.hexdigest() == digest

    @pytest.mark.parametrize(
        "symmetry_breaking, digest",
        [
            (True, "5d2a09e33753719cc1e4e4fe31978a3a661d13ae6467e210492056fd8d069aeb"),
            (False, "cd40106daa53a9db4864d451f571eb8f78fd247f0ae034e9ce841b6d89031222"),
        ],
    )
    def test_small_models_pinned(self, symmetry_breaking, digest):
        # SHA-256 over the variables (index and name), the rows as (terms,
        # op, rhs), the objective and every catalog entry, in order, of the
        # four exact models of 40 seeded small instances; recorded from the
        # builder that made its variables one new_var call at a time.
        h = hashlib.sha256()
        for _inst, _kind, program, cat in small_models(23, 40, symmetry_breaking):
            h.update(repr([(v.index, v.name) for v in program.variables]).encode())
            h.update(repr(program.constraints).encode())
            h.update(repr([(c, v.index, v.name) for c, v in program.objective]).encode())
            for table in ("placement", "order", "crossing", "active"):
                for key, var in getattr(cat, table).items():
                    h.update(f"{table} {key} {var.index} {var.name}\n".encode())
        assert h.hexdigest() == digest

    def test_activity_vars_only_for_ilp2(self):
        inst = make_instance(PATTERN_PAIR)
        _, cat1 = sw.build_model(inst, sw.ILP1, {0: 4})
        _, cat2 = sw.build_model(inst, sw.ILP2, {0: 4})
        assert not cat1.active
        assert len(cat2.active) == 4 * 4

    @pytest.mark.skipif(
        platform.python_implementation() != "CPython",
        reason="untracking tuples of atoms is a CPython collector detail",
    )
    @pytest.mark.parametrize("kind", ["ilp1", "ilp2ml"])
    def test_rows_leave_the_collector(self, kind):
        # A row holds only ints and strs, so CPython's cyclic collector stops
        # tracking it once it has seen it: one nesting level per collection,
        # the term, then the terms tuple, then the row.  A row holding an
        # object reference stays tracked, and every full collection walks it.
        inst = files.load_instance(WORKSHOP)
        model = formulations.EXACT_KINDS[kind]
        budgets = sw.layer_budget(inst, minimize=model.minimize_layers)
        program, _ = sw.build_model(inst, model, budgets)
        rows = program.constraints
        assert rows

        def tracked():
            terms = {id(row[0]): row[0] for row in rows}.values()
            return (
                [row for row in rows if gc.is_tracked(row)]
                + [t for t in terms if gc.is_tracked(t)]
                + [term for t in terms for term in t if gc.is_tracked(term)]
            )

        for _ in range(3):
            gc.collect()
            if not tracked():
                break
        assert tracked() == []


@pytest.mark.skipif(
    platform.python_implementation() != "CPython",
    reason="collection counts and gc.callbacks are CPython collector details",
)
class TestCollectorPause:
    """``build_model`` runs with the cyclic collector paused, which is safe
    only because a model holds no reference cycles."""

    @staticmethod
    def cycles_left(inst, model, budgets, symmetry_breaking=True):
        # What a full collection finds once a model built and exported from
        # a clean heap is dropped.
        gc.collect()
        program, cat = sw.build_model(inst, model, budgets, symmetry_breaking)
        text = bip.export_lp(program)
        del program, cat, text
        return gc.collect()

    @pytest.mark.parametrize("symmetry_breaking", [True, False])
    def test_small_models_leave_no_cycles(self, symmetry_breaking):
        for inst, kind, program, cat in small_models(5, 4, symmetry_breaking):
            del program, cat
            model = formulations.EXACT_KINDS[kind]
            budgets = sw.layer_budget(inst, minimize=model.minimize_layers)
            assert self.cycles_left(inst, model, budgets, symmetry_breaking) == 0, kind

    @pytest.mark.parametrize("kind", ["ilp1ml", "ilp2ml"])
    def test_wide_models_leave_no_cycles(self, kind):
        inst = wide_instances(1)[0]
        model = formulations.EXACT_KINDS[kind]
        budgets = sw.layer_budget(inst, minimize=True)
        assert self.cycles_left(inst, model, budgets) == 0

    @pytest.mark.parametrize("kind", ["ilp1ml", "ilp2ml"])
    def test_wide_build_starts_at_most_one_collection(self, kind):
        # Without the pause, building these models starts about a hundred
        # collections.  With it, the model goes straight to the oldest
        # generation, so not even the few hundred allocations after the
        # build start the young collection that would walk the new model
        # (except where the interpreter starts with frozen objects, and the
        # first allocation starts that one collection).
        inst = wide_instances(1)[0]
        model = formulations.EXACT_KINDS[kind]
        budgets = sw.layer_budget(inst, minimize=True)
        starts = []

        def count(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        assert gc.isenabled()
        gc.callbacks.append(count)
        try:
            built = sw.build_model(inst, model, budgets)
            after = [[] for _ in range(300)]
        finally:
            gc.callbacks.remove(count)
            gc.enable()
        del built, after
        assert len(starts) <= STARTS_FROZEN, starts

    @staticmethod
    def wide_build():
        inst = wide_instances(1)[0]
        budgets = sw.layer_budget(inst, minimize=True)
        return sw.build_model(inst, sw.ILP2ML, budgets)

    @pytest.mark.skipif(STARTS_FROZEN, reason="the interpreter starts with frozen objects")
    def test_no_young_collection_due_after_wide_build(self):
        # Before the move, the young count after this build is tens of
        # thousands.  The model is held: freeing it would lower the count.
        gc.collect()
        assert gc.isenabled()
        try:
            model = self.wide_build()
            assert gc.isenabled()
            assert gc.get_count()[0] <= gc.get_threshold()[0], gc.get_count()
            del model
        finally:
            gc.enable()

    @pytest.mark.skipif(
        STARTS_FROZEN, reason="unfreezing would thaw the objects the interpreter froze"
    )
    def test_frozen_objects_stay_frozen(self):
        gc.collect()
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            assert frozen > 0
            self.wide_build()
            assert gc.get_freeze_count() == frozen
        finally:
            gc.unfreeze()
            gc.enable()

    def test_cycle_dropped_before_wide_build_is_freed(self):
        class Node:
            pass

        gc.collect()
        node = Node()
        node.me = node
        ref = weakref.ref(node)
        del node
        assert ref() is not None
        try:
            self.wide_build()
        finally:
            gc.enable()
        gc.collect()
        assert ref() is None

    def test_wide_build_keeps_thresholds_and_disabled_collector(self):
        thresholds = gc.get_threshold()
        self.wide_build()
        assert gc.get_threshold() == thresholds
        gc.disable()
        try:
            model = self.wide_build()
            assert not gc.isenabled()
            # The move is skipped too: the young count keeps the model.
            assert gc.get_count()[0] > gc.get_threshold()[0], gc.get_count()
            del model
        finally:
            gc.enable()
        assert gc.get_threshold() == thresholds

    def test_collector_enabled_after_build(self):
        inst = make_instance(PATTERN_PAIR)
        assert gc.isenabled()
        try:
            sw.build_model(inst, sw.ILP2, {0: 2})
            assert gc.isenabled()
        finally:
            gc.enable()

    def test_collector_enabled_after_failed_build(self):
        inst = make_instance(PATTERN_PAIR)
        assert gc.isenabled()
        try:
            with pytest.raises(ValueError, match="zero slot budget"):
                sw.build_model(inst, sw.ILP1, {0: 0})
            assert gc.isenabled()
        finally:
            gc.enable()

    def test_disabled_collector_stays_disabled(self):
        inst = make_instance(PATTERN_PAIR)
        gc.disable()
        try:
            sw.build_model(inst, sw.ILP1, {0: 2})
            assert not gc.isenabled()
        finally:
            gc.enable()


class TestValidatedOnce:
    """Each program is validated once, when it is built (ROADMAP aim 2)."""

    def test_solve_exact_validates_its_program_once(self, monkeypatch):
        inst = files.load_instance(WORKSHOP)
        calls = count_validations(monkeypatch)
        for name, kind in formulations.EXACT_KINDS.items():
            calls.clear()
            story, _ = sw.solve_exact(inst, kind, timeout=10)
            assert story is not None, name
            assert len(calls) == 1, name


class TestExactness:
    def test_pattern_instance_unavoidable_crossing(self):
        inst = make_instance(PATTERN_PAIR)
        story, report = sw.solve_exact(inst, sw.ILP1, timeout=60)
        assert report.status == "optimal"
        assert report.crossings >= 1

    def test_pattern_instance_two_layers(self):
        inst = make_instance(PATTERN_PAIR)
        story, report = sw.solve_exact(inst, sw.ILP1ML, timeout=60, cap=2)
        assert report.status == "optimal"
        assert report.layers == 2
        assert report.crossings >= 1

    def test_ilp1_matches_exhaustive_reference(self):
        for inst, expected in small_corpus(seed=10, count=40):
            story, report = sw.solve_exact(inst, sw.ILP1, timeout=120)
            assert report.status == "optimal"
            assert report.crossings == expected

    def test_ilp2_matches_minimal_activity_reference(self):
        for inst, _budgets in small_draws(11, ("minimal",), count=25):
            expected = sw.brute_force_optimum(inst, "minimal")
            story, report = sw.solve_exact(inst, sw.ILP2, timeout=120)
            assert report.status == "optimal"
            assert report.crossings == expected

    def test_dominance_chain(self):
        for inst, _ in small_corpus(seed=12, count=30):
            results = {}
            for kind in (sw.ILP1, sw.ILP1ML, sw.ILP2, sw.ILP2ML):
                _, report = sw.solve_exact(inst, kind, timeout=120)
                assert report.status == "optimal"
                results[kind.name] = report.crossings
            assert results["ilp2"] <= results["ilp1"]
            assert results["ilp1"] <= results["ilp1ml"]
            assert results["ilp2"] <= results["ilp2ml"]

    def test_ml_variants_match_budget_constrained_reference(self):
        for inst, budgets in small_draws(77, ("span", "minimal"), chromatic=True, count=20):
            ref_span = sw.brute_force_optimum(inst, "span", budgets=budgets)
            ref_minimal = sw.brute_force_optimum(inst, "minimal", budgets=budgets)
            _, r1 = sw.solve_exact(inst, sw.ILP1ML, timeout=120)
            _, r2 = sw.solve_exact(inst, sw.ILP2ML, timeout=120)
            assert r1.status == r2.status == "optimal"
            assert r1.crossings == ref_span
            assert r2.crossings == ref_minimal

    def test_exported_model_solves_to_same_optimum(self):
        for inst, expected in small_corpus(seed=78, count=10):
            budgets = sw.layer_budget(inst, minimize=False)
            program, _ = sw.build_model(
                inst, sw.ILP1, budgets, symmetry_breaking=False
            )
            reparsed = bip.parse_lp(bip.export_lp(program))
            result = bip.solve(reparsed, timeout=120)
            assert result.status == bip.OPTIMAL
            assert result.objective_value == bip.solve(program, timeout=120).objective_value

    def test_fixed_layer_reproduces_ilp1_optimum(self):
        for inst, expected in small_corpus(seed=13, count=15):
            story, report = sw.solve_exact(inst, sw.ILP1, timeout=120)
            assert report.status == bip.OPTIMAL
            layers = [
                ([inst.interactions[i].characters for i in layer.interactions], layer.active)
                for layer in story.layers
            ]
            orders, cost, proven = sw.order_fixed_layers(layers)
            assert proven and cost == expected
            reordered = sw.CombinatorialStoryline(
                tuple(replace(layer, order=order) for layer, order in zip(story.layers, orders))
            )
            assert sw.validate_storyline(inst, reordered) == []
            assert sw.count_crossings(reordered).total == expected


class TestMirrorFix:
    """``solve_exact`` fixes the first ordering variable to 0: reversing
    every slot maps each model onto itself, so one mirror image suffices."""

    @staticmethod
    def mirror_fixed(cat):
        first = next(iter(cat.order.values()), None)
        return [] if first is None else [(first.index, 0)]

    @pytest.mark.parametrize(
        "seed, nodes, digest",
        [
            (23, 15064, "6fdef1bc5b6e4c20da9e4746c4621ae682894a7adba7ff26ec9dba35051b3e0d"),
            (29, 13014, "b36b3a895cb67e1c8445a44862bb23c31e7f8e9b6cbf3bd22ffd2ac855e397b4"),
        ],
    )
    def test_same_optimum_fewer_nodes(self, seed, nodes, digest):
        # The four exact models of 40 seeded small instances keep their
        # status and objective; the fixed solves are pinned down to the
        # returned point and the node count (unfixed: 45,812 and 28,676
        # nodes), so the saving cannot vanish silently.
        h = hashlib.sha256()
        total = 0
        for _inst, kind, program, cat in small_models(seed, 40):
            fixed = bip.solve(program, timeout=60, fixed=self.mirror_fixed(cat))
            plain = bip.solve(program, timeout=60)
            assert (fixed.status, fixed.objective_value) == (
                plain.status,
                plain.objective_value,
            ), kind
            total += fixed.nodes
            h.update(
                repr(
                    (
                        fixed.status,
                        fixed.assignment,
                        fixed.objective_value,
                        fixed.best_lower_bound,
                        fixed.nodes,
                    )
                ).encode()
            )
        assert total == nodes
        assert h.hexdigest() == digest

    def test_slow_ilp1_instance_proven_quickly(self, monkeypatch):
        # Four characters, five interactions, one timestamp with two of
        # them: the ilp1 search took 381,768 nodes over both mirror images.
        inst = make_instance(
            [("bd", "t2"), ("acd", "t0"), ("ac", "t2"), ("ab", "t0"), ("bc", "t1")]
        )
        results = []
        solve = bip.solve

        def recorded(program, timeout, **kwargs):
            results.append(solve(program, timeout, **kwargs))
            return results[-1]

        monkeypatch.setattr(bip, "solve", recorded)
        _story, report = sw.solve_exact(inst, sw.ILP1, timeout=600)
        assert (report.status, report.crossings) == (bip.OPTIMAL, 2)
        assert results[-1].nodes <= 90_000


class TestDecode:
    def test_single_interaction(self):
        inst = make_instance([("ab", "t0")])
        story, report = sw.solve_exact(inst, sw.ILP1)
        assert len(story.layers) == 1
        assert sw.count_crossings(story).total == 0

    def test_all_outputs_validate(self):
        for inst, _ in small_corpus(seed=14, count=20):
            for kind in (sw.ILP1, sw.ILP1ML, sw.ILP2, sw.ILP2ML):
                story, _report = sw.solve_exact(inst, kind, timeout=120)
                assert sw.validate_storyline(inst, story) == []

    def test_ilp2_activity_contiguous_and_covering(self):
        rng = random.Random(15)
        for _ in range(20):
            inst = random_instance(rng)
            story, report = sw.solve_exact(inst, sw.ILP2, timeout=120)
            assert report.status == "optimal"
            assert sw.validate_storyline(inst, story) == []
            for layer in story.layers:
                for iid in layer.interactions:
                    assert inst.interactions[iid].characters <= layer.active

    def test_decoded_crossings_never_exceed_objective(self):
        for inst, _ in small_corpus(seed=16, count=25):
            for kind in (sw.ILP1, sw.ILP2):
                budgets = sw.layer_budget(inst, minimize=kind.minimize_layers)
                program, cat = sw.build_model(inst, kind, budgets)
                result = bip.solve(program, timeout=120)
                assert result.status == bip.OPTIMAL
                story = sw.decode(inst, cat, result)
                assert sw.count_crossings(story).total <= result.objective_value

    def test_infeasible_cannot_decode(self):
        inst = make_instance([("ab", "t0"), ("bc", "t0")])
        program, cat = sw.build_model(inst, sw.ILP1, {0: 1})
        result = bip.solve(program, timeout=60)
        assert result.status == bip.INFEASIBLE
        with pytest.raises(ValueError, match="status"):
            sw.decode(inst, cat, result)


class TestDecodeAndReport:
    @pytest.mark.parametrize("algorithm", ["ilp1ml"])
    def test_timeout_without_incumbent(self, monkeypatch, algorithm):
        # The search stopped before it found any feasible point.
        stopped = bip.SolveResult(bip.FEASIBLE_TIMEOUT, None, None, 0)
        monkeypatch.setattr(bip, "solve", lambda program, timeout, fixed=(): stopped)
        story, report = sw.solve_exact(make_instance(PATTERN_PAIR), sw.ILP1ML)
        assert story is None
        assert report.algorithm == algorithm
        assert report.status == bip.FEASIBLE_TIMEOUT
        assert report.crossings is None and report.layers is None
        assert report.gap_percent == 100.0

    @pytest.mark.parametrize(
        "bound, status, gap", [(1, "feasible-timeout", 50.0), (2, "optimal", None)]
    )
    def test_incumbent_judged_by_its_oracle_count(self, monkeypatch, bound, status, gap):
        # A timed-out incumbent holding an optimal storyline, with every
        # crossing indicator set: the >= linking rows allow z = 1 without a
        # flip, so its objective overstates the oracle count 2.
        solve = bip.solve

        def crafted(program, timeout, fixed=()):
            a = list(solve(program, timeout, fixed=fixed).assignment)
            for var in program.variables:
                if var.name.startswith("z_"):
                    a[var.index] = 1
            objective = sum(coef * a[var.index] for coef, var in program.objective)
            return bip.SolveResult(bip.FEASIBLE_TIMEOUT, tuple(a), objective, bound)

        monkeypatch.setattr(bip, "solve", crafted)
        twice = PATTERN_PAIR + [(chars, "t1") for chars, _t in PATTERN_PAIR]
        story, report = sw.solve_exact(make_instance(twice), sw.ILP1ML)
        assert report.crossings == sw.count_crossings(story).total == 2
        assert (report.status, report.gap_percent) == (status, gap)

    @pytest.mark.parametrize("kind", ["ilp1ml", "ilp2ml"])
    def test_budget_under_a_second_holds(self, kind):
        # Model building takes part of the budget; the search gets the rest,
        # with no floor, so the whole solve ends within the budget plus slack.
        inst = cit_rung(12, 25, 8, 1)
        t0 = time.monotonic()
        story, report = sw.solve_exact(inst, formulations.EXACT_KINDS[kind], timeout=0.2)
        assert time.monotonic() - t0 <= 0.2 + 0.25
        assert report.status == bip.FEASIBLE_TIMEOUT
        assert story is None or sw.validate_storyline(inst, story) == []

    @pytest.mark.parametrize("algorithm", pipeline.ALGORITHMS)
    def test_runtime_covers_recount(self, monkeypatch, algorithm):
        recount = sw.count_crossings

        def slow_recount(story):
            time.sleep(0.2)
            return recount(story)

        # Every algorithm recounts in the one shared tail, in core.
        monkeypatch.setattr(sw.core, "count_crossings", slow_recount)
        inst = make_instance(PATTERN_PAIR)
        _, report = sw.layout(inst, algorithm)
        assert report.runtime >= 0.2


class TestBuildOptions:
    @pytest.mark.parametrize("timeout", [0, -5, float("nan")])
    def test_rejects_non_positive_timeout(self, timeout):
        inst = make_instance([("ab", "t0")])
        with pytest.raises(ValueError, match="timeout must be positive"):
            sw.solve_exact(inst, sw.ILP1, timeout=timeout)

    def test_symmetry_breaking_preserves_optimum(self):
        for inst, expected in small_corpus(seed=17, count=20):
            budgets = sw.layer_budget(inst, minimize=False)
            for flag in (True, False):
                program, cat = sw.build_model(
                    inst, sw.ILP1, budgets, symmetry_breaking=flag
                )
                result = bip.solve(program, timeout=120)
                assert result.status == bip.OPTIMAL
                story = sw.decode(inst, cat, result)
                assert sw.count_crossings(story).total == expected

    def test_cap_rejected_for_uncolored_budgets(self):
        inst = make_instance(PATTERN_PAIR)
        with pytest.raises(ValueError, match="cap"):
            sw.solve_exact(inst, sw.ILP1, cap=2)

import hashlib
import random
import time

import pytest

import storyweave as sw
from storyweave import files, formulations, pipeline
from helpers import cit_rung, dense_instance, matching_instance, oracle_corpus, random_instance
from test_core import PATTERN_PAIR, make_instance


class TestOrientSlicePaths:
    def test_single_slice_keeps_canonical(self):
        s = [[(frozenset({0, 1}),), (frozenset({2, 3}),)]]
        assert sw.orient_slice_paths(s, "rand") == [False]

    def test_cheaper_orientation_wins(self):
        # reversing the second slice moves its pattern-free layer to the boundary
        first = [(frozenset({0, 1}), frozenset({2, 3}))]
        second = [
            (frozenset({0, 2}), frozenset({1, 3})),
            (frozenset({0, 1}), frozenset({2, 3})),
        ]
        assert sw.orient_slice_paths([first, second], "pattern") == [False, True]

    def test_tie_keeps_canonical(self):
        first = [(frozenset({0, 1}),)]
        second = [(frozenset({2, 3}),), (frozenset({4, 5}),)]
        assert sw.orient_slice_paths([first, second], "rand") == [False, False]


class TestRunPipeline:
    def test_single_interaction(self):
        inst = make_instance([("ab", "t0")])
        story, report = sw.run_pipeline(inst, sw.PipelineConfig())
        assert report.layers == 1
        assert report.crossings == 0
        assert report.algorithm == "ps"

    def test_disjoint_interactions_collapse_per_timestamp(self):
        inst = make_instance(
            [("ab", "t0"), ("cd", "t0"), ("ab", "t1"), ("cd", "t1")]
        )
        story, report = sw.run_pipeline(inst, sw.PipelineConfig())
        assert report.layers == 2

    def test_outputs_validate(self):
        rng = random.Random(1)
        for _ in range(40):
            inst = random_instance(rng)
            for heuristic in ("rand", "pattern"):
                story, report = sw.run_pipeline(
                    inst, sw.PipelineConfig(heuristic=heuristic, timeout=60)
                )
                assert sw.validate_storyline(inst, story) == []
                assert report.crossings == sw.count_crossings(story).total

    def test_layer_count_is_coloring_total(self):
        rng = random.Random(2)
        for _ in range(20):
            inst = random_instance(rng)
            story, report = sw.run_pipeline(inst, sw.PipelineConfig(timeout=60))
            assert report.layers == sum(
                sw.layer_budget(inst, minimize=True).values()
            )

    def test_never_beats_exact_solver_on_same_budgets(self):
        for inst, _ in oracle_corpus(seed=3, count=25):
            _, exact = sw.solve_exact(inst, sw.ILP1ML, timeout=120)
            assert exact.status == "optimal"
            for heuristic in ("rand", "pattern"):
                _, report = sw.run_pipeline(
                    inst, sw.PipelineConfig(heuristic=heuristic, timeout=120)
                )
                assert report.crossings >= exact.crossings

    def test_heuristics_share_stage_one(self):
        rng = random.Random(4)
        for _ in range(10):
            inst = random_instance(rng)
            a, _ = sw.run_pipeline(inst, sw.PipelineConfig(heuristic="rand"))
            b, _ = sw.run_pipeline(inst, sw.PipelineConfig(heuristic="pattern"))
            layer_sets = lambda s: sorted(
                sorted(l.interactions) for l in s.layers
            )
            assert layer_sets(a) == layer_sets(b)

    def test_deterministic(self):
        rng = random.Random(5)
        for _ in range(10):
            inst = random_instance(rng)
            cfg = sw.PipelineConfig(heuristic="pattern", timeout=60)
            a, _ = sw.run_pipeline(inst, cfg)
            b, _ = sw.run_pipeline(inst, cfg)
            assert a == b

    def test_cap_respected(self):
        inst = make_instance(PATTERN_PAIR)
        story, report = sw.run_pipeline(inst, sw.PipelineConfig(cap=2, timeout=60))
        assert report.layers == 2
        assert report.crossings >= 1
        for layer in story.layers:
            assert len(layer.interactions) <= 2

    @pytest.mark.parametrize("heuristic", ["rand", "pattern"])
    def test_slice_beyond_exact_path_limit(self, heuristic):
        # 19 meetings of one pair at one timestamp need 19 layers, one more
        # than the exact path search takes.
        inst = make_instance([("ab", "t0")] * (sw.ordering.MAX_EXACT_PATH_NODES + 1))
        story, report = sw.run_pipeline(
            inst, sw.PipelineConfig(heuristic=heuristic, timeout=60)
        )
        assert sw.validate_storyline(inst, story) == []
        assert report.layers == 19
        assert report.crossings == sw.count_crossings(story).total == 0

    @pytest.mark.parametrize("heuristic", ["rand", "pattern"])
    @pytest.mark.parametrize(
        "rung, budget",
        [((8, 12, 4), 0.2), ((12, 25, 8), 0.2), ((30, 100, 20), 1.0)],
        ids=["8-12-4", "12-25-8", "30-100-20"],
    )
    def test_budget_holds(self, heuristic, rung, budget):
        # 8/12/4 is cut inside the DP, the others exceed its guard.
        inst = cit_rung(*rung, 1)
        t0 = time.monotonic()
        story, report = sw.run_pipeline(
            inst, sw.PipelineConfig(heuristic=heuristic, timeout=budget)
        )
        assert time.monotonic() - t0 <= budget + 0.1
        assert sw.validate_storyline(inst, story) == []
        assert report.crossings == sw.count_crossings(story).total
        assert (report.status, report.gap_percent) in {
            ("optimal", None),
            ("feasible-timeout", 100.0),
        }

    @pytest.mark.parametrize("heuristic", ["rand", "pattern"])
    def test_wide_layers_keep_budget(self, heuristic):
        # 200 characters over 50 one-layer timestamps: every stage works on
        # wide layers, and every slice is too small to be scored or reversed.
        inst = matching_instance(200, 50, 1)
        t0 = time.monotonic()
        story, report = sw.run_pipeline(
            inst, sw.PipelineConfig(heuristic=heuristic, timeout=0.5)
        )
        assert time.monotonic() - t0 <= 0.75
        assert sw.validate_storyline(inst, story) == []
        assert report.crossings == sw.count_crossings(story).total

    @pytest.mark.parametrize("heuristic", ["rand", "pattern"])
    def test_exact_slice_path_keeps_budget(self, heuristic):
        # One character meets 16 others: a 16-layer slice whose exact path
        # alone takes longer than the budget.
        inst = make_instance([("a" + c, "t0") for c in "bcdefghijklmnopq"])
        t0 = time.monotonic()
        story, report = sw.run_pipeline(
            inst, sw.PipelineConfig(heuristic=heuristic, timeout=0.5)
        )
        assert time.monotonic() - t0 <= 0.5 + 0.25
        assert sw.validate_storyline(inst, story) == []
        assert report.crossings == sw.count_crossings(story).total

    def test_stage_times_recorded(self):
        inst = make_instance([("ab", "t0")])
        _, report = sw.run_pipeline(inst, sw.PipelineConfig())
        assert set(report.stage_seconds) == {"coloring", "ordering", "crossing"}

    def test_stage_times_sum_to_runtime(self):
        _, report = sw.run_pipeline(make_instance(PATTERN_PAIR), sw.PipelineConfig())
        assert all(s >= 0 for s in report.stage_seconds.values())
        assert sum(report.stage_seconds.values()) == pytest.approx(report.runtime)

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError, match="heuristic"):
            sw.PipelineConfig(heuristic="nope")
        for timeout in (0, -5, float("nan")):
            with pytest.raises(ValueError, match="timeout must be positive"):
                sw.PipelineConfig(timeout=timeout)


class TestLayout:
    """``layout`` by name against the direct calls it stands for."""

    @staticmethod
    def direct(inst, algorithm):
        if algorithm == "ps":
            return sw.run_pipeline(inst, sw.PipelineConfig(heuristic="rand"))
        if algorithm == "pp":
            return sw.run_pipeline(inst, sw.PipelineConfig(heuristic="pattern"))
        return sw.solve_exact(inst, formulations.EXACT_KINDS[algorithm])

    @pytest.mark.parametrize("algorithm", pipeline.ALGORITHMS)
    def test_same_storyline_and_report_as_direct_call(self, algorithm):
        rng = random.Random(32)
        corpus = [random_instance(rng, 5, 4, 3) for _ in range(4)]
        corpus += [dense_instance(rng) for _ in range(4)]
        corpus.append(cit_rung(5, 6, 2, 1))
        for inst in corpus:
            story, report = sw.layout(inst, algorithm)
            expected_story, expected = self.direct(inst, algorithm)
            assert story is not None and expected_story is not None
            assert files.storyline_text(inst, story) == files.storyline_text(
                inst, expected_story
            )
            assert report.algorithm == expected.algorithm == algorithm
            assert report.crossings == expected.crossings
            assert report.layers == expected.layers
            assert report.status == expected.status
            assert report.gap_percent == expected.gap_percent
            if expected.stage_seconds is None:
                assert report.stage_seconds is None
            else:
                assert list(report.stage_seconds) == list(expected.stage_seconds)

    @pytest.mark.parametrize("algorithm", ["quantum", "ILP1", ""])
    def test_unknown_algorithm_rejected(self, algorithm):
        inst = make_instance([("ab", "t0")])
        with pytest.raises(ValueError, match=f"unknown algorithm {algorithm!r}"):
            sw.layout(inst, algorithm)

    @pytest.mark.parametrize("algorithm", ["ilp1", "ilp2"])
    def test_cap_rejected_for_uncolored_budgets(self, algorithm):
        inst = make_instance(PATTERN_PAIR)
        with pytest.raises(ValueError, match="cap only applies to minimized layer budgets"):
            sw.layout(inst, algorithm, cap=2)

    @pytest.mark.parametrize("interactions", [PATTERN_PAIR, []], ids=["normal", "none"])
    @pytest.mark.parametrize("cap", [0, -1, 1.5, True])
    @pytest.mark.parametrize("algorithm", ["ps", "pp", "ilp1ml", "ilp2ml"])
    def test_bad_cap_rejected(self, algorithm, cap, interactions):
        # Checked up front, not where a graph gets colored: an instance
        # without interactions colors none.
        inst = make_instance(interactions, timestamps=["t0"])
        with pytest.raises(ValueError, match="cap must be None or an integer of at least 1"):
            sw.layout(inst, algorithm, cap=cap)


def hub_instance(k):
    """A hub meeting ``k`` others at t1, one per layer, between two slices
    that pair it with its first (t0) and its last (t2) partner; ``rand``
    reverses the hub slice."""
    others = [f"c{i:02d}" for i in range(k)]
    interactions = [(["h", others[0]], "t0"), (others[-2:], "t0")]
    interactions += [(["h", c], "t1") for c in others]
    interactions += [(["h", others[-1]], "t2"), (others[:2], "t2")]
    return make_instance(interactions)


def test_storylines_pinned():
    # Seeded draws plus hub slices on both sides of the exact path limit;
    # the corpus reverses five slices under "rand" and one under "pattern".
    rng = random.Random(3)
    corpus = [random_instance(rng, 6, 12, 3) for _ in range(20)]
    corpus += [dense_instance(rng) for _ in range(20)]
    corpus += [hub_instance(k) for k in (6, 9, 19, 21)]
    digest = hashlib.sha256()
    for inst in corpus:
        for heuristic in ("rand", "pattern"):
            story, report = sw.run_pipeline(
                inst, sw.PipelineConfig(heuristic=heuristic, timeout=600)
            )
            record = (story, report.crossings, report.status, report.gap_percent)
            digest.update(repr(record).encode())
    assert digest.hexdigest() == (
        "0cd6b68b93d732670842aa7cc06fee8e25ec576cddc4e86c093a9fa49494a277"
    )

import itertools
import random
import tracemalloc
from types import SimpleNamespace

import pytest

import storyweave as sw
from helpers import (
    cit_rung,
    corpus_digest,
    dense_instance,
    naive_gap_crossings,
    random_fixed_layers,
    random_instance,
    random_storyline,
    reference_fixed_orders,
    reference_min_plus,
    small_draws,
    small_enough,
    wide_fixed_layers,
)


def make_instance(interactions, characters=None, timestamps=None):
    chars = characters or sorted({c for members, _ in interactions for c in members})
    times = timestamps or sorted({t for _, t in interactions})
    return sw.validate_instance(
        {
            "characters": chars,
            "timestamps": times,
            "interactions": [
                {"characters": list(members), "time": t} for members, t in interactions
            ],
        }
    )


PATTERN_PAIR = [("ab", "t0"), ("cd", "t0"), ("ac", "t0"), ("bd", "t0")]


class TestValidateInstance:
    def test_minimal_instance(self):
        inst = make_instance([("ab", "t0")])
        assert inst.num_characters == 2
        assert inst.num_interactions == 1
        assert inst.num_timestamps == 1
        assert inst.interactions[0].characters == frozenset({0, 1})

    def test_unknown_character(self):
        with pytest.raises(sw.InstanceError) as err:
            make_instance([("az", "t0")], characters=["a"])
        assert any("unknown character 'z'" in v for v in err.value.violations)
        assert any("interactions[0]" in v for v in err.value.violations)

    def test_isolated_character(self):
        with pytest.raises(sw.InstanceError) as err:
            make_instance([("ab", "t0")], characters=["a", "b", "c"])
        assert any("isolated character 'c'" in v for v in err.value.violations)

    def test_duplicate_name_and_label(self):
        with pytest.raises(sw.InstanceError) as err:
            sw.validate_instance(
                {
                    "characters": ["a", "a"],
                    "timestamps": ["t", "t"],
                    "interactions": [{"characters": ["a"], "time": "t"}],
                }
            )
        assert any("duplicate name 'a'" in v for v in err.value.violations)
        assert any("duplicate label 't'" in v for v in err.value.violations)

    def test_empty_interaction_and_unknown_time(self):
        with pytest.raises(sw.InstanceError) as err:
            sw.validate_instance(
                {
                    "characters": ["a"],
                    "timestamps": ["t0"],
                    "interactions": [
                        {"characters": [], "time": "t0"},
                        {"characters": ["a"], "time": "nope"},
                    ],
                }
            )
        assert any("empty interaction" in v for v in err.value.violations)
        assert any("unknown timestamp 'nope'" in v for v in err.value.violations)

    def test_all_violations_collected(self):
        with pytest.raises(sw.InstanceError) as err:
            sw.validate_instance(
                {
                    "characters": ["a", "a"],
                    "timestamps": ["t0"],
                    "interactions": [{"characters": ["q"], "time": "bad"}],
                }
            )
        assert len(err.value.violations) >= 3


    @pytest.mark.parametrize(
        "doc, message",
        [
            ([], "document must be a mapping"),
            ({"characters": "ab", "timestamps": [], "interactions": []},
             "characters: missing or not a list"),
            ({"characters": [], "timestamps": None, "interactions": []},
             "timestamps: missing or not a list"),
            ({"characters": [], "timestamps": [], "interactions": {}},
             "interactions: missing or not a list"),
            ({"characters": ["a", ""], "timestamps": [], "interactions": []},
             "characters[1]: name must be a non-empty string"),
            ({"characters": [7], "timestamps": [], "interactions": []},
             "characters[0]: name must be a non-empty string"),
            ({"characters": [], "timestamps": ["t0", ""], "interactions": []},
             "timestamps[1]: label must be a non-empty string"),
            ({"characters": [], "timestamps": [None], "interactions": []},
             "timestamps[0]: label must be a non-empty string"),
            ({"characters": ["a"], "timestamps": ["t0"], "interactions": ["a"]},
             "interactions[0]: must be a mapping"),
            ({"characters": ["a"], "timestamps": ["t0"],
              "interactions": [{"characters": ["a", "a"], "time": "t0"}]},
             "interactions[0].characters: duplicate character 'a'"),
            # A lone surrogate has no UTF-8 form, and XML 1.0 forbids the
            # other characters, so no storyline file or SVG could hold them.
            ({"characters": ["b", "a\ud800"], "timestamps": [], "interactions": []},
             "characters[1]: name 'a\\ud800' has a lone surrogate or a character XML forbids"),
            ({"characters": ["a\x01b"], "timestamps": [], "interactions": []},
             "characters[0]: name 'a\\x01b' has a lone surrogate or a character XML forbids"),
            ({"characters": [], "timestamps": ["\x0b"], "interactions": []},
             "timestamps[0]: label '\\x0b' has a lone surrogate or a character XML forbids"),
            ({"characters": [], "timestamps": ["t\ufffe"], "interactions": []},
             "timestamps[0]: label 't\\ufffe' has a lone surrogate or a character XML forbids"),
        ],
        ids=[
            "not-mapping", "characters-not-list", "timestamps-not-list",
            "interactions-not-list", "empty-name", "non-string-name", "empty-label",
            "non-string-label", "interaction-not-mapping", "repeated-member",
            "surrogate-name", "control-name", "control-label", "nonchar-label",
        ],
    )
    def test_malformed_document(self, doc, message):
        with pytest.raises(sw.InstanceError) as err:
            sw.validate_instance(doc)
        assert message in err.value.violations

    def test_tab_newline_and_return_accepted(self):
        inst = make_instance([(["a\tb", "c\nd", "e\r"], "t 0\x7f")])
        assert inst.characters == ("a\tb", "c\nd", "e\r")


class TestInstanceTables:
    def test_match_first_to_last_span_definition(self):
        rng = random.Random(12)
        draws = [random_instance(rng, 6, 8, 5) for _ in range(40)]
        # cit_rung keeps timestamps that no interaction uses
        draws += [cit_rung(6, k, 6, seed) for k in (2, 4, 9) for seed in (1, 2, 3)]
        for k, inst in enumerate(draws):
            times_of = {c: [] for c in range(inst.num_characters)}
            for it in inst.interactions:
                for c in it.characters:
                    times_of[c].append(it.time)
            assert len(inst.by_time) == len(inst.potential) == inst.num_timestamps
            for t in range(inst.num_timestamps):
                at_t = tuple(it for it in inst.interactions if it.time == t)
                spanning = {c for c, ts in times_of.items() if min(ts) <= t <= max(ts)}
                assert inst.by_time[t] == at_t, f"draw {k}, t{t}"
                assert inst.potential[t] == spanning, f"draw {k}, t{t}"
            assert inst.by_time is inst.by_time and inst.potential is inst.potential


class TestValidateStoryline:
    def test_legal_single_layer(self):
        inst = make_instance([("ab", "t0")])
        story = sw.CombinatorialStoryline(
            (sw.Layer(0, (0,), (0, 1), frozenset({0, 1})),)
        )
        assert sw.validate_storyline(inst, story) == []

    def test_interaction_not_consecutive(self):
        # A bystander with no interaction of its own fails ingest, so build
        # the instance by hand to wedge it between the pair.
        inst = sw.StorylineInstance(
            characters=("a", "b", "c"),
            timestamps=("t0",),
            interactions=(sw.Interaction(0, frozenset({0, 2}), 0),),
        )
        story = sw.CombinatorialStoryline(
            (sw.Layer(0, (0,), (0, 1, 2), frozenset({0, 1, 2})),)
        )
        problems = sw.validate_storyline(inst, story)
        assert any("not consecutive" in p for p in problems)

    def test_layer_interactions_intersect(self):
        inst = make_instance([("ab", "t0"), ("ac", "t0")])
        story = sw.CombinatorialStoryline(
            (
                sw.Layer(
                    0, (0, 1), (1, 0, 2), frozenset({0, 1, 2})
                ),
            )
        )
        problems = sw.validate_storyline(inst, story)
        assert any("interactions intersect" in p for p in problems)

    def test_missing_and_duplicate_placement(self):
        inst = make_instance([("ab", "t0"), ("ab", "t1")])
        layer = sw.Layer(0, (0, 0), (0, 1), frozenset({0, 1}))
        problems = sw.validate_storyline(inst, sw.CombinatorialStoryline((layer,)))
        assert any("placed twice" in p for p in problems)
        assert any("interaction 1 not placed" in p for p in problems)

    def test_rejected_layer_still_places_its_interactions(self):
        inst = make_instance([("ab", "t0")])
        layer = sw.Layer(0, (0,), (0, 0), frozenset({0, 1}))
        assert sw.validate_storyline(inst, sw.CombinatorialStoryline((layer,))) == [
            "layers[0]: order is not a permutation of the active set"
        ]

    def test_unknown_timestamp_layer_still_places_its_interactions(self):
        inst = make_instance([("ab", "t0"), ("ab", "t1")])
        layers = (
            sw.Layer(0, (0,), (0, 1), frozenset({0, 1})),
            sw.Layer(7, (1, 0), (0, 1), frozenset({0, 1})),
        )
        assert sw.validate_storyline(inst, sw.CombinatorialStoryline(layers)) == [
            "layers[1]: interaction 0 placed twice",
            "layers[1]: unknown timestamp index 7",
        ]

    def test_activity_gap_detected(self):
        inst = make_instance([("ab", "t0"), ("b", "t1"), ("ab", "t2")])
        layers = (
            sw.Layer(0, (0,), (0, 1), frozenset({0, 1})),
            sw.Layer(1, (1,), (1,), frozenset({1})),
            sw.Layer(2, (2,), (0, 1), frozenset({0, 1})),
        )
        problems = sw.validate_storyline(inst, sw.CombinatorialStoryline(layers))
        assert any("activity not contiguous" in p for p in problems)

    def test_decreasing_timestamps(self):
        inst = make_instance([("ab", "t0"), ("ab", "t1")])
        layers = (
            sw.Layer(1, (1,), (0, 1), frozenset({0, 1})),
            sw.Layer(0, (0,), (0, 1), frozenset({0, 1})),
        )
        problems = sw.validate_storyline(inst, sw.CombinatorialStoryline(layers))
        assert any("decrease" in p for p in problems)

    def test_empty_layer_rejected(self):
        inst = make_instance([("ab", "t0")])
        layers = (
            sw.Layer(0, (0,), (0, 1), frozenset({0, 1})),
            sw.Layer(0, (), (), frozenset()),
        )
        problems = sw.validate_storyline(inst, sw.CombinatorialStoryline(layers))
        assert any("empty layer" in p for p in problems)

    def test_accepts_generated_storylines(self):
        rng = random.Random(11)
        for _ in range(50):
            inst = random_instance(rng)
            story = random_storyline(rng, inst)
            assert sw.validate_storyline(inst, story) == []

    @pytest.mark.parametrize(
        "layer, message",
        [
            (sw.Layer(5, (0,), (0, 1), frozenset({0, 1})),
             "layers[0]: unknown timestamp index 5"),
            (sw.Layer(0, (0,), (0, 0), frozenset({0, 1})),
             "layers[0]: order is not a permutation of the active set"),
            (sw.Layer(0, (0, 7), (0, 1), frozenset({0, 1})),
             "layers[0]: unknown interaction id 7"),
            (sw.Layer(0, (1,), (1, 2), frozenset({1, 2})),
             "layers[0]: interaction 1 not at the layer timestamp"),
            (sw.Layer(0, (0,), (0,), frozenset({0})),
             "layers[0]: interaction 0 characters missing from active set"),
            (sw.Layer(0, (0,), (0, 1, 99), frozenset({0, 1, 99})),
             "layers[0]: unknown character id 99"),
            (sw.Layer(0, (0,), (-1, 0, 1), frozenset({-1, 0, 1})),
             "layers[0]: unknown character id -1"),
            (sw.Layer(0, (0,), (-1, 0, 1, 3), frozenset({-1, 0, 1, 3})),
             "layers[0]: unknown character id -1, 3"),
        ],
        ids=["unknown-time", "not-permutation", "unknown-id", "other-time", "missing-member",
             "character-above", "character-below", "characters-both"],
    )
    def test_malformed_layer(self, layer, message):
        inst = make_instance([("ab", "t0"), ("bc", "t1")])
        assert message in sw.validate_storyline(inst, sw.CombinatorialStoryline((layer,)))


def layer(order, time=0, interactions=(), active=None):
    return sw.Layer(
        time=time,
        interactions=tuple(interactions),
        order=tuple(order),
        active=frozenset(active if active is not None else order),
    )


class TestCountCrossings:
    def test_identical_orders(self):
        story = sw.CombinatorialStoryline((layer([0, 1, 2]), layer([0, 1, 2])))
        counted = sw.count_crossings(story)
        assert counted.total == 0
        assert counted.per_gap == (0,)

    def test_single_swap(self):
        story = sw.CombinatorialStoryline((layer([0, 1]), layer([1, 0])))
        assert sw.count_crossings(story).total == 1

    def test_rotation_counts_two(self):
        # Checked against the pairwise reference: of the pairs {01, 02, 12}
        # exactly {0,2} and {1,2} flip between [0,1,2] and [2,0,1].
        left = layer([0, 1, 2])
        right = layer([2, 0, 1])
        assert naive_gap_crossings(left, right) == 2
        story = sw.CombinatorialStoryline((left, right))
        assert sw.count_crossings(story).total == 2

    def test_only_common_characters_count(self):
        left = layer([0, 1, 2])
        right = layer([3, 1, 0])
        # common = {0, 1}, flipped once
        assert sw.gap_crossings(left, right) == 1

    def test_total_is_sum_of_gaps(self):
        rng = random.Random(5)
        for _ in range(50):
            inst = random_instance(rng)
            story = random_storyline(rng, inst)
            counted = sw.count_crossings(story)
            assert counted.total == sum(counted.per_gap)

    def test_matches_naive_pairwise_reference(self):
        rng = random.Random(6)
        for _ in range(100):
            inst = random_instance(rng)
            story = random_storyline(rng, inst)
            counted = sw.count_crossings(story)
            naive = [
                naive_gap_crossings(a, b)
                for a, b in zip(story.layers, story.layers[1:])
            ]
            assert list(counted.per_gap) == naive

    def test_long_layers_match_naive_pairwise_reference(self):
        rng = random.Random(7)
        for _ in range(20):
            chars = range(rng.randint(30, 100) + 10)
            left = layer(rng.sample(chars, len(chars) - 10))
            right = layer(rng.sample(chars, len(chars) - rng.randint(0, 10)))
            assert sw.gap_crossings(left, right) == naive_gap_crossings(left, right)

    def test_reversal_symmetry(self):
        rng = random.Random(7)
        for _ in range(50):
            inst = random_instance(rng)
            story = random_storyline(rng, inst)
            flipped = sw.CombinatorialStoryline(
                tuple(
                    sw.Layer(l.time, l.interactions, tuple(reversed(l.order)), l.active)
                    for l in story.layers
                )
            )
            assert sw.count_crossings(story).total == sw.count_crossings(flipped).total


class TestBruteForceOptimum:
    def test_single_interaction(self):
        assert sw.brute_force_optimum(make_instance([("ab", "t0")])) == 0

    def test_repeated_pair_two_timestamps(self):
        inst = make_instance([("ab", "t0"), ("ab", "t1")])
        assert sw.brute_force_optimum(inst) == 0

    def test_pattern_instance_two_layers_forced(self):
        inst = make_instance(PATTERN_PAIR)
        # Two conflict-free layers at one timestamp: the unavoidable pattern.
        assert sw.brute_force_optimum(inst, budgets={0: 2}) >= 1

    def test_pattern_instance_free_layers_still_crosses(self):
        inst = make_instance(PATTERN_PAIR)
        assert sw.brute_force_optimum(inst) >= 1

    def test_minimal_activity_never_worse(self):
        for inst, _budgets in small_draws(8, ("span", "minimal"), draws=30):
            span = sw.brute_force_optimum(inst, "span")
            minimal = sw.brute_force_optimum(inst, "minimal")
            assert minimal <= span

    def test_guard_raises(self, monkeypatch):
        # 12,708 min-plus terms with span activity and chromatic budgets.
        inst = cit_rung(5, 6, 2, 1)
        budgets = sw.layer_budget(inst, minimize=True)
        monkeypatch.setattr(sw.core, "EXHAUSTIVE_GUARD", 12_707)
        with pytest.raises(sw.SearchSpaceError, match="over 12707 min-plus terms"):
            sw.brute_force_optimum(inst, "span", budgets)
        monkeypatch.setattr(sw.core, "EXHAUSTIVE_GUARD", 12_708)
        assert sw.brute_force_optimum(inst, "span", budgets) == 1
        # A layer with more orders than the guard is refused before they
        # are listed.
        inst = make_instance([("abcdefgh", "t0")])  # 8! orders
        monkeypatch.setattr(sw.core, "EXHAUSTIVE_GUARD", 10_000)
        with pytest.raises(sw.SearchSpaceError, match="10000\\+ layer orders"):
            sw.brute_force_optimum(inst)
        monkeypatch.undo()
        assert sw.brute_force_optimum(inst) == 0

    def test_budget_below_chromatic_number(self):
        inst = make_instance([("ab", "t0"), ("bc", "t0")])
        with pytest.raises(ValueError, match="below the chromatic number"):
            sw.brute_force_optimum(inst, budgets={0: 1})
        # A timestamp missing from the budgets gets 0 layers.
        inst = make_instance([("ab", "t0"), ("ab", "t1")])
        with pytest.raises(ValueError, match="budget 0 is below .* at timestamp 1"):
            sw.brute_force_optimum(inst, budgets={0: 1})

    def test_empty_instance(self):
        empty = sw.validate_instance({"characters": [], "timestamps": [], "interactions": []})
        assert sw.brute_force_optimum(empty) == 0

    def test_plans_generated_lazily(self):
        # 545,835 ordered plans at t0; the first (all eight in one layer)
        # already reaches 0.  Listing every plan first peaked at 54 MB
        # under tracemalloc.
        inst = make_instance([(c, "t0") for c in "abcdefgh"] + [("a", "t1")])
        tracemalloc.start()
        try:
            optimum = sw.brute_force_optimum(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert optimum == 0
        assert peak < 2_000_000

    def test_many_timestamps_within_guard(self, monkeypatch):
        # 13 plans at each of 12 timestamps: 13**12 layer sequences, which
        # the DP never lists.  The pattern pair at the end crosses once with
        # span activity; minimal activity avoids it (as with 1 or 2 leading
        # timestamps, small enough to enumerate).
        inst = make_instance(
            [(c, f"t{k:02d}") for k in range(12) for c in "abc"]
            + [("ab", "t12"), ("cd", "t12"), ("ac", "t13"), ("bd", "t13")]
        )
        monkeypatch.setattr(sw.core, "EXHAUSTIVE_GUARD", 100_000)
        assert sw.brute_force_optimum(inst, "span") == 1
        assert sw.brute_force_optimum(inst, "minimal") == 0

    @pytest.mark.parametrize(
        "rung, optima", [((5, 6, 2), (1, 0)), ((8, 12, 4), (9, 5))], ids=["5-6-2", "8-12-4"]
    )
    def test_rung_optima_under_default_guard(self, rung, optima):
        # The 8/12/4 optima equal the ilp1ml and ilp2ml optima.
        inst = cit_rung(*rung, 1)
        budgets = sw.layer_budget(inst, minimize=True)
        for mode, expected in zip(("span", "minimal"), optima):
            assert sw.brute_force_optimum(inst, mode, budgets) == expected

    def test_matches_pinned_corpus(self):
        # 400 draws x both activity modes x both budget kinds, kept where
        # full enumeration stays within 300,000 (1,293 cases); the digest
        # was recorded from that enumeration.
        rng = random.Random(19)
        rows = []
        for k in range(400):
            inst = dense_instance(rng) if k % 2 else random_instance(rng)
            chromatic = sw.layer_budget(inst, minimize=True)
            for mode in ("span", "minimal"):
                for kind, budgets in (("one per interaction", None), ("chromatic", chromatic)):
                    if small_enough(inst, mode, budgets, 300_000):
                        value = sw.brute_force_optimum(inst, mode, budgets)
                        rows.append([inst, mode, kind, value])
        assert len(rows) == 1293
        assert corpus_digest(rows) == (
            "5d43b5b1607643a9a65f8a0464b7781d1a65bd4ee050e1472dbd221d51490601"
        )

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="activity mode"):
            sw.brute_force_optimum(make_instance([("ab", "t0")]), "weird")


class TestOrderFixedLayers:
    def test_keeps_one_order_per_gate_class(self):
        # Seven lone characters at t0 share no pair with later layers, so
        # their 5,040 orders form one class; the p/q/r/s pattern makes the
        # start cost 1 and the DP run.  Storing every order peaked at
        # 1.42 MB under tracemalloc.
        inst = make_instance(
            [(c, "t0") for c in "abcdefg"]
            + [("a", "t1"), ("pq", "t2"), ("rs", "t2"), ("pr", "t3"), ("qs", "t3")]
        )
        tracemalloc.start()
        try:
            _story, report = sw.run_pipeline(inst, sw.PipelineConfig(timeout=600))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (report.crossings, report.status) == (1, "optimal")
        assert peak < 1_418_000 / 2

    def test_matches_enumeration(self):
        rng = random.Random(31)
        for _ in range(200):
            layers = random_fixed_layers(rng)
            orders, cost, proven = sw.order_fixed_layers(layers)
            assert proven
            assert (orders, cost) == reference_fixed_orders(layers)

    def test_pinned_on_wide_layers(self):
        # Draws too wide for test_matches_enumeration, each with a start that
        # crosses, a layer linked to no neighbour and many tied optima; the
        # digest was recorded before the DP's tables were built per block
        # and its minimum taken over crossings first.
        rng = random.Random(41)
        rows = []
        while len(rows) < 60:
            layers = wide_fixed_layers(rng)
            if sw.order_fixed_layers(layers, deadline=0.0)[1]:
                rows.append(sw.order_fixed_layers(layers))
        assert sum(cost == 0 for _orders, cost, _proven in rows) == 41
        assert all(proven for _orders, _cost, proven in rows)
        assert corpus_digest(rows) == (
            "35ec5c37cb28b60c7589c32daa515a8288f26b9261418af39c722af21a7c4cd6"
        )

    def test_gate_zero_lists_no_order(self, monkeypatch):
        # A layer that shares no pair with its neighbours forms one class,
        # whose entry is its candidate with the least order bits; it must
        # come without listing a single order.
        rng = random.Random(43)
        cases = []
        for _ in range(100):
            active = rng.sample(range(7), rng.randint(1, 7))
            groups = []
            while len(active) > 1 and rng.random() < 0.5:
                size = rng.randint(2, min(3, len(active)))
                groups.append(frozenset(active[:size]))
                active = active[size:]
            layer = (groups, frozenset(active).union(*groups))
            cases.append((layer, reference_fixed_orders([layer])[0][0]))

        def refuse(*_args):
            raise AssertionError("a gate of 0 listed the orders")

        monkeypatch.setattr(sw.core, "_layer_orders", refuse)
        pairs = list(itertools.combinations(range(7), 2))
        bit = {p: 1 << (len(pairs) - 1 - k) for k, p in enumerate(pairs)}
        for (groups, active), order in cases:
            pos = {c: k for k, c in enumerate(order)}
            mask = sum(
                bit[u, v] for u, v in itertools.combinations(sorted(active), 2) if pos[u] < pos[v]
            )
            runs = sw.core._blocks(groups, active)
            assert sw.core._gate_classes(runs, bit, 0) == {0: mask}, (groups, active)

    def test_descending_start_without_proof(self):
        # Two layers of the unavoidable pattern: {0,1} and {2,3} paired, then
        # {0,2} and {1,3} paired.
        layers = [
            ([frozenset({0, 1}), frozenset({2, 3})], frozenset(range(4))),
            ([frozenset({0, 2}), frozenset({1, 3})], frozenset(range(4))),
        ]
        start = [(3, 2, 1, 0), (3, 1, 2, 0)]
        assert sw.order_fixed_layers(layers, deadline=0.0) == (start, 1, False)
        assert sw.order_fixed_layers(layers) == (start, 1, True)

    def test_guard_returns_oracle_cost_of_start(self):
        rng = random.Random(32)
        draws = [random_fixed_layers(rng) for _ in range(100)]
        inst = cit_rung(30, 100, 20, 1)
        draws.append([([it.characters for it in inst.by_time[t]], inst.potential[t])
                      for t in range(inst.num_timestamps) if inst.by_time[t]])
        for k, layers in enumerate(draws):
            orders, cost, proven = sw.order_fixed_layers(layers, deadline=0.0)
            story = sw.CombinatorialStoryline(tuple(
                sw.Layer(li, (), order, act)
                for li, (order, (_g, act)) in enumerate(zip(orders, layers))
            ))
            assert cost == sw.count_crossings(story).total, f"draw {k}"
            assert proven == (cost == 0), f"draw {k}"

    def test_deadline_inside_dp_returns_start(self, monkeypatch):
        # Building the DP's tables reads the clock once per candidate order,
        # 8 per layer here; a counting clock passes the deadline at the
        # first read after them, inside the DP.
        layers = [
            ([frozenset({0, 1}), frozenset({2, 3})], frozenset(range(4))),
            ([frozenset({0, 2}), frozenset({1, 3})], frozenset(range(4))),
        ]
        ticks = itertools.count(1)
        monkeypatch.setattr(sw.core, "time", SimpleNamespace(monotonic=lambda: next(ticks)))
        result = sw.order_fixed_layers(layers, deadline=16)
        assert result == ([(3, 2, 1, 0), (3, 1, 2, 0)], 1, False)
        assert next(ticks) == 18

    def test_optimal_start_is_kept(self):
        # The start flips pair (1, 2) in the first gap; flipping it in the
        # last gap costs the same and has the smaller key, but the optimal
        # start wins.
        everyone = frozenset(range(3))
        layers = [
            ([frozenset({0, 2})], everyone),
            ([frozenset({1, 2})], everyone),
            ([], everyone),
            ([frozenset({0, 1})], everyone),
        ]
        start = [(1, 2, 0), (2, 1, 0), (2, 1, 0), (2, 1, 0)]
        assert sw.order_fixed_layers(layers) == (start, 1, True)
        assert reference_fixed_orders(layers) == (start, 1)

    def test_no_layers(self):
        assert sw.order_fixed_layers([]) == ([], 0, True)


class TestMinPlus:
    def test_matches_every_path(self):
        # Masks of 4 bits make ties common: in 212 of the 300 draws some exit
        # class has several paths of least crossings, and 220 draws have
        # several exit classes.  Entry keys lie above every field.
        rng = random.Random(47)
        multi_exit = 0
        for _ in range(300):
            width, n = 4, rng.randint(1, 3)
            gates = [rng.randrange(16) for _ in range(n + 1)]
            tables = [dict(enumerate(rng.sample(range(16), rng.randint(1, 6)))) for _ in range(n)]
            states = {
                m: (rng.randint(0, 2), rng.randrange(4) << 2 * n * width)
                for m in rng.sample(range(16), rng.randint(1, 4))
            }
            for w in (width, 0):
                expected = reference_min_plus(states, tables, gates, w)
                assert sw.core._min_plus(states, tables, gates, w) == expected
            multi_exit += len(expected) > 1
        assert multi_exit > 100

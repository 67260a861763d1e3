import hashlib
import itertools
import random
import time

import pytest

import storyweave as sw
from helpers import brute_chromatic, wide_instances
from storyweave.coloring import greedy_clique
from test_core import make_instance


def graph(n, edges):
    return sw.ConflictGraph(tuple(range(n)), tuple(tuple(sorted(e)) for e in edges))


def random_graph(rng, max_nodes=8):
    n = rng.randint(0, max_nodes)
    edges = [
        (a, b)
        for a, b in itertools.combinations(range(n), 2)
        if rng.random() < rng.choice([0.2, 0.5, 0.8])
    ]
    return graph(n, edges)


class TestConflictGraph:
    def test_chain_of_shared_characters(self):
        inst = make_instance([("ab", "t0"), ("bc", "t0"), ("cd", "t0")])
        g = sw.build_conflict_graph(inst, 0)
        assert g.nodes == (0, 1, 2)
        assert g.edges == ((0, 1), (1, 2))

    def test_disjoint_interactions(self):
        inst = make_instance([("ab", "t0"), ("cd", "t0"), ("ef", "t0")])
        assert sw.build_conflict_graph(inst, 0).edges == ()

    def test_single_interaction(self):
        inst = make_instance([("ab", "t0")])
        g = sw.build_conflict_graph(inst, 0)
        assert g.nodes == (0,)
        assert g.edges == ()

    def test_only_requested_timestamp(self):
        inst = make_instance([("ab", "t0"), ("ab", "t1")])
        assert sw.build_conflict_graph(inst, 1).nodes == (1,)


class TestMinColoring:
    def test_path_needs_two_colors(self):
        g = graph(3, [(0, 1), (1, 2)])
        col = sw.min_coloring(g)
        assert col.num_colors == 2
        assert col.assignment[0] != col.assignment[1]
        assert col.assignment[1] != col.assignment[2]

    def test_edgeless_capped(self):
        col = sw.min_coloring(graph(4, []), cap=2)
        assert col.num_colors == 2
        sizes = [len(c) for c in col.classes()]
        assert sorted(sizes) == [2, 2]

    def test_empty_graph(self):
        assert sw.min_coloring(graph(0, [])).num_colors == 0

    def test_cap_one_gives_singletons(self):
        col = sw.min_coloring(graph(5, [(0, 1)]), cap=1)
        assert col.num_colors == 5

    def test_cap_rejects_zero(self):
        with pytest.raises(ValueError):
            sw.min_coloring(graph(2, []), cap=0)

    def test_matches_reference_chromatic_number(self):
        rng = random.Random(0)
        for k in range(120):
            g = random_graph(rng)
            expected = brute_chromatic(list(g.nodes), {frozenset(e) for e in g.edges})
            col = sw.min_coloring(g)
            assert col.num_colors == expected, f"graph {k}: {g.edges}"
            for a, b in g.edges:
                assert col.assignment[a] != col.assignment[b]

    def test_capped_matches_reference(self):
        rng = random.Random(1)
        for _ in range(60):
            g = random_graph(rng, max_nodes=6)
            cap = rng.randint(1, 3)
            expected = brute_chromatic(
                list(g.nodes), {frozenset(e) for e in g.edges}, cap=cap
            )
            col = sw.min_coloring(g, cap=cap)
            assert col.num_colors == expected
            for cls in col.classes():
                assert len(cls) <= cap

    def test_cap_monotone(self):
        rng = random.Random(2)
        for _ in range(30):
            g = random_graph(rng, max_nodes=6)
            if not g.nodes:
                continue
            uncapped = sw.min_coloring(g).num_colors
            previous = None
            for cap in range(1, len(g.nodes) + 1):
                k = sw.min_coloring(g, cap=cap).num_colors
                assert k >= uncapped
                if previous is not None:
                    assert k <= previous
                previous = k

    def test_deterministic(self):
        g = graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)])
        assert sw.min_coloring(g) == sw.min_coloring(g)

    def test_color_indices_dense(self):
        g = graph(5, [(0, 1), (2, 3)])
        col = sw.min_coloring(g, cap=2)
        assert set(col.assignment.values()) == set(range(col.num_colors))

    # The classes, not just their number, fix the pipeline's layers and their
    # order (and so tests/data/golden.svg): color numbering must not drift.
    @pytest.mark.parametrize(
        "n, edges, cap, classes",
        [
            (2, [(0, 1)], None, [[1], [0]]),
            (3, [(0, 1), (1, 2)], None, [[1], [0, 2]]),
            (3, [(0, 1), (1, 2), (0, 2)], None, [[2], [1], [0]]),
            (5, [(0, 1)], 2, [[4], [1, 3], [0, 2]]),
        ],
    )
    def test_exact_classes(self, n, edges, cap, classes):
        assert sw.min_coloring(graph(n, edges), cap=cap).classes() == classes

    # Graphs of at most two nodes have a closed-form answer; the search must
    # give it, down to the order of the assignment.
    @pytest.mark.parametrize("cap", [None, 1, 2])
    @pytest.mark.parametrize(
        "nodes, edges",
        [((), ()), ((7,), ()), ((5, 3), ()), ((5, 3), ((5, 3),))],
    )
    def test_tiny_graphs_match_the_search(self, nodes, edges, cap):
        col = sw.min_coloring(sw.ConflictGraph(nodes, edges), cap)
        # Two nodes share color 0 unless they are adjacent or ``cap`` is 1,
        # and then the first one takes color 1.
        if len(nodes) == 2 and (edges or cap == 1):
            expected = (2, [(nodes[0], 1), (nodes[1], 0)])
        else:
            expected = (min(len(nodes), 1), [(v, 0) for v in nodes])
        assert (col.num_colors, list(col.assignment.items())) == expected

    def test_hard_graph_is_fast(self):
        # A 13-node, 40-edge conflict graph with chromatic number 7 that once
        # took about 50 s to color.
        edges = [
            (0, 1), (0, 3), (0, 4), (0, 6), (0, 8), (0, 12), (1, 4), (1, 5),
            (1, 7), (1, 8), (1, 9), (1, 10), (1, 11), (1, 12), (2, 9), (2, 11),
            (2, 12), (3, 6), (4, 12), (5, 7), (5, 8), (5, 9), (5, 10), (5, 12),
            (6, 8), (6, 9), (6, 11), (6, 12), (7, 8), (7, 9), (7, 10), (7, 11),
            (7, 12), (8, 9), (8, 10), (8, 12), (9, 10), (9, 11), (9, 12), (10, 12),
        ]
        started = time.monotonic()
        col = sw.min_coloring(graph(13, edges))
        assert time.monotonic() - started < 2.0
        assert col.classes() == [
            [12], [10], [9], [8, 11], [4, 6, 7], [1, 3], [0, 2, 5]
        ]

    def test_colorings_pinned(self):
        # SHA-256 recorded from the search that tried every palette from
        # ceil(n / cap) (1 without a cap) up; starting higher must not
        # change a single color.
        rng = random.Random(9)
        digest = hashlib.sha256()
        for _ in range(400):
            n = rng.randint(0, 14)
            p = rng.choice([0.2, 0.5, 0.8])
            g = graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])
            cap = rng.choice([None, 1, 2, 3])
            digest.update(repr(sw.min_coloring(g, cap).assignment).encode())
        for inst in wide_instances():
            for t in range(inst.num_timestamps):
                col = sw.min_coloring(sw.build_conflict_graph(inst, t))
                digest.update(repr(col.assignment).encode())
        assert digest.hexdigest() == (
            "18d3b452708fc32f832bf70899131075201ff79e8437cfc323b6c46ff95c8af8"
        )


class TestGreedyClique:
    def test_is_a_clique_within_chromatic_number(self):
        rng = random.Random(4)
        for k in range(300):
            g = random_graph(rng, max_nodes=7)
            edges = {frozenset(e) for e in g.edges}
            clique = greedy_clique(g)
            assert len(set(clique)) == len(clique) and set(clique) <= set(g.nodes)
            assert all(frozenset(e) in edges for e in itertools.combinations(clique, 2))
            assert len(clique) <= brute_chromatic(list(g.nodes), edges), f"graph {k}"
            assert bool(clique) == bool(g.nodes)

    def test_finds_the_shared_character_clique(self):
        # Interactions 0-3 all hold character "a", so they pairwise conflict.
        inst = make_instance(
            [("ab", "t0"), ("ac", "t0"), ("ad", "t0"), ("ae", "t0"), ("bc", "t0"), ("fg", "t0")]
        )
        assert greedy_clique(sw.build_conflict_graph(inst, 0)) == (0, 1, 2, 3)


class TestLayerBudget:
    def test_disjoint_minimized(self):
        inst = make_instance([("ab", "t0"), ("cd", "t0"), ("ef", "t0")])
        assert sw.layer_budget(inst, minimize=True) == {0: 1}

    def test_disjoint_unminimized_one_slot_each(self):
        inst = make_instance([("ab", "t0"), ("cd", "t0"), ("ef", "t0")])
        assert sw.layer_budget(inst, minimize=False) == {0: 3}

    def test_total_relation(self):
        rng = random.Random(3)
        from helpers import random_instance

        for _ in range(30):
            inst = random_instance(rng)
            minimized = sum(sw.layer_budget(inst, minimize=True).values())
            full = sum(sw.layer_budget(inst, minimize=False).values())
            assert minimized <= full == inst.num_interactions

    def test_cap_rejected_for_uncolored_budgets(self):
        inst = make_instance([("ab", "t0"), ("cd", "t0")])
        with pytest.raises(ValueError, match="cap"):
            sw.layer_budget(inst, minimize=False, cap=1)

    def test_empty_timestamp_gets_zero(self):
        inst = make_instance([("ab", "t1")], timestamps=["t0", "t1"])
        assert sw.layer_budget(inst, minimize=True) == {0: 0, 1: 1}

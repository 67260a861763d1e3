"""Acceptance criteria, one test per criterion.

Each test prints a single ``[criterion NN] ... PASS`` line on success (run
pytest with ``-s`` or ``-rA`` to see them).  Criterion 10 needs externally
reconstructed datasets and is skipped, without failing the suite, unless
``STORYWEAVE_DATASETS`` points at a directory containing them.
"""

import functools
import itertools
import os
import random
from fractions import Fraction
from pathlib import Path

import pytest

import storyweave as sw
import storyweave.bip as bip
from storyweave import files
from storyweave.render import GAP_BETWEEN, GAP_WITHIN
from helpers import (
    brute_best_path,
    brute_chromatic,
    enumerate_binary_optimum,
    oracle_corpus,
    random_instance,
)
from test_bip import hard_cover_program, random_program
from test_coloring import random_graph
from test_core import PATTERN_PAIR, make_instance
from test_ordering import WORKED_LEFT, WORKED_RIGHT, random_layer, weight_graph

CORPUS_SIZE = 220


def criterion(number, title):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {number:02d}] {title}: FAIL")
                raise
            print(f"[criterion {number:02d}] {title}: PASS")

        return run

    return wrap


@pytest.fixture(scope="module")
def corpus():
    return oracle_corpus(seed=2024, count=CORPUS_SIZE)


@pytest.fixture(scope="module")
def exact_results(corpus):
    """Optimal crossing numbers of all four formulations over the corpus."""
    out = {kind.name: [] for kind in (sw.ILP1, sw.ILP1ML, sw.ILP2, sw.ILP2ML)}
    for inst, _expected in corpus:
        for kind in (sw.ILP1, sw.ILP1ML, sw.ILP2, sw.ILP2ML):
            story, report = sw.solve_exact(inst, kind, timeout=300)
            assert report.status == "optimal"
            assert sw.validate_storyline(inst, story) == []
            out[kind.name].append(report.crossings)
    return out


@criterion(1, "exactness: ilp1 equals the exhaustive optimum")
def test_criterion_01_oracle_equivalence(corpus, exact_results):
    assert len(corpus) >= 200
    for (inst, expected), got in zip(corpus, exact_results["ilp1"]):
        assert got == expected, f"{got} != {expected} on {inst}"


@criterion(2, "formulation dominance over the corpus")
def test_criterion_02_dominance(corpus, exact_results):
    r = exact_results
    for k in range(len(corpus)):
        assert r["ilp2"][k] <= r["ilp1"][k]
        assert r["ilp1"][k] <= r["ilp1ml"][k]
        assert r["ilp2"][k] <= r["ilp2ml"][k]


@criterion(3, "unavoidable crossing pattern forces one crossing")
def test_criterion_03_unavoidable_pattern():
    assert sw.pattern_count(WORKED_LEFT, WORKED_RIGHT) == 1
    inst = make_instance(PATTERN_PAIR)
    two_layers = {0: 2}
    for mode in ("span", "minimal"):
        assert sw.brute_force_optimum(inst, mode, budgets=two_layers) >= 1
    for kind in (sw.ILP1, sw.ILP1ML, sw.ILP2, sw.ILP2ML):
        program, cat = sw.build_model(inst, kind, two_layers)
        result = bip.solve(program, timeout=120)
        assert result.status == bip.OPTIMAL
        story = sw.decode(inst, cat, result)
        assert sw.count_crossings(story).total >= 1


@criterion(4, "rand index value, identity and symmetry")
def test_criterion_04_rand_index():
    assert sw.rand_index(WORKED_LEFT, WORKED_RIGHT) == Fraction(1, 3)
    assert sw.rand_index(WORKED_LEFT, WORKED_LEFT) == 1
    rng = random.Random(41)
    for _ in range(1000):
        a = random_layer(rng)
        b = random_layer(rng)
        r = sw.rand_index(a, b)
        assert r == sw.rand_index(b, a)
        assert 0 <= r <= 1


@criterion(5, "coloring matches the reference chromatic number")
def test_criterion_05_coloring(corpus):
    rng = random.Random(42)
    for _ in range(500):
        g = random_graph(rng, max_nodes=8)
        expected = brute_chromatic(list(g.nodes), {frozenset(e) for e in g.edges})
        assert sw.min_coloring(g).num_colors == expected
    for _ in range(50):
        g = random_graph(rng, max_nodes=8)
        assert sw.min_coloring(g, cap=1).num_colors == len(g.nodes)
    for inst, _ in corpus[:50]:
        minimized = sum(sw.layer_budget(inst, minimize=True).values())
        assert minimized <= inst.num_interactions


@criterion(6, "path ordering matches full enumeration")
def test_criterion_06_path_tsp():
    rng = random.Random(43)
    for _ in range(200):
        n = rng.randint(1, 8)
        matrix = [[0] * n for _ in range(n)]
        for i, j in itertools.combinations(range(n), 2):
            matrix[i][j] = matrix[j][i] = rng.randint(0, 9)
        expected_cost, expected_path = brute_best_path(matrix)
        order = sw.min_path_order(weight_graph(matrix))
        cost = sum(matrix[a][b] for a, b in itertools.pairwise(order))
        assert cost == expected_cost
        assert order == expected_path


@criterion(7, "pipeline outputs are legal and never beat the exact bound")
def test_criterion_07_pipeline(corpus, exact_results):
    for (inst, _), bound in zip(corpus, exact_results["ilp1ml"]):
        for heuristic in ("rand", "pattern"):
            story, report = sw.run_pipeline(
                inst, sw.PipelineConfig(heuristic=heuristic, timeout=120)
            )
            assert sw.validate_storyline(inst, story) == []
            assert report.crossings >= bound


@criterion(8, "solver equals full enumeration and reports honest gaps")
def test_criterion_08_solver(corpus):
    rng = random.Random(44)
    for _ in range(300):
        p = random_program(rng)
        expected = enumerate_binary_optimum(p)
        res = bip.solve(p, timeout=120)
        if expected is None:
            assert res.status == bip.INFEASIBLE
        else:
            assert res.status == bip.OPTIMAL
            assert res.objective_value == expected
    res = bip.solve(hard_cover_program(), timeout=0.3)
    assert res.status == bip.FEASIBLE_TIMEOUT
    assert res.best_lower_bound <= res.objective_value
    assert bip.gap_percent(44, 0) == 100.0


@criterion(9, "geometry reproduces the combinatorial crossings and gaps")
def test_criterion_09_render(corpus):
    rng = random.Random(45)
    done = 0
    while done < 100:
        inst = random_instance(rng)
        story, _ = sw.run_pipeline(inst, sw.PipelineConfig(timeout=60))
        g = sw.assign_coordinates(story, inst)
        geo_crossings = 0
        for li in range(len(story.layers) - 1):
            a, b = story.layers[li], story.layers[li + 1]
            for u, v in itertools.combinations(sorted(a.active & b.active), 2):
                if (g.ys[(u, li)] < g.ys[(v, li)]) != (
                    g.ys[(u, li + 1)] < g.ys[(v, li + 1)]
                ):
                    geo_crossings += 1
        assert geo_crossings == sw.count_crossings(story).total
        for li, layer in enumerate(story.layers):
            owner = {}
            for iid in layer.interactions:
                for c in inst.interactions[iid].characters:
                    owner[c] = iid
            for above, below in itertools.pairwise(layer.order):
                gap = g.ys[(below, li)] - g.ys[(above, li)]
                same = above in owner and owner.get(above) == owner.get(below)
                minimum = GAP_WITHIN if same else GAP_BETWEEN
                assert gap >= minimum - 1e-9
        done += 1


DATASET_DIR = os.environ.get("STORYWEAVE_DATASETS")

TABLE_STATS = {
    # dataset: (interactions, characters, timestamps, coloring layers)
    "gdea10": (41, 9, 16, 35),
    "gdea20": (100, 19, 17, 47),
    "ubiq1": (41, 5, 19, 41),
    "ubiq2": (45, 5, 18, 38),
    "anna1": (58, 41, 34, 53),
    "jean1": (95, 40, 65, 88),
    "huck": (107, 74, 43, 81),
}


@pytest.mark.skipif(
    not DATASET_DIR,
    reason="reconstructed datasets not provided (set STORYWEAVE_DATASETS); "
    "this criterion is documented as non-blocking",
)
@criterion(10, "reconstructed dataset statistics match the published table")
def test_criterion_10_external_datasets():
    found = 0
    for name, (m, n, p, layers) in TABLE_STATS.items():
        path = Path(DATASET_DIR) / f"{name}.json"
        if not path.exists():
            continue
        found += 1
        inst = files.load_instance(path)
        assert inst.num_interactions == m, name
        assert inst.num_characters == n, name
        assert inst.num_timestamps == p, name
        budgets = sw.layer_budget(inst, minimize=True)
        assert sum(budgets.values()) == layers, name
    assert found, "no dataset files found in STORYWEAVE_DATASETS"

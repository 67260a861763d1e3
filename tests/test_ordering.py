import dataclasses
import itertools
import math
import random
from fractions import Fraction

import pytest

import storyweave as sw
from storyweave.ordering import MAX_EXACT_PATH_NODES, integer_weights, layer_weight
from helpers import brute_best_path, reference_rand_counts


def groups(*specs):
    return [frozenset(spec) for spec in specs]


WORKED_LEFT = groups({0, 1}, {2, 3})   # {a,b}, {c,d}
WORKED_RIGHT = groups({0, 2}, {1, 3})  # {a,c}, {b,d}


def random_layer(rng, chars=6, max_groups=3):
    pool = list(range(chars))
    rng.shuffle(pool)
    out = []
    for _ in range(rng.randint(1, max_groups)):
        if not pool:
            break
        size = rng.randint(1, min(3, len(pool)))
        out.append(frozenset(pool[:size]))
        pool = pool[size:]
    return out


class TestRandIndex:
    def test_identical_partitions(self):
        assert sw.rand_index(WORKED_LEFT, WORKED_LEFT) == 1

    def test_worked_pair_is_one_third(self):
        # Six pairs over {a,b,c,d}: ad and bc are apart on both sides, ac
        # and bd only together on the right, ab and cd only on the left.
        counts = sw.rand_counts(WORKED_LEFT, WORKED_RIGHT)
        assert (
            counts.together_both,
            counts.apart_both,
            counts.apart_then_together,
            counts.together_then_apart,
        ) == (0, 2, 2, 2)
        assert sw.rand_index(WORKED_LEFT, WORKED_RIGHT) == Fraction(1, 3)

    def test_single_identical_group(self):
        assert sw.rand_index(groups({0, 1}), groups({0, 1})) == 1

    def test_empty_universe_scores_one(self):
        assert sw.rand_index(groups({0, 1}), groups({2, 3})) == 1
        # one shared character is still an empty pair universe
        assert sw.rand_index(groups({0, 1}), groups({1, 2})) == 1

    def test_symmetric_and_bounded(self):
        rng = random.Random(0)
        for _ in range(300):
            a = random_layer(rng)
            b = random_layer(rng)
            r = sw.rand_index(a, b)
            assert r == sw.rand_index(b, a)
            assert 0 <= r <= 1

    def test_counts_match_all_pairs_reference(self):
        rng = random.Random(13)
        for k in range(300):
            a = random_layer(rng, chars=8) if k % 10 else []
            b = random_layer(rng, chars=8)
            for x, y in ((a, b), (b, a)):
                counts = dataclasses.astuple(sw.rand_counts(x, y))
                assert counts == reference_rand_counts(x, y), f"pair {k}"


class TestPatternCount:
    def test_worked_pair(self):
        assert sw.pattern_count(WORKED_LEFT, WORKED_RIGHT) == 1

    def test_same_layer_has_no_pattern(self):
        rng = random.Random(1)
        for _ in range(100):
            a = random_layer(rng)
            assert sw.pattern_count(a, a) == 0

    def test_single_pair_twice(self):
        assert sw.pattern_count(groups({0, 1}), groups({0, 1})) == 0

    def test_symmetric(self):
        rng = random.Random(2)
        for _ in range(200):
            a = random_layer(rng)
            b = random_layer(rng)
            assert sw.pattern_count(a, b) == sw.pattern_count(b, a)

    def test_bounded_by_shared_pairs_squared(self):
        rng = random.Random(3)
        for _ in range(100):
            a = random_layer(rng)
            b = random_layer(rng)
            shared = len(
                set().union(*a) & set().union(*b)
            )
            bound = (shared * (shared - 1) // 2) ** 2
            assert sw.pattern_count(a, b) <= bound

    def test_larger_groups_realize_multiple_splits(self):
        left = groups({0, 1}, {2, 3})
        right = groups({0, 2, 4}, {1, 3})
        # splits of {0,1,2,3}: left gives 01|23; right gives 02|13 only
        assert sw.pattern_count(left, right) == 1


class TestSliceGraph:
    def test_identical_layers_zero_distance(self):
        w = sw.build_slice_graph([WORKED_LEFT, list(WORKED_LEFT)], "rand")
        assert w[0][1] == 0

    def test_worked_pair_pattern_weight(self):
        w = sw.build_slice_graph([WORKED_LEFT, WORKED_RIGHT], "pattern")
        assert w[0][1] == 1

    def test_single_layer(self):
        assert sw.build_slice_graph([WORKED_LEFT], "rand") == ((0,),)

    def test_rejects_unknown_heuristic(self):
        with pytest.raises(ValueError, match="heuristic"):
            sw.build_slice_graph([WORKED_LEFT], "cosine")

    def test_rand_weight_is_distance(self):
        w = layer_weight(WORKED_LEFT, WORKED_RIGHT, "rand")
        assert w == Fraction(2, 3)


def weight_graph(matrix):
    return tuple(tuple(row) for row in matrix)


class TestMinPathOrder:
    def test_three_nodes(self):
        g = weight_graph([[0, 5, 1], [5, 0, 1], [1, 1, 0]])
        order = sw.min_path_order(g)
        assert order == [0, 2, 1]  # cost 2, lexicographically smallest optimum

    def test_single_node(self):
        assert sw.min_path_order(weight_graph([[0]])) == [0]

    def test_two_nodes(self):
        assert sw.min_path_order(weight_graph([[0, 7], [7, 0]])) == [0, 1]

    def test_matches_enumeration(self):
        rng = random.Random(4)
        for k in range(150):
            n = rng.randint(1, 8)
            matrix = [[0] * n for _ in range(n)]
            for i, j in itertools.combinations(range(n), 2):
                matrix[i][j] = matrix[j][i] = rng.randint(0, 9)
            expected_cost, expected_path = brute_best_path(matrix)
            order = sw.min_path_order(weight_graph(matrix))
            cost = sum(matrix[a][b] for a, b in itertools.pairwise(order))
            assert cost == expected_cost, f"matrix {k}"
            assert order == expected_path, f"matrix {k}"

    def test_fraction_weights(self):
        half = Fraction(1, 2)
        g = weight_graph([[0, half, 1], [half, 0, half], [1, half, 0]])
        order = sw.min_path_order(g)
        assert order == [0, 1, 2]

    def test_reversal_has_equal_cost(self):
        rng = random.Random(5)
        for _ in range(50):
            n = rng.randint(2, 7)
            matrix = [[0] * n for _ in range(n)]
            for i, j in itertools.combinations(range(n), 2):
                matrix[i][j] = matrix[j][i] = rng.randint(0, 9)
            order = sw.min_path_order(weight_graph(matrix))
            fwd = sum(matrix[a][b] for a, b in itertools.pairwise(order))
            rev = sum(matrix[a][b] for a, b in itertools.pairwise(order[::-1]))
            assert fwd == rev

    def test_too_many_nodes(self):
        n = MAX_EXACT_PATH_NODES + 1
        g = weight_graph([[0] * n for _ in range(n)])
        assert sw.min_path_order(g) is None

    def test_empty_slice_rejected(self):
        with pytest.raises(ValueError, match="no layers"):
            sw.min_path_order(weight_graph([]))


def path_cost(matrix, order):
    return sum(matrix[a][b] for a, b in itertools.pairwise(order))


def random_matrix(rng, n, top=9):
    matrix = [[0] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        matrix[i][j] = matrix[j][i] = rng.randint(0, top)
    return matrix


class TestApproxPathOrder:
    def test_visits_every_layer_once_and_never_beats_exact(self):
        rng = random.Random(6)
        for k in range(100):
            matrix = random_matrix(rng, rng.randint(1, 7))
            order = sw.approx_path_order(weight_graph(matrix))
            assert sorted(order) == list(range(len(matrix))), f"matrix {k}"
            expected_cost, _ = brute_best_path(matrix)
            assert path_cost(matrix, order) >= expected_cost, f"matrix {k}"

    def test_no_segment_reversal_improves(self):
        rng = random.Random(7)
        for k in range(20):
            n = rng.randint(MAX_EXACT_PATH_NODES + 1, 30)
            matrix = random_matrix(rng, n, top=50)
            order = sw.approx_path_order(weight_graph(matrix))
            assert sorted(order) == list(range(n))
            cost = path_cost(matrix, order)
            for i, j in itertools.combinations(range(n), 2):
                moved = order[:i] + order[i : j + 1][::-1] + order[j + 1 :]
                assert path_cost(matrix, moved) >= cost, f"matrix {k}"

    def test_beats_or_ties_nearest_neighbour_from_every_start(self):
        rng = random.Random(8)
        for k in range(20):
            n = rng.randint(MAX_EXACT_PATH_NODES + 1, 30)
            matrix = random_matrix(rng, n, top=50)
            cost = path_cost(matrix, sw.approx_path_order(weight_graph(matrix)))
            for start in range(n):
                path, left = [start], set(range(n)) - {start}
                while left:
                    nxt = min(left, key=lambda u: (matrix[path[-1]][u], u))
                    path.append(nxt)
                    left.remove(nxt)
                assert cost <= path_cost(matrix, path), f"matrix {k}"

    def test_fraction_weights_and_determinism(self):
        rng = random.Random(9)
        n = MAX_EXACT_PATH_NODES + 3
        matrix = [[Fraction(0)] * n for _ in range(n)]
        for i, j in itertools.combinations(range(n), 2):
            matrix[i][j] = matrix[j][i] = Fraction(rng.randint(0, 12), 12)
        g = weight_graph(matrix)
        order = sw.approx_path_order(g)
        assert sorted(order) == list(range(n))
        assert order == sw.approx_path_order(g)

    def test_empty_slice_rejected(self):
        with pytest.raises(ValueError, match="no layers"):
            sw.approx_path_order(weight_graph([]))

    def test_past_deadline_returns_nearest_neighbour_from_node_0(self):
        rng = random.Random(10)
        matrix = random_matrix(rng, 40, top=50)
        path, left = [0], set(range(1, 40))
        while left:
            nxt = min(left, key=lambda u: (matrix[path[-1]][u], u))
            path.append(nxt)
            left.remove(nxt)
        assert sw.approx_path_order(weight_graph(matrix), deadline=0.0) == path
        assert sw.approx_path_order(weight_graph(matrix)) != path


class TestIntegerWeights:
    def test_same_paths_as_fraction_weights(self):
        # Few distinct values, so ties between paths are common.
        rng = random.Random(14)
        values = [Fraction(k, d) for d in (1, 2, 3, 4, 6) for k in range(d + 1)]
        for k in range(60):
            n = rng.randint(1, 9)
            matrix = [[Fraction(0)] * n for _ in range(n)]
            for i, j in itertools.combinations(range(n), 2):
                matrix[i][j] = matrix[j][i] = rng.choice(values)
            scale = math.prod({x.denominator for row in matrix for x in row})
            hand = weight_graph([[int(x * scale) for x in row] for row in matrix])
            fractions = weight_graph(matrix)
            scaled = integer_weights(fractions)
            assert all(type(x) is int for row in scaled for x in row)
            for solve in (sw.min_path_order, sw.approx_path_order):
                assert solve(fractions) == solve(hand) == solve(scaled), f"matrix {k}"

    def test_int_weights_keep_their_values(self):
        g = weight_graph([[0, 2, 1], [2, 0, 1], [1, 1, 0]])
        assert integer_weights(g) == g

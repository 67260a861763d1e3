"""The two combinatorial stages behind the heuristic pipeline.

Stage one packs each timestamp's interactions into as few layers as
possible (exact conflict-graph coloring, optionally with a class size
cap).  Stage two decides the left-to-right order of those layers inside
the slice: every layer pair gets a weight estimating the crossings it
would force, and a cheapest Hamiltonian path through the weights fixes
the sequence.
"""

from fractions import Fraction
from pathlib import Path

import storyweave as sw
from storyweave import files
from storyweave.ordering import layer_distance

HERE = Path(__file__).parent
inst = files.load_instance(HERE / "data" / "workshop.json")

# --- stage one: layers per timestamp via exact coloring -------------------

for t in range(inst.num_timestamps):
    graph = sw.build_conflict_graph(inst, t)
    coloring = sw.min_coloring(graph)
    print(f"{inst.timestamps[t]}: {len(graph.nodes)} interactions, "
          f"{len(graph.edges)} conflicts -> {coloring.num_colors} layer(s)")

budgets = sw.layer_budget(inst, minimize=True)
print("minimized layer total:", sum(budgets.values()),
      "(upper bound is", inst.num_interactions, "single-interaction layers)")

capped = sw.layer_budget(inst, minimize=True, cap=1)
print("with every layer capped to one interaction:", sum(capped.values()))

# --- stage two: slice-internal layer order --------------------------------

# The classic forced-crossing pair: {a,b},{c,d} against {a,c},{b,d}.
left = [frozenset({0, 1}), frozenset({2, 3})]
right = [frozenset({0, 2}), frozenset({1, 3})]

print("\npartition similarity of the forced pair:",
      sw.rand_index(left, right), "(1 means identical grouping)")
print("unavoidable-crossing patterns between them:",
      sw.pattern_count(left, right))

counts = sw.rand_counts(left, right)
print("pair buckets: together/together =", counts.together_both,
      " apart/apart =", counts.apart_both,
      " apart/together =", counts.apart_then_together,
      " together/apart =", counts.together_then_apart)

# Three layers in one slice; the path solver keeps similar layers adjacent.
layers = [
    (frozenset({0, 1}), frozenset({2, 3})),   # ab | cd
    (frozenset({0, 2}), frozenset({1, 3})),   # ac | bd
    (frozenset({0, 1}), frozenset({2, 3})),   # ab | cd again
]
for heuristic in ("rand", "pattern"):
    # A symmetric int matrix: each pair's exact weight, scaled to a common
    # denominator.
    weights = sw.build_slice_graph(layers, heuristic)
    order = sw.min_path_order(weights)
    cost = sum(Fraction(*layer_distance(layers[a], layers[b], heuristic))
               for a, b in zip(order, order[1:]))
    if cost.denominator != 1:
        cost = f"{cost} (= {float(cost):.3f})"
    print(f"{heuristic:>7} weights -> layer order {order}, path cost {cost}")
# Both put the twin ab|cd layers next to each other, so at most one
# boundary can force crossings.

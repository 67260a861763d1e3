import itertools
import random
import xml.etree.ElementTree as ET
from pathlib import Path

import storyweave as sw
from storyweave.render import (
    BOUNDARY_GAP,
    GAP_BETWEEN,
    GAP_WITHIN,
    MARGIN,
    SHORT_CURVE_PAD,
    X_STEP,
    _activity_ranges,
    total_wiggle,
)
from helpers import random_instance
from test_core import make_instance

GOLDEN = Path(__file__).parent / "data" / "golden.svg"


def solved(interactions, algorithm="ps", **kwargs):
    inst = make_instance(interactions, **kwargs)
    story, _ = sw.run_pipeline(inst, sw.PipelineConfig(timeout=60))
    return inst, story


def geometry_orders(g):
    """Re-derive each layer's vertical order from the y coordinates."""
    out = []
    for li, layer in enumerate(g.storyline.layers):
        out.append(tuple(sorted(layer.active, key=lambda c: g.ys[(c, li)])))
    return out


def random_geometry(rng):
    inst = random_instance(rng)
    story, _ = sw.run_pipeline(inst, sw.PipelineConfig(timeout=60))
    return inst, story, sw.assign_coordinates(story, inst)


class TestAssignCoordinates:
    def test_single_character_is_straight(self):
        inst, story = solved([("ab", "t0"), ("ab", "t1"), ("ab", "t2")])
        g = sw.assign_coordinates(story, inst)
        ranges = _activity_ranges(story)
        assert total_wiggle(g.ys, ranges) == 0

    def test_two_parallel_lines(self):
        inst, story = solved([("ab", "t0"), ("ab", "t1")])
        g = sw.assign_coordinates(story, inst)
        ys_a = [g.ys[(0, li)] for li in range(2)]
        ys_b = [g.ys[(1, li)] for li in range(2)]
        assert ys_a[0] == ys_a[1]
        assert ys_b[0] == ys_b[1]
        assert abs(ys_a[0] - ys_b[0]) >= GAP_WITHIN

    def test_orders_preserved(self):
        rng = random.Random(0)
        for _ in range(30):
            _inst, story, g = random_geometry(rng)
            assert geometry_orders(g) == [l.order for l in story.layers]

    def test_minimum_gaps_hold(self):
        rng = random.Random(1)
        for _ in range(30):
            inst, story, g = random_geometry(rng)
            for li, layer in enumerate(story.layers):
                owner = {}
                for iid in layer.interactions:
                    for c in inst.interactions[iid].characters:
                        owner[c] = iid
                for above, below in itertools.pairwise(layer.order):
                    gap = g.ys[(below, li)] - g.ys[(above, li)]
                    same = owner.get(above) == owner.get(below) and above in owner
                    minimum = GAP_WITHIN if same else GAP_BETWEEN
                    assert gap >= minimum - 1e-9

    def test_crossing_fidelity(self):
        rng = random.Random(2)
        for _ in range(30):
            _inst, story, g = random_geometry(rng)
            counted = sw.count_crossings(story)
            geo = 0
            for li in range(len(story.layers) - 1):
                a = story.layers[li]
                b = story.layers[li + 1]
                for u, v in itertools.combinations(sorted(a.active & b.active), 2):
                    left = g.ys[(u, li)] < g.ys[(v, li)]
                    right = g.ys[(u, li + 1)] < g.ys[(v, li + 1)]
                    if left != right:
                        geo += 1
            assert geo == counted.total

    def test_x_strictly_increasing_with_slice_gaps(self):
        inst, story = solved([("ab", "t0"), ("ab", "t1"), ("cd", "t1")])
        g = sw.assign_coordinates(story, inst)
        assert all(b > a for a, b in itertools.pairwise(g.xs))
        step = g.xs[1] - g.xs[0]
        assert step == X_STEP + BOUNDARY_GAP

    def test_relaxation_never_increases_wiggle(self):
        rng = random.Random(3)
        for _ in range(20):
            inst = random_instance(rng)
            story, _ = sw.run_pipeline(inst, sw.PipelineConfig(timeout=60))
            g = sw.assign_coordinates(story, inst)
            ranges = _activity_ranges(story)
            initial = {}
            for li, layer in enumerate(story.layers):
                for rank, c in enumerate(layer.order):
                    initial[(c, li)] = MARGIN + rank * GAP_BETWEEN
            assert total_wiggle(g.ys, ranges) <= total_wiggle(initial, ranges) + 1e-9


class TestPadShortCurves:
    def test_single_layer_character_padded(self):
        inst, story = solved([("ab", "t0"), ("ac", "t1"), ("ad", "t2")])
        g = sw.pad_short_curves(sw.assign_coordinates(story, inst))
        b = 1  # only interacts at t0
        left, right = g.pads[b]
        assert right - left >= 2 * SHORT_CURVE_PAD - 4.0
        assert right - left >= 40.0

    def test_multi_layer_characters_untouched(self):
        inst, story = solved([("ab", "t0"), ("ab", "t1")])
        g = sw.pad_short_curves(sw.assign_coordinates(story, inst))
        assert g.pads == {}

    def test_pads_clipped_at_separators(self):
        rng = random.Random(4)
        for _ in range(20):
            inst = random_instance(rng)
            story, _ = sw.run_pipeline(inst, sw.PipelineConfig(timeout=60))
            g = sw.pad_short_curves(sw.assign_coordinates(story, inst))
            from storyweave.render import _separator_xs

            seps = _separator_xs(g)
            for c, (left, right) in g.pads.items():
                assert left < right
                for sep in seps:
                    assert not (left < sep < right)


class TestEmitSvg:
    def test_single_character_single_path(self):
        inst, story = solved([("a", "t0")])
        g = sw.assign_coordinates(story, inst)
        svg = sw.emit_svg(g, inst)
        root = ET.fromstring(svg)
        paths = root.findall(".//{http://www.w3.org/2000/svg}path")
        assert len(paths) == 1

    def test_one_bar_per_interaction(self):
        inst, story = solved([("ab", "t0"), ("cd", "t0"), ("ab", "t1")])
        g = sw.assign_coordinates(story, inst)
        svg = sw.emit_svg(g, inst)
        root = ET.fromstring(svg)
        rects = [
            r
            for r in root.findall(".//{http://www.w3.org/2000/svg}rect")
            if r.get("class") == "interaction"
        ]
        assert len(rects) == inst.num_interactions

    def test_separators_and_labels(self):
        inst, story = solved([("ab", "t0"), ("ab", "t1")])
        g = sw.assign_coordinates(story, inst)
        svg = sw.emit_svg(g, inst)
        assert "stroke-dasharray" in svg
        assert ">t0<" in svg and ">t1<" in svg
        assert ">a<" in svg and ">b<" in svg

    def test_label_text_is_escaped(self):
        inst = make_instance([(["a<b"], "t0")], characters=["a<b"])
        story, _ = sw.run_pipeline(inst, sw.PipelineConfig(timeout=60))
        svg = sw.emit_svg(sw.assign_coordinates(story, inst), inst)
        assert "a&lt;b" in svg
        ET.fromstring(svg)

    def test_golden_svg(self):
        inst = make_instance(
            [("ab", "t0"), ("bc", "t0"), ("ac", "t1"), ("cd", "t2"), ("e", "t1")]
        )
        story, _ = sw.run_pipeline(inst, sw.PipelineConfig(timeout=60))
        g = sw.pad_short_curves(sw.assign_coordinates(story, inst))
        assert sw.emit_svg(g, inst) == GOLDEN.read_text(encoding="utf-8")

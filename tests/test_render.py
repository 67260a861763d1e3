import hashlib
import itertools
import random
import xml.etree.ElementTree as ET
from pathlib import Path

import storyweave as sw
from storyweave import files
from storyweave.formulations import EXACT_KINDS
from storyweave.render import (
    BOUNDARY_GAP,
    GAP_BETWEEN,
    GAP_WITHIN,
    MARGIN,
    SHORT_CURVE_PAD,
    X_STEP,
    _outline,
)
from helpers import cit_rung, dense_instance, random_instance, total_wiggle
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
        assert total_wiggle(g.ys, story) == 0

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
            initial = {}
            for li, layer in enumerate(story.layers):
                for rank, c in enumerate(layer.order):
                    initial[(c, li)] = MARGIN + rank * GAP_BETWEEN
            assert total_wiggle(g.ys, story) <= total_wiggle(initial, story) + 1e-9


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
            _ranges, seps = _outline(story, g.xs)
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


def test_stored_and_rendered_outputs_pinned(tmp_path):
    # Stored storyline bytes, coordinates and SVG text of every algorithm.
    # The exact kinds do not finish from 8/12/4 up within a test's time, and
    # a timed-out result depends on machine speed, so those rungs run ps/pp
    # only; the larger ones pin long curves through many layers.
    rng = random.Random(11)
    corpus = [random_instance(rng, 5, 4, 3) for _ in range(20)]
    corpus += [dense_instance(rng) for _ in range(20)]
    corpus.append(cit_rung(5, 6, 2, 1))
    cells = [(inst, alg) for inst in corpus for alg in ("ps", "pp", *EXACT_KINDS)]
    rungs = [cit_rung(8, 12, 4, 1), cit_rung(16, 40, 12, 1), cit_rung(30, 100, 20, 1)]
    cells += [(inst, alg) for inst in rungs for alg in ("ps", "pp")]
    path = tmp_path / "story.json"
    digest = hashlib.sha256()
    for inst, alg in cells:
        if alg in EXACT_KINDS:
            story, _ = sw.solve_exact(inst, EXACT_KINDS[alg], timeout=600)
        else:
            heuristic = "rand" if alg == "ps" else "pattern"
            story, _ = sw.run_pipeline(inst, sw.PipelineConfig(heuristic, timeout=600))
        files.save_storyline(path, inst, story)
        g = sw.pad_short_curves(sw.assign_coordinates(story, inst))
        digest.update(path.read_bytes())
        digest.update(repr((g.xs, sorted(g.ys.items()), g.extents)).encode())
        digest.update(sw.emit_svg(g, inst).encode())
    assert digest.hexdigest() == (
        "d2500c39d35300cea46f44f858668a2a5d23ce63ae30341f515d604802404842"
    )

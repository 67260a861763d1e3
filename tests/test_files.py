import json
import os
import random

import pytest

import storyweave as sw
from storyweave import files
from helpers import random_instance, random_storyline, reference_storyline_text
from test_core import make_instance


class TestInstanceFiles:
    def test_round_trip(self, tmp_path):
        rng = random.Random(0)
        for k in range(20):
            inst = random_instance(rng)
            path = tmp_path / f"inst{k}.json"
            files.save_instance(path, inst)
            assert files.load_instance(path) == inst

    def test_load_reports_violations(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "characters": ["a"],
                    "timestamps": ["t0"],
                    "interactions": [{"characters": ["z"], "time": "t0"}],
                }
            )
        )
        with pytest.raises(sw.InstanceError, match="unknown character"):
            files.load_instance(path)


class TestStorylineFiles:
    def test_round_trip(self, tmp_path):
        rng = random.Random(1)
        for k in range(20):
            inst = random_instance(rng)
            story = random_storyline(rng, inst)
            path = tmp_path / f"story{k}.json"
            files.save_storyline(path, inst, story)
            assert files.load_storyline(path, inst) == story

    def test_crossings_mismatch_rejected(self, tmp_path):
        inst = make_instance([("ab", "t0"), ("ab", "t1")])
        story, _ = sw.run_pipeline(inst, sw.PipelineConfig())
        doc = files.storyline_to_doc(inst, story)
        doc["crossings"] += 1
        path = tmp_path / "story.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="disagrees with recount"):
            files.load_storyline(path, inst)

    @pytest.mark.parametrize("declared", [True, 1.0, "1"])
    def test_crossings_must_be_an_int(self, declared):
        # One crossing, so True and 1.0 equal the recount and "1" prints like it.
        inst = make_instance([("ab", "t0"), ("ab", "t1")])
        order = {"t0": ["a", "b"], "t1": ["b", "a"]}
        doc = {
            "layers": [
                {"time": t, "interactions": [i], "order": order[t], "active": ["a", "b"]}
                for i, t in enumerate(("t0", "t1"))
            ],
        }
        files.storyline_from_doc(inst, doc)
        for ok in (None, 1):
            doc["crossings"] = ok
            files.storyline_from_doc(inst, doc)
        doc["crossings"] = declared
        with pytest.raises(ValueError, match="'crossings' must be an integer"):
            files.storyline_from_doc(inst, doc)

    def test_illegal_storyline_rejected(self):
        inst = make_instance([("ab", "t0"), ("ac", "t0")])
        doc = {
            "layers": [
                {
                    "time": "t0",
                    "interactions": [0, 1],
                    "order": ["b", "a", "c"],
                    "active": ["a", "b", "c"],
                }
            ],
            "crossings": 0,
        }
        with pytest.raises(ValueError, match="intersect"):
            files.storyline_from_doc(inst, doc)

    def test_unknown_name_rejected(self):
        inst = make_instance([("ab", "t0")])
        doc = {
            "layers": [
                {
                    "time": "t0",
                    "interactions": [0],
                    "order": ["a", "zz"],
                    "active": ["a", "zz"],
                }
            ]
        }
        with pytest.raises(ValueError, match="malformed layer"):
            files.storyline_from_doc(inst, doc)

    def test_layers_must_be_a_list(self):
        inst = make_instance([("ab", "t0")])
        with pytest.raises(ValueError, match="'layers' list"):
            files.storyline_from_doc(inst, {"layers": 5})

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("interactions", [0.7], "interaction ids must be integers"),
            ("interactions", [True], "interaction ids must be integers"),
            ("interactions", ["0"], "interaction ids must be integers"),
            ("interactions", 0, "'interactions' must be a list"),
            ("order", "ab", "'order' must be a list"),
            ("active", "ab", "'active' must be a list"),
            ("active", ["a", "a", "b"], "'active' names a character twice"),
        ],
    )
    def test_ill_typed_fields_rejected(self, key, value, message):
        inst = make_instance([("ab", "t0")])
        item = {"time": "t0", "interactions": [0], "order": ["a", "b"], "active": ["a", "b"]}
        files.storyline_from_doc(inst, {"layers": [item]})
        item[key] = value
        with pytest.raises(ValueError, match=r"layers\[0\]: " + message):
            files.storyline_from_doc(inst, {"layers": [item]})


class TestCountedOnce:
    """A storyline's crossings are counted once per storyline object."""

    def test_save_reuses_the_count_and_load_recounts(self, tmp_path, monkeypatch):
        counted = []
        recount = sw.core.count_crossings

        def counting(story):
            counted.append(story)
            return recount(story)

        monkeypatch.setattr(sw.core, "count_crossings", counting)
        monkeypatch.setattr(sw.formulations, "count_crossings", counting)
        inst = make_instance([("ab", "t0"), ("ab", "t1"), ("abc", "t2")])
        story, report = sw.solve_exact(inst, sw.ILP2)
        assert counted == [story] and story.crossings == report.crossings
        path = tmp_path / "story.json"
        files.save_storyline(path, inst, story)
        assert counted == [story]
        loaded = files.load_storyline(path, inst)
        assert loaded == story and loaded is not story
        assert loaded.crossings == report.crossings
        assert counted == [story, loaded]

    def test_uncounted_storyline_counts_on_save(self, tmp_path):
        rng = random.Random(3)
        for k in range(10):
            inst = random_instance(rng)
            story = random_storyline(rng, inst)
            assert "crossings" not in vars(story)
            text = files.storyline_text(inst, story)
            assert json.loads(text)["crossings"] == sw.count_crossings(story).total
            assert vars(story)["crossings"] == story.crossings


class TestStorylineText:
    """The direct writer against the dict-then-json.dumps reference."""

    def assert_same(self, inst, story, path):
        text = reference_storyline_text(inst, story)
        assert files.storyline_text(inst, story) == text
        files.save_storyline(path, inst, story)
        assert path.read_bytes() == text.encode("utf-8")
        assert files.storyline_to_doc(inst, story) == json.loads(text)

    def test_solved_by_every_algorithm(self, tmp_path):
        rng = random.Random(5)
        for k in range(12):
            inst = random_instance(rng)
            for heuristic in ("rand", "pattern"):
                story, _ = sw.run_pipeline(inst, sw.PipelineConfig(heuristic=heuristic))
                self.assert_same(inst, story, tmp_path / f"{k}-{heuristic}.json")
            for kind in (sw.ILP1, sw.ILP1ML, sw.ILP2, sw.ILP2ML):
                story, report = sw.solve_exact(inst, kind, timeout=60)
                assert report.status == "optimal"
                self.assert_same(inst, story, tmp_path / f"{k}-{kind.name}.json")

    def test_names_that_need_escaping(self, tmp_path):
        names = ['say "hi"', "back\\slash", "tab\there", "line\nfeed", "car\rriage",
                 "zoë 名前", "</script>"]
        inst = make_instance(
            [(names[:4], "</t0>"), (names[3:], 'q"1\t'), (names[::2], "ünï\\")],
            characters=names,
            timestamps=["</t0>", 'q"1\t', "ünï\\"],
        )
        story, _ = sw.run_pipeline(inst, sw.PipelineConfig())
        self.assert_same(inst, story, tmp_path / "story.json")
        assert files.load_storyline(tmp_path / "story.json", inst) == story

    def test_empty_lists_and_no_layers(self, tmp_path):
        inst = make_instance([("ab", "t0"), ("b", "t1")])
        empty = sw.Layer(time=1, interactions=(), order=(), active=frozenset())
        full = sw.Layer(time=0, interactions=(0,), order=(1, 0), active=frozenset({0, 1}))
        for layers in [(), (empty,), (full, empty), (empty, full, empty)]:
            self.assert_same(inst, sw.CombinatorialStoryline(layers), tmp_path / "story.json")


class TestUtf8Only:
    """Instance and storyline files are read as UTF-8 and nothing else."""

    @pytest.fixture
    def solved(self, tmp_path):
        inst = make_instance([(["zoë", "b"], "t0"), (["b", "zoë"], "t1")])
        story, _ = sw.run_pipeline(inst, sw.PipelineConfig())
        files.save_instance(tmp_path / "inst.json", inst)
        files.save_storyline(tmp_path / "story.json", inst, story)
        return inst, story

    @pytest.mark.parametrize("encoding", ["utf-16", "utf-8-sig"])
    def test_other_encodings_rejected(self, tmp_path, solved, encoding):
        inst, story = solved
        assert files.load_instance(tmp_path / "inst.json") == inst
        assert files.load_storyline(tmp_path / "story.json", inst) == story
        for name in ("inst.json", "story.json"):
            path = tmp_path / name
            path.write_bytes(path.read_text(encoding="utf-8").encode(encoding))
        with pytest.raises(ValueError):
            files.load_instance(tmp_path / "inst.json")
        with pytest.raises(ValueError):
            files.load_storyline(tmp_path / "story.json", inst)


class TestWriteText:
    def solved(self):
        # A non-ASCII name makes the UTF-8 length differ from the text length.
        inst = make_instance([(["zoë", "b"], "t0"), (["b", "zoë"], "t1")])
        story, _ = sw.run_pipeline(inst, sw.PipelineConfig())
        return inst, story

    def test_shorter_document_overwrites_longer_file_exactly(self, tmp_path):
        inst, story = self.solved()
        path = tmp_path / "story.json"
        path.write_text("x" * 10_000)
        files.save_storyline(path, inst, story)
        doc = files.storyline_to_doc(inst, story)
        expected = json.dumps(doc, indent=2, ensure_ascii=False) + "\n"
        assert path.read_bytes() == expected.encode("utf-8")

    def test_second_save_is_byte_equal(self, tmp_path):
        inst, story = self.solved()
        path = tmp_path / "story.json"
        files.save_storyline(path, inst, story)
        first = path.read_bytes()
        files.save_storyline(path, inst, story)
        assert path.read_bytes() == first

    def test_new_file_mode_matches_open_for_writing(self, tmp_path):
        old = os.umask(0o027)
        try:
            with open(tmp_path / "reference", "w"):
                pass
            files.write_text(tmp_path / "written", "text")
        finally:
            os.umask(old)
        reference = os.stat(tmp_path / "reference").st_mode
        assert os.stat(tmp_path / "written").st_mode == reference

    @pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null")
    def test_save_to_dev_null(self):
        inst, story = self.solved()
        files.save_storyline("/dev/null", inst, story)


class TestBenchRows:
    def test_csv_sorted_with_header(self, tmp_path):
        rows = [
            files.BenchRow("b", "ps", 1, 2, 1, 1, 0, 0.5, "optimal", None),
            files.BenchRow("a", "pp", 1, 2, 1, 1, 0, 0.5, "optimal", None),
            files.BenchRow("a", "ilp1", 1, 2, 1, 1, 0, 0.5, "optimal", None),
        ]
        out = tmp_path / "bench.csv"
        files.write_bench_csv(out, rows)
        assert out.read_bytes().count(b"\r\n") == 4
        lines = out.read_text().strip().splitlines()
        assert lines[0] == ",".join(files.BENCH_COLUMNS)
        firsts = [line.split(",")[:2] for line in lines[1:]]
        assert firsts == [["a", "ilp1"], ["a", "pp"], ["b", "ps"]]

    def test_gap_only_on_timeout(self):
        report = sw.LayoutReport("ilp1", 4, 3, 1.0, "feasible-timeout", 75.0)
        inst = make_instance([("ab", "t0")])
        row = files.BenchRow.from_report("x", inst, report)
        assert row.as_csv()[9] == "75.0"
        report = sw.LayoutReport("ilp1", 4, 3, 1.0, "optimal", None)
        row = files.BenchRow.from_report("x", inst, report)
        assert row.as_csv()[9] == ""

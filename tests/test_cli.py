import itertools
import json
import logging
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import storyweave as sw
from storyweave import files
from storyweave.cli import main
from helpers import cit_rung, count_validations
from test_core import PATTERN_PAIR, make_instance

WORKSHOP = Path(__file__).parents[1] / "demos" / "data" / "workshop.json"


def write_instance(tmp_path, name, interactions):
    inst = make_instance(interactions)
    path = tmp_path / f"{name}.json"
    files.save_instance(path, inst)
    return path, inst


def hard_instance_doc():
    chars = "abcd"
    return [( "".join(pair), "t0") for pair in itertools.combinations(chars, 2)]


class TestStats:
    def test_minimal(self, tmp_path, capsys):
        path, _ = write_instance(tmp_path, "tiny", [("abc", "t0")])
        assert main(["stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert "interactions: 1" in out
        assert "characters: 3" in out
        assert "timestamps: 1" in out
        assert "coloring-layers: 1" in out

    def test_disjoint_interactions_one_layer(self, tmp_path, capsys):
        path, _ = write_instance(
            tmp_path, "disjoint", [("ab", "t0"), ("cd", "t0"), ("ef", "t0")]
        )
        main(["stats", str(path)])
        assert "coloring-layers: 1" in capsys.readouterr().out

    def test_validation_failure_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "characters": ["a", "b"],
                    "timestamps": ["t0"],
                    "interactions": [{"characters": ["a"], "time": "t0"}],
                }
            )
        )
        assert main(["stats", str(path)]) == 1
        assert "isolated character" in capsys.readouterr().err


class TestSolve:
    def test_unwritable_name_rejected_before_solving(self, tmp_path, capsys):
        path = tmp_path / "surrogate.json"
        # json.dumps writes the lone surrogate as the escape \ud800.
        path.write_text(json.dumps({
            "characters": ["a\ud800", "b"],
            "timestamps": ["t0"],
            "interactions": [{"characters": ["a\ud800", "b"], "time": "t0"}],
        }))
        out = tmp_path / "story.json"
        assert main(["solve", str(path), "--algorithm", "ps", "-o", str(out)]) == 1
        assert "has a lone surrogate or a character XML forbids" in capsys.readouterr().err
        assert not out.exists()

    def test_exact_run_without_layout_exits_1(self, tmp_path, capsys):
        path = tmp_path / "rung.json"
        files.save_instance(path, cit_rung(12, 25, 8, 1))
        out = tmp_path / "story.json"
        argv = ["solve", str(path), "--algorithm", "ilp1ml", "--timeout", "0.05", "-o", str(out)]
        assert main(argv) == 1
        assert "no feasible storyline" in capsys.readouterr().err
        assert not out.exists()

    def test_writes_storyline_and_row(self, tmp_path, capsys):
        path, inst = write_instance(tmp_path, "one", [("ab", "t0")])
        out = tmp_path / "story.json"
        code = main(
            ["solve", str(path), "--algorithm", "ilp1", "-o", str(out)]
        )
        assert code == 0
        story = files.load_storyline(out, inst)
        assert sw.count_crossings(story).total == 0
        printed = capsys.readouterr().out
        assert "dataset,algorithm" in printed
        assert "one,ilp1" in printed

    def test_pattern_instance_crosses_under_every_algorithm(self, tmp_path):
        path, inst = write_instance(tmp_path, "pattern", PATTERN_PAIR)
        for algorithm, cap in [
            ("ps", "2"), ("pp", "2"), ("ilp1", None),
            ("ilp1ml", "2"), ("ilp2", None), ("ilp2ml", "2"),
        ]:
            out = tmp_path / f"{algorithm}.json"
            argv = ["solve", str(path), "--algorithm", algorithm, "-o", str(out)]
            if cap:
                argv += ["--cap", cap]
            assert main(argv) == 0
            doc = json.loads(out.read_text())
            if algorithm != "ilp2":  # free layers let ilp2 go crossing-free
                assert doc["crossings"] >= 1

    def test_deterministic_bytes(self, tmp_path):
        path, _ = write_instance(
            tmp_path, "det", [("ab", "t0"), ("bc", "t0"), ("ac", "t1")]
        )
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for out in (a, b):
            assert main(
                ["solve", str(path), "--algorithm", "ilp2ml", "-o", str(out)]
            ) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_cap_rejected_for_plain_formulations(self, tmp_path, capsys):
        path, _ = write_instance(tmp_path, "c", [("ab", "t0")])
        code = main(
            ["solve", str(path), "--algorithm", "ilp1", "--cap", "2",
             "-o", str(tmp_path / "x.json")]
        )
        assert code == 1
        assert "cap" in capsys.readouterr().err

    def test_unknown_algorithm_rejected(self, tmp_path):
        path, _ = write_instance(tmp_path, "u", [("ab", "t0")])
        with pytest.raises(SystemExit):
            main(["solve", str(path), "--algorithm", "magic", "-o", "x.json"])

    def test_output_required_without_export(self, tmp_path, capsys):
        path, _ = write_instance(tmp_path, "o", [("ab", "t0")])
        assert main(["solve", str(path), "--algorithm", "ps"]) == 1
        assert "--output" in capsys.readouterr().err

    def test_export_lp_skips_solving(self, tmp_path, capsys):
        path, _ = write_instance(tmp_path, "exp", PATTERN_PAIR)
        lp = tmp_path / "model.lp"
        code = main(
            ["solve", str(path), "--algorithm", "ilp2", "--export-lp", str(lp)]
        )
        assert code == 0
        assert "unsolved" in capsys.readouterr().out
        program = sw.parse_lp(lp.read_text())
        names = [v.name for v in program.variables]
        assert any(n.startswith("y_") for n in names)
        assert any(n.startswith("x_") for n in names)
        assert any(n.startswith("z_") for n in names)
        assert any(n.startswith("a_") for n in names)
        assert not (tmp_path / "story.json").exists()

    def test_export_lp_validates_the_program_once(self, tmp_path, monkeypatch):
        calls = count_validations(monkeypatch)
        lp = tmp_path / "workshop.lp"
        code = main(
            ["solve", str(WORKSHOP), "--algorithm", "ilp1ml", "--export-lp", str(lp)]
        )
        assert code == 0
        assert len(calls) == 1
        assert lp.exists()

    def test_export_lp_rejected_for_pipeline(self, tmp_path, capsys):
        path, _ = write_instance(tmp_path, "expp", [("ab", "t0")])
        code = main(
            ["solve", str(path), "--algorithm", "ps", "--export-lp",
             str(tmp_path / "m.lp")]
        )
        assert code == 1
        assert "ilp" in capsys.readouterr().err


class TestRender:
    def test_solve_then_render(self, tmp_path):
        path, _ = write_instance(
            tmp_path, "r", [("ab", "t0"), ("bc", "t1"), ("c", "t2")]
        )
        story = tmp_path / "story.json"
        svg = tmp_path / "out.svg"
        assert main(["solve", str(path), "--algorithm", "pp", "-o", str(story)]) == 0
        assert main(["render", str(story), str(path), "-o", str(svg)]) == 0
        root = ET.fromstring(svg.read_text())
        assert root.tag.endswith("svg")

    def test_rejects_stale_crossings(self, tmp_path, capsys):
        path, inst = write_instance(tmp_path, "stale", [("ab", "t0"), ("ab", "t1")])
        story_path = tmp_path / "story.json"
        assert main(["solve", str(path), "--algorithm", "ps", "-o", str(story_path)]) == 0
        doc = json.loads(story_path.read_text())
        doc["crossings"] += 2
        story_path.write_text(json.dumps(doc))
        assert main(["render", str(story_path), str(path), "-o", str(tmp_path / "x.svg")]) == 1
        assert "disagrees" in capsys.readouterr().err

    def test_rejects_mismatched_instance(self, tmp_path, capsys):
        path_a, _ = write_instance(tmp_path, "a", [("ab", "t0")])
        path_b, _ = write_instance(tmp_path, "b", [("xy", "t9")])
        story = tmp_path / "story.json"
        assert main(["solve", str(path_a), "--algorithm", "ps", "-o", str(story)]) == 0
        assert main(["render", str(story), str(path_b), "-o", str(tmp_path / "x.svg")]) == 1

    def test_rejects_non_list_layers(self, tmp_path, capsys):
        path, _ = write_instance(tmp_path, "bad", [("ab", "t0")])
        story = tmp_path / "story.json"
        story.write_text(json.dumps({"layers": 5}))
        assert main(["render", str(story), str(path), "-o", str(tmp_path / "x.svg")]) == 1
        assert "error:" in capsys.readouterr().err


class TestBench:
    def manifest(self, tmp_path, instances, algorithms, timeout=60, jobs=1):
        doc = {
            "instances": [str(p) for p in instances],
            "algorithms": algorithms,
            "timeout": timeout,
            "seed": 0,
            "jobs": jobs,
        }
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(doc))
        return path

    def test_grid_csv(self, tmp_path):
        p1, _ = write_instance(tmp_path, "alpha", [("ab", "t0")])
        manifest = self.manifest(tmp_path, [p1], ["ps", "ilp1"])
        out = tmp_path / "bench.csv"
        assert main(["bench", str(manifest), "-o", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == ",".join(files.BENCH_COLUMNS)
        assert len(lines) == 3
        assert lines[1].startswith("alpha,ilp1,1,2,1,1,0,")
        assert lines[2].startswith("alpha,ps,1,2,1,1,0,")

    def test_forced_timeout_cell_reports_gap(self, tmp_path):
        path, _ = write_instance(tmp_path, "hard", hard_instance_doc())
        manifest = self.manifest(tmp_path, [path], ["ilp1"], timeout=1)
        out = tmp_path / "bench.csv"
        assert main(["bench", str(manifest), "-o", str(out)]) == 0
        row = out.read_text().strip().splitlines()[1].split(",")
        assert row[files.BENCH_COLUMNS.index("status")] == "feasible-timeout"
        gap = float(row[files.BENCH_COLUMNS.index("gap_pct")])
        assert 0 < gap <= 100

    def test_failing_cell_recorded_and_exit_one(self, tmp_path, capsys):
        good, _ = write_instance(tmp_path, "good", [("ab", "t0")])
        bad = tmp_path / "broken.json"
        bad.write_text("{nope")
        manifest = self.manifest(tmp_path, [good, bad], ["ps"])
        out = tmp_path / "bench.csv"
        assert main(["bench", str(manifest), "-o", str(out)]) == 1
        lines = out.read_text().strip().splitlines()
        by_name = {line.split(",")[0]: line for line in lines[1:]}
        assert by_name["broken"].split(",")[files.BENCH_COLUMNS.index("status")] == "error"
        assert by_name["good"].split(",")[files.BENCH_COLUMNS.index("status")] == "optimal"

    def test_parallel_jobs_match_serial(self, tmp_path):
        p1, _ = write_instance(tmp_path, "p1", [("ab", "t0"), ("bc", "t1")])
        p2, _ = write_instance(tmp_path, "p2", PATTERN_PAIR)
        serial_m = self.manifest(tmp_path, [p1, p2], ["ps", "ilp1ml"], jobs=1)
        serial_out = tmp_path / "serial.csv"
        assert main(["bench", str(serial_m), "-o", str(serial_out)]) == 0
        parallel_m = self.manifest(tmp_path, [p1, p2], ["ps", "ilp1ml"], jobs=2)
        parallel_out = tmp_path / "parallel.csv"
        assert main(["bench", str(parallel_m), "-o", str(parallel_out)]) == 0

        def stable(text):  # runtime column varies between runs
            rows = [line.split(",") for line in text.strip().splitlines()]
            return [r[:7] + r[8:] for r in rows]

        assert stable(serial_out.read_text()) == stable(parallel_out.read_text())

    def test_negative_jobs_flag_rejected(self, tmp_path, capsys):
        p1, _ = write_instance(tmp_path, "m", [("ab", "t0")])
        manifest = self.manifest(tmp_path, [p1], ["ps"])
        out = tmp_path / "x.csv"
        assert main(["bench", str(manifest), "-o", str(out), "--jobs", "-2"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: --jobs must be a non-negative integer, not -2"]
        assert not out.exists()

    def test_unknown_algorithm_in_manifest(self, tmp_path, capsys):
        p1, _ = write_instance(tmp_path, "m", [("ab", "t0")])
        manifest = self.manifest(tmp_path, [p1], ["quantum"])
        assert main(["bench", str(manifest), "-o", str(tmp_path / "x.csv")]) == 1
        assert "unknown algorithm" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc, key",
        [
            (["a.json"], None),
            ({"algorithms": ["ps"]}, "instances"),
            ({"instances": "a.json"}, "instances"),
            ({"instances": ["a.json", 3]}, "instances"),
            ({"instances": [], "algorithms": "ps"}, "algorithms"),
            ({"instances": [], "timeout": None}, "timeout"),
            ({"instances": [], "timeout": 0}, "timeout"),
            ({"instances": [], "timeout": "60"}, "timeout"),
            ({"instances": [], "cap": 2.5}, "cap"),
            ({"instances": [], "cap": True}, "cap"),
            ({"instances": [], "cap": 0}, "cap"),
            ({"instances": [], "cap": -1}, "cap"),
            ({"instances": [], "jobs": -1}, "jobs"),
            ({"instances": [], "jobs": 1.5}, "jobs"),
        ],
        ids=[
            "not_a_mapping",
            "instances_missing",
            "instances_string",
            "instances_non_string",
            "algorithms_string",
            "timeout_null",
            "timeout_zero",
            "timeout_string",
            "cap_float",
            "cap_bool",
            "cap_zero",
            "cap_negative",
            "jobs_negative",
            "jobs_float",
        ],
    )
    def test_malformed_manifest_rejected(self, tmp_path, capsys, doc, key):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(doc))
        out = tmp_path / "x.csv"
        assert main(["bench", str(manifest), "-o", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert (f"manifest key {key!r}" if key else "JSON object") in err[0]
        assert not out.exists()


class TestLogSetting:
    @pytest.mark.parametrize(
        "value, level",
        [("info", logging.INFO), ("basic_format", logging.WARNING)],
    )
    def test_storyweave_log_sets_a_level(self, monkeypatch, capsys, value, level):
        # logging.BASIC_FORMAT is a format string, not a level, so it must
        # not reach basicConfig.
        seen = []
        monkeypatch.setattr(logging, "basicConfig", lambda **kw: seen.append(kw["level"]))
        monkeypatch.setenv("STORYWEAVE_LOG", value)
        assert main(["stats", str(WORKSHOP)]) == 0
        assert seen == [level]
        assert "dataset: workshop" in capsys.readouterr().out


class TestModuleEntryPoint:
    """``python -m storyweave.cli`` runs the same CLI as the installed script."""

    ROOT = Path(__file__).parents[1]

    def run_module(self, *argv):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(self.ROOT / "src"), env.get("PYTHONPATH")])
        )
        return subprocess.run(
            [sys.executable, "-m", "storyweave.cli", *argv],
            capture_output=True, text=True, env=env, cwd=self.ROOT, timeout=60,
        )

    def test_stats_prints_budgets(self):
        done = self.run_module("stats", "demos/data/workshop.json")
        assert done.returncode == 0, done.stderr
        assert "dataset: workshop" in done.stdout
        assert "coloring-layers: 4" in done.stdout

    def test_malformed_instance_exits_1(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"characters": ["a"], "timestamps": ["t0"]}))
        done = self.run_module("stats", str(path))
        assert done.returncode == 1
        assert done.stderr.startswith("error: ")

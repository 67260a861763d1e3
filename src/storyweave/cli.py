"""Command line surface.

Subcommands::

    storyweave stats <instance>
    storyweave solve <instance> --algorithm ps|pp|ilp1|ilp1ml|ilp2|ilp2ml
                     [--timeout S] [--cap K] [--export-lp F] [-o OUT]
    storyweave render <storyline> <instance> -o <svg>
    storyweave bench <manifest> -o <csv>

Set ``STORYWEAVE_LOG`` (debug/info/warning/error/critical) to control
verbosity; any other value means warning.

A bench manifest is a JSON document::

    {"instances": ["path.json", ...], "algorithms": ["ps", "ilp1"],
     "timeout": 3600, "cap": null, "jobs": 2}

Instance paths are resolved relative to the manifest's directory.  A
manifest with a missing or ill-typed key is rejected before any cell runs.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import logging
import os
import sys
import time
from pathlib import Path

from . import bip, coloring, files, formulations, pipeline, render
from .core import DEFAULT_TIMEOUT, InstanceError, LayoutReport, StorylineInstance

log = logging.getLogger(__name__)

# STORYWEAVE_LOG values; any other falls back to WARNING.  The logging
# module has other upper-case names, such as BASIC_FORMAT, that are not levels.
_LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL")


def cmd_stats(args: argparse.Namespace) -> int:
    inst = files.load_instance(args.instance)
    budgets = coloring.layer_budget(inst, minimize=True)
    print(f"dataset: {Path(args.instance).stem}")
    print(f"interactions: {inst.num_interactions}")
    print(f"characters: {inst.num_characters}")
    print(f"timestamps: {inst.num_timestamps}")
    print(f"coloring-layers: {sum(budgets.values())}")
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    inst = files.load_instance(args.instance)
    dataset = Path(args.instance).stem

    if args.export_lp:
        if args.algorithm not in formulations.EXACT_KINDS:
            raise ValueError("--export-lp requires an ilp* algorithm")
        kind = formulations.EXACT_KINDS[args.algorithm]
        budgets = coloring.layer_budget(
            inst, minimize=kind.minimize_layers, cap=args.cap
        )
        program, _cat = formulations.build_model(
            inst, kind, budgets, symmetry_breaking=False
        )
        text = bip.export_lp(program, name=f"{dataset} {args.algorithm}")
        files.write_text(args.export_lp, text)
        print(f"wrote {args.export_lp} ({len(program.variables)} variables, unsolved)")
        return 0

    if not args.output:
        raise ValueError("-o/--output is required unless --export-lp is given")
    story, report = pipeline.layout(inst, args.algorithm, args.timeout, args.cap)
    if story is None:
        print(f"no feasible storyline found (status {report.status})", file=sys.stderr)
        return 1
    files.save_storyline(args.output, inst, story)
    row = files.BenchRow.from_report(dataset, inst, report)
    print(",".join(files.BENCH_COLUMNS))
    print(",".join(row.as_csv()))
    return 0


def cmd_render(args: argparse.Namespace) -> int:
    inst = files.load_instance(args.instance)
    story = files.load_storyline(args.storyline, inst)
    geometry = render.pad_short_curves(render.assign_coordinates(story, inst))
    files.write_text(args.output, render.emit_svg(geometry, inst))
    print(f"wrote {args.output}")
    return 0


def _bench_cell(
    instance_path: str, algorithm: str, timeout: float, cap: int | None
) -> files.BenchRow:
    dataset = Path(instance_path).stem
    inst, started = StorylineInstance((), (), ()), None  # sizes 0 until loaded
    try:
        inst = files.load_instance(instance_path)
        started = time.monotonic()
        story, report = pipeline.layout(inst, algorithm, timeout, cap)
        if story is None:
            raise RuntimeError(f"no feasible storyline (status {report.status})")
        return files.BenchRow.from_report(dataset, inst, report)
    except Exception as exc:  # every per-cell failure lands in the row
        runtime = 0.0 if started is None else time.monotonic() - started
        failed = LayoutReport(algorithm, None, None, runtime, "error")
        return files.BenchRow.from_report(dataset, inst, failed, error=str(exc))


def cmd_bench(args: argparse.Namespace) -> int:
    manifest_path = Path(args.manifest)
    with open(manifest_path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict):
        raise ValueError("bench manifest must be a JSON object")
    paths = manifest.get("instances")
    algorithms = manifest.get("algorithms", list(pipeline.ALGORITHMS))
    timeout = manifest.get("timeout", DEFAULT_TIMEOUT)
    cap = manifest.get("cap")
    jobs = manifest.get("jobs", 0)
    # JSON numbers load as exactly int or float, and true/false as bool.
    for key, ok, expected in (
        ("instances", type(paths) is list and all(type(p) is str for p in paths),
         "a list of paths"),
        ("algorithms", type(algorithms) is list, "a list"),
        ("timeout", type(timeout) in (int, float) and timeout > 0, "a positive number"),
        ("cap", cap is None or type(cap) is int and cap >= 1,
         "null or a positive integer"),
        ("jobs", type(jobs) is int and jobs >= 0, "a non-negative integer"),
    ):
        if not ok:
            raise ValueError(
                f"manifest key {key!r} must be {expected}, not {manifest.get(key)!r}"
            )
    for alg in algorithms:
        if alg not in pipeline.ALGORITHMS:
            raise ValueError(f"unknown algorithm {alg!r} in manifest")
    instances = [str((manifest_path.parent / p).resolve()) for p in paths]
    jobs = jobs or min(4, os.cpu_count() or 1)

    cells = [(path, alg) for path in instances for alg in algorithms]
    rows: list[files.BenchRow] = []
    if jobs == 1:
        for path, alg in cells:
            rows.append(_bench_cell(path, alg, timeout, cap))
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [
                pool.submit(_bench_cell, path, alg, timeout, cap)
                for path, alg in cells
            ]
            rows = [f.result() for f in futures]
    files.write_bench_csv(args.output, rows)
    failures = [r for r in rows if r.error]
    for r in failures:
        log.error("cell %s/%s failed: %s", r.dataset, r.algorithm, r.error)
    print(f"wrote {args.output} ({len(rows)} rows, {len(failures)} failed)")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="storyweave",
        description="Crossing-minimized time-interval storyline layouts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="print instance statistics")
    p.add_argument("instance")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("solve", help="compute a storyline with one algorithm")
    p.add_argument("instance")
    p.add_argument("--algorithm", required=True, choices=pipeline.ALGORITHMS)
    p.add_argument("--timeout", type=float, default=DEFAULT_TIMEOUT)
    p.add_argument("--cap", type=int, default=None,
                   help="color class size cap (ps/pp/ilp1ml/ilp2ml only)")
    p.add_argument("--export-lp", metavar="FILE", default=None,
                   help="write the model as LP text instead of solving")
    p.add_argument("-o", "--output", default=None, help="storyline output path")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("render", help="draw a solved storyline as SVG")
    p.add_argument("storyline")
    p.add_argument("instance")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("bench", help="run an instance/algorithm grid into a CSV")
    p.add_argument("manifest")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("STORYWEAVE_LOG", "warning").upper()
    if level not in _LOG_LEVELS:
        level = "WARNING"
    logging.basicConfig(level=getattr(logging, level))
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InstanceError as exc:
        for violation in exc.violations:
            print(f"error: {violation}", file=sys.stderr)
        return 1
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()

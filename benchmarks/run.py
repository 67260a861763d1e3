"""storyweave benchmark: one workload per process, closed loop, one client.

    python3 benchmarks/run.py --workload corpus|ladder|wide-export \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory.  The run writes the workload's instance files under
``.bench_work/``, times whole rounds of operations until ``--seconds`` have
passed, checks every operation's output outside the timed phase, and prints
one JSON object as its last line.  Times are reported in nominal seconds,
scaled by a host-speed reference timed next to the work (``clock.py``).
With ``--trace 1`` it runs untraced rounds for half of ``--seconds``, then
as many traced rounds, and prints the per-layer metrics instead.  See
README.md in this directory.
"""

from __future__ import annotations

import argparse
import array
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ behind in the checkout
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import clock  # noqa: E402
import instances  # noqa: E402
import quantiles  # noqa: E402
import tracing  # noqa: E402

SETUP_REPEATS = 9
SETUP_MIN_S = 2.0  # setup repeats go on until this much wall time has passed
CORPUS_SIZE = 300
CORPUS_BUDGET = 60.0
CORPUS_ALGORITHMS = ("ps", "pp", "ilp1", "ilp1ml", "ilp2", "ilp2ml")
LADDER_BUDGET = 2.0
LADDER_ALGORITHMS = ("ps", "pp", "ilp1ml", "ilp2ml")
# The rung whose ilp1ml/ilp2ml cells come back empty keeps the same bytes
# under every seed, so its failures do not depend on the seed.
LADDER_FIXED_RUNG = "r12-25-8"
WIDE_SIZE = 4
WIDE_CHARACTERS = 24
WIDE_TIMESTAMPS = 2
WIDE_OPS = ("stats", "ilp1ml", "ilp2ml")


SRC = ROOT / "src"
if not (SRC / "storyweave" / "__init__.py").is_file():
    sys.exit(f"error: no storyweave sources under {SRC}")
sys.path.insert(0, str(SRC))

from storyweave import bip, coloring, core, files, formulations, pipeline, render  # noqa: E402

if Path(core.__file__).resolve().parent != (SRC / "storyweave").resolve():
    sys.exit(f"error: storyweave imported from {core.__file__}, not from {SRC}")


# ---------------------------------------------------------------------------
# Workload inputs
# ---------------------------------------------------------------------------


def corpus_docs(seed: int) -> dict[str, dict]:
    base = random.Random(instances.STRUCTURE_SEED)
    rng = random.Random(seed)
    return {
        f"i{k:03d}": instances.relabel(instances.corpus_draw(base, dense=k % 2 == 1), rng)
        for k in range(CORPUS_SIZE)
    }


def ladder_docs(seed: int) -> dict[str, dict]:
    s = instances.STRUCTURE_SEED
    rungs = {
        "workshop": instances.WORKSHOP,
        "clique4x1": instances.clique(4, 1),
        "clique4x2": instances.clique(4, 2),
        "r5-6-2": instances.cit_rung(5, 6, 2, s),
        "r8-12-4": instances.cit_rung(8, 12, 4, s),
        LADDER_FIXED_RUNG: instances.cit_rung(12, 25, 8, s),
    }
    rng = random.Random(seed)
    return {
        name: doc if name == LADDER_FIXED_RUNG else instances.relabel(doc, rng)
        for name, doc in rungs.items()
    }


def wide_docs(seed: int) -> dict[str, dict]:
    base = random.Random(instances.STRUCTURE_SEED)
    rng = random.Random(seed)
    return {
        f"w{k}": instances.relabel(
            instances.wide_draw(base, WIDE_CHARACTERS, WIDE_TIMESTAMPS), rng
        )
        for k in range(WIDE_SIZE)
    }


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Record:
    """One operation's outcome, kept for the checks after the timed phase.

    Equal outcomes of different rounds share one object (see ``Run.round``),
    so the memory a run holds does not grow with its number of rounds."""

    instance: str
    op: str
    failed: bool = False
    error: str = ""
    crossings: int | None = None
    status: str = ""
    gap: float | None = None
    story: str = ""  # digest of the stored storyline file
    svg: str = ""  # digest of the SVG text
    budgets: tuple[int, ...] = ()
    slots: tuple[int, ...] = ()
    lp: str = ""  # digest of the written LP file
    signature: tuple = ()


def solve_op(path: Path, algorithm: str, budget: float, out: Path):
    inst = files.load_instance(path)
    if algorithm in ("ps", "pp"):
        cfg = pipeline.PipelineConfig(
            heuristic="rand" if algorithm == "ps" else "pattern", timeout=budget
        )
        story, report = pipeline.run_pipeline(inst, cfg)
    else:
        story, report = formulations.solve_exact(
            inst, formulations.EXACT_KINDS[algorithm], timeout=budget
        )
    if story is None:
        return report, None
    files.save_storyline(out, inst, story)
    story = files.load_storyline(out, inst)
    geometry = render.pad_short_curves(render.assign_coordinates(story, inst))
    return report, render.emit_svg(geometry, inst)


def export_op(path: Path, what: str, out: Path):
    inst = files.load_instance(path)
    budgets = coloring.layer_budget(inst, minimize=True)
    if what == "stats":
        return budgets, None
    kind = formulations.EXACT_KINDS[what]
    program, cat = formulations.build_model(inst, kind, budgets, symmetry_breaking=False)
    out.write_text(bip.export_lp(program, name=f"{path.stem} {what}"), encoding="utf-8")
    return budgets, (program, cat)


def digest(data: bytes, store: dict[str, bytes]) -> str:
    key = hashlib.sha256(data).hexdigest()
    store.setdefault(key, data)
    return key


@dataclass
class Run:
    workload: str
    paths: dict[str, Path]
    outdir: Path
    records: list[Record] = field(default_factory=list)  # one per operation
    seconds: array.array = field(default_factory=lambda: array.array("d"))
    known: dict[Record, Record] = field(default_factory=dict)
    blobs: dict[str, bytes] = field(default_factory=dict)
    speed: clock.Clock = field(default_factory=clock.Clock)

    def __post_init__(self) -> None:
        algorithms = {
            "corpus": CORPUS_ALGORITHMS,
            "ladder": LADDER_ALGORITHMS,
            "wide-export": WIDE_OPS,
        }[self.workload]
        self.cells = [(name, alg) for name in self.paths for alg in algorithms]

    def one(self, name: str, alg: str) -> tuple[float, Record]:
        path = self.paths[name]
        out = self.outdir / f"{name}.{alg}"
        if self.workload == "wide-export":
            t0 = time.perf_counter()
            try:
                budgets, built = export_op(path, alg, out)
            except Exception as exc:  # an op that raises counts as failed
                return time.perf_counter() - t0, Record(name, alg, True, repr(exc))
            seconds = time.perf_counter() - t0
            found: dict = {"budgets": tuple(budgets[t] for t in sorted(budgets))}
            if built is not None:
                program, cat = built
                found["slots"] = tuple(
                    sum(1 for s in cat.slots if s.time == t) for t in sorted(budgets)
                )
                found["signature"] = (
                    hashlib.sha256(" ".join(v.name for v in program.variables).encode()).hexdigest(),
                    len(program.constraints),
                    tuple((c, v.name) for c, v in program.objective),
                )
                found["lp"] = digest(out.read_bytes(), self.blobs)
            return seconds, Record(name, alg, **found)
        budget = CORPUS_BUDGET if self.workload == "corpus" else LADDER_BUDGET
        t0 = time.perf_counter()
        try:
            report, svg = solve_op(path, alg, budget, out)
        except Exception as exc:  # an op that raises counts as failed
            return time.perf_counter() - t0, Record(name, alg, True, repr(exc))
        seconds = time.perf_counter() - t0
        found = {"crossings": report.crossings, "status": report.status, "gap": report.gap_percent}
        if svg is None:
            found.update(failed=True, error=f"no layout (status {report.status})")
        else:
            found.update(
                story=digest(out.read_bytes(), self.blobs),
                svg=digest(svg.encode(), self.blobs),
            )
        return seconds, Record(name, alg, **found)

    def round(self) -> float:
        """Run every cell once, each followed by its host-speed sample;
        returns the round's operation seconds."""
        total = 0.0
        for name, alg in self.cells:
            seconds, rec = self.one(name, alg)
            self.speed.sample(seconds)
            self.records.append(self.known.setdefault(rec, rec))
            self.seconds.append(seconds)
            total += seconds
        return total

    def entries(self):
        """(round, wall seconds, record) of every operation, in run order."""
        n = len(self.cells)
        for i, (seconds, rec) in enumerate(zip(self.seconds, self.records)):
            yield i // n, seconds, rec


# ---------------------------------------------------------------------------
# Checks, run after the timed phase
# ---------------------------------------------------------------------------


def check_layouts(run: Run, docs: dict[str, dict]) -> list[str]:
    bad: list[str] = []
    verdicts: dict[tuple[str, str, str], int] = {}
    by_cell: dict[tuple[int, str], dict[str, Record]] = {}
    for rnd, _, rec in run.entries():
        where = f"{rec.instance}/{rec.op} round {rnd}"
        if rec.failed:
            expected = (
                run.workload == "ladder"
                and rec.instance == LADDER_FIXED_RUNG
                and rec.op in ("ilp1ml", "ilp2ml")
                and rec.error.startswith("no layout")
            )
            if not expected:
                bad.append(f"{where}: unexpected failure {rec.error}")
            continue
        doc = docs[rec.instance]
        key = (rec.instance, rec.story, rec.svg)
        if key not in verdicts:
            story_doc = json.loads(run.blobs[rec.story])
            bad += [f"{where}: {p}" for p in checks.layout_problems(doc, story_doc)]
            recount = checks.flip_recount(story_doc)
            if story_doc.get("crossings") != recount:
                bad.append(f"{where}: stored {story_doc.get('crossings')} crossings, recount {recount}")
            counts = checks.svg_counts(run.blobs[rec.svg].decode())
            if counts != (len(doc["characters"]), len(doc["interactions"])):
                bad.append(f"{where}: SVG has {counts} paths/bars")
            verdicts[key] = recount
        if rec.crossings != verdicts[key]:
            bad.append(f"{where}: reported {rec.crossings} crossings, recount {verdicts[key]}")
        # gap = (UB - LB) / UB: a lower bound in [0, UB] is a gap in [0, 100],
        # and the gap is undefined when UB is 0
        if rec.status == "optimal":
            gap_ok = rec.gap is None
        elif rec.status == "feasible-timeout":
            gap_ok = rec.crossings == 0 if rec.gap is None else 0 <= rec.gap <= 100
        else:
            gap_ok = False
        if not gap_ok:
            bad.append(f"{where}: status {rec.status} with gap {rec.gap}")
        by_cell.setdefault((rnd, rec.instance), {})[rec.op] = rec
    return bad + (check_corpus(by_cell, docs) if run.workload == "corpus" else check_ladder(by_cell, docs))


def check_corpus(by_cell: dict, docs: dict[str, dict]) -> list[str]:
    bad: list[str] = []
    optimum: dict[str, int] = {}
    for (rnd, name), cell in by_cell.items():
        x = {op: rec.crossings for op, rec in cell.items()}
        if any(rec.status != "optimal" for rec in cell.values()):
            bad.append(f"{name} round {rnd}: a cell reached its budget")
        if name not in optimum:
            optimum[name] = core.brute_force_optimum(core.validate_instance(docs[name]), "span")
        if x["ilp1"] != optimum[name]:
            bad.append(f"{name}: ilp1 {x['ilp1']} != exhaustive optimum {optimum[name]}")
        if not (x["ilp2"] <= x["ilp1"] <= x["ilp1ml"] and x["ilp2"] <= x["ilp2ml"]):
            bad.append(f"{name}: dominance broken {x}")
        if min(x["ps"], x["pp"]) < x["ilp1ml"]:
            bad.append(f"{name}: heuristic below ilp1ml {x}")
    return bad


def check_ladder(by_cell: dict, docs: dict[str, dict]) -> list[str]:
    bad: list[str] = []
    optimum: dict[str, int | None] = {}
    for (rnd, name), cell in by_cell.items():
        rec = cell.get("ilp1ml")
        if rec is None or rec.status != "optimal":
            continue
        if name not in optimum:
            chi = checks.chromatic_numbers(docs[name])
            inst = core.validate_instance(docs[name])
            try:
                optimum[name] = core.brute_force_optimum(inst, "span", dict(enumerate(chi)))
            except core.SearchSpaceError:
                optimum[name] = None
            print(f"ladder: exhaustive ilp1ml optimum of {name}: {optimum[name]}", file=sys.stderr)
        if optimum[name] is not None and rec.crossings != optimum[name]:
            bad.append(f"{name}: proven ilp1ml {rec.crossings} != exhaustive {optimum[name]}")
    return bad


def check_exports(run: Run, docs: dict[str, dict]) -> list[str]:
    bad: list[str] = []
    chromatic = {name: tuple(checks.chromatic_numbers(doc)) for name, doc in docs.items()}
    parsed: dict[str, tuple] = {}
    for rnd, _, rec in run.entries():
        where = f"{rec.instance}/{rec.op} round {rnd}"
        if rec.failed:
            bad.append(f"{where}: unexpected failure {rec.error}")
            continue
        if rec.budgets != chromatic[rec.instance]:
            bad.append(f"{where}: budgets {rec.budgets} != chromatic {chromatic[rec.instance]}")
        if rec.op == "stats":
            continue
        if rec.slots != chromatic[rec.instance]:
            bad.append(f"{where}: slots {rec.slots} != chromatic {chromatic[rec.instance]}")
        if rec.lp not in parsed:
            program = bip.parse_lp(run.blobs[rec.lp].decode())
            parsed[rec.lp] = (
                hashlib.sha256(" ".join(v.name for v in program.variables).encode()).hexdigest(),
                len(program.constraints),
                tuple((c, v.name) for c, v in program.objective),
            )
        if parsed[rec.lp] != rec.signature:
            bad.append(f"{where}: LP text does not parse back to the built program")
    return bad


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def round_costs(run: Run, docs: dict[str, dict]) -> list[int]:
    """Per round: crossings of every layout (a failed cell scores the
    benchmark's greedy layout), or for wide-export the layer slots granted."""
    greedy: dict[str, int] = {}
    totals: dict[int, int] = {}
    for rnd, _, rec in run.entries():
        if run.workload == "wide-export":
            cost = sum(rec.budgets)
        elif rec.failed:
            if rec.instance not in greedy:
                layout = checks.greedy_layout(docs[rec.instance])
                if checks.layout_problems(docs[rec.instance], layout):
                    raise RuntimeError(f"greedy layout of {rec.instance} is illegal")
                greedy[rec.instance] = checks.flip_recount(layout)
            cost = greedy[rec.instance]
        else:
            cost = rec.crossings
        totals[rnd] = totals.get(rnd, 0) + cost
    return [totals[r] for r in sorted(totals)]


def end_to_end(run: Run, docs: dict[str, dict], setup_s: float, rss_mb: float) -> dict:
    """Throughput over every operation; op-time quantiles over the cells,
    each cell timed by the median of its rounds."""
    times = [s * f for s, f in zip(run.seconds, run.speed.scales(), strict=True)]
    by_cell: dict[tuple[str, str], list[float]] = {}
    for rec, t in zip(run.records, times):
        by_cell.setdefault((rec.instance, rec.op), []).append(t)
    cell_s = [statistics.median(ts) for ts in by_cell.values()]
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(times) / sum(times), "ops/s"),
        "op_s_p50": (quantiles.quantile(cell_s, 0.5), "s"),
        "op_s_p99": (quantiles.quantile(cell_s, 0.99), "s"),
        "result_cost": (statistics.median(round_costs(run, docs)), "count"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

GENERATORS = {"corpus": corpus_docs, "ladder": ladder_docs, "wide-export": wide_docs}


def setup(workload: str, seed: int, workdir: Path) -> tuple[dict, dict, float]:
    """Generate and write the instance files; median nominal time of the repeats.

    Every repeat writes the same directory, so all but the first rewrite
    existing files; creating thousands of fresh files would time the file
    system's journal more than the generators.
    """
    spent: list[float] = []
    speed = clock.Clock()
    begin = time.perf_counter()
    while len(spent) < SETUP_REPEATS or time.perf_counter() - begin < SETUP_MIN_S:
        t0 = time.perf_counter()
        docs = GENERATORS[workload](seed)
        paths = instances.write_all(workdir / "inputs", docs)
        spent.append(time.perf_counter() - t0)
        speed.sample(spent[-1])
    return docs, paths, statistics.median(s * f for s, f in zip(spent, speed.scales()))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        docs, paths, setup_s = setup(args.workload, args.seed, workdir)
        (workdir / "out").mkdir()
        run = Run(args.workload, paths, workdir / "out")
        if args.trace:
            tracer, tracer_scale, plain, spans = traced(run, args.seconds)
        else:
            start = time.perf_counter()
            while not run.records or time.perf_counter() - start < args.seconds:
                run.round()
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.workload == "wide-export":
            problems = check_exports(run, docs)
        else:
            problems = check_layouts(run, docs)
        if args.trace:
            metrics = tracing.layer_metrics(tracer, len(spans), tracer_scale)
            metrics["trace.overhead_s"] = ((sum(spans) - sum(plain)) / len(spans), "s")
        else:
            metrics = end_to_end(run, docs, setup_s, rss_mb)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass
    for p in problems[:50]:
        print(f"check failed: {p}", file=sys.stderr)
    report_split(run)
    result = {
        "correct": not problems,
        "attempted": len(run.records),
        "failed": sum(1 for r in run.records if r.failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def report_split(run: Run) -> None:
    """Wall seconds per solver status and, for small rounds, every op with its
    wall seconds and, in an untraced run, its host-speed factor, on stderr."""
    split: dict[str, float] = {}
    for _, seconds, r in run.entries():
        split[r.status or "done"] = split.get(r.status or "done", 0.0) + seconds
    print("op seconds by status: " + json.dumps(split), file=sys.stderr)
    if len(run.cells) <= 100:
        factors = run.speed.scales()
        if len(factors) != len(run.seconds):  # traced: the clock restarted
            factors = [None] * len(run.seconds)
        cells = [
            [r.instance, r.op, r.status, round(s, 4), f and round(f, 4)]
            for (_, s, r), f in zip(run.entries(), factors)
        ]
        print("ops: " + json.dumps(cells), file=sys.stderr)


def traced(run: Run, seconds: float):
    """Untraced rounds for half the time, then as many traced rounds.

    Returns the tracer, the nominal-seconds scale of the traced rounds, and
    the nominal operation seconds of every untraced and traced round.
    """
    start = time.perf_counter()
    plain: list[float] = []
    while not plain or time.perf_counter() - start < seconds / 2:
        plain.append(run.round())
    plain = [s * run.speed.scale() for s in plain]
    run.speed = clock.Clock()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        spans = [run.round() for _ in plain]
    finally:
        tracer.uninstall()
    scale = run.speed.scale()
    return tracer, scale, plain, [s * scale for s in spans]


if __name__ == "__main__":
    sys.exit(main())

"""Span tracing of storyweave's public functions, installed from outside.

Nothing in the package is edited: each traced function is replaced, in
every ``storyweave`` module namespace that holds it, by a wrapper that
records a span.  Module-level names are looked up at call time, so calls
between modules (``pipeline.count_crossings``, ``formulations.decode``,
``bip.validate_program`` inside ``bip.solve``) are traced as well.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

# module -> functions traced, as named in the per-layer metrics
TRACED = {
    "core": ("validate_instance", "validate_storyline", "count_crossings"),
    "bip": ("solve", "validate_program", "export_lp"),
    "coloring": ("min_coloring",),
    "ordering": ("build_slice_graph", "min_path_order"),
    "formulations": ("build_model", "decode", "solve_exact"),
    "pipeline": ("run_pipeline", "orient_slice_paths"),
    "render": ("assign_coordinates", "emit_svg"),
    "files": ("load_instance", "save_storyline", "load_storyline"),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 at the top


class Tracer:
    """Records one span per traced call while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, label: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = label
            if label == "bip.solve":
                caller = sys._getframe(1).f_globals.get("__name__", "?")
                name = f"bip.solve.{caller.rsplit('.', 1)[-1]}"
            parent = tracer._stack[-1] if tracer._stack else -1
            idx = len(tracer.spans)
            span = Span(name, time.perf_counter(), 0.0, parent)
            tracer.spans.append(span)
            tracer._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            tracer._count(label, result)
            return result

        return traced

    def _count(self, label: str, result) -> None:
        if label == "bip.solve":
            self.counts["bip.nodes"] += result.nodes
        elif label == "formulations.build_model":
            program = result[0]
            self.counts["formulations.model_vars"] += len(program.variables)
            self.counts["formulations.model_constraints"] += len(program.constraints)

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "storyweave"]
        for short, names in TRACED.items():
            home = sys.modules[f"storyweave.{short}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(f"{short}.{name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._undo.append((mod, attr, value))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._undo):
            setattr(mod, attr, value)
        self._undo.clear()

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self time (span time minus child span time) and calls per name."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.end - span.start
        own: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for span, below in zip(self.spans, child):
            own[span.name] += span.end - span.start - below
            calls[span.name] += 1
        return own, calls


def layer_metrics(tracer: Tracer, rounds: int, scale: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as totals per round: name -> (value, unit).

    Span seconds are multiplied by ``scale``, the run's factor from wall
    seconds to nominal seconds (see clock.py).
    """
    own, calls = tracer.self_times()
    own = {name: s * scale for name, s in own.items()}
    per = 1.0 / rounds
    out: dict[str, tuple[float, str]] = {}
    solve_s = 0.0
    solve_calls = 0
    for caller in ("coloring", "formulations", "pipeline"):
        s = own.get(f"bip.solve.{caller}", 0.0)
        out[f"bip.solve.{caller}.s"] = (s * per, "s")
    for name, s in own.items():
        if name.startswith("bip.solve."):
            solve_s += s
            solve_calls += calls[name]
    nodes = tracer.counts["bip.nodes"]
    out["bip.solve.calls"] = (solve_calls * per, "count")
    out["bip.nodes"] = (nodes * per, "count")
    out["bip.nodes_per_s"] = (nodes / solve_s if solve_s else 0.0, "1/s")
    out["bip.validate_program.calls"] = (calls.get("bip.validate_program", 0) * per, "count")
    out["coloring.min_coloring.calls"] = (calls.get("coloring.min_coloring", 0) * per, "count")
    for key in ("formulations.model_vars", "formulations.model_constraints"):
        out[key] = (tracer.counts[key] * per, "count")
    for short, names in TRACED.items():
        for name in names:
            label = f"{short}.{name}"
            if label != "bip.solve":
                out[f"{label}.s"] = (own.get(label, 0.0) * per, "s")
    return out

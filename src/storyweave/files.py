"""JSON file formats for instances, storylines and benchmark rows.

Instance documents::

    {"characters": ["alice", ...],
     "timestamps": ["1994", ...],            # list order is the time order
     "interactions": [{"characters": ["alice", "bob"], "time": "1994"}, ...]}

Storyline documents reference characters by name and interactions by their
input-order id::

    {"layers": [{"time": "1994", "interactions": [0, 2],
                 "order": ["alice", "bob"], "active": ["alice", "bob"]}, ...],
     "crossings": 3}

The stored crossing count is verified against a recount on load, so stale
or hand-edited files are rejected.  Benchmark results are written as one
CSV row per (dataset, algorithm) cell.

Every file the package writes goes through :func:`write_text`, which
overwrites an existing file in place and cuts it only when the new text is
shorter.  Truncating to zero first would cost more: on ext4 (the default
``auto_da_alloc``), closing a file truncated to zero forces block allocation
and starts writeback, so re-running a solve into the same output would pay
for a flush on every file.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .core import (
    CombinatorialStoryline,
    Layer,
    LayoutReport,
    StorylineInstance,
    count_crossings,
    validate_instance,
    validate_storyline,
)

@dataclass(frozen=True)
class BenchRow:
    dataset: str
    algorithm: str
    interactions: int
    characters: int
    timestamps: int
    layers: int | None
    crossings: int | None
    runtime_s: float
    status: str
    gap_pct: float | None
    error: str = ""

    @classmethod
    def from_report(
        cls, dataset: str, inst: StorylineInstance, report: LayoutReport, error: str = ""
    ) -> "BenchRow":
        return cls(
            dataset=dataset,
            algorithm=report.algorithm,
            interactions=inst.num_interactions,
            characters=inst.num_characters,
            timestamps=inst.num_timestamps,
            layers=report.layers,
            crossings=report.crossings,
            runtime_s=report.runtime,
            status=report.status,
            gap_pct=report.gap_percent,
            error=error,
        )

    def as_csv(self) -> list[str]:
        return [
            self.dataset,
            self.algorithm,
            str(self.interactions),
            str(self.characters),
            str(self.timestamps),
            "" if self.layers is None else str(self.layers),
            "" if self.crossings is None else str(self.crossings),
            f"{self.runtime_s:.3f}",
            self.status,
            "" if self.gap_pct is None else f"{self.gap_pct:.1f}",
            self.error,
        ]


BENCH_COLUMNS = tuple(f.name for f in dataclasses.fields(BenchRow))


def load_instance(path: str | Path) -> StorylineInstance:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return validate_instance(doc)


def instance_to_doc(inst: StorylineInstance) -> dict:
    return {
        "characters": list(inst.characters),
        "timestamps": list(inst.timestamps),
        "interactions": [
            {
                "characters": [inst.characters[c] for c in sorted(it.characters)],
                "time": inst.timestamps[it.time],
            }
            for it in inst.interactions
        ],
    }


def save_instance(path: str | Path, inst: StorylineInstance) -> None:
    _dump(path, instance_to_doc(inst))


def storyline_to_doc(inst: StorylineInstance, s: CombinatorialStoryline) -> dict:
    return {
        "layers": [
            {
                "time": inst.timestamps[layer.time],
                "interactions": list(layer.interactions),
                "order": [inst.characters[c] for c in layer.order],
                "active": [inst.characters[c] for c in layer.order],
            }
            for layer in s.layers
        ],
        "crossings": count_crossings(s).total,
    }


def storyline_from_doc(
    inst: StorylineInstance, doc: Mapping
) -> CombinatorialStoryline:
    """Decode and fully validate a storyline document against its instance.

    Raises ValueError on schema problems, on any storyline invariant
    violation, and when the stored crossing count, if present and not
    null, is not an ``int`` or disagrees with the oracle's recount.
    """
    if not isinstance(doc, Mapping) or not isinstance(doc.get("layers"), list):
        raise ValueError("storyline document must be a mapping with a 'layers' list")
    name_to_id = {name: i for i, name in enumerate(inst.characters)}
    label_to_id = {label: i for i, label in enumerate(inst.timestamps)}
    layers: list[Layer] = []
    for li, item in enumerate(doc["layers"]):
        path = f"layers[{li}]"
        try:
            time = label_to_id[item["time"]]
            fields = {key: item[key] for key in ("order", "active", "interactions")}
            for key, value in fields.items():
                if not isinstance(value, list):
                    raise ValueError(f"{path}: {key!r} must be a list")
            if any(type(i) is not int for i in fields["interactions"]):
                raise ValueError(f"{path}: interaction ids must be integers")
            order = tuple(name_to_id[n] for n in fields["order"])
            active = frozenset(name_to_id[n] for n in fields["active"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"{path}: malformed layer ({exc})") from exc
        interactions = tuple(fields["interactions"])
        layers.append(Layer(time=time, interactions=interactions, order=order, active=active))
    story = CombinatorialStoryline(tuple(layers))
    problems = validate_storyline(inst, story)
    if problems:
        raise ValueError("invalid storyline: " + "; ".join(problems))
    declared = doc.get("crossings")
    if declared is not None and type(declared) is not int:
        raise ValueError("'crossings' must be an integer")
    recount = count_crossings(story).total
    if declared is not None and declared != recount:
        raise ValueError(
            f"stored crossing count {declared} disagrees with recount {recount}"
        )
    return story


def load_storyline(path: str | Path, inst: StorylineInstance) -> CombinatorialStoryline:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return storyline_from_doc(inst, doc)


def save_storyline(
    path: str | Path, inst: StorylineInstance, s: CombinatorialStoryline
) -> None:
    _dump(path, storyline_to_doc(inst, s))


def write_bench_csv(path: str | Path, rows: Sequence[BenchRow]) -> None:
    ordered = sorted(rows, key=lambda r: (r.dataset, r.algorithm))
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(BENCH_COLUMNS)
    for row in ordered:
        writer.writerow(row.as_csv())
    write_text(path, buf.getvalue())


def write_text(path: str | Path, text: str) -> None:
    """Write ``text`` as UTF-8 to ``path``, overwriting the file in place.

    A new file gets the mode ``open(path, "w")`` would give it.
    """
    data = text.encode("utf-8")
    # No O_TRUNC: closing a file truncated to zero makes ext4 (auto_da_alloc)
    # allocate and start writeback at once; cutting only a longer tail does not.
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "wb") as fh:
        fh.write(data)
        if os.fstat(fd).st_size > len(data):
            fh.truncate()  # flushes, then cuts at the end of data


def _dump(path: str | Path, doc: dict) -> None:
    write_text(path, json.dumps(doc, indent=2, ensure_ascii=False) + "\n")

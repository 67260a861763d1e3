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

A stored storyline is exactly ``json.dumps(doc, indent=2,
ensure_ascii=False)`` plus a newline, as for instances, but
:func:`storyline_text` writes that text itself: CPython uses its C encoder
only when ``indent`` is None, and the pure-Python one cost most of a save.
The stored crossing count is the storyline's ``crossings``, counted once
per storyline object (a solver's own count is reused), and a load verifies
it against a recount of the storyline it reads, so stale or hand-edited
files are rejected.  Files are read as UTF-8 only; a byte
order mark or another encoding is rejected.  Benchmark results are written
as one CSV row per (dataset, algorithm) cell.

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
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from json.encoder import encode_basestring
from pathlib import Path

from .core import (
    CombinatorialStoryline,
    Layer,
    LayoutReport,
    StorylineInstance,
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
    return validate_instance(_load(path))


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
    return json.loads(storyline_text(inst, s))


def storyline_text(inst: StorylineInstance, s: CombinatorialStoryline) -> str:
    """The stored form of ``s``: ``json.dumps(doc, indent=2,
    ensure_ascii=False)`` of its document plus a newline, written directly.

    Each name and label is escaped once with the encoder ``json.dumps`` uses
    for ``ensure_ascii=False``; ids and the count are ints, spelled as
    ``json`` spells them.  A layer's ``active`` list is its ``order``.  The
    count is ``s.crossings``, which a storyline counts once.
    """
    names = [encode_basestring(name) for name in inst.characters]
    labels = [encode_basestring(label) for label in inst.timestamps]
    layers = []
    for layer in s.layers:
        order = _items([names[c] for c in layer.order])
        layers.append(
            '{\n      "time": %s,\n      "interactions": %s,\n'
            '      "order": %s,\n      "active": %s\n    }'
            % (labels[layer.time], _items(map(str, layer.interactions)), order, order)
        )
    body = "[\n    " + ",\n    ".join(layers) + "\n  ]" if layers else "[]"
    return '{\n  "layers": %s,\n  "crossings": %d\n}\n' % (body, s.crossings)


def _items(items: Iterable[str]) -> str:
    """An indent-2 list of encoded items, nested as a layer field."""
    text = ",\n        ".join(items)
    return "[\n        " + text + "\n      ]" if text else "[]"


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
            if len(active) != len(fields["active"]):
                raise ValueError(f"{path}: 'active' names a character twice")
        except (KeyError, TypeError) as exc:
            raise ValueError(f"{path}: malformed layer ({exc})") from exc
        interactions = tuple(fields["interactions"])
        layers.append(Layer(time, interactions, order, active))
    story = CombinatorialStoryline(tuple(layers))
    problems = validate_storyline(inst, story)
    if problems:
        raise ValueError("invalid storyline: " + "; ".join(problems))
    declared = doc.get("crossings")
    if declared is not None and type(declared) is not int:
        raise ValueError("'crossings' must be an integer")
    recount = story.crossings
    if declared is not None and declared != recount:
        raise ValueError(
            f"stored crossing count {declared} disagrees with recount {recount}"
        )
    return story


def load_storyline(path: str | Path, inst: StorylineInstance) -> CombinatorialStoryline:
    return storyline_from_doc(inst, _load(path))


def save_storyline(
    path: str | Path, inst: StorylineInstance, s: CombinatorialStoryline
) -> None:
    write_text(path, storyline_text(inst, s))


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


def _load(path: str | Path):
    # Decoded here, not by json.loads(bytes), which would also detect and
    # accept UTF-16 and a UTF-8 byte order mark.
    with open(path, "rb") as fh:
        data = fh.read()
    return json.loads(data.decode("utf-8"))

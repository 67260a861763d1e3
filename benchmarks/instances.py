"""Seeded instance generators for the benchmark workloads.

Every generator returns instance documents (the JSON shape that
``storyweave.files.load_instance`` reads), never library objects, so the
program under test only ever sees the files written from them.
"""

from __future__ import annotations

import itertools
import json
import random
import string
from pathlib import Path

# Structure seed of every fixed draw, the convention of the ROADMAP baseline.
STRUCTURE_SEED = 1

WORKSHOP = {
    "characters": ["ada", "boris", "chen", "dana", "edu", "fatima"],
    "timestamps": ["2019", "2020", "2021", "2022"],
    "interactions": [
        {"characters": ["ada", "boris"], "time": "2019"},
        {"characters": ["chen", "dana"], "time": "2019"},
        {"characters": ["ada", "chen"], "time": "2020"},
        {"characters": ["boris", "dana"], "time": "2020"},
        {"characters": ["dana", "edu"], "time": "2021"},
        {"characters": ["ada", "fatima"], "time": "2021"},
        {"characters": ["edu", "fatima"], "time": "2022"},
    ],
}


def _doc(interactions: list[tuple[list[int], int]], num_times: int) -> dict:
    """Instance document from (member indices, time index) pairs.

    Characters that take part in no interaction are dropped and the rest
    renumbered in index order; every timestamp is kept.
    """
    used = sorted({c for members, _t in interactions for c in members})
    name = {c: f"c{k}" for k, c in enumerate(used)}
    return {
        "characters": [name[c] for c in used],
        "timestamps": [f"t{k}" for k in range(num_times)],
        "interactions": [
            {"characters": [name[c] for c in sorted(members)], "time": f"t{t}"}
            for members, t in interactions
        ],
    }


def cit_rung(chars: int, interactions: int, times: int, seed: int) -> dict:
    """c/i/t rung: interactions of 2-4 uniform members at uniform timestamps."""
    rng = random.Random(seed)
    drawn = []
    for _ in range(interactions):
        size = rng.randint(2, min(4, chars))
        drawn.append((rng.sample(range(chars), size), rng.randrange(times)))
    return _doc(drawn, times)


def clique(chars: int, times: int) -> dict:
    """Every pair of ``chars`` characters meets once; pair k at timestamp k mod ``times``."""
    pairs = itertools.combinations(range(chars), 2)
    return _doc([(list(p), k % times) for k, p in enumerate(pairs)], times)


def corpus_draw(rng: random.Random, dense: bool) -> dict:
    """One small corpus instance: at most 5 characters, 4 interactions, 3 timestamps.

    Plain draws take 2-5 characters, 1-4 interactions of 1-3 members; dense
    draws crowd 4 interactions of 2-3 members onto 4-5 characters.  Each
    timestamp receives at most two interactions.
    """
    if dense:
        n, m = rng.randint(4, 5), 4
    else:
        n = rng.randint(2, 5)
        m = rng.randint(1, 4)
    times = [0, 0, 1, 1, 2, 2]
    rng.shuffle(times)
    drawn = []
    for k in range(m):
        size = rng.choice((2, 2, 2, 3)) if dense else rng.randint(1, min(3, n))
        drawn.append((rng.sample(range(n), size), times[k]))
    used_times = sorted({t for _m, t in drawn})
    return _doc([(mem, used_times.index(t)) for mem, t in drawn], len(used_times))


def wide_draw(rng: random.Random, chars: int, times: int) -> dict:
    """Few timestamps, 12-14 interactions of 2-4 uniform members at each."""
    drawn = []
    for t in range(times):
        for _ in range(rng.randint(12, 14)):
            drawn.append((rng.sample(range(chars), rng.randint(2, 4)), t))
    return _doc(drawn, times)


def relabel(doc: dict, rng: random.Random) -> dict:
    """The same instance under fresh character and timestamp names from ``rng``.

    Lists keep their order, so the program builds the same models and does
    the same search as on the original document.
    """
    chars = doc["characters"]
    names: dict[str, str] = {}
    while len(names) < len(chars):
        cand = "".join(rng.choices(string.ascii_lowercase, k=6))
        if cand not in names.values():
            names[chars[len(names)]] = cand
    labels = {t: f"{t}-{rng.randrange(10**6):06d}" for t in doc["timestamps"]}
    return {
        "characters": [names[c] for c in chars],
        "timestamps": [labels[t] for t in doc["timestamps"]],
        "interactions": [
            {"characters": [names[c] for c in it["characters"]], "time": labels[it["time"]]}
            for it in doc["interactions"]
        ],
    }


def write_all(directory: Path, docs: dict[str, dict]) -> dict[str, Path]:
    """Write each document as ``<name>.json``; returns name -> path."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, doc in docs.items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        paths[name] = path
    return paths

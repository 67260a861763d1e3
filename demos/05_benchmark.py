"""Benchmark grid over instances and algorithms, written as CSV.

Mirrors the command line `storyweave bench`: a manifest lists instance
files and algorithm names; every cell runs independently (worker pool) and
lands as one CSV row carrying sizes, layer and crossing counts, runtime,
solver status, and the optimality gap (upper vs proven lower bound) for
cells that hit their time limit.
"""

import json
from pathlib import Path

from storyweave.cli import main

out_dir = Path(__file__).parent / "out"
out_dir.mkdir(exist_ok=True)

# A second, harder instance: every pair out of four characters meets once.
# No layout avoids crossings, and the full search space is big enough that
# a one second budget forces a timeout row with an honest gap.
clique = {
    "characters": ["a", "b", "c", "d"],
    "timestamps": ["t0"],
    "interactions": [
        {"characters": list(pair), "time": "t0"}
        for pair in ("ab", "ac", "ad", "bc", "bd", "cd")
    ],
}
(out_dir / "clique4.json").write_text(json.dumps(clique, indent=2))

manifest = {
    "instances": ["../data/workshop.json", "clique4.json"],
    "algorithms": ["ps", "pp", "ilp1", "ilp1ml", "ilp2ml"],
    "timeout": 1,
    "jobs": 2,
}
(out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2))

code = main(["bench", str(out_dir / "manifest.json"), "-o", str(out_dir / "bench.csv")])
print("exit code:", code)

print()
for line in (out_dir / "bench.csv").read_text().strip().splitlines():
    print(line)
print()
print("status=feasible-timeout rows report the best layout found in time;")
print("their gap_pct column is (upper-lower)/upper between the incumbent")
print("and the strongest bound the solver proved before the cutoff.")

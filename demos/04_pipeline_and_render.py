"""End to end: heuristic pipeline, storyline file, SVG drawing.

The pipeline colors each timestamp's conflict graph into layers, orders
each slice's layers along a cheapest path under the chosen estimator, and
finally orders the characters within the now fixed layers by a min-plus
DP over every layer's candidate orders.  The result is saved, reloaded
(files are re-validated and the stored crossing count re-checked on load),
and drawn.
"""

from pathlib import Path

import storyweave as sw
from storyweave import files

HERE = Path(__file__).parent
OUT = HERE / "out"
OUT.mkdir(exist_ok=True)
inst = files.load_instance(HERE / "data" / "workshop.json")

for heuristic in ("rand", "pattern"):
    cfg = sw.PipelineConfig(heuristic=heuristic, timeout=60)
    story, report = sw.run_pipeline(inst, cfg)
    stage = " + ".join(
        f"{name} {seconds:.2f}s" for name, seconds in report.stage_seconds.items()
    )
    print(f"{report.algorithm}: {report.crossings} crossings over "
          f"{report.layers} layers ({report.status}; {stage})")

story, report = sw.run_pipeline(inst, sw.PipelineConfig(heuristic="pattern"))

files.save_storyline(OUT / "workshop.story.json", inst, story)
reloaded = files.load_storyline(OUT / "workshop.story.json", inst)
print("reloaded file equals solved storyline:", reloaded == story)

geometry = sw.assign_coordinates(story, inst)
geometry = sw.pad_short_curves(geometry)
svg = sw.emit_svg(geometry, inst)
(OUT / "workshop.svg").write_text(svg, encoding="utf-8")
curves = svg.count('class="character"')
bars = svg.count('class="interaction"')
print(f"wrote {OUT / 'workshop.svg'} ({curves} curves, {bars} interaction bars)")

# The drawing is faithful: re-deriving each layer's vertical order from the
# y coordinates gives back the combinatorial order, so the picture shows
# exactly the crossings that were counted.
for li, layer in enumerate(story.layers):
    by_y = tuple(sorted(layer.active, key=lambda c: geometry.ys[(c, li)]))
    assert by_y == layer.order
print("geometry preserves every layer order; crossings drawn =",
      sw.count_crossings(story).total)

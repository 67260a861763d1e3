"""Geometric realization of a storyline and SVG output.

Coordinates: every layer gets an x position (extra gap where the timestamp
changes) and every active character a y position per layer.  Vertical
orders are taken verbatim from the storyline; a median-sweep relaxation
then pulls each curve toward its neighbors to reduce wiggle, with a
projection step after every sweep restoring the layer's order and minimum
gaps.  Characters of one interaction sit closer together than unrelated
neighbors, which is what makes the interaction groups readable.

The SVG uses the conventions of the storyline figures this package is
meant to reproduce: one x-monotone curve per character labelled at its
start, black vertical bars spanning each interaction, dashed vertical
separators between slices, and timestamp labels along the bottom edge.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Sequence

from .core import (
    CharId,
    CombinatorialStoryline,
    InteractionId,
    StorylineInstance,
)


# Lengths are in SVG user units.
GAP_WITHIN = 14.0  # same interaction
GAP_BETWEEN = 28.0  # different interactions or free neighbors
X_STEP = 60.0
BOUNDARY_GAP = 20.0  # extra space where a new slice starts
MARGIN = 40.0
LABEL_SPACE = 70.0
SWEEP_PAIRS = 20
MIN_IMPROVEMENT = 0.5
SHORT_CURVE_PAD = 24.0
BAR_WIDTH = 5.0


@dataclass(frozen=True)
class GeometricStoryline:
    storyline: CombinatorialStoryline
    xs: tuple[float, ...]
    ys: dict[tuple[CharId, int], float]  # (character, layer index) -> y
    extents: dict[tuple[int, InteractionId], tuple[float, float]]
    pads: dict[CharId, tuple[float, float]] = field(default_factory=dict)


def _layer_gaps(inst: StorylineInstance, layer) -> list[float]:
    """Minimum gap required above each character (first entry unused)."""
    owner: dict[CharId, InteractionId] = {}
    for iid in layer.interactions:
        for c in inst.interactions[iid].characters:
            owner[c] = iid
    gaps = [0.0]
    for above, below in itertools.pairwise(layer.order):
        same = owner.get(above) is not None and owner.get(above) == owner.get(below)
        gaps.append(GAP_WITHIN if same else GAP_BETWEEN)
    return gaps


def _outline(
    s: CombinatorialStoryline, xs: Sequence[float]
) -> tuple[dict[CharId, tuple[int, int]], list[float]]:
    """Each character's first and last layer, in order of first appearance,
    and the x of every slice separator (midway between two layers whose
    timestamps differ)."""
    lo: dict[CharId, int] = {}
    hi: dict[CharId, int] = {}
    seps: list[float] = []
    for li, layer in enumerate(s.layers):
        if li and layer.time != s.layers[li - 1].time:
            seps.append((xs[li - 1] + xs[li]) / 2.0)
        for c in layer.active:
            lo.setdefault(c, li)
            hi[c] = li
    return {c: (lo[c], hi[c]) for c in lo}, seps


def assign_coordinates(
    s: CombinatorialStoryline, inst: StorylineInstance
) -> GeometricStoryline:
    """Compute layer x positions and per-character y tracks.

    y starts at the order rank spacing, then alternating left-to-right and
    right-to-left median sweeps move each character toward its own position
    in the adjacent layers; each sweep ends with a projection restoring the
    layer order and its minimum gaps.  A sweep pair that fails to improve
    total wiggle by :data:`MIN_IMPROVEMENT` ends the relaxation (and one
    that would worsen it is discarded), as does the :data:`SWEEP_PAIRS`-th.
    """
    layers = s.layers
    n = len(layers)
    xs: list[float] = []
    x = MARGIN + LABEL_SPACE
    for li, layer in enumerate(layers):
        if li > 0:
            x += X_STEP
            if layer.time != layers[li - 1].time:
                x += BOUNDARY_GAP
        xs.append(x)

    # rows[li][k] is the y of the k-th character of layer li's order.  Activity
    # is contiguous, so a character's neighbours are its positions in the
    # layers before and after, where present (-1 where not).
    pos = [{c: k for k, c in enumerate(layer.order)} for layer in layers]
    links = [
        [(k, before.get(c, -1), after.get(c, -1)) for k, c in enumerate(layer.order)]
        for layer, before, after in zip(layers, [{}, *pos], [*pos[1:], {}])
    ]
    offsets = [list(itertools.accumulate(_layer_gaps(inst, layer))) for layer in layers]
    rows = [[MARGIN + rank * GAP_BETWEEN for rank in range(len(layer.order))] for layer in layers]

    # Every (layer, position, position in the next layer) step of every
    # curve, curves in _outline order, so wiggle sums as it always has.
    steps = [
        (li, pos[li][c], pos[li + 1][c])
        for c, (a, b) in _outline(s, xs)[0].items()
        for li in range(a, b)
    ]
    sweeps = [*range(n), *range(n - 1, -1, -1)]  # left to right, then back

    w = _wiggle(rows, steps)
    for _ in range(SWEEP_PAIRS):
        snapshot = rows[:]
        for li in sweeps:
            row = rows[li]
            rows[li] = _fit(
                row,
                rows[li - 1] if li > 0 else row,
                rows[li + 1] if li + 1 < n else row,
                links[li],
                offsets[li],
            )
        new_w = _wiggle(rows, steps)
        if new_w > w:
            rows = snapshot
            break
        if w - new_w < MIN_IMPROVEMENT:
            break
        w = new_w

    ys = {(c, li): y for li, layer in enumerate(layers) for c, y in zip(layer.order, rows[li])}
    extents: dict[tuple[int, InteractionId], tuple[float, float]] = {}
    for li, layer in enumerate(layers):
        for iid in layer.interactions:
            vals = [rows[li][pos[li][c]] for c in inst.interactions[iid].characters]
            extents[(li, iid)] = (min(vals), max(vals))

    return GeometricStoryline(storyline=s, xs=tuple(xs), ys=ys, extents=extents)


def _fit(
    row: list[float],
    above: list[float],
    below: list[float],
    link: list[tuple[int, int, int]],
    offsets: list[float],
) -> list[float]:
    """One layer moved toward its neighbours, then its order and gaps restored.

    Each character's target is the mean of its y in the layers ``above`` and
    ``below`` where ``link`` gives a position there (-1 where not), else its
    own y in ``row``.  The fit is the closest order-preserving one with
    y[k] >= y[k-1] + gap: pool-adjacent-violators on the targets minus the
    running gap sums ``offsets`` (least squares under monotonicity), shifted
    back.
    """
    # Each pool: (mean, sum, size); merge while the means decrease.
    pools: list[tuple[float, float, int]] = []
    for k, u, d in link:
        if u >= 0:
            t = (above[u] + below[d]) / 2 if d >= 0 else above[u]
        else:
            t = below[d] if d >= 0 else row[k]
        mean = total = t - offsets[k]
        size = 1
        while pools and pools[-1][0] >= mean:
            _, prev, count = pools.pop()
            total = prev + total
            size += count
            mean = total / size
        pools.append((mean, total, size))
    fitted = [mean for mean, _, size in pools for _ in range(size)]
    return [f + o for f, o in zip(fitted, offsets)]


def _wiggle(rows: list[list[float]], steps: list[tuple[int, int, int]]) -> float:
    """Total vertical movement over ``(layer, position, next position)`` steps."""
    w = 0.0
    for li, k, j in steps:
        w += abs(rows[li + 1][j] - rows[li][k])
    return w


def pad_short_curves(g: GeometricStoryline) -> GeometricStoryline:
    """Give one-layer characters a horizontal stub so their curve is visible.

    The stub extends the curve by :data:`SHORT_CURVE_PAD` on both sides at
    constant y, clipped so it never reaches a slice separator line.
    """
    ranges, seps = _outline(g.storyline, g.xs)
    pads: dict[CharId, tuple[float, float]] = {}
    for c, (a, b) in ranges.items():
        if a != b:
            continue
        x = g.xs[a]
        left = x - SHORT_CURVE_PAD
        right = x + SHORT_CURVE_PAD
        for sep in seps:
            if sep < x:
                left = max(left, sep + 2.0)
            elif sep > x:
                right = min(right, sep - 2.0)
        pads[c] = (left, right)
    return replace(g, pads=pads)


_PALETTE = (
    "#4c78a8", "#f58518", "#54a24b", "#e45756", "#72b7b2",
    "#b279a2", "#9d755d", "#eeca3b", "#4f8de0", "#637939",
)


def emit_svg(g: GeometricStoryline, inst: StorylineInstance) -> str:
    """Serialize the geometry as standalone SVG 1.1 text (lengths to 2 decimals)."""
    layers = g.storyline.layers
    ranges, seps = _outline(g.storyline, g.xs)
    all_y = list(g.ys.values()) or [MARGIN]
    bottom = max(all_y) + MARGIN
    width = (g.xs[-1] if g.xs else MARGIN) + MARGIN
    height = bottom + 30.0

    out: list[str] = []
    out.append('<?xml version="1.0" encoding="UTF-8"?>')
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width:.2f}" height="{height:.2f}" '
        f'viewBox="0 0 {width:.2f} {height:.2f}">'
    )
    out.append(
        '<style>text { font-family: sans-serif; font-size: 11px; }</style>'
    )

    for sep in seps:
        out.append(
            f'<line class="separator" x1="{sep:.2f}" y1="{MARGIN / 2:.2f}" '
            f'x2="{sep:.2f}" y2="{bottom:.2f}" stroke="#999999" '
            f'stroke-dasharray="6,4" stroke-width="1"/>'
        )

    # Timestamp labels, centered under each slice.
    for time, group in itertools.groupby(range(len(layers)), key=lambda li: layers[li].time):
        idxs = list(group)
        cx = (g.xs[idxs[0]] + g.xs[idxs[-1]]) / 2.0
        label = inst.timestamps[time]
        out.append(
            f'<text class="timestamp" x="{cx:.2f}" y="{bottom + 18.0:.2f}" '
            f'text-anchor="middle">{_escape(label)}</text>'
        )

    chars = sorted(ranges)
    for c in chars:
        a, b = ranges[c]
        color = _PALETTE[c % len(_PALETTE)]
        path = _curve_path(g, c, a, b)
        out.append(
            f'<path class="character" d="{path}" fill="none" '
            f'stroke="{color}" stroke-width="2"/>'
        )

    for (li, iid), (y0, y1) in sorted(g.extents.items()):
        x = g.xs[li] - BAR_WIDTH / 2.0
        out.append(
            f'<rect class="interaction" x="{x:.2f}" y="{y0 - 4.0:.2f}" '
            f'width="{BAR_WIDTH:.2f}" height="{y1 - y0 + 8.0:.2f}" fill="#000000"/>'
        )

    for c in chars:
        a, _b = ranges[c]
        x = g.pads[c][0] if c in g.pads else g.xs[a]
        out.append(
            f'<text class="label" x="{x - 5.0:.2f}" y="{g.ys[(c, a)] + 4.0:.2f}" '
            f'text-anchor="end">{_escape(inst.characters[c])}</text>'
        )

    out.append("</svg>")
    return "\n".join(out) + "\n"


def _curve_path(g: GeometricStoryline, c: CharId, first: int, last: int) -> str:
    y0 = g.ys[(c, first)]
    if c in g.pads:
        left, right = g.pads[c]
        return f"M {left:.2f} {y0:.2f} L {right:.2f} {y0:.2f}"
    parts = [f"M {g.xs[first]:.2f} {y0:.2f}"]
    for li in range(first, last):
        xa, ya = g.xs[li], g.ys[(c, li)]
        xb, yb = g.xs[li + 1], g.ys[(c, li + 1)]
        dx = (xb - xa) * 0.4
        parts.append(f"C {xa + dx:.2f} {ya:.2f} {xb - dx:.2f} {yb:.2f} {xb:.2f} {yb:.2f}")
    return " ".join(parts)


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )

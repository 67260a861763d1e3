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


def _project(targets: list[float], gaps: list[float]) -> list[float]:
    """Closest order-preserving fit: y[i] >= y[i-1] + gaps[i] for all i.

    Pool-adjacent-violators on the gap-shifted values (least-squares fit
    under monotonicity), then shift back.
    """
    offsets = list(itertools.accumulate(gaps))
    shifted = [t - o for t, o in zip(targets, offsets)]
    # Each pool: [sum, count]; merge while the means decrease.
    pools: list[list[float]] = []
    for v in shifted:
        pools.append([v, 1.0])
        while len(pools) > 1 and pools[-2][0] / pools[-2][1] >= pools[-1][0] / pools[-1][1]:
            s, c = pools.pop()
            pools[-1][0] += s
            pools[-1][1] += c
    fit: list[float] = []
    for s, c in pools:
        fit.extend([s / c] * int(c))
    return [f + o for f, o in zip(fit, offsets)]


def _activity_ranges(s: CombinatorialStoryline) -> dict[CharId, tuple[int, int]]:
    lo: dict[CharId, int] = {}
    hi: dict[CharId, int] = {}
    for li, layer in enumerate(s.layers):
        for c in layer.active:
            lo.setdefault(c, li)
            hi[c] = li
    return {c: (lo[c], hi[c]) for c in lo}


def total_wiggle(ys: dict[tuple[CharId, int], float], ranges) -> float:
    """Sum of vertical movement of every curve between consecutive layers."""
    w = 0.0
    for c, (a, b) in ranges.items():
        for li in range(a, b):
            w += abs(ys[(c, li + 1)] - ys[(c, li)])
    return w


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
    xs: list[float] = []
    x = MARGIN + LABEL_SPACE
    for li, layer in enumerate(layers):
        if li > 0:
            x += X_STEP
            if layer.time != layers[li - 1].time:
                x += BOUNDARY_GAP
        xs.append(x)

    ranges = _activity_ranges(s)
    ys: dict[tuple[CharId, int], float] = {}
    for li, layer in enumerate(layers):
        for rank, c in enumerate(layer.order):
            ys[(c, li)] = MARGIN + rank * GAP_BETWEEN

    gaps_per_layer = [_layer_gaps(inst, layer) for layer in layers]

    def sweep(direction: int) -> None:
        todo = range(len(layers)) if direction > 0 else range(len(layers) - 1, -1, -1)
        for li in todo:
            layer = layers[li]
            targets: list[float] = []
            for c in layer.order:
                a, b = ranges[c]
                neighbors = []
                if li - 1 >= a:
                    neighbors.append(ys[(c, li - 1)])
                if li + 1 <= b:
                    neighbors.append(ys[(c, li + 1)])
                targets.append(
                    sum(neighbors) / len(neighbors) if neighbors else ys[(c, li)]
                )
            fitted = _project(targets, gaps_per_layer[li])
            for c, y in zip(layer.order, fitted):
                ys[(c, li)] = y

    wiggle = total_wiggle(ys, ranges)
    for _ in range(SWEEP_PAIRS):
        snapshot = dict(ys)
        sweep(+1)
        sweep(-1)
        new_wiggle = total_wiggle(ys, ranges)
        if new_wiggle > wiggle:
            ys = snapshot
            break
        if wiggle - new_wiggle < MIN_IMPROVEMENT:
            wiggle = new_wiggle
            break
        wiggle = new_wiggle

    extents: dict[tuple[int, InteractionId], tuple[float, float]] = {}
    for li, layer in enumerate(layers):
        for iid in layer.interactions:
            members = inst.interactions[iid].characters
            vals = [ys[(c, li)] for c in members]
            extents[(li, iid)] = (min(vals), max(vals))

    return GeometricStoryline(
        storyline=s,
        xs=tuple(xs),
        ys=dict(ys),
        extents=extents,
    )


def pad_short_curves(g: GeometricStoryline) -> GeometricStoryline:
    """Give one-layer characters a horizontal stub so their curve is visible.

    The stub extends the curve by :data:`SHORT_CURVE_PAD` on both sides at
    constant y, clipped so it never reaches a slice separator line.
    """
    seps = _separator_xs(g)
    ranges = _activity_ranges(g.storyline)
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


def _separator_xs(g: GeometricStoryline) -> list[float]:
    layers = g.storyline.layers
    return [
        (g.xs[li] + g.xs[li + 1]) / 2.0
        for li in range(len(layers) - 1)
        if layers[li].time != layers[li + 1].time
    ]


_PALETTE = (
    "#4c78a8", "#f58518", "#54a24b", "#e45756", "#72b7b2",
    "#b279a2", "#9d755d", "#eeca3b", "#4f8de0", "#637939",
)


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def emit_svg(g: GeometricStoryline, inst: StorylineInstance) -> str:
    """Serialize the geometry as standalone SVG 1.1 text."""
    layers = g.storyline.layers
    ranges = _activity_ranges(g.storyline)
    all_y = list(g.ys.values()) or [MARGIN]
    bottom = max(all_y) + MARGIN
    width = (g.xs[-1] if g.xs else MARGIN) + MARGIN
    height = bottom + 30.0

    out: list[str] = []
    out.append('<?xml version="1.0" encoding="UTF-8"?>')
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(width)}" height="{_fmt(height)}" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">'
    )
    out.append(
        '<style>text { font-family: sans-serif; font-size: 11px; }</style>'
    )

    for sep in _separator_xs(g):
        out.append(
            f'<line class="separator" x1="{_fmt(sep)}" y1="{_fmt(MARGIN / 2)}" '
            f'x2="{_fmt(sep)}" y2="{_fmt(bottom)}" stroke="#999999" '
            f'stroke-dasharray="6,4" stroke-width="1"/>'
        )

    # Timestamp labels, centered under each slice.
    for time, group in itertools.groupby(range(len(layers)), key=lambda li: layers[li].time):
        idxs = list(group)
        cx = (g.xs[idxs[0]] + g.xs[idxs[-1]]) / 2.0
        label = inst.timestamps[time]
        out.append(
            f'<text class="timestamp" x="{_fmt(cx)}" y="{_fmt(bottom + 18.0)}" '
            f'text-anchor="middle">{_escape(label)}</text>'
        )

    for c in sorted(ranges):
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
            f'<rect class="interaction" x="{_fmt(x)}" y="{_fmt(y0 - 4.0)}" '
            f'width="{_fmt(BAR_WIDTH)}" height="{_fmt(y1 - y0 + 8.0)}" fill="#000000"/>'
        )

    for c in sorted(ranges):
        a, _b = ranges[c]
        x = g.pads[c][0] if c in g.pads else g.xs[a]
        out.append(
            f'<text class="label" x="{_fmt(x - 5.0)}" y="{_fmt(g.ys[(c, a)] + 4.0)}" '
            f'text-anchor="end">{_escape(inst.characters[c])}</text>'
        )

    out.append("</svg>")
    return "\n".join(out) + "\n"


def _curve_path(g: GeometricStoryline, c: CharId, first: int, last: int) -> str:
    parts: list[str] = []
    x0 = g.xs[first]
    y0 = g.ys[(c, first)]
    if c in g.pads:
        left, right = g.pads[c]
        return (
            f"M {_fmt(left)} {_fmt(y0)} L {_fmt(right)} {_fmt(y0)}"
        )
    parts.append(f"M {_fmt(x0)} {_fmt(y0)}")
    for li in range(first, last):
        xa, ya = g.xs[li], g.ys[(c, li)]
        xb, yb = g.xs[li + 1], g.ys[(c, li + 1)]
        dx = (xb - xa) * 0.4
        parts.append(
            f"C {_fmt(xa + dx)} {_fmt(ya)} {_fmt(xb - dx)} {_fmt(yb)} {_fmt(xb)} {_fmt(yb)}"
        )
    return " ".join(parts)


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )

"""Isometric SVG rendering of packed bins: one panel per bin, items shaded
by category from a fixed ten-color palette, bin edges drawn in red."""

from __future__ import annotations

import math
from pathlib import Path
from typing import Union

from .core import Instance, PackingSolution, effective_dims

PALETTE10 = (
    "#8b1a2f",  # 0 wine
    "#1f3a93",  # 1 dark blue
    "#2e6fdb",  # 2 blue
    "#9ec9e8",  # 3 light blue
    "#1b8a8f",  # 4 teal
    "#2e8b57",  # 5 green
    "#7d3c98",  # 6 violet
    "#f2c14e",  # 7 yellow
    "#e67e22",  # 8 orange
    "#c0392b",  # 9 red
)

_COS30 = math.cos(math.pi / 6)
_SIN30 = 0.5


def _shade(color: str, factor: float) -> str:
    r = max(0, min(255, int(int(color[1:3], 16) * factor)))
    g = max(0, min(255, int(int(color[3:5], 16) * factor)))
    b = max(0, min(255, int(int(color[5:7], 16) * factor)))
    return f"#{r:02x}{g:02x}{b:02x}"


def _project(x: float, y: float, z: float, scale: float) -> tuple[float, float]:
    sx = (x - y) * _COS30 * scale
    sy = (x + y) * _SIN30 * scale - z * scale
    return sx, -sy  # svg y grows downward


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _poly(points, fill: str, stroke: str = "#333333", width: float = 0.8) -> str:
    pts = " ".join(f"{_fmt(px)},{_fmt(py)}" for px, py in points)
    return (f'<polygon points="{pts}" fill="{fill}" stroke="{stroke}" '
            f'stroke-width="{width}"/>')


def _line(p0, p1, stroke: str, width: float) -> str:
    return (f'<line x1="{_fmt(p0[0])}" y1="{_fmt(p0[1])}" x2="{_fmt(p1[0])}" '
            f'y2="{_fmt(p1[1])}" stroke="{stroke}" stroke-width="{width}"/>')


def render_svg(instance: Instance, solution: PackingSolution) -> str:
    """The SVG text; ValueError for a placement of an unknown item."""
    for p in solution.placements:
        if p.item >= instance.m:
            raise ValueError(f"placement references unknown item {p.item}")
    L, W, H = instance.bin.L, instance.bin.W, instance.bin.H
    scale = 220.0 / max(L, W, H)
    bins = sorted({p.bin for p in solution.placements})

    def corners(j: int):
        pts = [_project(x, y, z, scale)
               for x in (0, L) for y in (0, W) for z in (0, H)]
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        return min(xs), min(ys), max(xs), max(ys)

    x0, y0, x1, y1 = corners(1)
    panel_w = (x1 - x0) + 40
    panel_h = (y1 - y0) + 40
    total_w = panel_w * len(bins)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(total_w)}" '
        f'height="{_fmt(panel_h)}" viewBox="0 0 {_fmt(total_w)} {_fmt(panel_h)}">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]

    for panel, j in enumerate(bins):
        ox = panel * panel_w - x0 + 20
        oy = -y0 + 20

        def pt(x: float, y: float, z: float) -> tuple[float, float]:
            px, py = _project(x, y, z, scale)
            return px + ox, py + oy

        parts.append(f'<g id="bin{j}">')
        boxes = [p for p in solution.placements if p.bin == j]
        boxes.sort(key=lambda p: (p.x + p.y + p.z, p.item))
        for p in boxes:
            a, b, c = effective_dims(instance.items[p.item], p.k)
            bx = p.x - (j - 1) * L
            color = PALETTE10[instance.items[p.item].category % len(PALETTE10)]
            top = [pt(bx, p.y, p.z + c), pt(bx + a, p.y, p.z + c),
                   pt(bx + a, p.y + b, p.z + c), pt(bx, p.y + b, p.z + c)]
            front = [pt(bx, p.y, p.z), pt(bx + a, p.y, p.z),
                     pt(bx + a, p.y, p.z + c), pt(bx, p.y, p.z + c)]
            side = [pt(bx + a, p.y, p.z), pt(bx + a, p.y + b, p.z),
                    pt(bx + a, p.y + b, p.z + c), pt(bx + a, p.y, p.z + c)]
            parts.append(_poly(front, _shade(color, 0.85)))
            parts.append(_poly(side, _shade(color, 0.65)))
            parts.append(_poly(top, color))
        # bin wireframe on top, red
        edges = []
        for (sx, sy, sz), (ex, ey, ez) in (
            ((0, 0, 0), (L, 0, 0)), ((0, 0, 0), (0, W, 0)), ((0, 0, 0), (0, 0, H)),
            ((L, 0, 0), (L, W, 0)), ((L, 0, 0), (L, 0, H)),
            ((0, W, 0), (L, W, 0)), ((0, W, 0), (0, W, H)),
            ((0, 0, H), (L, 0, H)), ((0, 0, H), (0, W, H)),
            ((L, W, 0), (L, W, H)), ((L, 0, H), (L, W, H)), ((0, W, H), (L, W, H)),
        ):
            edges.append(_line(pt(sx, sy, sz), pt(ex, ey, ez), "#cc0000", 1.2))
        parts.extend(edges)
        parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_to_file(instance: Instance, solution: PackingSolution,
                   path: Union[str, Path]) -> None:
    Path(path).write_text(render_svg(instance, solution), encoding="utf-8")

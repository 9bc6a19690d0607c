"""
SVG rendering of a plan over its instance geometry.

Pure string assembly, no drawing dependency.  The depot is a square,
stations are circles, customers are pentagons; vehicle legs are solid,
robot legs dashed with one dash pattern and color per robot index.
Every traveled leg is its own polyline so tests can count them.
"""

from __future__ import annotations

import math

from .model import Instance, Point, RoutePlan

ROBOT_DASHES = ("6 3", "2 2", "8 3 2 3", "1 3")
ROBOT_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_W = 640.0
PENTAGON_STEP_DEG = 72.0


def _fmt(v: float) -> str:
    return f"{v:.2f}".rstrip("0").rstrip(".")


def plan_svg(instance: Instance, plan: RoutePlan) -> str:
    """Render a plan as a standalone SVG 1.1 document string; a plan
    naming a station or customer the instance lacks raises ModelError."""
    pts = [instance.depot]
    pts += [s.location for s in instance.stations]
    pts += [c.location for c in instance.customers]
    min_x = min(p.x for p in pts)
    max_x = max(p.x for p in pts)
    min_y = min(p.y for p in pts)
    max_y = max(p.y for p in pts)
    span_x = max(max_x - min_x, 1e-9)
    span_y = max(max_y - min_y, 1e-9)
    pad_x = 0.08 * span_x
    pad_y = 0.08 * span_y
    min_x -= pad_x
    max_x += pad_x
    min_y -= pad_y
    max_y += pad_y
    span_x = max_x - min_x
    span_y = max_y - min_y
    height = _W * span_y / span_x

    def sx(p: Point) -> float:
        return (p.x - min_x) / span_x * _W

    def sy(p: Point) -> float:
        # world y grows upward, SVG y downward
        return (max_y - p.y) / span_y * height

    def xy(p: Point) -> str:
        return f"{_fmt(sx(p))},{_fmt(sy(p))}"

    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(_W)}" height="{_fmt(height)}" '
        f'viewBox="0 0 {_fmt(_W)} {_fmt(height)}">',
        f'<rect width="{_fmt(_W)}" height="{_fmt(height)}" fill="#ffffff"/>',
    ]

    def leg(a: Point, b: Point, stroke: str, dash: str | None) -> str:
        d = f' stroke-dasharray="{dash}"' if dash else ""
        return (
            f'<polyline points="{xy(a)} {xy(b)}" fill="none" '
            f'stroke="{stroke}" stroke-width="1.5"{d}/>'
        )

    stops = [instance.depot, *(instance.station(k).location for k in plan.tour), instance.depot]
    for a, b in zip(stops, stops[1:]):
        parts.append(leg(a, b, "#333333", None))

    for s in plan.sorties:
        color = ROBOT_COLORS[s.robot % len(ROBOT_COLORS)]
        dash = ROBOT_DASHES[s.robot % len(ROBOT_DASHES)]
        base = instance.station(s.station).location
        for o in s.services:
            at = instance.customer(o).location
            parts.append(leg(base, at, color, dash))
            parts.append(leg(at, base, color, dash))

    d = instance.depot
    parts.append(
        f'<rect x="{_fmt(sx(d) - 5)}" y="{_fmt(sy(d) - 5)}" width="10" height="10" '
        'fill="#333333"/>'
    )
    parts.append(
        f'<text x="{_fmt(sx(d) + 8)}" y="{_fmt(sy(d) - 8)}" '
        'font-family="sans-serif" font-size="11">depot</text>'
    )
    for s in instance.stations:
        p = s.location
        parts.append(
            f'<circle cx="{_fmt(sx(p))}" cy="{_fmt(sy(p))}" r="7" '
            'fill="#ffffff" stroke="#333333" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{_fmt(sx(p) + 9)}" y="{_fmt(sy(p) - 9)}" '
            f'font-family="sans-serif" font-size="11">S{s.id}</text>'
        )
    for c in instance.customers:
        p = c.location
        corners = []
        for i in range(5):
            ang = math.radians(-90.0 + PENTAGON_STEP_DEG * i)
            corners.append(
                f"{_fmt(sx(p) + 6 * math.cos(ang))},{_fmt(sy(p) + 6 * math.sin(ang))}"
            )
        parts.append(
            f'<polygon points="{" ".join(corners)}" fill="#aaaaaa" '
            'stroke="#555555" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(sx(p) + 8)}" y="{_fmt(sy(p) + 4)}" '
            f'font-family="sans-serif" font-size="10">C{c.id}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"

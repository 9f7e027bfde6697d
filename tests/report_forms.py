"""Test-side per-value forms of the CLI's report emitters: each value
rendered and joined on its own, as the emitters were first written.  The
tests hold ``predbif.cli``'s one-pass emitters byte-equal to them.
"""

import json
import math


def fmt(x: float) -> str:
    if x != x:
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".17g")


def to_json(obj, indent: int = 0) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits."""
    pad = "  " * indent
    pad2 = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{pad2}{json.dumps(str(k))}: {to_json(v, indent + 1)}"
            for k, v in sorted(obj.items())
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad2}{to_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        return fmt(obj)
    if isinstance(obj, int):
        return str(obj)
    if obj is None:
        return "null"
    return json.dumps(str(obj))


def render_csv(header: list[str], rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def svg_polyline(pts, xmin, xmax, ymin, ymax, w, h, color):
    def sx(x):
        return 40.0 + (x - xmin) / (xmax - xmin or 1.0) * (w - 60.0)

    def sy(y):
        return h - 30.0 - (y - ymin) / (ymax - ymin or 1.0) * (h - 50.0)

    coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
    return f'<polyline fill="none" stroke="{color}" stroke-width="1" points="{coords}"/>'


def render_svg(series: list[tuple[str, list]], labels: tuple[str, str]) -> str:
    """Minimal 640x480 line plot: one polyline per (color, points) series."""
    w, h = 640, 480
    all_pts = [p for _, pts in series for p in pts]
    if not all_pts:
        xmin = ymin = 0.0
        xmax = ymax = 1.0
    else:
        xmin = min(p[0] for p in all_pts)
        xmax = max(p[0] for p in all_pts)
        ymin = min(p[1] for p in all_pts)
        ymax = max(p[1] for p in all_pts)
    body = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        f'<text x="{w / 2:.0f}" y="{h - 8}" font-size="12" text-anchor="middle">'
        f"{labels[0]}</text>",
        f'<text x="12" y="{h / 2:.0f}" font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 12 {h / 2:.0f})">{labels[1]}</text>',
    ]
    for color, pts in series:
        if pts:
            body.append(svg_polyline(pts, xmin, xmax, ymin, ymax, w, h, color))
    body.append("</svg>")
    return "\n".join(body) + "\n"

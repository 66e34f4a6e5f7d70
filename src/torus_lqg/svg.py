"""Minimal deterministic SVG rendering for tabular output.

Hand-rolled on purpose: plots must be byte-identical across runs for the
reproducibility contract, so no plotting library with its own version
drift is involved.  All floats are written with fixed %.6f formatting.
"""

from __future__ import annotations

from .errors import SchemaMismatch

__all__ = ["render_heatmap", "render_line"]

_W, _H = 640.0, 480.0
_ML, _MR, _MT, _MB = 70.0, 90.0, 40.0, 50.0


def _f(v: float) -> str:
    return f"{v:.6f}"


def _color(t: float) -> str:
    """Two-segment gradient dark blue -> teal -> yellow."""
    t = min(max(t, 0.0), 1.0)
    if t < 0.5:
        u = 2.0 * t
        r, g, b = 13 + u * (35 - 13), 8 + u * (140 - 8), 135 + u * (140 - 135)
    else:
        u = 2.0 * t - 1.0
        r, g, b = 35 + u * (245 - 35), 140 + u * (219 - 140), 140 * (1.0 - u) + 26 * u
    return f"rgb({int(round(r))},{int(round(g))},{int(round(b))})"


def _edges_from_centers(centers: list[float]) -> list[float]:
    if len(centers) == 1:
        c = centers[0]
        return [c - 0.5, c + 0.5]
    edges = [centers[0] - 0.5 * (centers[1] - centers[0])]
    for a, b in zip(centers, centers[1:]):
        edges.append(0.5 * (a + b))
    edges.append(centers[-1] + 0.5 * (centers[-1] - centers[-2]))
    return edges


def _scale(x0: float, x1: float, y0: float, y1: float):
    """Data-to-pixel maps (sx, sy) of the plot area for the data box [x0, x1] x [y0, y1]."""

    def sx(v):
        return _ML + (v - x0) / (x1 - x0) * (_W - _ML - _MR)

    def sy(v):
        return _H - _MB - (v - y0) / (y1 - y0) * (_H - _MT - _MB)

    return sx, sy


def _axes(x0: float, x1: float, y0: float, y1: float, parts: list[str]) -> None:
    sx, sy = _scale(x0, x1, y0, y1)
    parts.append(
        f'<rect x="{_f(_ML)}" y="{_f(_MT)}" width="{_f(_W - _ML - _MR)}" '
        f'height="{_f(_H - _MT - _MB)}" fill="none" stroke="black" stroke-width="1"/>'
    )
    for k in range(5):
        vx = x0 + k * (x1 - x0) / 4.0
        vy = y0 + k * (y1 - y0) / 4.0
        parts.append(
            f'<text x="{_f(sx(vx))}" y="{_f(_H - _MB + 16.0)}" font-size="11" '
            f'text-anchor="middle" font-family="monospace">{vx:.3g}</text>'
        )
        parts.append(
            f'<text x="{_f(_ML - 6.0)}" y="{_f(sy(vy) + 4.0)}" font-size="11" '
            f'text-anchor="end" font-family="monospace">{vy:.3g}</text>'
        )


def _document(parts: list[str], title: str, header_lines: list[str]) -> str:
    head = "".join(f"<!-- {line} -->\n" for line in header_lines)
    parts = parts + [
        f'<text x="{_f(_W / 2)}" y="{_f(_MT - 14.0)}" font-size="14" '
        f'text-anchor="middle" font-family="monospace">{title}</text>'
    ]
    body = "\n".join(parts)
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f"{head}"
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(_W)}" height="{int(_H)}" '
        f'viewBox="0 0 {int(_W)} {int(_H)}">\n'
        f'<rect width="{int(_W)}" height="{int(_H)}" fill="white"/>\n'
        f"{body}\n</svg>\n"
    )


def render_heatmap(
    xs: list[float],
    ys: list[float],
    values: list[float],
    title: str,
    header_lines: list[str] | None = None,
) -> str:
    """One rect per (x, y) grid cell, color-mapped by value.

    xs, ys, values are parallel per-cell lists; the grid is reconstructed
    from the distinct sorted coordinates, so irregular (e.g. log-spaced)
    spacing renders with correct cell sizes.
    """
    if not (len(xs) == len(ys) == len(values)) or not xs:
        raise SchemaMismatch("heatmap needs equal-length non-empty x, y, value columns")
    cx = sorted(set(xs))
    cy = sorted(set(ys))
    ex, ey = _edges_from_centers(cx), _edges_from_centers(cy)
    ix = {v: k for k, v in enumerate(cx)}
    iy = {v: k for k, v in enumerate(cy)}
    x0, x1, y0, y1 = ex[0], ex[-1], ey[0], ey[-1]
    vmin, vmax = min(values), max(values)
    span = vmax - vmin if vmax > vmin else 1.0
    sx, sy = _scale(x0, x1, y0, y1)
    parts: list[str] = []
    for x, y, v in zip(xs, ys, values):
        a, b = ix[x], iy[y]
        px, pw = sx(ex[a]), sx(ex[a + 1]) - sx(ex[a])
        py, ph = sy(ey[b + 1]), sy(ey[b]) - sy(ey[b + 1])
        parts.append(
            f'<rect x="{_f(px)}" y="{_f(py)}" width="{_f(pw)}" height="{_f(ph)}" '
            f'fill="{_color((v - vmin) / span)}"/>'
        )
    _axes(x0, x1, y0, y1, parts)
    # color bar
    bar_x = _W - _MR + 20.0
    for k in range(64):
        t0 = k / 64.0
        py = _H - _MB - (k + 1) / 64.0 * (_H - _MT - _MB)
        ph = (_H - _MT - _MB) / 64.0
        parts.append(
            f'<rect x="{_f(bar_x)}" y="{_f(py)}" width="16.000000" '
            f'height="{_f(ph + 0.5)}" fill="{_color(t0)}"/>'
        )
    parts.append(
        f'<text x="{_f(bar_x)}" y="{_f(_MT - 8.0)}" font-size="11" '
        f'font-family="monospace">{vmax:.4g}</text>'
    )
    parts.append(
        f'<text x="{_f(bar_x)}" y="{_f(_H - _MB + 16.0)}" font-size="11" '
        f'font-family="monospace">{vmin:.4g}</text>'
    )
    return _document(parts, title, header_lines or [])


def render_line(
    xs: list[float],
    ys: list[float],
    title: str,
    header_lines: list[str] | None = None,
) -> str:
    if len(xs) != len(ys) or not xs:
        raise SchemaMismatch("line plot needs equal-length non-empty x, y columns")
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 == x0:
        x0, x1 = x0 - 0.5, x1 + 0.5
    if y1 == y0:
        y0, y1 = y0 - 0.5, y1 + 0.5
    pad = 0.05 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad
    sx, sy = _scale(x0, x1, y0, y1)
    pts = " ".join(f"{_f(sx(x))},{_f(sy(y))}" for x, y in sorted(zip(xs, ys)))
    parts = [
        f'<polyline points="{pts}" fill="none" stroke="rgb(13,8,135)" stroke-width="1.5"/>'
    ]
    for x, y in zip(xs, ys):
        parts.append(
            f'<circle cx="{_f(sx(x))}" cy="{_f(sy(y))}" r="2.500000" fill="rgb(13,8,135)"/>'
        )
    _axes(x0, x1, y0, y1, parts)
    return _document(parts, title, header_lines or [])

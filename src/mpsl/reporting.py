"""Deterministic result serialization: CSV, JSON and hand-rolled SVG.

All writers are atomic (temp file in the target directory, then rename) and
format floats with a fixed precision so identical runs produce identical
bytes.  SVG output uses a fixed 800x500 viewBox and no external plotting
dependency.
"""

from __future__ import annotations

import json
import math
import os
import tempfile

SCHEMA_VERSION = 1
SVG_W, SVG_H = 800, 500
_MARGIN = 55.0


def fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        if math.isnan(v):
            return "nan"
        return f"{v:.12g}"
    return str(v)


def atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_json(path: str, payload: dict) -> None:
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# SVG


def _map_points(xs, ys, xlim, ylim):
    x0, x1 = xlim
    y0, y1 = ylim
    w = SVG_W - 2 * _MARGIN
    h = SVG_H - 2 * _MARGIN
    sx = w / (x1 - x0) if x1 > x0 else 1.0
    sy = h / (y1 - y0) if y1 > y0 else 1.0
    out = []
    for x, y in zip(xs, ys):
        px = _MARGIN + (x - x0) * sx
        py = SVG_H - _MARGIN - (y - y0) * sy
        out.append(f"{px:.2f},{py:.2f}")
    return " ".join(out)


_PALETTE = ["#2460a7", "#c03221", "#2e7d32", "#8e44ad", "#c77e00", "#00838f"]


def _svg_frame(title: str, xlabel: str, ylabel: str, body: list[str]) -> str:
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {SVG_W} {SVG_H}">',
        f'<rect width="{SVG_W}" height="{SVG_H}" fill="white"/>',
        f'<text x="{SVG_W / 2:.0f}" y="28" text-anchor="middle" font-size="18" '
        f'font-family="sans-serif">{title}</text>',
        f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{SVG_W - 2 * _MARGIN}" '
        f'height="{SVG_H - 2 * _MARGIN}" fill="none" stroke="#444"/>',
        f'<text x="{SVG_W / 2:.0f}" y="{SVG_H - 12}" text-anchor="middle" '
        f'font-size="13" font-family="sans-serif">{xlabel}</text>',
        f'<text x="16" y="{SVG_H / 2:.0f}" text-anchor="middle" font-size="13" '
        f'font-family="sans-serif" transform="rotate(-90 16 {SVG_H / 2:.0f})">{ylabel}</text>',
    ]
    parts.extend(body)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _curves(body: list[str], curves, xlim, ylim) -> None:
    """Append each (label, xs, ys) curve as a polyline with its legend entry."""
    for i, (label, xs, ys) in enumerate(curves):
        color = _PALETTE[i % len(_PALETTE)]
        pts = _map_points(xs, ys, xlim, ylim)
        body.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.6"/>')
        body.append(
            f'<text x="{SVG_W - _MARGIN - 4:.0f}" y="{_MARGIN + 18 + 16 * i:.0f}" '
            f'text-anchor="end" font-size="12" font-family="sans-serif" '
            f'fill="{color}">{label}</text>'
        )


def eigenfunction_gallery_svg(path: str, curves: list[tuple[str, list[float], list[float]]]) -> None:
    """Curves (label, xs, us) on [-1, 1] with boundary markers at +-1."""
    ymax = 1.05 * max((max(abs(v) for v in us) for _, _, us in curves), default=1.0)
    body = []
    xlim, ylim = (-1.05, 1.05), (-ymax, ymax)
    axis = _map_points([-1.05, 1.05], [0.0, 0.0], xlim, ylim)
    body.append(f'<polyline points="{axis}" fill="none" stroke="#999" stroke-dasharray="4 3"/>')
    for xb in (-1.0, 1.0):
        pts = _map_points([xb, xb], [-ymax, ymax], xlim, ylim)
        body.append(f'<polyline points="{pts}" fill="none" stroke="#bbb"/>')
    _curves(body, curves, xlim, ylim)
    atomic_write_text(path, _svg_frame("eigenfunction gallery", "x", "u(x)", body))


def bifurcation_diagram_svg(path: str, branches: list[tuple[str, list[float], list[float]]]) -> None:
    """Branches (label, lambdas, amplitudes) in the (lambda, |u|_0) plane,
    with a dashed gate line at lambda = 1 when it is in range."""
    all_l = [l for _, ls, _ in branches for l in ls] or [0.0, 1.0]
    all_a = [a for _, _, as_ in branches for a in as_] or [0.0, 1.0]
    xlim = (min(all_l) - 0.05 * (max(all_l) - min(all_l) + 1e-9) - 1e-9,
            max(all_l) + 0.05 * (max(all_l) - min(all_l) + 1e-9) + 1e-9)
    ylim = (0.0, 1.05 * max(all_a) + 1e-9)
    body = []
    if xlim[0] < 1.0 < xlim[1]:
        pts = _map_points([1.0, 1.0], [ylim[0], ylim[1]], xlim, ylim)
        body.append(f'<polyline points="{pts}" fill="none" stroke="#999" stroke-dasharray="4 3"/>')
    _curves(body, branches, xlim, ylim)
    atomic_write_text(path, _svg_frame("bifurcation diagram", "lambda", "|u|_0", body))

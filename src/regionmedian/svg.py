"""Deterministic SVG figures: region outline, solve trace, median marker.

Hand-rolled emitter so output is byte-stable for fixed input: fixed
viewport, fixed decimal formatting, no timestamps or generator noise.
"""
from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

__all__ = ["region_figure"]

_SIZE = 600.0
_MARGIN = 40.0


def _fmt(v: float) -> str:
    return f"{v:.6f}"


class _Frame:
    def __init__(self, coords: np.ndarray):
        lo = coords.min(axis=0)
        hi = coords.max(axis=0)
        span = np.maximum(hi - lo, 1e-12)
        self.scale = (_SIZE - 2 * _MARGIN) / float(span.max())
        self.lo = lo
        self.hi = hi
        # center the drawing inside the viewport
        used = span * self.scale
        self.off = (_SIZE - used) / 2.0

    def map(self, coords: np.ndarray) -> tuple:
        """Viewport coordinates of (n, 2) coordinates, flat: x0, y0, x1, y1, ..."""
        sx = self.off[0] + (coords[:, 0] - self.lo[0]) * self.scale
        sy = _SIZE - (self.off[1] + (coords[:, 1] - self.lo[1]) * self.scale)
        return tuple(np.column_stack((sx, sy)).ravel().tolist())


# each list takes one "%" call, whose "%.6f" writes a number as _fmt does

def _path(frame: _Frame, coords: np.ndarray, close: bool) -> str:
    d = "M " + " L ".join(["%.6f %.6f"] * len(coords)) % frame.map(coords)
    return d + " Z" if close else d


def _circles(frame: _Frame, coords: np.ndarray, attrs: str) -> str:
    return "\n".join([f'<circle cx="%.6f" cy="%.6f" {attrs}/>'] * len(coords)) % frame.map(coords)


def region_figure(
    outline: Optional[np.ndarray],
    median,
    trace: Optional[Sequence] = None,
    points: Optional[np.ndarray] = None,
) -> str:
    """Render a region (or point set), an optional trace, and the median.

    outline: (n, 2) closed loop or None; points: (m, 2) markers or None;
    trace: sequence of (Point2, norm) pairs from a solve; median: Point2.
    Returns the SVG document as a string.
    """
    stacks = []
    if outline is not None:
        stacks.append(np.asarray(outline, dtype=float))
    if points is not None:
        stacks.append(np.asarray(points, dtype=float))
    stacks.append(np.array([[median.x, median.y]]))
    frame = _Frame(np.concatenate(stacks, axis=0))

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(_SIZE)}" height="{int(_SIZE)}" '
        f'viewBox="0 0 {int(_SIZE)} {int(_SIZE)}">',
        f'<rect width="{int(_SIZE)}" height="{int(_SIZE)}" fill="#ffffff"/>',
    ]
    if outline is not None:
        d = _path(frame, np.asarray(outline, dtype=float), close=True)
        lines.append(f'<path d="{d}" fill="#eef3fa" stroke="#34495e" stroke-width="1.5"/>')
    if points is not None:
        lines.append(_circles(frame, np.asarray(points, dtype=float), 'r="3" fill="#3a6ea5"'))
    if trace and len(trace) > 1:
        coords = np.array([[p.x, p.y] for p, _ in trace], dtype=float)
        d = _path(frame, coords, close=False)
        lines.append(
            f'<path d="{d}" fill="none" stroke="#c0702a" stroke-width="1" stroke-dasharray="4 3"/>'
        )
        lines.append(_circles(frame, coords[:-1], 'r="2" fill="#c0702a"'))
    mx, my = frame.map(np.array([[median.x, median.y]]))
    arm = 7.0
    lines.append(
        f'<line x1="{_fmt(mx - arm)}" y1="{_fmt(my)}" x2="{_fmt(mx + arm)}" y2="{_fmt(my)}" '
        f'stroke="#b02020" stroke-width="2"/>'
    )
    lines.append(
        f'<line x1="{_fmt(mx)}" y1="{_fmt(my - arm)}" x2="{_fmt(mx)}" y2="{_fmt(my + arm)}" '
        f'stroke="#b02020" stroke-width="2"/>'
    )
    lines.append(f'<circle cx="{_fmt(mx)}" cy="{_fmt(my)}" r="4" fill="none" stroke="#b02020" stroke-width="2"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"

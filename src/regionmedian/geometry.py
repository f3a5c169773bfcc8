"""Planar primitives: points, vectors, wedge product, simple polygons.

Coordinates are plain float64 throughout. Polygons are validated at
construction (simple, nonzero area) and stored in counterclockwise
order, so everything downstream can rely on one orientation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidPolygonError

__all__ = [
    "Point2",
    "Vector2",
    "Polygon",
    "wedge",
    "rotate90",
    "signed_area",
    "diameter",
    "as_polygon",
]


def _require_finite(*values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise ValueError(f"coordinate is not finite: {v!r}")


@dataclass(frozen=True)
class Point2:
    """A point in the plane. Coordinates must be finite."""

    x: float
    y: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        _require_finite(self.x, self.y)

    def __sub__(self, other: "Point2") -> "Vector2":
        return Vector2(self.x - other.x, self.y - other.y)

    def __add__(self, v: "Vector2") -> "Point2":
        return Point2(self.x + v.dx, self.y + v.dy)

    def distance_to(self, other: "Point2") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y], dtype=float)


@dataclass(frozen=True)
class Vector2:
    """A displacement in the plane. Components must be finite."""

    dx: float
    dy: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "dx", float(self.dx))
        object.__setattr__(self, "dy", float(self.dy))
        _require_finite(self.dx, self.dy)

    def __add__(self, other: "Vector2") -> "Vector2":
        return Vector2(self.dx + other.dx, self.dy + other.dy)

    def __sub__(self, other: "Vector2") -> "Vector2":
        return Vector2(self.dx - other.dx, self.dy - other.dy)

    def __neg__(self) -> "Vector2":
        return Vector2(-self.dx, -self.dy)

    def __mul__(self, s: float) -> "Vector2":
        return Vector2(self.dx * s, self.dy * s)

    __rmul__ = __mul__

    @property
    def norm(self) -> float:
        return math.hypot(self.dx, self.dy)

    def as_array(self) -> np.ndarray:
        return np.array([self.dx, self.dy], dtype=float)


def wedge(a: Vector2, b: Vector2) -> float:
    """Oriented parallelogram area a.dx*b.dy - a.dy*b.dx."""
    return a.dx * b.dy - a.dy * b.dx


def rotate90(v: Vector2, direction: int = 1) -> Vector2:
    """Rotate a vector by 90 degrees.

    direction=+1 maps (x, y) to (-y, x); direction=-1 maps (x, y) to (y, -x).
    """
    if direction not in (1, -1):
        raise ValueError("direction must be +1 or -1")
    if direction == 1:
        return Vector2(-v.dy, v.dx)
    return Vector2(v.dy, -v.dx)


def _shoelace(coords: np.ndarray) -> float:
    x, y = coords[:, 0], coords[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    return 0.5 * float(np.sum(x * yn - xn * y))


def _max_pairwise_distance(coords: np.ndarray) -> float:
    """Largest distance between two rows of an (n, 2) array.

    Uses the convex hull when it is available (the diameter of a polygon
    is attained at hull vertices); falls back to a direct scan for tiny
    or nearly collinear inputs where qhull refuses to run.
    """
    pts = coords
    if len(pts) > 8:
        try:
            from scipy.spatial import ConvexHull

            pts = coords[ConvexHull(coords).vertices]
        except Exception:
            pts = coords
    best = 0.0
    for i in range(len(pts) - 1):
        d2 = np.sum((pts[i + 1:] - pts[i]) ** 2, axis=1)
        best = max(best, float(d2.max()))
    return math.sqrt(best)


def _segments_intersect_any(coords: np.ndarray) -> bool:
    """True if any two non-adjacent edges of the closed loop touch.

    Pairwise orientation tests, vectorized per edge. Quadratic in the
    vertex count, which is fine at the scales this library targets.
    """
    n = len(coords)
    a = coords
    b = np.roll(coords, -1, axis=0)
    for i in range(n - 2):
        # candidate partner edges j > i, skipping neighbours (and the
        # wrap-around neighbour of edge 0)
        j0 = i + 2
        j1 = n - 1 if i == 0 else n
        if j0 >= j1:
            continue
        c = a[j0:j1]
        d = b[j0:j1]
        ai, bi = a[i], b[i]
        e = bi - ai
        o1 = e[0] * (c[:, 1] - ai[1]) - e[1] * (c[:, 0] - ai[0])
        o2 = e[0] * (d[:, 1] - ai[1]) - e[1] * (d[:, 0] - ai[0])
        f = d - c
        o3 = f[:, 0] * (ai[1] - c[:, 1]) - f[:, 1] * (ai[0] - c[:, 0])
        o4 = f[:, 0] * (bi[1] - c[:, 1]) - f[:, 1] * (bi[0] - c[:, 0])
        proper = (o1 * o2 < 0) & (o3 * o4 < 0)
        if np.any(proper):
            return True
        # improper contact: an endpoint of one edge lying exactly on the
        # other edge (including collinear overlap) also breaks simplicity
        touch = np.zeros(len(c), dtype=bool)
        for (oc, p) in ((o1, c), (o2, d)):
            on_line = oc == 0
            if np.any(on_line):
                t = p[on_line]
                within = (
                    (np.minimum(ai[0], bi[0]) <= t[:, 0])
                    & (t[:, 0] <= np.maximum(ai[0], bi[0]))
                    & (np.minimum(ai[1], bi[1]) <= t[:, 1])
                    & (t[:, 1] <= np.maximum(ai[1], bi[1]))
                )
                touch[on_line] |= within
        for (of, p) in ((o3, ai), (o4, bi)):
            on_line = of == 0
            if np.any(on_line):
                cc, dd = c[on_line], d[on_line]
                within = (
                    (np.minimum(cc[:, 0], dd[:, 0]) <= p[0])
                    & (p[0] <= np.maximum(cc[:, 0], dd[:, 0]))
                    & (np.minimum(cc[:, 1], dd[:, 1]) <= p[1])
                    & (p[1] <= np.maximum(cc[:, 1], dd[:, 1]))
                )
                touch[on_line] |= within
        if np.any(touch):
            return True
    return False


class Polygon:
    """A simple polygon with at least three vertices, stored counterclockwise.

    The constructor validates the loop (no repeated consecutive vertices,
    no self-intersection, strictly nonzero area) and normalizes the vertex
    order to counterclockwise. ``was_reversed`` records whether the input
    arrived clockwise. Instances are immutable; derived quantities (edge
    vectors and lengths, area, centroid, diameter) are computed once.
    """

    __slots__ = ("_coords", "_edge_vectors", "_edge_lengths", "was_reversed",
                 "_area", "_centroid", "_diameter", "_convex")

    def __init__(self, vertices: Iterable) -> None:
        coords = _coerce_coords(vertices)
        if len(coords) < 3:
            raise InvalidPolygonError("polygon needs at least 3 vertices")
        if not np.all(np.isfinite(coords)):
            raise InvalidPolygonError("polygon has non-finite coordinates")
        if np.any(np.all(coords == np.roll(coords, -1, axis=0), axis=1)):
            raise InvalidPolygonError("polygon repeats a vertex on consecutive positions")
        # intersection before area: a symmetric bowtie nets out to zero
        # shoelace area, and the intersection diagnostic is the useful one
        if _segments_intersect_any(coords):
            raise InvalidPolygonError("polygon is self-intersecting")
        area = _shoelace(coords)
        if area == 0.0:
            raise InvalidPolygonError("polygon has zero area")
        reversed_input = area < 0.0
        if reversed_input:
            coords = coords[::-1].copy()
            area = -area
        edges = np.roll(coords, -1, axis=0) - coords
        lengths = np.hypot(edges[:, 0], edges[:, 1])
        for arr in (coords, edges, lengths):
            arr.setflags(write=False)
        self._coords = coords
        self._edge_vectors = edges
        self._edge_lengths = lengths
        self.was_reversed = reversed_input
        self._area = area
        self._centroid = None
        self._diameter = None
        self._convex = None

    @property
    def coords(self) -> np.ndarray:
        """Read-only (n, 2) float array of vertices, counterclockwise."""
        return self._coords

    @property
    def edge_vectors(self) -> np.ndarray:
        """Read-only (n, 2) array; row i runs from vertex i to vertex i + 1."""
        return self._edge_vectors

    @property
    def edge_lengths(self) -> np.ndarray:
        """Read-only (n,) array of the lengths of ``edge_vectors``."""
        return self._edge_lengths

    @property
    def vertices(self) -> tuple:
        return tuple(Point2(float(x), float(y)) for x, y in self._coords)

    def __len__(self) -> int:
        return len(self._coords)

    @property
    def area(self) -> float:
        return self._area

    @property
    def centroid(self) -> Point2:
        if self._centroid is None:
            c = self._coords
            cn = np.roll(c, -1, axis=0)
            cross = c[:, 0] * cn[:, 1] - cn[:, 0] * c[:, 1]
            cx = float(np.sum((c[:, 0] + cn[:, 0]) * cross) / (6.0 * self._area))
            cy = float(np.sum((c[:, 1] + cn[:, 1]) * cross) / (6.0 * self._area))
            self._centroid = Point2(cx, cy)
        return self._centroid

    @property
    def diameter(self) -> float:
        if self._diameter is None:
            self._diameter = _max_pairwise_distance(self._coords)
        return self._diameter

    @property
    def is_convex(self) -> bool:
        if self._convex is None:
            e = self._edge_vectors
            en = np.roll(e, -1, axis=0)
            cross = e[:, 0] * en[:, 1] - e[:, 1] * en[:, 0]
            self._convex = bool(np.all(cross >= 0.0))
        return self._convex

    def contains(self, point, strict: bool = True) -> bool:
        p = _point_xy(point)
        mask = self.contains_many(np.array([p]), strict=strict)
        return bool(mask[0])

    def contains_many(self, pts: np.ndarray, strict: bool = True) -> np.ndarray:
        """Crossing-parity point-in-polygon test for an (m, 2) array.

        Points exactly on the boundary count as inside only when
        ``strict`` is False.
        """
        pts = np.asarray(pts, dtype=float)
        px, py = pts[:, 0], pts[:, 1]
        inside = np.zeros(len(pts), dtype=bool)
        on_edge = np.zeros(len(pts), dtype=bool)
        c = self._coords
        cn = np.roll(c, -1, axis=0)
        for (x1, y1), (x2, y2) in zip(c, cn):
            cross = (x2 - x1) * (py - y1) - (y2 - y1) * (px - x1)
            within = (
                (np.minimum(x1, x2) <= px) & (px <= np.maximum(x1, x2))
                & (np.minimum(y1, y2) <= py) & (py <= np.maximum(y1, y2))
            )
            on_edge |= (cross == 0.0) & within
            spans = (y1 > py) != (y2 > py)
            if np.any(spans):
                xt = x1 + (py[spans] - y1) / (y2 - y1) * (x2 - x1)
                hit = np.zeros(len(pts), dtype=bool)
                hit[spans] = xt > px[spans]
                inside ^= hit
        if strict:
            return inside & ~on_edge
        return inside | on_edge

    def __repr__(self) -> str:
        return f"Polygon({len(self._coords)} vertices, area={self._area:.6g})"


def _point_xy(point) -> tuple:
    if isinstance(point, Point2):
        return (point.x, point.y)
    x, y = point
    return (float(x), float(y))


def _coerce_coords(vertices: Iterable) -> np.ndarray:
    rows = []
    for v in vertices:
        rows.append(_point_xy(v))
    coords = np.asarray(rows, dtype=float)
    if coords.ndim != 2 or coords.shape[1] != 2:
        raise InvalidPolygonError("vertices must be a sequence of (x, y) pairs")
    # tolerate an explicitly closed loop (last vertex repeating the first)
    if len(coords) > 3 and np.all(coords[0] == coords[-1]):
        coords = coords[:-1]
    return coords.copy()


def as_polygon(region) -> Polygon:
    """Pass a Polygon through unchanged, or build one from a vertex loop."""
    if isinstance(region, Polygon):
        return region
    return Polygon(region)


def signed_area(poly: Polygon) -> float:
    """Shoelace area of the stored loop; positive because storage is CCW."""
    return _shoelace(poly.coords)


def diameter(poly: Polygon) -> float:
    """Maximum pairwise vertex distance."""
    return poly.diameter

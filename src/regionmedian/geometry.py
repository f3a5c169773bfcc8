"""Planar primitives: points, vectors, simple polygons.

Coordinates are plain float64 throughout. Polygons are validated at
construction (simple, nonzero area) and stored in counterclockwise
order, so everything downstream can rely on one orientation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import InvalidPolygonError

__all__ = [
    "Point2",
    "Vector2",
    "Polygon",
    "rotate90",
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
    # past about 1e154 the products overflow; callers see a non-finite
    # area instead of numpy's warning
    x, y = coords[:, 0], coords[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    with np.errstate(over="ignore", invalid="ignore"):
        return 0.5 * float(np.sum(x * yn - xn * y))


def _antipodal_pairs(hull: np.ndarray) -> tuple:
    """Vertex index pairs (i, j) of a convex counterclockwise polygon that
    include every antipodal pair: rotating calipers, vectorized.

    Rotating the two parallel supporting lines of an antipodal pair turns
    one of them onto the edge leaving its vertex k, so the pair is
    (k, vertex antipodal to edge k) for some k (Preparata & Shamos,
    Computational Geometry, 1985, section 4.2.3). Edge k's antipodal vertex
    is where the edge directions pass theta_k + pi; ``searchsorted`` on the
    unwrapped edge angles finds it for all edges at once, and its
    neighbours on either side cover a parallel opposite edge (two
    antipodal vertices) and angles that rounding puts on the wrong side.
    """
    h = len(hull)
    e = np.roll(hull, -1, axis=0) - hull
    theta = np.maximum.accumulate(np.unwrap(np.arctan2(e[:, 1], e[:, 0])))
    far = np.searchsorted(np.concatenate([theta, theta + 2.0 * np.pi]), theta + np.pi)
    return np.repeat(np.arange(h), 3), (far[:, None] + np.array([-1, 0, 1])).ravel() % h


def _max_pairwise_distance(coords: np.ndarray) -> float:
    """Largest distance between two rows of an (n, 2) array.

    The diameter is attained at an antipodal pair of convex hull vertices,
    so beyond 8 rows it is the largest of the same squared differences
    over the rotating-calipers pairs of the hull, O(h log h). Tiny inputs,
    and flat or repeated ones where qhull refuses to run, are scanned
    directly. Squares are taken of coordinates scaled by a power of two,
    so they neither overflow nor underflow at extreme scales; the scaling
    is exact, so in the normal range the result is the same float.
    """
    pairs = None
    if len(coords) > 8:
        from scipy.spatial import ConvexHull, QhullError

        try:
            coords = coords[ConvexHull(coords).vertices]
        except QhullError:
            pass
        else:
            pairs = _antipodal_pairs(coords)
    exp = math.frexp(float(np.max(np.abs(coords))))[1]
    coords = np.ldexp(coords, -exp)
    if pairs is not None:
        i, j = pairs
        # dx * dx + dy * dy is the float that np.sum((q - p) ** 2) gives
        x, y = coords.T
        best = float(np.max((x[j] - x[i]) ** 2 + (y[j] - y[i]) ** 2))
    else:
        best = 0.0
        for i in range(len(coords) - 1):
            d2 = np.sum((coords[i + 1:] - coords[i]) ** 2, axis=1)
            best = max(best, float(d2.max()))
    return math.ldexp(math.sqrt(best), exp)


# Candidate edge pairs go through the contact predicate in blocks of at
# most this many, and the search stops at the first block with a contact,
# so no loop allocates O(n^2) pair arrays at once.
_PAIR_BLOCK = 1 << 13
# Below this many edges, testing all pairs at once is cheaper than
# building the grid (measured crossover: about 50 edges).
_GRID_MIN_EDGES = 48
# The grid is used while the edges' boxes cover at most this many cells
# per edge on average. Loops whose long edges crowd the grid take all
# pairs instead, block by block: quadratic time, but no more memory.
_CELLS_PER_EDGE = 4


def _all_edge_pairs(n: int):
    """Every pair i < j of edges of a closed n-edge loop that are not
    neighbours, in blocks of about ``_PAIR_BLOCK``."""
    rows = max(1, _PAIR_BLOCK // n)
    j = np.arange(n)
    for r0 in range(0, n - 2, rows):
        i = np.arange(r0, min(r0 + rows, n - 2))[:, None]
        ii, jj = np.nonzero((j >= i + 2) & ((i > 0) | (j < n - 1)))
        yield ii + r0, jj


def _grid_edge_pairs(c0: np.ndarray, c1: np.ndarray, g: int):
    """Pairs i < j of non-neighbour edges whose boxes share a cell of a
    g x g grid, in blocks of at most ``_PAIR_BLOCK``.

    Box m covers the cells c0[m] to c1[m] (column, row). Two boxes that
    share several cells give their pair once per shared cell.
    """
    n = len(c0)
    width = c1[:, 0] - c0[:, 0] + 1
    count = width * (c1[:, 1] - c0[:, 1] + 1)
    # one incidence per covered cell of each edge, sorted by cell, then edge
    edge = np.repeat(np.arange(n), count)
    k = np.arange(len(edge)) - np.repeat(np.cumsum(count) - count, count)
    w = width[edge]
    cell = (c0[edge, 1] + k // w) * g + c0[edge, 0] + k % w
    order = np.lexsort((edge, cell))
    edge, cell = edge[order], cell[order]
    # incidence p pairs with the later[p] incidences after it in its cell;
    # those are the pairs numbered start[p] .. stop[p] - 1
    later = np.searchsorted(cell, cell, side="right") - np.arange(len(cell)) - 1
    stop = np.cumsum(later)
    start = stop - later
    total = int(stop[-1])
    for q0 in range(0, total, _PAIR_BLOCK):
        q1 = min(q0 + _PAIR_BLOCK, total)
        pa, pb = np.searchsorted(stop, (q0, q1 - 1), side="right")
        p = np.repeat(np.arange(pa, pb + 1), later[pa:pb + 1])[q0 - start[pa]:q1 - start[pa]]
        i, j = edge[p], edge[p + 1 + np.arange(q0, q1) - start[p]]
        keep = (j - i >= 2) & ((i > 0) | (j < n - 1))
        yield i[keep], j[keep]


def _candidate_edge_pairs(lo: np.ndarray, hi: np.ndarray):
    """Blocks of edge pairs i < j, not neighbours on the loop, that include
    every pair whose bounding boxes ``lo``/``hi`` touch.

    Edge boxes are bucketed into a uniform grid of about sqrt(n) x sqrt(n)
    cells over the loop's box. A cell index is floor((v - origin) / h),
    which is monotone in v: if two boxes touch, even at a single point on
    a grid line, the low corner of their overlap lies in both, so its cell
    lies in both boxes' cell ranges. Small loops, and loops whose boxes
    would crowd the grid, take every non-neighbour pair.
    """
    n = len(lo)
    if n >= _GRID_MIN_EDGES:
        g = math.isqrt(n)
        origin = lo.min(axis=0)
        h = (hi.max(axis=0) - origin) / g
        if np.all(np.isfinite(h)):
            h[h == 0.0] = 1.0
            c0 = np.minimum(np.floor((lo - origin) / h), g - 1).astype(np.int64)
            c1 = np.minimum(np.floor((hi - origin) / h), g - 1).astype(np.int64)
            if np.sum(np.prod(c1 - c0 + 1, axis=1)) <= _CELLS_PER_EDGE * n:
                yield from _grid_edge_pairs(c0, c1, g)
                return
    yield from _all_edge_pairs(n)


def _segments_intersect_any(coords: np.ndarray) -> bool:
    """True if any two non-adjacent edges of the closed loop touch.

    Exact orientation tests, one array pass per block of candidate edge
    pairs from a grid over the edges' bounding boxes: near-linear in the
    vertex count for sampled curves. A triangle has no non-adjacent pair.
    """
    n = len(coords)
    if n < 4:
        return False
    a = coords
    b = np.roll(coords, -1, axis=0)
    # one contiguous row per coordinate of the edge starts and ends
    rows = np.concatenate([a, b], axis=1).T.copy()
    for i, j in _candidate_edge_pairs(np.minimum(a, b), np.maximum(a, b)):
        if len(i) and _edges_touch(rows, i, j):
            return True
    return False


def _edges_touch(rows: np.ndarray, i: np.ndarray, j: np.ndarray) -> bool:
    """True if edge i[k] touches edge j[k] for some k: they cross, or an
    endpoint of one lies exactly on the other.

    ``rows`` holds the x and y of every edge's start and end.
    """
    ax, ay, bx, by = (r[i] for r in rows)
    cx, cy, dx, dy = (r[j] for r in rows)
    ex, ey = bx - ax, by - ay
    fx, fy = dx - cx, dy - cy
    o1 = ex * (cy - ay) - ey * (cx - ax)
    o2 = ex * (dy - ay) - ey * (dx - ax)
    o3 = fx * (ay - cy) - fy * (ax - cx)
    o4 = fx * (by - cy) - fy * (bx - cx)
    if np.any((o1 * o2 < 0) & (o3 * o4 < 0)):
        return True
    # improper contact: an endpoint of one edge lying exactly on the other
    # edge (including collinear overlap) also breaks simplicity
    k = np.flatnonzero((o1 == 0) | (o2 == 0) | (o3 == 0) | (o4 == 0))
    if len(k) == 0:
        return False
    ax, ay, bx, by, cx, cy, dx, dy = (v[k] for v in (ax, ay, bx, by, cx, cy, dx, dy))

    def on(o, px, py, x0, y0, x1, y1):
        return (
            (o[k] == 0)
            & (np.minimum(x0, x1) <= px) & (px <= np.maximum(x0, x1))
            & (np.minimum(y0, y1) <= py) & (py <= np.maximum(y0, y1))
        )

    return bool(np.any(
        on(o1, cx, cy, ax, ay, bx, by) | on(o2, dx, dy, ax, ay, bx, by)
        | on(o3, ax, ay, cx, cy, dx, dy) | on(o4, bx, by, cx, cy, dx, dy)
    ))


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
        if not math.isfinite(area):
            raise InvalidPolygonError("polygon area overflows the float range")
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
    if not isinstance(vertices, np.ndarray) or vertices.dtype == object:
        vertices = [(v.x, v.y) if isinstance(v, Point2) else v for v in vertices]
    try:
        coords = np.array(vertices, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidPolygonError("vertices must be a sequence of (x, y) pairs") from exc
    if coords.ndim != 2 or coords.shape[1] != 2:
        raise InvalidPolygonError("vertices must be a sequence of (x, y) pairs")
    # tolerate an explicitly closed loop (last vertex repeating the first)
    if len(coords) > 3 and np.all(coords[0] == coords[-1]):
        coords = coords[:-1]
    return coords


def as_polygon(region) -> Polygon:
    """Pass a Polygon through unchanged, or build one from a vertex loop."""
    if isinstance(region, Polygon):
        return region
    return Polygon(region)

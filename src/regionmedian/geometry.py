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

    @property
    def norm(self) -> float:
        return math.hypot(self.dx, self.dy)

    def as_array(self) -> np.ndarray:
        return np.array([self.dx, self.dy], dtype=float)


def rotate90(v: Vector2) -> Vector2:
    """Rotate a vector counterclockwise by 90 degrees: (x, y) to (-y, x)."""
    return Vector2(-v.dy, v.dx)


def _shoelace(coords: np.ndarray, nxt: np.ndarray) -> float:
    # nxt holds each vertex's successor. The products are taken relative
    # to vertex 0, which is exact for nearby vertices (Sterbenz), so a
    # region far from the origin does not cancel its own area. Past about
    # 1e154 the products overflow, and callers see a non-finite area
    ox, oy = coords[0]
    x, y = coords[:, 0] - ox, coords[:, 1] - oy
    xn, yn = nxt[:, 0] - ox, nxt[:, 1] - oy
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
    e = np.concatenate((hull[1:], hull[:1])) - hull
    theta = np.maximum.accumulate(np.unwrap(np.arctan2(e[:, 1], e[:, 0])))
    far = np.searchsorted(np.concatenate([theta, theta + 2.0 * np.pi]), theta + np.pi)
    return np.repeat(np.arange(h), 3), (far[:, None] + np.array([-1, 0, 1])).ravel() % h


# All-pairs scans (row pairs for a diameter, candidate edge pairs for the
# contact predicate) go in blocks of at most this many pairs, and the
# contact search stops at the first block with a contact, so no loop
# allocates O(n^2) pair arrays at once.
_PAIR_BLOCK = 1 << 13


def _max_pairwise_distance(coords: np.ndarray, convex: bool = False) -> float:
    """Largest distance between two rows of an (n, 2) array.

    The diameter is attained at an antipodal pair of convex hull vertices,
    so beyond 8 rows it is the largest of the same squared differences
    over the rotating-calipers pairs of the hull, O(h log h). With
    ``convex`` the rows are a strictly convex counterclockwise loop, their
    own hull, and the calipers run on them directly in O(n log n);
    otherwise qhull finds the hull. Up to 8 rows, and for flat or repeated
    rows where qhull refuses to run, all pairs are taken by one broadcast
    done in blocks of ``_PAIR_BLOCK // n`` rows. Squares are taken of
    coordinates scaled by a power of two, so they neither overflow nor
    underflow at extreme scales; the scaling is exact, so in the normal
    range the result is the same float.
    """
    pairs = None
    if len(coords) > 8:
        if convex:
            pairs = _antipodal_pairs(coords)
        else:
            from scipy.spatial import ConvexHull, QhullError

            try:
                coords = coords[ConvexHull(coords).vertices]
            except QhullError:
                pass
            else:
                pairs = _antipodal_pairs(coords)
    exp = math.frexp(float(np.max(np.abs(coords))))[1]
    coords = np.ldexp(coords, -exp)
    # dx * dx + dy * dy is the float that np.sum((q - p) ** 2) gives
    x, y = coords.T
    if pairs is not None:
        i, j = pairs
        best = float(np.max((x[j] - x[i]) ** 2 + (y[j] - y[i]) ** 2))
    else:
        best = 0.0
        rows = max(1, _PAIR_BLOCK // len(coords))
        for r0 in range(0, len(coords), rows):
            dx, dy = x[r0:r0 + rows, None] - x[r0:], y[r0:r0 + rows, None] - y[r0:]
            best = max(best, float(np.max(dx * dx + dy * dy)))
    return math.ldexp(math.sqrt(best), exp)


# Below this many edges, testing all pairs at once is cheaper than the
# sort and sweep (measured crossover of the whole contact test: 40 to 56
# edges on random star loops, on a shared 2-core x86-64 machine).
_SWEEP_MIN_EDGES = 48
# the sweep's direction (1, phi): both components positive, and an
# irrational slope, so no axis-parallel or lattice edge projects to a point
_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _all_edge_pairs(n: int):
    """Every pair i < j of edges of a closed n-edge loop that are not
    neighbours, in blocks of about ``_PAIR_BLOCK``."""
    rows = max(1, _PAIR_BLOCK // n)
    j = np.arange(n)
    for r0 in range(0, n - 2, rows):
        i = np.arange(r0, min(r0 + rows, n - 2))[:, None]
        ii, jj = np.nonzero((j >= i + 2) & ((i > 0) | (j < n - 1)))
        yield ii + r0, jj


def _candidate_edge_pairs(lo: np.ndarray, hi: np.ndarray):
    """Blocks of at most ``_PAIR_BLOCK`` edge pairs i < j, not neighbours
    on the loop, that include every pair whose bounding boxes ``lo``/``hi``
    touch.

    Loops of fewer than ``_SWEEP_MIN_EDGES`` edges take every pair.
    Larger loops sort and sweep: each box projects onto (1, phi) as the
    interval [lo_x + phi lo_y, hi_x + phi hi_y], and the candidates are
    the pairs whose intervals touch. Both ends are rounded by the same
    elementwise expression, monotone in each coordinate, so boxes that
    touch give intervals that touch, also when an end overflows to inf;
    finite coordinates give no NaN end.
    """
    n = len(lo)
    if n < _SWEEP_MIN_EDGES:
        yield from _all_edge_pairs(n)
        return
    a = lo[:, 0] + _PHI * lo[:, 1]
    order = np.argsort(a, kind="stable")
    a = a[order]
    b = (hi[:, 0] + _PHI * hi[:, 1])[order]
    # sorted interval k touches the later[k] intervals after it; those are
    # the pairs numbered start[k] .. stop[k] - 1
    later = np.searchsorted(a, b, side="right") - np.arange(1, n + 1)
    stop = np.cumsum(later)
    start = stop - later
    total = int(stop[-1])
    for q0 in range(0, total, _PAIR_BLOCK):
        q1 = min(q0 + _PAIR_BLOCK, total)
        ka, kb = np.searchsorted(stop, (q0, q1 - 1), side="right")
        k = np.repeat(np.arange(ka, kb + 1), later[ka:kb + 1])[q0 - start[ka]:q1 - start[ka]]
        e, f = order[k], order[k + 1 + np.arange(q0, q1) - start[k]]
        i, j = np.minimum(e, f), np.maximum(e, f)
        keep = (j - i >= 2) & ((i > 0) | (j < n - 1))
        yield i[keep], j[keep]


def _segments_intersect_any(coords: np.ndarray, nxt: np.ndarray) -> bool:
    """True if any two non-adjacent edges of the closed loop touch; edge i
    runs from ``coords[i]`` to ``nxt[i]``.

    Plain floating-point orientation tests, one array pass per block of
    candidate edge pairs (``_candidate_edge_pairs``): near-linear in the
    vertex count for sampled curves. The search stops at the first block
    with a contact. A triangle has no non-adjacent pair.
    """
    n = len(coords)
    if n < 4:
        return False
    # one contiguous row per coordinate of the edge starts and ends
    rows = np.concatenate([coords, nxt], axis=1).T.copy()
    for i, j in _candidate_edge_pairs(np.minimum(coords, nxt), np.maximum(coords, nxt)):
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
    # strictly opposite signs as min < 0 < max: the products o1 * o2 and
    # o3 * o4 underflow to zero for tiny loops and overflow for huge ones
    if np.any((np.minimum(o1, o2) < 0) & (np.maximum(o1, o2) > 0)
              & (np.minimum(o3, o4) < 0) & (np.maximum(o3, o4) > 0)):
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


# Shewchuk's orient2d error bound (3 + 16 eps) eps, eps = 2**-53: a turn
# cross l - r larger in magnitude than this times |l| + |r| has the sign
# of the exact turn, because both edges are rounded differences from the
# shared vertex ("Adaptive precision floating-point arithmetic and fast
# robust geometric predicates", 1997)
_TURN_ERRBOUND = (3.0 + 16.0 * 2.0 ** -53) * 2.0 ** -53
# below this |l| + |r| a product may have underflowed, and the relative
# bound above no longer holds
_TURN_FLOOR = 2.0 ** -969


def _turns(edges: np.ndarray) -> tuple:
    """(cross, certified) for the closed loop with edge vectors ``edges``.

    cross[i] = edges[i] x edges[i + 1] is the turn at vertex i + 1.
    ``certified`` is True when the loop has at least 4 vertices, every
    turn passes the orient2d filter with one sign, and the turns add up to
    one revolution. Such a loop is convex, and so simple.
    """
    en = np.concatenate((edges[1:], edges[:1]))
    left = edges[:, 0] * en[:, 1]
    right = edges[:, 1] * en[:, 0]
    cross = left - right
    # min and max are NaN if any turn is, and NaN certifies nothing
    if len(edges) < 4 or not (cross.min() > 0.0 or cross.max() < 0.0):
        return cross, False
    mag = np.abs(left) + np.abs(right)
    if not np.all((np.abs(cross) > _TURN_ERRBOUND * mag) & (mag >= _TURN_FLOOR)):
        return cross, False
    # each exact turn lies strictly between 0 and pi, and together they
    # make a whole number of revolutions: one for a convex loop, two for
    # the pentagram. A dot product that overflowed to +inf would read as
    # no turn at all, so it does not certify.
    dot = edges[:, 0] * en[:, 0] + edges[:, 1] * en[:, 1]
    if not np.all(np.isfinite(dot)):
        return cross, False
    return cross, float(np.sum(np.arctan2(np.abs(cross), dot))) < 3.0 * math.pi


# a polygon whose vertex 0 lies within this many diameters of the origin
# is its own solve frame (see ``Polygon._local_frame``)
_NEAR_ORIGIN = 4.0


class Polygon:
    """A simple polygon with at least three vertices, stored counterclockwise.

    The constructor validates the loop (no repeated consecutive vertices,
    no self-intersection, strictly nonzero area) and normalizes the vertex
    order to counterclockwise. ``was_reversed`` records whether the input
    arrived clockwise. Instances are immutable; derived quantities (edge
    vectors and lengths, area, centroid, diameter) are computed once.

    One array pass over the turns at the vertices comes first. A loop of
    4 or more vertices whose turns all have one exactly known sign and
    make one revolution is convex, hence simple: it skips the search for
    touching edge pairs, and beyond 8 vertices its diameter comes from
    rotating calipers on its own vertices. Every other loop takes the
    edge-pair search (all pairs below 48 edges, a sort and sweep of the
    edges' boxes from there on) and, beyond 8 vertices, the calipers on
    its qhull hull.

    The edges, turns, pair search and area run under one numpy error
    state that ignores overflow: a loop past about 1e154 is rejected, at
    the latest for its non-finite area, without a numpy warning.
    """

    __slots__ = ("_coords", "_edge_vectors", "_edge_lengths", "was_reversed",
                 "_area", "_centroid", "_diameter", "_convex", "_certified_convex")

    def __init__(self, vertices: Iterable) -> None:
        coords = _coerce_coords(vertices)
        if len(coords) < 3:
            raise InvalidPolygonError("polygon needs at least 3 vertices")
        if not np.all(np.isfinite(coords)):
            raise InvalidPolygonError("polygon has non-finite coordinates")
        nxt = np.concatenate((coords[1:], coords[:1]))
        if np.any(np.all(coords == nxt, axis=1)):
            raise InvalidPolygonError("polygon repeats a vertex on consecutive positions")
        with np.errstate(over="ignore", invalid="ignore"):
            edges = nxt - coords
            turns, certified = _turns(edges)
            # intersection before area: a symmetric bowtie nets out to zero
            # shoelace area, and the intersection diagnostic is the useful one
            if not certified and _segments_intersect_any(coords, nxt):
                raise InvalidPolygonError("polygon is self-intersecting")
            area = _shoelace(coords, nxt)
        if area == 0.0:
            raise InvalidPolygonError("polygon has zero area")
        if not math.isfinite(area):
            raise InvalidPolygonError("polygon area overflows the float range")
        reversed_input = area < 0.0
        if reversed_input:
            coords = coords[::-1].copy()
            edges = np.concatenate((coords[1:], coords[:1])) - coords
            # the reversed loop turns the other way: the same crosses, in
            # reverse order and negated exactly
            turns = -turns
            area = -area
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
        self._convex = bool(np.all(turns >= 0.0))
        self._certified_convex = certified

    def _local_frame(self) -> tuple:
        """(view, ox, oy): the polygon translated by minus (ox, oy), the
        frame in which solves and checks evaluate.

        (ox, oy) is vertex 0 once it lies more than ``_NEAR_ORIGIN``
        diameters from the origin. The view then shares this polygon's
        edge vectors and lengths, area, diameter and convexity, which do
        not change under translation, without validating again. Nearer,
        the frame is the polygon itself at (0, 0): its floats resolve it
        within three bits of a translated copy, and every point evaluated
        is then exactly a point that can be reported.
        """
        ox, oy = self._coords[0].tolist()
        if max(abs(ox), abs(oy)) <= _NEAR_ORIGIN * self.diameter:
            return self, 0.0, 0.0
        view = Polygon.__new__(Polygon)
        for name in Polygon.__slots__:
            setattr(view, name, getattr(self, name))
        view._coords = self._coords - self._coords[0]
        view._coords.setflags(write=False)
        view._centroid = None
        return view, ox, oy

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
            # relative to vertex 0, like the area, then moved back
            ox, oy = self._coords[0].tolist()
            x, y = self._coords[:, 0] - ox, self._coords[:, 1] - oy
            xn, yn = np.concatenate((x[1:], x[:1])), np.concatenate((y[1:], y[:1]))
            cross = x * yn - xn * y
            cx = float(np.sum((x + xn) * cross) / (6.0 * self._area))
            cy = float(np.sum((y + yn) * cross) / (6.0 * self._area))
            self._centroid = Point2(cx + ox, cy + oy)
        return self._centroid

    @property
    def diameter(self) -> float:
        if self._diameter is None:
            self._diameter = _max_pairwise_distance(self._coords, convex=self._certified_convex)
        return self._diameter

    @property
    def is_convex(self) -> bool:
        """No turn of the counterclockwise loop is negative in floating
        point (collinear vertices allowed)."""
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
        cn = np.concatenate((c[1:], c[:1]))
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

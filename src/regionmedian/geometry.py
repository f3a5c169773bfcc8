"""Planar primitives: points, vectors, simple polygons.

Coordinates are plain float64 throughout. Polygons are validated at
construction (simple, nonzero area) and stored in counterclockwise
order, so everything downstream can rely on one orientation. Polygons
and point sets are solved in the translation frame of ``_frame_origin``.
Up to ``kernels._FLOAT_EDGES`` vertices or rows, the crossover of the
closed form, validation, area, edge vectors, diameter and centroid run
on Python floats, whose + - * / give numpy's IEEE results, and whose
sums keep numpy's order (``_float_sum``), so both routes give the same
bits; a loop that the float route cannot certify or finish on finite
floats takes the array route.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add, eq, gt, mul, sub
from typing import Iterable, NamedTuple, Optional

import numpy as np

from . import kernels
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


def _shoelace(coords: np.ndarray) -> float:
    # The products are taken relative to vertex 0, which is exact for
    # nearby vertices (Sterbenz), so a region far from the origin does not
    # cancel its own area. Past about 1e154 the products overflow, and
    # callers see a non-finite area
    d = (coords - coords[0]).T
    (x, y), (xn, yn) = d, np.concatenate((d[:, 1:], d[:, :1]), axis=1)
    return 0.5 * float((x * yn - xn * y).sum())


def _float_sum(terms: list) -> float:
    """``np.add.reduce`` of a contiguous float64 array of the floats
    ``terms``, in its order up to numpy's block of 128 terms: one by one
    from 0.0 below 8 terms, else 8 accumulators over blocks of 8,
    combined pairwise, then the rest one by one, and 0.0 added last."""
    n = len(terms)
    if n < 8:
        return reduce(add, terms, 0.0)
    r, m = terms[:8], n - n % 8
    for i in range(8, m, 8):
        r = list(map(add, r, terms[i:i + 8]))
    return 0.0 + reduce(add, terms[m:], ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7])))


def _cross_terms(xs: list, ys: list) -> tuple:
    """(x, xn, y, yn, cross) for the float coordinate lists of a loop
    taken relative to its vertex 0, as ``_shoelace`` and
    ``Polygon.centroid`` form them: xn and yn the next vertex's, and
    cross[i] = x[i] yn[i] - xn[i] y[i]."""
    x0, y0 = xs[0], ys[0]
    x, y = [v - x0 for v in xs], [v - y0 for v in ys]
    xn, yn = x[1:] + x[:1], y[1:] + y[:1]
    return x, xn, y, yn, list(map(sub, map(mul, x, yn), map(mul, xn, y)))


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


# Pair scans (rows for a diameter, candidate edges for the contact test)
# go in blocks of at most this many pairs, and the contact search stops at
# the first block with a contact, so no O(n^2) pair array is allocated.
_PAIR_BLOCK = 1 << 13


def _convex_hull(pts: np.ndarray) -> np.ndarray:
    """Row indices of the convex hull of an (n, 2) array, counterclockwise.

    Quickhull (Barber, Dobkin & Huhdanpaa, "The quickhull algorithm for
    convex hulls", ACM TOMS 1996), one array pass per level over all
    pending hull edges: each edge is split at its farthest row outside
    (strictly to its right, in floating point), new edge labels come from
    a cumulative sum, and rows inside drop out. A flat or repeated set has
    no row outside and gives a hull of 2 rows.
    """
    x, y = pts.T
    left, right = np.flatnonzero(x == x.min()), np.flatnonzero(x == x.max())
    # level 0 splits the one-vertex loop [a] at b into a -> b and b -> a,
    # a and b the lexicographically least and greatest rows
    hull, far = left[np.argmin(y[left])][None], right[np.argmax(y[right])][None]
    rows, label = np.arange(len(pts)), np.zeros(len(pts), dtype=np.intp)
    while True:
        split = far >= 0
        pos = np.cumsum(1 + split) - 1 - split  # where each vertex goes
        s, f, t = hull[label], far[label], hull[(label + 1) % len(hull)]
        hull = np.insert(hull, np.flatnonzero(split) + 1, far[split])
        # a row outside s -> t is outside s -> f, outside f -> t or inside
        px, py, fx, fy = x[rows], y[rows], x[f], y[f]
        c1 = (px - x[s]) * (fy - y[s]) - (py - y[s]) * (fx - x[s])
        c2 = (px - fx) * (y[t] - fy) - (py - fy) * (x[t] - fx)
        first = c1 > 0.0
        out = np.where(first, c1, c2)
        keep = out > 0.0
        rows, out, label = rows[keep], out[keep], (pos[label] + ~first)[keep]
        if len(rows) == 0:
            return hull
        best = np.zeros(len(hull))
        np.maximum.at(best, label, out)
        hit = out == best[label]
        far = np.full(len(hull), -1)
        far[label[hit]] = rows[hit]


def _max_pairwise_distance(coords: np.ndarray, convex: bool = False, xy: Optional[tuple] = None) -> float:
    """Largest distance between two rows of an (n, 2) array.

    The rows are first scaled by a power of two, exactly, so squares
    neither overflow nor underflow. Beyond 8 rows the diameter is the
    largest of the same squared differences over the rotating-calipers
    pairs of the hull: the rows themselves with ``convex`` (a strictly
    convex counterclockwise loop), else the rows of ``_convex_hull`` when
    ``_turns`` certifies them. Every other set of rows takes all pairs by
    one broadcast in blocks of ``_PAIR_BLOCK // n`` rows. Up to
    ``kernels._FLOAT_EDGES`` rows, the scan of every pair runs on Python
    floats, with the same scaling and the same squares and sums, on the
    coordinate lists ``xy`` where the caller keeps them.
    """
    if len(coords) <= kernels._FLOAT_EDGES:
        xs, ys = xy or coords.T.tolist()
        exp = math.frexp(max(map(abs, xs + ys)))[1]
        xs, ys = [math.ldexp(v, -exp) for v in xs], [math.ldexp(v, -exp) for v in ys]
        best = 0.0
        for i in range(1, len(xs)):
            xi, yi = xs[i], ys[i]
            for xj, yj in zip(xs[:i], ys[:i]):
                dx, dy = xi - xj, yi - yj
                d2 = dx * dx + dy * dy
                if d2 > best:
                    best = d2
        return math.ldexp(math.sqrt(best), exp)
    exp = math.frexp(float(np.abs(coords).max()))[1]
    coords = np.ldexp(coords, -exp)
    if len(coords) > 8 and not convex:
        coords = coords[_convex_hull(coords)]
        convex = _turns(np.concatenate((coords[1:], coords[:1])) - coords)[1]
    # dx * dx + dy * dy is the float that np.sum((q - p) ** 2) gives
    x, y = coords.T
    if convex and len(coords) > 8:
        i, j = _antipodal_pairs(coords)
        best = float(((x[j] - x[i]) ** 2 + (y[j] - y[i]) ** 2).max())
    else:
        best = 0.0
        rows = max(1, _PAIR_BLOCK // len(coords))
        for r0 in range(0, len(coords), rows):
            dx, dy = x[r0:r0 + rows, None] - x[r0:], y[r0:r0 + rows, None] - y[r0:]
            best = max(best, float((dx * dx + dy * dy).max()))
    return math.ldexp(math.sqrt(best), exp)


# the sweep's direction (1, phi): both components positive, and an
# irrational slope, so no axis-parallel or lattice edge projects to a point
_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _sorted_intervals(a: np.ndarray, b: np.ndarray) -> tuple:
    """(order, later) for the intervals [a, b]: the order of their starts,
    and for each sorted interval k how many after it start at or before
    its end, later[k]."""
    order = np.argsort(a, kind="stable")
    later = np.searchsorted(a[order], b[order], side="right") - np.arange(1, len(a) + 1)
    return order, later


def _candidate_edge_pairs(lo: np.ndarray, hi: np.ndarray):
    """Blocks of at most ``_PAIR_BLOCK`` edge pairs i < j, not neighbours
    on the loop, that include every pair whose bounding boxes ``lo``/``hi``
    touch.

    One sort and sweep: each box projects onto (1, phi) as the
    interval [lo_x + phi lo_y, hi_x + phi hi_y], and the candidates are
    the pairs whose intervals touch. When that gives more than 16 pairs
    per edge (as for a sliver perpendicular to (1, phi)), the boxes are
    also counted along (1, -phi), as [lo_x - phi hi_y, hi_x - phi lo_y],
    and the direction with fewer pairs is swept. Both ends are rounded by the same elementwise
    expression, monotone in each coordinate, so boxes that touch give
    intervals that touch, also when an end overflows to inf; finite
    coordinates give no NaN end.
    """
    n = len(lo)
    order, later = _sorted_intervals(lo[:, 0] + _PHI * lo[:, 1], hi[:, 0] + _PHI * hi[:, 1])
    if later.sum() > 16 * n:
        across = _sorted_intervals(lo[:, 0] - _PHI * hi[:, 1], hi[:, 0] - _PHI * lo[:, 1])
        if across[1].sum() < later.sum():
            order, later = across
    # sorted interval k touches the later[k] intervals after it; those are
    # the pairs numbered start[k] .. stop[k] - 1
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
    runs from ``coords[i]`` to ``nxt[i]``. The loop is first scaled exactly
    to a largest coordinate in [2^499, 2^500): no orientation overflows (inf
    times the zero orientation at a shared vertex is NaN and hides the
    contact), and no feature above 2^-1000 of that coordinate underflows.
    The search stops at the first block of candidate pairs with a contact."""
    if len(coords) < 4:
        return False
    exp = 500 - math.frexp(float(np.max(np.abs(coords))))[1]
    coords, nxt = np.ldexp(coords, exp), np.ldexp(nxt, exp)
    # one contiguous row per coordinate of the edge starts and ends
    rows = np.concatenate([coords, nxt], axis=1).T.copy()
    return any(len(i) > 0 and _edges_touch(rows, i, j)
               for i, j in _candidate_edge_pairs(np.minimum(coords, nxt), np.maximum(coords, nxt)))


def _edges_touch(rows: np.ndarray, i: np.ndarray, j: np.ndarray) -> bool:
    """True if edge i[k] touches edge j[k] for some k: each edge meets the
    other's carrier line (min <= 0 <= max, as products of orientations can
    underflow) and their boxes overlap, which decides collinear pairs and
    keeps disjoint boxes apart however orientations round (Cormen et al.,
    Introduction to Algorithms, 33.1). Each pair sees c and d from the end
    of a -> b nearer c, and a and b from the end of c -> d nearer a (L1,
    ties to a and c), so that a short edge is not lost to the rounding of
    a long difference. ``rows``: x, y of starts and ends."""
    ax, ay, bx, by = rows[:, i]
    cx, cy, dx, dy = rows[:, j]
    ex, ey = bx - ax, by - ay
    fx, fy = dx - cx, dy - cy
    to_a = np.abs(cx - ax) + np.abs(cy - ay)
    p, q = np.abs(cx - bx) + np.abs(cy - by) < to_a, np.abs(dx - ax) + np.abs(dy - ay) < to_a
    px, py, qx, qy = np.where(p, bx, ax), np.where(p, by, ay), np.where(q, dx, cx), np.where(q, dy, cy)
    o1 = ex * (cy - py) - ey * (cx - px)
    o2 = ex * (dy - py) - ey * (dx - px)
    o3 = fx * (ay - qy) - fy * (ax - qx)
    o4 = fx * (by - qy) - fy * (bx - qx)
    return bool(np.any(
        (np.minimum(o1, o2) <= 0.0) & (np.maximum(o1, o2) >= 0.0)
        & (np.minimum(o3, o4) <= 0.0) & (np.maximum(o3, o4) >= 0.0)
        & (np.minimum(ax, bx) <= np.maximum(cx, dx)) & (np.minimum(cx, dx) <= np.maximum(ax, bx))
        & (np.minimum(ay, by) <= np.maximum(cy, dy)) & (np.minimum(cy, dy) <= np.maximum(ay, by))
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


def _winds_once(u: np.ndarray, v: np.ndarray) -> tuple:
    """(cross, certified) for vector pairs u[i], v[i], each the rounded
    difference, in either order, between a float point and one float
    point that the pair shares.

    cross[i] = u[i] x v[i]. ``certified`` is True when every cross passes
    the orient2d filter with one sign and the angles from u[i] to v[i] add
    up to one revolution.
    """
    left = u[:, 0] * v[:, 1]
    right = u[:, 1] * v[:, 0]
    cross = left - right
    # min and max are NaN if any cross is, and NaN certifies nothing
    if not (cross.min() > 0.0 or cross.max() < 0.0):
        return cross, False
    mag = np.abs(left) + np.abs(right)
    if not ((np.abs(cross) > _TURN_ERRBOUND * mag) & (mag >= _TURN_FLOOR)).all():
        return cross, False
    # each exact angle lies strictly between 0 and pi, and together they
    # make a whole number of revolutions: one for a convex loop, two for
    # the pentagram. A dot product that overflowed to +inf would read as
    # no angle at all, so it does not certify.
    dot = u[:, 0] * v[:, 0] + u[:, 1] * v[:, 1]
    if not np.isfinite(dot).all():
        return cross, False
    return cross, float(np.arctan2(np.abs(cross), dot).sum()) < 3.0 * math.pi


def _winds_once_floats(ux: list, uy: list) -> bool:
    """``_winds_once``'s certificate for the pairs u[i], u[i + 1] of the
    cyclic list of float vectors (ux[i], uy[i]): the same products,
    differences and comparisons on Python floats. The revolution count
    adds ``math.atan2``'s angles, which round differently from numpy's;
    the exact angles of a cycle add up to a whole number of revolutions,
    so it decides alike."""
    vx, vy = ux[1:] + ux[:1], uy[1:] + uy[:1]
    left, right = list(map(mul, ux, vy)), list(map(mul, uy, vx))
    cross = list(map(sub, left, right))
    # min and max may pass over a NaN cross, which fails the filter
    if not (min(cross) > 0.0 or max(cross) < 0.0):
        return False
    mag = list(map(add, map(abs, left), map(abs, right)))
    if not (min(mag) >= _TURN_FLOOR and all(map(gt, map(abs, cross), map(_TURN_ERRBOUND.__mul__, mag)))):
        return False
    dot = list(map(add, map(mul, ux, vx), map(mul, uy, vy)))
    if not all(map(math.isfinite, dot)):
        return False
    return math.fsum(map(math.atan2, map(abs, cross), dot)) < 3.0 * math.pi


def _turns(edges: np.ndarray) -> tuple:
    """(cross, certified) for the closed loop with edge vectors ``edges``.

    cross[i] = edges[i] x edges[i + 1] is the turn at vertex i + 1, the
    cross of two differences from that vertex. ``certified`` is True when
    ``_winds_once`` certifies the turns: the loop is then convex, and so
    simple.
    """
    return _winds_once(edges, np.concatenate((edges[1:], edges[:1])))


def _star_shaped(coords: np.ndarray, nxt: np.ndarray) -> bool:
    """True when the closed loop is certified star-shaped around the mean g
    of its vertices; edge i runs from ``coords[i]`` to ``nxt[i]``.

    ``_winds_once`` certifies the angles that the edges subtend at g. Each
    edge then lies in its own wedge from g, of angle below pi, that meets
    its neighbours' wedges along one ray and every other wedge only at g,
    which no edge passes through. So non-adjacent edges cannot touch, and
    adjacent ones meet only at their shared vertex: the loop is simple.
    """
    g = coords.sum(axis=0) / len(coords)
    return _winds_once(coords - g, nxt - g)[1]


def _checked_loop_floats(xs: list, ys: list) -> Optional[tuple]:
    """``_checked_loop`` on Python floats for the finite coordinate lists
    of a loop: the repeated-vertex check, the turn and star-shaped
    certificates and the shoelace area by the same IEEE operations, in
    the same order. None where neither certificate holds, and the loop
    needs the edge-pair search."""
    n = len(xs)
    pts = list(zip(xs, ys))
    if any(map(eq, pts, pts[1:] + pts[:1])):
        raise InvalidPolygonError("polygon repeats a vertex on consecutive positions")
    certified = n > 3 and _winds_once_floats(_float_edges(xs), _float_edges(ys))
    if n > 3 and not certified:
        # the mean of the vertices, summed down the rows from 0.0 as numpy's axis-0 sum
        gx, gy = reduce(add, xs, 0.0) / n, reduce(add, ys, 0.0) / n
        if not _winds_once_floats([v - gx for v in xs], [v - gy for v in ys]):
            return None
    return certified, 0.5 * _float_sum(_cross_terms(xs, ys)[4])


def _float_edges(v: list) -> list:
    """Next coordinate minus this one, around the loop of floats ``v``."""
    return list(map(sub, v[1:] + v[:1], v))


def _checked_loop(coords: np.ndarray, xy: Optional[tuple]) -> tuple:
    """(certified convex, signed area) of a loop of at least 3 rows;
    raises InvalidPolygonError for a non-finite coordinate, a repeated
    consecutive vertex or touching edges. A loop given with its
    coordinate lists ``xy`` (up to ``kernels._FLOAT_EDGES`` vertices) that
    is finite and that ``_checked_loop_floats`` certifies simple takes it;
    every other loop takes the array passes and, uncertified, the
    edge-pair search."""
    if xy is not None:
        xs, ys = xy
        if all(map(math.isfinite, xs + ys)):
            checked = _checked_loop_floats(xs, ys)
            if checked is not None:
                return checked
    if not np.isfinite(coords).all():
        raise InvalidPolygonError("polygon has non-finite coordinates")
    nxt = np.concatenate((coords[1:], coords[:1]))
    if (coords == nxt).all(axis=1).any():
        raise InvalidPolygonError("polygon repeats a vertex on consecutive positions")
    with np.errstate(over="ignore", invalid="ignore"):
        # every two edges of a triangle are neighbours, so none can cross
        certified = len(coords) > 3 and _turns(nxt - coords)[1]
        simple = len(coords) < 4 or certified or _star_shaped(coords, nxt)
        # intersection before area: a symmetric bowtie nets out to zero
        # shoelace area, and the intersection diagnostic is the useful one
        if not simple and _segments_intersect_any(coords, nxt):
            raise InvalidPolygonError("polygon is self-intersecting")
        return certified, _shoelace(coords)


# a polygon or point set whose vertex 0 lies within this many diameters
# of the origin is its own solve frame
_NEAR_ORIGIN = 4.0


def _frame_origin(first, diameter: float) -> tuple:
    """(ox, oy), the origin of the frame in which a set of rows whose
    row 0 is the two floats ``first`` is solved: row 0 once it lies more
    than ``_NEAR_ORIGIN`` diameters out, so far points keep the float
    resolution of near ones, else (0, 0)."""
    ox, oy = first
    if max(abs(ox), abs(oy)) <= _NEAR_ORIGIN * diameter:
        return 0.0, 0.0
    return ox, oy


# an edge at least this long has a normal squared length
_SHORT_EDGE = 2.0 ** -500


class _FloatLoop(NamedTuple):
    """A polygon's vertices and edges as Python floats, counterclockwise:
    the coordinate lists of its vertices and edge vectors, the edge
    lengths, and the vertex and edge rows that
    ``kernels.closed_values_batch`` takes."""

    xs: list
    ys: list
    exs: list
    eys: list
    lengths: list
    starts: kernels._FloatRows
    edges: kernels._FloatRows

    def moved(self, ox: float, oy: float) -> "_FloatLoop":
        """The loop translated by minus (ox, oy): the same subtractions
        as the arrays', sharing the edge lists."""
        xs, ys = [v - ox for v in self.xs], [v - oy for v in self.ys]
        return _FloatLoop(xs, ys, self.exs, self.eys, self.lengths, kernels._FloatRows(zip(xs, ys)), self.edges)


class Polygon:
    """A simple polygon with at least three vertices, stored counterclockwise.

    The constructor validates the loop (no repeated consecutive vertices,
    no edge whose squared length underflows to zero or whose length
    overflows, no self-intersection, strictly nonzero area) and normalizes
    the vertex order to counterclockwise. ``was_reversed`` records whether
    the input arrived clockwise. Instances are immutable; derived
    quantities (edge vectors and lengths, area, centroid, diameter) are
    computed once.

    One pass over the turns at the vertices comes first. A loop of 4 or
    more vertices whose turns all have one exactly known sign and make one
    revolution is convex, hence simple: it skips the search for touching
    edge pairs and, for its diameter, the hull. A second pass certifies
    star-shaped loops: seen from the mean of the vertices, the angles that
    the edges subtend all have one exactly known sign and make one
    revolution, so each edge keeps to its own wedge and the loop is simple
    without the search. Every other loop takes the sort and sweep of its
    edge boxes. Two edges touch when each meets the other's line and
    their boxes meet.

    Up to ``kernels._FLOAT_EDGES`` vertices, both passes, the area and the
    edge vectors run on Python floats, and the diameter and the centroid
    too, the diameter over every pair of vertices; a loop that neither
    pass certifies is checked again on arrays before its search. Beyond,
    each step is one numpy call, and the diameter of a loop not certified
    convex takes a hull first. Both routes give the same bits. The arrays
    run under one numpy error state that ignores overflow: a loop past
    about 1e154 is rejected, at the latest for its non-finite area,
    without a numpy warning.

    Such a loop keeps the float lists its constructor forms, as a
    ``_FloatLoop``: vertex and edge coordinates, counterclockwise, and the
    edge lengths. The diameter, the centroid, the solve frame (whose
    translated view carries translated vertex lists) and every residual
    evaluation read them instead of converting the arrays again; the
    closed form takes their rows. Longer loops build no lists.
    """

    __slots__ = ("_coords", "_edge_vectors", "_edge_lengths", "was_reversed",
                 "_area", "_centroid", "_diameter", "_certified_convex", "_floats")

    def __init__(self, vertices: Iterable) -> None:
        coords = _coerce_coords(vertices)
        if len(coords) < 3:
            raise InvalidPolygonError("polygon needs at least 3 vertices")
        xy = coords.T.tolist() if len(coords) <= kernels._FLOAT_EDGES else None
        certified, area = _checked_loop(coords, xy)
        if area == 0.0:
            raise InvalidPolygonError("polygon has zero area")
        if not math.isfinite(area):
            raise InvalidPolygonError("polygon area overflows the float range")
        reversed_input = area < 0.0
        if reversed_input:
            coords = coords[::-1].copy()
            area = -area
        if xy is not None:
            xs, ys = xy
            if reversed_input:
                xs.reverse()
                ys.reverse()
            exs, eys = _float_edges(xs), _float_edges(ys)
            edges = np.empty_like(coords)
            edges[:, 0], edges[:, 1] = exs, eys
        else:
            with np.errstate(over="ignore", invalid="ignore"):
                edges = np.concatenate((coords[1:], coords[:1])) - coords
        lengths = np.hypot(edges[:, 0], edges[:, 1])
        if xy is not None:
            lens = lengths.tolist()
            self._floats = _FloatLoop(xs, ys, exs, eys, lens, kernels._FloatRows(zip(xs, ys)),
                                      kernels._FloatRows(zip(exs, eys)))
            longest, shortest = max(lens), min(lens)
        else:
            self._floats = None
            longest, shortest = lengths.max(), lengths.min()
        # an edge between finite vertices can still overflow, and the
        # diameter and the solves need its length
        if longest == math.inf:
            raise InvalidPolygonError("polygon has an edge whose length overflows the float range")
        # the closed form divides by every squared edge length, which only
        # an edge shorter than _SHORT_EDGE can lose to underflow
        if shortest < _SHORT_EDGE:
            short = edges[lengths < _SHORT_EDGE]
            if not (short * short).sum(axis=1).all():
                raise InvalidPolygonError("polygon has an edge whose squared length underflows to zero")
        for arr in (coords, edges, lengths):
            arr.setflags(write=False)
        self._coords = coords
        self._edge_vectors = edges
        self._edge_lengths = lengths
        self.was_reversed = reversed_input
        self._area = area
        self._centroid = None
        self._diameter = None
        self._certified_convex = certified

    def _float_loop(self) -> Optional[_FloatLoop]:
        """The kept ``_FloatLoop``, or None where the array routes run:
        above ``kernels._FLOAT_EDGES`` vertices, read at each call, or for
        a loop built while it was lower."""
        return self._floats if len(self._coords) <= kernels._FLOAT_EDGES else None

    def _first_vertex(self, loop: Optional[_FloatLoop]) -> tuple:
        """Vertex 0 as two floats, from ``loop`` where there is one."""
        return (loop.xs[0], loop.ys[0]) if loop else self._coords[0].tolist()

    def _local_frame(self) -> tuple:
        """(view, ox, oy): the polygon translated by minus (ox, oy), the
        frame in which solves and checks evaluate.

        (ox, oy) is ``_frame_origin``: vertex 0 once it lies more than
        ``_NEAR_ORIGIN`` diameters from the origin. The view then shares
        this polygon's edge vectors and lengths, area, diameter and
        convexity, which do not change under translation, without
        validating again; its float lists are the translated vertex lists
        with the shared edge lists. Nearer, the frame is the polygon
        itself at (0, 0): its floats resolve it within three bits of a
        translated copy, and every point evaluated is then exactly a
        point that can be reported.
        """
        loop = self._float_loop()
        ox, oy = _frame_origin(self._first_vertex(loop), self.diameter)
        if ox == oy == 0.0:
            return self, 0.0, 0.0
        view = Polygon.__new__(Polygon)
        for name in Polygon.__slots__:
            setattr(view, name, getattr(self, name))
        view._coords = self._coords - self._coords[0]
        view._coords.setflags(write=False)
        view._centroid = None
        view._floats = loop.moved(ox, oy) if loop else None
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
            loop = self._float_loop()
            ox, oy = self._first_vertex(loop)
            cx = cy = math.inf
            if loop:
                # the same sums on Python floats; where one does not end
                # finite, the arrays below raise or warn as they always do
                x, xn, y, yn, cross = _cross_terms(loop.xs, loop.ys)
                cx = _float_sum(list(map(mul, map(add, x, xn), cross))) / (6.0 * self._area)
                cy = _float_sum(list(map(mul, map(add, y, yn), cross))) / (6.0 * self._area)
            if not (math.isfinite(cx) and math.isfinite(cy)):
                d = (self._coords - self._coords[0]).T
                (x, y), (xn, yn) = d, np.concatenate((d[:, 1:], d[:, :1]), axis=1)
                cross = x * yn - xn * y
                cx = float(((x + xn) * cross).sum() / (6.0 * self._area))
                cy = float(((y + yn) * cross).sum() / (6.0 * self._area))
            self._centroid = Point2(cx + ox, cy + oy)
        return self._centroid

    @property
    def diameter(self) -> float:
        if self._diameter is None:
            loop = self._float_loop()
            self._diameter = _max_pairwise_distance(self._coords, self._certified_convex,
                                                    (loop.xs, loop.ys) if loop else None)
        return self._diameter

    def contains(self, point) -> bool:
        return bool(self.contains_many(np.array([_point_xy(point)]))[0])

    def contains_many(self, pts: np.ndarray) -> np.ndarray:
        """Crossing-parity point-in-polygon test for an (m, 2) array.

        Points exactly on the boundary count as outside.
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
        return inside & ~on_edge

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
    except OverflowError as exc:
        raise InvalidPolygonError("vertices have a coordinate past the float range") from exc
    except (TypeError, ValueError) as exc:
        raise InvalidPolygonError("vertices must be a sequence of (x, y) pairs") from exc
    if coords.ndim != 2 or coords.shape[1] != 2:
        raise InvalidPolygonError("vertices must be a sequence of (x, y) pairs")
    # tolerate an explicitly closed loop (last vertex repeating the first)
    if len(coords) > 3 and coords[0].tolist() == coords[-1].tolist():
        coords = coords[:-1]
    return coords


def as_polygon(region) -> Polygon:
    """Pass a Polygon through unchanged, or build one from a vertex loop."""
    if isinstance(region, Polygon):
        return region
    return Polygon(region)

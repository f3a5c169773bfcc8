"""Shared generators for randomized tests. All randomness flows through
the caller's seeded Generator so every test is reproducible."""
import math

import numpy as np

from regionmedian import Polygon
from regionmedian.kernels import _COLLINEAR_EPS, closed_values_batch


def closed_value(a, b, x):
    """Closed-form integral of |P - x| along the segment from a to b."""
    a = np.asarray(a, dtype=float)
    return float(closed_values_batch([a], [np.asarray(b, dtype=float) - a], x)[0][0])


def two_endpoint_closed_values(a, e, x):
    """Reference for ``kernels.closed_values_batch``: the same elementwise
    formulas, evaluated at each segment end by its own numpy calls."""
    e = np.asarray(e, dtype=float)
    w = np.asarray(x, dtype=float).reshape(2) - np.asarray(a, dtype=float)
    L2 = np.sum(e * e, axis=1)
    t0 = (e[:, 0] * w[:, 0] + e[:, 1] * w[:, 1]) / L2
    cs = (e[:, 0] * w[:, 1] - e[:, 1] * w[:, 0]) / L2
    c = np.abs(cs)
    u1 = -t0
    u2 = 1.0 - t0
    col = c < _COLLINEAR_EPS
    c = np.where(col, 1.0, c)
    r1, r2 = np.hypot(u1, c), np.hypot(u2, c)
    s1, s2 = np.arcsinh(u1 / c), np.arcsinh(u2 / c)
    vals = 0.5 * (u2 * r2 + c * c * s2) - 0.5 * (u1 * r1 + c * c * s1)
    along = (u1 + u2) / (r1 + r2)
    normal = cs * (s2 - s1)
    vals = np.where(col, 0.5 * (u2 * np.abs(u2) - u1 * np.abs(u1)), vals)
    along = np.where(col, np.abs(u2) - np.abs(u1), along)
    normal = np.where(col, 0.0, normal)
    grad = np.stack((-(along * e[:, 0] + normal * e[:, 1]), normal * e[:, 0] - along * e[:, 1]), axis=1)
    return L2 * vals, grad


def random_convex_polygon(rng, n_max=8, scale=1.0):
    """Random convex polygon with 3..n_max vertices, unit-ish size."""
    from scipy.spatial import ConvexHull

    while True:
        n = int(rng.integers(3, n_max + 1))
        angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
        radii = rng.uniform(0.5, 1.5, n)
        pts = np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1)
        pts = (pts + rng.uniform(-1.0, 1.0, 2)) * scale
        try:
            hull = ConvexHull(pts)
        except Exception:
            continue
        coords = pts[hull.vertices]
        if len(coords) >= 3:
            poly = Polygon(coords)
            if poly.area > 0.3 * scale * scale:
                return poly


def random_triangle(rng, scale=1.0, min_area=0.15):
    """Random triangle with area bounded away from zero."""
    while True:
        coords = rng.uniform(-1.0, 1.0, (3, 2)) * scale
        area = 0.5 * abs(
            (coords[1, 0] - coords[0, 0]) * (coords[2, 1] - coords[0, 1])
            - (coords[1, 1] - coords[0, 1]) * (coords[2, 0] - coords[0, 0])
        )
        if area > min_area * scale * scale:
            return Polygon(coords)


def random_star_polygon(rng, n=8, scale=1.0):
    """Non-convex but simple polygon, star-shaped around its anchor point.

    Angles come from a jittered uniform grid so every angular gap stays
    strictly between 0 and pi; with positive radii that is enough to keep
    the loop simple no matter how wild the radii are.
    """
    angles = (np.arange(n) + rng.uniform(0.05, 0.95, n)) * (2.0 * np.pi / n)
    radii = rng.uniform(0.35, 1.5, n)
    pts = np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1) * scale
    return Polygon(pts + rng.uniform(-0.5, 0.5, 2) * scale)


def similarity_transform(coords, angle, scale, shift):
    """Apply rotation by angle, scaling, then translation to (n, 2) coords."""
    c, s = np.cos(angle), np.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    return (np.asarray(coords, dtype=float) @ rot.T) * scale + np.asarray(shift, dtype=float)


def interior_point(poly, rng):
    """A point strictly inside the polygon, biased toward the centroid."""
    c = poly.centroid.as_array()
    coords = poly.coords
    while True:
        v = coords[int(rng.integers(0, len(coords)))]
        p = c + rng.uniform(0.05, 0.85) * (v - c)
        if poly.contains(p, strict=True):
            return p


def quadratic_segments_intersect_any(coords):
    """Reference contact test: every non-adjacent edge pair of the closed
    loop, one edge at a time, with the same orientation and improper-contact
    rules as ``geometry._segments_intersect_any``. Quadratic in n."""
    coords = np.asarray(coords, dtype=float)
    n = len(coords)
    a = coords
    b = np.roll(coords, -1, axis=0)
    for i in range(n - 2):
        # partner edges j > i, skipping neighbours (and the wrap-around
        # neighbour of edge 0)
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


def all_pairs_diameter(coords, hull=True):
    """Reference diameter: the largest np.sum((q - p) ** 2) over all pairs
    of rows, square-rooted. With ``hull``, the rows are first cut to the
    convex hull's vertices when qhull accepts them, as
    ``geometry._max_pairwise_distance`` does for loops it cannot certify
    convex."""
    from scipy.spatial import ConvexHull, QhullError

    pts = np.asarray(coords, dtype=float)
    if hull and len(pts) > 8:
        try:
            pts = pts[ConvexHull(pts).vertices]
        except QhullError:
            pass
    best = 0.0
    for i in range(len(pts) - 1):
        d2 = np.sum((pts[i + 1:] - pts[i]) ** 2, axis=1)
        best = max(best, float(d2.max()))
    return math.sqrt(best)

"""A symmetric triangle quadrature rule with subdivision and fan triangulation.

The rule is exact for polynomials of degree 7. Its points are given in
barycentric coordinates with weights summing to 1; integrating g over a
triangle T of area A is A * sum(w_k * g(p_k)).
"""
from __future__ import annotations

import numpy as np

from .geometry import Polygon

__all__ = ["DEGREE7_RULE", "subdivide4", "triangulate", "star_triangles", "signed_areas"]


def _orbit3(a: float, b: float):
    return [(a, b, b), (b, a, b), (b, b, a)]


def _orbit6(a: float, b: float, c: float):
    return [(a, b, c), (a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)]


# the 13-point rule exact to degree 7: barycentric points (13, 3) and
# weights (13,)
DEGREE7_RULE = (
    np.array(
        [(1 / 3, 1 / 3, 1 / 3)]
        + _orbit3(0.479308067841920, 0.260345966079040)
        + _orbit3(0.869739794195568, 0.065130102902216)
        + _orbit6(0.048690315425316, 0.312865496004874, 0.638444188569810),
        dtype=float,
    ),
    np.array(
        [-0.149570044467682]
        + [0.175615257433208] * 3
        + [0.053347235608838] * 3
        + [0.077113760890257] * 6,
        dtype=float,
    ),
)


def subdivide4(tris: np.ndarray) -> np.ndarray:
    """Split each triangle of an (M, 3, 2) stack into 4 at edge midpoints.

    Children keep the parent's orientation, so signed areas refine
    consistently.
    """
    a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
    ab, bc, ca = 0.5 * (a + b), 0.5 * (b + c), 0.5 * (c + a)
    return np.concatenate(
        [
            np.stack([a, ab, ca], axis=1),
            np.stack([ab, b, bc], axis=1),
            np.stack([ca, bc, c], axis=1),
            np.stack([ab, bc, ca], axis=1),
        ]
    )


def signed_areas(tris: np.ndarray) -> np.ndarray:
    a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
    return 0.5 * ((b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0]))


def star_triangles(poly: Polygon, x) -> np.ndarray:
    """Fan of triangles (x, v_i, v_{i+1}) over the whole loop, as (n, 3, 2).

    The signed-area sum telescopes to the polygon area for any simple
    loop, so integrating with signed weights reproduces region integrals
    even when the polygon is not star-shaped around x. Placing x at a
    corner of every cell keeps integrand kinks at cell corners.
    """
    c = poly.coords
    cn = np.roll(c, -1, axis=0)
    xs = np.broadcast_to(np.asarray(x, dtype=float).reshape(1, 2), c.shape)
    return np.stack([xs, c, cn], axis=1).astype(float)


def _ear_clip(coords: np.ndarray) -> np.ndarray:
    """Ear-clipping triangulation of a simple CCW polygon, O(n^2)."""
    idx = list(range(len(coords)))
    tris = []
    guard = 0
    while len(idx) > 3:
        guard += 1
        if guard > 4 * len(coords) * len(coords):
            raise RuntimeError("ear clipping failed to make progress")
        n = len(idx)
        clipped = False
        for k in range(n):
            i0, i1, i2 = idx[(k - 1) % n], idx[k], idx[(k + 1) % n]
            a, b, c = coords[i0], coords[i1], coords[i2]
            cross = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
            if cross <= 0.0:
                continue  # reflex or flat corner, not an ear
            ok = True
            for j in idx:
                if j in (i0, i1, i2):
                    continue
                p = coords[j]
                d1 = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
                d2 = (c[0] - b[0]) * (p[1] - b[1]) - (c[1] - b[1]) * (p[0] - b[0])
                d3 = (a[0] - c[0]) * (p[1] - c[1]) - (a[1] - c[1]) * (p[0] - c[0])
                if d1 >= 0.0 and d2 >= 0.0 and d3 >= 0.0:
                    ok = False
                    break
            if ok:
                tris.append((i0, i1, i2))
                del idx[k]
                clipped = True
                break
        if not clipped:
            raise RuntimeError("no ear found; polygon may be degenerate")
    tris.append(tuple(idx))
    return np.array([[coords[i], coords[j], coords[k]] for i, j, k in tris], dtype=float)


def triangulate(poly: Polygon) -> np.ndarray:
    """Partition the polygon into CCW triangles, (M, 3, 2).

    Convex polygons fan from vertex 0; non-convex ones are ear-clipped.
    """
    c = poly.coords
    if poly.is_convex:
        m = len(c) - 2
        a = np.broadcast_to(c[0], (m, 2))
        return np.stack([a, c[1:-1], c[2:]], axis=1).astype(float)
    return _ear_clip(c)

"""Gauss quadrature on Duffy-mapped star triangles, and fan triangulation.

A star triangle (x, a, b) is the image of the unit square under Duffy's
map P = x + s * (a + t * (b - a) - x), with dA = 2 A s ds dt for its
signed area A (Duffy, "Quadrature over a pyramid or cube of integrands
with a singularity at a vertex", SIAM J. Numer. Anal. 1982). A radial
integrand f(|P - x|) has its kink at s = 0, where the Jacobian cancels
it, so a tensor Gauss-Legendre rule in (s, t) converges fast.

Only ``star_rule`` runs in the package; the benchmark wraps the rest.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .geometry import Polygon

__all__ = ["STAR_RULE_DEGREE", "star_rule", "subdivide4", "triangulate", "star_triangles"]

# Gauss-Legendre nodes in u, with s = u**2: then s**(p + 1) ds is a
# polynomial in u for integer and half-integer p
RADIAL_NODES = 10
# Gauss-Legendre nodes per panel of t
PANEL_NODES = 32
# every polynomial in P of this degree is integrated exactly: it is a
# polynomial of degree 2 * degree + 3 in u, and of degree `degree` in t
STAR_RULE_DEGREE = RADIAL_NODES - 2


@lru_cache(maxsize=None)
def star_rule(panels: int):
    """Nodes s (S,) and t (T,) and weights w (S, T) of the tensor rule on
    the Duffy-mapped star triangle, with t split into ``panels`` equal
    panels.

    The weights sum to 1: integrating g over a star triangle (x, a, b) of
    signed area A is A * sum(w[i, j] * g(x + s[i] * (a + t[j] * (b - a) - x))).
    The arrays are shared between calls and read-only.
    """
    u, wu = np.polynomial.legendre.leggauss(RADIAL_NODES)
    u, wu = 0.5 * (u + 1.0), 0.5 * wu
    g, wg = np.polynomial.legendre.leggauss(PANEL_NODES)
    t = ((np.arange(panels)[:, None] + 0.5 * (g + 1.0)) / panels).ravel()
    wt = np.tile(0.5 * wg / panels, panels)
    # 2 s ds = 4 u**3 du
    s, w = u * u, np.outer(4.0 * u**3 * wu, wt)
    for arr in (s, t, w):
        arr.setflags(write=False)
    return s, t, w


def subdivide4(tris: np.ndarray) -> np.ndarray:
    """Split each triangle of an (M, 3, 2) stack into 4 at edge midpoints.

    Children keep the parent's orientation, so signed areas refine
    consistently. The package itself no longer subdivides; the
    benchmark's traced run still wraps this function by name.
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


def star_triangles(poly: Polygon, x) -> np.ndarray:
    """Fan of triangles (x, v_i, v_{i+1}) over the whole loop, as (n, 3, 2).

    The signed-area sum telescopes to the polygon area for any simple
    loop, so integrating with signed weights reproduces region integrals
    even when the polygon is not star-shaped around x. x is the apex of
    every triangle, the s = 0 end of ``star_rule``. The oracle takes the
    same differences straight from ``Polygon.coords`` and
    ``Polygon.edge_vectors``; the benchmark's traced run still wraps this
    function by name.
    """
    c = poly.coords
    cn = np.concatenate((c[1:], c[:1]))
    xs = np.broadcast_to(np.asarray(x, dtype=float).reshape(1, 2), c.shape)
    return np.stack([xs, c, cn], axis=1)


def triangulate(poly: Polygon) -> np.ndarray:
    """Fan of triangles (v_0, v_i, v_{i+1}), i = 1 .. n - 2, as (n - 2, 3, 2).
    Their signed areas add up to the area of any simple loop; some are
    negative where the loop is not star-shaped from v_0. The benchmark's
    traced run wraps this function by name."""
    c = poly.coords
    m = len(c) - 2
    a = np.broadcast_to(c[0], (m, 2))
    return np.stack([a, c[1:-1], c[2:]], axis=1)

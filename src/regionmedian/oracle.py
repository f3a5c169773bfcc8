"""Brute-force ground truth for region objectives.

Evaluates the area integral of kernel(P - x) over a polygon by one
degree-7 symmetric quadrature rule on a uniformly subdivided
triangulation, with a Monte Carlo cross-check and a derivative-free
minimizer. Slow and independent by design: nothing here shares code
paths with the boundary residual solver it certifies.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
from scipy.optimize import minimize

from .geometry import Point2, Polygon
from .kernels import RadialKernel
from .triquad import DEGREE7_RULE, signed_areas, star_triangles, subdivide4, triangulate

__all__ = ["OracleConfig", "OracleValue", "MCEstimate", "oracle_sigma", "oracle_minimize", "oracle_sigma_mc"]


@dataclass(frozen=True)
class OracleConfig:
    refine_depth: int = 5
    mc_samples: int = 1_000_000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.refine_depth < 1:
            raise ValueError("refine_depth must be >= 1")
        if self.mc_samples < 2:
            raise ValueError("mc_samples must be >= 2")


class OracleValue(float):
    """A float carrying the quadrature error estimate it was computed with."""

    error_estimate: float

    def __new__(cls, value: float, error_estimate: float):
        obj = super().__new__(cls, value)
        obj.error_estimate = float(error_estimate)
        return obj


class MCEstimate(NamedTuple):
    mean: float
    stderr: float


def _integrate_cells(tris: np.ndarray, x, kernel: RadialKernel) -> float:
    """Signed-area weighted quadrature sum over a stack of triangles."""
    bary, weights = DEGREE7_RULE
    areas = signed_areas(tris)
    pts = np.einsum("kj,mjc->mkc", bary, tris)
    vals = kernel.evaluate_many(pts[..., 0] - x[0], pts[..., 1] - x[1])
    return float(np.sum(areas * (vals @ weights)))


def _cells(poly: Polygon, x, depth: int) -> np.ndarray:
    """Base triangles of the polygon for query point x, each split into
    4**depth cells by ``subdivide4``."""
    # a kink of |P - x| at an interior x ruins polynomial convergence if
    # it lands inside a cell; starring the polygon from x pins it to cell
    # corners, where symmetric rules behave best
    tris = star_triangles(poly, x) if poly.contains(x, strict=True) else triangulate(poly)
    for _ in range(depth):
        tris = subdivide4(tris)
    return tris


def _probe(poly: Polygon, x, kernel: RadialKernel, depth: int) -> float:
    """The value of ``oracle_sigma`` at refine_depth ``depth``, without
    the coarser level that only its error estimate reads."""
    return _integrate_cells(_cells(poly, x, depth), x, kernel)


def oracle_sigma(
    poly: Polygon,
    x: Point2,
    kernel: Optional[RadialKernel] = None,
    cfg: Optional[OracleConfig] = None,
) -> OracleValue:
    """Area integral of kernel(P - x) over the polygon.

    Returns the value at the configured refinement depth as an
    ``OracleValue``; its ``error_estimate`` attribute is the absolute
    difference against the next-coarser depth (Richardson style, a
    conservative bound in practice).
    """
    kernel = kernel or RadialKernel.euclidean()
    cfg = cfg or OracleConfig()
    xv = (x.x, x.y) if isinstance(x, Point2) else (float(x[0]), float(x[1]))
    tris = _cells(poly, xv, cfg.refine_depth - 1)
    coarse = _integrate_cells(tris, xv, kernel)
    fine = _integrate_cells(subdivide4(tris), xv, kernel)
    return OracleValue(fine, abs(fine - coarse))


def _brute_force_minimize(objective, start: np.ndarray, diam: float, options: dict) -> Point2:
    """Nelder-Mead from ``start`` with the given options, then three local
    grid passes (11 by 11, half-width 1e-3 * diam shrinking by 10 each
    pass) around the incumbent best. Fully deterministic.
    """
    res = minimize(objective, start, method="Nelder-Mead", options=options)
    best = np.asarray(res.x, dtype=float)
    fbest = float(res.fun)
    half_width = 1e-3 * diam
    for _ in range(3):
        offsets = np.linspace(-half_width, half_width, 11)
        gx, gy = np.meshgrid(best[0] + offsets, best[1] + offsets)
        candidates = np.stack([gx.ravel(), gy.ravel()], axis=1)
        for cand in candidates:
            f = objective(cand)
            if f < fbest:
                best, fbest = cand.copy(), f
        half_width /= 10.0
    return Point2(float(best[0]), float(best[1]))


def oracle_minimize(
    poly: Polygon,
    kernel: Optional[RadialKernel] = None,
    cfg: Optional[OracleConfig] = None,
) -> Point2:
    """Brute-force minimizer of the area objective.

    Nelder-Mead from the area centroid, then shrinking grid passes (see
    ``_brute_force_minimize``).
    """
    kernel = kernel or RadialKernel.euclidean()
    cfg = cfg or OracleConfig()
    diam = poly.diameter

    def objective(p) -> float:
        return _probe(poly, (float(p[0]), float(p[1])), kernel, cfg.refine_depth)

    c = poly.centroid
    start = np.array([c.x, c.y])
    f0 = objective(start)
    options = {
        "xatol": 1e-10 * diam,
        "fatol": 1e-14 * (1.0 + abs(f0)),
        "maxiter": 800,
        "maxfev": 1200,
    }
    return _brute_force_minimize(objective, start, diam, options)


def oracle_sigma_mc(
    poly: Polygon,
    x: Point2,
    kernel: Optional[RadialKernel] = None,
    cfg: Optional[OracleConfig] = None,
) -> MCEstimate:
    """Monte Carlo estimate of the area integral, with its standard error.

    Samples points uniformly in the region by triangle-area-weighted
    direct sampling (no rejection), using a seeded generator for full
    reproducibility.
    """
    kernel = kernel or RadialKernel.euclidean()
    cfg = cfg or OracleConfig()
    xv = (x.x, x.y) if isinstance(x, Point2) else (float(x[0]), float(x[1]))
    tris = triangulate(poly)
    areas = signed_areas(tris)
    total = float(areas.sum())
    rng = np.random.default_rng(cfg.seed)
    n = cfg.mc_samples
    which = rng.choice(len(tris), size=n, p=areas / total)
    u = rng.random(n)
    v = rng.random(n)
    flip = u + v > 1.0
    u[flip] = 1.0 - u[flip]
    v[flip] = 1.0 - v[flip]
    a, b, c = tris[which, 0], tris[which, 1], tris[which, 2]
    px = a[:, 0] + u * (b[:, 0] - a[:, 0]) + v * (c[:, 0] - a[:, 0])
    py = a[:, 1] + u * (b[:, 1] - a[:, 1]) + v * (c[:, 1] - a[:, 1])
    vals = kernel.evaluate_many(px - xv[0], py - xv[1])
    mean = total * float(vals.mean())
    stderr = total * float(vals.std(ddof=1)) / math.sqrt(n)
    return MCEstimate(mean=mean, stderr=stderr)

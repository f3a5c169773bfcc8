"""Brute-force ground truth for region objectives.

Evaluates the area integral of kernel(P - x) over a polygon with one
rule for every query point x: a tensor Gauss rule on the Duffy-mapped
signed star triangles from x (``triquad.star_rule``). Adds a Monte Carlo
cross-check and a derivative-free minimizer. Independent by design: the
rule evaluates the kernel at real area nodes, and nothing here shares
code paths with the boundary residual solver it certifies.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .geometry import Point2, Polygon
from .kernels import RadialKernel
from .triquad import signed_areas, star_rule, triangulate

__all__ = ["OracleConfig", "OracleValue", "MCEstimate", "oracle_sigma", "oracle_minimize", "oracle_sigma_mc"]

# t-panels of the rule; the error estimate compares against twice as many
_PANELS = 4


@dataclass(frozen=True)
class OracleConfig:
    mc_samples: int = 1_000_000
    seed: int = 0

    def __post_init__(self) -> None:
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


def _star_integral(poly: Polygon, x, kernel: RadialKernel, panels: int = _PANELS) -> float:
    """Area integral of kernel(P - x) by ``star_rule(panels)`` over the
    signed star triangles (x, a_i, a_i+1); valid for x inside, on the
    boundary of or outside any simple polygon."""
    s, t, w = star_rule(panels)
    q = poly.coords - np.asarray(x, dtype=float)  # a_i - x
    e = poly.edge_vectors  # a_i+1 - a_i
    qn = np.roll(q, -1, axis=0)
    areas = 0.5 * (q[:, 0] * qn[:, 1] - q[:, 1] * qn[:, 0])
    # P - x = s * (q + t * e), as (n, S, T) components
    dx = s[:, None] * (q[:, 0, None] + t * e[:, 0, None])[:, None, :]
    dy = s[:, None] * (q[:, 1, None] + t * e[:, 1, None])[:, None, :]
    vals = kernel.evaluate_many(dx, dy).reshape(len(q), -1)
    return float(areas @ (vals @ w.ravel()))


def oracle_sigma(poly: Polygon, x: Point2, kernel: Optional[RadialKernel] = None) -> OracleValue:
    """Area integral of kernel(P - x) over the polygon.

    Returns the value of the star rule as an ``OracleValue``; its
    ``error_estimate`` attribute is the absolute difference against the
    same rule with twice the t-panels.
    """
    kernel = kernel or RadialKernel.euclidean()
    xv = (x.x, x.y) if isinstance(x, Point2) else (float(x[0]), float(x[1]))
    value = _star_integral(poly, xv, kernel)
    finer = _star_integral(poly, xv, kernel, 2 * _PANELS)
    return OracleValue(value, abs(value - finer))


def _brute_force_minimize(objective, start: np.ndarray, diam: float, options: dict) -> Point2:
    """Nelder-Mead from ``start`` with the given options, then three local
    grid passes (11 by 11, half-width 1e-3 * diam shrinking by 10 each
    pass) around the incumbent best. Fully deterministic.
    """
    # imported here rather than with the package: scipy.optimize loads
    # some 300 scipy modules, and only the oracle's minimizers use it
    from scipy.optimize import minimize

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


def oracle_minimize(poly: Polygon, kernel: Optional[RadialKernel] = None) -> Point2:
    """Brute-force minimizer of the area objective.

    Nelder-Mead from the area centroid, then shrinking grid passes (see
    ``_brute_force_minimize``).
    """
    kernel = kernel or RadialKernel.euclidean()
    diam = poly.diameter

    def objective(p) -> float:
        return _star_integral(poly, (float(p[0]), float(p[1])), kernel)

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

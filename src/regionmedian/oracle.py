"""Brute-force ground truth for region objectives.

Evaluates the area integral of kernel(P - x) over a polygon with one
rule for every query point x: a tensor Gauss rule on the Duffy-mapped
signed star triangles from x (``triquad.star_rule``), summed in closed
form along the radial direction for the homogeneous Euclidean and power
kernels. Adds a Monte Carlo cross-check and a derivative-free minimizer
(Nelder-Mead). Independent by design: nothing here shares code paths
with the boundary residual solver it certifies, and the Monte Carlo
estimate samples the area itself.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from .errors import SingularRegionError
from .geometry import Point2, Polygon
from .kernels import KernelKind, RadialKernel
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


@lru_cache(maxsize=None)
def _radial_weights(panels: int, p: float) -> np.ndarray:
    """Weights (T,) of ``star_rule(panels)`` summed over its radial
    nodes for a kernel homogeneous of degree p: sum_k w[k, j] * s[k]**p."""
    s, _, w = star_rule(panels)
    c = s**p @ w
    c.setflags(write=False)
    return c


def _star_integral(poly: Polygon, x, kernel: RadialKernel, panels: int = _PANELS) -> float:
    """Area integral of kernel(P - x) by ``star_rule(panels)`` over the
    signed star triangles (x, a_i, a_i+1); valid for x inside, on the
    boundary of or outside any simple polygon.

    The Euclidean and power kernels are homogeneous, k(s * b) = s**p * k(b),
    so the rule evaluates them once per boundary node b = a_i + t * e_i - x
    and weights each by its radial sum (Chin, Lasserre & Sukumar, Comput.
    Mech. 2015). A custom kernel is evaluated at every node of the rule.
    """
    s, t, w = star_rule(panels)
    q = poly.coords - np.asarray(x, dtype=float)  # a_i - x
    e = poly.edge_vectors  # a_i+1 - a_i
    qn = np.concatenate((q[1:], q[:1]))
    areas = 0.5 * (q[:, 0] * qn[:, 1] - q[:, 1] * qn[:, 0])
    # boundary nodes b = q + t * e, as (n, 2, T); P - x = s * b
    b = q[:, :, None] + t * e[:, :, None]
    if kernel.kind is KernelKind.CUSTOM:
        # (n, S, T) components
        vals = kernel.evaluate_many(s[:, None] * b[:, 0, None, :], s[:, None] * b[:, 1, None, :])
        return float(areas @ (vals.reshape(len(q), -1) @ w.ravel()))
    p = 1.0 if kernel.kind is KernelKind.EUCLIDEAN else kernel.p
    return float(areas @ (kernel.evaluate_many(b[:, 0], b[:, 1]) @ _radial_weights(panels, p)))


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


class _BudgetSpent(Exception):
    """The objective-evaluation budget ran out."""


def _brute_force_minimize(objective, start: np.ndarray, options: dict) -> Point2:
    """Nelder-Mead (Nelder & Mead, Comput. J. 1965) from ``start``; fully
    deterministic.

    ``options`` holds ``xatol``, ``fatol``, ``maxiter`` and ``maxfev``.
    The loop is scipy's ``_minimize_neldermead`` without bounds, adaptive
    coefficients or a given first simplex, step for step in the same
    numpy arithmetic, so it returns the bits ``scipy.optimize.minimize``
    would after the same objective evaluations (``tests/test_oracle.py``
    pins this).
    """
    xatol, fatol = options["xatol"], options["fatol"]
    maxiter, maxfev = options["maxiter"], options["maxfev"]
    x0 = np.array(start, dtype=float).ravel()
    n = len(x0)
    # the first simplex: each coordinate in turn times 1.05, or 0.00025 if it is 0
    sim = np.empty((n + 1, n))
    sim[0] = x0
    for k in range(n):
        y = x0.copy()
        y[k] = 1.05 * y[k] if y[k] != 0 else 0.00025
        sim[k + 1] = y
    fsim = np.full(n + 1, np.inf)
    fcalls = 0

    def f(x):
        # an evaluation past the budget ends the current step where it stands
        nonlocal fcalls
        if fcalls >= maxfev:
            raise _BudgetSpent
        fcalls += 1
        return objective(x)

    def ordered(sim, fsim):
        ind = np.argsort(fsim)
        return np.take(sim, ind, 0), np.take(fsim, ind, 0)

    try:
        for k in range(n + 1):
            fsim[k] = f(sim[k])
    except _BudgetSpent:
        pass
    # sorted twice, as scipy does: the second sort may reorder ties
    sim, fsim = ordered(*ordered(sim, fsim))
    # coefficients: reflection 1, expansion 2, contraction 1/2, shrink 1/2
    iterations = 1
    while fcalls < maxfev and iterations < maxiter:
        try:
            if np.max(np.abs(sim[1:] - sim[0])) <= xatol and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol:
                break
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = 2 * xbar - sim[-1]
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = 3 * xbar - 2 * sim[-1]
                fxe = f(xe)
                if fxe < fxr:
                    sim[-1], fsim[-1] = xe, fxe
                else:
                    sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                # contract outside the worst vertex if the reflection beat it, else inside
                if fxr < fsim[-1]:
                    xc = 1.5 * xbar - 0.5 * sim[-1]
                    fxc = f(xc)
                    accept = fxc <= fxr
                else:
                    xc = 0.5 * xbar + 0.5 * sim[-1]
                    fxc = f(xc)
                    accept = fxc < fsim[-1]
                if accept:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                        fsim[j] = f(sim[j])
            iterations += 1
        except _BudgetSpent:
            pass
        sim, fsim = ordered(sim, fsim)
    return Point2(float(sim[0, 0]), float(sim[0, 1]))


def oracle_minimize(poly: Polygon, kernel: Optional[RadialKernel] = None) -> Point2:
    """Brute-force minimizer of the area objective: Nelder-Mead from the
    area centroid, stopping once its simplex is within 1e-10 of the
    diameter and its values agree to 1e-14 relative.

    Raises ``SingularRegionError`` when the objective at the centroid is
    below the smallest normal float: on regions that small the objective
    has lost its digits and its minimizer would be noise. Lifting this
    limit needs a scale-free frame for the oracle and for
    ``Polygon.centroid``.
    """
    kernel = kernel or RadialKernel.euclidean()
    diam = poly.diameter

    def objective(p) -> float:
        return _star_integral(poly, (float(p[0]), float(p[1])), kernel)

    c = poly.centroid
    start = np.array([c.x, c.y])
    f0 = objective(start)
    if abs(f0) < sys.float_info.min:
        raise SingularRegionError(f"the oracle's objective underflows on this region: {f0!r} at the area centroid")
    options = {
        "xatol": 1e-10 * diam,
        "fatol": 1e-14 * (1.0 + abs(f0)),
        "maxiter": 800,
        "maxfev": 1200,
    }
    return _brute_force_minimize(objective, start, options)


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

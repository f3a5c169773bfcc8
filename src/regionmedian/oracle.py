"""Brute-force ground truth for region and point-set objectives.

Evaluates the area integral of kernel(P - x) over a polygon with one
rule for every query point x: a tensor Gauss rule on the Duffy-mapped
signed star triangles from x (``triquad.star_rule``), summed in closed
form along the radial direction for the power kernels, which are
homogeneous (the Euclidean kernel is p = 1); a custom kernel
(``kernel.p`` None) takes the full tensor rule. Adds two minimizers.
Regions are a ``Polygon`` or a vertex loop, as for the solvers. For
power kernels with p >= 1 the region minimizer is the root of the
star-rule gradient, found by a short Newton loop on a central-difference
Jacobian: within 1e-12 of the diameter of the solver's median on
acceptance criterion 04's regions, in about a sixth of the time of
Nelder-Mead on the value, which stopped up to 7e-9 of the diameter away.
Custom kernels, p < 1 and point sets take one derivative-free minimizer
(Nelder-Mead). Independent by design: nothing here shares code paths
with the solvers it certifies, and no edge integral of ``kernels`` is
used. The tests check the rule by the divergence theorem: the integral
of |y|**p is (2 / (p + 2)) sum_i A_i m_i, m_i the mean of |y|**p on edge
i and A_i the signed area of (x, a_i, a_i+1).
"""
from __future__ import annotations

import math
import sys
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import NonConvergenceError, SingularRegionError
from .geometry import Point2, Polygon, _frame_origin, _point_xy, as_polygon
from .kernels import RadialKernel
from .triquad import star_rule

__all__ = ["OracleValue", "oracle_sigma", "oracle_minimize", "oracle_minimize_points"]

# t-panels of the rule; the error estimate compares against twice as many
_PANELS = 4

# Newton on the star-rule gradient: the central-difference step and the
# stop, both in diameters, the iteration budget, and the relative
# determinant below which a Jacobian counts as singular
_FD_STEP = 1e-6
_STEP_TOL = 1e-9
_NEWTON_BUDGET = 20
_SINGULAR_DET = 1e-12

# most boundary nodes per temporary of one gradient pass, which takes the
# edges in blocks: a 2048-vertex region then peaks at the memory the value
# rule's pass takes
_BLOCK_NODES = 2 ** 16


class OracleValue(float):
    """A float carrying the quadrature error estimate it was computed with."""

    error_estimate: float

    def __new__(cls, value: float, error_estimate: float):
        obj = super().__new__(cls, value)
        obj.error_estimate = float(error_estimate)
        return obj


@lru_cache(maxsize=None)
def _radial_weights(panels: int, p: float) -> np.ndarray:
    """Weights (T,) of ``star_rule(panels)`` summed over its radial
    nodes for a kernel homogeneous of degree p: sum_k w[k, j] * s[k]**p."""
    s, _, w = star_rule(panels)
    c = s**p @ w
    c.setflags(write=False)
    return c


def _star_objective(poly: Polygon, kernel: RadialKernel, panels: int = _PANELS):
    """``integral(x)``: the area integral of kernel(P - x) by
    ``star_rule(panels)`` over the signed star triangles (x, a_i, a_i+1),
    for x inside, on the boundary of or outside any simple polygon.

    The boundary is laid out once: per edge i, the x and y of vertex i and
    of vertex i + 1, and t_j * e_i per component, e_i the edge vector.
    Each call forms q = a_i - x, the signed areas and the boundary nodes
    b = q + t * e_i. Power kernels, the Euclidean one among them, are
    homogeneous, k(s * b) = s**p * k(b), so the rule evaluates them once
    per boundary node, weighted by its radial sum ``_radial_weights``
    (Chin, Lasserre & Sukumar, Comput. Mech. 2015). A custom kernel
    (``kernel.p`` None) is evaluated at every node s * b of the rule.
    """
    s, t, w = star_rule(panels)
    a, e = poly.coords, poly.edge_vectors
    ax, ay = a[:, 0].copy(), a[:, 1].copy()
    bx, by = np.concatenate((ax[1:], ax[:1])), np.concatenate((ay[1:], ay[:1]))
    tex, tey = t * e[:, 0, None], t * e[:, 1, None]
    custom = kernel.p is None
    weights = w.ravel() if custom else _radial_weights(panels, kernel.p)

    def integral(x) -> float:
        qx, qy = ax - x[0], ay - x[1]
        qnx, qny = bx - x[0], by - x[1]
        areas = 0.5 * (qx * qny - qy * qnx)
        nx, ny = qx[:, None] + tex, qy[:, None] + tey
        if custom:
            # (n, S, T) components
            nx, ny = s[:, None] * nx[:, None, :], s[:, None] * ny[:, None, :]
        return float(areas @ (kernel.evaluate_many(nx, ny).reshape(len(qx), -1) @ weights))

    return integral


def oracle_sigma(poly, x: Point2, kernel: Optional[RadialKernel] = None) -> OracleValue:
    """Area integral of kernel(P - x) over the polygon.

    Returns the value of the star rule as an ``OracleValue``; its
    ``error_estimate`` attribute is the absolute difference against the
    same rule with twice the t-panels.
    """
    poly, kernel = as_polygon(poly), kernel or RadialKernel.euclidean()
    xv = _point_xy(x)
    value = _star_objective(poly, kernel)(xv)
    finer = _star_objective(poly, kernel, 2 * _PANELS)(xv)
    return OracleValue(value, abs(value - finer))


class _BudgetSpent(Exception):
    """The objective-evaluation budget ran out."""


def _ordered(sim: list, fsim: list) -> tuple:
    """The vertices and values by value, as numpy's argsort orders three:
    stably, with NaN last."""
    order = sorted(range(3), key=lambda k: (fsim[k] != fsim[k], fsim[k]))
    return [sim[k] for k in order], [fsim[k] for k in order]


def _brute_force_minimize(objective, start, options: dict) -> Point2:
    """Nelder-Mead (Nelder & Mead, Comput. J. 1965) in the plane from
    ``start``; fully deterministic. ``objective`` receives each point as a
    tuple (x, y) of floats.

    ``options`` holds ``xatol``, ``fatol``, ``maxiter`` and ``maxfev``.
    The loop is scipy's ``_minimize_neldermead`` in two variables without
    bounds, adaptive coefficients or a given first simplex, on Python
    floats: every step is the float expression scipy's numpy step rounds
    to, the vertices are ordered as its argsort orders them, and a NaN
    fails the stop test as it fails ``np.max``. So it returns the bits
    ``scipy.optimize.minimize`` would after the same objective evaluations
    (``tests/test_oracle.py`` pins this).
    """
    xatol, fatol = options["xatol"], options["fatol"]
    maxiter, maxfev = options["maxiter"], options["maxfev"]
    x0, y0 = (float(v) for v in start)
    # the first simplex: each coordinate in turn times 1.05, or 0.00025 if it is 0
    sim = [(x0, y0), (1.05 * x0 if x0 != 0 else 0.00025, y0), (x0, 1.05 * y0 if y0 != 0 else 0.00025)]
    fsim = [math.inf] * 3
    fcalls = 0

    def f(p):
        # an evaluation past the budget ends the current step where it stands
        nonlocal fcalls
        if fcalls >= maxfev:
            raise _BudgetSpent
        fcalls += 1
        return float(objective(p))

    try:
        for k in range(3):
            fsim[k] = f(sim[k])
    except _BudgetSpent:
        pass
    # scipy sorts twice here; a stable sort leaves the second a no-op
    sim, fsim = _ordered(sim, fsim)
    # coefficients: reflection 1, expansion 2, contraction 1/2, shrink 1/2
    iterations = 1
    while fcalls < maxfev and iterations < maxiter:
        try:
            (ax, ay), (bx, by), (cx, cy) = sim
            # each difference within its tolerance: false on a NaN, as np.max is
            if (abs(bx - ax) <= xatol and abs(by - ay) <= xatol and abs(cx - ax) <= xatol
                    and abs(cy - ay) <= xatol and abs(fsim[0] - fsim[1]) <= fatol
                    and abs(fsim[0] - fsim[2]) <= fatol):
                break
            xbar, ybar = (ax + bx) / 2, (ay + by) / 2
            xr = (2 * xbar - cx, 2 * ybar - cy)
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = (3 * xbar - 2 * cx, 3 * ybar - 2 * cy)
                fxe = f(xe)
                if fxe < fxr:
                    sim[2], fsim[2] = xe, fxe
                else:
                    sim[2], fsim[2] = xr, fxr
            elif fxr < fsim[1]:
                sim[2], fsim[2] = xr, fxr
            else:
                # contract outside the worst vertex if the reflection beat it, else inside
                if fxr < fsim[2]:
                    xc = (1.5 * xbar - 0.5 * cx, 1.5 * ybar - 0.5 * cy)
                    fxc = f(xc)
                    accept = fxc <= fxr
                else:
                    xc = (0.5 * xbar + 0.5 * cx, 0.5 * ybar + 0.5 * cy)
                    fxc = f(xc)
                    accept = fxc < fsim[2]
                if accept:
                    sim[2], fsim[2] = xc, fxc
                else:
                    for j in (1, 2):
                        sx, sy = sim[j]
                        sim[j] = (ax + 0.5 * (sx - ax), ay + 0.5 * (sy - ay))
                        fsim[j] = f(sim[j])
            iterations += 1
        except _BudgetSpent:
            pass
        sim, fsim = _ordered(sim, fsim)
    return Point2(*sim[0])


def _value_problem(frame: Polygon, kernel: RadialKernel) -> tuple:
    """(objective, start, options) of Nelder-Mead on a region in its solve
    frame: the star-rule value ``_star_objective``, the area centroid, and
    a stop once the simplex is within 1e-10 of the diameter and its values
    agree to 1e-14 relative.

    Raises ``SingularRegionError`` when the objective at the centroid is
    below the smallest normal float: on regions that small the objective
    has lost its digits and its minimizer would be noise.
    """
    objective = _star_objective(frame, kernel)
    c = frame.centroid
    start = (c.x, c.y)
    f0 = objective(start)
    if abs(f0) < sys.float_info.min:
        raise SingularRegionError(f"the oracle's objective underflows on this region: {f0!r} at the area centroid")
    options = {
        "xatol": 1e-10 * frame.diameter,
        "fatol": 1e-14 * (1.0 + abs(f0)),
        "maxiter": 800,
        "maxfev": 1200,
    }
    return objective, start, options


def _star_gradient(poly: Polygon, p: float):
    """``gradients(points)``: the gradient in x of the area integral of
    |P - x|**p, p >= 1, at each row x of ``points`` (m, 2), as (m, 2).

    In the star triangle (x, a_i, a_i+1) of signed area A_i, P - x =
    s * b_i(t) with b_i(t) = a_i + t * e_i - x, so the radial integral is
    exact and the gradient is -(2p / (p + 1)) sum_i A_i * integral of
    |b_i|**(p - 2) * b_i dt. The t-integral takes the nodes of
    ``star_rule(2 * _PANELS)``, the rule of ``oracle_sigma``'s error
    estimate, weighted by its radial sum for the integrand s**(p - 1)
    (``_radial_weights``): the star rule applied to the gradient of the
    kernel. |b|**2 is floored at the smallest normal float, so a point on
    a boundary node has a finite gradient. The edges are taken in blocks of
    at most ``_BLOCK_NODES`` nodes per temporary.
    """
    _, t, _ = star_rule(2 * _PANELS)
    weights = _radial_weights(2 * _PANELS, p - 1.0)
    a, e = poly.coords, poly.edge_vectors
    an = np.concatenate((a[1:], a[:1]))

    def gradients(points) -> np.ndarray:
        x = np.asarray(points, dtype=float)[:, None, :]  # (m, 1, 2)
        q, qn = a - x, an - x  # (m, n, 2)
        areas = 0.5 * (q[..., 0] * qn[..., 1] - q[..., 1] * qn[..., 0])
        gx, gy = np.empty_like(areas), np.empty_like(areas)
        block = max(1, _BLOCK_NODES // (len(x) * len(t)))
        for lo in range(0, len(a), block):
            s = slice(lo, lo + block)
            # the boundary nodes b (m, B, T) per component, times |b|**(p - 2)
            bx = q[:, s, 0, None] + t * e[s, 0, None]
            by = q[:, s, 1, None] + t * e[s, 1, None]
            f = bx * bx
            f += by * by
            np.power(np.maximum(f, sys.float_info.min, out=f), 0.5 * p - 1.0, out=f)
            bx *= f
            by *= f
            gx[:, s], gy[:, s] = bx @ weights, by @ weights
        return -p * np.stack(((areas * gx).sum(axis=1), (areas * gy).sum(axis=1)), axis=1)

    return gradients


def _gradient_root(frame: Polygon, p: float, start) -> Point2:
    """The root of ``_star_gradient`` by Newton's method from ``start``.

    Each iterate takes one gradient pass over five points, x and x +- h
    along each axis with h = ``_FD_STEP`` times the diameter: the gradient
    at x and a central-difference Jacobian. The loop stops after a step
    within ``_STEP_TOL`` of the diameter. A singular or non-finite
    Jacobian, a non-finite step or ``_NEWTON_BUDGET`` iterations without
    that stop raise ``NonConvergenceError``.
    """
    gradients = _star_gradient(frame, p)
    diam = frame.diameter
    h = _FD_STEP * diam
    x, y = start
    for _ in range(_NEWTON_BUDGET):
        (xp, xm), (yp, ym) = (x + h, x - h), (y + h, y - h)
        # an overflow shows as a non-finite Jacobian or step below
        with np.errstate(over="ignore", invalid="ignore"):
            (gx, gy), g1, g2, g3, g4 = gradients(np.array([(x, y), (xp, y), (xm, y), (x, yp), (x, ym)])).tolist()
        # columns: the derivatives along x and along y, over the steps as rounded
        hx, hy = xp - xm, yp - ym
        a, c = (g1[0] - g2[0]) / hx, (g1[1] - g2[1]) / hx
        b, d = (g3[0] - g4[0]) / hy, (g3[1] - g4[1]) / hy
        s = max(abs(a), abs(b), abs(c), abs(d))
        regular = s > 0.0 and all(map(math.isfinite, (a, b, c, d)))
        if regular:
            # scaled to the largest entry, so that the determinant of a
            # region far below unit size does not underflow
            a, b, c, d, gx, gy = a / s, b / s, c / s, d / s, gx / s, gy / s
            det = a * d - b * c
            regular = abs(det) > _SINGULAR_DET * (abs(a * d) + abs(b * c))
        if not regular:
            raise NonConvergenceError(f"the oracle's Jacobian is singular or not finite at ({x!r}, {y!r})")
        dx, dy = (b * gy - d * gx) / det, (c * gx - a * gy) / det
        if not (math.isfinite(dx) and math.isfinite(dy)):
            raise NonConvergenceError(f"the oracle's Newton step is not finite at ({x!r}, {y!r})")
        x, y = x + dx, y + dy
        if math.hypot(dx, dy) <= _STEP_TOL * diam:
            return Point2(x, y)
    raise NonConvergenceError(f"the oracle's Newton loop did not converge in {_NEWTON_BUDGET} iterations")


def oracle_minimize(poly, kernel: Optional[RadialKernel] = None) -> Point2:
    """Brute-force minimizer of the area objective, from the area centroid.

    For power kernels with p >= 1 (the Euclidean kernel among them) it is
    the root of the star-rule gradient (``_star_gradient``, 8 t-panels)
    found by Newton's method (``_gradient_root``): within 1e-12 of the
    diameter of the median on acceptance criterion 04's regions, where
    Nelder-Mead on the value stopped up to 7e-9 of the diameter away. A
    custom kernel or p < 1, where the objective need not be convex and a
    root of its gradient need not be its minimum, takes Nelder-Mead on the
    star-rule value (``_value_problem``).

    It runs in the polygon's solve frame (``Polygon._local_frame``), a
    translation only, so a region far from the origin keeps its float
    resolution; the frame's origin is added back to the result once.

    Raises ``SingularRegionError`` when the objective at the centroid is
    below the smallest normal float (lifting this limit needs a
    scale-free frame for the oracle and for ``Polygon.centroid``), and
    ``NonConvergenceError`` when the Newton loop fails.
    """
    poly, kernel = as_polygon(poly), kernel or RadialKernel.euclidean()
    frame, ox, oy = poly._local_frame()
    objective, start, options = _value_problem(frame, kernel)
    if kernel.p is not None and kernel.p >= 1.0:
        m = _gradient_root(frame, kernel.p, start)
    else:
        m = _brute_force_minimize(objective, start, options)
    return m if frame is poly else Point2(m.x + ox, m.y + oy)


def oracle_minimize_points(ps) -> Point2:
    """Brute-force minimizer of the point-set objective sum w_i |p_i - x|:
    Nelder-Mead from the weighted centroid, stopping once its simplex is
    within 1e-12 of the set's diameter and its values agree to 1e-15 of
    the value at the start, in the frame ``weiszfeld`` solves in
    (``geometry._frame_origin``). A set of one repeated point is its own
    minimizer."""
    pts, w = ps.coords, ps.weights
    diam = ps.diameter
    if diam == 0.0:
        return Point2(float(pts[0, 0]), float(pts[0, 1]))
    ox, oy = _frame_origin(pts, diam)
    pts = pts - (ox, oy)

    def objective(v):
        return float(np.sum(w * np.hypot(pts[:, 0] - v[0], pts[:, 1] - v[1])))

    total = float(w.sum())
    start = np.array([np.sum(w * pts[:, 0]) / total, np.sum(w * pts[:, 1]) / total])
    options = {"xatol": 1e-12 * diam, "fatol": 1e-15 * objective(start), "maxiter": 2000, "maxfev": 3000}
    m = _brute_force_minimize(objective, start, options)
    return Point2(m.x + ox, m.y + oy)

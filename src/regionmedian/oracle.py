"""Brute-force ground truth for region and point-set objectives.

Evaluates the area integral of kernel(P - x) over a polygon with one
rule for every query point x: a tensor Gauss rule on the Duffy-mapped
signed star triangles from x (``triquad.star_rule``), summed in closed
form along the radial direction for the power kernels, which are
homogeneous (the Euclidean kernel is p = 1); a custom kernel
(``kernel.p`` None) takes the full tensor rule. Regions are a ``Polygon``
or a vertex loop, as for the solvers. Both minimizers find the root of
the objective's gradient with one Newton loop (``_gradient_root``). For a
power kernel the gradient is the star rule applied to the kernel's
gradient, and one pass over the boundary nodes gives it with the rule's
exact Jacobian. A custom kernel takes central differences of the value
rule, and a point set the fsum of its unit vectors, with the exact
vertex test at the nearest data point; both difference their Jacobian
from five gradients.
Independent by design: nothing here shares code paths with the solvers
it certifies, and no edge integral of ``kernels`` is used. The tests
check the rule by the divergence theorem: the integral of |y|**p is
(2 / (p + 2)) sum_i A_i m_i, m_i the mean of |y|**p on edge i and A_i
the signed area of (x, a_i, a_i+1).
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

# Newton on the gradient: the central-difference step of a differenced
# Jacobian and the stop, both in diameters, the iteration budget, and the
# relative determinant below which a Jacobian counts as singular
_FD_STEP = 1e-6
_STEP_TOL = 1e-9
_NEWTON_BUDGET = 20
_SINGULAR_DET = 1e-12

# the central-difference step of a custom kernel's gradient, in diameters
_VALUE_STEP = 1e-5

# halvings of a point set's step that overshoots: 2**-30 of a diameter is
# below the Newton stop
_BISECTIONS = 30

# most boundary nodes per temporary of one gradient pass, which takes the
# edges in blocks, so its memory does not grow with the vertex count
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


def _star_gradient(poly: Polygon, p: float):
    """``newton(x, y)``: the gradient in x of the area integral of
    |P - x|**p, p > 0, at (x, y) and its exact Jacobian, from one pass
    over the boundary nodes, as ((gx, gy), ((a, b), (c, d))).

    In the star triangle (x, a_i, a_i+1) of signed area A_i, P - x =
    s * b_i(t) with b_i(t) = a_i + t * e_i - x, so the radial integral is
    exact and the gradient is g = -p sum_i A_i G_i, with
    G_i = sum_j w_j |b_ij|**(p - 2) * b_ij over the nodes of
    ``star_rule(2 * _PANELS)``, the rule of ``oracle_sigma``'s error
    estimate, weighted by its radial sum for the integrand s**(p - 1)
    (``_radial_weights``): the star rule applied to the gradient of the
    kernel. A_i is linear in x with gradient (-e_i,y, e_i,x) / 2, and each
    node moves by -1 with x, so the Jacobian of the rule is exact (Griewank
    & Walther, Evaluating Derivatives, SIAM 2008):
    J = -p sum_i [G_i grad(A_i)^T
                  - A_i sum_j w_j |b_ij|**(p - 2) (I + (p - 2) u_ij u_ij^T)],
    u = b / |b|. Per edge the pass forms six node sums: G_x, G_y,
    sum w |b|**(p - 2) and the three entries of the u u^T term. |b|**2 is
    floored at the smallest normal float, and the u u^T term is formed as
    (|b|**(p - 2) * b) * (b / |b|**2) on the floored |b|**2, so a point on
    a boundary node has a finite gradient and Jacobian. The edges are
    taken in blocks of at most ``_BLOCK_NODES`` nodes per temporary.
    """
    _, t, _ = star_rule(2 * _PANELS)
    weights = _radial_weights(2 * _PANELS, p - 1.0)
    a, e = poly.coords, poly.edge_vectors
    n = len(a)
    # per component and edge, (a_i - x, e_i): times the rows (1, t_j), the
    # boundary nodes b
    layout, basis = np.empty((2, n, 2)), np.stack((np.ones_like(t), t))
    layout[:, :, 1] = e.T
    qx, qy = layout[0, :, 0], layout[1, :, 0]
    # per edge, the weights of its six node sums in the gradient and the
    # Jacobian: the signed area, set at each pass, and its gradient
    area_grads = np.empty((n, 3))
    area_grads[:, 1], area_grads[:, 2] = -0.5 * e[:, 1], 0.5 * e[:, 0]
    block = max(1, _BLOCK_NODES // len(t))
    nodes = np.empty((6, min(block, n), len(t)))

    def newton(x: float, y: float) -> tuple:
        np.subtract(a[:, 0], x, out=qx)
        np.subtract(a[:, 1], y, out=qy)
        sums = np.empty((6, n))
        for lo in range(0, n, block):
            hi = min(lo + block, n)
            view = nodes[:, : hi - lo]
            fx, fy, f, fxx, fxy, fyy = view
            bx, by = layout[:, lo:hi] @ basis
            r2 = bx * bx
            r2 += by * by
            np.maximum(r2, sys.float_info.min, out=r2)
            np.power(r2, 0.5 * p - 1.0, out=f)
            np.multiply(f, bx, out=fx)
            np.multiply(f, by, out=fy)
            bx /= r2
            by /= r2
            np.multiply(fx, bx, out=fxx)
            np.multiply(fx, by, out=fxy)
            np.multiply(fy, by, out=fyy)
            np.matmul(view, weights, out=sums[:, lo:hi])
        area_grads[:, 0] = 0.5 * (qx * e[:, 1] - qy * e[:, 0])
        (gx, jxx, jxy), (gy, jyx, jyy), (s0, _, _), (sxx, _, _), (sxy, _, _), (syy, _, _) = (
            (sums @ area_grads).tolist())
        p2 = p - 2.0
        return ((-p * gx, -p * gy),
                ((-p * (jxx - s0 - p2 * sxx), -p * (jxy - p2 * sxy)),
                 (-p * (jyx - p2 * sxy), -p * (jyy - s0 - p2 * syy))))

    return newton


def _difference_gradient(integral, h: float):
    """``gradients(points)``: the central differences of ``integral``, step
    h along each axis over the step as rounded, at each row of ``points``."""

    def gradients(points) -> np.ndarray:
        return np.array([((integral((x + h, y)) - integral((x - h, y))) / ((x + h) - (x - h)),
                          (integral((x, y + h)) - integral((x, y - h))) / ((y + h) - (y - h)))
                         for x, y in points.tolist()])

    return gradients


def _difference_jacobian(gradients, h: float):
    """``newton(x, y)``: the gradient by ``gradients(points)`` at (x, y)
    and its central-difference Jacobian, from one pass over five points,
    (x, y) and x +- h along each axis, over the steps as rounded, as
    ((gx, gy), ((a, b), (c, d)))."""

    def newton(x: float, y: float) -> tuple:
        (xp, xm), (yp, ym) = (x + h, x - h), (y + h, y - h)
        g, g1, g2, g3, g4 = gradients(np.array([(x, y), (xp, y), (xm, y), (x, yp), (x, ym)])).tolist()
        # columns: the derivatives along x and along y
        hx, hy = xp - xm, yp - ym
        return g, (((g1[0] - g2[0]) / hx, (g3[0] - g4[0]) / hy),
                   ((g1[1] - g2[1]) / hx, (g3[1] - g4[1]) / hy))

    return newton


def _point_gradient(pts: np.ndarray, w: np.ndarray):
    """``gradients(points)``: sum w_i (x - p_i) / |x - p_i| at each row x
    of ``points``, each component summed by ``math.fsum``. The data points
    at x are left out, so at a data point it is the pull of the others. A
    gradient within its rounding, 4 eps times the total weight, reads 0."""
    floor = 4.0 * sys.float_info.epsilon * math.fsum(w)

    def gradients(points) -> np.ndarray:
        rows = []
        for x, y in points.tolist():
            dx, dy = x - pts[:, 0], y - pts[:, 1]
            d = np.hypot(dx, dy)
            d[d == 0.0] = math.inf
            gx, gy = math.fsum(w * (dx / d)), math.fsum(w * (dy / d))
            rows.append((gx, gy) if math.hypot(gx, gy) > floor else (0.0, 0.0))
        return np.array(rows)

    return gradients


def _point_step(gradients, x: float, y: float, g: tuple, newton: tuple, diam: float) -> tuple:
    """A point set's step from (x, y), where its gradient is g (not 0):
    ``newton`` if it descends, cut to one diameter, else one diameter down
    the gradient. The objective grows linearly far out and is flat along
    a line of data points, so a Newton step can overshoot far. The step
    is kept if |g| falls at its end, else cut where the derivative of the
    objective along it turns from negative, by ``_BISECTIONS`` halvings.
    """
    (gx, gy), (dx, dy) = g, newton
    if dx * gx + dy * gy < 0.0:
        scale = min(1.0, diam / math.hypot(dx, dy))
    else:
        dx, dy, scale = -gx, -gy, diam / math.hypot(gx, gy)
    dx, dy = scale * dx, scale * dy
    lo, hi = 0.0, 1.0
    if math.hypot(*gradients(np.array([(x + dx, y + dy)]))[0]) >= math.hypot(gx, gy):
        for _ in range(_BISECTIONS):
            t = 0.5 * (lo + hi)
            fx, fy = gradients(np.array([(x + t * dx, y + t * dy)]))[0]
            lo, hi = (t, hi) if fx * dx + fy * dy < 0.0 else (lo, t)
    return hi * dx, hi * dy


def _gradient_root(newton, diam: float, start, vertex=None, gradients=None) -> Point2:
    """The root of a gradient by Newton's method from ``start``.

    ``newton(x, y)`` gives the gradient at (x, y) and its Jacobian, as
    ((gx, gy), ((a, b), (c, d))) with the derivatives along x in the first
    column: ``_star_gradient``'s one pass for a power kernel, else
    ``_difference_jacobian``'s five points. The loop stops at a zero
    gradient or after a step within ``_STEP_TOL`` of ``diam``. A singular
    or non-finite Jacobian, a non-finite step or ``_NEWTON_BUDGET``
    iterations without a stop raise ``NonConvergenceError``.

    ``vertex(x, y)`` and ``gradients(points)``, given for a point set, are
    the exact vertex test at the data point nearest (x, y), which returns
    that point if it is the median, else None, and the gradient pass. The
    test runs before each step, and each step, a singular Jacobian's too,
    is a ``_point_step``.
    """
    x, y = start
    for _ in range(_NEWTON_BUDGET):
        if vertex is not None and (m := vertex(x, y)) is not None:
            return m
        # an overflow shows as a non-finite Jacobian or step below
        with np.errstate(over="ignore", invalid="ignore"):
            g, ((a, b), (c, d)) = newton(x, y)
        gx, gy = g
        if gx == gy == 0.0:
            return Point2(x, y)
        s = max(abs(a), abs(b), abs(c), abs(d))
        regular = s > 0.0 and all(map(math.isfinite, (a, b, c, d)))
        if regular:
            # scaled to the largest entry, so that the determinant of a
            # region far below unit size does not underflow
            a, b, c, d, gx, gy = a / s, b / s, c / s, d / s, gx / s, gy / s
            det = a * d - b * c
            regular = abs(det) > _SINGULAR_DET * (abs(a * d) + abs(b * c))
        dx, dy = ((b * gy - d * gx) / det, (c * gx - a * gy) / det) if regular else (0.0, 0.0)
        if vertex is not None:
            dx, dy = _point_step(gradients, x, y, g, (dx, dy), diam)
        elif not regular:
            raise NonConvergenceError(f"the oracle's Jacobian is singular or not finite at ({x!r}, {y!r})")
        if not (math.isfinite(dx) and math.isfinite(dy)):
            raise NonConvergenceError(f"the oracle's Newton step is not finite at ({x!r}, {y!r})")
        x, y = x + dx, y + dy
        if math.hypot(dx, dy) <= _STEP_TOL * diam:
            return Point2(x, y)
    raise NonConvergenceError(f"the oracle's Newton loop did not converge in {_NEWTON_BUDGET} iterations")


def oracle_minimize(poly, kernel: Optional[RadialKernel] = None) -> Point2:
    """Brute-force minimizer of the area objective: the root of its
    gradient by ``_gradient_root`` from the area centroid, in the polygon's
    solve frame (``Polygon._local_frame``, a translation only).

    A power kernel's gradient and its exact Jacobian come from one pass of
    ``_star_gradient`` (8 t-panels) per iterate. A custom kernel's gradient
    is the central difference of the value rule ``_star_objective``
    (4 t-panels), step ``_VALUE_STEP`` times the diameter, and its Jacobian
    the five-point central difference of that gradient
    (``_difference_jacobian``), step ``_FD_STEP`` times the diameter.
    Where the objective is not convex, as it need not be for a custom
    kernel, the root is the one Newton's method reaches.

    Raises ``SingularRegionError`` when the objective underflows: for a
    power kernel when area * diameter**p, which bounds it, is below the
    smallest normal float, for a custom kernel when its value at the
    centroid is; and ``NonConvergenceError`` when the Newton loop fails.
    """
    poly, kernel = as_polygon(poly), kernel or RadialKernel.euclidean()
    frame, ox, oy = poly._local_frame()
    c, diam = frame.centroid, frame.diameter
    if kernel.p is None:
        integral = _star_objective(frame, kernel)
        f0 = integral((c.x, c.y))
        if abs(f0) < sys.float_info.min:
            raise SingularRegionError(f"the oracle's objective underflows on this region: {f0!r} at the area centroid")
        newton = _difference_jacobian(_difference_gradient(integral, _VALUE_STEP * diam), _FD_STEP * diam)
    else:
        bound = math.log2(frame.area) + kernel.p * math.log2(diam)
        if bound < math.log2(sys.float_info.min):
            raise SingularRegionError(
                f"the oracle's objective underflows on this region: area * diameter**p is 2**{bound:.1f}")
        newton = _star_gradient(frame, kernel.p)
    m = _gradient_root(newton, diam, (c.x, c.y))
    return m if frame is poly else Point2(m.x + ox, m.y + oy)


def oracle_minimize_points(ps) -> Point2:
    """Brute-force minimizer of the point-set objective sum w_i |p_i - x|:
    the root of its gradient (``_point_gradient``) by ``_gradient_root``
    from the weighted centroid. Before each step the exact vertex test
    (Vardi & Zhang, PNAS 2000) runs at the nearest data point p: p is the
    median when the pull of the others is at most the weight at p. It runs
    in the frame ``weiszfeld`` solves in (``geometry._frame_origin``),
    with the diameter and the largest weight scaled exactly into [0.5, 1)
    by powers of two, which keeps the differences and sums of a subnormal
    or huge set in range. A set of one repeated point is its own
    minimizer."""
    pts, w = ps.coords, ps.weights
    diam = ps.diameter
    if diam == 0.0:
        return Point2(float(pts[0, 0]), float(pts[0, 1]))
    ox, oy = _frame_origin(pts[0].tolist(), diam)
    e = math.frexp(diam)[1]
    pts, w = np.ldexp(pts - (ox, oy), -e), np.ldexp(w, -math.frexp(w.max())[1])
    gradients = _point_gradient(pts, w)

    def vertex(x: float, y: float) -> Optional[Point2]:
        p = pts[int(np.argmin(np.hypot(pts[:, 0] - x, pts[:, 1] - y)))]
        pull = math.hypot(*gradients(p[None])[0])
        return Point2(*p.tolist()) if pull <= math.fsum(w[(pts == p).all(axis=1)]) else None

    total = float(w.sum())
    start = (float(np.sum(w * pts[:, 0]) / total), float(np.sum(w * pts[:, 1]) / total))
    scaled = math.ldexp(diam, -e)
    m = _gradient_root(_difference_jacobian(gradients, _FD_STEP * scaled), scaled, start, vertex, gradients)
    return Point2(math.ldexp(m.x, e) + ox, math.ldexp(m.y, e) + oy)

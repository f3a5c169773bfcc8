"""Damped Newton root-finding on boundary-integral residual fields.

The median of a region is the unique root of the objective gradient
(strict convexity of the underlying objective guarantees uniqueness for
the Euclidean kernel). ``residuals._frame_residual`` evaluates that
gradient on the kernel's route (closed form or quadrature); the solver
drives it with Newton steps, backtracking damping, and a
gradient-descent fallback when the Jacobian degenerates. Every
evaluation carries the Jacobian with the residual, so Newton makes one
residual call per trial point. The loop works on a (2,) iterate and
plain floats; the report types are built once, for the result.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .errors import InvalidTriangleError, SingularRegionError
from .geometry import Point2, Polygon, as_polygon
from .kernels import RadialKernel
from .residuals import _frame_residual, _spread

__all__ = ["SolveConfig", "SolveResult", "solve_median", "solve_medianoid", "degenerate_limit_study"]

_SINGULAR_COND = 1e12
_BACKTRACK_FACTOR = 0.5
_MIN_STEP = 1e-10


@dataclass(frozen=True)
class SolveConfig:
    """Newton iteration controls.

    tol_rel thresholds the scale-free normalized residual norm; max_iter
    is an integer (``operator.index``), not a bool.
    """

    tol_rel: float = 1e-12
    max_iter: int = 100

    def __post_init__(self) -> None:
        if not 0.0 < self.tol_rel < math.inf:
            raise ValueError("tol_rel must be finite and > 0")
        try:
            max_iter = operator.index(self.max_iter)
        except TypeError:
            max_iter = None
        if max_iter is None or isinstance(self.max_iter, (bool, np.bool_)):
            raise ValueError(f"max_iter must be an integer, not {self.max_iter!r}")
        if max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass(frozen=True)
class SolveResult:
    """Outcome of one solve.

    ``converged`` is False when the iteration budget ran out or the line
    search stagnated; the best iterate found is still reported.
    ``certificate`` carries the spread (max - min)/max of the three edge
    means for triangular regions under any kernel, None otherwise.
    ``local`` marks results for custom kernels and powers p < 1, where
    convexity (and thus global uniqueness of the root) is not guaranteed;
    unless the kernel is custom, a result more than one diameter from the
    area centroid is not converged. ``edge_means`` are the
    mean kernel values along each boundary edge at the final iterate.
    ``median`` and ``trace`` are in absolute coordinates; far from the
    origin they round the iterates of the translated solve frame.
    """

    median: Point2
    iterations: int
    residual_norm: float
    normalized_norm: float
    trace: Tuple[Tuple[Point2, float], ...]
    certificate: Optional[float] = None
    converged: bool = True
    local: bool = False
    edge_means: Tuple[float, ...] = ()


def _validated_region(region) -> Tuple[Polygon, float, float, float, np.ndarray]:
    """The region in its solve frame (``Polygon._local_frame``): the
    translated polygon, the frame origin, the diameter and the area
    centroid in that frame."""
    # overflow in the diameter or the centroid, raised under the solve's
    # error state, is an unusable region too
    try:
        polygon = as_polygon(region)
        local, ox, oy = polygon._local_frame()
        return local, ox, oy, local.diameter, local.centroid.as_array()
    except Exception as exc:
        raise SingularRegionError(f"not a usable region: {exc}") from exc


def _ill_conditioned(jac) -> bool:
    """True when the 2x2 ``jac`` has a non-finite entry, is singular or has
    a condition number above ``_SINGULAR_COND``: s_max^2 / |det| = (F +
    sqrt(F^2 - 4 det^2)) / (2 |det|), F the squared Frobenius norm, on the
    entries scaled exactly by a power of two so none over- or underflows."""
    (a, b), (c, d) = jac
    m = max(abs(a), abs(b), abs(c), abs(d))
    if m == 0.0 or not all(map(math.isfinite, (a, b, c, d))):
        return True
    k = 2.0 ** -math.frexp(m)[1]
    a, b, c, d = a * k, b * k, c * k, d * k
    det = abs(a * d - b * c)
    f = a * a + b * b + c * c + d * d
    return f + math.sqrt(max(f * f - 4.0 * det * det, 0.0)) > 2.0 * _SINGULAR_COND * det


def solve_median(poly, cfg: Optional[SolveConfig] = None) -> SolveResult:
    """Geometric median of a polygonal region (Euclidean kernel).

    ``solve_medianoid`` with ``RadialKernel.euclidean()``: Newton on the
    closed-form residual's gradient and its closed-form Jacobian,
    initialized at the area centroid.
    """
    return solve_medianoid(poly, RadialKernel.euclidean(), cfg)


# one numpy error state for a whole solve: an overflow or an invalid
# operation raises, instead of a warning, and ends it as a package error
@np.errstate(over="raise", invalid="raise")
def solve_medianoid(boundary, kernel: RadialKernel, cfg: Optional[SolveConfig] = None) -> SolveResult:
    """Medianoid of a region for a radial kernel: damped Newton on the
    report gradient, from the area centroid.

    Accepts a Polygon or a sampled polyline loop for the boundary. Each
    trial point is evaluated by ``residuals._frame_residual`` on the
    kernel's route (``RadialKernel.values_batch``): closed form for
    integer powers up to ``kernels._MAX_CLOSED_POWER``, the Euclidean
    kernel among them, Gauss-Kronrod quadrature with the Jacobian
    integrated in the same pass for every other kernel. It is looked up
    in this module at every call. A custom kernel (``kernel.p`` None) or
    a power p < 1 marks the result ``local``. The median is
    translation-equivariant, so the iterate is x minus the origin of the
    region's solve frame, and the residual sees the region translated
    there: a region far from the origin keeps the precision of one near
    it. The loop carries that iterate as a (2,) array and the residual
    as floats, and builds no ``Point2`` or ``ResidualReport``; the trace
    and the median are moved back by one add per coordinate, once, at
    the end. Triangles get the certificate of the final edge means, the
    ``ResidualReport.certificate`` of the final point.
    """
    cfg = cfg or SolveConfig()
    polygon, ox, oy, diam, x = _validated_region(boundary)
    scale = diam * diam

    def evaluate(v: np.ndarray) -> tuple:
        """(edge means, |T|, gradient rotate90(T, +1), Jacobian rows) at v."""
        try:
            means, tx, ty, jac = _frame_residual(polygon, v, kernel)
        except FloatingPointError as exc:
            raise SingularRegionError(f"the kernel integrals overflow the float range: {exc}") from exc
        return means, math.hypot(tx, ty), np.array([-ty, tx]), jac

    means, norm, g, jac = evaluate(x)
    # iterates in the solve frame, with their normalized norms
    visited: List[Tuple[np.ndarray, float]] = [(x, norm / scale)]
    iterations = 0
    converged = visited[-1][1] <= cfg.tol_rel
    while not converged and iterations < cfg.max_iter:
        if _ill_conditioned(jac):
            # descend along minus the gradient; scale by the diameter to
            # get a step with length units
            gn = math.hypot(g[0], g[1])
            step = -g / max(gn, 1e-300) * min(0.25 * diam, gn / diam)
        else:
            step = np.linalg.solve(np.array(jac), -g)

        t = 1.0
        accepted = None
        while t >= _MIN_STEP:
            cand = x + t * step
            trial = evaluate(cand)
            if trial[1] < norm:
                accepted = cand, trial
                break
            t *= _BACKTRACK_FACTOR
        if accepted is None:
            break  # stagnation: no damped step reduces the residual
        x, (means, norm, g, jac) = accepted
        iterations += 1
        visited.append((x, norm / scale))
        converged = visited[-1][1] <= cfg.tol_rel
    trace = tuple((Point2(float(v[0]) + ox, float(v[1]) + oy), n) for v, n in visited)
    median = trace[-1][0]
    # an increasing radial kernel's roots lie in the hull, within diam of the centroid
    p = kernel.p
    if p is not None and median.distance_to(trace[0][0]) > diam:
        converged = False
    return SolveResult(
        median=median,
        iterations=iterations,
        residual_norm=norm,
        normalized_norm=visited[-1][1],
        trace=trace,
        certificate=_spread(means) if len(means) == 3 else None,
        converged=converged,
        local=p is None or p < 1.0,
        edge_means=tuple(means.tolist()),
    )


def degenerate_limit_study(
    alpha: float,
    beta: float,
    gammas,
    cfg: Optional[SolveConfig] = None,
) -> List[Tuple[float, float]]:
    """Medians of triangles with sides (alpha, beta, gamma) as gamma shrinks.

    The triangle is placed with the vertex common to the alpha and beta
    sides at the origin; each entry of the result is (gamma, distance of
    the solved median from that vertex). As gamma approaches
    |alpha - beta| from above, the distances approach sqrt(alpha*beta/2).
    Sides are normalized so alpha >= beta.
    """
    alpha = float(alpha)
    beta = float(beta)
    if beta > alpha:
        alpha, beta = beta, alpha
    if not (alpha >= beta > 0.0):
        raise InvalidTriangleError("need alpha >= beta > 0 after normalization")
    out: List[Tuple[float, float]] = []
    for gamma in gammas:
        g = float(gamma)
        if not (alpha - beta < g < alpha + beta):
            raise InvalidTriangleError(
                f"gamma={g} violates the strict triangle inequality for "
                f"alpha={alpha}, beta={beta}"
            )
        bx = (alpha * alpha + beta * beta - g * g) / (2.0 * alpha)
        by_sq = beta * beta - bx * bx
        if by_sq <= 0.0:
            raise InvalidTriangleError(
                f"gamma={g} leaves no triangle height at floating point precision"
            )
        tri = Polygon([(0.0, 0.0), (alpha, 0.0), (bx, math.sqrt(by_sq))])
        result = solve_median(tri, cfg)
        out.append((g, math.hypot(result.median.x, result.median.y)))
    return out

"""Damped Newton root-finding on boundary-integral residual fields.

The median of a region is the unique root of the objective gradient
(strict convexity of the underlying objective guarantees uniqueness for
the Euclidean kernel). Both residual routes report that gradient; the
solver drives it with Newton steps, backtracking damping, and a
gradient-descent fallback when the Jacobian degenerates. Both routes
report the Jacobian with the residual, so Newton makes one residual
call per trial point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from .errors import InvalidTriangleError, SingularRegionError
from .geometry import Point2, Polygon, as_polygon
from .kernels import KernelKind, RadialKernel
from .residuals import ResidualReport, _spread, general_boundary_residual, polygon_residual

__all__ = ["SolveConfig", "SolveResult", "solve_median", "solve_medianoid", "degenerate_limit_study"]

_SINGULAR_COND = 1e12
_BACKTRACK_FACTOR = 0.5
_MIN_STEP = 1e-10


@dataclass(frozen=True)
class SolveConfig:
    """Newton iteration controls.

    tol_rel thresholds the scale-free normalized residual norm.
    """

    tol_rel: float = 1e-12
    max_iter: int = 100

    def __post_init__(self) -> None:
        if not (self.tol_rel > 0.0):
            raise ValueError("tol_rel must be > 0")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass(frozen=True)
class SolveResult:
    """Outcome of one solve.

    ``converged`` is False when the iteration budget ran out or the line
    search stagnated; the best iterate found is still reported.
    ``certificate`` carries the spread (max - min)/max of the three edge
    means for triangular regions under any kernel, None otherwise.
    ``local`` marks results for custom kernels, where convexity (and thus
    global uniqueness of the root) is not guaranteed. ``edge_means`` are the
    mean kernel values along each boundary edge at the reported median.
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


def _validated_region(region) -> Tuple[Polygon, float, np.ndarray]:
    # overflow in the diameter or the centroid is an unusable region too;
    # raising it keeps numpy's overflow warnings off stderr
    try:
        polygon = as_polygon(region)
        with np.errstate(over="raise", invalid="raise"):
            return polygon, polygon.diameter, polygon.centroid.as_array()
    except Exception as exc:
        raise SingularRegionError(f"not a usable region: {exc}") from exc


def _newton_root(
    region,
    residual_fn: Callable[[Polygon, Point2], ResidualReport],
    cfg: Optional[SolveConfig],
    local: bool = False,
) -> SolveResult:
    """Damped Newton on the report gradient, from the area centroid.

    Triangles get the certificate of the final report's edge means.
    """
    cfg = cfg or SolveConfig()
    polygon, diam, x = _validated_region(region)

    def rep_at(v: np.ndarray) -> ResidualReport:
        return residual_fn(polygon, Point2(float(v[0]), float(v[1])))

    rep = rep_at(x)
    trace: List[Tuple[Point2, float]] = [(Point2(float(x[0]), float(x[1])), rep.normalized_norm)]
    iterations = 0
    converged = rep.normalized_norm <= cfg.tol_rel
    while not converged and iterations < cfg.max_iter:
        g = rep.gradient.as_array()
        jac = np.array(rep.jacobian)
        use_fallback = not np.all(np.isfinite(jac))
        if not use_fallback:
            cond = np.linalg.cond(jac)
            use_fallback = not math.isfinite(cond) or cond > _SINGULAR_COND
        if use_fallback:
            # descend along minus the gradient; scale by the diameter to
            # get a step with length units
            gn = math.hypot(g[0], g[1])
            step = -g / max(gn, 1e-300) * min(0.25 * diam, gn / diam)
        else:
            step = np.linalg.solve(jac, -g)

        t = 1.0
        accepted = None
        while t >= _MIN_STEP:
            cand = x + t * step
            cand_rep = rep_at(cand)
            if cand_rep.norm < rep.norm:
                accepted = (cand, cand_rep)
                break
            t *= _BACKTRACK_FACTOR
        if accepted is None:
            break  # stagnation: no damped step reduces the residual
        x, rep = accepted
        iterations += 1
        trace.append((Point2(float(x[0]), float(x[1])), rep.normalized_norm))
        converged = rep.normalized_norm <= cfg.tol_rel
    return SolveResult(
        median=Point2(float(x[0]), float(x[1])),
        iterations=iterations,
        residual_norm=rep.norm,
        normalized_norm=rep.normalized_norm,
        trace=tuple(trace),
        certificate=_spread(rep.edge_means) if len(polygon) == 3 else None,
        converged=converged,
        local=local,
        edge_means=rep.edge_means,
    )


def solve_median(poly, cfg: Optional[SolveConfig] = None) -> SolveResult:
    """Geometric median of a polygonal region (Euclidean kernel).

    Newton on the closed-form residual's gradient and its closed-form
    Jacobian, initialized at the area centroid.
    """
    return _newton_root(poly, polygon_residual, cfg)


def solve_medianoid(boundary, kernel: RadialKernel, cfg: Optional[SolveConfig] = None) -> SolveResult:
    """Medianoid of a region for a general radial kernel.

    Same Newton scheme, driven by the quadrature boundary residual and
    the Jacobian integrated in the same quadrature pass.
    Accepts a Polygon or a sampled polyline loop for the boundary.
    """

    def residual_fn(polygon: Polygon, p: Point2) -> ResidualReport:
        return general_boundary_residual(polygon, p, kernel)

    return _newton_root(boundary, residual_fn, cfg, local=kernel.kind is KernelKind.CUSTOM)


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

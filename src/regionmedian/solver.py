"""Damped Newton root-finding on boundary-integral residual fields.

The median of a region is the unique root of the objective gradient
(strict convexity of the underlying objective guarantees uniqueness for
the Euclidean kernel). ``residuals._frame_residual`` evaluates that
gradient on the kernel's route (closed form or quadrature); the solver
drives it with Newton steps, backtracking damping, and a
gradient-descent fallback when the Jacobian degenerates. Every
evaluation carries the Jacobian with the residual, so Newton makes one
residual call per trial point. The loop, ``_damped_newton``, works on
plain floats, its trial points among them, and is the package's only
Newton loop: ``weiszfeld`` drives it on point sets with its own
evaluator. Its step solves the 2x2 Jacobian system on floats
(``_solve2``), replaying the operations of LAPACK's solve with
correctly rounded fused products (``_fma``), so the step has the bits
of ``np.linalg.solve``. The report types are built once, for the result.
"""
from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .errors import InvalidTriangleError, SingularRegionError
from .geometry import Point2, Polygon, as_polygon
from .kernels import RadialKernel
from .residuals import _frame_residual, _mean_tuple, _spread

__all__ = ["SolveConfig", "SolveResult", "solve_median", "solve_medianoid", "degenerate_limit_study"]

_SINGULAR_COND = 1e12
_BACKTRACK_FACTOR = 0.5
_MIN_STEP = 1e-10
# Veltkamp's splitter 2^27 + 1, which cuts a float into halves of 26 bits
_SPLIT = 134217729.0
# _solve2's operands stay within these bounds, or zero: the products in
# its _fma then neither overflow nor lose their error terms to underflow
_SOLVE_MIN, _SOLVE_MAX = 2.0 ** -450, 2.0 ** 450


def _integer(value, name: str) -> int:
    """``value`` by ``operator.index``; a bool or a non-integer raises ValueError."""
    try:
        if not isinstance(value, (bool, np.bool_)):
            return operator.index(value)
    except TypeError:
        pass
    raise ValueError(f"{name} must be an integer, not {value!r}")


@dataclass(frozen=True)
class SolveConfig:
    """Newton iteration controls.

    tol_rel, a real number, thresholds the scale-free normalized residual
    norm; max_iter is an integer (``operator.index``); neither is a bool.
    """

    tol_rel: float = 1e-12
    max_iter: int = 100

    def __post_init__(self) -> None:
        if isinstance(self.tol_rel, bool) or not isinstance(self.tol_rel, numbers.Real):
            raise ValueError(f"tol_rel must be a number, not {self.tol_rel!r}")
        if not 0.0 < self.tol_rel < math.inf:
            raise ValueError("tol_rel must be finite and > 0")
        if _integer(self.max_iter, "max_iter") < 1:
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


def _validated_region(region) -> Tuple[Polygon, float, float, float, Tuple[float, float]]:
    """The region in its solve frame (``Polygon._local_frame``): the
    translated polygon, the frame origin, the diameter and the area
    centroid in that frame, as two floats."""
    # overflow in the diameter or the centroid, raised under the solve's
    # error state, is an unusable region too
    try:
        polygon = as_polygon(region)
        local, ox, oy = polygon._local_frame()
        centroid = local.centroid
        return local, ox, oy, local.diameter, (centroid.x, centroid.y)
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


def _fma(a: float, b: float, c: float) -> float:
    """a b + c rounded once, for a b neither overflowing nor underflowing:
    Dekker's exact product p + e = a b (Numer. Math. 18, 1971), then
    ``math.fsum``, which rounds correctly. Where p is zero it is p + c,
    with the fused sign of zero, which ``math.fsum`` does not give."""
    p = a * b
    if p == 0.0:
        return p + c
    t = _SPLIT * a
    ah = t - (t - a)
    t = _SPLIT * b
    bh = t - (t - b)
    al, bl = a - ah, b - bh
    return math.fsum((p, ((ah * bh - p) + ah * bl + al * bh) + al * bl, c))


def _in_solve_range(v: float) -> bool:
    """v is zero or within ``_SOLVE_MIN``..``_SOLVE_MAX`` in size."""
    return v == 0.0 or _SOLVE_MIN <= abs(v) <= _SOLVE_MAX


def _solve2(jac, b0: float, b1: float) -> tuple:
    """The solution of the 2x2 system jac x = (b0, b1) as two floats, with
    the bits of ``np.linalg.solve``: OpenBLAS's dgesv for n = 2 swaps the
    rows only where |a10| > |a00|, rounds l = a10 (1 / a00) and u11 = a11
    - l a01 twice each, then fuses y1 = fma(-b0, l, b1), x1 = y1 / u11
    and x0 = fma(-x1, a01, b0) / a00. A zero pivot, or a00, a01, l, u11,
    b0, b1 or x1 nonzero outside ``_SOLVE_MIN``..``_SOLVE_MAX``, hands the
    system to ``np.linalg.solve`` itself."""
    (a00, a01), (a10, a11) = jac
    c0, c1 = b0, b1
    if abs(a10) > abs(a00):
        a00, a01, a10, a11, c0, c1 = a10, a11, a00, a01, b1, b0
    if a00 != 0.0:
        l = a10 * (1.0 / a00)
        u11 = a11 - l * a01
        if u11 != 0.0 and all(map(_in_solve_range, (a00, a01, l, u11, c0, c1))):
            x1 = _fma(-c0, l, c1) / u11
            if _in_solve_range(x1):
                return _fma(-x1, a01, c0) / a00, x1
    return tuple(np.linalg.solve(np.array(jac), np.array([b0, b1])).tolist())


def _damped_newton(evaluate, x, scale: float, cfg: SolveConfig, fallback, exact=None, accept=None):
    """The package's one Newton loop, from the point x (two floats or a
    (2,) array); returns the visited (point, norm / scale) pairs, the last
    state, the step count and whether the run converged (norm / scale <=
    ``cfg.tol_rel``). Trial points are pairs of floats x + t step, the
    IEEE operations of the (2,) array expression.

    ``evaluate(v)`` gives a state (norm, gradient as two floats, Jacobian
    rows or None, ...). The step solves the Jacobian system (``_solve2``),
    or is ``fallback(x, state)``, two floats, where ``_ill_conditioned``
    rejects it; backtracking halves it until
    ``accept(trial, state)`` (by default, until the norm drops), down to
    ``_MIN_STEP``, or the run stops, as it stops at once on a step that
    is zero or not finite. ``exact(x, state)``, run before each
    step, may return an exact point and its state, where the run ends
    converged.
    """
    state = evaluate(x)
    visited: List[Tuple[tuple, float]] = [(x, state[0] / scale)]
    iterations = 0
    converged = visited[-1][1] <= cfg.tol_rel
    while not converged and iterations < cfg.max_iter:
        hit = exact(x, state) if exact else None
        if hit is not None:
            x, state = hit
            visited.append((x, state[0] / scale))
            return visited, state, iterations, True
        norm, (gx, gy), jac = state[:3]
        if jac is None or _ill_conditioned(jac):
            sx, sy = fallback(x, state)
        else:
            sx, sy = _solve2(jac, -gx, -gy)
        # no damping makes a zero or non-finite step pass
        if sx == sy == 0.0 or not (math.isfinite(sx) and math.isfinite(sy)):
            break
        x0, x1 = x
        t = 1.0
        while t >= _MIN_STEP:
            cand = (x0 + t * sx, x1 + t * sy)
            trial = evaluate(cand)
            if accept(trial, state) if accept else trial[0] < norm:
                break
            t *= _BACKTRACK_FACTOR
        else:
            break  # stagnation: no damped step reduces the norm
        x, state = cand, trial
        iterations += 1
        visited.append((x, state[0] / scale))
        converged = visited[-1][1] <= cfg.tol_rel
    return visited, state, iterations, converged


# the defaults, built once: both types are frozen
_DEFAULT_CONFIG = SolveConfig()
_EUCLIDEAN = RadialKernel.euclidean()


def solve_median(poly, cfg: Optional[SolveConfig] = None) -> SolveResult:
    """Geometric median of a polygonal region (Euclidean kernel).

    ``solve_medianoid`` with ``RadialKernel.euclidean()``: Newton on the
    closed-form residual's gradient and its closed-form Jacobian,
    initialized at the area centroid.
    """
    return solve_medianoid(poly, _EUCLIDEAN, cfg)


# one numpy error state for a whole solve: an overflow or an invalid
# operation raises, instead of a warning, and ends it as a package error
@np.errstate(over="raise", invalid="raise")
def solve_medianoid(boundary, kernel: RadialKernel, cfg: Optional[SolveConfig] = None) -> SolveResult:
    """Medianoid of a region for a radial kernel: ``_damped_newton`` on
    the report gradient, from the area centroid, with a gradient-descent
    step where the Jacobian degenerates and a scale of diameter².

    Accepts a Polygon or a sampled polyline loop for the boundary. Each
    trial point is evaluated by ``residuals._frame_residual``, looked up
    in this module at every call, on the kernel's route
    (``RadialKernel.values_batch``): closed form for powers 1 <= p <=
    ``kernels._MAX_CLOSED_POWER``, the Euclidean kernel among them,
    Gauss-Kronrod quadrature with the Jacobian integrated in the same pass
    for custom kernels and every other power; edge integrals that overflow
    raise its SingularRegionError. A custom kernel (``kernel.p`` None) or
    a power p < 1 marks the result ``local``. The median is
    translation-equivariant, so the iterate is x minus the origin of the
    region's solve frame, and the residual sees the region translated
    there: a region far from the origin keeps the precision of one near
    it. The loop carries that iterate and the residual as floats, and
    builds no ``Point2`` or ``ResidualReport``; the trace and the median
    are moved back by one add per coordinate, once, at the end.
    Triangles get the certificate of the final edge means, the
    ``ResidualReport.certificate`` of the final point.
    """
    cfg = cfg or _DEFAULT_CONFIG
    polygon, ox, oy, diam, x = _validated_region(boundary)

    def evaluate(v) -> tuple:
        """(|T|, gradient rotate90(T, +1), Jacobian rows, edge means) at v."""
        means, tx, ty, jac = _frame_residual(polygon, v, kernel)
        return math.hypot(tx, ty), (-ty, tx), jac, means

    def descend(v, state: tuple) -> tuple:
        # minus the gradient, scaled by the diameter to a step with length units
        gx, gy = state[1]
        gn = math.hypot(gx, gy)
        d, s = max(gn, 1e-300), min(0.25 * diam, gn / diam)
        return -gx / d * s, -gy / d * s

    visited, (norm, _, _, means), iterations, converged = _damped_newton(evaluate, x, diam * diam, cfg, descend)
    means = _mean_tuple(means)
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
        edge_means=means,
    )


def degenerate_limit_study(alpha: float, beta: float, gammas) -> List[Tuple[float, float]]:
    """Medians of triangles with sides (alpha, beta, gamma) as gamma shrinks.

    The triangle is placed with the vertex common to the alpha and beta
    sides at the origin; each entry of the result is (gamma, distance of
    the solved median from that vertex). As gamma approaches
    |alpha - beta| from above, the distances approach sqrt(alpha*beta/2).
    Sides are normalized so alpha >= beta, and each triangle is solved
    by ``solve_median`` with the default ``SolveConfig``. The triangle is
    built and solved from the sides divided by 2^e, e the exponent of
    alpha (``math.frexp``), and each distance is multiplied back: both
    exact while the distances are normal floats, so sides scaled by a
    power of two give the rows scaled by it, bit for bit.
    """
    alpha = float(alpha)
    beta = float(beta)
    if beta > alpha:
        alpha, beta = beta, alpha
    if not (alpha >= beta > 0.0):
        raise InvalidTriangleError("need alpha >= beta > 0 after normalization")
    e = math.frexp(alpha)[1]
    a, b = math.ldexp(alpha, -e), math.ldexp(beta, -e)
    out: List[Tuple[float, float]] = []
    for gamma in gammas:
        g = float(gamma)
        if not (alpha - beta < g < alpha + beta):
            raise InvalidTriangleError(
                f"gamma={g} violates the strict triangle inequality for "
                f"alpha={alpha}, beta={beta}"
            )
        c = math.ldexp(g, -e)
        bx = (a * a + b * b - c * c) / (2.0 * a)
        by_sq = b * b - bx * bx
        if by_sq <= 0.0:
            raise InvalidTriangleError(
                f"gamma={g} leaves no triangle height at floating point precision"
            )
        tri = Polygon([(0.0, 0.0), (a, 0.0), (bx, math.sqrt(by_sq))])
        result = solve_median(tri)
        out.append((g, math.ldexp(math.hypot(result.median.x, result.median.y), e)))
    return out

"""Geometric median of finite point sets, solved in the translation frame
that regions use, and region medians by sampling."""
from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from .errors import EmptySampleError
from .geometry import Point2, _frame_origin, _max_pairwise_distance, as_polygon
from .solver import SolveConfig, SolveResult, _damped_newton, _integer

__all__ = ["PointSet", "weiszfeld", "region_median_by_sampling"]

# an iterate this close to a data point (relative to the set diameter)
# is on it: its gradient is the subgradient nearest 0, without a Hessian
_COINCIDENCE_REL = 1e-14


class PointSet:
    """A weighted finite point set.

    Accepts a sequence of Point2 or (x, y) rows, or an (n, 2) array; any
    other shape raises ValueError. Weights default to 1 and must be
    positive numbers, one per point; a bool is no weight. ``diameter``
    raises ValueError when it overflows the float range.
    """

    __slots__ = ("coords", "weights")

    def __init__(self, points, weights: Optional[Sequence[float]] = None) -> None:
        if not isinstance(points, np.ndarray) or points.dtype == object:
            points = [(p.x, p.y) if isinstance(p, Point2) else p for p in points]
        try:
            coords = np.array(points, dtype=float)
        except OverflowError as exc:
            raise ValueError("points have a coordinate past the float range") from exc
        except (TypeError, ValueError) as exc:
            raise ValueError("points must be a nonempty sequence of (x, y) pairs") from exc
        if coords.ndim != 2 or coords.shape[1] != 2 or len(coords) < 1:
            raise ValueError("points must be a nonempty sequence of (x, y) pairs")
        if not np.all(np.isfinite(coords)):
            raise ValueError("points contain non-finite coordinates")
        if weights is None:
            w = np.ones(len(coords), dtype=float)
        else:
            weights = list(weights)
            if any(isinstance(v, (bool, np.bool_)) for v in weights):
                raise ValueError("weights must be numbers, not bools")
            try:
                w = np.asarray(weights, dtype=float)
            except OverflowError as exc:
                raise ValueError("weights have a value past the float range") from exc
            if w.shape != (len(coords),):
                raise ValueError("weights must match points in length")
            if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
                raise ValueError("weights must be finite and > 0")
        coords.setflags(write=False)
        w.setflags(write=False)
        self.coords = coords
        self.weights = w

    def __len__(self) -> int:
        return len(self.coords)

    @property
    def diameter(self) -> float:
        try:
            return _max_pairwise_distance(self.coords)
        except OverflowError:
            raise ValueError("point set diameter overflows the float range") from None


# subnormal points overflow the weights w/d of the Hessian and the step,
# and the step is then 0, which ends the run, so numpy's warnings are noise
@np.errstate(over="ignore", invalid="ignore")
def weiszfeld(ps: PointSet, tol: float = 1e-10, max_iter: int = 1000) -> SolveResult:
    """Weighted geometric median: ``solver._damped_newton`` from the
    weighted centroid on g = sum w_i u_i, u_i the unit vector from p_i to
    x, and its Hessian sum (w_i / d_i)(I - u_i u_i^T). Within
    ``_COINCIDENCE_REL`` diameters of a data point g is the subgradient
    nearest 0, with no Newton step; there, or where the Hessian is
    ill-conditioned, the step is Weiszfeld's, -g / sum (w_i / d_i) over the
    points not at x. A step passes when f = sum w_i d_i falls, or |g| falls
    with f within its rounding, so f never rises and a Weiszfeld step
    passes where |g| is piecewise constant, as along a line of data points.
    Before each step the exact vertex test (Vardi & Zhang) runs at the
    nearest data point p with (p - x) . g < 0, the side where convexity
    puts the median; a point that passes is the median, with residual 0.
    ``tol`` and ``max_iter`` are validated as a ``SolveConfig``; the run
    converges when normalized_norm = |g| / W <= tol, W the total weight.
    Overflow in the weighted centroid or the objective there: ValueError.
    The median is translation-equivariant, so the set is solved in the
    frame of ``geometry._frame_origin``, as a region is; the trace and the
    median are moved back by one add per coordinate at the end.
    """
    cfg = SolveConfig(tol_rel=tol, max_iter=max_iter)
    w = ps.weights
    total_w = float(w.sum())
    diam = ps.diameter
    radius = _COINCIDENCE_REL * diam
    ox, oy = _frame_origin(ps.coords[0].tolist(), diam)
    pts = ps.coords - (ox, oy)
    x = np.array([float(np.sum(w * pts[:, 0]) / total_w), float(np.sum(w * pts[:, 1]) / total_w)])

    def evaluate(v: np.ndarray) -> tuple:
        """(|g|, g, Hessian rows or None, distances to the points, objective) at v."""
        dx = v[0] - pts[:, 0]
        dy = v[1] - pts[:, 1]
        d = np.hypot(dx, dy)
        f = float(w @ d)
        near = d <= radius
        if not near.any():
            ux, uy, wd = dx / d, dy / d, w / d
            g = float(w @ ux), float(w @ uy)
            hxy = -float((wd * ux) @ uy)
            jac = ((float((wd * uy) @ uy), hxy), (hxy, float((wd * ux) @ ux)))
            return math.hypot(g[0], g[1]), g, jac, d, f
        # on a data point: the points within radius anchor their weight
        # against the pull -g of the rest; the subgradient nearest 0
        # shortens g by the anchor, down to 0
        far = ~near
        gx, gy = float(w[far] @ (dx[far] / d[far])), float(w[far] @ (dy[far] / d[far]))
        pull = math.hypot(gx, gy)
        norm = max(pull - float(w[near].sum()), 0.0)
        s = norm / pull if pull else 1.0
        return norm, (gx * s, gy * s), None, d, f

    if not all(map(math.isfinite, (x[0], x[1], evaluate(x)[4]))):
        raise ValueError("point set sums overflow the float range")

    def weiszfeld_step(v: np.ndarray, state: tuple) -> tuple:
        d = state[3]
        far = d > radius
        gx, gy = state[1]
        s = float(np.sum(w[far] / d[far]))
        return -gx / s, -gy / s

    def vertex_test(v: np.ndarray, state: tuple):
        k = int(np.argmin(np.where((pts - v) @ state[1] < 0.0, state[3], np.inf)))
        at = evaluate(pts[k])
        return (pts[k], at) if at[0] == 0.0 else None

    rise = 1.0 + 2.0 * (len(w) + 1) * np.finfo(float).eps  # twice the rounding bound of f

    def accept(trial: tuple, state: tuple) -> bool:
        return trial[4] < state[4] or trial[0] < state[0] and trial[4] <= state[4] * rise

    visited, state, iterations, converged = _damped_newton(
        evaluate, x, total_w, cfg, weiszfeld_step, vertex_test, accept)
    trace = tuple((Point2(v[0] + ox, v[1] + oy), n) for v, n in visited)
    return SolveResult(median=trace[-1][0], iterations=iterations, residual_norm=state[0],
                       normalized_norm=trace[-1][1], trace=trace, converged=converged)


def region_median_by_sampling(poly, grid_n: int) -> Point2:
    """Approximate region median from a lattice of interior cell centers.

    Takes a ``Polygon`` or a vertex loop (``geometry.as_polygon``). Lays a
    grid_n by grid_n lattice over the bounding box, keeps the cell centers
    strictly inside the polygon, and runs the discrete solver on them.
    Converges to the region median as grid_n grows. grid_n is an integer
    (``operator.index``), not a bool, and at least 2; ValueError otherwise.
    """
    n = _integer(grid_n, "grid_n")
    if n < 2:
        raise ValueError("grid_n must be >= 2")
    poly = as_polygon(poly)
    lo = poly.coords.min(axis=0)
    hi = poly.coords.max(axis=0)
    xs = lo[0] + (np.arange(n) + 0.5) * (hi[0] - lo[0]) / n
    ys = lo[1] + (np.arange(n) + 0.5) * (hi[1] - lo[1]) / n
    gx, gy = np.meshgrid(xs, ys)
    lattice = np.stack([gx.ravel(), gy.ravel()], axis=1)
    keep = poly.contains_many(lattice)
    if not np.any(keep):
        raise EmptySampleError(f"no lattice point of the {n}x{n} grid falls inside")
    ps = PointSet(lattice[keep])
    return weiszfeld(ps, tol=1e-9, max_iter=5000).median

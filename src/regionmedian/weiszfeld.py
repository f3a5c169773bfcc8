"""Geometric median of finite point sets, and region medians by sampling."""
from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from .errors import EmptySampleError
from .geometry import Point2, Polygon, _max_pairwise_distance
from .solver import SolveResult

__all__ = ["PointSet", "weiszfeld", "region_median_by_sampling"]

# an iterate this close to a data point (relative to the set diameter)
# triggers the exact vertex optimality test instead of the raw update
_COINCIDENCE_REL = 1e-14


class PointSet:
    """A weighted finite point set.

    Accepts a sequence of Point2 or an (n, 2) array-like; weights default
    to 1 and must be positive, one per point. ``diameter`` raises
    ValueError when it overflows the float range.
    """

    __slots__ = ("coords", "weights")

    def __init__(self, points, weights: Optional[Sequence[float]] = None) -> None:
        try:
            if isinstance(points, np.ndarray):
                coords = np.asarray(points, dtype=float).copy()
            else:
                coords = np.asarray([(p.x, p.y) if isinstance(p, Point2) else (float(p[0]), float(p[1]))
                                     for p in points], dtype=float)
        except OverflowError as exc:
            raise ValueError("points have a coordinate past the float range") from exc
        if coords.ndim != 2 or coords.shape[1] != 2 or len(coords) < 1:
            raise ValueError("points must be a nonempty sequence of (x, y) pairs")
        if not np.all(np.isfinite(coords)):
            raise ValueError("points contain non-finite coordinates")
        if weights is None:
            w = np.ones(len(coords), dtype=float)
        else:
            try:
                w = np.asarray(list(weights), dtype=float)
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


def _objective(w: np.ndarray, d: np.ndarray) -> float:
    return float(np.sum(w * d))


# a step that overflows (the weights 1/d of subnormal points do) fails the
# objective test, so numpy's warnings about it are noise
@np.errstate(over="ignore", invalid="ignore")
def weiszfeld(ps: PointSet, tol: float = 1e-10, max_iter: int = 1000) -> SolveResult:
    """Weighted geometric median by Weiszfeld iteration.

    Starts at the weighted centroid; stops when successive iterates move
    less than tol times the set diameter. An iterate that lands on a data
    point is resolved by the exact optimality test there (the pull of the
    remaining points against the point's own weight) and either stops at
    the point or steps off along the descent direction. A step that
    raises the objective (rounding at most, in exact arithmetic none
    does) or makes it non-finite stops the run unconverged at the previous
    iterate. Each step's one distance pass serves its objective, the
    trace's subgradient, the coincidence test and the next step. The
    reported residual_norm is the norm of the objective's (sub)gradient at
    the result; normalized_norm divides it by the total weight. A set
    whose weighted centroid or objective there overflows the float range
    raises ValueError.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be finite and > 0")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    pts = ps.coords
    w = ps.weights
    total_w = float(w.sum())
    diam = ps.diameter
    x = np.array([float(np.sum(w * pts[:, 0]) / total_w), float(np.sum(w * pts[:, 1]) / total_w)])
    converged = False
    iterations = 0

    radius = _COINCIDENCE_REL * diam

    def distances(v: np.ndarray) -> np.ndarray:
        return np.hypot(pts[:, 0] - v[0], pts[:, 1] - v[1])

    def vertex_pull(v: np.ndarray, d: np.ndarray):
        # the vertex optimality test at v: the points farther than radius
        # pull with (rx, ry) against the weight anchored within it, and v
        # is optimal when the pull is at most that weight; the pull is
        # minus the smooth part of the subgradient, term by term
        anchored = d <= radius
        rest = ~anchored
        rx = float(np.sum(w[rest] * (pts[rest, 0] - v[0]) / d[rest]))
        ry = float(np.sum(w[rest] * (pts[rest, 1] - v[1]) / d[rest]))
        return math.hypot(rx, ry), rx, ry, float(w[anchored].sum()), rest

    def subgrad_norm(v: np.ndarray, d: np.ndarray) -> float:
        pull, _, _, anchor, _ = vertex_pull(v, d)
        return max(pull - anchor, 0.0)

    # d holds the distances from the iterate x to the points throughout
    d = distances(x)
    obj = _objective(w, d)
    if not (math.isfinite(x[0]) and math.isfinite(x[1]) and math.isfinite(obj)):
        raise ValueError("point set sums overflow the float range")
    trace = [(Point2(x[0], x[1]), subgrad_norm(x, d) / total_w)]
    if diam == 0.0:
        # all points coincide; the common location is the median
        return SolveResult(
            median=Point2(x[0], x[1]),
            iterations=0,
            residual_norm=0.0,
            normalized_norm=0.0,
            trace=tuple(trace),
            certificate=None,
            converged=True,
        )

    for iterations in range(1, max_iter + 1):
        if np.any(d <= radius):
            pull, rx, ry, anchor, rest = vertex_pull(x, d)
            if pull <= anchor:
                converged = True  # the data point itself is optimal
                break
            step = (pull - anchor) / float(np.sum(w[rest] / d[rest]))
            x_new = np.array([x[0] + step * rx / pull, x[1] + step * ry / pull])
        else:
            inv = w / d
            denom = float(inv.sum())
            x_new = np.array(
                [float(np.sum(inv * pts[:, 0]) / denom), float(np.sum(inv * pts[:, 1]) / denom)]
            )
        d_new = distances(x_new)
        new_obj = _objective(w, d_new)
        if not new_obj <= obj * (1.0 + 1e-12) + 1e-300:
            # the objective rose: stop unconverged at the last good iterate
            iterations -= 1
            break
        moved = math.hypot(x_new[0] - x[0], x_new[1] - x[1])
        x, d, obj = x_new, d_new, new_obj
        trace.append((Point2(x[0], x[1]), subgrad_norm(x, d) / total_w))
        if moved < tol * diam:
            converged = True
            break

    # a run that stalls next to a data point usually means the point
    # itself is the median; its optimality test is exact no matter how
    # close the stall happened, so a pass lets us report the point with
    # its true (zero) subgradient instead of a misleading smooth residual
    k = int(np.argmin(d))
    if 0.0 < d[k] <= 1e-6 * diam:
        dv = distances(pts[k])
        if subgrad_norm(pts[k], dv) == 0.0:
            x, d = pts[k].copy(), dv
            converged = True
            trace.append((Point2(x[0], x[1]), 0.0))

    res_norm = subgrad_norm(x, d)
    return SolveResult(
        median=Point2(x[0], x[1]),
        iterations=iterations,
        residual_norm=res_norm,
        normalized_norm=res_norm / total_w,
        trace=tuple(trace),
        certificate=None,
        converged=converged,
    )


def region_median_by_sampling(poly: Polygon, grid_n: int) -> Point2:
    """Approximate region median from a lattice of interior cell centers.

    Lays a grid_n by grid_n lattice over the bounding box, keeps the cell
    centers strictly inside the polygon, and runs the discrete solver on
    them. Converges to the region median as grid_n grows.
    """
    if grid_n < 2:
        raise ValueError("grid_n must be >= 2")
    lo = poly.coords.min(axis=0)
    hi = poly.coords.max(axis=0)
    xs = lo[0] + (np.arange(grid_n) + 0.5) * (hi[0] - lo[0]) / grid_n
    ys = lo[1] + (np.arange(grid_n) + 0.5) * (hi[1] - lo[1]) / grid_n
    gx, gy = np.meshgrid(xs, ys)
    lattice = np.stack([gx.ravel(), gy.ravel()], axis=1)
    keep = poly.contains_many(lattice, strict=True)
    if not np.any(keep):
        raise EmptySampleError(f"no lattice point of the {grid_n}x{grid_n} grid falls inside")
    ps = PointSet(lattice[keep])
    return weiszfeld(ps, tol=1e-9, max_iter=5000).median

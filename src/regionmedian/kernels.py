"""Line integrals of radial cost kernels along straight segments.

The central quantity is the arclength integral of f(P - x) over a segment,
for f the Euclidean norm (closed form) or a general radial kernel
(adaptive quadrature). Values carry the segment length and the mean so
callers can assemble residuals without recomputing either.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np
from scipy.integrate import quad

from .errors import NonConvergenceError
from .geometry import Point2, Vector2

__all__ = [
    "KernelKind",
    "RadialKernel",
    "SegmentIntegral",
    "segment_sigma_closed",
    "segment_sigma_quadrature",
]

# below this perpendicular offset (as a fraction of segment length) the
# logarithmic term of the antiderivative degenerates; switch to the exact
# piecewise formula for a query point on the segment's line
_COLLINEAR_EPS = 1e-12

_DEFAULT_QUAD_TOL = 1e-10


class KernelKind(Enum):
    EUCLIDEAN = "euclidean"
    POWER_LAW = "power_law"
    CUSTOM = "custom"


@dataclass(frozen=True)
class RadialKernel:
    """A cost kernel evaluated on displacement vectors.

    Use the factory classmethods; the constructor does not validate
    cross-field consistency beyond what they set up.
    """

    kind: KernelKind
    p: Optional[float] = None
    evaluator: Optional[Callable[[Vector2], float]] = None

    @classmethod
    def euclidean(cls) -> "RadialKernel":
        return cls(KernelKind.EUCLIDEAN)

    @classmethod
    def power(cls, p: float) -> "RadialKernel":
        p = float(p)
        if not (p > 0.0 and math.isfinite(p)):
            raise ValueError("power kernel exponent must be finite and > 0")
        return cls(KernelKind.POWER_LAW, p=p)

    @classmethod
    def custom(cls, evaluator: Callable[[Vector2], float]) -> "RadialKernel":
        """Wrap an arbitrary continuous map Vector2 -> real.

        The evaluator is spot-checked at a few displacements; it must be
        finite on bounded sets and side-effect-free.
        """
        for probe in (Vector2(0.0, 0.0), Vector2(1.0, 0.0), Vector2(-0.5, 2.0), Vector2(3.0, -4.0)):
            val = evaluator(probe)
            if not math.isfinite(float(val)):
                raise ValueError(f"custom kernel evaluator returned a non-finite value at {probe}")
        return cls(KernelKind.CUSTOM, evaluator=evaluator)

    def _at(self, dx: float, dy: float) -> float:
        # the one scalar evaluation; only custom evaluators see a Vector2
        if self.kind is KernelKind.EUCLIDEAN:
            return math.hypot(dx, dy)
        if self.kind is KernelKind.POWER_LAW:
            return math.hypot(dx, dy) ** self.p
        return float(self.evaluator(Vector2(dx, dy)))

    def __call__(self, d: Vector2) -> float:
        return self._at(d.dx, d.dy)

    def evaluate_many(self, dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
        """Vectorized evaluation on arrays of displacement components."""
        if self.kind is KernelKind.EUCLIDEAN:
            return np.hypot(dx, dy)
        if self.kind is KernelKind.POWER_LAW:
            return np.hypot(dx, dy) ** self.p
        flat_dx = np.ravel(dx)
        flat_dy = np.ravel(dy)
        out = np.empty(flat_dx.shape, dtype=float)
        for i in range(flat_dx.size):
            out[i] = self._at(flat_dx[i], flat_dy[i])
        return out.reshape(np.shape(dx))

    @property
    def is_euclidean(self) -> bool:
        return self.kind is KernelKind.EUCLIDEAN


@dataclass(frozen=True)
class SegmentIntegral:
    """Integral of a kernel along a segment, with its length and mean."""

    value: float
    segment_length: float
    mean: float

    @classmethod
    def from_value(cls, value: float, length: float) -> "SegmentIntegral":
        mean = value / length if length > 0.0 else 0.0
        return cls(value=value, segment_length=length, mean=mean)


def _closed_antiderivative(u: np.ndarray, c: np.ndarray) -> np.ndarray:
    # antiderivative of sqrt(u^2 + c^2) in u, for c > 0
    return 0.5 * (u * np.hypot(u, c) + c * c * np.arcsinh(u / c))


def closed_values_batch(a: np.ndarray, b: np.ndarray, x) -> np.ndarray:
    """Euclidean segment integrals for stacked segments.

    a, b: (m, 2) arrays of segment endpoints; x: query point (length-2).
    Returns the (m,) array of arclength integrals of |P - x| over each
    segment. Parameterized by arclength fraction so conditioning does not
    depend on absolute scale; a separate branch handles query points on
    the carrier line of a segment, where the logarithm degenerates.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    xv = np.asarray(x, dtype=float).reshape(2)
    e = b - a
    L2 = np.sum(e * e, axis=1)
    out = np.zeros(len(a), dtype=float)
    ok = L2 > 0.0
    if not np.any(ok):
        return out
    eo = e[ok]
    L2o = L2[ok]
    w = xv - a[ok]
    t0 = (eo[:, 0] * w[:, 0] + eo[:, 1] * w[:, 1]) / L2o
    c = np.abs(eo[:, 0] * w[:, 1] - eo[:, 1] * w[:, 0]) / L2o
    u1 = -t0
    u2 = 1.0 - t0
    vals = np.empty(len(eo), dtype=float)
    col = c < _COLLINEAR_EPS
    if np.any(col):
        v1, v2 = u1[col], u2[col]
        vals[col] = 0.5 * (v2 * np.abs(v2) - v1 * np.abs(v1))
    gen = ~col
    if np.any(gen):
        vals[gen] = _closed_antiderivative(u2[gen], c[gen]) - _closed_antiderivative(u1[gen], c[gen])
    out[ok] = L2o * vals
    return out


def segment_sigma_closed(a: Point2, b: Point2, x: Point2) -> SegmentIntegral:
    """Exact arclength integral of |P - x| over the segment from a to b.

    A zero-length segment yields value 0 and mean 0.
    """
    av = np.array([[a.x, a.y]])
    bv = np.array([[b.x, b.y]])
    value = float(closed_values_batch(av, bv, (x.x, x.y))[0])
    return SegmentIntegral.from_value(value, a.distance_to(b))


def segment_sigma_quadrature(
    a: Point2,
    b: Point2,
    x: Point2,
    kernel: RadialKernel,
    tol: float = _DEFAULT_QUAD_TOL,
) -> SegmentIntegral:
    """Adaptive Gauss-Kronrod integral of kernel(P - x) along the segment.

    The reported absolute error must satisfy err <= tol * (1 + |value|),
    otherwise NonConvergenceError is raised. Breakpoints are supplied at
    the closest-approach parameter and on a geometric ladder of scales
    around it, so integrand curvature concentrated near the foot of the
    perpendicular (sharpest when x sits almost on the carrier line) is
    resolved instead of slipping between quadrature nodes.
    """
    if tol <= 0.0:
        raise ValueError("tol must be > 0")
    ax, ay, ex, ey = a.x, a.y, b.x - a.x, b.y - a.y
    length = math.hypot(ex, ey)
    if length == 0.0:
        return SegmentIntegral.from_value(0.0, 0.0)

    def integrand(t: float) -> float:
        return kernel._at(ax + t * ex - x.x, ay + t * ey - x.y)

    wx, wy = x.x - ax, x.y - ay
    sq = length * length
    t0 = (ex * wx + ey * wy) / sq
    # perpendicular offset of x from the carrier line, in parameter units;
    # it sets the width of the boundary layer around t0 where the radial
    # kernel bends fastest
    layer = abs(ex * wy - ey * wx) / sq
    breakpoints = []
    if 0.0 < t0 < 1.0:
        breakpoints.append(t0)
    step = layer
    while 0.0 < step < 2.0:
        for cand in (t0 - step, t0 + step):
            if 0.0 < cand < 1.0:
                breakpoints.append(cand)
        step *= 4.0
    points = sorted(set(breakpoints)) or None
    raw = quad(
        integrand,
        0.0,
        1.0,
        epsabs=tol,
        epsrel=tol,
        limit=200,
        points=points,
        full_output=1,
    )
    estimate, abserr = raw[0], raw[1]
    value = length * estimate
    err = length * abserr
    if not math.isfinite(value) or err > tol * (1.0 + abs(value)):
        raise NonConvergenceError(
            f"segment quadrature error {err:.3e} exceeds tol*(1+|value|) "
            f"= {tol * (1.0 + abs(value)):.3e}"
        )
    return SegmentIntegral.from_value(value, length)

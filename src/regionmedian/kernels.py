"""Line integrals of radial cost kernels along straight segments.

The central quantity is the arclength integral of f(P - x) over a segment,
for f the Euclidean norm (closed form) or a general radial kernel
(Gauss-Kronrod quadrature: one batched pass over stacked segments, or
scipy's ``quad`` on one segment as an independent reference). Kernels
evaluate whole arrays of displacement components, custom ones through
an evaluator of (dx, dy) arrays. Both batched routes also return each
integral's gradient in x: in closed form, or integrated at the same
Gauss-Kronrod nodes as the values.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import NonConvergenceError

__all__ = ["KernelKind", "RadialKernel"]

# below this perpendicular offset (as a fraction of segment length) the
# logarithmic term of the antiderivative degenerates; switch to the exact
# piecewise formula for a query point on the segment's line
_COLLINEAR_EPS = 1e-12

# edge quadrature tolerance of every solve and CLI command
_QUAD_TOL = 1e-13


class KernelKind(Enum):
    EUCLIDEAN = "euclidean"
    POWER_LAW = "power_law"
    CUSTOM = "custom"


@dataclass(frozen=True)
class RadialKernel:
    """A cost kernel evaluated on arrays of displacement components.

    Use the factory classmethods; the constructor does not validate
    cross-field consistency beyond what they set up.
    """

    kind: KernelKind
    p: Optional[float] = None
    evaluator: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None

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
    def custom(cls, evaluator: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> "RadialKernel":
        """Wrap an arbitrary continuous map (dx, dy) -> real, applied elementwise.

        The evaluator takes two float arrays of one shape, the displacement
        components, and returns an array of that shape; it must be finite
        on bounded sets and side-effect-free. One call on four probe
        displacements checks the shape and finiteness of its output.
        """
        dx, dy = np.array([0.0, 1.0, -0.5, 3.0]), np.array([0.0, 0.0, 2.0, -4.0])
        val = np.asarray(evaluator(dx, dy), dtype=float)
        if val.shape != dx.shape:
            raise ValueError(f"custom kernel evaluator returned shape {val.shape} for inputs of shape {dx.shape}")
        if not np.all(np.isfinite(val)):
            raise ValueError(f"custom kernel evaluator returned non-finite values {val.tolist()} at probes "
                             f"dx={dx.tolist()}, dy={dy.tolist()}")
        return cls(KernelKind.CUSTOM, evaluator=evaluator)

    def evaluate_many(self, dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
        """Vectorized evaluation on arrays of displacement components."""
        if self.kind is KernelKind.EUCLIDEAN:
            return np.hypot(dx, dy)
        if self.kind is KernelKind.POWER_LAW:
            return np.hypot(dx, dy) ** self.p
        return np.asarray(self.evaluator(dx, dy), dtype=float)

    def gradient_many(self, dx: np.ndarray, dy: np.ndarray, values: np.ndarray, step: float):
        """Kernel gradient (d/ddx, d/ddy) at the displacements, given the values there.

        Power kernels use grad k(w) = p k(w) w / |w|^2, and 0 where w = 0;
        custom kernels take central differences of ``step`` in one
        evaluator call.
        """
        if self.kind is KernelKind.CUSTOM:
            f = np.asarray(self.evaluator(np.stack([dx + step, dx - step, dx, dx]),
                                          np.stack([dy, dy, dy + step, dy - step])), dtype=float)
            return (f[0] - f[1]) / (2.0 * step), (f[2] - f[3]) / (2.0 * step)
        r = np.hypot(dx, dy)
        inv = np.divide(1.0, r, out=np.zeros_like(r), where=r > 0.0)
        s = (1.0 if self.kind is KernelKind.EUCLIDEAN else self.p) * (values * inv)
        return s * (dx * inv), s * (dy * inv)

    @property
    def is_euclidean(self) -> bool:
        return self.kind is KernelKind.EUCLIDEAN


def closed_values_batch(a: np.ndarray, e: np.ndarray, x) -> Tuple[np.ndarray, np.ndarray]:
    """Euclidean segment integrals and their gradients for stacked segments.

    a, e: (m, 2) arrays of segment starts and edge vectors, no edge
    vector zero; x: query point (length-2).
    Returns the (m,) array of arclength integrals V_i of |P - x| over each
    segment and the (m, 2) array of their gradients in x,
    -integral of (P - x)/|P - x| ds. Parameterized by arclength fraction
    so conditioning does not depend on absolute scale; a separate branch
    handles query points on the carrier line of a segment, where the
    logarithm degenerates.
    """
    e = np.asarray(e, dtype=float)
    w = np.asarray(x, dtype=float).reshape(2) - np.asarray(a, dtype=float)
    ex, ey = e[:, 0], e[:, 1]
    L2 = ex * ex + ey * ey
    # with u = t - t0 and the signed offset cs, P - x = u e - cs rotate90(e)
    # and |P - x| = L hypot(u, cs), all in parameter units
    t0 = (ex * w[:, 0] + ey * w[:, 1]) / L2
    cs = (ex * w[:, 1] - ey * w[:, 0]) / L2
    c = np.abs(cs)
    # rows u1 = -t0 and u2 = 1 - t0: both segment ends in one pass
    u = np.empty((2, len(t0)))
    np.negative(t0, out=u[0])
    np.subtract(1.0, t0, out=u[1])
    col = c < _COLLINEAR_EPS
    any_col = bool(np.any(col))
    if any_col:
        # stand-in offset; these rows take the piecewise formulas below
        c = np.where(col, 1.0, c)
    r = np.hypot(u, c)
    s = np.arcsinh(u / c)
    # antiderivative of hypot(u, c) in u: (u hypot(u, c) + c^2 asinh(u/c)) / 2
    f = 0.5 * (u * r + c * c * s)
    vals = f[1] - f[0]
    # r2 - r1 without cancellation, since u2 - u1 = 1
    along = (u[0] + u[1]) / (r[0] + r[1])
    normal = cs * (s[1] - s[0])
    if any_col:
        au = np.abs(u)
        vals = np.where(col, 0.5 * (u[1] * au[1] - u[0] * au[0]), vals)
        along = np.where(col, au[1] - au[0], along)
        normal = np.where(col, 0.0, normal)
    grad = np.empty((len(t0), 2))
    grad[:, 0], grad[:, 1] = -(along * ex + normal * ey), normal * ex - along * ey
    return L2 * vals, grad


def _ladder_panels(t0: np.ndarray, layer: np.ndarray):
    """Initial panels of every edge, as (edge index, start, end) arrays.

    The breakpoints are t0 when it lies in (0, 1), and the ladder
    t0 +- layer*4^k that falls inside (0, 1), for every step layer*4^k in
    (0, 2). ``segment_sigma_quadrature`` hands the same breakpoints to
    ``quad``.
    """
    m = len(t0)
    # layer*4^k < 2 fails once 2k exceeds 1 - exponent(layer); multiplying
    # by a power of four is exact
    k = (1 - int(np.frexp(layer)[1].min())) // 2 + 2
    steps = layer[:, None] * (4.0 ** np.arange(k))
    steps[~(steps < 2.0)] = np.inf
    t0 = t0[:, None]
    # ascending along each row; clamping to [0, 1] (NaN to 0) keeps the
    # order and turns every breakpoint outside (0, 1) into an empty panel
    cand = np.concatenate([np.zeros((m, 1)), t0 - steps[:, ::-1], t0, t0 + steps, np.ones((m, 1))], axis=1)
    cand = np.fmin(np.fmax(cand, 0.0), 1.0)
    lo, hi = cand[:, :-1], cand[:, 1:]
    keep = hi > lo
    return np.nonzero(keep)[0], lo[keep], hi[keep]


# Gauss-Kronrod 10/21 pair (QUADPACK qk21): the nonnegative Kronrod nodes
# of [-1, 1] and their weights; the Gauss nodes are the odd-indexed ones
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077600525520638, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])
# the 21 nodes on [-1, 1] in increasing order; columns of _GK_WEIGHTS are
# the Kronrod and the Gauss weights
_GK_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])
_GK_WEIGHTS = np.zeros((21, 2))
_GK_WEIGHTS[:, 0] = np.concatenate([_WGK[:-1], _WGK[::-1]])
_GK_WEIGHTS[1:10:2, 1] = _WG
_GK_WEIGHTS[11:20:2, 1] = _WG[::-1]
_ROUNDOFF = 50.0 * np.finfo(float).eps
# bisection passes before a segment that still fails is reported
_MAX_PASSES = 50
# panels a segment may gain by bisection (quad's limit on the reference
# route); the roundoff floor of a panel's error does not shrink when it
# is halved, so a tol below it would otherwise double the panels per pass
_MAX_SPLITS = 200
# central-difference step of custom kernel gradients, as a fraction of the
# longest segment of the pass
_KERNEL_FD_STEP = 1e-5


def _gk21(d: np.ndarray, e: np.ndarray, kernel: "RadialKernel", lo: np.ndarray, hi: np.ndarray, step: float):
    """qk21 integral, error estimate and integrated gradient of kernel(P - x) on each panel.

    Panel j spans parameters [lo[j], hi[j]] of the displacement
    d[j] + t e[j], where d[j] is its segment's start minus x; one
    ``evaluate_many`` call covers every node of every panel, and the
    kernel gradient is taken at the same nodes (``step`` for custom
    kernels). Returns an (n, 4) array: the integral of the kernel over t,
    its error estimate, and the integral of each gradient component.
    """
    hlgth = 0.5 * (hi - lo)
    t = (0.5 * (lo + hi))[:, None] + hlgth[:, None] * _GK_NODES
    dx, dy = d[:, :1] + t * e[:, :1], d[:, 1:] + t * e[:, 1:]
    f = kernel.evaluate_many(dx, dy)
    gx, gy = kernel.gradient_many(dx, dy, f, step)
    kg = f @ _GK_WEIGHTS
    resk = kg[:, 0]
    resabs = np.abs(f) @ _GK_WEIGHTS[:, 0] * hlgth
    resasc = np.abs(f - 0.5 * resk[:, None]) @ _GK_WEIGHTS[:, 0] * hlgth
    abserr = np.abs((resk - kg[:, 1]) * hlgth)
    # QUADPACK's scaling of |K - G|, floored at the roundoff of the sum
    flat = resasc == 0.0
    ratio = np.minimum(1.0, 200.0 * abserr / np.where(flat, 1.0, resasc))
    abserr = np.where(flat, abserr, resasc * ratio * np.sqrt(ratio))
    return np.stack([resk * hlgth, np.maximum(_ROUNDOFF * resabs, abserr),
                     gx @ _GK_WEIGHTS[:, 0] * hlgth, gy @ _GK_WEIGHTS[:, 0] * hlgth], axis=1)


def quadrature_values_batch(a, e, x, kernel: "RadialKernel", tol: float = _QUAD_TOL) -> Tuple[np.ndarray, np.ndarray]:
    """Integrals of kernel(P - x) along stacked segments and their gradients, any kernel.

    a, e: (m, 2) arrays of segment starts and edge vectors, no edge
    vector zero; x: query point (length-2). Returns the (m,) array of
    arclength integrals and the (m, 2) array of their gradients in x,
    -integral of grad kernel(P - x) ds, as ``closed_values_batch`` does.

    Each segment is cut at the breakpoints of ``segment_sigma_quadrature``
    and one Gauss-Kronrod 10/21 pass covers every panel of every segment.
    A segment passes when its summed error estimate satisfies
    err <= tol * (1 + |value|). The panels of failing segments whose
    error exceeds their share of that budget are bisected, for at most
    ``_MAX_PASSES`` passes and ``_MAX_SPLITS`` new panels per segment. A
    segment that still fails, or a value that is not finite, raises
    NonConvergenceError. The gradients are integrated on the panels the
    values settle on; custom kernels differentiate with a step of
    ``_KERNEL_FD_STEP`` times the longest segment.
    """
    if tol <= 0.0:
        raise ValueError("tol must be > 0")
    e = np.asarray(e, dtype=float)
    d = np.asarray(a, dtype=float) - np.asarray(x, dtype=float).reshape(2)
    m = len(d)
    lengths = np.hypot(e[:, 0], e[:, 1])
    sq = lengths * lengths
    t0 = -(e[:, 0] * d[:, 0] + e[:, 1] * d[:, 1]) / sq
    layer = np.abs(e[:, 0] * d[:, 1] - e[:, 1] * d[:, 0]) / sq
    step = _KERNEL_FD_STEP * float(lengths.max())
    edge, lo, hi = _ladder_panels(t0, layer)
    limit = np.bincount(edge, minlength=m) + _MAX_SPLITS
    panels = _gk21(d[edge], e[edge], kernel, lo, hi, step)
    for passes in range(_MAX_PASSES + 1):
        err = panels[:, 1]
        value = lengths * np.bincount(edge, weights=panels[:, 0], minlength=m)
        abserr = lengths * np.bincount(edge, weights=err, minlength=m)
        budget = tol * (1.0 + np.abs(value))
        finite = np.isfinite(value) & np.isfinite(abserr)
        bad = ~(finite & (abserr <= budget))
        if not bad.any():
            grads = [np.bincount(edge, weights=panels[:, k], minlength=m) for k in (2, 3)]
            return value, -lengths[:, None] * np.stack(grads, axis=1)
        # if a segment's error exceeds its budget, some panel's error
        # exceeds its equal share of it
        count = np.bincount(edge, minlength=m)
        share = budget / (lengths * count)
        split = bad[edge] & (err > share[edge])
        stuck = ~finite | (count + np.bincount(edge[split], minlength=m) > limit)
        if passes == _MAX_PASSES or stuck.any():
            i = int(np.argmax(stuck)) if stuck.any() else int(np.argmax(bad))
            raise NonConvergenceError(
                f"segment quadrature error {abserr[i]:.3e} exceeds tol*(1+|value|) "
                f"= {budget[i]:.3e}"
            )
        keep = ~split
        mid = 0.5 * (lo[split] + hi[split])
        halves = np.concatenate([edge[split], edge[split]])
        new_lo = np.concatenate([lo[split], mid])
        new_hi = np.concatenate([mid, hi[split]])
        new_panels = _gk21(d[halves], e[halves], kernel, new_lo, new_hi, step)
        edge = np.concatenate([edge[keep], halves])
        lo = np.concatenate([lo[keep], new_lo])
        hi = np.concatenate([hi[keep], new_hi])
        panels = np.concatenate([panels[keep], new_panels])


def segment_sigma_quadrature(a, e, x, kernel: RadialKernel, tol: float = _QUAD_TOL) -> float:
    """Integral of kernel(P - x) along the segment a + t e, 0 <= t <= 1, by scipy's ``quad``.

    The independent per-segment reference for ``quadrature_values_batch``:
    a, e and x are length-2 arrays, e not zero. The reported absolute
    error must satisfy err <= tol * (1 + |value|), otherwise
    NonConvergenceError is raised. ``quad`` gets the breakpoints of the
    batched route, so integrand curvature concentrated near the foot of
    the perpendicular (sharpest when x sits almost on the carrier line)
    is resolved instead of slipping between quadrature nodes.

    It needs scipy, from the ``test`` extra. No solve or CLI command
    takes it; it stays in the package only because ``bench/spans.py``
    wraps it by name (ROADMAP item 1).

    Under p = 1.5, with x at an endpoint of the segment, ``quad`` cannot
    meet the tolerance: the derivative of the kernel is singular there,
    and it reports an error of 6.976e-06 for the edge (1,1)->(0,0) at
    (0,0). The batched route gets these edges to 1e-15.
    """
    from scipy.integrate import quad

    if tol <= 0.0:
        raise ValueError("tol must be > 0")
    (ax, ay), (ex, ey), (xx, xy) = (map(float, v) for v in (a, e, x))
    length = math.hypot(ex, ey)

    def integrand(t: float) -> float:
        return float(kernel.evaluate_many(np.float64(ax + t * ex - xx), np.float64(ay + t * ey - xy)))

    wx, wy = xx - ax, xy - ay
    sq = length * length
    t0 = (ex * wx + ey * wy) / sq
    # perpendicular offset of x from the carrier line, in parameter units;
    # it sets the width of the boundary layer around t0 where the radial
    # kernel bends fastest
    layer = abs(ex * wy - ey * wx) / sq
    # the panels' inner ends are the breakpoints of the batched route
    _, starts, _ = _ladder_panels(np.array([t0]), np.array([layer]))
    points = starts[1:].tolist() or None
    estimate, abserr = quad(integrand, 0.0, 1.0, epsabs=tol, epsrel=tol, limit=200, points=points, full_output=1)[:2]
    value = length * estimate
    err = length * abserr
    if not math.isfinite(value) or err > tol * (1.0 + abs(value)):
        raise NonConvergenceError(
            f"segment quadrature error {err:.3e} exceeds tol*(1+|value|) "
            f"= {tol * (1.0 + abs(value)):.3e}"
        )
    return value

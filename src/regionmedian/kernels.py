"""Line integrals of radial cost kernels along straight segments.

A kernel is a power |P - x|^p (the Euclidean kernel is p = 1) or, with
``p`` None, a custom evaluator of (dx, dy) arrays; every decision that
depends on the kernel is made in this module. The central quantity is
the arclength integral of f(P - x) over a segment. The kernel picks how
it is computed (``RadialKernel.values_batch``): in closed form for
powers 1 <= p <= 16, integer or not, one formula for every query point
on or off a segment's carrier line, by one batched Gauss-Kronrod pass
over stacked segments for custom kernels, p < 1 and p > 16. scipy's
``quad`` on one segment stays as an independent reference. Both batched
routes also return each integral's gradient in x: in closed form, or
integrated at the same Gauss-Kronrod nodes as the values.

The closed form itself runs on one of two routes with the same bits.
The rows that a ``Polygon`` of a few vertices keeps as Python floats
(``_FloatRows``, built by its constructor, which picks the route) take
the per-segment arithmetic on floats, whose + - * / give numpy's IEEE
results, because on a few elements each numpy call costs about what its
arithmetic does on dozens of floats. hypot, asinh and the power of the
squared lengths stay numpy calls even there, one each: ``math.hypot``,
``math.asinh`` and Python's ``**`` round differently. The squared
lengths are formed once per polygon, with the edge rows, and their
power once per polygon and power, not at every point. Every other
input, arrays or a caller's lists, takes one numpy call per step over
every segment. A fractional power's start (``_fractional_start``, a
table of the integral of cosh^a and a 10-point Gauss-Legendre rule over
its last piece) and its climb are numpy calls on both routes. The float
route returns its lists, which the residual's reduction reads as they
are.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import NonConvergenceError

__all__ = ["RadialKernel"]

# floor of the offset c (in edge lengths) that odd powers divide by in
# asinh(u/c), so that one formula covers x on an edge's carrier line. At
# 2^-64, c^2 asinh(u/c) stays below half an ulp of u r and hypot(u, c) =
# |u| for |u| above about 1e-10, so p = 1 values keep their bits; r^15 at
# a vertex is 2^-960, a normal number, so no odd power up to
# _MAX_CLOSED_POWER underflows; and u/c overflows only past |u| ~ 1e289
_MIN_OFFSET = 2.0 ** -64

# smallest normal float, whose reciprocal is finite
_MIN_NORMAL = 2.0 ** -1022

# smallest subnormal float
_MIN_SUBNORMAL = 2.0 ** -1074

# edge quadrature tolerance of every solve and route, read at each call
_QUAD_TOL = 1e-13

# largest power whose edge integrals take the closed form, and larger
# powers take quadrature. The reduction climbs p/2 steps in
# parameter units, where an edge's integral reaches (D/L)^(p+1) for x at
# distance D from an edge of length L: below the cap that overflows only
# past D/L ~ 1e18, while at p = 32 an edge 1e-10 of the diameter long
# already overflows a solve
_MAX_CLOSED_POWER = 16

# the table of fractional powers' start: the integral of cosh^a at steps
# of _TAU_STEP up to _TAU_FAR, where its far form takes over
_TAU_STEP = 0.5
_TAU_FAR = 20.0
_SINH_FAR = math.sinh(_TAU_FAR)
_EXP_FAR = math.exp(_TAU_FAR)

# the float route's parameters, offsets and squared lengths stay below
# this bound, so that its numpy calls cannot overflow: hypot stays below
# 2^130, and the scale L2^((p-1)/2) below 2^960
_FLOAT_BOUND = 2.0 ** 128


class _FloatRows(list):
    """Rows (x, y) of Python floats: the segment starts or edge vectors
    of a polygon on the float route, as ``geometry.Polygon`` keeps them.
    Only a Polygon builds them, and ``closed_values_batch`` takes its
    float route exactly for them; a caller's list, of ints say, is read
    as an array of floats. Edge rows, from ``_edge_rows``, also carry
    what the float closed form reads at every point: the squared lengths
    ``squares``, their largest, ``top``, and ``scale``, the pair (p, the
    scales L^(p-1)) of the last power p > 1 it took, or None."""

    __slots__ = ("squares", "top", "scale")


def _edge_rows(exs: list, eys: list) -> _FloatRows:
    """A polygon's edge vectors as ``_FloatRows``, their squared lengths
    formed once, as ``_closed_values_arrays`` forms them."""
    rows = _FloatRows(zip(exs, eys))
    rows.squares = [ex * ex + ey * ey for ex, ey in rows]
    rows.top = max(rows.squares)
    rows.scale = None
    return rows


@dataclass(frozen=True)
class RadialKernel:
    """A cost kernel evaluated on arrays of displacement components.

    ``p`` is the exponent of a power kernel |P - x|^p, and None exactly
    when the kernel wraps a custom ``evaluator``. Use the factory
    classmethods; the constructor does not validate cross-field
    consistency beyond what they set up.
    """

    p: Optional[float] = None
    evaluator: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None

    @classmethod
    def euclidean(cls) -> "RadialKernel":
        """The Euclidean kernel |P - x|, which is ``power(1)``."""
        return cls.power(1.0)

    @classmethod
    def power(cls, p: float) -> "RadialKernel":
        """The power kernel |P - x|^p for a real p > 0; a bool is no exponent."""
        if isinstance(p, (bool, np.bool_)):
            raise ValueError(f"power kernel exponent must be a number, not {p!r}")
        try:
            p = float(p)
        except OverflowError:
            p = math.inf  # an integer past the float range, rejected below
        if not (p > 0.0 and math.isfinite(p)):
            raise ValueError("power kernel exponent must be finite and > 0")
        return cls(p=p)

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
        return cls(evaluator=evaluator)

    @property
    def closed_power(self) -> Optional[float]:
        """The p whose closed form ``closed_values_batch`` integrates this
        kernel: p for a power kernel with 1 <= p <= ``_MAX_CLOSED_POWER``,
        an int when p is an integer; None for custom kernels, p < 1 and
        p > ``_MAX_CLOSED_POWER``."""
        if self.p is not None and 1.0 <= self.p <= _MAX_CLOSED_POWER:
            return int(self.p) if self.p.is_integer() else self.p
        return None

    def values_batch(self, a, e, x) -> Tuple[np.ndarray, np.ndarray]:
        """Integrals of the kernel along stacked segments and their gradients in x.

        The kernel picks the route: ``closed_values_batch`` for powers
        1 <= p <= ``_MAX_CLOSED_POWER``, integer or not,
        ``quadrature_values_batch`` for custom kernels and every other
        power. a and e are (m, 2) arrays, or the ``_FloatRows`` that a
        ``Polygon`` keeps, which quadrature reads as arrays and the closed
        form answers with lists (``closed_values_batch``).
        """
        p = self.closed_power
        if p is None:
            return quadrature_values_batch(a, e, x, self)
        return closed_values_batch(a, e, x, p)

    def evaluate_many(self, dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
        """Vectorized evaluation on arrays of displacement components."""
        if self.p is None:
            return np.asarray(self.evaluator(dx, dy), dtype=float)
        r = np.hypot(dx, dy)
        # r ** 1.0 is r; skipping the power saves a pass over the array
        return r if self.p == 1.0 else r ** self.p

    def gradient_many(self, dx: np.ndarray, dy: np.ndarray, values: np.ndarray, step: float):
        """Kernel gradient (d/ddx, d/ddy) at the displacements, given the values there.

        Power kernels use grad k(w) = p k(w) w / |w|^2, with |w| floored at
        the smallest normal float so that its reciprocal stays finite; at
        w = 0 the value and w are 0, and so is the gradient. Custom kernels
        take central differences of ``step`` in one evaluator call.
        """
        if self.p is None:
            f = np.asarray(self.evaluator(np.stack([dx + step, dx - step, dx, dx]),
                                          np.stack([dy, dy, dy + step, dy - step])), dtype=float)
            return (f[0] - f[1]) / (2.0 * step), (f[2] - f[3]) / (2.0 * step)
        r = np.hypot(dx, dy)
        inv = 1.0 / np.maximum(r, _MIN_NORMAL)
        s = self.p * (values * inv)
        return s * (dx * inv), s * (dy * inv)


def closed_values_batch(a: np.ndarray, e: np.ndarray, x, p: float = 1) -> Tuple[np.ndarray, np.ndarray]:
    """Integrals of |P - x|^p along stacked segments and their gradients, p >= 1.

    a, e: (m, 2) arrays of segment starts and edge vectors, no edge
    vector zero, or the ``_FloatRows`` of both that a ``Polygon`` keeps;
    x: query point (length-2).
    Returns the (m,) array of arclength integrals V_i of |P - x|^p over
    each segment and the (m, 2) array of their gradients in x,
    -integral of p |P - x|^(p-2) (P - x) ds. An integral p, int or
    float, is taken as its int. Parameterized by arclength fraction so
    conditioning does not depend on absolute scale; for odd p the offset
    is floored at ``_MIN_OFFSET`` inside the logarithm, so one formula
    serves query points on a segment's carrier line too.

    With u the parameter along the edge, c the offset of x from its line
    and r = hypot(u, c), all in parameter units, V_i = L^(p+1) (I_p(u2) -
    I_p(u1)) for I_k the antiderivative of r^k, from the reduction
    I_k = (u r^k + k c^2 I_(k-2)) / (k + 1) started at I_-1 = asinh(u/|c|)
    (odd p), I_0 = u (even p) or, for fractional p, ``_fractional_start``'s
    I_q, q = p - 2 floor((p + 1) / 2) (Gradshteyn and Ryzhik, section
    2.27; the reduction holds for real k). The gradient's part along the
    edge is L^(p-1) (r2^p - r1^p), formed with no difference of powers,
    its part normal to it p L^(p-1) c (I_(p-2)(u2) - I_(p-2)(u1)).

    Two routes give the same bits. A polygon's ``_FloatRows`` take
    ``_closed_values_floats``, on Python floats, with the point's two
    numbers as they are; every other input takes ``_closed_values_arrays``,
    one numpy call per step over all segments. The float route keeps
    numpy's hypot, asinh and power, one call each, because ``math.hypot``,
    ``math.asinh`` and Python's ``**`` round differently. It hands a
    point it cannot finish on finite floats, or a FloatingPointError or
    ZeroDivisionError, to the array route, which then raises, warns or
    returns as it always does. The float route returns lists, the values
    and the gradients flat, (x, y) of each segment in turn; arrays, a
    caller's lists and a point handed back get arrays.
    """
    p = int(p) if p % 1 == 0 else p
    if type(a) is type(e) is _FloatRows:
        try:
            out = _closed_values_floats(a, e, x, p)
        except (FloatingPointError, ZeroDivisionError):
            out = None
        if out is not None:
            return out
    return _closed_values_arrays(a, e, x, p)


def _closed_values_arrays(a, e: np.ndarray, x, p: float) -> Tuple[np.ndarray, np.ndarray]:
    """``closed_values_batch`` on arrays: every step one numpy call over
    both ends of every segment."""
    w = np.asarray(x, dtype=float).reshape(2) - np.asarray(a, dtype=float)
    e = np.asarray(e, dtype=float)
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
    # odd powers start from asinh(u/c), which the floor keeps finite on the
    # carrier line; even and fractional ones need no floor
    if p % 2 == 1:
        c = np.maximum(c, _MIN_OFFSET)
    r = np.hypot(u, c)
    low, high = _ladder(u, c, r, p)
    vals = high[1] - high[0]
    # r2 - r1 without cancellation, since u2 - u1 = 1; r2^p - r1^p is
    # that times _power_sum, or _fractional_power_difference of it
    along = (u[0] + u[1]) / (r[0] + r[1])
    normal = cs * (low[1] - low[0])
    if p > 1:
        # L^(p-1) scales the gradient, L^(p+1) the values
        scale = L2 ** (0.5 * (p - 1))
        if p % 1:
            along = scale * _fractional_power_difference(along, r[0], r[1], p)
        else:
            along = scale * (along * _power_sum(r[0], r[1], p))
        normal, L2 = scale * (p * normal), scale * L2
    grad = np.empty((len(t0), 2))
    grad[:, 0], grad[:, 1] = -(along * ex + normal * ey), normal * ex - along * ey
    return L2 * vals, grad


def _ladder(u, c, r, p):
    """I_(p-2) and I_p at the parameters u, on arrays of any shape that
    broadcast with the offsets c and the radii r = hypot(u, c).

    I_1 from I_-1 = asinh(u/c), I_2 from I_0 = u, or, for fractional p,
    I_(q+2) from ``_fractional_start``'s I_q, q = p - 2 floor((p + 1) / 2)
    in (-1, 1); then up the reduction to I_p. Each rung k = p - 2j is
    exact, so the climb ends at k = p.
    """
    c2 = c * c
    if p % 1:
        k = p - 2.0 * math.floor(0.5 * (p + 1.0)) + 2.0
        rk, low = r ** k, _fractional_start(u, c, r, k - 1.0)
        high = (u * rk + k * c2 * low) / (k + 1.0)
    elif p % 2:
        k, rk, low = 1, r, np.arcsinh(u / c)
        high = 0.5 * (u * r + c2 * low)
    else:
        k, rk, low = 2, r * r, u
        high = (u * rk + 2.0 * c2 * u) / 3.0
    while k < p:
        k, rk, low = k + 2, rk * r * r, high
        high = (u * rk + k * c2 * low) / (k + 1)
    return low, high


def _closed_values_floats(starts: _FloatRows, edges: _FloatRows, x, p: float):
    """``closed_values_batch`` on a polygon's ``_FloatRows`` and the two
    numbers of x: the list of values and the flat list of gradients, or
    None where it cannot end on finite values without overflow in a
    numpy call.

    Each step is the elementwise expression of ``_closed_values_arrays``
    in the same order, and Python's + - * / and abs give the IEEE results
    of numpy's ufuncs. hypot, asinh and the power of the scale stay numpy
    calls, one each over a flat array of the segment ends or segments:
    ``math.asinh`` and ``math.hypot`` round differently from numpy's, and
    so does Python's ``**``. Offsets, parameters and squared lengths past
    ``_FLOAT_BOUND`` are left to the array route before those calls, so
    that none of them can overflow and warn. The squared lengths and
    their largest come from ``edges``, formed once per polygon, and so
    does the scale, once per power.
    """
    xx, xy = map(float, x)
    m = len(edges)
    L2 = edges.squares
    cs, c, u1, u2 = [], [], [], []
    for (ex, ey), (ax, ay), l2 in zip(edges, starts, L2):
        wx, wy = xx - ax, xy - ay
        t0 = (ex * wx + ey * wy) / l2
        s = (ex * wy - ey * wx) / l2
        cs.append(s)
        c.append(abs(s))
        u1.append(-t0)
        u2.append(1.0 - t0)
    # |u2| <= |u1| + 1; a NaN that max or min keeps fails a comparison,
    # and one they pass over warns in no numpy call and fails the check
    # at the end
    bound = _FLOAT_BOUND
    if p % 1:
        # fractional powers climb in numpy, whose u r^p must not overflow
        bound = min(bound, 2.0 ** (900.0 / (p + 1.0)))
    if not (max(c) < bound and edges.top < bound and -bound < min(u1) and max(u1) < bound):
        return None
    if p % 2 == 1:
        c = [_MIN_OFFSET if _MIN_OFFSET > v else v for v in c]
    # u1 of every segment, then u2, then c beside each
    flat = np.fromiter(u1 + u2 + c + c, float, 4 * m)
    u, cc = flat[:2 * m], flat[2 * m:]
    r = np.hypot(u, cc)
    # the scale L^(p-1), unread for p = 1
    scale = L2
    if p > 1:
        if edges.scale is None or edges.scale[0] != p:
            edges.scale = p, (np.array(L2) ** (0.5 * (p - 1))).tolist()
        scale = edges.scale[1]
    vals, grad = [], []
    if p % 1:
        # the start and the climb of fractional powers are numpy calls
        # over every segment end, as on the array route; the rest is floats
        low, high = (v.tolist() for v in _ladder(u, cc, r, p))
        diff = _fractional_power_difference((u[:m] + u[m:]) / (r[:m] + r[m:]), r[:m], r[m:], p).tolist()
        for (ex, ey), la, lb, ha, hb, s, l2, sc, d in zip(edges, low, low[m:], high, high[m:], cs, L2, scale, diff):
            along, normal = sc * d, sc * (p * (s * (lb - la)))
            vals.append((sc * l2) * (hb - ha))
            grad += (-(along * ex + normal * ey), normal * ex - along * ey)
    else:
        r = r.tolist()
        low = np.arcsinh(u / cc).tolist() if p % 2 else u1 + u2
        for (ex, ey), ua, ub, ra, rb, la, lb, ci, s, l2, sc in zip(edges, u1, u2, r, r[m:], low, low[m:], c, cs, L2, scale):
            q = ci * ci
            # the reduction of _closed_values_arrays at both ends
            if p % 2:
                k, rka, rkb = 1, ra, rb
                ha, hb = 0.5 * (ua * ra + q * la), 0.5 * (ub * rb + q * lb)
            else:
                k, rka, rkb = 2, ra * ra, rb * rb
                ha, hb = (ua * rka + 2.0 * q * ua) / 3.0, (ub * rkb + 2.0 * q * ub) / 3.0
            while k < p:
                k, rka, rkb, la, lb = k + 2, rka * ra * ra, rkb * rb * rb, ha, hb
                ha, hb = (ua * rka + k * q * la) / (k + 1), (ub * rkb + k * q * lb) / (k + 1)
            along = (ua + ub) / (ra + rb)
            normal = s * (lb - la)
            if p > 1:
                along = sc * (along * _power_sum(ra, rb, p))
                normal, l2 = sc * (p * normal), sc * l2
            vals.append(l2 * (hb - ha))
            grad += (-(along * ex + normal * ey), normal * ex - along * ey)
    # an infinity or a NaN anywhere makes the sum one too
    if not math.isfinite(sum(grad, sum(vals))):
        return None
    return vals, grad


def _power_sum(r1, r2, p: int):
    """sum of r2^k r1^(p-1-k) over k = 0 .. p-1 for p >= 2, so that
    r2^p - r1^p = (r2 - r1) times it, with no difference of powers; on
    arrays or on floats."""
    total, r2k = r1 + r2, r2 * r2
    for _ in range(p - 2):
        total, r2k = r1 * total + r2k, r2k * r2
    return total


def _fractional_power_difference(d, r1, r2, p: float):
    """r2^p - r1^p on arrays for a fractional p > 1, given d = r2 - r1,
    with no difference of powers: hi^p (1 - (1 - |d|/hi)^p) by expm1 and
    log1p, hi the larger radius."""
    hi = np.maximum(r1, r2)
    # |d| = hi where the smaller radius is 0; below 1 the logarithm stays
    # finite, and (2^-53)^p is below half an ulp of 1
    t = np.minimum(np.abs(d) / hi, 1.0 - 2.0 ** -53)
    return np.copysign(hi ** p * -np.expm1(p * np.log1p(-t)), d)


@functools.lru_cache(maxsize=32)
def _cosh_power_table(a: float):
    """The start of ``_fractional_start`` for the exponent a: K(j h) for
    j = 0 .. _TAU_FAR / h, h = ``_TAU_STEP``, as an array, where K(tau)
    is e^(-a tau) times the integral of cosh^a over [0, tau]; the gap
    K(_TAU_FAR) - 1 / (a 2^a) of its far form; and 2^-a.

    The integral to j h is the exactly rounded sum of the steps over
    [i h - h, i h], each ``_cosh_power_piece`` scaled by e^(a i h).
    """
    half = 2.0 ** -a
    ends = _TAU_STEP * np.arange(round(_TAU_FAR / _TAU_STEP) + 1)
    scale = np.exp(ends) ** a
    steps = (scale[1:] * _cosh_power_piece(ends[1:], np.full(len(ends) - 1, _TAU_STEP), a, half)).tolist()
    table = np.array([math.fsum(steps[:j]) for j in range(len(ends))]) / scale
    return table, table[-1] - half / a, half


def _cosh_power_piece(tau, nu, a: float, half: float):
    """e^(-a tau) times the integral of cosh^a over [tau - nu, tau], on
    arrays, by the 10-point Gauss-Legendre rule in s = tau - sigma;
    half = 2^-a. The integrand (e^-s + e^(s - 2 tau))^a / 2^a is
    cosh(tau - s)^a e^(-a tau), and cannot overflow."""
    ns = nu[..., None] * _GL_NEGATIVE_NODES
    e = np.exp(ns)
    f = (e + np.exp(-2.0 * tau)[..., None] / e) ** a
    return half * nu * np.add.reduce(f * _GL_WEIGHTS, axis=-1)


def _fractional_start(u, c, r, a: float):
    """I_q(u), the integral of (s^2 + c^2)^(q/2) over s from 0 to u, with
    a = q + 1 in (0, 2), on arrays; r = hypot(u, c).

    With X = |u| + r = c e^tau, tau = asinh(|u|/c), it is sign(u) X^a
    K(tau), K(tau) = e^(-a tau) times the integral of cosh^a over
    [0, tau]. Below tau = T = ``_TAU_FAR``, with tau = j h + nu, K(tau) is
    K(j h) e^(-a nu) from the table of ``_cosh_power_table`` plus
    ``_cosh_power_piece`` over [j h, tau]. From there on K(tau) =
    K(T) + (e^(-a (tau - T)) - 1) (K(T) - 1 / (a 2^a)), with e^(-(tau - T))
    = c e^T / X by ``expm1`` and ``log``, so that no power near 1 cancels
    when a is small: it drops terms about e^(-2T) relative, and tends to
    X^a / (a 2^a), the value at c = 0, as c does. The near side is chosen
    by |u| < sinh(T) c, so that no division by c can overflow.
    """
    table, gap, half = _cosh_power_table(a)
    au = np.abs(u)
    x = au + r
    # a NaN lane is far, and its NaN passes to the value
    near = au < _SINH_FAR * c
    all_near = np.count_nonzero(near) == near.size
    # far lanes divide by 1 and stay within the table
    tau = np.arcsinh(au / c) if all_near else np.fmin(np.arcsinh(au / np.where(near, c, 1.0)), _TAU_FAR)
    j, nu = np.divmod(tau, _TAU_STEP)
    value = table[j.astype(np.intp)] * np.exp(-a * nu) + _cosh_power_piece(tau, nu, a, half)
    if not all_near:
        # c <= x, and x = 0 only where c = 0; the floors keep the ratio a
        # number and its logarithm finite there, and where it underflows
        shrink = np.expm1(a * np.log(np.fmax(c / np.fmax(x, _MIN_SUBNORMAL) * _EXP_FAR, _MIN_SUBNORMAL)))
        value = np.where(near, value, table[-1] + shrink * gap)
    return np.copysign(x ** a * value, u)


# the exponents 2k of the ladder's rungs 4^k, as many as the smallest
# subnormal layer takes to reach 2
_RUNG_EXPONENTS = np.arange(0, 1080, 2)


def _ladder_panels(t0: np.ndarray, layer: np.ndarray):
    """Initial panels of every edge, as (edge index, start, end) arrays.

    The breakpoints are t0 when it lies in (0, 1), and the ladder
    t0 +- layer*4^k that falls inside (0, 1), for every step layer*4^k in
    (0, 2). ``segment_sigma_quadrature`` hands the same breakpoints to
    ``quad``.
    """
    # layer*4^k = mant*2^(exp + 2k), exactly, is below 2 once exp + 2k <= 1;
    # capping the exponent at 2 puts every other rung at 2 or more without
    # forming a power past the float range, as a subnormal layer would need
    mant, exp = np.frexp(layer)
    k = max((1 - int(exp.min())) // 2 + 2, 0)
    steps = np.ldexp(mant[:, None], np.minimum(exp[:, None] + _RUNG_EXPONENTS[:k], 2))
    steps[~(steps < 2.0)] = np.inf
    # one row per edge, ascending: 0, t0 - steps reversed, t0, t0 + steps,
    # 1; clamping to [0, 1] (NaN to 0) keeps the order and turns every
    # breakpoint outside (0, 1) into an empty panel
    cand = np.empty((len(t0), 2 * k + 3))
    cand[:, 0], cand[:, k + 1], cand[:, -1] = 0.0, t0, 1.0
    np.subtract(t0[:, None], steps, out=cand[:, k:0:-1])
    np.add(t0[:, None], steps, out=cand[:, k + 2:-1])
    np.fmin(np.fmax(cand, 0.0, out=cand), 1.0, out=cand)
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
# the Gauss nodes of the pair, as a 10-point Gauss-Legendre rule on [0, 1]
# with its nodes negated
_GL_NEGATIVE_NODES = -0.5 - 0.5 * _GK_NODES[1::2]
_GL_WEIGHTS = 0.5 * _GK_WEIGHTS[1::2, 1]
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


def _gk21(cols: np.ndarray, kernel: "RadialKernel", lo: np.ndarray, hi: np.ndarray, step: float):
    """qk21 integral, error estimate and integrated gradient of kernel(P - x) on each panel.

    Panel j spans parameters [lo[j], hi[j]] of the displacement
    (cols[0, j], cols[1, j]) + t (cols[2, j], cols[3, j]): its segment's
    start minus x, and its edge vector. One ``evaluate_many`` call covers
    every node of every panel, and the kernel gradient is taken at the
    same nodes (``step`` for custom kernels). Returns four (n,) arrays:
    the integral of the kernel over t, its error estimate, and the
    integral of each gradient component.
    """
    hlgth = 0.5 * (hi - lo)
    t = (0.5 * (lo + hi))[:, None] + hlgth[:, None] * _GK_NODES
    dx, dy = cols[:2, :, None] + t * cols[2:, :, None]
    f = kernel.evaluate_many(dx, dy)
    gx, gy = kernel.gradient_many(dx, dy, f, step)
    kronrod, gauss = _GK_WEIGHTS.T
    # sums along each panel's own nodes; unlike a matrix product's, they
    # do not depend on the other panels of the pass
    resk, resabs, sgx, sgy = np.add.reduce(np.stack((f, np.abs(f), gx, gy)) * kronrod, axis=-1)
    resasc = np.add.reduce(np.abs(f - 0.5 * resk[:, None]) * kronrod, axis=-1) * hlgth
    abserr = np.abs((resk - np.add.reduce(f * gauss, axis=-1)) * hlgth)
    # QUADPACK's scaling of |K - G|, floored at the roundoff of the sum
    flat = resasc == 0.0
    ratio = np.minimum(1.0, 200.0 * abserr / np.where(flat, 1.0, resasc))
    abserr = np.where(flat, abserr, resasc * ratio * np.sqrt(ratio))
    return resk * hlgth, np.maximum(_ROUNDOFF * (resabs * hlgth), abserr), sgx * hlgth, sgy * hlgth


def quadrature_values_batch(a, e, x, kernel: "RadialKernel") -> Tuple[np.ndarray, np.ndarray]:
    """Integrals of kernel(P - x) along stacked segments and their gradients, any kernel.

    a, e: (m, 2) arrays of segment starts and edge vectors, no edge
    vector zero; x: query point (length-2). Returns the (m,) array of
    arclength integrals and the (m, 2) array of their gradients in x,
    -integral of grad kernel(P - x) ds, as ``closed_values_batch`` does.

    Each segment is cut at the breakpoints of ``segment_sigma_quadrature``
    and one Gauss-Kronrod 10/21 pass covers every panel of every segment.
    A segment passes when its summed error estimate satisfies
    err <= tol * (1 + |value|), with tol = ``_QUAD_TOL``. The panels of
    failing segments whose error exceeds their share of that budget are
    bisected, for at most ``_MAX_PASSES`` passes and ``_MAX_SPLITS`` new
    panels per segment. A segment that still fails, or a value that is
    not finite, raises NonConvergenceError. The gradients are integrated
    on the panels the values settle on; custom kernels differentiate
    with a step of ``_KERNEL_FD_STEP`` times the longest segment.
    """
    # rows: segment start minus x and edge vector, by component
    cols = np.concatenate((a, e), axis=1, dtype=float).T
    cols[:2] -= np.asarray(x, dtype=float).reshape(2, 1)
    dx, dy, ex, ey = cols
    m = len(dx)
    lengths = np.hypot(ex, ey)
    sq = lengths * lengths
    t0 = -(ex * dx + ey * dy) / sq
    layer = np.abs(ex * dy - ey * dx) / sq
    step = _KERNEL_FD_STEP * float(lengths.max())
    edge, lo, hi = _ladder_panels(t0, layer)
    panels = _gk21(cols[:, edge], kernel, lo, hi, step)
    limit = None
    for passes in range(_MAX_PASSES + 1):
        value = lengths * np.bincount(edge, weights=panels[0], minlength=m)
        abserr = lengths * np.bincount(edge, weights=panels[1], minlength=m)
        budget = _QUAD_TOL * (1.0 + np.abs(value))
        # every segment finite and within budget: a NaN error fails the
        # comparison, and an infinite one passes it only beside an infinite
        # value, and so an infinite budget
        if ((abserr <= budget) & np.isfinite(value)).all():
            grad = np.empty((m, 2))
            grad[:, 0] = np.bincount(edge, weights=panels[2], minlength=m)
            grad[:, 1] = np.bincount(edge, weights=panels[3], minlength=m)
            return value, -lengths[:, None] * grad
        finite = np.isfinite(value) & np.isfinite(abserr)
        bad = ~(finite & (abserr <= budget))
        count = np.bincount(edge, minlength=m)
        if limit is None:
            # no panel has been bisected before the first failing pass
            limit = count + _MAX_SPLITS
        # if a segment's error exceeds its budget, some panel's error
        # exceeds its equal share of it
        share = budget / (lengths * count)
        split = bad[edge] & (panels[1] > share[edge])
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
        new_panels = _gk21(cols[:, halves], kernel, new_lo, new_hi, step)
        edge = np.concatenate([edge[keep], halves])
        lo = np.concatenate([lo[keep], new_lo])
        hi = np.concatenate([hi[keep], new_hi])
        panels = [np.concatenate([old[keep], new]) for old, new in zip(panels, new_panels)]


def segment_sigma_quadrature(a, e, x, kernel: RadialKernel) -> float:
    """Integral of kernel(P - x) along the segment a + t e, 0 <= t <= 1, by scipy's ``quad``.

    The independent per-segment reference for ``quadrature_values_batch``:
    a, e and x are length-2 arrays, e not zero. The reported absolute
    error must satisfy err <= tol * (1 + |value|), with tol =
    ``_QUAD_TOL`` as on the batched route, otherwise
    NonConvergenceError is raised. ``quad`` gets the breakpoints of the
    batched route, so integrand curvature concentrated near the foot of
    the perpendicular (sharpest when x sits almost on the carrier line)
    is resolved instead of slipping between quadrature nodes.

    It needs scipy, from the ``test`` extra. No solve or CLI command
    takes it; it stays in the package only because ``bench/spans.py``
    wraps it by name (ROADMAP item 1). Solves take the batched route only
    for custom kernels, p < 1 and p > ``_MAX_CLOSED_POWER``; every other
    power, fractional ones included, takes ``closed_values_batch``.

    Under p = 1.5, with x at an endpoint of the segment, ``quad`` cannot
    meet the tolerance: the derivative of the kernel is singular there,
    and it reports an error of 6.976e-06 for the edge (1,1)->(0,0) at
    (0,0). The batched route gets these edges to 1e-15.
    """
    from scipy.integrate import quad

    tol = _QUAD_TOL
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

"""Shared generators for randomized tests. All randomness flows through
the caller's seeded Generator so every test is reproducible."""
import decimal
import functools
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np

from regionmedian import NonConvergenceError, Point2, Polygon, SingularRegionError, general_boundary_residual
from regionmedian import geometry, kernels
from regionmedian.kernels import (
    _GK_NODES,
    _GK_WEIGHTS,
    _KERNEL_FD_STEP,
    _MAX_PASSES,
    _MAX_SPLITS,
    _MIN_OFFSET,
    _ROUNDOFF,
    RadialKernel,
    closed_values_batch,
)
from regionmedian.oracle import _radial_weights
from regionmedian.residuals import ResidualReport
from regionmedian.solver import (
    _BACKTRACK_FACTOR,
    _MIN_STEP,
    SolveConfig,
    SolveResult,
    _ill_conditioned,
    _validated_region,
)
from regionmedian.triquad import star_rule

# two squares joined by a bar 0.1 wide and 4 long
DUMBBELL = [(0, 0), (2, 0), (2, 0.95), (6, 0.95), (6, 0), (7, 0), (7, 1), (6, 1), (6, 1.05), (2, 1.05),
            (2, 2), (0, 2)]


def closed_value(a, b, x):
    """Closed-form integral of |P - x| along the segment from a to b."""
    a = np.asarray(a, dtype=float)
    return float(closed_values_batch([a], [np.asarray(b, dtype=float) - a], x)[0][0])


def two_endpoint_closed_values(a, e, x, p=1):
    """Reference for ``kernels.closed_values_batch(a, e, x, p)``: the same
    elementwise formulas, evaluated at each segment end by its own numpy
    calls."""
    e = np.asarray(e, dtype=float)
    w = np.asarray(x, dtype=float).reshape(2) - np.asarray(a, dtype=float)
    L2 = np.sum(e * e, axis=1)
    t0 = (e[:, 0] * w[:, 0] + e[:, 1] * w[:, 1]) / L2
    cs = (e[:, 0] * w[:, 1] - e[:, 1] * w[:, 0]) / L2
    c = np.abs(cs)
    if p % 2:
        c = np.maximum(c, _MIN_OFFSET)

    def end(u):
        """r, I_(p-2) and I_p at the parameter u of every segment."""
        r = np.hypot(u, c)
        if p % 2:
            k, rk, low = 1, r, np.arcsinh(u / c)
            high = 0.5 * (u * r + c * c * low)
        else:
            k, rk, low = 2, r * r, u
            high = (u * rk + 2.0 * (c * c) * u) / 3.0
        while k < p:
            k, rk, low = k + 2, rk * r * r, high
            high = (u * rk + k * (c * c) * low) / (k + 1)
        return r, low, high

    u1, u2 = -t0, 1.0 - t0
    (r1, low1, high1), (r2, low2, high2) = end(u1), end(u2)
    vals = high2 - high1
    along = (u1 + u2) / (r1 + r2)
    normal = cs * (low2 - low1)
    if p > 1:
        scale = L2 ** (0.5 * (p - 1))
        total, r2k = r1 + r2, r2 * r2
        for _ in range(p - 2):
            total, r2k = r1 * total + r2k, r2k * r2
        along = scale * (along * total)
        normal, L2 = scale * (p * normal), scale * L2
    grad = np.stack((-(along * e[:, 0] + normal * e[:, 1]), normal * e[:, 0] - along * e[:, 1]), axis=1)
    return L2 * vals, grad


def use_array_routes(monkeypatch):
    """Build every ``Polygon`` on the array routes: its constructor,
    diameter and centroid, ``residuals._frame_residual`` and
    ``kernels.closed_values_batch`` then run on arrays for loops of every
    size, and so does the diameter of a point set. The constructor reads
    the crossover ``geometry._FLOAT_EDGES``, so a polygon keeps the route
    it was built with: build the polygons of a comparison inside the
    patch."""
    monkeypatch.setattr(geometry, "_FLOAT_EDGES", 0)


def decimal_edge_integral(a, e, x, p):
    """Reference for ``closed_values_batch(a, e, x, p)`` on one segment, in
    50-digit decimal arithmetic from the floats as given.

    With s the arclength from the foot of x on the segment's line, d the
    signed offset of x from it and r = sqrt(s^2 + d^2), the integral K_k
    of r^k from the foot to s gives the value K_p(s2) - K_p(s1). For an
    integer p it climbs K_k = (s r^k + k d^2 K_(k-2)) / (k + 1) from
    K_-1 = asinh(s/|d|) = ln(s/|d| + sqrt(s^2/d^2 + 1)), taken odd in s,
    or K_0 = s. For a fractional p, K_k(s) = |d|^(k+1) C_(k+1)(asinh(|s|/|d|)),
    taken odd in s, with C from ``_decimal_cosh_power_integral``: the
    integrals are split at the foot, and no reduction is climbed. The
    gradient in x is -(r2^p - r1^p) along the edge and
    p d (K_(p-2)(s2) - K_(p-2)(s1)) along its normal. Returns the value
    and the gradient as floats."""
    fractional = not float(p).is_integer()
    if fractional:
        p = Decimal(float(p))
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        (ax, ay), (ex, ey), (xx, xy) = ((Decimal(float(v[0])), Decimal(float(v[1]))) for v in (a, e, x))
        length = (ex * ex + ey * ey).sqrt()
        tx, ty = ex / length, ey / length
        wx, wy = xx - ax, xy - ay
        # P - x = s t - d n with n = (-ty, tx)
        d = tx * wy - ty * wx
        ends = (-(tx * wx + ty * wy), length - (tx * wx + ty * wy))

        def asinh(z):
            root = (z * z + 1).sqrt()
            return (abs(z) + root).ln() if z >= 0 else -((-z + root).ln())

        def reduction(s, k):
            """K_k(s) and K_(k-2)(s); for d = 0, s |s|^k / (k + 1) and 0."""
            if d == 0:
                return s * abs(s) ** k / (k + 1), Decimal(0)
            if fractional:
                tau = asinh(abs(s) / abs(d))
                high, low = (abs(d) ** (j + 1) * _decimal_cosh_power_integral(j + 1, tau) for j in (k, k - 2))
                return (high, low) if s >= 0 else (-high, -low)
            r = (s * s + d * d).sqrt()
            low = asinh(s / abs(d)) if k % 2 else s
            j = 1 if k % 2 else 2
            high = (s * r ** j + j * d * d * low) / (j + 1)
            while j < k:
                j += 2
                low, high = high, (s * r ** j + j * d * d * high) / (j + 1)
            return high, low

        (h1, l1), (h2, l2) = (reduction(s, p) for s in ends)
        r1, r2 = ((s * s + d * d).sqrt() for s in ends)
        along = -(r2 ** p - r1 ** p)
        normal = p * d * (l2 - l1)
        gx, gy = along * tx - normal * ty, along * ty + normal * tx
        return float(h2 - h1), np.array([float(gx), float(gy)])


@functools.lru_cache(maxsize=None)
def _decimal_gauss_legendre(n, prec):
    """The n-point Gauss-Legendre rule on [0, 1] at prec decimal digits:
    Newton's method on the Legendre polynomial P_n from numpy's
    nodes, with weights 1 / ((1 - x^2) P_n'(x)^2) for the nodes x of
    [-1, 1]."""
    rule = []
    with decimal.localcontext() as ctx:
        ctx.prec = prec
        for guess in np.polynomial.legendre.leggauss(n)[0]:
            x = Decimal(float(guess))
            for _ in range(5):
                prev, cur = Decimal(1), x
                for k in range(2, n + 1):
                    prev, cur = cur, ((2 * k - 1) * x * cur - (k - 1) * prev) / k
                slope = n * (x * cur - prev) / (x * x - 1)
                x -= cur / slope
            rule.append(((1 + x) / 2, 1 / ((1 - x * x) * slope * slope)))
    return tuple(rule)


def _decimal_cosh_power_integral(alpha, tau):
    """The integral of cosh^alpha over [0, tau], for a real alpha > 0 that
    is not an integer, in the current decimal context: a 32-point
    Gauss-Legendre rule over [0, min(tau, 1)], whose integrand is analytic
    within pi/2 of the interval, then the binomial series cosh^alpha =
    2^-alpha sum_n binom(alpha, n) e^((alpha - 2n) sigma), integrated
    term by term over [1, tau]; its terms fall as e^-2n there."""
    head = min(tau, Decimal(1))
    total = Decimal(0)
    for node, weight in _decimal_gauss_legendre(32, decimal.getcontext().prec):
        grow = (head * node).exp()
        total += weight * (alpha * ((grow + 1 / grow) / 2).ln()).exp()
    total *= head
    if tau > 1:
        coef, n, series = Decimal(1), 0, Decimal(0)
        at_tau, at_one = (alpha * tau).exp(), alpha.exp()
        step_tau, step_one = (-2 * tau).exp(), Decimal(-2).exp()
        while n <= alpha or abs(coef * at_one) > Decimal(10) ** -60 * abs(series):
            series += coef * (at_tau - at_one) / (alpha - 2 * n)
            coef = coef * (alpha - n) / (n + 1)
            n, at_tau, at_one = n + 1, at_tau * step_tau, at_one * step_one
        total += series / Decimal(2) ** alpha
    return total


def divergence_area_integral(poly, x, p):
    """Reference for ``oracle.oracle_sigma(poly, x, RadialKernel.power(p))``
    from the divergence theorem: div(|y|^p y) = (p + 2) |y|^p in the plane,
    and y . n on edge i is twice the signed area A_i of the star triangle
    (x, a_i, a_i+1) over the edge's length, so the area integral of
    |P - x|^p is (2 / (p + 2)) sum_i A_i m_i, m_i the mean of |P - x|^p
    along edge i. The edge integrals are ``decimal_edge_integral``'s for
    integer p and ``kernels.quadrature_values_batch``'s otherwise."""
    x = np.asarray(x, dtype=float).reshape(2)
    a, e = poly.coords, poly.edge_vectors
    q = a - x
    qn = np.concatenate((q[1:], q[:1]))
    areas = 0.5 * (q[:, 0] * qn[:, 1] - q[:, 1] * qn[:, 0])
    if float(p).is_integer():
        integrals = np.array([decimal_edge_integral(ai, ei, x, int(p))[0] for ai, ei in zip(a, e)])
    else:
        integrals = kernels.quadrature_values_batch(a, e, x, RadialKernel.power(p))[0]
    means = integrals / np.hypot(e[:, 0], e[:, 1])
    return 2.0 / (p + 2.0) * float(areas @ means)


def signed_areas(tris):
    """Signed areas of an (M, 3, 2) stack of triangles, positive for
    counterclockwise ones."""
    a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
    return 0.5 * ((b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0]))


def decimal_point_median(points, weights, start):
    """Reference weighted geometric median of a point set: Newton on
    g = sum w_i (x - p_i) / |x - p_i| in 40-digit decimal arithmetic, from
    the float point ``start``, with the floats as given.

    At a data point the points there anchor their weight against the pull
    of the rest, and |g| is the norm of the subgradient nearest 0,
    max(pull - anchor, 0). Returns the point as floats once |g| / W <
    1e-30, W the total weight; raises AssertionError if it does not get
    there, if a Newton step would start from a data point, or if the
    Hessian is singular, as off a data point on a line of points."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        pts = [(Decimal(float(a)), Decimal(float(b))) for a, b in points]
        ws = [Decimal(float(w)) for w in weights]
        total = sum(ws)
        x, y = Decimal(float(start[0])), Decimal(float(start[1]))
        for _ in range(20):
            gx = gy = hxx = hxy = hyy = anchor = Decimal(0)
            for (px, py), w in zip(pts, ws):
                dx, dy = x - px, y - py
                d = (dx * dx + dy * dy).sqrt()
                if d == 0:
                    anchor += w
                    continue
                ux, uy = dx / d, dy / d
                gx += w * ux
                gy += w * uy
                wd = w / d
                hxx += wd * uy * uy
                hxy -= wd * ux * uy
                hyy += wd * ux * ux
            if max((gx * gx + gy * gy).sqrt() - anchor, 0) / total < Decimal("1e-30"):
                return float(x), float(y)
            if anchor:
                raise AssertionError(f"the data point {float(x)!r}, {float(y)!r} is not the median")
            det = hxx * hyy - hxy * hxy
            if det == 0:
                raise AssertionError(f"the Hessian at {float(x)!r}, {float(y)!r} is singular")
            x, y = x - (hyy * gx - hxy * gy) / det, y - (hxx * gy - hxy * gx) / det
        raise AssertionError("the decimal Newton polish did not reach |g| / W < 1e-30")


def clustered_point_set(s):
    """Weighted points in 2 or 3 clusters, the s-th of a seeded corpus."""
    rng = np.random.default_rng(1000 + s)
    k = 2 + s % 2
    centres = rng.normal(size=(k, 2)) * 4.0
    n = int(rng.integers(20, 400))
    spread = rng.uniform(0.05, 0.5)
    pts = centres[rng.integers(0, k, n)] + rng.normal(size=(n, 2)) * spread
    return pts, rng.uniform(0.2, 3.0, n)


def collinear_point_set(seed):
    """Weighted points on a line through a random point, the line along
    one of five directions, and the weighted median of their offsets."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 60))
    t = rng.normal(size=n) * 10.0
    w = rng.uniform(0.2, 3.0, n)
    angle = (0.0, math.pi / 2.0, 0.3, 1.1, math.pi / 4.0)[seed % 5]
    direction = np.array([math.cos(angle), math.sin(angle)])
    base = rng.normal(size=2) * 5.0
    order = np.argsort(t)
    k = order[np.searchsorted(np.cumsum(w[order]), w.sum() / 2.0)]
    return base + t[:, None] * direction, w, base + t[k] * direction


def _reference_ladder_panels(t0, layer):
    """``kernels._ladder_panels`` as one concatenation of five pieces, with
    the rungs layer * 4.0 ** np.arange(k) (which overflow once k > 512)."""
    m = len(t0)
    k = (1 - int(np.frexp(layer)[1].min())) // 2 + 2
    steps = layer[:, None] * (4.0 ** np.arange(k))
    steps[~(steps < 2.0)] = np.inf
    t0 = t0[:, None]
    cand = np.concatenate([np.zeros((m, 1)), t0 - steps[:, ::-1], t0, t0 + steps, np.ones((m, 1))], axis=1)
    cand = np.fmin(np.fmax(cand, 0.0), 1.0)
    lo, hi = cand[:, :-1], cand[:, 1:]
    keep = hi > lo
    return np.nonzero(keep)[0], lo[keep], hi[keep]


def _reference_gk21(d, e, kernel, lo, hi, step):
    """``kernels._gk21`` on (n, 2) rows of starts minus x and edge vectors,
    returning one (n, 4) stack of its four per-panel columns."""
    hlgth = 0.5 * (hi - lo)
    t = (0.5 * (lo + hi))[:, None] + hlgth[:, None] * _GK_NODES
    dx, dy = d[:, :1] + t * e[:, :1], d[:, 1:] + t * e[:, 1:]
    f = kernel.evaluate_many(dx, dy)
    gx, gy = kernel.gradient_many(dx, dy, f, step)
    resk, resg = (np.add.reduce(f * w, axis=1) for w in _GK_WEIGHTS.T)
    resabs = np.add.reduce(np.abs(f) * _GK_WEIGHTS[:, 0], axis=1) * hlgth
    resasc = np.add.reduce(np.abs(f - 0.5 * resk[:, None]) * _GK_WEIGHTS[:, 0], axis=1) * hlgth
    abserr = np.abs((resk - resg) * hlgth)
    flat = resasc == 0.0
    ratio = np.minimum(1.0, 200.0 * abserr / np.where(flat, 1.0, resasc))
    abserr = np.where(flat, abserr, resasc * ratio * np.sqrt(ratio))
    return np.stack([resk * hlgth, np.maximum(_ROUNDOFF * resabs, abserr),
                     np.add.reduce(gx * _GK_WEIGHTS[:, 0], axis=1) * hlgth,
                     np.add.reduce(gy * _GK_WEIGHTS[:, 0], axis=1) * hlgth], axis=1)


def reference_quadrature_values_batch(a, e, x, kernel):
    """Reference for ``kernels.quadrature_values_batch``: the same panels,
    error test, tolerance ``kernels._QUAD_TOL`` read at the call, and float
    expressions, with the bisection bookkeeping built on every pass and
    the panels' columns stacked, sliced and concatenated again."""
    tol = kernels._QUAD_TOL
    e = np.asarray(e, dtype=float)
    d = np.asarray(a, dtype=float) - np.asarray(x, dtype=float).reshape(2)
    m = len(d)
    lengths = np.hypot(e[:, 0], e[:, 1])
    sq = lengths * lengths
    t0 = -(e[:, 0] * d[:, 0] + e[:, 1] * d[:, 1]) / sq
    layer = np.abs(e[:, 0] * d[:, 1] - e[:, 1] * d[:, 0]) / sq
    step = _KERNEL_FD_STEP * float(lengths.max())
    edge, lo, hi = _reference_ladder_panels(t0, layer)
    limit = np.bincount(edge, minlength=m) + _MAX_SPLITS
    panels = _reference_gk21(d[edge], e[edge], kernel, lo, hi, step)
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
        new_panels = _reference_gk21(d[halves], e[halves], kernel, new_lo, new_hi, step)
        edge = np.concatenate([edge[keep], halves])
        lo = np.concatenate([lo[keep], new_lo])
        hi = np.concatenate([hi[keep], new_hi])
        panels = np.concatenate([panels[keep], new_panels])


# a copy of the report-object Newton loop that ``solver.solve_medianoid``
# ran before it moved to plain floats; its results are the reference
@np.errstate(over="raise", invalid="raise")
def reference_solve_medianoid(boundary, kernel, cfg=None):
    """Reference for ``solver.solve_medianoid``: the same damped Newton
    loop on a ``ResidualReport`` and a ``Point2`` per trial point."""
    cfg = cfg or SolveConfig()
    polygon, ox, oy, diam, x = _validated_region(boundary)

    def rep_at(v: np.ndarray) -> ResidualReport:
        at = Point2(float(v[0]), float(v[1]))
        try:
            return general_boundary_residual(polygon, at, kernel)
        except FloatingPointError as exc:
            raise SingularRegionError(f"the kernel integrals overflow the float range: {exc}") from exc

    def absolute(v: np.ndarray) -> Point2:
        return Point2(float(v[0]) + ox, float(v[1]) + oy)

    rep = rep_at(x)
    trace = [(absolute(x), rep.normalized_norm)]
    iterations = 0
    converged = rep.normalized_norm <= cfg.tol_rel
    while not converged and iterations < cfg.max_iter:
        g = rep.gradient.as_array()
        if _ill_conditioned(rep.jacobian):
            # descend along minus the gradient; scale by the diameter to
            # get a step with length units
            gn = math.hypot(g[0], g[1])
            step = -g / max(gn, 1e-300) * min(0.25 * diam, gn / diam)
        else:
            step = np.linalg.solve(np.array(rep.jacobian), -g)

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
        trace.append((absolute(x), rep.normalized_norm))
        converged = rep.normalized_norm <= cfg.tol_rel
    # an increasing radial kernel's roots lie in the hull, within diam of the centroid
    p = kernel.p
    if p is not None and absolute(x).distance_to(trace[0][0]) > diam:
        converged = False
    return SolveResult(
        median=absolute(x),
        iterations=iterations,
        residual_norm=rep.norm,
        normalized_norm=rep.normalized_norm,
        trace=tuple(trace),
        certificate=rep.certificate,
        converged=converged,
        local=p is None or p < 1.0,
        edge_means=rep.edge_means,
    )


def tensor_star_integral(poly, x, kernel, panels=4):
    """Reference for ``oracle._star_objective``: the area integral of
    kernel(P - x) by ``star_rule(panels)`` with the kernel evaluated at
    every node of the tensor rule, S * T per edge, as for any kernel."""
    s, t, w = star_rule(panels)
    q = poly.coords - np.asarray(x, dtype=float)  # a_i - x
    e = poly.edge_vectors  # a_i+1 - a_i
    qn = np.concatenate((q[1:], q[:1]))
    areas = 0.5 * (q[:, 0] * qn[:, 1] - q[:, 1] * qn[:, 0])
    # P - x = s * (q + t * e), as (n, S, T) components
    dx = s[:, None] * (q[:, 0, None] + t * e[:, 0, None])[:, None, :]
    dy = s[:, None] * (q[:, 1, None] + t * e[:, 1, None])[:, None, :]
    vals = kernel.evaluate_many(dx, dy).reshape(len(q), -1)
    return float(areas @ (vals @ w.ravel()))


def star_integral_reference(poly, x, kernel, panels=4):
    """Reference for ``oracle._star_objective`` and the boundary it lays
    out once: the rule as one routine that forms the boundary nodes
    b = q[:, :, None] + t * e[:, :, None] from the polygon on every call."""
    s, t, w = star_rule(panels)
    q = poly.coords - np.asarray(x, dtype=float)  # a_i - x
    e = poly.edge_vectors  # a_i+1 - a_i
    qn = np.concatenate((q[1:], q[:1]))
    areas = 0.5 * (q[:, 0] * qn[:, 1] - q[:, 1] * qn[:, 0])
    # boundary nodes b = q + t * e, as (n, 2, T); P - x = s * b
    b = q[:, :, None] + t * e[:, :, None]
    if kernel.p is None:
        # (n, S, T) components
        vals = kernel.evaluate_many(s[:, None] * b[:, 0, None, :], s[:, None] * b[:, 1, None, :])
        return float(areas @ (vals.reshape(len(q), -1) @ w.ravel()))
    return float(areas @ (kernel.evaluate_many(b[:, 0], b[:, 1]) @ _radial_weights(panels, kernel.p)))


def comb_polygon(teeth, width=0.5, height=4.0):
    """The bar [0, teeth] x [-1, 0] with the teeth [k, k + width] x [0, height],
    k = 0 .. teeth - 1, counterclockwise from (0, -1)."""
    top = [(float(teeth), 0.0)]
    for k in range(teeth - 1, -1, -1):
        top += [(k + width, 0.0), (k + width, height), (float(k), height)]
    return Polygon([(0.0, -1.0), (float(teeth), -1.0)] + top)


def random_convex_polygon(rng, n_max=8, scale=1.0):
    """Random convex polygon with 3..n_max vertices, unit-ish size."""
    from scipy.spatial import ConvexHull

    while True:
        n = int(rng.integers(3, n_max + 1))
        angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
        radii = rng.uniform(0.5, 1.5, n)
        pts = np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1)
        pts = (pts + rng.uniform(-1.0, 1.0, 2)) * scale
        try:
            hull = ConvexHull(pts)
        except Exception:
            continue
        coords = pts[hull.vertices]
        if len(coords) >= 3:
            poly = Polygon(coords)
            if poly.area > 0.3 * scale * scale:
                return poly


def random_triangle(rng, scale=1.0, min_area=0.15):
    """Random triangle with area bounded away from zero."""
    while True:
        coords = rng.uniform(-1.0, 1.0, (3, 2)) * scale
        area = 0.5 * abs(
            (coords[1, 0] - coords[0, 0]) * (coords[2, 1] - coords[0, 1])
            - (coords[1, 1] - coords[0, 1]) * (coords[2, 0] - coords[0, 0])
        )
        if area > min_area * scale * scale:
            return Polygon(coords)


def criterion_04_regions():
    """The 40 regions of acceptance criterion 04: 20 random triangles,
    then 20 random convex polygons of up to 8 vertices, seed 404."""
    rng = np.random.default_rng(404)
    regions = [random_triangle(rng) for _ in range(20)]
    return regions + [random_convex_polygon(rng, n_max=8) for _ in range(20)]


def star_loop(rng, n=8):
    """Vertices of a non-convex but simple loop, star-shaped around its
    anchor point, as the benchmark draws its star 8-gons.

    Angles come from a jittered uniform grid so every angular gap stays
    strictly between 0 and pi; with positive radii that is enough to keep
    the loop simple no matter how wild the radii are.
    """
    angles = (np.arange(n) + rng.uniform(0.05, 0.95, n)) * (2.0 * np.pi / n)
    radii = rng.uniform(0.35, 1.5, n)
    return np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1) + rng.uniform(-0.5, 0.5, 2)


def random_star_polygon(rng, n=8, scale=1.0):
    """``star_loop`` as a Polygon, scaled by ``scale``."""
    return Polygon(star_loop(rng, n) * scale)


def similarity_transform(coords, angle, scale, shift):
    """Apply rotation by angle, scaling, then translation to (n, 2) coords."""
    c, s = np.cos(angle), np.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    return (np.asarray(coords, dtype=float) @ rot.T) * scale + np.asarray(shift, dtype=float)


def interior_point(poly, rng):
    """A point strictly inside the polygon, biased toward the centroid."""
    c = poly.centroid.as_array()
    coords = poly.coords
    while True:
        v = coords[int(rng.integers(0, len(coords)))]
        p = c + rng.uniform(0.05, 0.85) * (v - c)
        if poly.contains(p):
            return p


def quadratic_segments_intersect_any(coords):
    """Reference contact test: every non-adjacent edge pair of the closed
    loop, with the same rules as ``geometry._segments_intersect_any``: the
    loop scaled by the same power of two, then each edge meets the other's
    carrier line (min <= 0 <= max over its two orientations, taken from
    the nearer end) and the bounding boxes overlap. Quadratic in n: blocks
    of edges i against the later edges j, each pair by the same
    elementwise expressions, of which only the pairs j > i + 1 that are
    not the wrap-around neighbours (0, n - 1) count."""
    coords = np.asarray(coords, dtype=float)
    exp = 500 - math.frexp(float(np.max(np.abs(coords))))[1]
    a = np.ldexp(coords, exp)
    b = np.roll(a, -1, axis=0)
    n = len(a)
    block = max(1, 2 ** 16 // n)
    for i0 in range(0, n - 2, block):
        # edges i = a -> b down the rows, edges j = c -> d from i0 + 2 on
        # across the columns
        i = np.arange(i0, min(i0 + block, n - 2))[:, None]
        j = np.arange(i0 + 2, n)
        pair = (j > i + 1) & ((i > 0) | (j < n - 1))
        ax, ay, bx, by = a[i, 0], a[i, 1], b[i, 0], b[i, 1]
        cx, cy, dx, dy = a[j, 0], a[j, 1], b[j, 0], b[j, 1]
        fx, fy = dx - cx, dy - cy
        ex, ey = bx - ax, by - ay
        # c and d seen from the end of edge i nearer c, ai and bi from the
        # end of edge j nearer ai (L1 distances; ties keep ai and c)
        to_a = np.abs(cx - ax) + np.abs(cy - ay)
        near_b = np.abs(cx - bx) + np.abs(cy - by) < to_a
        px, py = np.where(near_b, bx, ax), np.where(near_b, by, ay)
        near_d = np.abs(dx - ax) + np.abs(dy - ay) < to_a
        qx, qy = np.where(near_d, dx, cx), np.where(near_d, dy, cy)
        o1 = ex * (cy - py) - ey * (cx - px)
        o2 = ex * (dy - py) - ey * (dx - px)
        o3 = fx * (ay - qy) - fy * (ax - qx)
        o4 = fx * (by - qy) - fy * (bx - qx)
        straddle = ((np.minimum(o1, o2) <= 0) & (np.maximum(o1, o2) >= 0)
                    & (np.minimum(o3, o4) <= 0) & (np.maximum(o3, o4) >= 0))
        boxes = ((np.minimum(ax, bx) <= np.maximum(cx, dx)) & (np.minimum(cx, dx) <= np.maximum(ax, bx))
                 & (np.minimum(ay, by) <= np.maximum(cy, dy)) & (np.minimum(cy, dy) <= np.maximum(ay, by)))
        if np.any(straddle & boxes & pair):
            return True
    return False


def exact_segments_touch(a, b, c, d):
    """Exact reference for one pair of closed segments ab and cd: the same
    four-sign and box rule as ``quadratic_segments_intersect_any``, with
    the orientations in rational arithmetic. Comparing floats is exact, so
    the boxes are compared as given."""
    a, b, c, d = (tuple(map(float, p)) for p in (a, b, c, d))
    if any(min(a[k], b[k]) > max(c[k], d[k]) or min(c[k], d[k]) > max(a[k], b[k]) for k in (0, 1)):
        return False
    a, b, c, d = ((Fraction(x), Fraction(y)) for x, y in (a, b, c, d))

    def orient(p, q, r):
        return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])

    o1, o2, o3, o4 = orient(a, b, c), orient(a, b, d), orient(c, d, a), orient(c, d, b)
    return min(o1, o2) <= 0 <= max(o1, o2) and min(o3, o4) <= 0 <= max(o3, o4)


def all_pairs_diameter(coords, hull=True):
    """Reference diameter: the largest np.sum((q - p) ** 2) over all pairs
    of rows, square-rooted. With ``hull``, the rows are first cut to the
    convex hull's vertices when qhull accepts them, as
    ``geometry._max_pairwise_distance`` does for loops it cannot certify
    convex."""
    from scipy.spatial import ConvexHull, QhullError

    pts = np.asarray(coords, dtype=float)
    if hull and len(pts) > 8:
        try:
            pts = pts[ConvexHull(pts).vertices]
        except QhullError:
            pass
    best = 0.0
    for i in range(len(pts) - 1):
        d2 = np.sum((pts[i + 1:] - pts[i]) ** 2, axis=1)
        best = max(best, float(d2.max()))
    return math.sqrt(best)


def scaled_all_pairs_diameter(coords):
    """Reference diameter without a hull: the largest dx * dx + dy * dy over
    every pair of rows, square-rooted, with the rows first scaled by the
    power of two that ``geometry._max_pairwise_distance`` uses."""
    pts = np.asarray(coords, dtype=float)
    exp = math.frexp(float(np.max(np.abs(pts))))[1]
    pts = np.ldexp(pts, -exp)
    best = 0.0
    for i in range(len(pts) - 1):
        d = pts[i + 1:] - pts[i]
        best = max(best, float(np.max(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1])))
    return math.ldexp(math.sqrt(best), exp)

import math

import numpy as np
import pytest

from helpers import closed_value

from regionmedian import (
    NonConvergenceError,
    Point2,
    Polygon,
    RadialKernel,
    general_boundary_residual,
    solve_medianoid,
)
from regionmedian.kernels import _ladder_panels, closed_values_batch, quadrature_values_batch, segment_sigma_quadrature

SQRT2 = math.sqrt(2.0)


def test_closed_along_own_line():
    # distance grows linearly from an endpoint
    assert math.isclose(closed_value((0, 0), (1, 0), (0, 0)), 0.5, rel_tol=1e-15)


def test_closed_symmetric_halves():
    assert math.isclose(closed_value((-1, 0), (1, 0), (0, 0)), 1.0, rel_tol=1e-15)


def test_closed_perpendicular_offset():
    # crosscheck value: sqrt(2)/2 + log(1 + sqrt(2))/2
    expected = SQRT2 / 2.0 + math.log(1.0 + SQRT2) / 2.0
    assert math.isclose(closed_value((0, 0), (1, 0), (0, 1)), expected, rel_tol=1e-13)


@pytest.mark.parametrize("x, want", [
    ((0.0, 1.0), (1.0 - SQRT2, math.asinh(1.0))),
    ((0.0, 0.0), (-1.0, 0.0)),
    ((0.5, 0.0), (0.0, 0.0)),
    ((3.0, 0.0), (1.0, 0.0)),
    ((-2.0, 0.0), (-1.0, 0.0)),
], ids=["offset", "endpoint", "midpoint", "beyond", "before"])
def test_closed_gradient_by_hand(x, want):
    # grad of V = -integral of (P - x)/|P - x| ds over (0,0)->(1,0)
    _, grads = closed_values_batch([[0.0, 0.0]], [[1.0, 0.0]], x)
    np.testing.assert_allclose(grads[0], want, rtol=1e-15, atol=1e-15)


@pytest.mark.parametrize("x", [(-1.3e8, 1.1e8), (3.1e8, -2.2e8)])
def test_closed_gradient_along_the_edge_does_not_cancel_far_out(x):
    # about 1e8 lengths away the gradient is -L times the unit vector
    # towards the midpoint, up to (L/D)^2 ~ 1e-16; its component along the
    # edge is L (r2 - r1), which errs by up to 1e-8 as a plain difference
    # of the two endpoint distances
    _, grads = closed_values_batch([[0.0, 0.0]], [[2.0, 0.0]], x)
    towards = np.array([1.0, 0.0]) - np.array(x)
    want = -2.0 * towards / np.hypot(*towards)
    assert grads[0][0] == pytest.approx(want[0], rel=1e-14)


def test_closed_orientation_free():
    rng = np.random.default_rng(21)
    for _ in range(300):
        a, b, x = rng.uniform(-4, 4, (3, 2))
        forward = closed_value(a, b, x)
        backward = closed_value(b, a, x)
        assert math.isclose(forward, backward, rel_tol=1e-12, abs_tol=1e-14)


def test_closed_similarity_equivariance():
    rng = np.random.default_rng(22)
    for _ in range(200):
        pts = rng.uniform(-3, 3, (3, 2))
        lam = rng.uniform(0.1, 5.0)
        ang = rng.uniform(0, 2 * math.pi)
        shift = rng.uniform(-10, 10, 2)
        rot = np.array([[math.cos(ang), -math.sin(ang)], [math.sin(ang), math.cos(ang)]])
        moved = pts @ rot.T * lam + shift
        base = closed_value(*pts)
        scaled = closed_value(*moved)
        assert math.isclose(scaled, lam * lam * base, rel_tol=1e-11, abs_tol=1e-13)


def test_closed_mean_bounds():
    rng = np.random.default_rng(23)
    for _ in range(300):
        pa, pb, px = rng.uniform(-4, 4, (3, 2))
        mean = closed_value(pa, pb, px) / math.hypot(*(pb - pa))
        d_a = math.hypot(*(pa - px))
        d_b = math.hypot(*(pb - px))
        # distance from x to the segment (projection clamped to [0, 1])
        e = pb - pa
        t = float(np.clip(np.dot(px - pa, e) / np.dot(e, e), 0.0, 1.0))
        d_min = math.hypot(*(pa + t * e - px))
        assert mean <= max(d_a, d_b) + 1e-12
        assert mean >= d_min - 1e-12


def test_closed_vs_quadrature_including_near_collinear():
    rng = np.random.default_rng(24)
    kernel = RadialKernel.euclidean()
    worst = 0.0
    for trial in range(400):
        pa, pb = rng.uniform(-3, 3, (2, 2))
        if np.allclose(pa, pb):
            continue
        if trial % 4 == 0:
            # push x toward the carrier line to stress the log branch
            t = rng.uniform(-0.5, 1.5)
            off = 10.0 ** rng.uniform(-16, -1) * rng.choice([-1, 1])
            e = pb - pa
            n = np.array([-e[1], e[0]]) / math.hypot(*e)
            px = pa + t * e + off * n
        else:
            px = rng.uniform(-3, 3, 2)
        closed = closed_value(pa, pb, px)
        quad = segment_sigma_quadrature(pa, pb - pa, px, kernel, tol=1e-13)
        rel = abs(closed - quad) / max(abs(quad), 1e-30)
        worst = max(worst, rel)
    assert worst < 1e-12, f"worst relative mismatch {worst:.3e}"


def test_quadrature_power2_from_endpoint():
    value = segment_sigma_quadrature((0, 0), (1, 0), (0, 0), RadialKernel.power(2), tol=1e-12)
    assert math.isclose(value, 1.0 / 3.0, rel_tol=1e-12)


def test_quadrature_rejects_bad_tol():
    with pytest.raises(ValueError):
        segment_sigma_quadrature((0, 0), (1, 0), (0, 1), RadialKernel.euclidean(), tol=0.0)


def test_custom_kernel_routes_through_quadrature():
    kernel = RadialKernel.custom(lambda dx, dy: 1.0 + 0.5 * np.sin(dx) * np.cos(dy))
    value = segment_sigma_quadrature((0, 0), (2, 0), (0.5, 0.5), kernel)
    # reference by dense trapezoid
    t = np.linspace(0.0, 1.0, 20001)
    vals = 1.0 + 0.5 * np.sin(2 * t - 0.5) * np.cos(-0.5)
    ref = 2.0 * np.trapezoid(vals, t)
    assert math.isclose(value, float(ref), rel_tol=1e-8)


def test_custom_kernel_spot_check_rejects_nonfinite():
    with pytest.raises(ValueError, match="non-finite"):
        RadialKernel.custom(lambda dx, dy: np.where(dx > 2, np.inf, 1.0))


@pytest.mark.parametrize("evaluator", [
    lambda dx, dy: 1.0,
    lambda dx, dy: np.hypot(dx, dy)[:2],
    lambda dx, dy: np.stack([dx, dy]),
], ids=["scalar", "short", "stacked"])
def test_custom_kernel_spot_check_rejects_the_wrong_shape(evaluator):
    # the evaluator maps arrays of displacement components elementwise
    with pytest.raises(ValueError, match="shape"):
        RadialKernel.custom(evaluator)


def test_custom_kernel_takes_one_evaluator_call_per_quadrature_pass():
    calls = []

    def evaluator(dx, dy):
        calls.append(np.shape(dx))
        return np.hypot(dx, dy) + 0.1 * (dx * dx + dy * dy)

    kernel = RadialKernel.custom(evaluator)
    assert calls == [(4,)]
    calls.clear()
    quadrature_values_batch(QUAD.coords, QUAD.edge_vectors, (1.7, 0.8), kernel)
    # the values at the nodes, then the four shifted copies for the gradient
    assert len(calls) % 2 == 0 and calls[1] == (4,) + calls[0]


def test_power_kernel_validation():
    with pytest.raises(ValueError):
        RadialKernel.power(0.0)
    with pytest.raises(ValueError):
        RadialKernel.power(-1.0)


def test_segment_integral_nonnegative_for_nonnegative_kernel():
    rng = np.random.default_rng(26)
    for _ in range(100):
        pa, pb, px = rng.uniform(-2, 2, (3, 2))
        assert closed_value(pa, pb, px) >= 0.0


QUAD = Polygon([(0.0, 0.0), (4.0, 0.0), (3.0, 2.0), (0.0, 1.0)])


def _quad_gradient(a, e, x, p):
    """-integral of grad |P - x|^p ds along a + t e by scipy's quad, one
    component at a time, cut at the breakpoints of the batched route."""
    from scipy.integrate import quad

    d = a - x
    sq = float(e @ e)
    t0 = -float(e @ d) / sq
    layer = abs(e[0] * d[1] - e[1] * d[0]) / sq
    _, starts, _ = _ladder_panels(np.array([t0]), np.array([layer]))
    points = starts[1:].tolist() or None

    def integrand(t, k):
        w = d + t * e
        r = math.hypot(*w)
        return p * r ** (p - 1.0) * (w[k] / r)

    length = math.sqrt(sq)
    return np.array([-length * quad(integrand, 0.0, 1.0, args=(k,), epsabs=1e-13 * length ** (p - 1.0),
                                    epsrel=1e-13, limit=200, points=points)[0] for k in range(2)])


@pytest.mark.parametrize("p", [1.0, 1.5, 3.0])
def test_batched_quadrature_matches_the_per_segment_reference(p):
    """One Gauss-Kronrod pass over all edges against scipy's quad per edge,
    for the values and for their gradients in x.

    Query points sit inside, at vertices, at edge midpoints, 1e-9 off an
    edge and outside the region.
    """
    a, e, lengths = QUAD.coords, QUAD.edge_vectors, QUAD.edge_lengths
    kernel = RadialKernel.power(p)
    normal = np.stack([-e[:, 1], e[:, 0]], axis=1) / lengths[:, None]
    points = [np.array([1.7, 0.8]), np.array([-2.0, 3.5]), *a, *(a + 0.5 * e),
              *(a + 0.3 * e + 1e-9 * normal)]
    worst = worst_grad = 0.0
    for x in points:
        got, grads = quadrature_values_batch(a, e, x, kernel, tol=1e-13)
        assert grads.shape == (len(a), 2)
        for j in range(len(a)):
            if np.array_equal(x, a[j]) or np.array_equal(x, a[j] + e[j]):
                # quad cannot resolve the endpoint singularity of the
                # derivative for p = 1.5; the integral is L^(p+1)/(p+1),
                # its gradient -+L^(p-1) e at the start and at the end
                ref = lengths[j] ** (p + 1.0) / (p + 1.0)
                sign = -1.0 if np.array_equal(x, a[j]) else 1.0
                ref_grad = sign * lengths[j] ** (p - 1.0) * e[j]
            else:
                ref = segment_sigma_quadrature(a[j], e[j], x, kernel, tol=1e-13)
                ref_grad = _quad_gradient(a[j], e[j], x, p)
            worst = max(worst, abs(got[j] - ref) / ref)
            # relative to L^p, the size of the gradient; it vanishes at a midpoint
            worst_grad = max(worst_grad, np.max(np.abs(grads[j] - ref_grad)) / lengths[j] ** p)
    assert worst < 1e-13, f"worst relative mismatch {worst:.3e}"
    # panels settle on the values' error only; at a vertex under p = 1.5
    # the gradient's integrand goes as s^(1/2) and errs by about 2e-10
    assert worst_grad < 1e-9, f"worst relative gradient mismatch {worst_grad:.3e}"


def test_batched_quadrature_uses_the_displacement_from_the_query_point():
    # an odd term in dx flips sign under x - P; every kernel in the suite
    # besides this one is even in (dx, dy)
    kernel = RadialKernel.custom(lambda dx, dy: 1.0 + 0.3 * dx + dy * dy)
    a, e, lengths = QUAD.coords, QUAD.edge_vectors, QUAD.edge_lengths
    for x in ((1.7, 0.8), (-1.0, 2.5), tuple(a[2])):
        rep = general_boundary_residual(QUAD, Point2(*x), kernel)
        want = [segment_sigma_quadrature(a[j], e[j], x, kernel) / lengths[j] for j in range(len(a))]
        assert rep.edge_means == pytest.approx(want, rel=1e-13, abs=0.0)
    # the edge (0,0)->(4,0) seen from (0,1): mean of 1 + 0.3*(4t) + 1
    rep = general_boundary_residual(QUAD, Point2(0.0, 1.0), kernel)
    assert rep.edge_means[0] == pytest.approx(2.6, rel=1e-14)


def test_batched_quadrature_rejects_a_kernel_that_turns_nan():
    # NaN on a band of dy that the spot-check probes of custom() miss
    kernel = RadialKernel.custom(lambda dx, dy: np.where((0.2 < dy) & (dy < 1.0), np.nan, 1.0 + np.hypot(dx, dy)))
    a, e = QUAD.coords, QUAD.edge_vectors
    with pytest.raises(NonConvergenceError, match="segment quadrature error"):
        quadrature_values_batch(a, e, (1.5, 0.5), kernel)
    with pytest.raises(NonConvergenceError):
        general_boundary_residual(QUAD, Point2(1.5, 0.5), kernel)
    with pytest.raises(NonConvergenceError):
        solve_medianoid(QUAD, kernel)


def test_batched_quadrature_below_the_roundoff_floor_stops_refining(monkeypatch):
    """A tol no bisection can meet raises instead of doubling the panels.

    Each panel's error is floored at the roundoff of its sum, and that
    floor does not shrink under bisection: tol = 1e-15 under p = 2, and a
    sign-changing kernel whose integral of |f| dwarfs that of f, cannot
    pass. Counting the kernel's nodes makes a runaway refinement fail
    here instead of exhausting memory.
    """
    evaluate_many = RadialKernel.evaluate_many
    nodes = [0]

    def counted(self, dx, dy):
        nodes[0] += np.size(dx)
        assert nodes[0] < 100_000, "refinement does not stop"
        return evaluate_many(self, dx, dy)

    monkeypatch.setattr(RadialKernel, "evaluate_many", counted)
    t345 = Polygon([(0.0, 0.0), (3.0, 0.0), (3.0, 4.0)])
    with pytest.raises(NonConvergenceError, match="segment quadrature error"):
        quadrature_values_batch(t345.coords, t345.edge_vectors, (1.0, 1.0), RadialKernel.power(2.0), tol=1e-15)
    wave = RadialKernel.custom(lambda dx, dy: np.hypot(dx, dy) + 1e6 * np.sin(20.0 * dx))
    nodes[0] = 0
    with pytest.raises(NonConvergenceError, match="segment quadrature error"):
        solve_medianoid(t345, wave)


def test_batched_quadrature_rejects_bad_tol():
    a, e = QUAD.coords, QUAD.edge_vectors
    with pytest.raises(ValueError):
        quadrature_values_batch(a, e, (1.0, 1.0), RadialKernel.power(2.0), tol=0.0)

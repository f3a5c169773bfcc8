"""Boundary residual assembly, route consistency, and certificates."""

import math
import warnings
from typing import NamedTuple

import numpy as np
import pytest

from helpers import (
    closed_value,
    interior_point,
    random_convex_polygon,
    random_star_polygon,
    random_triangle,
    similarity_transform,
    star_loop,
    use_array_routes,
)

from regionmedian import (
    InvalidTriangleError,
    Point2,
    Polygon,
    RadialKernel,
    SingularRegionError,
    Vector2,
    general_boundary_residual,
    mean_distance_certificate,
    polygon_residual,
    rotate90,
    solve_medianoid,
)
from regionmedian import kernels
from regionmedian.kernels import quadrature_values_batch, segment_sigma_quadrature
from regionmedian.oracle import oracle_sigma
from regionmedian import residuals
from regionmedian.residuals import _column_fsums, _spread


T345 = Polygon([(0.0, 0.0), (3.0, 0.0), (3.0, 4.0)])
EQUILATERAL = Polygon([(0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3.0) / 2.0)])


class _QuadratureRoute(NamedTuple):
    """A kernel whose edge integrals take the quadrature route, whatever
    route ``kernel`` takes."""
    kernel: RadialKernel

    def values_batch(self, a, e, x, loop=None):
        return quadrature_values_batch(a, e, x, self.kernel)


def quadrature_residual(poly, x, kernel):
    """The report of the quadrature route, whatever route the kernel takes."""
    return general_boundary_residual(poly, x, _QuadratureRoute(kernel))


def test_equilateral_center_residual_vanishes():
    center = Point2(0.5, math.sqrt(3.0) / 6.0)
    rep = polygon_residual(EQUILATERAL, center)
    assert rep.norm < 1e-14


def test_square_center_residual_vanishes():
    square = Polygon([(0, 0), (2, 0), (2, 2), (0, 2)])
    rep = polygon_residual(square, Point2(1.0, 1.0))
    assert rep.norm < 1e-14


def test_report_fields_are_consistent():
    rep = polygon_residual(T345, Point2(1.2, 1.1))
    assert rep.norm == pytest.approx(math.hypot(rep.residual.dx, rep.residual.dy), rel=1e-15)
    assert rep.normalized_norm == pytest.approx(rep.norm / T345.diameter**2, rel=1e-15)
    assert len(rep.edge_means) == 3
    got = rotate90(rep.residual)
    assert rep.gradient.dx == got.dx and rep.gradient.dy == got.dy


def test_triangle_matches_hand_assembled_sum():
    # the three-edge sum written out longhand, means times edge vectors
    x = Point2(0.7, 1.9)
    rx = ry = 0.0
    verts = [(0.0, 0.0), (3.0, 0.0), (3.0, 4.0)]
    for i in range(3):
        a, b = verts[i], verts[(i + 1) % 3]
        mean = closed_value(a, b, (x.x, x.y)) / math.dist(a, b)
        rx += mean * (b[0] - a[0])
        ry += mean * (b[1] - a[1])
    rep = polygon_residual(T345, x)
    assert rep.residual.dx == pytest.approx(rx, rel=1e-13)
    assert rep.residual.dy == pytest.approx(ry, rel=1e-13)


def test_edge_means_and_gradient_follow_one_rule():
    """Every route reports its edge means, the residual T and the gradient
    rotate90(T, +1).

    T is the sum of edge mean times edge vector. The closed form
    (``polygon_residual`` and the Euclidean kernel's route) and the
    quadrature route (power 1.5 and a custom kernel) must agree with the
    single-segment integrals edge by edge.
    """
    poly = Polygon([(0.0, 0.0), (3.0, 0.0), (3.5, 2.0), (1.0, 4.0), (-0.5, 1.5)])
    x = Point2(1.1, 1.3)
    a, e, lengths, xy = poly.coords, poly.edge_vectors, poly.edge_lengths, (x.x, x.y)
    b = np.roll(a, -1, axis=0)
    bowl = RadialKernel.custom(lambda dx, dy: 1.0 + dx * dx + 0.5 * dy * dy)
    routes = [(polygon_residual(poly, x), [closed_value(a[j], b[j], xy) for j in range(len(a))])]
    for kernel in (RadialKernel.euclidean(), RadialKernel.power(1.5), bowl):
        rep = general_boundary_residual(poly, x, kernel)
        routes.append((rep, [segment_sigma_quadrature(a[j], e[j], xy, kernel) for j in range(len(a))]))
    for rep, values in routes:
        assert rep.edge_means == pytest.approx(list(values / lengths), rel=1e-15)
        tx = math.fsum(m * e[0] for m, e in zip(rep.edge_means, poly.edge_vectors))
        ty = math.fsum(m * e[1] for m, e in zip(rep.edge_means, poly.edge_vectors))
        want = rotate90(Vector2(tx, ty))
        dev = math.hypot(rep.gradient.dx - want.dx, rep.gradient.dy - want.dy)
        assert dev <= 1e-13 * want.norm
        dev = math.hypot(rep.residual.dx - tx, rep.residual.dy - ty)
        assert dev <= 1e-13 * want.norm
    for arr in (poly.edge_vectors, poly.edge_lengths):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_gradient_matches_area_integral_slope():
    """Central differences of the area objective reproduce the gradient.

    Both residual routes are checked: the closed form, Euclidean and
    under a power-3 kernel, and quadrature under the power-3 kernel. The
    step is 1e-5 of the diameter; the area integrals come from the
    independent triangulated quadrature route.
    """
    c = T345.centroid
    h = 1e-5 * T345.diameter
    power3 = RadialKernel.power(3.0)
    routes = [
        (polygon_residual(T345, c), None),
        (general_boundary_residual(T345, c, power3), power3),
        (quadrature_residual(T345, c, power3), power3),
    ]
    for rep, kernel in routes:
        gx = (oracle_sigma(T345, Point2(c.x + h, c.y), kernel) - oracle_sigma(T345, Point2(c.x - h, c.y), kernel)) / (2 * h)
        gy = (oracle_sigma(T345, Point2(c.x, c.y + h), kernel) - oracle_sigma(T345, Point2(c.x, c.y - h), kernel)) / (2 * h)
        dev = math.hypot(rep.gradient.dx - gx, rep.gradient.dy - gy)
        assert dev / math.hypot(gx, gy) < 1e-5


def test_gradient_slope_property_random_regions():
    rng = np.random.default_rng(21)
    for _ in range(5):
        poly = random_convex_polygon(rng, n_max=7)
        px, py = interior_point(poly, rng)
        h = 1e-5 * poly.diameter
        rep = polygon_residual(poly, Point2(px, py))
        gx = (oracle_sigma(poly, Point2(px + h, py)) - oracle_sigma(poly, Point2(px - h, py))) / (2 * h)
        gy = (oracle_sigma(poly, Point2(px, py + h)) - oracle_sigma(poly, Point2(px, py - h))) / (2 * h)
        dev = math.hypot(rep.gradient.dx - gx, rep.gradient.dy - gy)
        assert dev / max(math.hypot(gx, gy), 1e-30) < 1e-4


def test_closed_form_and_quadrature_routes_report_the_same_residual():
    rng = np.random.default_rng(77)
    kern = RadialKernel.euclidean()
    for _ in range(8):
        poly = random_convex_polygon(rng, n_max=6)
        x = Point2(*rng.uniform(-1.5, 1.5, 2))
        closed = polygon_residual(poly, x)
        quad = quadrature_residual(poly, x, kern)
        scale = max(closed.norm, 1e-12)
        assert abs(quad.residual.dx - closed.residual.dx) / scale < 1e-11
        assert abs(quad.residual.dy - closed.residual.dy) / scale < 1e-11


def test_power_two_residual_vanishes_at_centroid():
    # squared-distance objective is minimized at the area centroid
    rng = np.random.default_rng(3)
    kern = RadialKernel.power(2.0)
    for _ in range(6):
        poly = random_convex_polygon(rng, n_max=8)
        c = poly.centroid
        rep = general_boundary_residual(poly, Point2(c.x, c.y), kern)
        assert rep.norm < 1e-9 * poly.diameter**3


def test_constant_kernel_closes_to_zero():
    # the outward normal integrated around any closed loop is zero
    ones = RadialKernel.custom(lambda dx, dy: np.ones_like(dx))
    rep = general_boundary_residual(T345, Point2(0.9, 1.3), ones)
    assert rep.norm == 0.0


def test_regular_polygon_center_residual_vanishes():
    th = 2.0 * np.pi * np.arange(64) / 64
    disk = Polygon(np.stack([0.3 + np.cos(th), -0.2 + np.sin(th)], axis=1))
    rep = polygon_residual(disk, Point2(0.3, -0.2))
    assert rep.norm < 1e-12


def test_similarity_equivariance():
    """Rigid motions carry the residual along; scaling multiplies it.

    Translation leaves the vector unchanged, rotation by R maps it to
    R times the vector, and uniform scaling by s multiplies it by s
    squared (mean distance scales by s, edge vectors by s).
    """
    rng = np.random.default_rng(111)
    for _ in range(10):
        poly = random_convex_polygon(rng, n_max=7)
        x = Point2(*rng.uniform(-1.0, 1.0, 2))
        base = polygon_residual(poly, x).residual
        ang = rng.uniform(0.0, 2.0 * np.pi)
        s = rng.uniform(0.5, 2.0)
        shift = rng.uniform(-4.0, 4.0, 2)
        moved = Polygon(similarity_transform(poly.coords, ang, s, shift))
        xm = similarity_transform(np.array([[x.x, x.y]]), ang, s, shift)[0]
        got = polygon_residual(moved, Point2(*xm)).residual
        ca, sa = math.cos(ang), math.sin(ang)
        want = Vector2(
            s * s * (ca * base.dx - sa * base.dy),
            s * s * (sa * base.dx + ca * base.dy),
        )
        scale = max(1e-12, s * s * math.hypot(base.dx, base.dy))
        assert math.hypot(got.dx - want.dx, got.dy - want.dy) / scale < 1e-12


def test_certificate_square_center_is_balanced():
    cert = mean_distance_certificate(EQUILATERAL, Point2(0.5, math.sqrt(3.0) / 6.0))
    assert cert.spread < 1e-15
    assert max(cert.means) == pytest.approx(min(cert.means), rel=1e-14)


def test_certificate_spread_at_incenter():
    # equal orthogonal distances do not equalize the mean distances
    cert = mean_distance_certificate(T345, Point2(1.0, 1.0))
    assert cert.spread == pytest.approx(0.445832484880116, rel=1e-12)
    assert cert.spread > 0.01


def test_certificate_rejects_non_triangles():
    square = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
    with pytest.raises(InvalidTriangleError):
        mean_distance_certificate(square, Point2(0.5, 0.5))


def test_zero_residual_is_equal_means_for_triangles():
    """For triangles the residual vanishes exactly when means balance.

    Forward: equal means against closed edge vectors telescope to zero.
    Backward: two triangle edges are linearly independent, so the only
    balanced combination with equal total is the all-equal one. Checked
    numerically by comparing the spread against the residual norm.
    """
    rng = np.random.default_rng(40)
    for _ in range(20):
        tri = random_triangle(rng)
        x = Point2(*interior_point(tri, rng))
        rep = polygon_residual(tri, x)
        cert = mean_distance_certificate(tri, x)
        if cert.spread < 1e-14:
            assert rep.normalized_norm < 1e-12
        if rep.normalized_norm > 1e-6:
            assert cert.spread > 1e-9


def test_boundary_loop_accepts_raw_vertex_list():
    loop = [(0.0, 0.0), (3.0, 0.0), (3.0, 4.0)]
    got = general_boundary_residual(loop, Point2(1.0, 1.0), RadialKernel.euclidean())
    want = general_boundary_residual(T345, Point2(1.0, 1.0), RadialKernel.euclidean())
    assert got.residual.dx == pytest.approx(want.residual.dx, abs=1e-13)
    assert got.residual.dy == pytest.approx(want.residual.dy, abs=1e-13)


@pytest.mark.parametrize("coords", [
    [(0.0, 0.0), (2.0, 0.0), (1.0, 1.0)],
    [(0.0, 0.0), (4.0, 0.0), (3.0, 2.0), (0.0, 1.0)],
], ids=["triangle", "quadrilateral"])
@pytest.mark.parametrize("tol", [1e-10, 1e-13])
def test_quadrature_residual_at_every_vertex_gives_the_exact_means(coords, tol, monkeypatch):
    """At a vertex the edges through it have mean L^p/(p+1).

    The power-1.5 kernel's derivative is singular where the edge meets
    x; scipy's quad reports an error of about 7e-6 there and fails. Each
    edge value L^(p+1)/(p+1) must be within tol * (1 + value), with
    ``kernels._QUAD_TOL`` set to tol.
    """
    monkeypatch.setattr(kernels, "_QUAD_TOL", tol)
    p = 1.5
    poly = Polygon(coords)
    kernel = RadialKernel.power(p)
    n = len(coords)
    a, e = poly.coords, poly.edge_vectors
    for i, v in enumerate(coords):
        values, _ = quadrature_values_batch(a, e, v, kernel)
        for j in ((i - 1) % n, i):
            want = poly.edge_lengths[j] ** (p + 1.0) / (p + 1.0)
            assert abs(values[j] - want) <= tol * (1.0 + want)
    if n == 3:
        values, _ = quadrature_values_batch(a, e, (0.0, 0.0), kernel)
        assert values[2] / poly.edge_lengths[2] == pytest.approx(0.6727171322029717, rel=1e-12)


def test_spread_certifies_only_finite_equal_means():
    assert _spread([2.5, 2.5, 2.5]) == 0.0
    assert _spread([0.0, 0.0, 0.0]) == 0.0
    assert _spread([1.0, 2.0, 4.0]) == 0.75
    # a largest mean that is not positive still measures the imbalance
    assert _spread([-3.0, -1.0, -2.0]) == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert _spread([-1.0, 1.0, 0.0]) == 2.0
    assert _spread([1.0, float("nan"), 1.0]) == math.inf
    assert _spread([float("inf")] * 3) == math.inf


def test_certificate_of_a_far_point_certifies_nothing():
    tri = Polygon([(0.0, 0.0), (3.0, 0.0), (3.0, 4.0)])
    with np.errstate(all="ignore"):
        cert = mean_distance_certificate(tri, Point2(1e300, 1e300))
    assert not all(math.isfinite(m) for m in cert.means)
    assert cert.spread == math.inf
    # outside any error state of the caller's, and with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cert = mean_distance_certificate(tri, Point2(1e300, 1e300))
    assert not any(math.isfinite(m) for m in cert.means)
    assert cert.spread == math.inf


def _overflowing_residuals():
    """(loop, point, kernel) whose edge integrals overflow: the triangle
    (0, 0), (3s, 0), (s, 2.5s), s = 2^58.57, under p = 16 at (1.2s, 0.9s),
    where the float closed form hands its point back, and the 3-4-5
    triangle at (1e160, 0) and at (1e308, 1e308) under the Euclidean
    kernel."""
    s = 2.0 ** 58.57
    t345 = [(0.0, 0.0), (3.0, 0.0), (3.0, 4.0)]
    return [([(0.0, 0.0), (3.0 * s, 0.0), (s, 2.5 * s)], (1.2 * s, 0.9 * s), RadialKernel.power(16)),
            (t345, (1e160, 0.0), RadialKernel.euclidean()),
            (t345, (1e308, 1e308), RadialKernel.euclidean())]


@pytest.mark.parametrize("routes", ["float", "array"])
def test_overflowing_edge_integrals_raise_the_package_error_with_no_warning(monkeypatch, routes):
    # the residual owns the solves' overflow rule: no numpy warning, no
    # bare ValueError, and the solver's message, chained to numpy's error.
    # polygon_residual is Euclidean, so it overflows only at the far points
    if routes == "array":
        use_array_routes(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for loop, x, kernel in _overflowing_residuals():
            poly = Polygon(loop)
            assert (poly._floats is not None) == (routes == "float")
            calls = [lambda: general_boundary_residual(poly, x, kernel)]
            if kernel.p == 1:  # polygon_residual and the certificate are Euclidean
                calls.append(lambda: polygon_residual(poly, x))
            for call in calls:
                with pytest.raises(SingularRegionError, match="^the kernel integrals overflow the float range: ") as info:
                    call()
                assert isinstance(info.value.__cause__, FloatingPointError)
            if kernel.p == 1:
                cert = mean_distance_certificate(poly, x)
                assert all(map(math.isnan, cert.means)) and cert.spread == math.inf


def test_report_certificate_is_the_spread_of_a_triangles_edge_means():
    # both routes carry it; mean_distance_certificate reads it from the
    # Euclidean report
    rng = np.random.default_rng(63)
    for _ in range(20):
        tri = random_triangle(rng)
        x = Point2(*interior_point(tri, rng))
        rep = polygon_residual(tri, x)
        assert rep.certificate == _spread(rep.edge_means) == mean_distance_certificate(tri, x).spread
        rep = general_boundary_residual(tri, x, RadialKernel.power(1.5))
        assert rep.certificate == _spread(rep.edge_means)
    quad = random_convex_polygon(rng)
    while len(quad) == 3:
        quad = random_convex_polygon(rng)
    assert polygon_residual(quad, quad.centroid).certificate is None


@pytest.mark.parametrize("routes", ["float", "array"])
def test_certificate_means_are_the_euclidean_reports_bit_for_bit(monkeypatch, routes):
    # at interior, vertex, edge and exterior points of seeded triangles
    if routes == "array":
        use_array_routes(monkeypatch)
    rng = np.random.default_rng(4801)
    for _ in range(12):
        tri = random_triangle(rng)
        assert (tri._floats is not None) == (routes == "float")
        a, b = tri.coords[0], tri.coords[1]
        # a vertex is within one diameter of every point of the region
        for x in (interior_point(tri, rng), tuple(a), tuple(0.5 * (a + b)), tuple(a + tri.diameter)):
            cert = mean_distance_certificate(tri, x)
            rep = general_boundary_residual(tri, x, RadialKernel.euclidean())
            assert [m.hex() for m in cert.means] == [m.hex() for m in rep.edge_means], (routes, x)
            assert cert.spread == rep.certificate


@pytest.mark.parametrize("call", [lambda x: general_boundary_residual(T345, x, RadialKernel.euclidean()),
                                  lambda x: mean_distance_certificate(T345, x),
                                  lambda x: oracle_sigma(T345, x)],
                         ids=["general_boundary_residual", "mean_distance_certificate", "oracle_sigma"])
def test_a_point_that_is_not_finite_is_rejected_up_front(call):
    # Point2's error, before any numpy warning or a message about T
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x, shown in (((math.inf, 0.0), "inf"), ((math.nan, 1.0), "nan"), (np.array([0.0, -math.inf]), "-inf")):
            with pytest.raises(ValueError, match=f"^coordinate is not finite: {shown}$"):
                call(x)


def _offset_regions_and_queries():
    """Seeded triangles and convex polygons offset by 0 to 1e12 diameters,
    each with an interior point, vertex 0 and a point one diameter out."""
    rng = np.random.default_rng(3131)
    for k in range(12):
        base = random_triangle(rng) if k % 2 else random_convex_polygon(rng)
        inner = np.array(interior_point(base, rng))
        for offset in (0.0, 3.0, 1e3, 1e6, 1e12):
            shift = offset * base.diameter * np.array([1.0, -0.5])
            poly = Polygon(base.coords + shift)
            for q in (inner, base.coords[0], inner + base.diameter):
                yield poly, Point2(*(q + shift))


def test_every_residual_entry_point_evaluates_in_the_one_solve_frame():
    # polygon_residual is general_boundary_residual with the Euclidean
    # kernel, and a triangle's certificate reads the report's edge means,
    # bit for bit at every offset
    euclidean = RadialKernel.euclidean()
    for poly, x in _offset_regions_and_queries():
        rep = general_boundary_residual(poly, x, euclidean)
        assert polygon_residual(poly, x) == rep
        if len(poly) == 3:
            cert = mean_distance_certificate(poly, x)
            assert cert.means == rep.edge_means and cert.spread == rep.certificate


def test_every_residual_entry_point_reads_a_tuple_a_point2_or_an_array_alike():
    # the point is read as oracle_sigma and Polygon.contains read it, so
    # each form gives the same report bits, at every offset of the frame
    assert polygon_residual(T345, (1, 1)) == polygon_residual(T345, Point2(1.0, 1.0))
    power = RadialKernel.power(2.5)
    for poly, x in _offset_regions_and_queries():
        forms = [(x.x, x.y), x, np.array([x.x, x.y])]
        assert len({repr(general_boundary_residual(poly, q, power)) for q in forms}) == 1
        assert len({repr(polygon_residual(poly, q)) for q in forms}) == 1
        if len(poly) == 3:
            assert len({repr(mean_distance_certificate(poly, q)) for q in forms}) == 1


def test_a_frame_view_is_its_own_frame():
    # the solver passes its frame polygon, which the residual's frame
    # leaves as it is, so no solve moves a bit
    seen = 0
    for poly, _ in _offset_regions_and_queries():
        view, ox, oy = poly._local_frame()
        seen += view is not poly
        frame = view._local_frame()
        assert frame[0] is view and frame[1:] == (0.0, 0.0)
    assert seen > 0


def _distance_to_boundary(poly, p):
    a = poly.coords
    e = poly.edge_vectors
    t = np.clip(np.sum((p - a) * e, axis=1) / np.sum(e * e, axis=1), 0.0, 1.0)
    return float(np.min(np.hypot(*(a + t[:, None] * e - p).T)))


def _probe_points(poly, rng):
    """Inside, outside, on an edge's carrier line beyond the segment (at
    least 1e-2 diameters from the boundary), and 1e-9 diameters from a
    vertex."""
    diam = poly.diameter
    centre = poly.centroid.as_array()
    theta = rng.uniform(0.0, 2.0 * np.pi, 2)
    outside = centre + diam * rng.uniform(1.0, 2.0) * np.array([np.cos(theta[0]), np.sin(theta[0])])
    beyond = next(
        q
        for i in range(len(poly))
        for t in (1.5, -0.5, 2.0, -1.0)
        for q in [poly.coords[i] + t * poly.edge_vectors[i]]
        if _distance_to_boundary(poly, q) > 1e-2 * diam
    )
    vertex = poly.coords[int(rng.integers(len(poly)))]
    near_vertex = vertex + 1e-9 * diam * np.array([np.cos(theta[1]), np.sin(theta[1])])
    return {"inside": interior_point(poly, rng), "outside": outside, "carrier line": beyond,
            "near vertex": near_vertex}


def _central_difference_jacobian(poly, p, h, residual=polygon_residual):
    jac = np.empty((2, 2))
    for k in range(2):
        step = np.zeros(2)
        step[k] = h
        plus = residual(poly, Point2(*(p + step))).gradient.as_array()
        minus = residual(poly, Point2(*(p - step))).gradient.as_array()
        jac[:, k] = (plus - minus) / (2.0 * h)
    return jac


@pytest.mark.parametrize("make", [random_triangle, random_convex_polygon, random_star_polygon],
                         ids=["triangle", "convex", "star"])
def test_closed_form_jacobian_matches_central_differences(make):
    """The report's Jacobian is the derivative of its gradient.

    Steps are 1e-5 diameters, except 1e-9 diameters from a vertex: there
    every step crosses the boundary, where the area objective's Hessian
    is only log-Lipschitz, so a central difference of step h errs by
    O(h) (about 2e-5 of |J| at h = 1e-5 diameters); 1e-8 diameters is
    small enough and still far above the rounding of the gradient.
    """
    rng = np.random.default_rng(1729)
    for _ in range(12):
        poly = make(rng)
        for where, p in _probe_points(poly, rng).items():
            jac = np.array(polygon_residual(poly, Point2(*p)).jacobian)
            h = (1e-8 if where == "near vertex" else 1e-5) * poly.diameter
            want = _central_difference_jacobian(poly, p, h)
            assert np.max(np.abs(jac - want)) < 1e-6 * np.max(np.abs(jac)), where


@pytest.mark.parametrize("make", [random_triangle, random_convex_polygon, random_star_polygon],
                         ids=["triangle", "convex", "star"])
def test_closed_form_jacobian_is_symmetric_positive_definite(make):
    """J is the Hessian of the strictly convex area objective."""
    rng = np.random.default_rng(2718)
    for _ in range(12):
        poly = make(rng)
        for where, p in _probe_points(poly, rng).items():
            jac = np.array(polygon_residual(poly, Point2(*p)).jacobian)
            scale = np.max(np.abs(jac))
            assert abs(jac[0, 1] - jac[1, 0]) < 1e-13 * scale, where
            assert np.linalg.eigvalsh(0.5 * (jac + jac.T))[0] > 1e-6 * scale, where


def test_jacobian_on_both_routes():
    x = Point2(1.2, 1.1)
    for rep in (polygon_residual(T345, x), general_boundary_residual(T345, x, RadialKernel.power(1.5))):
        assert len(rep.jacobian) == 2 and all(len(row) == 2 for row in rep.jacobian)
        assert all(isinstance(v, float) for row in rep.jacobian for v in row)
        hash(rep)


QUADRATURE_KERNELS = {
    "power1": RadialKernel.power(1.0),
    "power1.5": RadialKernel.power(1.5),
    "power2": RadialKernel.power(2.0),
    "power3": RadialKernel.power(3.0),
    "euclidean": RadialKernel.euclidean(),
    "custom": RadialKernel.custom(lambda dx, dy: np.exp(0.3 * dx) + dy * dy + 0.2 * dx * dy),
}


@pytest.mark.parametrize("name", list(QUADRATURE_KERNELS))
def test_quadrature_jacobian_matches_central_differences(name):
    """The quadrature route's Jacobian is the derivative of its gradient.

    Steps are 1e-5 diameters, as for the closed form: the difference
    quotient then errs by at most about 1e-8 of |J| (p = 1), and the
    residual's quadrature error of about 1e-13 of its size, divided by
    the step, stays below that.
    """
    kernel = QUADRATURE_KERNELS[name]

    def residual(poly, x):
        return quadrature_residual(poly, x, kernel)

    rng = np.random.default_rng(4271)
    for make in (random_triangle, random_convex_polygon, random_star_polygon):
        for _ in range(3):
            poly = make(rng)
            p = interior_point(poly, rng)
            jac = np.array(residual(poly, Point2(*p)).jacobian)
            want = _central_difference_jacobian(poly, p, 1e-5 * poly.diameter, residual)
            assert np.max(np.abs(jac - want)) < 1e-6 * np.max(np.abs(jac)), make.__name__


def test_quadrature_jacobian_of_the_euclidean_kernel_is_the_closed_form_one():
    rng = np.random.default_rng(3141)
    kernel = RadialKernel.euclidean()
    for make in (random_triangle, random_convex_polygon, random_star_polygon):
        for _ in range(4):
            poly = make(rng)
            for where, p in _probe_points(poly, rng).items():
                closed = np.array(polygon_residual(poly, Point2(*p)).jacobian)
                quad = np.array(quadrature_residual(poly, Point2(*p), kernel).jacobian)
                assert np.max(np.abs(quad - closed)) < 1e-12 * np.max(np.abs(closed)), where


@pytest.mark.parametrize("p", [0.5, 1.0, 1.5])
def test_quadrature_jacobian_is_finite_on_the_boundary(p):
    # at a vertex or on an edge a node may meet w = 0, where the kernel
    # gradient is taken as 0, and |w|^(p-1) is singular for p < 1
    quad = Polygon([(0.0, 0.0), (4.0, 0.0), (3.0, 2.0), (0.0, 1.0)])
    kernel = RadialKernel.power(p)
    a, e = quad.coords, quad.edge_vectors
    for x in (*a, *(a + 0.5 * e), *(a + 0.3 * e)):
        with np.errstate(all="raise"):
            rep = quadrature_residual(quad, Point2(*x), kernel)
        assert np.all(np.isfinite(rep.jacobian)), x


def _sum_columns(sums, terms):
    """The hex of each column sum, or the repr of the first error raised."""
    try:
        return [v.hex() for v in sums(terms)]
    except (ValueError, OverflowError) as exc:
        return repr(exc)


def _summand_arrays(rng, count):
    """``count`` seeded (n, k) arrays of 1-20,000 terms (log-uniform n) and
    1-3 columns, in turn from each family: normal terms, exponents over
    +-60 and over -1070..1000, mirrored pairs that cancel to about 1e-15,
    subnormal terms, columns of zeros of either sign, and terms that are
    infinite, NaN or large enough to overflow a partial sum."""
    for j in range(count):
        n = int(math.exp(rng.uniform(0.0, math.log(20000.0))))
        k = int(rng.integers(1, 4))
        family = j % 7
        a = rng.standard_normal((n, k))
        if family == 1:
            a *= 2.0 ** rng.integers(-60, 61, (n, k))
        elif family == 2:
            a = np.ldexp(a / 8.0, rng.integers(-1067, 1004, (n, k)))
        elif family == 3:
            half = a[: (n + 1) // 2] * 2.0 ** rng.integers(-30, 31, ((n + 1) // 2, k))
            a = np.concatenate((half, -half))[rng.permutation(2 * len(half))]
            a[0] += 1e-15 * rng.standard_normal(k)
        elif family == 4:
            a *= 2.0 ** -1060
        elif family == 5:
            a[:, rng.integers(k)] = rng.choice([0.0, -0.0], n)
        elif family == 6:
            for _ in range(int(rng.integers(1, 4))):
                a[rng.integers(n), rng.integers(k)] = rng.choice([math.inf, -math.inf, math.nan, 1.5e308, -1.5e308])
        yield a


def test_column_sums_are_math_fsum_bit_for_bit(monkeypatch):
    # every size takes the extraction, not only those past the crossover
    monkeypatch.setattr(residuals, "_EXTRACT_TERMS", 1)
    rng = np.random.default_rng(46)
    for terms in _summand_arrays(rng, 3000):
        with np.errstate(over="raise", invalid="raise"):
            got = _sum_columns(_column_fsums, terms)
        want = _sum_columns(lambda a: [math.fsum(c) for c in a.T.tolist()], terms)
        assert got == want, (terms.shape, got, want)


def test_column_sums_leave_their_terms_as_they_were():
    for terms in (np.array([[1.0, math.inf], [2.0, 3.0]] * 300), np.ones((3, 400)).T):
        copy = terms.copy()
        assert _column_fsums(terms) == [math.fsum(c) for c in copy.T.tolist()]
        assert np.array_equal(terms, copy)


def test_residual_is_the_correctly_rounded_sum_in_any_edge_order():
    # 15 vertices is the shortest loop on the arrays, where T takes
    # math.fsum; 2048 and 16384 take the extraction of _column_fsums, on
    # wavy loops that the star certificate validates without the sweep
    rng = np.random.default_rng(31)
    for n in [None] * 20 + [15, 2048, 16384]:
        if n is None or n < 1000:
            poly = random_star_polygon(rng, n=n or int(rng.integers(5, 40)))
        else:
            theta = (np.arange(n) + rng.uniform(0.05, 0.95, n)) * (2.0 * np.pi / n)
            r = 1.0 + 0.3 * np.sin(5.0 * theta + rng.uniform(0.0, 2.0 * np.pi))
            poly = Polygon(np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1) + rng.uniform(-0.5, 0.5, 2))
        x = Point2(*interior_point(poly, rng))
        rep = polygon_residual(poly, x)
        terms = np.asarray(rep.edge_means)[:, None] * poly.edge_vectors
        assert rep.residual.dx == math.fsum(terms[:, 0].tolist())
        assert rep.residual.dy == math.fsum(terms[:, 1].tolist())
        shift = int(rng.integers(1, len(poly)))
        rolled = polygon_residual(Polygon(np.roll(poly.coords, shift, axis=0)), x)
        assert rolled.residual == rep.residual


def test_results_carry_python_floats_from_the_array_route(monkeypatch):
    # the array route's means stay a float64 array across the trial points;
    # each result turns its final point's into Python floats once
    rng = np.random.default_rng(47)
    loops = [star_loop(rng, 15), star_loop(rng, 2048)]
    use_array_routes(monkeypatch)
    loops.append(Polygon([(0.0, 0.0), (3.0, 0.0), (3.0, 4.0)]))
    for loop in loops:
        for kernel in (RadialKernel.euclidean(), RadialKernel.power(1.5)):
            result = solve_medianoid(loop, kernel)
            rep = general_boundary_residual(loop, result.median, kernel)
            assert len(result.edge_means) == len(rep.edge_means) == len(loop)
            assert all(type(v) is float for v in result.edge_means + rep.edge_means)
            if len(loop) == 3:
                assert type(result.certificate) is type(rep.certificate) is float
            for out in (result, rep):
                assert "float64" not in repr(out)


def _residual_outcome(poly, x, kernel) -> str:
    """The repr of the report, or the type and message of the exception."""
    try:
        return repr(general_boundary_residual(poly, x, kernel))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def test_a_float_reduction_that_gives_up_takes_the_array_route_with_one_call(monkeypatch):
    # the closed form's lists become arrays only where the float reduction
    # gives up: the report, or the error, is then the array route's, from
    # one closed_values_batch call. The reduction is made to give up on
    # seeded loops; on a triangle of sides near 2^60 under p = 16 the
    # closed form hands its point back, the arrays it returns skip the
    # float reduction, and the overflow of its integrals raises the
    # package error on both routes
    rng = np.random.default_rng(4705)
    big = (np.array([(0.0, 0.0), (3.0, 0.0), (1.0, 2.5)]) * 2.0 ** 58.57).tolist()
    cases = [(star_loop(rng, n), kernel) for n in (3, 6, 14)
             for kernel in (RadialKernel.euclidean(), RadialKernel.power(3), RadialKernel.power(1.5))]
    calls, gave_up = [], []
    real_closed, real_reduction = kernels.closed_values_batch, residuals._float_reduction
    monkeypatch.setattr(kernels, "closed_values_batch", lambda *args: calls.append(1) or real_closed(*args))

    def outcomes(loop, kernel, x):
        on_floats = Polygon(loop)
        calls.clear()
        got = _residual_outcome(on_floats, x, kernel)
        assert on_floats._floats is not None and len(calls) == 1
        with monkeypatch.context() as patch:
            use_array_routes(patch)
            return got, _residual_outcome(Polygon(loop), x, kernel)

    def watched(*args):
        out = real_reduction(*args)
        gave_up.append(out is None)
        return out

    monkeypatch.setattr(residuals, "_float_reduction", watched)
    with np.errstate(all="ignore"):
        got, want = outcomes(big, RadialKernel.power(16), (1.2 * 2.0 ** 58.57, 0.9 * 2.0 ** 58.57))
    assert gave_up == [] and got == want
    assert want.startswith("SingularRegionError: the kernel integrals overflow the float range")
    monkeypatch.setattr(residuals, "_float_reduction", lambda *args: None)
    for loop, kernel in cases:
        for x in (interior_point(Polygon(loop), rng), tuple(loop[1])):
            got, want = outcomes(loop, kernel, x)
            assert got == want and want.startswith("ResidualReport"), (len(loop), kernel, x)

"""Boundary residual assembly, route consistency, and certificates."""

import math
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
)

from regionmedian import (
    InvalidTriangleError,
    Point2,
    Polygon,
    RadialKernel,
    Vector2,
    general_boundary_residual,
    mean_distance_certificate,
    polygon_residual,
    rotate90,
)
from regionmedian import kernels
from regionmedian.kernels import quadrature_values_batch, segment_sigma_quadrature
from regionmedian.oracle import oracle_sigma
from regionmedian.residuals import _spread


T345 = Polygon([(0.0, 0.0), (3.0, 0.0), (3.0, 4.0)])
EQUILATERAL = Polygon([(0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3.0) / 2.0)])


class _QuadratureRoute(NamedTuple):
    """A kernel whose edge integrals take the quadrature route, whatever
    route ``kernel`` takes."""
    kernel: RadialKernel

    def values_batch(self, a, e, x):
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


def test_report_certificate_is_the_spread_of_a_triangles_edge_means():
    # both routes carry it; mean_distance_certificate computes the same
    # spread on its own path
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


def test_residual_is_the_correctly_rounded_sum_in_any_edge_order():
    rng = np.random.default_rng(31)
    for _ in range(20):
        poly = random_star_polygon(rng, n=int(rng.integers(5, 40)))
        x = Point2(*interior_point(poly, rng))
        rep = polygon_residual(poly, x)
        terms = np.asarray(rep.edge_means)[:, None] * poly.edge_vectors
        assert rep.residual.dx == math.fsum(terms[:, 0].tolist())
        assert rep.residual.dy == math.fsum(terms[:, 1].tolist())
        shift = int(rng.integers(1, len(poly)))
        rolled = polygon_residual(Polygon(np.roll(poly.coords, shift, axis=0)), x)
        assert rolled.residual == rep.residual

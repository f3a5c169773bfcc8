"""Area-integration oracle: anchors, closed forms, refinement estimates,
Monte Carlo."""

import math

import numpy as np
import pytest

from helpers import closed_value, interior_point, random_convex_polygon, random_star_polygon

from regionmedian import Point2, Polygon, RadialKernel
from regionmedian.oracle import (
    _PANELS,
    MCEstimate,
    OracleConfig,
    OracleValue,
    _star_integral,
    oracle_minimize,
    oracle_sigma,
    oracle_sigma_mc,
)
from regionmedian.solver import solve_median

UNIT_SQUARE_CENTERED = Polygon([(-0.5, -0.5), (0.5, -0.5), (0.5, 0.5), (-0.5, 0.5)])
T345 = Polygon([(0.0, 0.0), (3.0, 0.0), (3.0, 4.0)])
PENTAGON = Polygon([(0.0, 0.0), (4.0, 0.0), (4.0, 3.0), (2.0, 1.0), (0.0, 3.0)])
# a triangle with a 6.8 degree corner, from the generator of acceptance
# criteria 03 and 04
THIN_TRIANGLE = Polygon([(-0.9886230807172642, 0.5339980559783439),
                         (0.33518253610816773, -0.5554078978008608),
                         (-0.8674080226710119, 0.7016887420013302)])

# mean distance to a uniform point of the unit square, seen from its center,
# times the area: (sqrt(2) + log(1 + sqrt(2))) / 6
SQUARE_CENTER_VALUE = (math.sqrt(2.0) + math.log(1.0 + math.sqrt(2.0))) / 6.0


def test_unit_square_center_anchor():
    v = oracle_sigma(UNIT_SQUARE_CENTERED, Point2(0.0, 0.0))
    assert isinstance(v, OracleValue)
    assert abs(float(v) - SQUARE_CENTER_VALUE) <= max(v.error_estimate, 1e-10)


def test_power_two_square_is_exact():
    # polynomial integrand, inside the exactness degree of the star rule
    v = oracle_sigma(UNIT_SQUARE_CENTERED, Point2(0.0, 0.0), RadialKernel.power(2.0))
    assert float(v) == pytest.approx(1.0 / 6.0, abs=1e-13)


def test_constant_kernel_recovers_area():
    ones = RadialKernel.custom(lambda dx, dy: np.ones_like(dx))
    rng = np.random.default_rng(9)
    for _ in range(4):
        poly = random_convex_polygon(rng)
        v = oracle_sigma(poly, Point2(0.1, 0.2), ones)
        assert float(v) == pytest.approx(poly.area, rel=1e-12)


def test_error_estimate_covers_refinement():
    """The reported estimate bounds the distance to the same rule with
    four times the t-panels, up to rounding."""
    rng = np.random.default_rng(17)
    quad = random_convex_polygon(rng, n_max=4)
    a, b, c = THIN_TRIANGLE.coords
    q = quad.coords
    cases = [
        (THIN_TRIANGLE, (a + b + c) / 3.0),  # interior
        (THIN_TRIANGLE, 0.5 * (a + b)),  # on an edge
        (THIN_TRIANGLE, a),  # a vertex
        (THIN_TRIANGLE, a + 0.3 * (a - b)),  # exterior, on an edge's line
        (THIN_TRIANGLE, (1.0, 1.0)),  # exterior
        (quad, np.asarray(interior_point(quad, rng))),  # interior
        (quad, q[0] + 1e-3 * (q[1] - q[0]) + 1e-3 * (q[2] - q[1])),  # near a vertex
        (quad, 0.3 * q[1] + 0.7 * q[2]),  # on an edge
        (quad, 2.0 * q[2] - q[0]),  # exterior
    ]
    kernels = [RadialKernel.euclidean()] + [RadialKernel.power(p) for p in (1.3, 1.5, 3.0)]
    for poly, x in cases:
        for kernel in kernels:
            v = oracle_sigma(poly, Point2(*x), kernel)
            finer = _star_integral(poly, (float(x[0]), float(x[1])), kernel, 4 * _PANELS)
            assert abs(float(v) - finer) <= 2.0 * v.error_estimate + 1e-14 * abs(finer), (poly, x, kernel)


def _second_moment(coords, x):
    """Integral of |P - x|**2 over the polygon: the polar moment about the
    centroid plus area times the squared centroid offset, all from the
    shoelace sums."""
    px, py = coords[:, 0], coords[:, 1]
    qx, qy = np.roll(px, -1), np.roll(py, -1)
    cross = px * qy - qx * py
    area = 0.5 * cross.sum()
    cx = ((px + qx) * cross).sum() / (6.0 * area)
    cy = ((py + qy) * cross).sum() / (6.0 * area)
    polar_origin = ((px * px + px * qx + qx * qx + py * py + py * qy + qy * qy) * cross).sum() / 12.0
    polar_centroid = polar_origin - area * (cx * cx + cy * cy)
    return polar_centroid + area * ((x[0] - cx) ** 2 + (x[1] - cy) ** 2)


def test_power_two_matches_the_polar_moment():
    kernel = RadialKernel.power(2.0)
    for x in [(2.0, 0.5), (3.5, 2.0), (-1.0, 2.5), (6.0, -2.0), (2.0, 2.0), (1.0, 2.5)]:
        got = float(oracle_sigma(PENTAGON, Point2(*x), kernel))
        want = _second_moment(PENTAGON.coords, x)
        assert abs(got - want) <= 1e-13 * want, x


def test_sliver_limit_matches_segment_integral():
    """Thin rectangles approach the boundary-segment integral linearly."""
    x = Point2(0.0, 1.0)
    closed = closed_value((0.0, 0.0), (1.0, 0.0), (x.x, x.y))
    devs = []
    for w in (1e-3, 1e-4):
        sliver = Polygon([(0.0, 0.0), (1.0, 0.0), (1.0, w), (0.0, w)])
        v = oracle_sigma(sliver, x)
        dev = abs(float(v) / w - closed)
        assert dev <= w
        devs.append(dev)
    # first-order collapse: shrinking w tenfold shrinks the gap tenfold
    assert devs[1] <= 0.2 * devs[0]


def test_exterior_query_point_agrees_with_monte_carlo():
    poly = Polygon([(0, 0), (2, 0), (2, 1), (0, 1)])
    x = Point2(4.0, 3.0)
    v = oracle_sigma(poly, x)
    mc = oracle_sigma_mc(poly, x, cfg=OracleConfig(mc_samples=200_000, seed=4))
    assert abs(float(v) - mc.mean) <= 4.5 * mc.stderr


def test_star_region_agrees_with_monte_carlo():
    # non-convex regions exercise the signed-fan route; Monte Carlo does
    # not triangulate the same way, so agreement is a real cross-check
    rng = np.random.default_rng(23)
    poly = random_star_polygon(rng, n=9)
    x = Point2(*interior_point(poly, rng))
    v = oracle_sigma(poly, x)
    mc = oracle_sigma_mc(poly, x, cfg=OracleConfig(mc_samples=300_000, seed=8))
    assert abs(float(v) - mc.mean) <= 4.5 * mc.stderr


def test_monte_carlo_reports_sane_stderr():
    mc = oracle_sigma_mc(T345, Point2(1.0, 1.5), cfg=OracleConfig(mc_samples=200_000, seed=11))
    assert isinstance(mc, MCEstimate)
    v = oracle_sigma(T345, Point2(1.0, 1.5))
    assert abs(mc.mean - float(v)) <= 4.0 * mc.stderr
    assert 0.0 < mc.stderr < 0.05


def test_monte_carlo_translation_invariance_is_exact():
    """Integer shifts keep cell areas bit-identical, so the sample stream
    and both returned statistics reproduce exactly."""
    base = oracle_sigma_mc(T345, Point2(1.0, 1.5), cfg=OracleConfig(mc_samples=50_000, seed=11))
    shifted_poly = Polygon([(7.0, -2.0), (10.0, -2.0), (10.0, 2.0)])
    shifted = oracle_sigma_mc(shifted_poly, Point2(8.0, -0.5), cfg=OracleConfig(mc_samples=50_000, seed=11))
    assert base.mean == shifted.mean
    assert base.stderr == shifted.stderr


@pytest.mark.parametrize("n_vertices", [3, 5])
def test_minimizer_probe_is_oracle_sigma_bit_for_bit(n_vertices):
    # the probe skips the finer rule, which only the error estimate reads
    cases = {
        3: (T345, [
            (2.0, 1.0),  # interior
            (3.0, 2.0),  # on an edge
            (0.0, 0.0),  # a vertex
            (-1.0, 2.5),  # exterior
        ]),
        5: (PENTAGON, [
            (2.0, 0.5),  # interior, non-convex
            (2.0, 2.0),  # exterior, in the notch
        ]),
    }
    poly, points = cases[n_vertices]
    assert len(poly) == n_vertices
    for kernel in (RadialKernel.euclidean(), RadialKernel.power(1.5)):
        for x in points:
            assert _star_integral(poly, x, kernel) == float(oracle_sigma(poly, Point2(*x), kernel))


def test_minimize_lands_on_symmetric_centers():
    eq = Polygon([(0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3.0) / 2.0)])
    m = oracle_minimize(eq)
    assert math.hypot(m.x - 0.5, m.y - math.sqrt(3.0) / 6.0) < 1e-6
    msq = oracle_minimize(UNIT_SQUARE_CENTERED)
    assert math.hypot(msq.x, msq.y) < 1e-6


def test_minimize_is_vertex_order_invariant():
    tri = Polygon([(0.0, 0.0), (2.2, 0.1), (0.7, 1.9)])
    rolled = Polygon([(0.7, 1.9), (0.0, 0.0), (2.2, 0.1)])
    a = oracle_minimize(tri)
    b = oracle_minimize(rolled)
    assert math.hypot(a.x - b.x, a.y - b.y) < 1e-6 * tri.diameter


def test_minimize_finds_the_thin_triangle_median():
    med = solve_median(THIN_TRIANGLE).median
    ora = oracle_minimize(THIN_TRIANGLE)
    assert math.hypot(med.x - ora.x, med.y - ora.y) <= 1e-7 * THIN_TRIANGLE.diameter


def test_config_validation():
    with pytest.raises(ValueError):
        OracleConfig(mc_samples=1)


def test_oracle_value_floats_cleanly():
    v = oracle_sigma(UNIT_SQUARE_CENTERED, Point2(0.0, 0.0))
    assert v.error_estimate >= 0.0
    assert float(v + 1.0) == pytest.approx(float(v) + 1.0)

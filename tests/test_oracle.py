"""Area-integration oracle: anchors, refinement estimates, Monte Carlo."""

import math

import numpy as np
import pytest

from helpers import interior_point, random_convex_polygon, random_star_polygon

from regionmedian import Point2, Polygon, RadialKernel
from regionmedian.kernels import segment_sigma_closed
from regionmedian.oracle import (
    MCEstimate,
    OracleConfig,
    OracleValue,
    _probe,
    oracle_minimize,
    oracle_sigma,
    oracle_sigma_mc,
)

UNIT_SQUARE_CENTERED = Polygon([(-0.5, -0.5), (0.5, -0.5), (0.5, 0.5), (-0.5, 0.5)])
T345 = Polygon([(0.0, 0.0), (3.0, 0.0), (3.0, 4.0)])

# mean distance to a uniform point of the unit square, seen from its center,
# times the area: (sqrt(2) + log(1 + sqrt(2))) / 6
SQUARE_CENTER_VALUE = (math.sqrt(2.0) + math.log(1.0 + math.sqrt(2.0))) / 6.0


def test_unit_square_center_anchor():
    v = oracle_sigma(UNIT_SQUARE_CENTERED, Point2(0.0, 0.0))
    assert isinstance(v, OracleValue)
    assert abs(float(v) - SQUARE_CENTER_VALUE) <= max(v.error_estimate, 1e-10)


def test_power_two_square_is_exact():
    # polynomial integrand, inside the exactness degree of the cell rule
    v = oracle_sigma(UNIT_SQUARE_CENTERED, Point2(0.0, 0.0), RadialKernel.power(2.0))
    assert float(v) == pytest.approx(1.0 / 6.0, abs=1e-13)


def test_constant_kernel_recovers_area():
    ones = RadialKernel.custom(lambda w: 1.0)
    rng = np.random.default_rng(9)
    for _ in range(4):
        poly = random_convex_polygon(rng)
        v = oracle_sigma(poly, Point2(0.1, 0.2), ones)
        assert float(v) == pytest.approx(poly.area, rel=1e-12)


def test_error_estimate_covers_refinement():
    """The reported estimate bounds the distance to a deeper refinement."""
    rng = np.random.default_rng(17)
    for _ in range(3):
        poly = random_convex_polygon(rng, n_max=6)
        x = Point2(*interior_point(poly, rng))
        coarse = oracle_sigma(poly, x, cfg=OracleConfig(refine_depth=3))
        fine = oracle_sigma(poly, x, cfg=OracleConfig(refine_depth=5))
        assert abs(float(coarse) - float(fine)) <= 2.0 * coarse.error_estimate


def test_sliver_limit_matches_segment_integral():
    """Thin rectangles approach the boundary-segment integral linearly."""
    x = Point2(0.0, 1.0)
    closed = segment_sigma_closed(Point2(0.0, 0.0), Point2(1.0, 0.0), x).value
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


@pytest.mark.parametrize("depth", [3, OracleConfig().refine_depth])
def test_minimizer_probe_is_oracle_sigma_bit_for_bit(depth):
    # the probe skips the coarse level, which only the error estimate reads
    pentagon = Polygon([(0.0, 0.0), (4.0, 0.0), (4.0, 3.0), (2.0, 1.0), (0.0, 3.0)])
    cases = [
        (T345, (2.0, 1.0)),  # interior
        (T345, (3.0, 2.0)),  # on an edge
        (T345, (0.0, 0.0)),  # a vertex
        (T345, (-1.0, 2.5)),  # exterior
        (pentagon, (2.0, 0.5)),  # interior, non-convex
        (pentagon, (2.0, 2.0)),  # exterior, in the notch
    ]
    cfg = OracleConfig(refine_depth=depth)
    kernel = RadialKernel.euclidean()
    for poly, x in cases:
        assert _probe(poly, x, kernel, depth) == float(oracle_sigma(poly, Point2(*x), kernel, cfg))


def test_minimize_lands_on_symmetric_centers():
    eq = Polygon([(0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3.0) / 2.0)])
    m = oracle_minimize(eq)
    assert math.hypot(m.x - 0.5, m.y - math.sqrt(3.0) / 6.0) < 1e-6
    msq = oracle_minimize(UNIT_SQUARE_CENTERED)
    assert math.hypot(msq.x, msq.y) < 1e-6


def test_minimize_is_vertex_order_invariant():
    tri = Polygon([(0.0, 0.0), (2.2, 0.1), (0.7, 1.9)])
    rolled = Polygon([(0.7, 1.9), (0.0, 0.0), (2.2, 0.1)])
    cfg = OracleConfig(refine_depth=4)
    a = oracle_minimize(tri, cfg=cfg)
    b = oracle_minimize(rolled, cfg=cfg)
    assert math.hypot(a.x - b.x, a.y - b.y) < 1e-6 * tri.diameter


def test_config_validation():
    with pytest.raises(ValueError):
        OracleConfig(refine_depth=0)
    with pytest.raises(ValueError):
        OracleConfig(refine_depth=-1)
    with pytest.raises(ValueError):
        OracleConfig(mc_samples=1)


def test_oracle_value_floats_cleanly():
    v = oracle_sigma(UNIT_SQUARE_CENTERED, Point2(0.0, 0.0))
    assert v.error_estimate >= 0.0
    assert float(v + 1.0) == pytest.approx(float(v) + 1.0)

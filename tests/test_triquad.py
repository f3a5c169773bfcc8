import math

import numpy as np
import pytest

from regionmedian import Polygon
from regionmedian.triquad import STAR_RULE_DEGREE, star_rule, star_triangles, subdivide4, triangulate
from helpers import DUMBBELL, comb_polygon, random_star_polygon, signed_areas

REF = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def _monomial_exact(i, j):
    # integral of x^i y^j over the reference triangle
    return math.factorial(i) * math.factorial(j) / math.factorial(i + j + 2)


def test_rule_weights_sum_to_one():
    for panels in (1, 4):
        _, _, w = star_rule(panels)
        assert math.isclose(w.sum(), 1.0, rel_tol=1e-13)


@pytest.mark.parametrize("degree", range(STAR_RULE_DEGREE + 1))
def test_rule_integrates_monomials_to_declared_degree(degree):
    s, t, w = star_rule(4)
    # the apex x at each corner of the reference triangle in turn
    for k in range(3):
        x, a, b = np.roll(REF, -k, axis=0)
        pts = x + s[:, None, None] * (a + t[:, None] * (b - a) - x)
        for i in range(degree + 1):
            j = degree - i
            got = 0.5 * float(np.sum(w * pts[..., 0] ** i * pts[..., 1] ** j))
            assert math.isclose(got, _monomial_exact(i, j), rel_tol=5e-13, abs_tol=5e-15), (
                f"the rule fails on x^{i} y^{j} from apex {k}"
            )


def test_subdivide4_preserves_signed_area():
    rng = np.random.default_rng(31)
    tris = rng.uniform(-2, 2, (10, 3, 2))
    children = subdivide4(tris)
    assert children.shape == (40, 3, 2)
    assert math.isclose(signed_areas(children).sum(), signed_areas(tris).sum(), rel_tol=1e-12)
    # each parent's four children tile it exactly
    parent = signed_areas(tris)
    child = signed_areas(children).reshape(4, 10).sum(axis=0)
    assert np.allclose(child, parent, rtol=1e-12)


def test_fan_triangulation_covers_convex_polygon():
    poly = Polygon([(0, 0), (2, 0), (3, 1), (2, 2), (0, 2)])
    tris = triangulate(poly)
    assert len(tris) == len(poly) - 2
    assert math.isclose(signed_areas(tris).sum(), poly.area, rel_tol=1e-12)
    assert np.all(signed_areas(tris) > 0)


def test_fan_of_nonconvex_polygon_holds_a_negative_triangle():
    # the pentagon is not star-shaped from vertex 0: the middle triangle
    # turns clockwise, and the signed areas still add up to the area
    poly = Polygon([(0, 0), (4, 0), (4, 3), (2, 1), (0, 3)])
    areas = signed_areas(triangulate(poly))
    assert areas.tolist() == [6.0, -1.0, 3.0]
    assert areas.sum() == poly.area


def test_fan_random_star_polygons():
    rng = np.random.default_rng(32)
    for _ in range(25):
        poly = random_star_polygon(rng, n=int(rng.integers(5, 12)))
        tris = triangulate(poly)
        assert math.isclose(signed_areas(tris).sum(), poly.area, rel_tol=1e-10)


@pytest.mark.parametrize("region", [Polygon(DUMBBELL), comb_polygon(20)], ids=["dumbbell", "comb"])
def test_fan_overlaps_itself_and_still_sums_to_the_area(region):
    # the fan from vertex 0 covers the dumbbell about 2.8 times and the
    # comb about 10 times over; the negative triangles cancel the excess
    areas = signed_areas(triangulate(region))
    assert np.abs(areas).sum() > 2.5 * region.area
    assert math.isclose(areas.sum(), region.area, rel_tol=1e-12)


def test_fan_of_a_4096_vertex_star_loop():
    poly = random_star_polygon(np.random.default_rng(91), n=4096)
    areas = signed_areas(triangulate(poly))
    assert len(areas) == 4094 and areas.min() < 0.0
    assert math.isclose(areas.sum(), poly.area, rel_tol=1e-12)


def test_star_triangles_telescope_from_any_point():
    # the signed fan reproduces the area even from outside or from a
    # reflex pocket, where plain unsigned fans would double count
    rng = np.random.default_rng(33)
    for _ in range(25):
        poly = random_star_polygon(rng, n=7)
        x = rng.uniform(-2, 2, 2)
        tris = star_triangles(poly, x)
        assert math.isclose(signed_areas(tris).sum(), poly.area, rel_tol=1e-10)

"""Area-integration oracle: anchors, closed forms, refinement estimates,
the divergence theorem."""

import ast
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    DUMBBELL,
    closed_value,
    clustered_point_set,
    collinear_point_set,
    comb_polygon,
    criterion_04_regions,
    decimal_point_median,
    divergence_area_integral,
    interior_point,
    random_convex_polygon,
    random_star_polygon,
    star_integral_reference,
    tensor_star_integral,
)

from regionmedian import (
    InvalidPolygonError,
    NonConvergenceError,
    Point2,
    PointSet,
    Polygon,
    RadialKernel,
    SingularRegionError,
    cli,
    oracle,
    region_median_by_sampling,
)
from regionmedian.oracle import (
    _PANELS,
    OracleValue,
    _star_objective,
    oracle_minimize,
    oracle_minimize_points,
    oracle_sigma,
)
from regionmedian.triquad import star_rule
from regionmedian.solver import SolveConfig, solve_median, solve_medianoid

DATA = Path(__file__).parent / "data"

UNIT_SQUARE_CENTERED = Polygon([(-0.5, -0.5), (0.5, -0.5), (0.5, 0.5), (-0.5, 0.5)])
T345 = Polygon([(0.0, 0.0), (3.0, 0.0), (3.0, 4.0)])
PENTAGON = Polygon([(0.0, 0.0), (4.0, 0.0), (4.0, 3.0), (2.0, 1.0), (0.0, 3.0)])
OFFSET_QUAD = Polygon([(1e4, 1e4), (1e4 + 2.0, 1e4 + 0.3), (1e4 + 1.7, 1e4 + 1.9), (1e4 + 0.2, 1e4 + 1.4)])
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
            finer = _star_objective(poly, kernel, 4 * _PANELS)((float(x[0]), float(x[1])))
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


def _assert_divergence_theorem(poly, x, kernel=None):
    """``oracle_sigma`` at x within twice its error estimate, plus
    rounding, of ``divergence_area_integral``."""
    p = 1.0 if kernel is None else kernel.p
    v = oracle_sigma(poly, Point2(*x), kernel)
    want = divergence_area_integral(poly, x, p)
    assert abs(float(v) - want) <= 2.0 * v.error_estimate + 1e-14 * abs(want), (x, p)


def test_exterior_query_point_agrees_with_monte_carlo():
    _assert_divergence_theorem(Polygon([(0, 0), (2, 0), (2, 1), (0, 1)]), (4.0, 3.0))


def test_star_region_agrees_with_monte_carlo():
    # the star triangles of a non-convex region overlap with both signs;
    # the reference integrates along the edges only
    rng = np.random.default_rng(23)
    poly = random_star_polygon(rng, n=9)
    _assert_divergence_theorem(poly, interior_point(poly, rng))


@pytest.mark.parametrize("region", [Polygon(DUMBBELL), comb_polygon(20)], ids=["dumbbell", "comb"])
def test_monte_carlo_agrees_where_the_fan_overlaps_itself(region):
    # the dumbbell's reference differs by about 1e-9 relative, inside the
    # oracle's own error estimate
    c = region.centroid
    _assert_divergence_theorem(region, (c.x, c.y))


def test_divergence_theorem_on_a_4096_vertex_star_loop():
    rng = np.random.default_rng(91)
    poly = random_star_polygon(rng, n=4096)
    _assert_divergence_theorem(poly, interior_point(poly, rng))


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, 0.5, 1.5, 2.5])
@pytest.mark.parametrize("poly", [T345, comb_polygon(20), Polygon([(0, 0), (2, 0), (2, 1), (0, 1)])],
                         ids=["t345", "comb", "rectangle"])
def test_rule_matches_the_divergence_theorem(poly, p):
    # integer p against the 50-digit edge integrals, fractional p against
    # the adaptive edge quadrature
    c = poly.coords
    # a vertex, an edge midpoint, the centroid and a point outside
    for x in (c[1], 0.5 * (c[1] + c[2]), poly.centroid.as_array(), c.max(axis=0) + (1.0, 0.5)):
        _assert_divergence_theorem(poly, (float(x[0]), float(x[1])), RadialKernel.power(p))


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
            assert _star_objective(poly, kernel)(x) == float(oracle_sigma(poly, Point2(*x), kernel))


HOMOGENEOUS_KERNELS = [RadialKernel.euclidean()] + [RadialKernel.power(p) for p in (0.5, 1.3, 1.5, 2.0, 3.0)]


def _query_points(poly, seed):
    """Interior, vertex, edge and exterior points, and seeded random ones
    in the bounding box grown by half its size."""
    c = poly.coords
    rng = np.random.default_rng(seed)
    lo, hi = c.min(axis=0), c.max(axis=0)
    points = [poly.centroid.as_array(), c[0], c[2], 0.5 * (c[0] + c[1]), 0.3 * c[1] + 0.7 * c[2],
              2.0 * c[2] - c[0], c[0] + 0.3 * (c[0] - c[1])]
    points += list(lo + rng.uniform(-0.5, 1.5, (8, 2)) * (hi - lo))
    return [(float(x), float(y)) for x, y in points]


@pytest.mark.parametrize("kernel", HOMOGENEOUS_KERNELS, ids=["euclidean", "p0.5", "p1.3", "p1.5", "p2", "p3"])
@pytest.mark.parametrize("poly", [T345, PENTAGON, OFFSET_QUAD], ids=["t345", "pentagon", "offset"])
def test_factored_rule_matches_the_tensor_rule(poly, kernel):
    # a homogeneous kernel is evaluated once per boundary node and weighted
    # by its radial sum: the same rule, up to rounding
    for seed, panels in enumerate((_PANELS, 2 * _PANELS)):
        for x in _query_points(poly, seed):
            want = tensor_star_integral(poly, x, kernel, panels)
            assert abs(_star_objective(poly, kernel, panels)(x) - want) <= 1e-14 * abs(want), (x, panels)


def test_custom_kernel_keeps_the_tensor_rule_bit_for_bit():
    kernel = RadialKernel.custom(lambda dx, dy: np.hypot(dx, dy) + 0.25 * dx * dx * np.exp(-dy))
    for poly in (T345, PENTAGON, OFFSET_QUAD):
        for x in _query_points(poly, 3):
            for panels in (_PANELS, 2 * _PANELS):
                assert _star_objective(poly, kernel, panels)(x) == tensor_star_integral(poly, x, kernel, panels)


def _layout_probe_points(poly, rng, count):
    """Vertices, seeded points on the edges, inside the region and around
    it, about a quarter each."""
    c, e = poly.coords, poly.edge_vectors
    lo, hi = c.min(axis=0), c.max(axis=0)
    k = count // 4
    edge = rng.integers(0, len(c), k)
    points = [c[i % len(c)] for i in range(k)]
    points += list(c[edge] + rng.uniform(0.0, 1.0, (k, 1)) * e[edge])
    points += [np.asarray(interior_point(poly, rng)) for _ in range(k)]
    outside = lo + rng.uniform(-0.5, 1.5, (8 * k, 2)) * (hi - lo)
    points += list(outside[~poly.contains_many(outside)][:count - 3 * k])
    return [(float(x), float(y)) for x, y in points]


def test_layout_route_matches_the_reference_bit_for_bit():
    # the boundary layout built once holds only what every call of the
    # reference forms again; the floats of each node are the same
    rng = np.random.default_rng(41)
    kernels = [RadialKernel.euclidean(), RadialKernel.power(1.5), RadialKernel.power(3.0),
               RadialKernel.custom(lambda dx, dy: np.hypot(dx, dy) + 0.25 * dx * dx * np.exp(-dy))]
    polys = [T345, PENTAGON, OFFSET_QUAD, THIN_TRIANGLE, random_star_polygon(rng, n=9)]
    points = {id(poly): _layout_probe_points(poly, rng, 40) for poly in polys}
    assert sum(len(v) for v in points.values()) == 200
    for kernel in kernels:
        for panels in (_PANELS, 2 * _PANELS):
            for poly in polys:
                integral = _star_objective(poly, kernel, panels)
                for x in points[id(poly)]:
                    assert integral(x) == star_integral_reference(poly, x, kernel, panels), (x, panels)


def test_kernel_evaluations_per_rule(monkeypatch):
    # 128 boundary nodes per edge for homogeneous kernels; all 10 * 128
    # nodes of the tensor rule for a custom kernel
    seen = []
    evaluate_many = RadialKernel.evaluate_many

    def counted(self, dx, dy):
        seen.append(np.size(dx))
        return evaluate_many(self, dx, dy)

    custom = RadialKernel.custom(lambda dx, dy: np.hypot(dx, dy))
    monkeypatch.setattr(RadialKernel, "evaluate_many", counted)
    for poly in (T345, PENTAGON):
        n = len(poly)
        for kernel, per_edge in [(RadialKernel.euclidean(), 128), (RadialKernel.power(1.5), 128), (custom, 1280)]:
            seen.clear()
            _star_objective(poly, kernel)((1.0, 0.5))
            assert seen == [n * per_edge]
            seen.clear()
            oracle_sigma(poly, Point2(1.0, 0.5), kernel)
            assert seen == [n * per_edge, 2 * n * per_edge]


def test_minimize_refuses_an_underflowing_objective():
    # area * diameter bounds the Euclidean objective and scales as the
    # cube of the size: at 2**-349 it is subnormal, at 2**-366 the
    # objective is 0.0. A custom kernel's value at the centroid is checked
    coords = np.array([(0.0, 0.0), (3.0, 0.0), (3.0, 4.0), (0.5, 3.0)])
    for k in (-349, -366):
        for kernel in (RadialKernel.euclidean(), RadialKernel.custom(lambda dx, dy: np.hypot(dx, dy))):
            with pytest.raises(SingularRegionError, match="underflows"):
                oracle_minimize(Polygon(np.ldexp(coords, k)), kernel)
    tiny = Polygon(np.ldexp(coords, -340))
    med = solve_median(tiny).median
    ora = oracle_minimize(tiny)
    assert math.hypot(med.x - ora.x, med.y - ora.y) <= 1e-7 * tiny.diameter


def test_minimize_lands_on_symmetric_centers():
    eq = Polygon([(0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3.0) / 2.0)])
    m = oracle_minimize(eq)
    assert math.hypot(m.x - 0.5, m.y - math.sqrt(3.0) / 6.0) < 1e-6
    msq = oracle_minimize(UNIT_SQUARE_CENTERED)
    assert math.hypot(msq.x, msq.y) < 1e-6


@pytest.mark.parametrize("offset", [1e4, 1e6, 1e8, 1e10, 1e12])
@pytest.mark.parametrize("coords", [T345.coords, OFFSET_QUAD.coords - OFFSET_QUAD.coords[0]], ids=["t345", "quad"])
def test_minimize_far_from_the_origin_in_the_solve_frame(monkeypatch, coords, offset):
    # in absolute coordinates a Newton stop of 1e-9 of the diameter is
    # below the float spacing from 1e7 diameters out
    poly = Polygon(coords + offset * Polygon(coords).diameter * np.array([1.0, -0.7]))
    passes = []
    star_gradient = oracle._star_gradient

    def counted_star_gradient(*args):
        newton = star_gradient(*args)
        return lambda x, y: passes.append((x, y)) or newton(x, y)

    monkeypatch.setattr(oracle, "_star_gradient", counted_star_gradient)
    ora = oracle_minimize(poly)
    med = solve_median(poly).median
    assert len(passes) <= 6
    assert math.hypot(med.x - ora.x, med.y - ora.y) <= 1e-7 * poly.diameter


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


GOLDEN_REGIONS = [cli.load_region_file(str(DATA / f"{stem}.json")).polygon
                  for stem in ("equilateral", "t345", "pentagon", "boundary_loop")]


@pytest.mark.parametrize("p", [0.25, 0.5, 1.0, 1.5, 3.0])
def test_minimize_lands_on_the_solver_median(p):
    # the root of the star-rule gradient; Nelder-Mead on the value stopped
    # up to about 1e-8 of the diameter away. The reference is solved to
    # 1e-15: at the default tolerance a p < 1 solve stops up to 2.4e-12 off
    kernel = RadialKernel.power(p)
    for poly in criterion_04_regions() + GOLDEN_REGIONS + [THIN_TRIANGLE]:
        med = solve_medianoid(poly, kernel, SolveConfig(tol_rel=1e-15)).median
        ora = oracle_minimize(poly, kernel)
        assert math.hypot(med.x - ora.x, med.y - ora.y) <= 1e-12 * poly.diameter


@pytest.mark.parametrize("p", [0.25, 0.5, 0.9, 1.0, 1.5, 3.0])
def test_exact_jacobian_lands_where_the_difference_jacobian_does(p):
    # the reference iteration takes the five-point central difference of
    # the same gradient pass, as custom kernels and point sets do
    kernel = RadialKernel.power(p)
    for poly in criterion_04_regions() + GOLDEN_REGIONS + [THIN_TRIANGLE]:
        frame, ox, oy = poly._local_frame()
        c, diam = frame.centroid, frame.diameter
        newton = oracle._star_gradient(frame, p)
        gradients = lambda points: np.array([newton(x, y)[0] for x, y in points.tolist()])
        ref = oracle._gradient_root(oracle._difference_jacobian(gradients, oracle._FD_STEP * diam), diam, (c.x, c.y))
        ora = oracle_minimize(poly, kernel)
        assert math.hypot(ref.x + ox - ora.x, ref.y + oy - ora.y) <= 1e-15 * poly.diameter


CUSTOM_KERNELS = {
    # (kernel, bound in diameters): the value rule resolves a kernel with
    # a kink or a narrow core less well than a homogeneous one
    "r1.5": (RadialKernel.custom(lambda dx, dy: np.hypot(dx, dy) ** 1.5), 1e-10),
    "anisotropic": (RadialKernel.custom(lambda dx, dy: np.sqrt(dx * dx + 4.0 * dy * dy)), 1e-8),
    "smoothed": (RadialKernel.custom(lambda dx, dy: np.sqrt(0.01 + dx * dx + dy * dy)), 2e-8),
}


@pytest.mark.parametrize("case", list(CUSTOM_KERNELS))
def test_custom_kernel_minimize_lands_on_the_solver_median(case):
    # the root of the central difference of the value rule
    kernel, bound = CUSTOM_KERNELS[case]
    for poly in [T345] + criterion_04_regions()[::3]:
        med = solve_medianoid(poly, kernel, SolveConfig(tol_rel=1e-15)).median
        ora = oracle_minimize(poly, kernel)
        assert math.hypot(med.x - ora.x, med.y - ora.y) <= bound * poly.diameter


POINT_FILES = sorted(path for path in DATA.glob("*points*.json") if "points" in json.loads(path.read_text()))


@pytest.mark.parametrize("path", POINT_FILES, ids=[path.stem for path in POINT_FILES])
def test_point_oracle_lands_on_the_decimal_median(path):
    # between two clusters the float objective is flat to an ulp along
    # their axis, where Nelder-Mead on it stopped up to 5.7e-8 of the
    # diameter off; the root of the fsum gradient does not. On a line of
    # data points, some tilted in floats, the median is a data point
    sets = [cli.load_region_file(str(path)).point_set]
    if path.stem == "clustered_points":
        sets += [PointSet(*clustered_point_set(s)) for s in range(40)]
    if path.stem == "collinear_points":
        sets += [PointSet(*collinear_point_set(s)[:2]) for s in range(100)]
    for ps in sets:
        ora = oracle_minimize_points(ps)
        ref = decimal_point_median(ps.coords, ps.weights, (ora.x, ora.y))
        assert math.hypot(ora.x - ref[0], ora.y - ref[1]) <= 1e-14 * ps.diameter


def test_point_oracle_takes_weights_at_the_ends_of_the_float_range():
    # the weights are scaled by a power of two, so their sums neither
    # overflow nor lose their digits: weights scaled by a power of two
    # give the same bits, others the same point up to their rounding
    pts, w = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.8, 0.9)], np.array([1.0, 2.0, 3.0, 1.5])
    want = oracle_minimize_points(PointSet(pts, w))
    for k in (1000, -1060):
        assert oracle_minimize_points(PointSet(pts, np.ldexp(w, k))) == want
    for scale in (1e300, 1e-300):
        got = oracle_minimize_points(PointSet(pts, scale * w))
        assert math.hypot(got.x - want.x, got.y - want.y) <= 1e-15


def test_minimize_memory_stays_within_the_gradient_blocks():
    # the gradient pass takes the edges in blocks; the value rule's
    # boundary layout, which took 42.6 MB here, is not built for a power
    # kernel
    t = np.arange(8192) * (2.0 * np.pi / 8192)
    r = 1.0 + 0.2 * np.cos(3.0 * t) + 0.1 * np.sin(5.0 * t)
    poly = Polygon(np.stack([r * np.cos(t), 0.7 * r * np.sin(t)], axis=1))
    tracemalloc.start()
    try:
        oracle_minimize(poly)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16e6


def test_minimizers_stay_within_their_work_counts(monkeypatch):
    # counts, which do not drift with machine speed: a region under a
    # power kernel takes no kernel value, only a few Newton iterates of one
    # gradient and Jacobian pass at one point each; a point set takes a
    # five-point gradient pass per iterate and adds one-point passes for
    # the vertex test and the test of each step
    calls, passes = [], []
    evaluate_many = RadialKernel.evaluate_many
    star_gradient, point_gradient = oracle._star_gradient, oracle._point_gradient

    def counted_star_gradient(*args):
        newton = star_gradient(*args)
        return lambda x, y: passes.append(1) or newton(x, y)

    def counted_point_gradient(*args):
        gradients = point_gradient(*args)
        return lambda points: passes.append(len(points)) or gradients(points)

    monkeypatch.setattr(RadialKernel, "evaluate_many", lambda *args: calls.append(args) or evaluate_many(*args))
    monkeypatch.setattr(oracle, "_star_gradient", counted_star_gradient)
    monkeypatch.setattr(oracle, "_point_gradient", counted_point_gradient)
    for poly in criterion_04_regions() + [cli.load_region_file(str(DATA / "t345.json")).polygon]:
        for kernel in (RadialKernel.euclidean(), RadialKernel.power(0.5)):
            passes.clear()
            oracle_minimize(poly, kernel)
            assert 0 < len(passes) <= 6 and set(passes) == {1}
    assert calls == []

    # three Newton iterates between the clusters; on the line, one step
    # down the gradient bisected 30 times
    for stem, most in [("obtuse_points", 1), ("clustered_points", 12), ("collinear_points", 40)]:
        passes.clear()
        oracle_minimize_points(cli.load_region_file(str(DATA / f"{stem}.json")).point_set)
        assert 0 < len(passes) <= most and set(passes) <= {1, 5}


def test_gradient_rule_is_exact_for_the_second_moment():
    # grad of the integral of |P - x|**2 is 2 * area * (x - centroid), a
    # polynomial the rule integrates exactly, inside the region or outside,
    # and its Jacobian is 2 * area * I
    for poly in (T345, PENTAGON, OFFSET_QUAD._local_frame()[0]):
        c = poly.centroid
        newton = oracle._star_gradient(poly, 2.0)
        for x in [(c.x, c.y), (c.x + 0.3, c.y - 0.2), (c.x + 5.0, c.y + 2.0)]:
            g, jac = newton(*x)
            want = 2.0 * poly.area * (np.array(x) - (c.x, c.y))
            assert np.abs(np.array(g) - want).max() <= 1e-13 * 2.0 * poly.area * poly.diameter
            assert np.abs(np.array(jac) - 2.0 * poly.area * np.eye(2)).max() <= 1e-13 * 2.0 * poly.area


@pytest.mark.parametrize("p", [0.5, 1.0, 1.5, 3.0])
def test_jacobian_matches_central_differences_of_the_gradient(p):
    # the exact Jacobian of the rule against central differences of its
    # own gradient, step 1e-6 of the diameter, which differ by up to 3.1e-9
    # relative, mostly the gradient's rounding over the step; inside the
    # region and outside
    rng = np.random.default_rng(43)
    for poly in (T345, PENTAGON, random_star_polygon(rng, n=9)._local_frame()[0]):
        newton = oracle._star_gradient(poly, p)
        h = 1e-6 * poly.diameter
        c = poly.centroid
        for x, y in [(c.x, c.y), (c.x + 0.1 * poly.diameter, c.y - 0.05 * poly.diameter),
                     (c.x + 2.0 * poly.diameter, c.y + poly.diameter)]:
            jac = np.array(newton(x, y)[1])
            cols = [(np.array(newton(x + h, y)[0]) - newton(x - h, y)[0]) / ((x + h) - (x - h)),
                    (np.array(newton(x, y + h)[0]) - newton(x, y - h)[0]) / ((y + h) - (y - h))]
            assert np.abs(jac - np.stack(cols, axis=1)).max() <= 1e-8 * np.abs(jac).max(), (p, x, y)


@pytest.mark.parametrize("p", [1.0, 1.5])
def test_gradient_is_finite_on_a_boundary_node(p):
    # a Gauss node of the first edge: |P - x| is 0 there, and |P - x|**(p - 2)
    # would be infinite without the floor, and its direction 0 / 0. The
    # edge is (4, 0), so the node is exact however the pass rounds
    poly = Polygon([(0.0, 0.0), (4.0, 0.0), (4.0, 3.0)])
    _, t, _ = star_rule(2 * _PANELS)
    a, e = poly.coords[0], poly.edge_vectors[0]
    x = a + t[7] * e
    assert not np.any((a - x) + t[7] * e)
    g, jac = oracle._star_gradient(poly, p)(*x.tolist())
    assert np.all(np.isfinite(g)) and np.all(np.isfinite(jac))


def _stand_in(newton):
    """A stand-in for ``oracle._star_gradient`` whose pass returns
    ``newton(x, y)``, the gradient and the Jacobian."""
    return lambda poly, p: newton


NEWTON_FAILURES = {
    # a non-finite Jacobian
    "nan": (lambda x, y: ((math.nan, math.nan), ((math.nan, math.nan), (math.nan, math.nan))),
            "singular or not finite"),
    # a constant gradient: the Jacobian is 0
    "constant": (lambda x, y: ((1.0, 1.0), ((0.0, 0.0), (0.0, 0.0))), "singular or not finite"),
    # a Jacobian of rank one
    "rank_one": (lambda x, y: ((x + y, x + y), ((1.0, 1.0), (1.0, 1.0))), "singular or not finite"),
    # a huge gradient over a tiny Jacobian: the step overflows
    "overflow": (lambda x, y: ((1e308, 1e308), ((1e-300, 0.0), (0.0, 1e-300))), "step is not finite"),
    # a cube root: every Newton step lands twice as far on the other side
    "diverging": (lambda x, y: ((float(np.cbrt(x - 10.0)), float(np.cbrt(y - 10.0))),
                                ((1.0 / (3.0 * float(np.cbrt(x - 10.0)) ** 2), 0.0),
                                 (0.0, 1.0 / (3.0 * float(np.cbrt(y - 10.0)) ** 2)))),
                  "did not converge in 20 iterations"),
}


@pytest.mark.parametrize("case", list(NEWTON_FAILURES))
def test_newton_failures_raise(monkeypatch, case):
    newton, message = NEWTON_FAILURES[case]
    monkeypatch.setattr(oracle, "_star_gradient", _stand_in(newton))
    with pytest.raises(NonConvergenceError, match=message):
        oracle_minimize(T345)


def test_median_oracle_newton_failure_exits_one(monkeypatch, capsys):
    monkeypatch.setattr(oracle, "_star_gradient", _stand_in(NEWTON_FAILURES["nan"][0]))
    code = cli.main(["median", str(DATA / "t345.json"), "--oracle"])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err.startswith("error: the oracle's Jacobian is singular or not finite") and err.count("\n") == 1


def test_oracle_is_independent_of_the_solver():
    # no import of the solver's modules and no edge route of the kernels
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    modules, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            modules.update((node.module or "").split("."))
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            modules.update(part for alias in node.names for part in alias.name.split("."))
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    assert not (modules | names) & {"residuals", "solver"}
    edge_routes = {"closed_values_batch", "quadrature_values_batch", "gradient_many", "values_batch",
                   "segment_sigma_quadrature"}
    assert not names & edge_routes


@pytest.mark.parametrize("kind", [list, np.array, Polygon], ids=["list", "array", "polygon"])
def test_oracle_entries_take_the_regions_the_solvers_take(kind):
    region, x = kind(T345.coords.tolist()), Point2(2.0, 1.0)
    assert float(oracle_sigma(region, x)) == float(oracle_sigma(T345, x))
    assert oracle_minimize(region) == oracle_minimize(T345)
    assert region_median_by_sampling(region, 8) == region_median_by_sampling(T345, 8)


def test_oracle_entries_refuse_a_loop_that_crosses_itself():
    bowtie = [(0.0, 0.0), (1.0, 1.0), (1.0, 0.0), (0.0, 1.0)]
    for loop in (bowtie, np.array(bowtie)):
        for entry in (lambda r: oracle_sigma(r, Point2(0.5, 0.2)), oracle_minimize,
                      lambda r: region_median_by_sampling(r, 8)):
            with pytest.raises(InvalidPolygonError):
                entry(loop)


def test_oracle_value_floats_cleanly():
    v = oracle_sigma(UNIT_SQUARE_CENTERED, Point2(0.0, 0.0))
    assert v.error_estimate >= 0.0
    assert float(v + 1.0) == pytest.approx(float(v) + 1.0)

import math
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    closed_value,
    decimal_edge_integral,
    interior_point,
    random_convex_polygon,
    random_star_polygon,
    random_triangle,
    reference_quadrature_values_batch,
    star_loop,
    two_endpoint_closed_values,
    use_array_routes,
)

from regionmedian import (
    NonConvergenceError,
    Point2,
    Polygon,
    RadialKernel,
    general_boundary_residual,
    solve_median,
    solve_medianoid,
)
from regionmedian import geometry, kernels
from regionmedian.kernels import (
    _MAX_CLOSED_POWER,
    _ladder_panels,
    closed_values_batch,
    quadrature_values_batch,
    segment_sigma_quadrature,
)
from regionmedian.oracle import _star_objective

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


def _bits(out):
    """The hex of the values and of the flat gradients of a
    ``closed_values_batch`` result, lists or arrays; hex keeps the sign of
    zero."""
    return [list(map(float.hex, np.ravel(v).tolist())) for v in out]


def _assert_same_bits(got, want, *context):
    """A ``closed_values_batch`` result ``got`` has the bits of the array
    route's ``want``: arrays equal as arrays, the float route's lists
    equal, bit by bit, to its values and its flat gradients."""
    if type(got[0]) is list:
        assert _bits(got) == _bits(want), context
    else:
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1]), context


def test_closed_batch_equals_the_two_endpoint_reference_bit_for_bit():
    # one pass over both segment ends changes no float: interior points,
    # vertices, edge midpoints, points on an edge's carrier line (where
    # the offset takes its floor) and points a million diameters away
    rng = np.random.default_rng(160)
    polys = [make(rng) for _ in range(20)
             for make in (random_triangle, random_convex_polygon, lambda r: random_star_polygon(r, int(r.integers(4, 9))))]
    collinear_rows = 0
    for k, poly in enumerate(polys):
        a, e = poly.coords, poly.edge_vectors
        inside = [interior_point(poly, rng) for _ in range(3)]
        far = inside[0] + 1e6 * poly.diameter * np.array([math.cos(k), math.sin(k)])
        points = [*inside, *a, *(a + 0.5 * e), *(a + rng.uniform(-3.0, 4.0, (len(a), 1)) * e), far]
        for x in points:
            got = closed_values_batch(a, e, x)
            want = two_endpoint_closed_values(a, e, x)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
            w = x - a
            collinear_rows += int(np.sum(np.abs(e[:, 0] * w[:, 1] - e[:, 1] * w[:, 0]) / np.sum(e * e, axis=1) < 1e-12))
    assert collinear_rows > 1000
    # every closed power, on loops either side of geometry._FLOAT_EDGES and
    # at it: at an interior point, two vertices, points on two carrier
    # lines and a point a million diameters away; the loops up to the
    # crossover finish on floats from the float lists that the polygon
    # keeps, and every loop on the arrays
    for n in (3, 8, geometry._FLOAT_EDGES, geometry._FLOAT_EDGES + 1, 2 * geometry._FLOAT_EDGES + 3):
        for _ in range(2):
            poly = random_star_polygon(rng, n)
            a, e = poly.coords, poly.edge_vectors
            loop = poly._floats
            assert (loop is None) == (n > geometry._FLOAT_EDGES)
            inputs = [None] + ([loop] if loop else [])
            x0 = interior_point(poly, rng)
            far = x0 + 1e6 * poly.diameter * np.array([0.6, -0.8])
            points = [x0, a[0], a[n // 2], a[1] + 2.5 * e[1], a[2] - 0.75 * e[2], far]
            for p in range(1, _MAX_CLOSED_POWER + 1):
                for x in points:
                    want = two_endpoint_closed_values(a, e, x, p)
                    for loop_in in inputs:
                        got = closed_values_batch(a, e, x, p, loop_in)
                        assert (type(got[0]) is list) == (loop_in is not None)
                        _assert_same_bits(got, want, n, p, x)
                    if loop:
                        assert kernels._closed_values_floats(loop, x, p) is not None
    # a caller's lists of int pairs are read as floats: near 2^30 an int
    # square is exact where the float square rounds, and these lists,
    # taken as they are, give other bits at every power
    a = [[-570691774, -508939824], [1019301536, -692763642], [854840150, 739952428]]
    e = [[-1074436952, -1073805580], [1074747512, -1074324408], [1074689224, 1074026461]]
    x = [-148693659, 407647343]
    for p in range(1, _MAX_CLOSED_POWER + 1):
        got = closed_values_batch(a, e, x, p)
        want = closed_values_batch(np.array(a, dtype=float), np.array(e, dtype=float), np.array(x, dtype=float), p)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1]), p


FRACTIONAL_POWERS = (1.05, 1.5, 2.5, 3.7, 7.25, 15.5)


@pytest.mark.parametrize("p", FRACTIONAL_POWERS + (1.0 + 2.0 ** -52, 3.0 - 1e-9))
def test_fractional_closed_forms_match_the_decimal_reference(p):
    # values within 4e-15 relative and gradients within 1e-14 of their
    # norm: inside, at the vertices, on an edge, 1e-9 and 1e-13 of an edge
    # length off its line, on a carrier line beyond a vertex (c = 0) and
    # at subnormal offsets, where c^a underflows but nothing overflows;
    # next to an odd power the start's exponent a tends to 0 or 2
    a = np.array([[0.0, 0.0], [3.0, 0.0], [0.5, 4.0]])
    e = np.roll(a, -1, axis=0) - a
    length = math.hypot(*e[1])
    normal = np.array([-e[1, 1], e[1, 0]]) / length
    mid = a[1] + 0.4 * e[1]
    points = [(1.2, 1.1), (2.1, 0.6), *a, mid, (1.8, 0.0), mid + 1e-9 * length * normal,
              mid - 1e-13 * length * normal, (1.8, 3e-9), (-2.0, 0.0), a[2] + 0.5 * e[1], (0.7, 5e-324), (2.2, -1e-310)]
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        for x in points:
            values, grads = closed_values_batch(a, e, x, p)
            for i in range(3):
                want, want_grad = decimal_edge_integral(a[i], e[i], x, p)
                assert abs(values[i] - want) <= 4e-15 * abs(want), (x, i)
                assert np.hypot(*(grads[i] - want_grad)) <= 1e-14 * np.hypot(*want_grad), (x, i)


def test_every_closed_form_loop_takes_the_bits_of_the_array_route():
    # each loop of the float route (p = 1, the other integer powers, even
    # and odd, the top closed power and the fractional ones, whose start
    # and climb are the array route's numpy calls on a flat layout) gives
    # the array route's values and gradients bit for bit, on seeded loops
    # of every length up to the crossover: at interior points, vertices,
    # edge midpoints, points on edge carrier lines inside and beyond the
    # edge (where the odd powers' offset takes its floor) or 1e-12 of an
    # edge off one, and points a thousand and a million diameters away;
    # arrays in take the array route
    rng = np.random.default_rng(3900)
    powers = (1, 2, 3, _MAX_CLOSED_POWER, 1.5) + FRACTIONAL_POWERS
    for n in range(3, geometry._FLOAT_EDGES + 1):
        poly = random_star_polygon(rng, n)
        a, e = poly.coords, poly.edge_vectors
        loop = poly._floats
        x0 = interior_point(poly, rng)
        points = [x0, interior_point(poly, rng), *a, *(a + 0.5 * e), a[0] + 0.3 * e[0], a[1] - 0.75 * e[1],
                  a[-1] + 2.5 * e[-1], a[-1] + 0.3 * e[-1] + 1e-12 * e[-1, ::-1],
                  x0 + 1e3 * poly.diameter * np.array([0.6, -0.8]), x0 + 1e6 * poly.diameter * np.array([0.6, -0.8])]
        for p in powers:
            for x in points:
                assert kernels._closed_values_floats(loop, x, p) is not None, (n, p, x)
                got = closed_values_batch(a, e, x, p, loop)
                assert type(got[0]) is list, (n, p, x)
                want = kernels._closed_values_arrays(a, e, x, p)
                _assert_same_bits(got, want, n, p, x)
                _assert_same_bits(closed_values_batch(a, e, x, p), want, n, p, x)


def test_the_float_route_forms_the_squared_lengths_once_and_each_scale_once_per_power():
    # the loop keeps the squared lengths of _closed_values_arrays, and the
    # scale of each power p > 1, formed at its first use and read again
    # after other powers, with the bits of the array route for every power
    # in turn
    rng = np.random.default_rng(4601)
    poly = random_star_polygon(rng, 8)
    loop = poly._floats
    a, e = poly.coords, poly.edge_vectors
    assert loop.squares == (e[:, 0] * e[:, 0] + e[:, 1] * e[:, 1]).tolist()
    assert loop.top == max(loop.squares) and loop.scales == {}
    x = interior_point(poly, rng)
    for p in (1, 3, 3, 1.5, 3, 1):
        kept = dict(loop.scales)
        got = closed_values_batch(a, e, x, p, loop)
        assert type(got[0]) is type(got[1]) is list, p
        _assert_same_bits(got, kernels._closed_values_arrays(a, e, x, p), p)
        if p == 1 or p in kept:
            assert loop.scales.get(p) is kept.get(p), p
        else:
            assert loop.scales[p] == (np.array(loop.squares) ** (0.5 * (p - 1))).tolist(), p
        assert all(loop.scales[q] is kept[q] for q in kept), p
    assert sorted(loop.scales) == [1.5, 3]


def test_the_float_loop_gets_lists_and_every_other_input_arrays():
    # a call with a polygon's _FloatLoop gets the float route's lists, the
    # values and the flat gradients; arrays, a caller's lists of ints and
    # a point that hands the float route back get arrays, with the same
    # bits
    rng = np.random.default_rng(4703)
    poly = random_star_polygon(rng, 6)
    loop = poly._floats
    a, e = poly.coords, poly.edge_vectors
    ints = np.rint(1e3 * a).astype(int)
    x = interior_point(poly, rng)
    for p in (1, 2, 3, 1.5):
        got = closed_values_batch(a, e, x, p, loop)
        assert type(got[0]) is type(got[1]) is list and len(got[0]) == 6 and len(got[1]) == 12, p
        _assert_same_bits(got, kernels._closed_values_arrays(a, e, x, p), p)
        for a_in, e_in in ((a, e), (ints.tolist(), (np.roll(ints, -1, axis=0) - ints).tolist())):
            got = closed_values_batch(a_in, e_in, x, p)
            assert type(got[0]) is type(got[1]) is np.ndarray and got[1].shape == (6, 2), p
        # parameters past kernels._FLOAT_BOUND: the float route hands back
        far = (1e40, -3e39)
        assert kernels._closed_values_floats(loop, far, p) is None
        got = closed_values_batch(a, e, far, p, loop)
        assert type(got[0]) is type(got[1]) is np.ndarray, p
        _assert_same_bits(got, kernels._closed_values_arrays(a, e, far, p), p)


@pytest.mark.parametrize("p", [2, 3, 16])
def test_an_integral_float_power_takes_the_integer_power(p):
    # a float p with an integer value takes the integer power's formulas,
    # with the bits of its int, on both routes: _power_sum's range(p - 2)
    # needs the int
    rng = np.random.default_rng(4704)
    poly = random_star_polygon(rng, 7)
    loop = poly._floats
    for x in (interior_point(poly, rng), poly.coords[2], poly.coords[1] + 2.5 * poly.edge_vectors[1]):
        for loop_in in (None, loop):
            want = closed_values_batch(poly.coords, poly.edge_vectors, x, p, loop_in)
            for q in (float(p), np.float64(p)):
                got = closed_values_batch(poly.coords, poly.edge_vectors, x, q, loop_in)
                assert type(got[0]) is type(want[0]) and _bits(got) == _bits(want), (p, x)


def test_a_polygon_keeps_the_route_it_was_built_with(monkeypatch):
    # the constructor picks the route once: a polygon built before the
    # patch keeps its floats under it, and one built under it keeps the
    # arrays after it, with the same bits; arrays and a caller's lists,
    # ints included, take the array route at every length
    rng = np.random.default_rng(4501)
    loop = star_loop(rng, 8)
    x = (0.1, -0.2)
    calls = []
    real = kernels._closed_values_floats
    monkeypatch.setattr(kernels, "_closed_values_floats", lambda *args: calls.append(len(args[0].xs)) or real(*args))
    on_floats = Polygon(loop)
    with monkeypatch.context() as patch:
        use_array_routes(patch)
        on_arrays = Polygon(loop)
        want = general_boundary_residual(on_floats, x, RadialKernel.euclidean())
        centroid = on_floats.centroid
    assert on_floats._floats is not None and on_arrays._floats is None
    assert calls == [8]

    def refuse(*args):
        raise AssertionError("the float route ran")

    # the float closed form, and the float centroid's cross terms
    monkeypatch.setattr(kernels, "_closed_values_floats", refuse)
    monkeypatch.setattr(geometry, "_cross_terms", refuse)
    assert general_boundary_residual(on_arrays, x, RadialKernel.euclidean()) == want
    assert on_arrays.centroid == centroid
    for n in range(3, geometry._FLOAT_EDGES + 1):
        a = star_loop(rng, n)
        e = np.roll(a, -1, axis=0) - a
        ints = np.rint(1e3 * a).astype(int)
        for p in (1, 3, 1.5):
            for a_in, e_in in ((a, e), (a.tolist(), e.tolist()), (ints.tolist(), (np.roll(ints, -1, axis=0) - ints).tolist())):
                got = closed_values_batch(a_in, e_in, x, p)
                wv, wg = kernels._closed_values_arrays(np.array(a_in, dtype=float), np.array(e_in, dtype=float), x, p)
                assert np.array_equal(got[0], wv) and np.array_equal(got[1], wg), (n, p)


def test_closed_vs_quadrature_including_near_collinear():
    rng = np.random.default_rng(24)
    kernel = RadialKernel.euclidean()
    worst = 0.0
    for trial in range(400):
        pa, pb = rng.uniform(-3, 3, (2, 2))
        if np.allclose(pa, pb):
            continue
        if trial % 4 == 0:
            # push x toward the carrier line, where asinh(u/c) grows fastest
            t = rng.uniform(-0.5, 1.5)
            off = 10.0 ** rng.uniform(-16, -1) * rng.choice([-1, 1])
            e = pb - pa
            n = np.array([-e[1], e[0]]) / math.hypot(*e)
            px = pa + t * e + off * n
        else:
            px = rng.uniform(-3, 3, 2)
        closed = closed_value(pa, pb, px)
        quad = segment_sigma_quadrature(pa, pb - pa, px, kernel)
        rel = abs(closed - quad) / max(abs(quad), 1e-30)
        worst = max(worst, rel)
    assert worst < 1e-12, f"worst relative mismatch {worst:.3e}"


def _assert_matches_the_decimal_reference(a, e, x, p):
    value, grad = closed_values_batch(np.array([a]), np.array([e]), x, p)
    want, want_grad = decimal_edge_integral(a, e, x, p)
    assert abs(value[0] - want) <= 1e-14 * abs(want), (a, e, x, p)
    assert np.hypot(*(grad[0] - want_grad)) <= 1e-14 * np.hypot(*want_grad), (a, e, x, p)


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_closed_forms_match_the_decimal_reference(p):
    """Values err by at most 1e-14 relative, gradients by 1e-14 of their
    norm, at points within 10 edge lengths and at both ends."""
    rng = np.random.default_rng(2600 + p)
    for _ in range(50):
        a, e = rng.uniform(-2.0, 2.0, (2, 2))
        for x in (a + rng.uniform(-10.0, 10.0, 2) * math.hypot(*e), a, a + e):
            _assert_matches_the_decimal_reference(a, e, x, p)


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 15])
def test_closed_forms_on_the_carrier_line_match_the_decimal_reference(p):
    # integer coordinates put x exactly on the edge's line: before, at
    # the ends, on the edge and beyond it; odd powers floor the offset in
    # asinh(u/c) there, even powers have no logarithm to avoid. Raising
    # on every floating-point error fails a floor that lets a power
    # underflow at a vertex
    rng = np.random.default_rng(2610 + p)
    with np.errstate(all="raise"):
        for _ in range(10):
            a = rng.integers(-4, 5, 2).astype(float)
            e = rng.integers(1, 5, 2).astype(float) * rng.choice([-1.0, 1.0], 2)
            for k in (-3.0, -0.5, 0.0, 0.25, 0.75, 1.0, 1.5, 4.0):
                _assert_matches_the_decimal_reference(a, e, a + k * e, p)
        # just off the line the normal part of the gradient, c times the
        # difference of I_(p-2), is kept for every p
        a, e = np.array([0.5, -1.0]), np.array([2.0, 1.5])
        normal = np.array([-e[1], e[0]]) / math.hypot(*e)
        for k in (-0.5, 0.0, 0.3, 1.0, 1.5):
            for off in (1e-9, 1e-13, -3e-14):
                _assert_matches_the_decimal_reference(a, e, a + k * e + off * math.hypot(*e) * normal, p)


def test_the_kernel_picks_the_route_of_its_edge_integrals():
    a, e, x = QUAD.coords, QUAD.edge_vectors, (1.7, 0.8)
    closed = {"euclidean": (RadialKernel.euclidean(), 1), "power1": (RadialKernel.power(1.0), 1),
              "power3": (RadialKernel.power(3), 3), "cap": (RadialKernel.power(_MAX_CLOSED_POWER), _MAX_CLOSED_POWER),
              "power1.5": (RadialKernel.power(1.5), 1.5), "power2.5": (RadialKernel.power(2.5), 2.5)}
    for name, (kernel, p) in closed.items():
        assert kernel.closed_power == p and type(kernel.closed_power) is type(p), name
        got, want = kernel.values_batch(a, e, x), closed_values_batch(a, e, x, p)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1]), name
    # above the cap, below 1 and custom kernels take quadrature
    bowl = RadialKernel.custom(lambda dx, dy: 1.0 + dx * dx + 0.5 * dy * dy)
    for kernel in (RadialKernel.power(_MAX_CLOSED_POWER + 1), RadialKernel.power(1e20), RadialKernel.power(0.5), bowl):
        assert kernel.closed_power is None, kernel
        if kernel.p != 1e20:
            got, want = kernel.values_batch(a, e, x), quadrature_values_batch(a, e, x, kernel)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1]), kernel


def test_the_euclidean_kernel_is_the_power_one_kernel():
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
    import workloads

    euclidean, power1 = RadialKernel.euclidean(), RadialKernel.power(1)
    assert euclidean == power1 and hash(euclidean) == hash(power1)
    rng = np.random.default_rng(5)
    dx, dy = rng.normal(size=(2, 7, 21)) * np.logspace(-200, 200, 21)
    for kernel in (euclidean, power1):
        assert np.array_equal(kernel.evaluate_many(dx, dy), np.hypot(dx, dy))
    by_power, by_name = _star_objective(QUAD, power1), _star_objective(QUAD, euclidean)
    for x in QUAD.coords.tolist() + [[5.0, 3.0], [-1.0, 0.5]]:
        assert by_power(x) == by_name(x)

    def fields(res):
        return repr((res.median, res.iterations, res.trace, res.edge_means))

    regions = []
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        regions += [workloads.unit_region(rng, j) for j in range(40)]
    far = regions[0] + 1e8 * workloads.check.diameter(regions[0])
    for coords in regions + [far]:
        poly = Polygon(coords)
        res = solve_median(poly)
        assert res.converged and not res.local
        assert fields(solve_medianoid(poly, power1)) == fields(res)
    # only powers p < 1 and custom kernels leave convexity behind
    bowl = RadialKernel.custom(lambda dx, dy: 1.0 + dx * dx + 0.5 * dy * dy)
    for kernel, local in ((RadialKernel.power(0.5), True), (power1, False), (bowl, True)):
        assert solve_medianoid(Polygon([(0.0, 0.0), (3.0, 0.0), (3.0, 4.0)]), kernel).local is local


def test_the_closed_form_at_the_cap_solves_a_region_with_an_edge_of_1e_10():
    # the parameter-unit reduction climbs to (D/L)^(p+1) = 1e170 on the
    # short edge at p = 16, where p = 32 would overflow the solve
    poly = Polygon([(0.0, 0.0), (1.0, 0.0), (1.0, 1e-10), (0.5, 1.0)])
    kernel = RadialKernel.power(_MAX_CLOSED_POWER)
    res = solve_medianoid(poly, kernel)
    assert res.converged and res.iterations == 4
    values, _ = quadrature_values_batch(poly.coords, poly.edge_vectors, (res.median.x, res.median.y), kernel)
    # the short edge's mean loses about 1e-16 D/L to cancellation
    # (ROADMAP item 2); the other three agree to rounding
    assert res.edge_means == pytest.approx(list(values / poly.edge_lengths), rel=1e-6)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_batched_quadrature_matches_the_closed_form_for_integer_powers(p):
    """The quadrature route, which no integer power up to the cap takes in
    a solve, against the closed form: values within 1e-13 relative and
    gradients within 1e-12 of L^p, at interior points, vertices, points on
    an edge and points 1e-9 and 1e-13 edge lengths off its line. The
    closed form raises no floating-point error at any of them."""
    rng = np.random.default_rng(2620 + p)
    kernel = RadialKernel.power(p)
    for make in (random_triangle, random_convex_polygon, random_star_polygon):
        for _ in range(3):
            poly = make(rng)
            a, e, lengths = poly.coords, poly.edge_vectors, poly.edge_lengths
            normal = np.stack([-e[:, 1], e[:, 0]], axis=1) / lengths[:, None]
            points = [interior_point(poly, rng), *a, *(a + 0.3 * e), *(a + 0.5 * e),
                      *(a + 0.7 * e + 1e-9 * normal), *(a + 1.5 * e - 1e-13 * normal)]
            for x in points:
                with np.errstate(all="raise"):
                    values, grads = closed_values_batch(a, e, x, p)
                quad, quad_grads = quadrature_values_batch(a, e, x, kernel)
                assert np.all(np.abs(quad - values) <= 1e-13 * values), (make.__name__, x)
                assert np.all(np.abs(quad_grads - grads) <= 1e-12 * lengths[:, None] ** p), (make.__name__, x)


def test_quadrature_power2_from_endpoint():
    value = segment_sigma_quadrature((0, 0), (1, 0), (0, 0), RadialKernel.power(2))
    assert math.isclose(value, 1.0 / 3.0, rel_tol=1e-13)


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


def test_an_exponent_past_the_float_range_is_a_value_error():
    # float(10 ** 400) raises OverflowError; the exponent is not finite
    for p in (10 ** 400, -(10 ** 400)):
        with pytest.raises(ValueError, match="finite and > 0"):
            RadialKernel.power(p)


def test_a_bool_is_no_power_exponent():
    # float(True) is 1.0, but a flag is no exponent, as on the CLI
    for flag in (True, False, np.True_):
        with pytest.raises(ValueError, match="must be a number"):
            RadialKernel.power(flag)


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
        got, grads = quadrature_values_batch(a, e, x, kernel)
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
                ref = segment_sigma_quadrature(a[j], e[j], x, kernel)
                ref_grad = _quad_gradient(a[j], e[j], x, p)
            worst = max(worst, abs(got[j] - ref) / ref)
            # relative to L^p, the size of the gradient; it vanishes at a midpoint
            worst_grad = max(worst_grad, np.max(np.abs(grads[j] - ref_grad)) / lengths[j] ** p)
    assert worst < 1e-13, f"worst relative mismatch {worst:.3e}"
    # panels settle on the values' error only; at a vertex under p = 1.5
    # the gradient's integrand goes as s^(1/2) and errs by about 2e-10
    assert worst_grad < 1e-9, f"worst relative gradient mismatch {worst_grad:.3e}"


def _offsets(a, e, x):
    """(t0, layer) of ``quadrature_values_batch``: x's foot and offset on
    every edge's carrier line, in edge lengths."""
    d = a - np.asarray(x, dtype=float)
    sq = np.sum(e * e, axis=1)
    return -(e[:, 0] * d[:, 0] + e[:, 1] * d[:, 1]) / sq, np.abs(e[:, 0] * d[:, 1] - e[:, 1] * d[:, 0]) / sq


def _reference_route_points(poly, rng):
    """Query points for the reference route: inside, at the vertices, on
    the edges, on their carrier lines beyond them, and so far out that
    every edge's ladder is empty (offset above 8 edge lengths)."""
    a, e = poly.coords, poly.edge_vectors
    t = rng.uniform(0.0, 1.0, len(a))
    beyond = rng.choice([-1.0, 1.0], len(a)) * rng.uniform(1.5, 3.0, len(a)) + 0.5
    points = [interior_point(poly, rng), interior_point(poly, rng), *a, *(a + t[:, None] * e),
              *(a + beyond[:, None] * e)]
    far = 0
    while far < 2:
        x = poly.centroid.as_array() + 100.0 * poly.diameter * rng.normal(size=2)
        if np.min(_offsets(a, e, x)[1]) > 8.0:
            points.append(x)
            far += 1
    return points


@pytest.mark.parametrize("kernel", [RadialKernel.power(0.5), RadialKernel.power(1.5), RadialKernel.power(2.5),
                                    RadialKernel.power(17.0),
                                    RadialKernel.custom(lambda dx, dy: np.hypot(dx, dy) + 0.2 * dx * dy + 0.1 * dx)],
                         ids=["p0.5", "p1.5", "p2.5", "p17", "custom"])
def test_batched_quadrature_equals_the_reference_route_bit_for_bit(kernel, monkeypatch):
    """Values and gradients equal, bit for bit, those of the route that
    stacks and concatenates its panels on every pass."""
    gk21 = kernels._gk21
    passes = []
    monkeypatch.setattr(kernels, "_gk21", lambda *args: passes.append(1) or gk21(*args))
    rng = np.random.default_rng(29)
    bisected = empty = 0
    for poly in [random_triangle(rng), random_convex_polygon(rng), random_star_polygon(rng), QUAD]:
        a, e = poly.coords, poly.edge_vectors
        for x in _reference_route_points(poly, rng):
            passes.clear()
            got = quadrature_values_batch(a, e, x, kernel)
            want = reference_quadrature_values_batch(a, e, x, kernel)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1]), x
            bisected += len(passes) > 1
            empty += len(_ladder_panels(*_offsets(a, e, x))[0]) == len(a)
    # the far points take one panel per edge; at the vertices, where a
    # fractional power below 3 is not smooth, some passes bisect
    assert empty >= 8
    assert bisected > 0 or kernel.p is None or kernel.p > 3.0


@pytest.mark.parametrize("kernel", [RadialKernel.power(0.5), RadialKernel.power(17.0),
                                    RadialKernel.custom(lambda dx, dy: np.hypot(dx, dy) + 0.2 * dx * dy + 0.1 * dx)],
                         ids=["p0.5", "p17", "custom"])
def test_batched_quadrature_does_not_depend_on_where_the_loop_starts(kernel):
    """Each edge's integral and gradient are the same bits whichever
    other edges share the pass: starting a star loop two vertices later
    rotates them, bit for bit."""
    rng = np.random.default_rng(7)
    for _ in range(30):
        poly = random_star_polygon(rng)
        a, e, x = poly.coords, poly.edge_vectors, poly.centroid.as_array()
        got = quadrature_values_batch(np.roll(a, -2, axis=0), np.roll(e, -2, axis=0), x, kernel)
        for rotated, want in zip(got, quadrature_values_batch(a, e, x, kernel)):
            assert np.array_equal(rotated, np.roll(want, -2, axis=0)), a


def test_batched_quadrature_raises_as_the_reference_route_does(monkeypatch):
    # the tolerance 1e-15 lies below the roundoff floor of a panel's error
    t345 = Polygon([(0.0, 0.0), (3.0, 0.0), (3.0, 4.0)])
    nan_band = RadialKernel.custom(lambda dx, dy: np.where((0.2 < dy) & (dy < 1.0), np.nan, 1.0 + np.hypot(dx, dy)))
    for poly, x, kernel, tol in ((t345, (1.0, 1.0), RadialKernel.power(2.0), 1e-15),
                                 (QUAD, (1.5, 0.5), nan_band, 1e-13)):
        monkeypatch.setattr(kernels, "_QUAD_TOL", tol)
        with pytest.raises(NonConvergenceError) as got:
            quadrature_values_batch(poly.coords, poly.edge_vectors, x, kernel)
        with pytest.raises(NonConvergenceError) as want:
            reference_quadrature_values_batch(poly.coords, poly.edge_vectors, x, kernel)
        assert str(got.value) == str(want.value)


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
    """A tolerance no bisection can meet raises instead of doubling the panels.

    Each panel's error is floored at the roundoff of its sum, and that
    floor does not shrink under bisection: ``kernels._QUAD_TOL`` set to
    1e-15 under p = 2, and, at the tolerance of every solve, a
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
    with monkeypatch.context() as patch, pytest.raises(NonConvergenceError, match="segment quadrature error"):
        patch.setattr(kernels, "_QUAD_TOL", 1e-15)
        quadrature_values_batch(t345.coords, t345.edge_vectors, (1.0, 1.0), RadialKernel.power(2.0))
    wave = RadialKernel.custom(lambda dx, dy: np.hypot(dx, dy) + 1e6 * np.sin(20.0 * dx))
    nodes[0] = 0
    with pytest.raises(NonConvergenceError, match="segment quadrature error"):
        solve_medianoid(t345, wave)

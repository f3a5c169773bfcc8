"""Weighted point medians and the sampled-region fallback."""

import math
import warnings

import numpy as np
import pytest

from regionmedian import EmptySampleError, Point2, Polygon
from regionmedian.solver import solve_median
from regionmedian.weiszfeld import PointSet, region_median_by_sampling, weiszfeld

from helpers import clustered_point_set, collinear_point_set, decimal_point_median


def _objective(ps, x, y):
    pts = ps.coords
    return float(np.sum(ps.weights * np.hypot(pts[:, 0] - x, pts[:, 1] - y)))


def test_equilateral_vertices_center():
    ps = PointSet([(0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3.0) / 2.0)])
    res = weiszfeld(ps)
    assert res.converged
    assert res.median.x == pytest.approx(0.5, abs=1e-9)
    assert res.median.y == pytest.approx(math.sqrt(3.0) / 6.0, abs=1e-9)


def test_collinear_points_pick_the_middle():
    res = weiszfeld(PointSet([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]))
    assert res.median.x == pytest.approx(1.0, abs=1e-9)
    assert abs(res.median.y) < 1e-12


def test_collinear_sets_give_the_weighted_middle():
    # |g| is piecewise constant along a line of data points and the Hessian
    # singular; from the centroid (-18.8, 0) the first set takes Weiszfeld
    # steps that lower the objective but not |g|
    res = weiszfeld(PointSet([(-100.0, 0.0), (0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)]))
    assert res.converged
    assert (res.median.x, res.median.y) == (1.0, 0.0)
    for seed in range(100):
        pts, w, want = collinear_point_set(seed)
        ps = PointSet(pts, w)
        res = weiszfeld(ps)
        assert res.converged, seed
        assert math.hypot(res.median.x - want[0], res.median.y - want[1]) <= 1e-12 * ps.diameter, seed


def test_wide_obtuse_triple_sits_on_the_vertex():
    # one vertex sees the others under more than 120 degrees, so the
    # median coincides with that vertex exactly
    res = weiszfeld(PointSet([(0.0, 0.0), (1.0, 0.0), (0.5, 0.05)]))
    assert res.converged
    assert math.hypot(res.median.x - 0.5, res.median.y - 0.05) < 1e-9


def test_dominant_weight_pins_the_median():
    ps = PointSet([(0, 0), (1, 0), (1, 1), (0, 1)], weights=[5.0, 1.0, 1.0, 1.0])
    res = weiszfeld(ps)
    assert math.hypot(res.median.x, res.median.y) < 1e-9


def test_iteration_escapes_a_non_optimal_vertex_start():
    """The first iterate lands exactly on a light vertex and must leave.

    Weights are chosen so the weighted centroid (the starting point) is
    the first point, whose anchor weight is too small to hold against
    the pull of the remaining points.
    """
    ps = PointSet([(0, 0), (1, 0), (0, 1), (-1, -1)], weights=[0.2, 1.0, 1.0, 1.0])
    res = weiszfeld(ps)
    assert res.converged
    assert math.hypot(res.median.x, res.median.y) > 1e-3
    assert _objective(ps, res.median.x, res.median.y) < _objective(ps, 0.0, 0.0)


def test_permutation_invariance():
    rng = np.random.default_rng(51)
    pts = rng.normal(size=(12, 2))
    w = rng.uniform(0.5, 2.0, 12)
    base = weiszfeld(PointSet(pts, weights=w))
    perm = rng.permutation(12)
    shuf = weiszfeld(PointSet(pts[perm], weights=w[perm]))
    assert math.hypot(base.median.x - shuf.median.x, base.median.y - shuf.median.y) < 1e-9


def test_rigid_motion_equivariance():
    rng = np.random.default_rng(52)
    pts = rng.normal(size=(9, 2))
    base = weiszfeld(PointSet(pts))
    ang = 0.83
    ca, sa = math.cos(ang), math.sin(ang)
    rot = np.array([[ca, -sa], [sa, ca]])
    shift = np.array([3.0, -1.5])
    moved = weiszfeld(PointSet(pts @ rot.T + shift))
    want = rot @ np.array([base.median.x, base.median.y]) + shift
    assert math.hypot(moved.median.x - want[0], moved.median.y - want[1]) < 1e-8


def test_single_point_returns_immediately():
    res = weiszfeld(PointSet([(2.5, -1.0)]))
    assert res.converged
    assert res.iterations == 0
    assert res.median.x == 2.5 and res.median.y == -1.0


def test_objective_never_increases_along_the_trace():
    # a full Newton step can lower |g| and raise the objective (by up to 4%
    # on the clustered sets); such a step is halved until the objective falls
    rng = np.random.default_rng(53)
    sets = [PointSet(rng.normal(size=(15, 2)) * 3.0)]
    sets += [PointSet(*clustered_point_set(s)) for s in range(60)]
    sets += [PointSet(*collinear_point_set(s)[:2]) for s in range(20)]
    for i, ps in enumerate(sets):
        values = [_objective(ps, p.x, p.y) for p, _ in weiszfeld(ps).trace]
        for earlier, later in zip(values, values[1:]):
            assert later <= earlier * (1.0 + 1e-14), i


@pytest.mark.parametrize("scale", [1e-200, 1e200, 1e-300])
def test_extreme_scales_give_the_scaled_median(scale):
    # squared coordinate differences underflow or overflow at these
    # scales; the diameter, and with it every stopping rule, must not
    base = np.random.default_rng(0).uniform(-1.0, 1.0, (20, 2))
    unit = weiszfeld(PointSet(base))
    res = weiszfeld(PointSet(base * scale))
    assert unit.converged and res.converged
    assert res.iterations == unit.iterations
    assert math.isclose(res.median.x, unit.median.x * scale, rel_tol=1e-12)
    assert math.isclose(res.median.y, unit.median.y * scale, rel_tol=1e-12)


def test_point_set_validation():
    with pytest.raises(ValueError):
        PointSet([])
    with pytest.raises(ValueError):
        PointSet([(0, 0), (1, float("nan"))])
    with pytest.raises(ValueError):
        PointSet([(0, 0), (1, 1)], weights=[1.0])
    with pytest.raises(ValueError):
        PointSet([(0, 0), (1, 1)], weights=[1.0, -2.0])
    with pytest.raises(ValueError, match="^points have a coordinate past the float range$"):
        PointSet([(0, 0), (10 ** 400, 1)])
    with pytest.raises(ValueError, match="^weights have a value past the float range$"):
        PointSet([(0, 0), (1, 1)], weights=[1, 10 ** 400])
    # rows that are not pairs: a third column is not dropped, a short row
    # is not an IndexError
    for rows in ([(0, 0, 9), (1, 0, 9)], [[0, 0], [1]], [[0, 0], [1, 1, 1]]):
        with pytest.raises(ValueError, match=r"^points must be a nonempty sequence of \(x, y\) pairs$"):
            PointSet(rows)
    with pytest.raises(ValueError):
        weiszfeld(PointSet([(0, 0), (1, 1)]), tol=0.0)
    for bad in ({"tol": math.inf}, {"tol": math.nan}, {"tol": True}, {"max_iter": 0}, {"max_iter": -5},
                {"max_iter": 2.5}, {"max_iter": True}):
        with pytest.raises(ValueError):
            weiszfeld(PointSet([(0, 0), (1, 1)]), **bad)


def test_sampled_square_finds_the_center():
    sq = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
    p = region_median_by_sampling(sq, 64)
    assert math.hypot(p.x - 0.5, p.y - 0.5) < 1e-3


def test_sampling_error_shrinks_with_the_grid():
    t345 = Polygon([(0, 0), (3, 0), (3, 4)])
    truth = solve_median(t345).median
    coarse = region_median_by_sampling(t345, 32)
    fine = region_median_by_sampling(t345, 128)
    dev_c = math.hypot(coarse.x - truth.x, coarse.y - truth.y)
    dev_f = math.hypot(fine.x - truth.x, fine.y - truth.y)
    assert dev_f < dev_c
    assert dev_f < 2e-3 * t345.diameter


def test_empty_sample_raises():
    sliver = Polygon([(0, 0), (1, 1 - 1e-9), (1, 1)])
    with pytest.raises(EmptySampleError):
        region_median_by_sampling(sliver, 2)
    # np.arange(2.5) would lay three rows at spacing 1/2.5, the last on the boundary
    for bad in (1, 2.5, True):
        with pytest.raises(ValueError):
            region_median_by_sampling(sliver, bad)


def test_a_point_set_whose_diameter_overflows_is_rejected():
    ps = PointSet([(1e308, 0.0), (-1e308, 0.0), (0.0, 1e308)])
    for measure in (lambda: ps.diameter, lambda: weiszfeld(ps)):
        with pytest.raises(ValueError, match="diameter overflows the float range"):
            measure()
    # a set just inside the float range keeps its diameter, also when the
    # diagonal of its bounding box overflows
    assert PointSet([(8e307, 0.0), (-8e307, 0.0)]).diameter == 1.6e308
    assert PointSet([(1.2e308, 0.0), (-0.5e308, 0.0), (0.0, 1.2e308)]).diameter == 1.7e308


@pytest.mark.parametrize("points", [
    [(1e308, 0.0), (0.0, 0.0), (0.0, 1e308), (1e308, 1e308)],  # the centroid's sums
    [(1.2e308, 0.0), (-0.5e308, 0.0), (0.0, 1.2e308)],  # the objective at the centroid
])
def test_a_point_set_whose_sums_overflow_is_rejected(points):
    # the diameter is finite, so only the sums can overflow; an infinite
    # objective would let every step pass the backtracking's objective test
    ps = PointSet(points)
    assert math.isfinite(ps.diameter)
    with pytest.raises(ValueError, match="^point set sums overflow the float range$"):
        weiszfeld(ps)


def test_subnormal_points_stop_unconverged_without_a_numpy_warning():
    # the weights w/d of the Hessian and of the Weiszfeld step overflow, so
    # the step is 0, and the run stops at its start
    pts = np.array([[1e-320, 0.0], [0.0, 1e-320], [3e-320, 2e-320]])
    state = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = weiszfeld(PointSet(pts))
        weiszfeld(PointSet(np.random.default_rng(1).normal(size=(5, 2)) * 1e-310))
    assert np.geterr() == state
    assert not res.converged and res.iterations == 0 and len(res.trace) == 1
    assert (res.median.x, res.median.y) == (float(np.mean(pts[:, 0])), float(np.mean(pts[:, 1])))


def _seeded_set(kind, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "normal":
        return rng.normal(size=(n, 2)), None
    if kind == "uniform":
        return rng.uniform(-1.0, 1.0, (n, 2)), None
    if kind == "weighted":
        return rng.normal(size=(n, 2)), rng.uniform(0.2, 3.0, n)
    k = {"two-cluster": 2, "three-cluster": 3}[kind]
    centres = rng.normal(size=(k, 2)) * 4.0
    return centres[rng.integers(0, k, n)] + rng.normal(size=(n, 2)) * 0.3, None


@pytest.mark.parametrize("kind", ["normal", "uniform", "two-cluster", "three-cluster", "weighted"])
def test_point_medians_match_the_decimal_reference(kind):
    # the stop bounds |g| / W, not the distance to the median: between two
    # clusters the objective is flat along their axis, and at tol=1e-12 a
    # set can stop 47 times its |g| / W off, so the polish is measured at
    # a tolerance near the float floor of |g| / W (about 1e-16)
    for j, n in enumerate((20, 50, 120, 200)):
        pts, w = _seeded_set(kind, n, 60 + j)
        ps = PointSet(pts, w)
        res = weiszfeld(ps, tol=1e-14)
        assert res.converged and res.iterations <= 12, (n, res.iterations)
        ref = decimal_point_median(ps.coords, ps.weights, (res.median.x, res.median.y))
        assert math.hypot(res.median.x - ref[0], res.median.y - ref[1]) <= 1e-12 * ps.diameter, n


def test_the_decimal_reference_names_a_singular_hessian():
    # off a data point on a line of points, every unit vector lies along
    # the line and the Hessian is singular
    with pytest.raises(AssertionError, match="Hessian .* is singular"):
        decimal_point_median([(0, 0), (1, 0), (2, 0), (3, 0), (7, 0)], [1] * 5, (0.5, 0.0))


def test_clustered_sets_converge_within_twelve_steps():
    # 300 weighted sets of 2-3 clusters; between clusters the objective is
    # flat along their axis, where a linearly converging iteration stalls
    iterations = []
    for s in range(300):
        res = weiszfeld(PointSet(*clustered_point_set(s)))
        assert res.converged, s
        iterations.append(res.iterations)
    assert max(iterations) <= 12


@pytest.mark.parametrize("offset", [1e6, 1e9, 1e12])
def test_far_point_sets_solve_in_their_frame(offset):
    # in absolute coordinates the rounding of |g| / W grows with the offset
    # (2e-5 at 1e12), so far sets stopped unconverged at tol=1e-12; solved
    # in their frame they keep the bits of the set moved to the origin
    for s in range(4):
        pts, w = clustered_point_set(s)
        far = pts + offset * np.array([1.0, -0.7])
        for weights in (None, w):
            res = weiszfeld(PointSet(far, weights), tol=1e-12)
            local = weiszfeld(PointSet(far - far[0], weights), tol=1e-12)
            assert res.converged, (s, offset)
            assert res.median == Point2(local.median.x + far[0, 0], local.median.y + far[0, 1]), (s, offset)

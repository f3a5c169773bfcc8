"""Weighted point medians and the sampled-region fallback."""

import importlib
import itertools
import math
import warnings

import numpy as np
import pytest

from regionmedian import EmptySampleError, Point2, Polygon
from regionmedian.solver import solve_median
from regionmedian.weiszfeld import PointSet, region_median_by_sampling, weiszfeld

# the package re-exports the function under the module's name
weiszfeld_module = importlib.import_module("regionmedian.weiszfeld")


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
    rng = np.random.default_rng(53)
    pts = rng.normal(size=(15, 2)) * 3.0
    ps = PointSet(pts)
    res = weiszfeld(ps)
    values = [_objective(ps, p.x, p.y) for p, _ in res.trace]
    for earlier, later in zip(values, values[1:]):
        assert later <= earlier + 1e-12


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
    with pytest.raises(ValueError):
        weiszfeld(PointSet([(0, 0), (1, 1)]), tol=0.0)
    for bad in ({"tol": math.inf}, {"tol": math.nan}, {"max_iter": 0}, {"max_iter": -5}):
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
    with pytest.raises(ValueError):
        region_median_by_sampling(sliver, 1)


def test_rising_objective_stops_unconverged_at_the_last_good_iterate(monkeypatch):
    # an objective that grows on every evaluation makes the first step
    # an increase; the run must stop at its start, not raise
    # (the seam gets the weights and the distances of each step's one
    # distance pass)
    values = itertools.count()
    monkeypatch.setattr(weiszfeld_module, "_objective", lambda w, d: float(next(values)))
    ps = PointSet([(0.0, 0.0), (4.0, 0.0), (0.0, 3.0), (1.0, 1.0)])
    res = weiszfeld(ps)
    assert not res.converged
    assert res.iterations == 0
    assert (res.median.x, res.median.y) == (1.25, 1.0)
    assert len(res.trace) == 1


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
    # objective would let every step pass the rising-objective test
    ps = PointSet(points)
    assert math.isfinite(ps.diameter)
    with pytest.raises(ValueError, match="^point set sums overflow the float range$"):
        weiszfeld(ps)


def test_subnormal_points_stop_unconverged_without_a_numpy_warning():
    # the weights 1/d of the first raw step overflow; the step fails the
    # objective test, and the run stops at its start as before
    pts = np.array([[1e-320, 0.0], [0.0, 1e-320], [3e-320, 2e-320]])
    state = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = weiszfeld(PointSet(pts))
        weiszfeld(PointSet(np.random.default_rng(1).normal(size=(5, 2)) * 1e-310))
    assert np.geterr() == state
    assert not res.converged and res.iterations == 0 and len(res.trace) == 1
    assert (res.median.x, res.median.y) == (float(np.mean(pts[:, 0])), float(np.mean(pts[:, 1])))

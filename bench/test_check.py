"""Tests for the benchmark's independent output checker (check.py).

The checker must accept the medians the package computes today, reject
each of them moved by 1e-6 of the region's diameter, and give the same
verdicts when its own quadrature is refined.
"""
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import check  # noqa: E402
import workloads  # noqa: E402
from regionmedian import Polygon, RadialKernel, solve_median, solve_medianoid  # noqa: E402

REFINED = {"order": 32, "panels_per_offset": 8.0}
DIRECTIONS = [2.0 * math.pi * k / 6 + 0.3 for k in range(6)]


def _regions(seed, count):
    rng = np.random.default_rng(seed)
    return [workloads.unit_region(rng, j) for j in range(count)]


def _solve(coords, p):
    poly = Polygon(coords)
    res = solve_median(poly) if p == 1.0 else solve_medianoid(poly, RadialKernel.power(p))
    assert res.converged
    return np.array([res.median.x, res.median.y])


def _moved(coords, x):
    step = 1e-6 * check.diameter(coords)
    return [x + step * np.array([math.cos(a), math.sin(a)]) for a in DIRECTIONS]


@pytest.mark.parametrize("p", [1.0, 1.5, 3.0])
def test_accepts_todays_medians_and_rejects_moved_ones(p):
    for coords in _regions(11, 12):
        x = _solve(coords, p)
        assert check.check_median(coords, x, p) == []
        for y in _moved(coords, x):
            assert check.check_median(coords, y, p) != []


def test_triangle_side_means_agree_only_at_the_median():
    for coords in _regions(12, 12)[::3]:
        x = _solve(coords, 1.0)
        assert check.triangle_mean_spread(coords, x) <= check.TRIANGLE_SPREAD_LIMIT
        for y in _moved(coords, x):
            assert check.triangle_mean_spread(coords, y) > check.TRIANGLE_SPREAD_LIMIT


def test_sampled_curve_median():
    coords = workloads.fourier_curve(np.random.default_rng(5), 1024)
    x = _solve(coords, 1.0)
    assert check.gradient_ratio(coords, x) < 1e-13
    assert all(check.check_median(coords, y) != [] for y in _moved(coords, x))


@pytest.mark.parametrize("p", [1.0, 3.0])
def test_verdicts_do_not_change_under_refinement(p):
    for coords in _regions(13, 9):
        x = _solve(coords, p)
        for point in [x] + _moved(coords, x):
            coarse = check.check_median(coords, point, p)
            fine = check.check_median(coords, point, p, **REFINED)
            assert (coarse == []) == (fine == [])
            r0 = check.gradient_ratio(coords, point, p)
            r1 = check.gradient_ratio(coords, point, p, **REFINED)
            assert abs(r0 - r1) <= 1e-13 + 1e-6 * r1


def test_far_from_the_origin_is_checked_in_a_centred_frame():
    offset = np.array([5e5, 5e5])
    for coords in _regions(14, 6):
        far = coords + offset
        x = _solve(far - offset, 1.0) + offset
        assert check.check_median(far, x) == []
        assert all(check.check_median(far, y) != [] for y in _moved(far, x))


def test_oracle_distance_bound_is_a_millionth_of_the_diameter():
    coords = workloads.T345
    assert check.diameter(coords) == 5.0
    assert check.oracle_distance_ok(coords, 4.9e-6)
    assert not check.oracle_distance_ok(coords, 5.1e-6)
    x = tuple(_solve(coords, 1.0))
    near = workloads.Outcome(None, True, x, 3, 4.9e-6)
    assert workloads.verdict(near, coords) == (False, False, "")
    failed, wrong, reason = workloads.verdict(near._replace(oracle_distance=5.1e-6), coords)
    assert failed and not wrong and reason.startswith("oracle distance")

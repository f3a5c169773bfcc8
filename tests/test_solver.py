"""Newton solves: known medians, invariances, degenerate families."""

import itertools
import math
import sys
import warnings
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from helpers import (
    DUMBBELL,
    random_convex_polygon,
    random_star_polygon,
    random_triangle,
    reference_solve_medianoid,
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
)
import regionmedian.solver
from regionmedian.oracle import oracle_sigma
from regionmedian.residuals import mean_distance_certificate
from regionmedian.solver import (
    _SINGULAR_COND,
    _SOLVE_MAX,
    _SOLVE_MIN,
    SolveConfig,
    SolveResult,
    _damped_newton,
    _fma,
    _ill_conditioned,
    _solve2,
    degenerate_limit_study,
    solve_median,
    solve_medianoid,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import workloads  # noqa: E402
from workloads import unit_region  # noqa: E402  the benchmark's seeded 3-8-gons

T345 = Polygon([(0.0, 0.0), (3.0, 0.0), (3.0, 4.0)])


def test_equilateral_median_is_the_center():
    tri = Polygon([(0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3.0) / 2.0)])
    res = solve_median(tri)
    assert res.converged
    assert res.median.x == pytest.approx(0.5, abs=1e-12)
    assert res.median.y == pytest.approx(math.sqrt(3.0) / 6.0, abs=1e-12)
    assert res.certificate is not None and res.certificate < 1e-9


def test_square_median_is_the_center():
    sq = Polygon([(0, 0), (2, 0), (2, 2), (0, 2)])
    res = solve_median(sq)
    assert res.converged
    assert math.hypot(res.median.x - 1.0, res.median.y - 1.0) < 1e-12
    assert res.certificate is None  # not a triangle


def test_345_median_value():
    # digits pinned after agreeing with the brute-force area minimizer
    # to three-tenths of a micro-diameter
    res = solve_median(T345)
    assert res.converged
    assert res.median.x == pytest.approx(2.00854264446594, abs=1e-6)
    assert res.median.y == pytest.approx(1.2732700458367958, abs=1e-6)
    assert res.normalized_norm <= 1e-12
    assert res.certificate < 1e-9


def test_median_beats_nearby_probes():
    res = solve_median(T345)
    m = res.median
    best = float(oracle_sigma(T345, m))
    d = T345.diameter
    for ang in (0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi):
        probe = Point2(m.x + 1e-3 * d * math.cos(ang), m.y + 1e-3 * d * math.sin(ang))
        assert float(oracle_sigma(T345, probe)) >= best - 1e-12


def test_trace_norms_decrease():
    res = solve_median(T345)
    norms = [entry[1] for entry in res.trace]
    assert len(norms) == res.iterations + 1
    for earlier, later in zip(norms, norms[1:]):
        assert later < earlier


def test_iteration_budget_is_honest():
    res = solve_median(T345, SolveConfig(max_iter=1))
    assert isinstance(res, SolveResult)
    assert not res.converged
    assert res.iterations == 1
    assert res.normalized_norm > 1e-12  # budget was genuinely too small


def test_similarity_equivariance():
    rng = np.random.default_rng(62)
    for _ in range(6):
        poly = random_convex_polygon(rng, n_max=7)
        base = solve_median(poly)
        ang = rng.uniform(0.0, 2.0 * np.pi)
        s = rng.uniform(0.5, 2.0)
        shift = rng.uniform(-5.0, 5.0, 2)
        moved = Polygon(similarity_transform(poly.coords, ang, s, shift))
        got = solve_median(moved)
        want = similarity_transform(
            np.array([[base.median.x, base.median.y]]), ang, s, shift
        )[0]
        dev = math.hypot(got.median.x - want[0], got.median.y - want[1])
        assert dev < 1e-10 * moved.diameter


def _offset_pair(coords, offset):
    """(base, moved): a region with vertex 0 at the origin, and that region
    moved by ``offset``. Both are representable, so each moved coordinate
    is exactly its base coordinate plus the offset, and the moved region
    seen from its vertex 0 is the base region, bit for bit."""
    coords = np.asarray(coords, dtype=float)
    moved = (coords - coords[0]) + offset
    return Polygon(moved - offset), Polygon(moved)


def _offset_cases():
    for d in (1e6, 1e8, 1e12):
        yield T345.coords, np.array([d, d])
    rng = np.random.default_rng(2026)
    regions = [T345.coords] + [make(rng).coords for make in (random_triangle, random_convex_polygon, random_star_polygon)
                               for _ in range(3)]
    for coords in regions:
        diam = Polygon(coords).diameter
        for distance in (1e4, 1e8, 1e12, 1e15):
            yield coords, distance * diam * rng.choice([-1.0, 1.0], 2) * rng.uniform(0.5, 1.0, 2)


def test_far_regions_solve_as_their_copies_at_the_origin():
    # translation equivariance in floats: a region 1e4 to 1e15 diameters
    # out takes the iterations of its copy at the origin, and its median
    # is that copy's, moved by one rounded add per coordinate
    for coords, offset in _offset_cases():
        base, moved = _offset_pair(coords, offset)
        want, got = solve_median(base), solve_median(moved)
        assert want.converged and got.converged and got.normalized_norm <= 1e-12
        assert got.iterations == want.iterations
        assert got.normalized_norm == want.normalized_norm
        assert got.edge_means == want.edge_means
        assert (got.median.x, got.median.y) == (want.median.x + offset[0], want.median.y + offset[1])
        ulp = float(np.max(np.spacing(np.abs(offset))))
        assert math.hypot(got.median.x - offset[0] - want.median.x,
                          got.median.y - offset[1] - want.median.y) <= ulp + 1e-14 * base.diameter


def test_map_grid_parcels_converge():
    # unit regions 3e5 to 1e6 diameters from the origin, like UTM parcels
    rng = np.random.default_rng(3000)
    makers = (random_triangle, random_convex_polygon, random_star_polygon)
    for j in range(200):
        coords = makers[j % 3](rng).coords
        diam = Polygon(coords).diameter
        res = solve_median(Polygon(coords + rng.uniform(3e5, 1e6, 2) * diam))
        assert res.converged and res.normalized_norm <= 1e-12, j


def test_power_two_medianoid_is_the_centroid():
    rng = np.random.default_rng(14)
    kern = RadialKernel.power(2.0)
    for _ in range(4):
        poly = random_convex_polygon(rng, n_max=8)
        res = solve_medianoid(poly, kern)
        assert res.converged
        c = poly.centroid
        assert math.hypot(res.median.x - c.x, res.median.y - c.y) < 1e-9 * poly.diameter


def test_power_four_square_medianoid_centers():
    sq = Polygon([(-1, -1), (1, -1), (1, 1), (-1, 1)])
    res = solve_medianoid(sq, RadialKernel.power(4.0))
    assert res.converged
    assert math.hypot(res.median.x, res.median.y) < 1e-9


def test_euclidean_medianoid_matches_solve_median():
    # quadrature-driven normal route against the closed-form tangential
    # route; two independent evaluations of the same fixed point
    rng = np.random.default_rng(31)
    kern = RadialKernel.euclidean()
    for _ in range(3):
        poly = random_convex_polygon(rng, n_max=6)
        a = solve_median(poly)
        b = solve_medianoid(poly, kern)
        assert b.converged
        dev = math.hypot(a.median.x - b.median.x, a.median.y - b.median.y)
        assert dev < 1e-9 * poly.diameter


def test_custom_kernel_result_is_marked_local():
    kern = RadialKernel.custom(lambda dx, dy: np.hypot(dx, dy) + 0.1 * (dx * dx + dy * dy))
    res = solve_medianoid(T345, kern)
    assert res.local
    assert res.converged


def test_a_singular_jacobian_takes_gradient_steps_to_the_halving_line(monkeypatch):
    # k = |dx| does not depend on y, so every Jacobian is singular and
    # every step is a gradient fallback step; the objective is minimized
    # on the vertical line x = sqrt(4.5) that halves the area, and y
    # stays at the centroid's 4/3
    verdicts = []

    def spy(jac):
        verdicts.append(_ill_conditioned(jac))
        return verdicts[-1]

    monkeypatch.setattr(regionmedian.solver, "_ill_conditioned", spy)
    res = solve_medianoid(T345, RadialKernel.custom(lambda dx, dy: np.abs(dx)))
    assert res.converged and res.local
    assert abs(res.median.x - math.sqrt(4.5)) <= 1e-10 * T345.diameter
    assert abs(res.median.y - 4.0 / 3.0) <= 1e-10 * T345.diameter
    assert len(verdicts) == res.iterations > 0 and all(verdicts)


def test_a_solve_that_cannot_reach_its_tolerance_stops_by_stagnation():
    # at a tolerance of 1e-300 no damped step lowers the residual after
    # the default solve's 3 iterations, and the same median is reported
    default = solve_median(T345)
    res = solve_median(T345, SolveConfig(tol_rel=1e-300))
    assert not res.converged
    assert res.iterations == default.iterations == 3
    assert res.median == default.median


@pytest.mark.parametrize("p,local", [(0.3, True), (0.9, True), (1.0, False), (1.5, False)])
def test_power_kernels_below_one_are_marked_local(p, local):
    # for p < 1 the objective need not be convex
    res = solve_medianoid(T345, RadialKernel.power(p))
    assert res.converged
    assert res.local is local


def test_a_solve_that_runs_off_to_infinity_is_not_converged():
    # under p = 0.3 the gradient fades far out, and Newton meets the
    # tolerance 1e15 away; every root lies in the convex hull, within one
    # diameter of the area centroid, so that is no root
    region = Polygon(DUMBBELL)
    res = solve_medianoid(region, RadialKernel.power(0.3))
    assert res.normalized_norm <= SolveConfig().tol_rel
    assert res.median.distance_to(region.centroid) > 1e12 * region.diameter
    assert res.local and not res.converged


def test_degenerate_family_closes_on_the_limit():
    """Flattening triangles walk their medians toward sqrt(alpha*beta/2).

    The distances are measured from the vertex where the two long sides
    meet and must approach the limit monotonically from below as gamma
    falls toward alpha - beta.
    """
    limit = math.sqrt(2.0 * 1.0 / 2.0)
    rows = degenerate_limit_study(2.0, 1.0, [1.1, 1.01, 1.001])
    gaps = [abs(dist - limit) for _, dist in rows]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[-1] < 5e-3
    for gamma, dist in rows:
        assert dist < limit


def test_degenerate_family_handles_isoceles_collapse():
    limit = math.sqrt(1.5 * 1.5 / 2.0)
    rows = degenerate_limit_study(1.5, 1.5, [0.1, 0.01])
    assert abs(rows[-1][1] - limit) < 5e-3


def test_degenerate_family_normalizes_side_order():
    a = degenerate_limit_study(1.0, 2.0, [1.05])
    b = degenerate_limit_study(2.0, 1.0, [1.05])
    assert a[0][1] == pytest.approx(b[0][1], rel=1e-12)


def test_degenerate_family_scales_exactly_by_powers_of_two():
    # sides scaled by 2^k give the rows scaled by 2^k, bit for bit, from
    # 2^-1000 to 2^1000, where an unscaled triangle loses its height or
    # overflows its solve
    gammas = [1.5, 1.1, 1.01]
    base = degenerate_limit_study(2.0, 1.0, gammas)
    for k in (-1000, -900, -530, -200, 200, 530, 900, 1000):
        s = math.ldexp(1.0, k)
        rows = degenerate_limit_study(2.0 * s, s, [g * s for g in gammas])
        assert rows == [(math.ldexp(g, k), math.ldexp(d, k)) for g, d in base], k


def test_degenerate_family_rejects_impossible_sides():
    with pytest.raises(InvalidTriangleError):
        degenerate_limit_study(2.0, 1.0, [0.9])  # violates triangle inequality
    with pytest.raises(InvalidTriangleError):
        degenerate_limit_study(2.0, 1.0, [3.2])
    with pytest.raises(InvalidTriangleError, match="need alpha >= beta > 0"):
        degenerate_limit_study(2.0, 0.0, [2.0])


def test_config_validation():
    with pytest.raises(ValueError):
        SolveConfig(tol_rel=0.0)
    with pytest.raises(ValueError):
        SolveConfig(max_iter=0)
    for tol in (math.inf, math.nan):
        with pytest.raises(ValueError):
            SolveConfig(tol_rel=tol)
    # True would run with a tolerance of 1.0; numpy floats still pass
    for bad in (True, np.True_, "1e-3", None):
        with pytest.raises(ValueError, match="tol_rel must be a number"):
            SolveConfig(tol_rel=bad)
    assert SolveConfig(tol_rel=np.float64(1e-9)).tol_rel == 1e-9


def test_iteration_budgets_are_integers():
    # 2.5 would run 3 iterations and True 1; numpy integers still pass
    for bad in (2.5, True, np.True_, "3", np.float64(3.0)):
        with pytest.raises(ValueError, match="max_iter must be an integer"):
            SolveConfig(max_iter=bad)
    res = solve_median(T345, SolveConfig(max_iter=np.int64(1)))
    assert res.iterations == 1 and not res.converged


def test_garbage_region_raises():
    with pytest.raises(SingularRegionError):
        solve_median([(0.0, 0.0), (1.0, 1.0)])
    with pytest.raises(SingularRegionError):
        solve_median("not a region")


def test_overflowing_region_is_a_singular_region():
    # the 3-4-5 triangle scaled by 1e150 is a valid polygon, but its
    # centroid overflows; that is a package error, not a bare ValueError
    huge = [(0.0, 0.0), (3e150, 0.0), (3e150, 4e150)]
    with pytest.raises(SingularRegionError, match="not a usable region"):
        solve_median(huge)
    with pytest.raises(SingularRegionError):
        solve_medianoid(Polygon(huge), RadialKernel.power(3.0))


def test_an_overflowing_kernel_is_one_singular_region_error():
    # 50**400 overflows: the solve raises one package error naming the
    # overflow, prints no numpy warning and leaves numpy's state as it was
    tri = Polygon([(0.0, 0.0), (30.0, 0.0), (30.0, 40.0)])
    state = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularRegionError, match="overflow encountered in power"):
            solve_medianoid(tri, RadialKernel.power(400.0))
    assert np.geterr() == state


def test_random_triangles_converge_with_tiny_spread():
    rng = np.random.default_rng(90)
    for _ in range(10):
        tri = random_triangle(rng)
        res = solve_median(tri)
        assert res.converged
        assert res.normalized_norm <= 1e-12
        assert res.certificate < 1e-9


def test_triangle_certificate_is_the_spread_at_the_median_bit_for_bit():
    # the solver takes the spread from its final report, which was
    # evaluated at the reported median with the same closed-form means
    rng = np.random.default_rng(91)
    for _ in range(40):
        tri = random_triangle(rng)
        res = solve_median(tri)
        assert res.certificate == mean_distance_certificate(tri, res.median).spread


@pytest.mark.parametrize(
    "kernel",
    [
        RadialKernel.power(1.5),
        RadialKernel.power(2.0),
        RadialKernel.power(3.0),
        RadialKernel.custom(lambda dx, dy: np.hypot(dx, dy) + 0.1 * (dx * dx + dy * dy)),
    ],
    ids=["power1.5", "power2", "power3", "custom"],
)
def test_medianoid_triangles_carry_the_certificate_for_every_kernel(kernel):
    # equal edge means are the median-like point's balance for any kernel
    res = solve_medianoid(T345, kernel)
    assert res.converged
    assert res.certificate is not None and res.certificate < 1e-12
    assert res.local == (kernel.p is None)


@pytest.mark.parametrize(
    "kernel",
    [
        RadialKernel.power(1.5),
        RadialKernel.power(2.0),
        RadialKernel.power(3.0),
        RadialKernel.custom(lambda dx, dy: np.hypot(dx, dy) + 0.1 * (dx * dx + dy * dy)),
    ],
    ids=["power1.5", "power2", "power3", "custom"],
)
def test_medianoid_solves_without_scipy_quad(kernel, no_scipy_quad):
    # the edge means come from one batched Gauss-Kronrod pass; the
    # per-edge quad route is only the tests' reference
    pentagon = Polygon([(0.0, 0.0), (3.0, 0.0), (3.5, 2.0), (1.0, 4.0), (-0.5, 1.5)])
    for region in (T345, pentagon):
        assert solve_medianoid(region, kernel).converged


class _Evaluation(NamedTuple):
    """What the solver's residual helper ``_frame_residual`` returns."""
    means: np.ndarray
    tx: float
    ty: float
    jacobian: tuple

    @property
    def norm(self) -> float:
        return math.hypot(self.tx, self.ty)


def _record_calls(monkeypatch, rewrite=None):
    """Record (query point, evaluation, region's vertex 0) for every call
    of the solver's residual helper ``_frame_residual``;
    ``rewrite(index, evaluation)`` may replace an evaluation. The point
    and vertex 0 are in the solve frame."""
    calls = []
    inner = regionmedian.solver._frame_residual

    def recorded(poly, x, *args, **kwargs):
        rep = _Evaluation(*inner(poly, x, *args, **kwargs))
        if rewrite is not None:
            rep = rewrite(len(calls), rep)
        calls.append((np.array(x, dtype=float), rep, poly.coords[0]))
        return rep

    monkeypatch.setattr(regionmedian.solver, "_frame_residual", recorded)
    return calls


def _sort_calls(calls, res, region):
    """Sort a solve's residual calls on ``region`` into accepted steps and
    rejected backtracks; fail on any other call.

    Recorded points meet the trace once moved back through the region's
    vertex 0, as the solver moves its trace; the step ray is checked in
    the solve frame. A rejected trial has no smaller norm than the
    current iterate and lies on the step ray, at 2^j times the accepted
    step for its j-th halving.
    """
    diam = region.diameter
    calls = [(p, rep, p + (region.coords[0] - v0)) for p, rep, v0 in calls]
    iterates = [np.array([p.x, p.y]) for p, _ in res.trace]
    assert np.array_equal(calls[0][2], iterates[0])
    x, norm = calls[0][0], calls[0][1].norm
    accepted = rejected = 0
    i = 1
    while i < len(calls):
        trials = []
        target = iterates[accepted + 1] if accepted + 1 < len(iterates) else None
        while i < len(calls) and not (target is not None and np.array_equal(calls[i][2], target)):
            trials.append(calls[i])
            i += 1
        for j, (p, rep, _) in enumerate(trials):
            assert rep.norm >= norm
            if i < len(calls):
                np.testing.assert_allclose(p - x, (calls[i][0] - x) * 2.0 ** (len(trials) - j), rtol=1e-9, atol=1e-14 * diam)
        rejected += len(trials)
        if i < len(calls):
            x, norm = calls[i][0], calls[i][1].norm
            accepted += 1
            i += 1
    assert accepted == res.iterations == len(iterates) - 1
    return accepted, rejected


def _seeded_regions():
    rng = np.random.default_rng(4242)
    near = [make(rng) for make in (random_triangle, random_convex_polygon, random_star_polygon) for _ in range(10)]
    yield from near
    # the same regions 3e5 to 1e6 diameters out, where the solve frame
    # is translated to vertex 0
    rng = np.random.default_rng(4243)
    for poly in near:
        yield Polygon(poly.coords + rng.uniform(3e5, 1e6, 2) * poly.diameter)


def test_median_makes_one_residual_call_per_trial_point(monkeypatch):
    # the closed-form report carries the Jacobian, so the only calls are
    # the start, the accepted steps and the rejected backtracks
    calls = _record_calls(monkeypatch)
    for poly in _seeded_regions():
        calls.clear()
        res = solve_median(poly)
        assert res.converged
        accepted, rejected = _sort_calls(calls, res, poly)
        assert len(calls) == 1 + accepted + rejected <= 5


def test_median_steps_with_the_reported_jacobian(monkeypatch):
    # a Jacobian scaled by 1/3 at the start triples the first Newton step:
    # the full step is rejected and the half step accepted, so the solver
    # must be stepping with the report's Jacobian
    def rewrite(index, rep):
        if index > 0:
            return rep
        return rep._replace(jacobian=tuple(tuple(v / 3.0 for v in row) for row in rep.jacobian))

    calls = _record_calls(monkeypatch, rewrite)
    poly = Polygon([(0.0, 0.0), (3.0, 0.0), (3.5, 2.0), (1.0, 4.0), (-0.5, 1.5)])
    res = solve_median(poly)
    assert res.converged
    accepted, rejected = _sort_calls(calls, res, poly)
    assert rejected >= 1
    assert len(calls) == 1 + accepted + rejected


@pytest.mark.parametrize(
    "kernel",
    [RadialKernel.power(1.5), RadialKernel.custom(lambda dx, dy: np.hypot(dx, dy) + 0.1 * (dx * dx + dy * dy))],
    ids=["power1.5", "custom"],
)
def test_medianoid_makes_one_residual_call_per_trial_point(monkeypatch, kernel):
    # the quadrature report carries the Jacobian too, so the only calls
    # are the start, the accepted steps and the rejected backtracks
    calls = _record_calls(monkeypatch)
    for poly in list(_seeded_regions())[::3]:
        calls.clear()
        res = solve_medianoid(poly, kernel)
        assert res.converged
        accepted, rejected = _sort_calls(calls, res, poly)
        assert len(calls) == 1 + accepted + rejected <= 6


# ---------------------------------------------------------------- conditioning

def _numpy_says_ill_conditioned(jac) -> bool:
    """The fallback test the closed form replaced: an SVD condition number."""
    jac = np.array(jac, dtype=float)
    if not np.all(np.isfinite(jac)):
        return True
    with np.errstate(divide="ignore"):
        cond = np.linalg.cond(jac)
    return not math.isfinite(cond) or cond > _SINGULAR_COND


def _exactly_above(jac, threshold) -> bool:
    """cond(jac) > threshold, decided in rational arithmetic from
    cond = (F + sqrt(F^2 - 4 det^2)) / (2 |det|)."""
    (a, b), (c, d) = ([Fraction(v) for v in row] for row in jac)
    det = abs(a * d - b * c)
    if det == 0:
        return True
    f = a * a + b * b + c * c + d * d
    rhs = 2 * Fraction(threshold) * det - f
    return rhs < 0 or f * f - 4 * det * det > rhs * rhs


def _rotation(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


@pytest.mark.parametrize("step", [(0.0, 0.0), (-0.0, 0.0), (math.nan, 0.0), (0.0, math.inf), (-math.inf, math.nan)])
def test_a_zero_or_non_finite_step_ends_the_run_at_once(step):
    # no damping makes such a step pass, so the run stops without
    # evaluating a trial point at every halving down to _MIN_STEP
    calls = []

    def evaluate(v):
        calls.append(v)
        return 1.0, np.array([1.0, 0.0]), None

    x = np.array([0.5, 0.25])
    visited, state, iterations, converged = _damped_newton(
        evaluate, x, 1.0, SolveConfig(), lambda v, state: np.array(step))
    assert len(calls) == 1 and iterations == 0 and not converged
    assert len(visited) == 1 and visited[0][0] is x and state[0] == 1.0


def test_conditioning_takes_the_decision_of_numpy_cond():
    rng = np.random.default_rng(162)
    cases = [rng.normal(size=(2, 2)) * 10.0 ** rng.uniform(-3, 3) for _ in range(2000)]
    # exactly singular, and the zero matrix
    for _ in range(200):
        u, v = rng.integers(-9, 10, 2), rng.integers(-9, 10, 2)
        cases.append(np.outer(u, v) * rng.uniform(0.1, 10.0))
    cases += [np.zeros((2, 2)), np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[0.0, 3.0], [0.0, 5.0]])]
    # a non-finite entry
    for bad in (math.inf, -math.inf, math.nan):
        for k in range(4):
            j = rng.normal(size=(2, 2))
            j.flat[k] = bad
            cases.append(j)
    # within 1e-3 of the threshold on either side, built so that both
    # routes see exact singular values: upper triangular, then rows or
    # columns swapped and signs flipped
    for _ in range(2000):
        d = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-12, -3)
        j = np.array([[1.0, rng.uniform(-1, 1) * rng.integers(0, 2)], [0.0, (1.0 + d) / _SINGULAR_COND]])
        j = j * rng.choice([-1.0, 1.0], size=(2, 2))
        cases.append(j[::-1] if rng.integers(0, 2) else j[:, ::-1] if rng.integers(0, 2) else j)
    # every case again with entries scaled by 2^-900 and 2^900
    cases += [np.ldexp(j, e) for j in cases for e in (-900, 900)]
    near = 0
    for j in cases:
        jac = tuple(map(tuple, j.tolist()))
        if _ill_conditioned(jac) != _numpy_says_ill_conditioned(jac):
            assert abs(np.linalg.cond(j) / _SINGULAR_COND - 1.0) < 1e-9, jac
        near += np.all(np.isfinite(j)) and abs(np.linalg.cond(j) / _SINGULAR_COND - 1.0) < 1e-3
    assert near > 3000


def test_conditioning_near_the_threshold_of_rotated_matrices():
    # rotated near-singular matrices: rounding in det = ad - bc moves the
    # closed form's condition number by up to about 2^-53 cond relative,
    # 1.1e-4 here, and LAPACK's smallest singular value errs by ~3e-4 of
    # itself; outside those bands the decisions agree with the exact one
    rng = np.random.default_rng(163)
    checked = exact_checked = 0
    for _ in range(3000):
        d = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-6, -1)
        j = _rotation(rng.uniform(0, 7)) @ np.diag([1.0, (1.0 + d) / _SINGULAR_COND]) @ _rotation(rng.uniform(0, 7))
        jac = tuple(map(tuple, j.tolist()))
        got = _ill_conditioned(jac)
        lo, hi = _exactly_above(jac, 0.9998 * _SINGULAR_COND), _exactly_above(jac, 1.0002 * _SINGULAR_COND)
        if lo == hi:
            assert got == lo, jac
            exact_checked += 1
        if abs(np.linalg.cond(j) / _SINGULAR_COND - 1.0) > 1e-3:
            assert got == _numpy_says_ill_conditioned(jac), jac
            checked += 1
    assert exact_checked > 1400 and checked > 1000


# ---------------------------------------------------------------- the 2x2 step

def _solve_outcome(solve, jac, b0, b1):
    """The hex of both components, which keeps the sign of zero, or the
    exception's type and message."""
    try:
        return [float(v).hex() for v in solve(jac, b0, b1)]
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def _numpy_solve(jac, b0, b1):
    return np.linalg.solve(np.array(jac), np.array([b0, b1])).tolist()


def test_the_float_step_has_the_bits_of_numpy_solve(monkeypatch):
    # seeded systems at scales 2^-420..2^420, near-singular ones up to
    # cond 1e12, integer and tied entries, and every system of small
    # entries with zeros of both signs, singular ones included; entries
    # past 2^+-450 hand the system to np.linalg.solve, and so do zero pivots
    rng = np.random.default_rng(4701)
    systems = []
    for _ in range(3000):
        scale = 2.0 ** int(rng.integers(-420, 421))
        a, b = rng.uniform(-1, 1, (2, 2)) * scale, rng.uniform(-1, 1, 2) * 2.0 ** int(rng.integers(-420, 421))
        systems.append((a, b))
        u, v = rng.uniform(-1, 1, 2)
        w = rng.uniform(-1, 1)
        near = 10.0 ** -rng.uniform(0, 12)
        systems.append((np.array([[u, v], [w * u, w * v * (1.0 + near)]]), rng.uniform(-1, 1, 2)))
        systems.append((rng.integers(-4, 5, (2, 2)).astype(float), rng.integers(-4, 5, 2).astype(float)))
        t = rng.uniform(-1, 1)
        systems.append((np.array([[t, rng.uniform(-1, 1)], [rng.choice([t, -t]), t]]), np.array([t, -t])))
    for k, (a, b) in enumerate(systems[::40]):
        systems.append((a * 2.0 ** (460 if k % 2 else -470), b))
    entries, rhs = (0.0, -0.0, 1.0, -1.0, 2.0, -3.0, 0.5), (0.0, -0.0, 1.0, -3.0)
    for a00, a01, a10, a11 in itertools.product(entries, repeat=4):
        systems += [(np.array([[a00, a01], [a10, a11]]), np.array(b)) for b in itertools.product(rhs, repeat=2)]
    cases = [(tuple(map(tuple, a.tolist())), *b.tolist()) for a, b in systems]
    with np.errstate(all="ignore"):
        want = [_solve_outcome(_numpy_solve, *case) for case in cases]
        handed = []
        real = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda *args: handed.append(1) or real(*args))
        got = [_solve_outcome(_solve2, *case) for case in cases]
    for case, g, w in zip(cases, got, want):
        assert g == w, case
    assert sum(isinstance(w, str) for w in want) > 1000
    assert 3000 < len(handed) < len(cases) // 4


def test_fma_rounds_once():
    # against the exact rational result, and Python 3.13's math.fma bit
    # for bit where there is one: products and sums within the bounds of
    # _solve2, near-cancelling sums and zeros of both signs
    rng = np.random.default_rng(4702)
    lo, hi = math.frexp(_SOLVE_MIN)[1], math.frexp(_SOLVE_MAX)[1] - 1
    triples = []
    for k in range(6000):
        a = rng.uniform(-1, 1) * 2.0 ** int(rng.integers(lo, hi))
        b = rng.uniform(-1, 1) * 2.0 ** int(rng.integers(lo, hi))
        c = (-(a * b), -(a * b) * (1.0 + rng.uniform(-1e-15, 1e-15)),
             rng.uniform(-1, 1) * 2.0 ** int(rng.integers(lo, hi)))[k % 3]
        triples.append((a, b, c))
    triples += list(itertools.product((0.0, -0.0, 1.5, -3.0), repeat=3))
    for a, b, c in triples:
        got = _fma(a, b, c)
        exact = Fraction(a) * Fraction(b) + Fraction(c)
        assert got == float(exact), (a, b, c)
        if hasattr(math, "fma"):
            assert got.hex() == math.fma(a, b, c).hex(), (a, b, c)


def test_the_newton_steps_of_the_bench_inputs_never_hand_back(monkeypatch):
    # every step of the seed-0 small_regions and kernel_medianoid solves
    # is solved on floats; np.linalg.solve is never called
    steps = []
    real = regionmedian.solver._solve2
    monkeypatch.setattr(regionmedian.solver, "_solve2", lambda *args: steps.append(1) or real(*args))

    def refuse(*args):
        raise AssertionError("a step was handed back")

    monkeypatch.setattr(np.linalg, "solve", refuse)
    for name in ("small_regions", "kernel_medianoid"):
        wl = workloads.WORKLOADS[name]
        for inp in wl.make_inputs(0, ""):
            wl.run(regionmedian, inp)
    assert len(steps) > 1500


# ---------------------------------------------------------------- the loop on floats

def _outcome(solve, region, kernel, cfg=None) -> str:
    """The repr of the result, or the type and message of the exception.
    A float's repr round-trips, so equal reprs are equal bits."""
    try:
        return repr(solve(region, kernel, cfg))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def test_the_float_loop_matches_the_report_loop_bit_for_bit(monkeypatch):
    # every field of every result, and every error, as the report-object
    # loop gives them on the array routes of the closed form and the
    # residual; loops up to geometry._FLOAT_EDGES edges take the float
    # routes in the float loop. Each solve gets a vertex loop, so that its
    # polygon is built on the routes under test
    kernels = [RadialKernel.power(p) for p in (1.0, 1.5, 2.0, 3.0)]
    kernels.append(RadialKernel.custom(lambda dx, dy: np.hypot(dx, dy) + 0.1 * (dx * dx + dy * dy)))
    rng = np.random.default_rng(3201)
    regions = [unit_region(rng, j) for j in range(24)]
    # the same region 1e8 diameters out, where the solve frame is translated
    far = Polygon(regions[4])
    regions.append(far.coords + 1e8 * far.diameter)
    # stars either side of the crossover and at it
    crossover = regionmedian.geometry._FLOAT_EDGES
    regions += [star_loop(rng, n) for n in (3, 8, crossover, crossover + 1)]
    cases = [(region, kernel, None) for region in regions for kernel in kernels]
    cases += [
        # every step a gradient fallback step, and a stagnating solve
        (T345.coords, RadialKernel.custom(lambda dx, dy: np.abs(dx)), None),
        (T345.coords, RadialKernel.euclidean(), SolveConfig(tol_rel=1e-300)),
        # a solve that runs off, and the error paths
        (DUMBBELL, RadialKernel.power(0.3), None),
        ("not a region", RadialKernel.euclidean(), None),
        ([(0.0, 0.0), (3e150, 0.0), (3e150, 4e150)], RadialKernel.power(3.0), None),
        ([(0.0, 0.0), (30.0, 0.0), (30.0, 40.0)], RadialKernel.power(400.0), None),
        (T345.coords, RadialKernel.custom(lambda dx, dy: np.where((dx < -1.2) & (dx > -2.9), np.nan, np.hypot(dx, dy))), None),
    ]
    outcomes = []
    for region, kernel, cfg in cases:
        got = _outcome(solve_medianoid, region, kernel, cfg)
        with monkeypatch.context() as patch:
            use_array_routes(patch)
            assert got == _outcome(reference_solve_medianoid, region, kernel, cfg)
        outcomes.append(got)
    assert sum("converged=False" in o for o in outcomes) >= 2
    assert [o.split(":")[0] for o in outcomes[-4:]] == ["SingularRegionError"] * 3 + ["NonConvergenceError"]

"""End-to-end acceptance gate.

Each test prints one verdict line with the honestly measured numbers
before asserting, so a red criterion still reports what it saw.
"""

import json
import math
import time
from pathlib import Path

import numpy as np

from helpers import closed_value, interior_point, random_convex_polygon, random_triangle, similarity_transform

from regionmedian import Point2, Polygon, RadialKernel, Vector2, rotate90
from regionmedian.cli import main
from regionmedian.kernels import segment_sigma_quadrature
from regionmedian.oracle import oracle_minimize, oracle_sigma
from regionmedian.residuals import polygon_residual
from regionmedian.solver import degenerate_limit_study, solve_median, solve_medianoid
from regionmedian.weiszfeld import region_median_by_sampling

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


def _verdict(capsys, idx, ok, detail):
    with capsys.disabled():
        print(f"[criterion {idx:02d}] {'PASS' if ok else 'FAIL'} {detail}")


def test_criterion_01_closed_vs_quadrature(capsys):
    rng = np.random.default_rng(101)
    kern = RadialKernel.euclidean()
    start = time.perf_counter()
    worst = 0.0
    for k in range(1000):
        a = rng.normal(size=2) * 2.0
        b = rng.normal(size=2) * 2.0
        if k % 2 == 0:
            # push the query point onto the carrier line, down to
            # offsets at the rounding floor
            t = rng.uniform(-0.5, 1.5)
            off = 10.0 ** rng.uniform(-16.0, -1.0)
            d = b - a
            n = np.array([-d[1], d[0]]) / np.hypot(*d)
            x = a + t * d + off * n
        else:
            x = rng.normal(size=2) * 3.0
        closed = closed_value(a, b, x)
        quadv = segment_sigma_quadrature(a, b - a, x, kern, tol=1e-13)
        worst = max(worst, abs(closed - quadv) / max(abs(closed), 1e-300))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 5.0
    _verdict(capsys, 1, ok,
             f"segment integrals, two routes: worst rel {worst:.2e} (limit 1e-12), "
             f"{elapsed:.2f}s (limit 5s), 1000 configs")
    assert worst <= 1e-12
    assert elapsed < 5.0


def test_criterion_02_residual_is_the_area_gradient(capsys):
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        poly = random_convex_polygon(rng, n_max=8)
        px, py = interior_point(poly, rng)
        h = 1e-5 * poly.diameter
        grad = polygon_residual(poly, Point2(px, py)).gradient
        fx = (float(oracle_sigma(poly, Point2(px + h, py))) - float(oracle_sigma(poly, Point2(px - h, py)))) / (2 * h)
        fy = (float(oracle_sigma(poly, Point2(px, py + h))) - float(oracle_sigma(poly, Point2(px, py - h)))) / (2 * h)
        rel = math.hypot(grad.dx - fx, grad.dy - fy) / max(math.hypot(fx, fy), 1e-300)
        worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-4 and elapsed < 60.0
    _verdict(capsys, 2, ok,
             f"boundary residual vs finite-difference area slope: worst rel {worst:.2e} "
             f"(limit 1e-4), {elapsed:.1f}s (limit 60s), 20 regions")
    assert worst <= 1e-4
    assert elapsed < 60.0


def test_criterion_03_triangles_converge_with_certificates(capsys):
    rng = np.random.default_rng(303)
    start = time.perf_counter()
    worst_norm = 0.0
    worst_spread = 0.0
    all_converged = True
    for _ in range(50):
        tri = random_triangle(rng)
        res = solve_median(tri)
        all_converged = all_converged and res.converged
        worst_norm = max(worst_norm, res.normalized_norm)
        worst_spread = max(worst_spread, res.certificate)
    elapsed = time.perf_counter() - start
    ok = all_converged and worst_norm <= 1e-12 and worst_spread < 1e-9 and elapsed < 30.0
    _verdict(capsys, 3, ok,
             f"50 random triangles: all converged={all_converged}, worst normalized norm "
             f"{worst_norm:.2e} (limit 1e-12), worst mean spread {worst_spread:.2e} "
             f"(limit 1e-9), {elapsed:.1f}s (limit 30s)")
    assert all_converged
    assert worst_norm <= 1e-12
    assert worst_spread < 1e-9
    assert elapsed < 30.0


def test_criterion_04_solver_matches_brute_force_minimizer(capsys):
    rng = np.random.default_rng(404)
    start = time.perf_counter()
    worst = 0.0
    regions = [random_triangle(rng) for _ in range(20)]
    regions += [random_convex_polygon(rng, n_max=8) for _ in range(20)]
    for poly in regions:
        med = solve_median(poly).median
        ora = oracle_minimize(poly)
        rel = math.hypot(med.x - ora.x, med.y - ora.y) / poly.diameter
        worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-7 and elapsed < 60.0
    _verdict(capsys, 4, ok,
             f"solver vs area-scan minimizer on 40 regions: worst {worst:.2e} of diameter "
             f"(limit 1e-7), {elapsed:.1f}s (limit 60s)")
    assert worst <= 1e-7
    assert elapsed < 60.0


def test_criterion_05_degenerate_triangle_families(capsys):
    start = time.perf_counter()
    rows = degenerate_limit_study(2.0, 1.0, [1.1, 1.01, 1.001, 1.0001])
    limit = math.sqrt(2.0 * 1.0 / 2.0)
    gaps = [abs(dist - limit) for _, dist in rows]
    monotone = all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))
    final_gap = gaps[-1]
    iso_ok = True
    iso_worst = 0.0
    for alpha in (1.0, 1.7, 2.5):
        iso_rows = degenerate_limit_study(alpha, alpha, [0.05 * alpha, 0.005 * alpha])
        gap = abs(iso_rows[-1][1] - math.sqrt(alpha * alpha / 2.0))
        iso_worst = max(iso_worst, gap)
        iso_ok = iso_ok and gap < 5e-3
    elapsed = time.perf_counter() - start
    ok = monotone and final_gap < 5e-3 and iso_ok and elapsed < 60.0
    _verdict(capsys, 5, ok,
             f"flattening families: monotone={monotone}, final gap {final_gap:.2e} "
             f"(limit 5e-3), equal-sides worst gap {iso_worst:.2e}, {elapsed:.1f}s (limit 60s)")
    assert monotone
    assert final_gap < 5e-3
    assert iso_ok
    assert elapsed < 60.0


def test_criterion_06_medianoid_kernels(capsys):
    rng = np.random.default_rng(606)
    start = time.perf_counter()
    worst_centroid = 0.0
    worst_euclid = 0.0
    k2 = RadialKernel.power(2.0)
    ke = RadialKernel.euclidean()
    for _ in range(20):
        poly = random_convex_polygon(rng, n_max=8)
        c = poly.centroid
        r2 = solve_medianoid(poly, k2)
        worst_centroid = max(
            worst_centroid,
            math.hypot(r2.median.x - c.x, r2.median.y - c.y) / poly.diameter,
        )
        re = solve_medianoid(poly, ke)
        rm = solve_median(poly)
        worst_euclid = max(
            worst_euclid,
            math.hypot(re.median.x - rm.median.x, re.median.y - rm.median.y) / poly.diameter,
        )
    elapsed = time.perf_counter() - start
    ok = worst_centroid <= 1e-9 and worst_euclid <= 1e-9 and elapsed < 60.0
    _verdict(capsys, 6, ok,
             f"kernel medianoids on 20 regions: square-law vs centroid {worst_centroid:.2e} "
             f"(limit 1e-9), euclidean route agreement {worst_euclid:.2e} (limit 1e-9), "
             f"{elapsed:.1f}s (limit 60s)")
    assert worst_centroid <= 1e-9
    assert worst_euclid <= 1e-9
    assert elapsed < 60.0


def test_criterion_07_sampled_disk_boundary_converges(capsys):
    start = time.perf_counter()
    center = (0.25, -0.4)
    dists = []
    for n in (16, 32, 64, 128):
        u = np.arange(n) / n
        theta = 2.0 * np.pi * u + 1e-3 * np.sin(2.0 * np.pi * u)
        loop = np.stack(
            [center[0] + np.cos(theta), center[1] + np.sin(theta)], axis=1
        )
        res = solve_median(Polygon(loop))
        dists.append(math.hypot(res.median.x - center[0], res.median.y - center[1]))
    first_order = all(d2 <= 0.6 * d1 for d1, d2 in zip(dists, dists[1:]))
    elapsed = time.perf_counter() - start
    ok = first_order and dists[-1] < 1e-6 and elapsed < 30.0
    _verdict(capsys, 7, ok,
             f"disk via sampled boundary: center distances {['%.2e' % d for d in dists]}, "
             f"first-order decay={first_order}, final {dists[-1]:.2e} (limit 1e-6), "
             f"{elapsed:.1f}s (limit 30s)")
    assert first_order
    assert dists[-1] < 1e-6
    assert elapsed < 30.0


def test_criterion_08_sampled_region_median(capsys):
    rng = np.random.default_rng(2026)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(10):
        poly = random_convex_polygon(rng, n_max=8)
        truth = solve_median(poly).median
        approx = region_median_by_sampling(poly, 256)
        worst = max(
            worst, math.hypot(approx.x - truth.x, approx.y - truth.y) / poly.diameter
        )
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-3 and elapsed < 300.0
    _verdict(capsys, 8, ok,
             f"256-grid sampled medians on 10 regions: worst {worst:.2e} of diameter "
             f"(limit 1e-3), {elapsed:.1f}s (limit 300s)")
    assert worst <= 1e-3
    assert elapsed < 300.0


def test_criterion_09_similarity_covariance_of_residuals(capsys):
    rng = np.random.default_rng(909)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        poly = random_convex_polygon(rng, n_max=8)
        x = np.array(interior_point(poly, rng))
        base = polygon_residual(poly, Point2(*x)).residual
        ang = rng.uniform(0.0, 2.0 * np.pi)
        s = rng.uniform(0.4, 2.5)
        shift = rng.uniform(-10.0, 10.0, 2)
        moved = Polygon(similarity_transform(poly.coords, ang, s, shift))
        xm = similarity_transform(x[None, :], ang, s, shift)[0]
        got = polygon_residual(moved, Point2(*xm)).residual
        ca, sa = math.cos(ang), math.sin(ang)
        want = Vector2(
            s * s * (ca * base.dx - sa * base.dy),
            s * s * (sa * base.dx + ca * base.dy),
        )
        scale = max(s * s * math.hypot(base.dx, base.dy), 1e-12)
        worst = max(worst, math.hypot(got.dx - want.dx, got.dy - want.dy) / scale)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 60.0
    _verdict(capsys, 9, ok,
             f"100 similarity transforms: worst residual covariance deviation {worst:.2e} "
             f"(limit 1e-10), {elapsed:.1f}s (limit 60s)")
    assert worst <= 1e-10
    assert elapsed < 60.0


def test_criterion_10_report_files_and_exit_codes(capsys, tmp_path):
    start = time.perf_counter()
    byte_stable = True
    for stem in ("equilateral", "t345", "pentagon"):
        out_path = tmp_path / f"{stem}.json"
        code = main(["median", str(DATA / f"{stem}.json"), "--json-out", str(out_path)])
        golden = (GOLDEN / f"{stem}_report.json").read_bytes()
        byte_stable = byte_stable and code == 0 and out_path.read_bytes() == golden
    code_bad = main(["median", str(DATA / "malformed.json")])
    code_starved = main(["median", str(DATA / "t345.json"), "--max-iter", "1"])
    capsys.readouterr()  # swallow the CLI output captured above
    parsed = json.loads((GOLDEN / "t345_report.json").read_text())
    fields_ok = set(parsed) >= {
        "median", "residual_norm", "normalized_norm", "iterations",
        "edge_means", "certificate_spread",
    }
    elapsed = time.perf_counter() - start
    ok = byte_stable and fields_ok and code_bad == 1 and code_starved == 2
    _verdict(capsys, 10, ok,
             f"golden reports byte-stable={byte_stable}, fields ok={fields_ok}, "
             f"malformed exit={code_bad} (want 1), starved exit={code_starved} (want 2), "
             f"{elapsed:.1f}s")
    assert byte_stable
    assert fields_ok
    assert code_bad == 1
    assert code_starved == 2

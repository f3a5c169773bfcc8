"""Command-line interface: subcommands, reports, exit codes, artifacts."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import regionmedian
from regionmedian import Point2, Polygon, RadialKernel
from regionmedian.cli import _fmt_number, main
from regionmedian.oracle import oracle_sigma

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_median_reports_a_converged_solve(capsys):
    code, out, err = run(capsys, "median", str(DATA / "equilateral.json"))
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["median"][0] == pytest.approx(0.5, abs=1e-10)
    assert report["median"][1] == pytest.approx(math.sqrt(3.0) / 6.0, abs=1e-10)
    assert report["normalized_norm"] <= 1e-12
    assert report["certificate_spread"] < 1e-9
    assert len(report["edge_means"]) == 3


def test_golden_reports_are_reproduced_byte_for_byte(capsys, tmp_path):
    for stem in ("equilateral", "t345", "pentagon"):
        out_path = tmp_path / f"{stem}.json"
        code, _, _ = run(capsys, "median", str(DATA / f"{stem}.json"), "--json-out", str(out_path))
        assert code == 0
        assert out_path.read_bytes() == (GOLDEN / f"{stem}_report.json").read_bytes()


def test_discrete_golden_reports_are_reproduced_byte_for_byte(capsys, tmp_path):
    for stem in ("obtuse_points", "weighted_points"):
        out_path = tmp_path / f"{stem}.json"
        code, _, _ = run(capsys, "discrete", str(DATA / f"{stem}.json"), "--json-out", str(out_path))
        assert code == 0
        assert out_path.read_bytes() == (GOLDEN / f"{stem}_discrete_report.json").read_bytes()


def test_report_numbers_survive_a_parse_round_trip():
    rng = np.random.default_rng(88)
    values = list(rng.normal(size=200) * 10.0 ** rng.integers(-12, 12, 200))
    values += [0.0, -0.0, 1.0, -3.0, 0.1, 2.0 ** -52, math.pi]
    for v in values:
        assert float(_fmt_number(float(v))) == float(v)


def test_malformed_file_exits_one(capsys):
    code, out, err = run(capsys, "median", str(DATA / "malformed.json"))
    assert code == 1
    assert err.startswith("error:")


def test_self_intersecting_region_exits_one(capsys):
    code, _, err = run(capsys, "median", str(DATA / "bowtie.json"))
    assert code == 1
    assert "self-intersecting" in err


def test_overflowing_region_exits_one(capsys, tmp_path):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"polygon": [[0, 0], [3e150, 0], [3e150, 4e150]]}))
    code, out, err = run(capsys, "median", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: not a usable region")


def test_overflowing_region_prints_only_the_error_line(tmp_path):
    # past about 1e154 the shoelace area overflows as well, and numpy's
    # warning stays off stderr
    for scale, extra, message in [
        (1e150, [], "error: not a usable region"),
        (5e153, [], "error: polygon area overflows"),
        (5e153, ["--point=1e153,1e153"], "error: polygon area overflows"),
    ]:
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"polygon": [[0, 0], [3 * scale, 0], [3 * scale, 4 * scale]]}))
        proc = subprocess.run(
            [sys.executable, "-m", "regionmedian", "check" if extra else "median", str(path), *extra],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 1 and proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith(message), (scale, extra, proc.stderr)


@pytest.mark.parametrize("argv", [
    ["median"],  # no file
    ["check", str(DATA / "t345.json"), "--point", "1,1", "--json-out", "x.json"],  # no such flag
])
def test_usage_errors_exit_one(capsys, argv):
    # exit 2 is reserved for a solve that did not converge
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "usage:" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["median", "--help"])
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


def test_ambiguous_and_inconsistent_files_exit_one(capsys):
    code, _, err = run(capsys, "median", str(DATA / "both_forms.json"))
    assert code == 1 and "error:" in err
    code, _, err = run(capsys, "median", str(DATA / "weights_no_points.json"))
    assert code == 1 and "error:" in err
    code, _, err = run(capsys, "median", str(DATA / "does_not_exist.json"))
    assert code == 1 and "error:" in err


def test_points_file_rejected_by_region_commands(capsys):
    code, _, err = run(capsys, "median", str(DATA / "obtuse_points.json"))
    assert code == 1
    assert "error:" in err


def test_starved_iteration_budget_exits_two(capsys):
    code, out, _ = run(capsys, "median", str(DATA / "t345.json"), "--max-iter", "1")
    assert code == 2
    report = json.loads(out)  # best iterate still reported
    assert report["normalized_norm"] > 1e-12


def test_oracle_flag_cross_checks_the_median(capsys):
    code, out, _ = run(capsys, "median", str(DATA / "t345.json"), "--oracle")
    assert code == 0
    report = json.loads(out)
    check = report["oracle_check"]
    assert len(check["minimizer"]) == 2
    assert check["distance_to_median"] < 1e-6 * 5.0


def test_medianoid_kernel_from_file(capsys):
    code, out, _ = run(capsys, "medianoid", str(DATA / "power2_region.json"))
    assert code == 0
    report = json.loads(out)
    assert report["median"][0] == pytest.approx(2.0, abs=1e-8)
    assert report["median"][1] == pytest.approx(4.0 / 3.0, abs=1e-8)
    assert report["certificate_spread"] < 1e-12


def test_medianoid_kernel_flag_overrides(capsys):
    code, out, _ = run(capsys, "medianoid", str(DATA / "t345.json"), "--kernel", "power:2")
    assert code == 0
    report = json.loads(out)
    assert report["median"][0] == pytest.approx(2.0, abs=1e-8)
    assert report["median"][1] == pytest.approx(4.0 / 3.0, abs=1e-8)


def test_medianoid_rejects_bad_kernel_arguments(capsys):
    for bad in ("power:-1", "power:x", "splines", "power:"):
        code, _, err = run(capsys, "medianoid", str(DATA / "t345.json"), "--kernel", bad)
        assert code == 1
        assert "error:" in err


def test_discrete_lands_on_the_obtuse_vertex(capsys):
    code, out, _ = run(capsys, "discrete", str(DATA / "obtuse_points.json"))
    assert code == 0
    report = json.loads(out)
    assert report["median"] == [0.5, 0.05]
    assert report["residual_norm"] == 0.0


def test_discrete_respects_weights(capsys):
    code, out, _ = run(capsys, "discrete", str(DATA / "weighted_points.json"))
    assert code == 0
    report = json.loads(out)
    assert math.hypot(*report["median"]) < 1e-9


def test_discrete_oracle_agrees(capsys):
    code, out, _ = run(capsys, "discrete", str(DATA / "obtuse_points.json"), "--oracle")
    assert code == 0
    report = json.loads(out)
    assert report["oracle_check"]["distance_to_median"] < 1e-6


def test_degenerate_distances_approach_the_limit(capsys):
    code, out, _ = run(
        capsys, "degenerate", "--alpha", "2", "--beta", "1", "--gammas", "1.1,1.01,1.001"
    )
    assert code == 0
    report = json.loads(out)
    gaps = [row["gap"] for row in report["rows"]]
    assert gaps[0] > gaps[1] > gaps[2]
    assert all(row["limit"] == 1.0 for row in report["rows"])


def test_degenerate_side_order_does_not_matter(capsys):
    _, out_a, _ = run(capsys, "degenerate", "--alpha", "1", "--beta", "2", "--gammas", "1.05")
    _, out_b, _ = run(capsys, "degenerate", "--alpha", "2", "--beta", "1", "--gammas", "1.05")
    assert out_a == out_b


def test_check_at_the_median_shows_balance(capsys):
    code, out, _ = run(
        capsys, "check", str(DATA / "t345.json"),
        "--point", "2.00854264446594,1.2732700458367958",
    )
    assert code == 0
    report = json.loads(out)
    assert report["normalized_norm"] < 1e-12
    assert report["certificate_spread"] < 1e-9


def test_check_gradient_is_the_area_objective_slope(capsys):
    # the file's power-2 kernel takes the quadrature residual route
    code, out, _ = run(capsys, "check", str(DATA / "power2_region.json"), "--point", "1.5,1.0")
    assert code == 0
    grad = json.loads(out)["gradient"]
    poly = Polygon([(0.0, 0.0), (3.0, 0.0), (3.0, 4.0)])
    kernel = RadialKernel.power(2.0)
    h = 1e-5 * poly.diameter

    def sigma(x, y):
        return float(oracle_sigma(poly, Point2(x, y), kernel))

    gx = (sigma(1.5 + h, 1.0) - sigma(1.5 - h, 1.0)) / (2 * h)
    gy = (sigma(1.5, 1.0 + h) - sigma(1.5, 1.0 - h)) / (2 * h)
    assert math.hypot(grad[0] - gx, grad[1] - gy) / math.hypot(gx, gy) < 1e-6


def test_check_reports_the_certificate_under_any_kernel(capsys):
    # power-2 medianoid of a triangle is its centroid, where the three
    # edge means balance; away from it they do not
    code, out, _ = run(capsys, "check", str(DATA / "power2_region.json"), "--point", "2,1.3333333333333333")
    assert code == 0
    report = json.loads(out)
    assert report["certificate_spread"] < 1e-12
    means = report["edge_means"]
    assert report["certificate_spread"] == (max(means) - min(means)) / max(means)
    code, out, _ = run(capsys, "check", str(DATA / "power2_region.json"), "--point", "1.5,1.0")
    report = json.loads(out)
    assert report["certificate_spread"] > 0.1
    tx, ty = report["residual"]
    assert report["gradient"] == [-ty, tx]


def test_check_rejects_malformed_points(capsys):
    for bad in ("frog", "1.0", "1,2,3", "a,b"):
        code, _, err = run(capsys, "check", str(DATA / "t345.json"), "--point", bad)
        assert code == 1
        assert "error:" in err


def test_boundary_samples_region_solves(capsys):
    code, out, _ = run(capsys, "median", str(DATA / "boundary_loop.json"))
    assert code == 0
    report = json.loads(out)
    assert report["median"][0] == pytest.approx(0.3, abs=1e-9)
    assert report["median"][1] == pytest.approx(-0.2, abs=1e-9)


def test_svg_output_is_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    run(capsys, "median", str(DATA / "pentagon.json"), "--svg-out", str(a))
    run(capsys, "median", str(DATA / "pentagon.json"), "--svg-out", str(b))
    blob = a.read_bytes()
    assert blob == b.read_bytes()
    text = blob.decode("utf-8")
    assert text.startswith("<svg") and text.rstrip().endswith("</svg>")


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "regionmedian", "median", str(DATA / "equilateral.json")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["normalized_norm"] <= 1e-12


@pytest.mark.parametrize("coords,point,through", [
    ([[0, 0], [2, 0], [1, 1]], "0,0", (2, 0)),
    ([[0, 0], [2, 0], [1, 1]], "1,1", (1, 2)),
    ([[0, 0], [4, 0], [3, 2], [0, 1]], "3,2", (1, 2)),
    ([[0, 0], [4, 0], [3, 2], [0, 1]], "0,1", (2, 3)),
])
def test_check_at_a_vertex_under_a_power_kernel(capsys, tmp_path, coords, point, through):
    # the edges through the vertex have mean L^p/(p+1), 0.6727171322029717
    # for the edge (1,1)->(0,0) under p = 1.5
    path = tmp_path / "region.json"
    path.write_text(json.dumps({"polygon": coords, "kernel": {"kind": "power", "p": 1.5}}))
    code, out, err = run(capsys, "check", str(path), "--point", point)
    assert code == 0 and err == ""
    report = json.loads(out)
    a = np.asarray(coords, dtype=float)
    lengths = np.hypot(*(np.roll(a, -1, axis=0) - a).T)
    for j in through:
        assert report["edge_means"][j] == pytest.approx(lengths[j] ** 1.5 / 2.5, rel=1e-12)
    if len(coords) == 3:
        assert report["edge_means"][2] == pytest.approx(0.6727171322029717, rel=1e-12)
        assert "certificate_spread" in report


@pytest.mark.parametrize("stem", ["t345", "power2_region"])
def test_check_far_point_prints_one_error_line(stem):
    proc = subprocess.run(
        [sys.executable, "-m", "regionmedian", "check", str(DATA / f"{stem}.json"), "--point", "1e300,1e300"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: the residual at --point 1e+300,1e+300 is out of range")


def test_no_scipy_quad_on_the_medianoid_and_check_paths(capsys, no_scipy_quad):
    code, out, _ = run(capsys, "medianoid", str(DATA / "pentagon.json"), "--kernel", "power:1.5")
    assert code == 0 and json.loads(out)["normalized_norm"] <= 1e-12
    code, out, _ = run(capsys, "medianoid", str(DATA / "power2_region.json"))
    assert code == 0
    code, out, _ = run(capsys, "check", str(DATA / "power2_region.json"), "--point", "1.5,1.0")
    assert code == 0 and len(json.loads(out)["edge_means"]) == 3


def test_a_solve_and_a_check_load_neither_scipy_optimize_nor_integrate():
    # a fresh interpreter: the package imports scipy.optimize only for the
    # oracle's minimizers and scipy.integrate only for the quad reference
    code = "\n".join([
        "import sys, regionmedian, regionmedian.cli",
        "regionmedian.solve_median(regionmedian.Polygon([(0, 0), (3, 0), (3, 4)]))",
        f"assert regionmedian.cli.main(['check', {str(DATA / 'power2_region.json')!r}, '--point', '1,1']) == 0",
        "print([m for m in ('scipy.optimize', 'scipy.integrate') if m in sys.modules])",
    ])
    src = str(Path(regionmedian.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


# `check` on t345.json at a vertex, on an edge and far out: the Jacobian
# terms of the closed form run under check's raise-on-overflow error
# state and must neither raise nor change a byte. At 1e150 the first and
# last edge means read 0.0: with |t0| beyond 2**53 edge lengths, 1 - t0
# rounds to -t0 and the segment vanishes in parameter units.
CHECK_T345 = {
    "0,0": """{
  "point": [0.0, 0.0],
  "residual": [-3.0, 4.9437552990064937],
  "gradient": [-4.9437552990064937, -3.0],
  "residual_norm": 5.78279486550014,
  "normalized_norm": 0.23131179462000559,
  "edge_means": [1.5, 3.7359388247516234, 2.5],
  "certificate_spread": 0.59849449619943262
}
""",
    "1.5,0": """{
  "point": [1.5, 0.0],
  "residual": [-4.5481927610476269, 1.400584596135884],
  "gradient": [-1.400584596135884, -4.5481927610476269],
  "residual_norm": 4.7589594033337956,
  "normalized_norm": 0.19035837613335183,
  "edge_means": [0.75, 2.6162104027165132, 2.2660642536825422],
  "certificate_spread": 0.71332580926165345
}
""",
    "1e150,0": """{
  "point": [9.9999999999999998e+149, 0.0],
  "residual": [0.0, 3.9999999999999999e+150],
  "gradient": [-3.9999999999999999e+150, 0.0],
  "residual_norm": 3.9999999999999999e+150,
  "normalized_norm": 1.6000000000000001e+149,
  "edge_means": [0.0, 9.9999999999999998e+149, 0.0],
  "certificate_spread": 1.0
}
""",
}


@pytest.mark.parametrize("point", list(CHECK_T345), ids=["vertex", "edge", "far"])
def test_check_output_is_byte_stable_at_a_vertex_an_edge_and_far_out(capsys, point):
    code, out, err = run(capsys, "check", str(DATA / "t345.json"), "--point", point)
    assert code == 0 and err == ""
    assert out == CHECK_T345[point]

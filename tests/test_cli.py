"""Command-line interface: subcommands, reports, exit codes, artifacts."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from helpers import use_array_routes

import regionmedian
from regionmedian import Point2, Polygon, RadialKernel
from regionmedian import cli
from regionmedian.cli import _fmt_number, dumps_report, main
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
    # boundary_loop has 32 edge means, so its report pins the one-per-line
    # layout; sampled_curve, 512 seeded samples of a smooth asymmetric
    # curve, pins a long loop's T, summed by extraction; the p = 3
    # medianoid pins the closed form's reduction and its power of the
    # squared lengths, the p = 1.5 one its fractional start, p = 2 the even
    # loop and p = 16, the top closed power, the longest climb; p = 0.5
    # pins the quadrature route on a polygon of the float route, which
    # reads its arrays. The p = 16 solve stops on a stagnating line search
    # at 1.7e-11 of the diameter squared, above the default tol_rel, and
    # exits 2
    runs = [(f"{stem}_report", ["median", str(DATA / f"{stem}.json")], 0)
            for stem in ("equilateral", "t345", "pentagon", "boundary_loop", "sampled_curve")]
    runs += [(f"t345_power{p}_report", ["medianoid", str(DATA / "t345.json"), "--kernel", f"power:{p}"], int(p == "16"))
             for p in ("3", "1.5", "2", "16", "0.5")]
    for golden, argv, failed in runs:
        out_path = tmp_path / f"{golden}.json"
        code, _, _ = run(capsys, *argv, "--json-out", str(out_path))
        assert code == 2 * failed, golden
        assert out_path.read_bytes() == (GOLDEN / f"{golden}.json").read_bytes()


def test_every_euclidean_medianoid_prints_the_golden_median_report(capsys, tmp_path):
    # power:1, euclidean and a file's euclidean kernel take the closed form
    # of median, so each prints its report byte for byte
    for stem in ("equilateral", "t345", "pentagon", "boundary_loop"):
        golden = (GOLDEN / f"{stem}_report.json").read_text()
        data = DATA / f"{stem}.json"
        explicit = tmp_path / f"{stem}.json"
        explicit.write_text(json.dumps({**json.loads(data.read_text()), "kernel": {"kind": "euclidean"}}))
        for argv in ([str(data), "--kernel", "power:1"], [str(data), "--kernel", "euclidean"], [str(explicit)]):
            assert run(capsys, "medianoid", *argv) == (0, golden, ""), (stem, argv)


def test_check_under_a_power_one_kernel_is_check_without_a_kernel(capsys, tmp_path):
    path = tmp_path / "t345_power1.json"
    path.write_text(json.dumps({**json.loads((DATA / "t345.json").read_text()), "kernel": {"kind": "power", "p": 1}}))
    for point in ("1.2,1.1", "0,0", "1.5,0", "1e150,0"):
        plain = run(capsys, "check", str(DATA / "t345.json"), "--point", point)
        assert plain[0] == 0
        assert run(capsys, "check", str(path), "--point", point) == plain, point


def test_check_at_a_subnormal_offset_under_a_fractional_power(capsys, tmp_path):
    # the closed form's start on the bottom edge takes its far form at
    # offsets of 1e-310 edge lengths, 5e-324 and 0: no division by the
    # offset overflows, and c^a may underflow
    path = tmp_path / "square_power15.json"
    path.write_text(json.dumps({"polygon": [[0, 0], [1, 0], [1, 1], [0, 1]], "kernel": {"kind": "power", "p": 1.5}}))
    reports = {}
    for point in ("0.5,1e-306", "0.5,1e-310", "0.5,5e-324", "0.5,-1e-310", "0.5,0"):
        code, out, err = run(capsys, "check", str(path), "--point", point)
        assert (code, err) == (0, ""), point
        reports[point] = json.loads(out)["edge_means"]
    want = reports.pop("0.5,1e-306")
    for point, means in reports.items():
        assert means == pytest.approx(want, rel=0.0, abs=1e-15), point


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


def _fmt_reference(v) -> str:
    # the number format of every report so far, one value at a time
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    s = format(float(v), ".17g")
    return s + ".0" if s.lstrip("-").isdigit() else s


def _list_reference(values, pad: str) -> str:
    texts = [_fmt_reference(v) for v in values]
    if len(texts) <= 4:
        return "[" + ", ".join(texts) + "]"
    inner = pad + "  "
    return "[\n" + inner + (",\n" + inner).join(texts) + "\n" + pad + "]"


FLOAT_EDGE_CASES = [0.0, -0.0, 1.0, -3.0, 1e16, 2.0 ** 53 + 2, 1e17, 5e-324,
                    1.7976931348623157e308, math.inf, -math.inf, math.nan]


def test_float_lists_are_written_as_value_by_value_formatting_would_write_them():
    rng = np.random.default_rng(17)
    spread = rng.uniform(-1.0, 1.0, 400) * 10.0 ** rng.uniform(-300.0, 300.0, 400)
    values = [float(v) for v in spread] + FLOAT_EDGE_CASES
    for v in values:
        assert _fmt_number(v) == _fmt_reference(v)
    # four values stay on one line, five take one line each
    for lst in (values, FLOAT_EDGE_CASES, values[:4], values[:5], FLOAT_EDGE_CASES[-4:], FLOAT_EDGE_CASES[:5]):
        expected = "{\n  \"edge_means\": " + _list_reference(lst, "  ") + "\n}\n"
        assert dumps_report({"edge_means": lst}) == expected
        assert dumps_report({"edge_means": tuple(lst)}) == expected


def test_long_float_lists_parse_back_to_the_same_floats():
    # integral values would send the list to the value-by-value join
    rng = np.random.default_rng(35)
    spread = (rng.normal(size=4096) * 10.0 ** rng.uniform(-300.0, 20.0, 4096)).tolist()
    values = [v for v in spread if not v.is_integer()][:2048]
    assert len(values) == 2048
    text = dumps_report({"edge_means": tuple(values)})
    assert text == "{\n  \"edge_means\": " + _list_reference(values, "  ") + "\n}\n"
    parsed = json.loads(text)["edge_means"]
    assert [v.hex() for v in parsed] == [v.hex() for v in values]


@pytest.mark.parametrize("integral", [0.0, -0.0, 3.0, 2.0 ** 53])
def test_long_float_lists_with_an_integral_value_keep_its_point_zero(integral):
    rng = np.random.default_rng(7)
    values = rng.uniform(-5.0, 5.0, 9).tolist()
    for at in (0, 4, 9):
        lst = values[:at] + [integral] + values[at:]
        assert dumps_report({"edge_means": lst}) == "{\n  \"edge_means\": " + _list_reference(lst, "  ") + "\n}\n"


def test_mixed_number_lists_keep_the_general_path():
    mixed = [1, True, 2.5, np.float64(0.1), -0.0]
    assert dumps_report(mixed) == "[\n  1,\n  true,\n  2.5,\n  0.10000000000000001,\n  -0.0\n]\n"
    assert dumps_report(mixed[1:]) == "[true, 2.5, 0.10000000000000001, -0.0]\n"
    for lst in (mixed, mixed[1:], [np.float64(3.0)] * 5, [False, 2]):
        assert dumps_report(lst) == _list_reference(lst, "") + "\n"


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


def test_huge_square_prints_only_the_error_line(tmp_path):
    # near 1e153 the square certifies convex, and its solve overflows;
    # near 1e154 its turns overflow, so it takes the edge contact test,
    # whose orientations overflow too, and then the area does
    for scale, message in [(1e153, "error: not a usable region: overflow encountered in multiply"),
                           (5e153, "error: polygon area overflows the float range")]:
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"polygon": [[0, 0], [3 * scale, 0], [3 * scale, 4 * scale], [0, 4 * scale]]}))
        proc = subprocess.run([sys.executable, "-m", "regionmedian", "median", str(path)],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.splitlines() == [message]


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


@pytest.mark.parametrize("argv", [
    ["median", "t345.json", "--tol", "inf"],
    ["discrete", "obtuse_points.json", "--tol", "nan"],
    ["discrete", "obtuse_points.json", "--max-iter", "0"],
    ["discrete", "obtuse_points.json", "--max-iter", "-5"],
], ids=["median-tol-inf", "discrete-tol-nan", "discrete-max-iter-0", "discrete-max-iter-negative"])
def test_unattainable_solver_settings_exit_one(capsys, argv):
    # a tolerance that no finite residual can miss, or none at all, and an
    # empty iteration budget are input errors, not solves
    command, name, *flags = argv
    code, out, err = run(capsys, command, str(DATA / name), *flags)
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err


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


def test_medianoid_that_runs_off_to_infinity_exits_two(capsys, tmp_path):
    # p < 1 is not convex, and on this dumbbell Newton meets the tolerance
    # about 1e15 away, which is no median
    path = tmp_path / "dumbbell.json"
    path.write_text(json.dumps({"polygon": [[0, 0], [2, 0], [2, 0.95], [6, 0.95], [6, 0], [7, 0], [7, 1],
                                            [6, 1], [6, 1.05], [2, 1.05], [2, 2], [0, 2]]}))
    code, out, err = run(capsys, "medianoid", str(path), "--kernel", "power:0.3")
    assert code == 2 and err == ""
    assert abs(json.loads(out)["median"][0]) > 1e12


def test_medianoid_rejects_bad_kernel_arguments(capsys):
    for bad in ("power:-1", "power:x", "splines", "power:"):
        code, _, err = run(capsys, "medianoid", str(DATA / "t345.json"), "--kernel", bad)
        assert code == 1
        assert "error:" in err


def test_points_file_with_a_kernel_exits_one(capsys, tmp_path):
    # the discrete objective is the Euclidean distance sum; a kernel there
    # would be ignored, so the file is rejected like 'weights' off 'points'
    path = tmp_path / "points_kernel.json"
    path.write_text(json.dumps({"points": [[0, 0], [3, 0], [3, 4]], "kernel": {"kind": "power", "p": 2}}))
    code, out, err = run(capsys, "discrete", str(path))
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "'kernel'" in lines[0], err


def test_a_boolean_kernel_exponent_exits_one(capsys, tmp_path):
    # float(true) is 1.0, but a JSON boolean is no exponent; the string
    # form stays, as --kernel power:P passes it on as text
    path = tmp_path / "bool_p.json"
    for p, code_want in ((True, 1), (False, 1), ("2", 0)):
        path.write_text(json.dumps({"polygon": [[0, 0], [3, 0], [3, 4]], "kernel": {"kind": "power", "p": p}}))
        code, out, err = run(capsys, "medianoid", str(path))
        assert code == code_want, (p, err)
        if code_want == 1:
            lines = err.splitlines()
            assert out == "" and len(lines) == 1 and lines[0].startswith("error:"), err


@pytest.mark.parametrize("weights", [5, True, "911", {"a": 1}, [True, 1, 1]],
                         ids=["number", "boolean", "string", "object", "list-with-boolean"])
def test_weights_that_are_not_a_list_of_numbers_exit_one(capsys, tmp_path, weights):
    # a string is no list of digits and a boolean is no weight
    path = tmp_path / "weights.json"
    path.write_text(json.dumps({"points": [[0, 0], [4, 0], [0, 3]], "weights": weights}))
    code, out, err = run(capsys, "discrete", str(path))
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "'weights'" in lines[0], err


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


def test_discrete_converges_between_two_clusters(capsys):
    # two clusters of 10 points; the objective is flat along their axis,
    # where a linearly converging iteration spends its 100 iterations
    code, out, _ = run(capsys, "discrete", str(DATA / "clustered_points.json"))
    assert code == 0
    assert json.loads(out)["normalized_norm"] <= 1e-12


def test_discrete_converges_on_far_clusters(capsys):
    # the same clusters 1e6 out: solved in absolute coordinates, |g| / W
    # rounded to 1.5e-11 and the run exited 2
    for extra in ((), ("--oracle",)):
        code, out, _ = run(capsys, "discrete", str(DATA / "clustered_points_far.json"), *extra)
        assert code == 0
        assert json.loads(out)["normalized_norm"] <= 1e-12


def test_discrete_converges_on_a_line_of_points(capsys):
    # along a line of data points |g| is constant between the points, so
    # the Weiszfeld steps must pass on the objective, not on |g|
    code, out, _ = run(capsys, "discrete", str(DATA / "collinear_points.json"))
    assert code == 0
    report = json.loads(out)
    assert report["median"] == [1.0, 0.0] and report["normalized_norm"] == 0.0


def test_discrete_oracle_agrees(capsys):
    code, out, _ = run(capsys, "discrete", str(DATA / "obtuse_points.json"), "--oracle")
    assert code == 0
    report = json.loads(out)
    assert report["oracle_check"]["distance_to_median"] < 1e-6


@pytest.mark.parametrize("k", list(range(-1000, 1001, 50)) + [1023])
def test_discrete_oracle_stop_is_scale_free(capsys, tmp_path, k):
    # the stop is relative to the set's diameter and to the objective at
    # the start, so the oracle lands as close at 2**k as at unit scale
    path = tmp_path / "points.json"
    path.write_text(json.dumps({"points": [[math.ldexp(x, k), math.ldexp(y, k)]
                                           for x, y in [(0.0, 0.0), (1.0, 0.0), (0.5, 0.1)]]}))
    code, out, _ = run(capsys, "discrete", str(path), "--oracle")
    assert code == 0
    assert json.loads(out)["oracle_check"]["distance_to_median"] <= math.ldexp(1e-13, k)


def test_discrete_oracle_returns_the_point_of_a_zero_diameter_set(capsys, tmp_path):
    for data in ({"points": [[1.5, 2.0]]}, {"points": [[0.1, 0.7], [0.1, 0.7]], "weights": [3.0, 1.0]}):
        path = tmp_path / "point.json"
        path.write_text(json.dumps(data))
        code, out, _ = run(capsys, "discrete", str(path), "--oracle")
        check = json.loads(out)["oracle_check"]
        assert code == 0 and check == {"minimizer": data["points"][0], "distance_to_median": 0.0}


def test_median_oracle_on_an_underflowing_region_exits_one(capsys, tmp_path):
    # at 2**-366 the solve is fine but the oracle's objective is 0.0 at the
    # centroid; its minimizer once landed 4e106 diameters off
    path = tmp_path / "tiny.json"
    coords = [(0.0, 0.0), (3.0, 0.0), (3.0, 4.0), (0.5, 3.0)]
    path.write_text(json.dumps({"polygon": [[math.ldexp(x, -366), math.ldexp(y, -366)] for x, y in coords]}))
    assert run(capsys, "median", str(path))[0] == 0
    code, out, err = run(capsys, "median", str(path), "--oracle")
    assert (code, out) == (1, "")
    assert err.startswith("error: the oracle's objective underflows") and err.count("\n") == 1


def test_degenerate_distances_approach_the_limit(capsys):
    code, out, _ = run(
        capsys, "degenerate", "--alpha", "2", "--beta", "1", "--gammas", "1.1,1.01,1.001"
    )
    assert code == 0
    report = json.loads(out)
    gaps = [row["gap"] for row in report["rows"]]
    assert gaps[0] > gaps[1] > gaps[2]
    assert all(row["limit"] == 1.0 for row in report["rows"])


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_degenerate_rows_and_limit_hold_at_extreme_scales(capsys, scale):
    # the sides are scaled into [0.5, 1) to be solved, and the limit's
    # product too, so neither the height nor alpha * beta leaves the range
    argv = ["--alpha", repr(2.0 * scale), "--beta", repr(scale), "--gammas", repr(1.5 * scale)]
    code, out, err = run(capsys, "degenerate", *argv)
    assert (code, err) == (0, "")
    (row,) = json.loads(out)["rows"]
    assert math.isfinite(row["limit"]) and row["limit"] == pytest.approx(scale, rel=1e-15)
    assert row["distance"] / scale == pytest.approx(0.9107128429634224, rel=1e-15)


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


@pytest.mark.parametrize("offset", [0.5, 1e6, 1e12])
def test_check_at_a_reported_median_gives_the_solved_edge_means(capsys, tmp_path, offset):
    # check evaluates in the solver's frame: near the origin at the very
    # point the solver did, far out at that point moved by the rounding
    # of the reported median, and a mean distance moves no more than its
    # query point does
    pentagon = json.loads((DATA / "pentagon.json").read_text())["polygon"]
    path = tmp_path / "moved.json"
    path.write_text(json.dumps({"polygon": [[x + offset, y + offset] for x, y in pentagon]}))
    code, out, _ = run(capsys, "median", str(path))
    solved = json.loads(out)
    assert code == 0
    code, out, _ = run(capsys, "check", str(path), "--point", "{!r},{!r}".format(*solved["median"]))
    checked = json.loads(out)
    assert code == 0
    if offset < 1.0:
        assert checked["edge_means"] == solved["edge_means"]
    else:
        dev = np.abs(np.subtract(checked["edge_means"], solved["edge_means"]))
        assert np.all(dev <= np.spacing(offset) + 1e-14 * Polygon(pentagon).diameter)


def test_check_takes_the_route_of_the_solve_it_checks(capsys, tmp_path):
    # no kernel in the file: the Euclidean kernel, as median; a kernel:
    # that kernel's route, as medianoid. Either way check at the reported
    # median prints the solve's bits
    plain = DATA / "pentagon.json"
    explicit = tmp_path / "euclidean.json"
    explicit.write_text(json.dumps({**json.loads(plain.read_text()), "kernel": {"kind": "euclidean"}}))
    for command, path in (("median", plain), ("medianoid", explicit)):
        code, out, _ = run(capsys, command, str(path))
        solved = json.loads(out)
        assert code == 0
        code, out, _ = run(capsys, "check", str(path), "--point", "{!r},{!r}".format(*solved["median"]))
        checked = json.loads(out)
        assert code == 0
        assert checked["edge_means"] == solved["edge_means"]
        assert checked["residual_norm"] == solved["residual_norm"]
        assert checked["normalized_norm"] == solved["normalized_norm"]


def test_check_gradient_is_the_area_objective_slope(capsys):
    # the file's power-2 kernel takes the closed-form residual route
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


@pytest.mark.parametrize("text,point", [("-1,2", [-1.0, 2.0]), ("1,-2", [1.0, -2.0]),
                                        ("-1e-3,2", [-0.001, 2.0]), ("-.5,-2E+1", [-0.5, -20.0])])
def test_check_takes_a_negative_point_after_a_space(capsys, text, point):
    # argparse by itself reads a value such as -1,2 as an unknown option
    code, out, err = run(capsys, "check", str(DATA / "t345.json"), "--point", text)
    assert code == 0 and err == ""
    assert json.loads(out)["point"] == point
    assert run(capsys, "check", str(DATA / "t345.json"), f"--point={text}") == (0, out, "")


def test_boundary_samples_region_solves(capsys):
    code, out, _ = run(capsys, "median", str(DATA / "boundary_loop.json"))
    assert code == 0
    report = json.loads(out)
    assert report["median"][0] == pytest.approx(0.3, abs=1e-9)
    assert report["median"][1] == pytest.approx(-0.2, abs=1e-9)


@pytest.mark.parametrize("stem,command,golden", [
    ("boundary_loop", "median", "boundary_loop.svg"),
    ("weighted_points", "discrete", "weighted_points_discrete.svg"),
])
def test_golden_figures_are_reproduced_byte_for_byte(capsys, tmp_path, stem, command, golden):
    # an outline; points with a trace path and its circles
    out_path = tmp_path / golden
    code, _, _ = run(capsys, command, str(DATA / f"{stem}.json"), "--svg-out", str(out_path))
    assert code == 0
    assert out_path.read_bytes() == (GOLDEN / golden).read_bytes()


def test_svg_output_is_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    run(capsys, "median", str(DATA / "pentagon.json"), "--svg-out", str(a))
    run(capsys, "median", str(DATA / "pentagon.json"), "--svg-out", str(b))
    blob = a.read_bytes()
    assert blob == b.read_bytes()
    text = blob.decode("utf-8")
    assert text.startswith("<svg") and text.rstrip().endswith("</svg>")


@pytest.mark.parametrize("flag", ["--json-out", "--svg-out"])
def test_an_unwritable_output_path_exits_one_with_one_error_line(capsys, tmp_path, flag):
    # a directory cannot be opened for writing
    code, _, err = run(capsys, "median", str(DATA / "t345.json"), flag, str(tmp_path))
    assert code == 1
    assert err.splitlines() == [err.rstrip("\n")]
    assert err.startswith(f"error: cannot write {tmp_path}: ")


@pytest.mark.parametrize("flag", ["--json-out", "--svg-out"])
def test_an_empty_output_path_exits_one_with_one_error_line(capsys, flag):
    # "" names no file that can be written; it does not mean the flag is absent
    code, out, err = run(capsys, "median", str(DATA / "t345.json"), flag, "")
    assert code == 1 and out == ""
    assert err.splitlines() == [err.rstrip("\n")]
    assert err.startswith("error: cannot write : ")


@pytest.mark.parametrize("failing", ["--json-out", "--svg-out"])
def test_a_call_that_exits_one_leaves_no_output_file(capsys, tmp_path, failing):
    # one path is a directory; the file the other flag names must not remain
    argv = ["--json-out", str(tmp_path / "r.json"), "--svg-out", str(tmp_path / "f.svg")]
    argv[argv.index(failing) + 1] = str(tmp_path)
    code, out, err = run(capsys, "median", str(DATA / "t345.json"), *argv)
    assert code == 1 and out == ""
    assert err.startswith(f"error: cannot write {tmp_path}: ")
    assert list(tmp_path.iterdir()) == []


def test_repeated_main_calls_build_one_parser_and_stay_independent(capsys, tmp_path, monkeypatch):
    builds = []
    build = cli.build_parser

    def counted():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    with pytest.raises(SystemExit) as exc:
        main(["median"])
    assert exc.value.code == 1
    capsys.readouterr()
    golden = (GOLDEN / "t345_report.json").read_bytes()
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    code, _, _ = run(capsys, "median", str(DATA / "t345.json"), "--json-out", str(first))
    assert code == 0 and first.read_bytes() == golden
    code, out, err = run(capsys, "check", str(DATA / "t345.json"), "--point", "0,0")
    assert code == 0 and err == "" and out == CHECK_T345["0,0"]
    code, _, _ = run(capsys, "median", str(DATA / "t345.json"), "--json-out", str(second))
    assert code == 0 and second.read_bytes() == golden
    assert len(builds) <= 1


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
    # the one line, with no RuntimeWarning, names numpy's message
    assert proc.stderr == "error: the residual at --point 1e+300,1e+300 is out of range: overflow encountered in multiply\n"


def test_no_scipy_quad_on_the_medianoid_and_check_paths(capsys, no_scipy_quad):
    code, out, _ = run(capsys, "medianoid", str(DATA / "pentagon.json"), "--kernel", "power:1.5")
    assert code == 0 and json.loads(out)["normalized_norm"] <= 1e-12
    code, out, _ = run(capsys, "medianoid", str(DATA / "power2_region.json"))
    assert code == 0
    code, out, _ = run(capsys, "check", str(DATA / "power2_region.json"), "--point", "1.5,1.0")
    assert code == 0 and len(json.loads(out)["edge_means"]) == 3


def test_solves_checks_and_oracles_run_with_scipy_unimportable(tmp_path):
    # a fresh interpreter in which any scipy import fails: scipy is a test
    # dependency only. The 12-gon and the 9 points are cut to their hull
    # for the diameter, in the package. p = 0.5 and p = 17 take the batched
    # Gauss-Kronrod route, and p = 0.5 with --oracle the gradient oracle
    # below p = 1; p = 17 stalls above the stop test |T| / diam^2 <= 1e-12,
    # since T grows as diam^(p+1), and exits 2
    t = np.arange(12) * (np.pi / 6)
    r = np.where(np.arange(12) % 2 == 0, 1.0, 0.5)  # non-convex
    star = tmp_path / "star12.json"
    star.write_text(json.dumps({"polygon": np.stack([r * np.cos(t), r * np.sin(t)], axis=1).tolist()}))
    points = tmp_path / "points9.json"
    points.write_text(json.dumps({"points": np.random.default_rng(5).normal(size=(9, 2)).tolist()}))
    code = "\n".join([
        "import sys",
        "sys.modules['scipy'] = None",
        "import regionmedian, regionmedian.cli",
        "regionmedian.solve_median(regionmedian.Polygon([(0, 0), (3, 0), (3, 4)]))",
        f"assert regionmedian.cli.main(['check', {str(DATA / 'power2_region.json')!r}, '--point', '1,1']) == 0",
        f"assert regionmedian.cli.main(['median', {str(DATA / 'boundary_loop.json')!r}]) == 0",
        f"assert regionmedian.cli.main(['median', {str(star)!r}]) == 0",
        f"assert regionmedian.cli.main(['median', {str(DATA / 't345.json')!r}, '--oracle']) == 0",
        f"assert regionmedian.cli.main(['medianoid', {str(DATA / 't345.json')!r}, '--kernel', 'power:0.5', '--oracle']) == 0",
        f"assert regionmedian.cli.main(['medianoid', {str(DATA / 't345.json')!r}, '--kernel', 'power:17']) == 2",
        f"assert regionmedian.cli.main(['discrete', {str(DATA / 'obtuse_points.json')!r}, '--oracle']) == 0",
        f"assert regionmedian.cli.main(['discrete', {str(points)!r}, '--oracle']) == 0",
        "print(sorted(m for m, mod in sys.modules.items() if m.startswith('scipy') and mod is not None))",
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


# inputs that once printed numpy warnings, a traceback or an error that
# did not name the overflow: a point set whose diameter overflows, two
# whose centroid or objective overflows, a kernel that overflows on a
# 50-wide triangle, a triangle with an edge of 5e-324 and subnormal
# points whose Weiszfeld weights 1/d overflow
NUMPY_EDGE_INPUTS = {
    "overflowing_points": {"points": [[1e308, 0], [-1e308, 0], [0, 1e308]]},
    "overflowing_sums": {"points": [[1e308, 0], [0, 0], [0, 1e308], [1e308, 1e308]]},
    "overflowing_objective": {"points": [[1.2e308, 0], [-0.5e308, 0], [0, 1.2e308]]},
    "kernel_overflow": {"polygon": [[0, 0], [30, 0], [30, 40]]},
    # an edge whose squared length underflows to 0, the closed form's divisor
    "underflowing_edge": {"polygon": [[0, 0], [3, 0], [3, 5e-324]]},
    # an edge between finite vertices whose length overflows; its area does not
    "overflowing_edge": {"polygon": [[0, 1e-300], [1.5e308, 0], [-1.5e308, 0]]},
    "subnormal_points": {"points": [[1e-320, 0], [0, 1e-320], [3e-320, 2e-320]]},
    # JSON strings and booleans are no coordinates, and an integer past the
    # float range is no float
    "string_coordinates": {"polygon": [["0", "0"], ["3", "0"], ["3", "4"]]},
    "boolean_polygon": {"polygon": [[False, False], [3, False], [3, 4]]},
    "boolean_points": {"points": [[True, 0], [3, 0], [3, 4]]},
    "huge_integer_polygon": {"polygon": [[0, 0], [10 ** 400, 0], [3, 4]]},
    "huge_integer_points": {"points": [[0, 0], [10 ** 400, 0], [3, 4]]},
    "huge_integer_weights": {"points": [[0, 0], [3, 0], [3, 4]], "weights": [1, 10 ** 400, 1]},
    "huge_integer_exponent": {"polygon": [[0, 0], [3, 0], [3, 4]], "kernel": {"kind": "power", "p": 10 ** 400}},
}


def _warning_test_commands(path):
    try:
        data = json.loads(path.read_text())
        coords = np.asarray(data.get("polygon") or data.get("boundary_samples") or data["points"], dtype=float)
    except (ValueError, KeyError, OverflowError):
        coords = np.zeros((1, 2))
    with np.errstate(over="ignore"):  # the mean of the overflowing sets
        mean = coords.mean(axis=0)
    vertex, inside = ("%r,%r" % tuple(p.tolist()) for p in (coords[0], mean))
    f = str(path)
    commands = [
        ["median", f], ["median", f, "--oracle"],
        ["medianoid", f], ["medianoid", f, "--kernel", "euclidean"], ["medianoid", f, "--kernel", "power:1.5"],
        ["discrete", f], ["discrete", f, "--oracle"],
        ["check", f, "--point", vertex], ["check", f, "--point", inside], ["check", f, "--point", "1e150,0"],
    ]
    if path.stem == "kernel_overflow":
        commands.append(["medianoid", f, "--kernel", "power:400"])
    return commands


def test_no_command_prints_a_numpy_warning(capsys, tmp_path):
    # numpy's warnings go through the warnings module, so they are
    # recorded rather than read from stderr; a traceback fails the test
    for stem, data in NUMPY_EDGE_INPUTS.items():
        (tmp_path / f"{stem}.json").write_text(json.dumps(data))
    paths = sorted(DATA.glob("*.json")) + sorted(tmp_path.glob("*.json"))
    runs = 0
    for path in paths:
        for argv in _warning_test_commands(path):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main(argv)
            out, err = capsys.readouterr()
            assert [str(w.message) for w in caught] == [], argv
            if err:
                # usage and input errors: one line, exit 1, no report
                assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), (argv, err)
                assert code == 1 and out == "", argv
                continue
            report = json.loads(out)
            if argv[0] == "check":
                assert code == 0, argv
            elif argv[0] == "discrete":
                assert code in (0, 2), argv
            else:
                # exit 2 reports a solve that did not reach the tolerance
                assert code == (0 if report["normalized_norm"] <= 1e-12 else 2), argv
            runs += 1
    assert runs > 40


@pytest.mark.parametrize("stem,argv,message", [
    ("overflowing_points", ["discrete"], "point set diameter overflows the float range"),
    ("overflowing_points", ["discrete", "--oracle"], "point set diameter overflows the float range"),
    ("kernel_overflow", ["medianoid", "--kernel", "power:400"],
     "the kernel integrals overflow the float range: overflow encountered in power"),
    ("overflowing_sums", ["discrete"], "point set sums overflow the float range"),
    ("overflowing_objective", ["discrete", "--oracle"], "point set sums overflow the float range"),
    ("underflowing_edge", ["median"], "polygon has an edge whose squared length underflows to zero"),
    ("underflowing_edge", ["check", "--point", "1,1"], "polygon has an edge whose squared length underflows to zero"),
    ("overflowing_edge", ["median"], "polygon has an edge whose length overflows the float range"),
    ("overflowing_edge", ["median", "--oracle"], "polygon has an edge whose length overflows the float range"),
])
def test_an_overflowing_input_prints_one_error_line_naming_it(capsys, tmp_path, stem, argv, message):
    path = tmp_path / f"{stem}.json"
    path.write_text(json.dumps(NUMPY_EDGE_INPUTS[stem]))
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_overflowing_inputs_fail_alike_on_the_float_and_the_array_routes(capsys, tmp_path, monkeypatch):
    # the float routes hand a point they cannot finish on finite floats to
    # the array routes, which raise as they always did: a point 1e160 out
    # (past the float route's bound), a point 1e19 out under p = 16 (whose
    # float values overflow) and a region scaled to 1e103 under p = 3 (past
    # the bound of its squared lengths; its centroid overflows too)
    t345 = json.loads((DATA / "t345.json").read_text())
    files = {}
    for stem, data in (("power16", {**t345, "kernel": {"kind": "power", "p": 16}}),
                       ("scaled", {"polygon": (1e103 * np.array(t345["polygon"])).tolist(),
                                   "kernel": {"kind": "power", "p": 3}})):
        files[stem] = tmp_path / f"{stem}.json"
        files[stem].write_text(json.dumps(data))
    runs = [["check", str(DATA / "t345.json"), "--point", "1e160,0"],
            ["check", str(files["power16"]), "--point", "1e19,0"],
            ["check", str(files["scaled"]), "--point", "1e103,1e103"],
            ["medianoid", str(files["scaled"])]]
    t345 = Polygon(t345["polygon"])
    assert regionmedian.kernels._closed_values_floats(t345._floats, (1e19, 0.0), 16) is None
    for argv in runs:
        got = run(capsys, *argv)
        with monkeypatch.context() as patch:
            use_array_routes(patch)
            assert run(capsys, *argv) == got, argv
        assert got[0] == 1 and got[2].startswith("error: ") and "overflow" in got[2], (argv, got)
        assert len(got[2].splitlines()) == 1 and "Warning" not in got[2], (argv, got)
    # in a fresh process, whose stderr would also carry numpy's warnings
    proc = subprocess.run([sys.executable, "-m", "regionmedian", *runs[0]], capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: the residual at --point 1e+160,0.0 is out of range: overflow encountered in multiply\n"


@pytest.mark.parametrize("stem,command,message", [
    ("string_coordinates", "median", "polygon must be a list of [x, y] pairs of numbers"),
    ("boolean_polygon", "median", "polygon must be a list of [x, y] pairs of numbers"),
    ("boolean_points", "discrete", "points must be a list of [x, y] pairs of numbers"),
    ("huge_integer_polygon", "median", "polygon contains a coordinate past the float range"),
    ("huge_integer_points", "discrete", "points contains a coordinate past the float range"),
    ("huge_integer_weights", "discrete", "weights have a value past the float range"),
    ("huge_integer_exponent", "medianoid", "bad power kernel exponent: int too large to convert to float"),
])
def test_a_coordinate_that_is_no_float_prints_one_error_line(capsys, tmp_path, stem, command, message):
    path = tmp_path / f"{stem}.json"
    path.write_text(json.dumps(NUMPY_EDGE_INPUTS[stem]))
    assert run(capsys, command, str(path)) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("text,argv,message", [
    ('{"polygon": [[0, 0], [3, 0], [3, 4]], "kernel": 5}', ["medianoid"],
     "kernel must be an object with a 'kind' field"),
    ('{"polygon": [[0, 0], [3, 0], [3, 4]], "kernel": {"p": 2}}', ["medianoid"],
     "kernel must be an object with a 'kind' field"),
    ('{"polygon": [[0, 0], [3, 0], [3, 4]], "kernel": {"kind": "power"}}', ["medianoid"],
     "power kernel needs a 'p' exponent"),
    ('{"polygon": [[0, 0], [3, 0], [3]]}', ["median"], "polygon must be a list of [x, y] pairs of numbers"),
    ('{"polygon": 5}', ["median"], "polygon must be a list of [x, y] pairs of numbers"),
    ('{"polygon": []}', ["median"], "polygon must be a nonempty list of [x, y] pairs"),
    ('{"boundary_samples": [[0, 0, 1], [3, 0, 1], [3, 4, 1]]}', ["median"],
     "boundary_samples must be a nonempty list of [x, y] pairs"),
    ('{"polygon": [[0, 0], [1e400, 0], [3, 4]]}', ["median"], "polygon contains non-finite coordinates"),
    ('{"points": [[0, 0], [NaN, 0]]}', ["discrete"], "points contains non-finite coordinates"),
    ("[[0, 0], [3, 0], [3, 4]]", ["median"], "region file must be a JSON object"),
    ('{"points": [[0, 0], [3, 0]], "weights": [1, 0]}', ["discrete"], "weights must be finite and > 0"),
    ('{"points": [[0, 0], [3, 0]], "weights": [1]}', ["discrete"], "weights must match points in length"),
    ('{"polygon": ""}', ["median"], "polygon must be a list of [x, y] pairs of numbers"),
    ('{"polygon": {}}', ["median"], "polygon must be a list of [x, y] pairs of numbers"),
    ('{"polygon": null}', ["median"], "polygon must be a list of [x, y] pairs of numbers"),
    ('{"polygon": [[]]}', ["median"], "polygon must be a nonempty list of [x, y] pairs"),
    ('{"polygon": [[0, 0], [1, 2, 3]]}', ["median"], "polygon must be a list of [x, y] pairs of numbers"),
    ('{"polygon": [[0, 0], 5]}', ["median"], "polygon must be a list of [x, y] pairs of numbers"),
    ('{"polygon": [[[0], [1]]]}', ["median"], "polygon must be a list of [x, y] pairs of numbers"),
    ('{"polygon": [["ab", "cd"]]}', ["median"], "polygon must be a list of [x, y] pairs of numbers"),
    ('{"polygon": [{"x": 1, "y": 2}]}', ["median"], "polygon must be a list of [x, y] pairs of numbers"),
    ('{"polygon": [{}, {}, {}]}', ["median"], "polygon must be a list of [x, y] pairs of numbers"),
    ('{"polygon": [[], ""]}', ["median"], "polygon must be a list of [x, y] pairs of numbers"),
])
def test_a_malformed_region_file_prints_one_error_line(capsys, tmp_path, text, argv, message):
    path = tmp_path / "region.json"
    path.write_text(text)
    assert run(capsys, argv[0], str(path), *argv[1:]) == (1, "", f"error: {message}\n")


def test_coordinates_are_read_to_the_bits_of_a_nested_conversion():
    rng = np.random.default_rng(53)
    specials = [-0.0, 2 ** 53 + 1, 1e308, 5e-324, -(2 ** 63), 0]
    for n in (3, 17, 2048):
        floats = (rng.normal(size=2 * n) * 10.0 ** rng.uniform(-300.0, 300.0, 2 * n)).tolist()
        # every other number is an int, as JSON integers load, many past 2**53
        ints = [int(v) for v in rng.normal(size=2 * n) * 10.0 ** rng.uniform(0.0, 30.0, 2 * n)]
        values = [ints[k] if k % 2 else floats[k] for k in range(2 * n)]
        values[:6] = specials
        raw = [values[2 * i: 2 * i + 2] for i in range(n)]
        got = cli._coord_list(raw, "polygon")
        want = np.asarray(raw, dtype=float)
        assert got.shape == want.shape == (n, 2)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("gammas,message", [
    ("4,x", "bad --gammas list: could not convert string to float: 'x'"),
    (" , ", "--gammas must list at least one value"),
])
def test_a_bad_gammas_list_prints_one_error_line(capsys, gammas, message):
    argv = ["degenerate", "--alpha", "3", "--beta", "2", "--gammas", gammas]
    assert run(capsys, *argv) == (1, "", f"error: {message}\n")


def test_a_stagnating_solve_exits_two_with_the_default_median(capsys):
    # no step can bring the residual under a tolerance of 1e-300: the line
    # search stagnates after 3 iterations at the default solve's median
    code, out, err = run(capsys, "median", str(DATA / "t345.json"), "--tol", "1e-300")
    report = json.loads(out)
    golden = json.loads((GOLDEN / "t345_report.json").read_text())
    assert (code, err) == (2, "")
    assert report["median"] == golden["median"] and report["iterations"] == 3

"""Command-line front end: JSON region files in, JSON reports and SVG out.

Subcommands:
  median      geometric median of a polygonal region
  medianoid   generalized median for a radial cost kernel
  discrete    geometric median of a weighted point set
  degenerate  flattening-limit study for triangles with shrinking third side
  check       evaluate the residual (and certificate) at a given point

Exit codes: 0 success, 1 invalid input or usage (or an output file that
cannot be written), 2 solver did not converge (the best iterate is still
reported).
"""
from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import re
import sys
from typing import Optional

import numpy as np

from .errors import OutputFileError, RegionFileError, RegionMedianError, SingularRegionError
from .geometry import Point2, Polygon
from .kernels import RadialKernel
from .oracle import oracle_minimize, oracle_minimize_points
from .residuals import general_boundary_residual
from .solver import SolveConfig, degenerate_limit_study, solve_median, solve_medianoid
from .svg import region_figure
from .weiszfeld import PointSet, weiszfeld


# ---------------------------------------------------------------- JSON out

def _fmt_float(v: float) -> str:
    s = "%.17g" % v
    # keep floats recognizably floats so reports parse back to the same
    # types; inf and nan carry an "n" and stay as they are
    if "." in s or "e" in s or "n" in s:
        return s
    return s + ".0"


def _fmt_number(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    return _fmt_float(float(v))


def _json(obj, pad: str) -> str:
    # one level deeper indents by two spaces; lists of up to four numbers
    # stay on one line, longer ones take one number per line
    inner = pad + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        body = ",\n".join(f"{inner}{json.dumps(k)}: {_json(v, inner)}" for k, v in obj.items())
        return "{\n" + body + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        # a list of plain floats (the edge means) takes one "%" call: "%.17g"
        # writes a "." or an "e" into every float that is not integral, and
        # only integral floats need _fmt_float's ".0" (inf and nan are not)
        if set(map(type, obj)) == {float}:
            if len(obj) > 4 and not any(map(float.is_integer, obj)):
                text = (",\n" + inner).join(["%.17g"] * len(obj)) % tuple(obj)
                return "[\n" + inner + text + "\n" + pad + "]"
            items, numbers = map(_fmt_float, obj), True
        elif all(isinstance(v, (int, float)) for v in obj):
            items, numbers = map(_fmt_number, obj), True
        else:
            items, numbers = (_json(v, inner) for v in obj), False
        if numbers and len(obj) <= 4:
            return "[" + ", ".join(items) + "]"
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    return _fmt_number(obj)


def dumps_report(obj) -> str:
    """Serialize a report with 17 significant digit numbers."""
    return _json(obj, "") + "\n"


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise OutputFileError(f"cannot write {path}: {exc}") from exc


def _write_files(files) -> None:
    # (path, text) pairs: a failing write removes the files written before
    # it, so a call that exits 1 leaves none of its output files behind
    written = []
    try:
        for path, text in files:
            _write_text(path, text)
            written.append(path)
    except OutputFileError:
        for path in written:
            os.remove(path)
        raise


def _emit(report: dict) -> None:
    sys.stdout.write(dumps_report(report))


# ---------------------------------------------------------------- input

def _parse_kernel_arg(text: str) -> RadialKernel:
    # --kernel 'euclidean' or 'power:P' is the file's kernel object in short
    text = text.strip().lower()
    kind, _, p = text.partition(":")
    return _kernel_from_dict({"kind": kind, "p": p} if kind == "power" else {"kind": text})


def _kernel_from_dict(d) -> RadialKernel:
    if not isinstance(d, dict) or "kind" not in d:
        raise RegionFileError("kernel must be an object with a 'kind' field")
    kind = d["kind"]
    if kind == "euclidean":
        return RadialKernel.euclidean()
    if kind == "power":
        if "p" not in d:
            raise RegionFileError("power kernel needs a 'p' exponent")
        # float(True) is 1.0, but a flag is no exponent; strings pass, as
        # --kernel power:P hands its exponent over as text
        if isinstance(d["p"], bool):
            raise RegionFileError(f"bad power kernel exponent: {json.dumps(d['p'])} is not a number")
        try:
            return RadialKernel.power(float(d["p"]))
        except (TypeError, ValueError, OverflowError) as exc:
            raise RegionFileError(f"bad power kernel exponent: {exc}") from exc
    raise RegionFileError(f"unknown kernel kind {kind!r}")


def _coord_list(raw, label: str) -> np.ndarray:
    # rows of one width, JSON numbers only: float() would also read "3" as
    # 3.0 and true as 1.0, and an empty string or object is no empty row
    if not (isinstance(raw, list) and set(map(type, raw)) <= {list}):
        raise RegionFileError(f"{label} must be a list of [x, y] pairs of numbers")
    widths = set(map(len, raw))
    flat = list(itertools.chain.from_iterable(raw))
    if len(widths) > 1 or not set(map(type, flat)) <= {int, float}:
        raise RegionFileError(f"{label} must be a list of [x, y] pairs of numbers")
    try:
        arr = np.array(flat, dtype=float)
    except OverflowError as exc:
        raise RegionFileError(f"{label} contains a coordinate past the float range") from exc
    if widths != {2}:
        raise RegionFileError(f"{label} must be a nonempty list of [x, y] pairs")
    arr = arr.reshape(len(raw), 2)
    if not np.all(np.isfinite(arr)):
        raise RegionFileError(f"{label} contains non-finite coordinates")
    return arr


class RegionInput:
    """Parsed content of a region file."""

    def __init__(self, polygon: Optional[Polygon], point_set: Optional[PointSet], kernel: Optional[RadialKernel]):
        self.polygon = polygon
        self.point_set = point_set
        self.kernel = kernel


def load_region_file(path: str) -> RegionInput:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise RegionFileError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise RegionFileError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise RegionFileError("region file must be a JSON object")
    forms = [k for k in ("polygon", "points", "boundary_samples") if k in data]
    if len(forms) != 1:
        raise RegionFileError(
            "region file must contain exactly one of 'polygon', 'points', 'boundary_samples'"
        )
    form = forms[0]
    # the discrete command's objective is the Euclidean distance sum
    if "kernel" in data and form == "points":
        raise RegionFileError("'kernel' is only valid alongside 'polygon' or 'boundary_samples'")
    kernel = _kernel_from_dict(data["kernel"]) if "kernel" in data else None
    if "weights" in data and form != "points":
        raise RegionFileError("'weights' is only valid alongside 'points'")

    if form == "points":
        coords = _coord_list(data["points"], "points")
        weights = data.get("weights")
        # PointSet takes any iterable, which would read "911" as the weights
        # 9, 1, 1 and true as 1; null means no weights
        if weights is not None and not (isinstance(weights, list) and all(
                isinstance(w, (int, float)) and not isinstance(w, bool) for w in weights)):
            raise RegionFileError(f"'weights' must be a list of numbers, got {json.dumps(weights)}")
        try:
            ps = PointSet(coords, weights)
        except ValueError as exc:
            raise RegionFileError(str(exc)) from exc
        return RegionInput(None, ps, kernel)

    coords = _coord_list(data[form], form)
    poly = Polygon(coords)  # InvalidPolygonError propagates with its message
    return RegionInput(poly, None, kernel)


def _require_region(inp: RegionInput, cmd: str) -> Polygon:
    if inp.polygon is None:
        raise RegionFileError(
            f"the {cmd} command needs a 'polygon' or 'boundary_samples' region; "
            "point sets belong to the discrete command"
        )
    return inp.polygon


def _parse_point(text: str) -> Point2:
    parts = text.split(",")
    if len(parts) != 2:
        raise RegionFileError(f"expected --point x,y, got {text!r}")
    try:
        return Point2(float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise RegionFileError(f"bad --point {text!r}: {exc}") from exc


# ---------------------------------------------------------------- commands

def _solve_config(args) -> SolveConfig:
    return SolveConfig(tol_rel=args.tol, max_iter=args.max_iter)


def _finish(args, result, brute_force, outline=None, points=None) -> int:
    """Emit the report and figure of a solve; return its exit code.

    ``brute_force()`` gives the independent minimizer for ``--oracle``.
    """
    report = {
        "median": [result.median.x, result.median.y],
        "residual_norm": result.residual_norm,
        "normalized_norm": result.normalized_norm,
        "iterations": result.iterations,
        "edge_means": result.edge_means,
    }
    if result.certificate is not None:
        report["certificate_spread"] = result.certificate
    if args.oracle:
        minimizer = brute_force()
        report["oracle_check"] = {
            "minimizer": [minimizer.x, minimizer.y],
            "distance_to_median": minimizer.distance_to(result.median),
        }
    # an empty path is a path that cannot be written, not a missing flag
    text = dumps_report(report)
    files = []
    if args.json_out is not None:
        files.append((args.json_out, text))
    if args.svg_out is not None:
        files.append((args.svg_out, region_figure(outline, result.median, trace=result.trace, points=points)))
    _write_files(files)
    if args.json_out is None:
        sys.stdout.write(text)
    return 0 if result.converged else 2


def cmd_median(args) -> int:
    poly = _require_region(load_region_file(args.file), "median")
    result = solve_median(poly, _solve_config(args))
    return _finish(args, result, lambda: oracle_minimize(poly, RadialKernel.euclidean()), poly.coords)


def cmd_medianoid(args) -> int:
    inp = load_region_file(args.file)
    poly = _require_region(inp, "medianoid")
    kernel = _parse_kernel_arg(args.kernel) if args.kernel else (inp.kernel or RadialKernel.euclidean())
    result = solve_medianoid(poly, kernel, _solve_config(args))
    return _finish(args, result, lambda: oracle_minimize(poly, kernel), poly.coords)


def cmd_discrete(args) -> int:
    inp = load_region_file(args.file)
    if inp.point_set is None:
        raise RegionFileError("the discrete command needs a 'points' region file")
    ps = inp.point_set
    result = weiszfeld(ps, tol=args.tol, max_iter=args.max_iter)
    return _finish(args, result, lambda: oracle_minimize_points(ps), points=ps.coords)


def cmd_degenerate(args) -> int:
    try:
        gammas = [float(g) for g in args.gammas.split(",") if g.strip()]
    except ValueError as exc:
        raise RegionFileError(f"bad --gammas list: {exc}") from exc
    if not gammas:
        raise RegionFileError("--gammas must list at least one value")
    alpha, beta = max(args.alpha, args.beta), min(args.alpha, args.beta)
    rows = degenerate_limit_study(alpha, beta, gammas)
    # scaled by 2^-e each, so that the product neither overflows nor
    # underflows, and the root scaled back by 2^e: both exact
    e = math.frexp(alpha)[1]
    limit = math.ldexp(math.sqrt(math.ldexp(alpha, -e) * math.ldexp(beta, -e) / 2.0), e)
    report = {
        "alpha": alpha,
        "beta": beta,
        "rows": [
            {"gamma": g, "distance": d, "limit": limit, "gap": abs(d - limit)}
            for g, d in rows
        ],
    }
    _emit(report)
    return 0


def cmd_check(args) -> int:
    inp = load_region_file(args.file)
    poly = _require_region(inp, "check")
    point = _parse_point(args.point)
    # the file's kernel, or the Euclidean one, in the solves' frame and
    # error state: the point a solve reports gives the edge means it
    # reported, and one far enough out a SingularRegionError, whose numpy
    # cause the one error line names
    kernel = inp.kernel or RadialKernel.euclidean()
    try:
        rep = general_boundary_residual(poly, point, kernel)
    except SingularRegionError as exc:
        raise RegionFileError(f"the residual at --point {point.x!r},{point.y!r} is out of range: {exc.__cause__}") from exc
    report = {
        "point": [point.x, point.y],
        "residual": [rep.residual.dx, rep.residual.dy],
        "gradient": [rep.gradient.dx, rep.gradient.dy],
        "residual_norm": rep.norm,
        "normalized_norm": rep.normalized_norm,
        "edge_means": rep.edge_means,
    }
    if rep.certificate is not None:
        report["certificate_spread"] = rep.certificate
    _emit(report)
    return 0


# ---------------------------------------------------------------- parser

def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol", type=float, default=1e-12, help="relative residual tolerance")
    p.add_argument("--max-iter", type=int, default=100, help="iteration budget")
    p.add_argument("--oracle", action="store_true", help="cross-check against the brute-force minimizer")
    p.add_argument("--json-out", metavar="PATH", help="write the JSON report here instead of stdout")
    p.add_argument("--svg-out", metavar="PATH", help="write an SVG figure of the region and median")


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # no option starts with -digit, so --point -1,2 or -1e-3,2 is a value,
        # where argparse's own pattern takes only numbers such as -1 or -.5
        self._negative_number_matcher = re.compile(r"-\.?\d")

    # argparse exits 2 on a usage error, but 2 means "did not converge"
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="regionmedian",
        description="Geometric medians of planar regions via boundary-integral residuals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("median", help="median of a polygonal region")
    p.add_argument("file", help="region JSON file (polygon or boundary_samples)")
    _add_solver_flags(p)
    p.set_defaults(func=cmd_median)

    p = sub.add_parser("medianoid", help="generalized median for a radial kernel")
    p.add_argument("file", help="region JSON file (polygon or boundary_samples)")
    p.add_argument("--kernel", help="'euclidean' or 'power:P' (overrides the file)")
    _add_solver_flags(p)
    p.set_defaults(func=cmd_medianoid)

    p = sub.add_parser("discrete", help="median of a weighted point set")
    p.add_argument("file", help="region JSON file with 'points' (and optional 'weights')")
    _add_solver_flags(p)
    p.set_defaults(func=cmd_discrete)

    p = sub.add_parser("degenerate", help="flattening-limit study for triangles")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--gammas", required=True, help="comma-separated third-side lengths")
    p.set_defaults(func=cmd_degenerate)

    p = sub.add_parser("check", help="evaluate the residual at a point")
    p.add_argument("file", help="region JSON file (polygon or boundary_samples)")
    p.add_argument("--point", required=True, help="query point as x,y")
    p.set_defaults(func=cmd_check)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parse_args leaves the parser as it was and returns a new namespace,
    # so one parser serves every main() call of a process
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (RegionMedianError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

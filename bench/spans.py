"""Spans around the calls into each module of ``regionmedian``.

The traced run rebinds module attributes from outside the program: a
function imported by another module (``regionmedian.solver.polygon_residual``,
``regionmedian.cli.solve_median``) is replaced by a wrapper in every
module that holds it, and the methods ``Polygon.__init__``,
``Polygon.diameter``, ``Polygon.contains`` and ``RadialKernel.evaluate_many``
are wrapped on their classes. Each span records a name, start, end,
parent span, operation id and whether an exception left it. Spans stay
in memory in flat arrays and are written out once, at the end.

A span's self time is its duration minus the durations of its direct
child spans; spans nest strictly because the benchmark runs one thread.
"""
from __future__ import annotations

import time
from array import array

import numpy as np

# (span name, defining module, attribute); the wrapper replaces the
# attribute wherever a module of the package holds the same object
FUNCTIONS = [
    ("kernels.closed_values_batch", "kernels", "closed_values_batch"),
    ("kernels.segment_sigma_quadrature", "kernels", "segment_sigma_quadrature"),
    ("residuals.polygon_residual", "residuals", "polygon_residual"),
    ("residuals.general_boundary_residual", "residuals", "general_boundary_residual"),
    ("residuals.mean_distance_certificate", "residuals", "mean_distance_certificate"),
    ("solver.solve_median", "solver", "solve_median"),
    ("solver.solve_medianoid", "solver", "solve_medianoid"),
    ("oracle.oracle_sigma", "oracle", "oracle_sigma"),
    ("oracle.oracle_minimize", "oracle", "oracle_minimize"),
    ("triquad.subdivide4", "triquad", "subdivide4"),
    ("triquad.triangulation", "triquad", "star_triangles"),
    ("triquad.triangulation", "triquad", "triangulate"),
    ("cli.main", "cli", "main"),
    ("cli.load_region_file", "cli", "load_region_file"),
    ("cli.dumps_report", "cli", "dumps_report"),
]
MODULES = ("geometry", "kernels", "residuals", "solver", "oracle", "triquad", "cli")


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.error = array("b")
        self.start = array("d")
        self.end = array("d")
        self.points = 0  # displacements handed to RadialKernel.evaluate_many
        self.current_op = -1
        self._stack: list = []
        self._undo: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str):
        nid = self._id(name)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.current_op)
            self.error.append(0)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.error[idx] = 1
                raise
            finally:
                self.end[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, rm) -> None:
        modules = [getattr(rm, m) for m in MODULES] + [rm]
        for name, mod, attr in FUNCTIONS:
            original = getattr(getattr(rm, mod), attr)
            traced = self.wrap(original, name)
            for m in modules:
                if m.__dict__.get(attr) is original:
                    self._set(m, attr, traced)
        polygon = rm.geometry.Polygon
        self._set(polygon, "__init__", self.wrap(polygon.__init__, "geometry.Polygon"))
        self._set(polygon, "contains", self.wrap(polygon.contains, "geometry.contains"))
        diam = polygon.__dict__["diameter"]
        self._set(polygon, "diameter", property(self.wrap(diam.fget, "geometry.diameter")))
        kernel = rm.kernels.RadialKernel
        evaluate = self.wrap(kernel.evaluate_many, "kernels.evaluate_many")

        def evaluate_many(kern, dx, dy):
            self.points += np.size(dx)
            return evaluate(kern, dx, dy)

        self._set(kernel, "evaluate_many", evaluate_many)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def save(self, path: str) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), name_id=np.asarray(self.name_id),
            parent=np.asarray(self.parent), op=np.asarray(self.op), error=np.asarray(self.error),
            start=np.asarray(self.start), end=np.asarray(self.end),
        )


# (metric, unit, better); per operation unless the unit names another base
PER_LAYER = [
    ("geometry.Polygon.ms", "ms/op", "lower"),
    ("geometry.diameter.ms", "ms/op", "lower"),
    ("geometry.contains.calls", "calls/op", "lower"),
    ("kernels.closed_values_batch.calls", "calls/op", "lower"),
    ("kernels.closed_values_batch.us_per_call", "us/call", "lower"),
    ("kernels.segment_sigma_quadrature.calls", "calls/op", "lower"),
    ("kernels.segment_sigma_quadrature.us_per_call", "us/call", "lower"),
    ("kernels.evaluate_many.points", "points/op", "lower"),
    ("residuals.polygon_residual.calls", "calls/op", "lower"),
    ("residuals.polygon_residual.us_self", "us/call", "lower"),
    ("residuals.general_boundary_residual.calls", "calls/op", "lower"),
    ("residuals.general_boundary_residual.ms_self", "ms/op", "lower"),
    ("residuals.mean_distance_certificate.us_per_call", "us/call", "lower"),
    ("solver.newton_iterations", "iter/op", "lower"),
    ("solver.accepted_per_eval", "ratio", "higher"),
    ("solver.ms_self", "ms/op", "lower"),
    ("oracle.oracle_sigma.calls", "calls/op", "lower"),
    ("oracle.oracle_sigma.ms_self", "ms/call", "lower"),
    ("oracle.oracle_minimize.ms_self", "ms/op", "lower"),
    ("triquad.subdivide4.ms", "ms/op", "lower"),
    ("triquad.triangulation.ms", "ms/op", "lower"),
    ("cli.load_region_file.ms", "ms/op", "lower"),
    ("cli.dumps_report.ms", "ms/op", "lower"),
    ("cli.main.ms_self", "ms/op", "lower"),
] + [(f"{m}.errors", "count", "lower") for m in MODULES]


def layer_metrics(tracer: Tracer, ops: int, iterations: int, scale: float) -> dict:
    """Per-layer metrics from the spans of ``ops`` timed operations.

    ``iterations`` is the total of accepted Newton steps the solves
    reported; times are multiplied by ``scale`` (see calibrate.py).
    Spans recorded outside the timed operations (op < 0), such as the
    warm-up's, are ignored.
    """
    timed = np.asarray(tracer.op) >= 0
    name_id = np.asarray(tracer.name_id)[timed]
    parent = np.asarray(tracer.parent)
    dur_all = scale * (np.asarray(tracer.end) - np.asarray(tracer.start))
    child = np.zeros(len(dur_all))
    nested = parent >= 0
    np.add.at(child, parent[nested], dur_all[nested])
    dur = dur_all[timed]
    self_time = (dur_all - child)[timed]
    # module of each span and of its parent, by index into MODULES (-1: none)
    name_module = np.array([MODULES.index(n.split(".")[0]) for n in tracer.names] + [-1])
    module = name_module[name_id]
    parent_id = np.where(nested, np.asarray(tracer.name_id)[np.maximum(parent, 0)], len(tracer.names))[timed]
    parent_module = name_module[parent_id]
    ids = {n: i for i, n in enumerate(tracer.names)}

    def sel(name):
        return name_id == ids.get(name, -1)

    def calls(name):
        return int(np.count_nonzero(sel(name)))

    def total(name, values=dur):
        return float(values[sel(name)].sum())

    def per_call(name, values=dur):
        n = calls(name)
        return total(name, values) / n if n else 0.0

    solver = MODULES.index("solver")
    residual = sel("residuals.polygon_residual") | sel("residuals.general_boundary_residual")
    evals = int(np.count_nonzero(residual & (parent_module == solver)))
    escaped = (np.asarray(tracer.error)[timed] == 1) & (module != parent_module)

    m = {
        "geometry.Polygon.ms": 1e3 * total("geometry.Polygon") / ops,
        "geometry.diameter.ms": 1e3 * total("geometry.diameter") / ops,
        "geometry.contains.calls": calls("geometry.contains") / ops,
        "kernels.closed_values_batch.calls": calls("kernels.closed_values_batch") / ops,
        "kernels.closed_values_batch.us_per_call": 1e6 * per_call("kernels.closed_values_batch"),
        "kernels.segment_sigma_quadrature.calls": calls("kernels.segment_sigma_quadrature") / ops,
        "kernels.segment_sigma_quadrature.us_per_call": 1e6 * per_call("kernels.segment_sigma_quadrature"),
        "kernels.evaluate_many.points": tracer.points / ops,
        "residuals.polygon_residual.calls": calls("residuals.polygon_residual") / ops,
        "residuals.polygon_residual.us_self": 1e6 * per_call("residuals.polygon_residual", self_time),
        "residuals.general_boundary_residual.calls": calls("residuals.general_boundary_residual") / ops,
        "residuals.general_boundary_residual.ms_self": 1e3 * total("residuals.general_boundary_residual", self_time) / ops,
        "residuals.mean_distance_certificate.us_per_call": 1e6 * per_call("residuals.mean_distance_certificate"),
        "solver.newton_iterations": iterations / ops,
        "solver.accepted_per_eval": iterations / evals if evals else 0.0,
        "solver.ms_self": 1e3 * float(self_time[module == solver].sum()) / ops,
        "oracle.oracle_sigma.calls": calls("oracle.oracle_sigma") / ops,
        "oracle.oracle_sigma.ms_self": 1e3 * per_call("oracle.oracle_sigma", self_time),
        "oracle.oracle_minimize.ms_self": 1e3 * total("oracle.oracle_minimize", self_time) / ops,
        "triquad.subdivide4.ms": 1e3 * total("triquad.subdivide4") / ops,
        "triquad.triangulation.ms": 1e3 * total("triquad.triangulation") / ops,
        "cli.load_region_file.ms": 1e3 * total("cli.load_region_file") / ops,
        "cli.dumps_report.ms": 1e3 * total("cli.dumps_report") / ops,
        "cli.main.ms_self": 1e3 * total("cli.main", self_time) / ops,
    }
    for i, mod in enumerate(MODULES):
        m[f"{mod}.errors"] = int(np.count_nonzero(escaped & (module == i)))
    return m

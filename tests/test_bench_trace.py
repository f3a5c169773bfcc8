"""The benchmark's traced run wraps package functions by name, and its
counters of work repeat exactly."""
import sys
from pathlib import Path

import regionmedian as rm
import regionmedian.cli  # noqa: F401  the tracer wraps rm.cli, which the package does not import

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import spans  # noqa: E402


def test_the_traced_run_finds_every_name_it_wraps():
    # install() looks up each (module, attribute) of spans.FUNCTIONS and
    # the Polygon and RadialKernel methods; a missing name raises here
    tracer = spans.Tracer()
    try:
        tracer.install(rm)
        rm.solver.solve_median(rm.geometry.Polygon([(0.0, 0.0), (3.0, 0.0), (3.0, 4.0)]))
    finally:
        tracer.uninstall()
    assert {"solver.solve_median", "residuals.polygon_residual", "kernels.closed_values_batch"} <= set(tracer.names)
    assert not hasattr(rm.residuals.polygon_residual, "__wrapped__")


def _traced_counts(name: str) -> dict:
    """Per-operation layer metrics of the seed-0 inputs of a library
    workload, traced in process as the benchmark's worker traces them."""
    import workloads

    wl = workloads.WORKLOADS[name]
    inputs = wl.make_inputs(0, "")
    tracer = spans.Tracer()
    iterations = 0
    try:
        tracer.install(rm)
        for k, inp in enumerate(inputs):
            tracer.current_op = k
            iterations += wl.run(rm, inp).iterations
    finally:
        tracer.uninstall()
    return spans.layer_metrics(tracer, len(inputs), iterations, 1.0)


def test_the_work_of_a_solve_is_pinned_by_its_counters():
    # counts of work, not times: they repeat exactly on any machine, so a
    # change to the work a solve does fails here
    m = _traced_counts("small_regions")
    assert m["kernels.closed_values_batch.calls"] == 1835 / 512
    assert m["kernels.evaluate_many.points"] == 0.0
    assert m["solver.newton_iterations"] == 1323 / 512
    m = _traced_counts("kernel_medianoid")
    assert m["kernels.closed_values_batch.calls"] == 412 / 120
    assert m["kernels.evaluate_many.points"] == 0.0
    assert m["solver.newton_iterations"] == 292 / 120


def test_a_traced_solve_gives_the_untraced_result():
    # the traced closed_values_batch passes the float route's lists through
    # as they are, so tracing moves no bit of a seed-0 small_regions solve
    import workloads

    inputs = workloads.WORKLOADS["small_regions"].make_inputs(0, "")

    def results() -> list:
        return [repr(rm.solver.solve_median(rm.geometry.Polygon(inp["coords"]))) for inp in inputs]

    untraced = results()
    tracer = spans.Tracer()
    try:
        tracer.install(rm)
        traced = results()
    finally:
        tracer.uninstall()
    assert "kernels.closed_values_batch" in tracer.names and traced == untraced

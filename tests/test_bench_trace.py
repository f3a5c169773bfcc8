"""The benchmark's traced run wraps package functions by name."""
import sys
from pathlib import Path

import regionmedian as rm

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

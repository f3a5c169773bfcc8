"""Tests for the benchmark's own bookkeeping: metric lists, tail, spans."""
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == spans.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_tail_is_the_highest_percentile_with_ten_operations_beyond():
    assert run.tail([1.0] * 39) is None
    q, value, beyond = run.tail([float(i) for i in range(1, 1001)])
    assert (q, value, beyond) == (99.0, 990.0, 10)
    q, value, beyond = run.tail([float(i) for i in range(1, 41)])
    assert (q, value, beyond) == (75.0, 30.0, 10)


def test_spans_give_self_time_counts_and_escaped_errors():
    tracer = spans.Tracer()
    inner = tracer.wrap(lambda x: x + 1, "kernels.closed_values_batch")

    def residual(x):
        return inner(x) + inner(x)

    outer = tracer.wrap(residual, "residuals.polygon_residual")

    def fail():
        raise ValueError("boom")

    failing = tracer.wrap(fail, "geometry.Polygon")
    tracer.current_op = 0
    assert outer(1) == 4
    tracer.current_op = 1
    assert outer(2) == 6
    with pytest.raises(ValueError):
        failing()
    tracer.current_op = -1
    outer(3)  # outside the timed operations: ignored
    m = spans.layer_metrics(tracer, ops=2, iterations=0, scale=1.0)
    assert m["kernels.closed_values_batch.calls"] == 2.0
    assert m["residuals.polygon_residual.calls"] == 1.0
    assert 0.0 < m["residuals.polygon_residual.us_self"]
    assert m["geometry.errors"] == 1
    assert m["residuals.errors"] == 0
    assert len(tracer.start) == 10

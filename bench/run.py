"""Benchmark of regionmedian: four workloads, each in fresh processes.

    python3 bench/run.py                      # all four workloads, seed 0
    python3 bench/run.py --workload small_regions --seed 3 --seconds 10 --trace 0

For each workload it starts one worker process that imports the package
from ``src/`` of this checkout, builds the seeded inputs, runs one
untimed warm-up operation and then a fixed number of whole rounds of
operations (about --seconds on the reference machine), and checks every
output with ``check.py``. More fresh processes repeat only the set-up,
and ``setup_s`` is the median over all of them (five set-ups, three for
``oracle_certify``, whose warm-up takes 5 s). BLAS and OpenMP are
pinned to one thread. Times are scaled to reference-machine speed by
the calibration load of ``calibrate.py``; the measured values are
printed beside them.

With ``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` the worker wraps each module's functions (``spans.py``),
writes its spans to ``bench/out/`` and the result holds the per-layer
metrics. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
BUDGET_S = 170.0  # per workload, below the 180 s a run may take
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9, 99.95, 99.99)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")

END_TO_END = [("setup_s", "s"), ("ops_per_s", "ops/s"), ("op_ms_p50", "ms"), ("peak_rss_mb", "MB")]


class BenchError(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["BENCH_SRC"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env.pop("REGION_MEDIAN_SEED", None)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def _worker(args, workload: str, deadline: float, setup_only: bool) -> dict:
    workdir = OUT / f"work-{workload}-{os.getpid()}"
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir)]
    if setup_only:
        cmd.append("--setup-only")
    elif args.trace:
        cmd += ["--spans", str(OUT / f"spans-{workload}-seed{args.seed}.npz")]
    cmd += ["--spawned-at", repr(time.clock_gettime(time.CLOCK_MONOTONIC))]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=_env(), cwd=str(ROOT), text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload}: worker ran past the time budget")
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def tail(op_ms: list):
    """Highest ladder percentile with at least ten operations beyond it.

    Returns (percentile, value, operations beyond), or None below forty
    operations, where no percentile is a tail.
    """
    n = len(op_ms)
    if n < 40:
        return None
    ordered = sorted(op_ms)
    best = None
    for q in TAIL_LADDER:
        rank = math.ceil(q / 100.0 * n)
        if n - rank >= 10:
            best = (q, ordered[rank - 1], n - rank)
    return best


def run_workload(args, workload: str) -> dict:
    deadline = time.monotonic() + BUDGET_S
    main = _worker(args, workload, deadline, setup_only=False)
    out = {"correct": main["wrong"] == 0, "attempted": main["ops"], "failed": main["failed"]}
    if args.trace:
        from spans import PER_LAYER

        out["metrics"] = {name: {"value": main["layers"][name], "unit": unit} for name, unit, _ in PER_LAYER}
    else:
        extra = WORKLOADS[workload].setups - 1
        setups = [main] + [_worker(args, workload, deadline, setup_only=True) for _ in range(extra)]
        main["setup_s"] = statistics.median(s["setup_s"] for s in setups)
        main["setup_raw_s"] = statistics.median(s["setup_raw_s"] for s in setups)
        out["metrics"] = {name: {"value": main[name], "unit": unit} for name, unit in END_TO_END}
    _report(workload, main, out)
    return out


def _report(workload: str, main: dict, out: dict) -> None:
    print(f"== {workload}: {main['ops']} operations in {main['rounds']} rounds, "
          f"{out['failed']} failed, correct={out['correct']}")
    for reason, count in sorted(main["failures"].items()):
        print(f"   failed x{count}: {reason}")
    measured = {"setup_s": main["setup_raw_s"], "ops_per_s": main["ops_per_s_raw"],
                "op_ms_p50": main["op_ms_p50_raw"]}
    for name, m in out["metrics"].items():
        note = f" (measured {measured[name]:.6g})" if name in measured else ""
        print(f"   {name} = {m['value']:.6g} {m['unit']}{note}")
    t = tail(main["op_ms"])
    if t is None:
        print(f"   op_ms_tail: not reported, {main['ops']} operations are fewer than 40")
    else:
        print(f"   op_ms_tail = {t[1]:.6g} ms (p{t[0]:g} of {main['ops']} operations, {t[2]} beyond)")
    if "layers" in main:
        print(f"   traced ops_per_s = {main['ops_per_s']:.6g} ops/s")
    print(f"   machine speed scale = {main['scale']:.4f} (reference time / measured time)")
    sys.stdout.flush()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all", choices=list(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "regionmedian" / "__init__.py").is_file():
        print(f"error: no regionmedian package under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {name: run_workload(args, name) for name in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One workload in one fresh process; started by run.py.

Imports regionmedian, builds the seeded inputs, runs one untimed warm-up
operation, then the timed rounds, then checks every output. Prints one
JSON object as its last line of standard output. With --setup-only it
stops after the warm-up and reports only its set-up time.
"""
from __future__ import annotations

import argparse
import collections
import json
import os
import resource
import shutil
import statistics
import sys
import time


# calibration before and after the warm-up, each this long, to scale
# the set-up to reference-machine time
SETUP_CALIBRATION_S = 0.15


def _clock() -> float:
    # system-wide, so it can be compared with the parent's reading
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans", help="write the traced run's spans to this .npz file")
    args = ap.parse_args()

    import regionmedian as rm
    import regionmedian.cli  # noqa: F401  (the CLI workloads and the tracer use it)

    import calibrate
    import workloads

    src = os.path.dirname(os.path.dirname(os.path.abspath(rm.__file__)))
    if os.path.abspath(src) != os.path.abspath(os.environ.get("BENCH_SRC", "")):
        print(f"regionmedian imported from {src}, not from the checkout", file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload]
    os.makedirs(args.workdir, exist_ok=True)
    try:
        imported = _clock() - args.spawned_at
        inputs = [] if args.setup_only else wl.make_inputs(args.seed, args.workdir)
        warm_args = wl.prepare(wl.warmup_input(args.workdir), "warmup")

        # set-up = process start to imports done + the warm-up operation;
        # input generation and calibration are left out
        setup_meter = calibrate.Meter()
        setup_meter.burst(SETUP_CALIBRATION_S)
        t = _clock()
        wl.finish(wl.run(rm, warm_args))
        setup_raw = imported + _clock() - t
        setup_meter.burst(SETUP_CALIBRATION_S)
        setup = {"setup_s": setup_raw * setup_meter.scale(), "setup_raw_s": setup_raw}
        if args.setup_only:
            print(json.dumps(setup))
            return 0

        rounds = wl.rounds(args.seconds)
        calls = [wl.prepare(inp, f"r{r}") for r in range(rounds) for inp in inputs]
        tracer = None
        if args.trace:
            import spans

            tracer = spans.Tracer()
            tracer.install(rm)

        meter = calibrate.Meter()
        raw = []
        durations = []
        clock = time.perf_counter
        run = wl.run
        for k, call in enumerate(calls):
            if tracer is not None:
                tracer.current_op = k
            t = clock()
            try:
                out = run(rm, call)
            except Exception as exc:  # a failed operation, counted below
                out = workloads.Outcome(f"{type(exc).__name__}: {exc}")
            dt = clock() - t
            durations.append(dt)
            raw.append(out)
            meter.after(dt)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.current_op = -1
            tracer.uninstall()
        scale = meter.scale()

        failures = collections.Counter()
        wrong = 0
        verdicts = {}
        iterations = 0
        for k, out in enumerate(raw):
            outcome = wl.finish(out)
            iterations += outcome.iterations
            i = k % len(inputs)
            if i not in verdicts or verdicts[i][0] != outcome:
                verdicts[i] = (outcome, wl.check(inputs[i], outcome))
            is_failed, is_wrong, reason = verdicts[i][1]
            wrong += is_wrong
            if is_failed:
                failures[f"{inputs[i].get('fixed', 'seeded')}: {reason[:160]}"] += 1

        result = dict(
            setup,
            workload=wl.name,
            ops=len(calls),
            rounds=rounds,
            failed=sum(failures.values()),
            wrong=wrong,
            failures=dict(failures),
            scale=scale,
            ops_per_s=len(calls) / (sum(durations) * scale),
            ops_per_s_raw=len(calls) / sum(durations),
            op_ms=[1e3 * d * scale for d in durations],
            op_ms_p50=1e3 * statistics.median(durations) * scale,
            op_ms_p50_raw=1e3 * statistics.median(durations),
            peak_rss_mb=peak_rss_mb,
        )
        if tracer is not None:
            if args.spans:
                tracer.save(args.spans)
            result["layers"] = spans.layer_metrics(tracer, len(calls), iterations, scale)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""superimm benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload suite|symbolic|points \
        [--seed 20240613] [--seconds 25] [--trace 0|1]

A run makes passes until the next one would end after `--seconds` (at least
MIN_PASSES).  Each pass is a fresh interpreter (`worker.py`) with cold
caches, running the workload's ops one at a time in a closed loop on one
thread.  The run checks every output, prints each metric by name with its
unit, and ends with one JSON line: {"correct", "attempted", "failed",
"metrics"}.

End-to-end metrics (--trace 0) are times at the reference CPU speed: each
time measured is scaled by the speed the probe of `speed.py` saw while it
ran, because the box the benchmark was defined on switches between full and
half speed for minutes at a time.  An op's latency is its median over the
passes.
  wall_s       the sum of the ops' latencies: the timed body of one pass
  setup_s      process start to the first timed op (import + input
               generation), median over at least MIN_SETUPS starts
  op_p50_ms    median op latency
  op_tail_ms   op latency at the highest percentile with ten ops beyond it
  peak_rss_mb  peak resident memory of one pass, median over passes
Both latency quantiles are Harrell-Davis estimates (see `quantile`).  The
unscaled wall time and the speed seen are printed beside the metrics.
The failed-op share is `failed / attempted` in the JSON line; it is printed
beside the metrics, not reported as one, because it is 0 when the program is
correct.

Per-layer metrics (--trace 1) come from TRACED_PASSES traced passes, whose
exact counts must agree; spans go to .perfbench/trace-*.json.  Traced passes
run without the probe, so their times are unscaled; the traced run's own
wall time is `traced.wall_s`, to compare with the unscaled wall time of an
untraced run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("points", "suite", "symbolic")
MIN_PASSES = 2
TRACED_PASSES = 3
MIN_SETUPS = 10
SETUPS_PER_PASS = 2  # set-up-only starts between passes, so they span the run
RUN_DEADLINE_S = 170  # a run, with all its workers, ends within this

END_TO_END_UNITS = {
    "wall_s": "s", "setup_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms", "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_ratio")):
        return "ratio"
    return "count"


def run_worker(workload: str, seed: int, mode: str, deadline: float,
               trace_file: str = "") -> tuple[dict, float]:
    """One worker process; returns its report and its set-up time, scaled to
    the reference speed unless the worker was traced."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.getcwd(), "src"), PYTHONHASHSEED="0")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed), mode, trace_file]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: worker for {workload} passed the run deadline") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: worker for {workload} exited with {proc.returncode}")
    report = json.loads(proc.stdout.splitlines()[-1])
    setup = report["first_op"] - spawned
    if mode != "trace":
        setup = (setup - report["setup_overhead_s"]) * report["setup_scale"]
    return report, setup


def quantile(samples: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: the mean of all order
    statistics weighted by the Beta(p(n+1), (1-p)(n+1)) density.

    The ops of a workload differ in size and form clusters; a single order
    statistic at a cluster edge jumps from one cluster to the next with a
    little noise, while this weighted mean moves smoothly.
    """
    xs = sorted(samples)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    steps = 16  # midpoint rule inside each order statistic's interval

    def density(x: float) -> float:
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)

    weights = [sum(density((i + (k + 0.5) / steps) / n) for k in range(steps)) for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=20240613)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the
    # running worker before the driver exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join("src", "superimm", "__init__.py")):
        print("perfbench: run from the root of a superimm checkout (no src/superimm here)",
              file=sys.stderr)
        return 2

    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    reports, setups = [], []
    while True:
        pass_start = time.monotonic()
        if args.trace:
            trace_file = os.path.join(".perfbench", f"trace-{args.workload}-{args.seed}-{len(reports)}.json")
            report, setup = run_worker(args.workload, args.seed, "trace", deadline, trace_file)
        else:
            report, setup = run_worker(args.workload, args.seed, "run", deadline)
            for _ in range(SETUPS_PER_PASS):
                setups.append(run_worker(args.workload, args.seed, "setup", deadline)[1])
        reports.append(report)
        setups.append(setup)
        now = time.monotonic()
        if args.trace:
            if len(reports) == TRACED_PASSES:
                break
        elif len(reports) >= MIN_PASSES and (now - start) + (now - pass_start) > args.seconds:
            break  # the next pass would end after --seconds
    while not args.trace and len(setups) < MIN_SETUPS:
        setups.append(run_worker(args.workload, args.seed, "setup", deadline)[1])

    attempted = sum(r["attempted"] for r in reports)
    failures = [f for r in reports for f in r["failures"]]
    for line in failures[:20]:
        print(f"FAILED {line}")
    correct = not failures
    raw = [statistics.median(times) for times in zip(*(r["op_s"] for r in reports))]
    if args.trace:
        exact = reports[0]["exact"]
        for k, r in enumerate(reports[1:], start=1):
            differ = sorted(key for key in exact if r["exact"][key] != exact[key])
            if differ:
                correct = False
                print(f"FAILED exact counts of pass {k} differ from pass 0: {', '.join(differ)}")
        metrics = {
            name: (exact[name] if name in exact else statistics.median(r["layers"][name] for r in reports))
            for name in reports[0]["layers"]
        }
        metrics["traced.wall_s"] = sum(raw)
        units = {name: layer_unit(name) for name in metrics}
    else:
        # Each op's latency is its median over the passes of its time scaled
        # to the reference speed.
        ops = [statistics.median(t * k for t, k in zip(times, scales))
               for times, scales in zip(zip(*(r["op_s"] for r in reports)),
                                        zip(*(r["op_scale"] for r in reports)))]
        tail_p = max(0.5, 1 - 10 / len(ops))
        metrics = {
            "wall_s": sum(ops),
            "setup_s": statistics.median(setups),
            "op_p50_ms": quantile(ops, 0.5) * 1000,
            "op_tail_ms": quantile(ops, tail_p) * 1000,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reports),
        }
        units = END_TO_END_UNITS
    metrics = {name: {"value": v, "unit": units[name]} for name, v in sorted(metrics.items())}

    print(f"workload {args.workload}, seed {args.seed}, {len(reports)} passes of "
          f"{reports[0]['attempted']} ops, closed loop, 1 thread")
    for name, m in metrics.items():
        value = m["value"]
        print(f"{name} {value if isinstance(value, int) else f'{value:.6g}'} {m['unit']}")
    if not args.trace:
        speed = statistics.median(k for r in reports for k in r["op_scale"])
        print(f"  times are at the reference speed; unscaled wall {sum(raw):.6g} s, "
              f"median speed {speed:.3g} of the reference")
        print(f"  op_tail_ms is p{100 * tail_p:.1f} of {len(ops)} ops (10 beyond it), "
              f"each op the median of {len(reports)} passes; "
              f"setup_s is the median of {len(setups)} starts")
    print(f"fail_frac {len(failures) / attempted:.6g} ({len(failures)} of {attempted} ops)")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

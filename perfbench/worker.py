"""One pass of one workload, in a fresh interpreter.

Usage: python3 perfbench/worker.py WORKLOAD SEED run|trace|setup [TRACE_FILE]

Run by `perfbench/run.py`, which starts one worker per pass so that every
pass begins with cold `lru_cache`s, as every user of the CLI and the scripts
does.  The worker builds its inputs from the seed, runs the ops one after
another (closed loop, single thread), checks every output after the timed
body, and prints one JSON line.  Outside `trace` mode a speed probe (see
`speed.py`) samples the CPU speed from the first line of `main`, and the
report gives, for set-up and for each op, the factor that scales its time to
the reference speed.  In `trace` mode it instead wraps the library's layers
(see `tracer.py`), reports per-layer metrics and writes the spans to
TRACE_FILE.  In `setup` mode it stops at the first op: one more sample of
set-up time.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

from speed import SpeedProbe

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def main(argv) -> int:
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    probe = None if mode == "trace" else SpeedProbe()
    if probe:
        probe.start()
    # Imported after the probe starts, so that set-up runs under it.
    import workloads
    from tracer import Tracer, exact_counts

    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)
    ops = workloads.SETUP[workload](seed, reference)

    tracer = Tracer() if mode == "trace" else None
    if tracer:
        tracer.install()
    first_op = time.monotonic()
    out = {"first_op": first_op}
    if probe:
        out["setup_overhead_s"] = probe.overhead_s
        probe.sample()
        out["setup_scale"] = probe.scale(0)
    if mode == "setup":
        probe.stop()
        print(json.dumps(out))
        return 0
    results, latencies, scales = [], [], []
    body_start = time.perf_counter()
    for op in ops:
        span = tracer.open("op", label=op.label, family=op.family) if tracer else None
        if probe:  # the last sample, taken just now, opens this op's window
            first_sample, overhead = len(probe.samples) - 1, probe.overhead_s
        t0 = time.perf_counter()
        try:
            results.append((op.run(), None))
        except Exception as exc:  # a raising op is a failed op, not a crash
            results.append((None, f"raised {type(exc).__name__}: {exc}"))
        elapsed = time.perf_counter() - t0
        if probe:
            elapsed -= probe.overhead_s - overhead
            probe.sample()
            scales.append(probe.scale(first_sample))
        latencies.append(elapsed)
        if tracer:
            tracer.close(span)
    wall = time.perf_counter() - body_start
    if tracer:
        tracer.uninstall()
    if probe:
        probe.stop()

    failures, counts = [], {}
    for op, (value, error) in zip(ops, results):
        reason = error or op.check(value)
        if reason:
            failures.append(f"{op.label}: {reason}")
        elif op.counts:
            for key, n in op.counts(value).items():
                counts[key] = counts.get(key, 0) + n

    out.update({
        "op_s": latencies,
        "op_scale": scales,
        "attempted": len(ops),
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    })
    if tracer:
        layers = tracer.layer_metrics()
        for key in ("verify.checks", "verify.cases", "verify.vacuous_checks"):
            layers[key] = counts.get(key, 0)
        spans = tracer.span_records()
        family_busy = dict.fromkeys((row[0] for row in workloads.SUITE_GRID), 0.0)
        self_time: dict[str, float] = {}
        for record in spans:
            self_time[record["name"]] = self_time.get(record["name"], 0.0) + record["self_s"]
            if record["name"] == "op" and record["family"] in family_busy:
                family_busy[record["family"]] += record["duration_s"]
        for family, busy in family_busy.items():
            layers[f"verify.{family}.busy_s"] = busy
        out["layers"] = layers
        out["exact"] = exact_counts(layers)
        trace_file = argv[3]
        os.makedirs(os.path.dirname(trace_file) or ".", exist_ok=True)
        with open(trace_file, "w", encoding="utf-8") as fh:
            json.dump({"workload": workload, "seed": seed, "wall_s": wall, "layers": layers,
                       "self_s_by_span": self_time, "spans": spans}, fh)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

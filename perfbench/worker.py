"""One fresh, single-threaded benchmark process (started by ``run.py``).

Modes:

* ``prepare`` builds the seed's cached inputs (the trace of ``trace_replay``);
* ``setup`` times one set-up, from interpreter start to ready, and exits;
* ``run`` sets up, then repeats the workload's timed phase for about
  ``--seconds`` and prints the end-to-end metrics;
* ``trace`` runs the workload once untraced and once under the span tracer
  and prints the per-layer metrics.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["prepare", "setup", "run", "trace"])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument(
        "--spawned",
        type=float,
        default=None,
        help="time.monotonic() just before this process was started",
    )
    args = parser.parse_args()
    spawned = time.monotonic() if args.spawned is None else args.spawned

    started = time.perf_counter()
    import repro.cli  # noqa: F401  (the import every pmtree command pays)

    import_s = time.perf_counter() - started
    import metrics
    import workloads

    build, measure = workloads.WORKLOADS[args.workload]
    if args.mode == "prepare":
        if args.workload == "trace_replay":
            workloads.prepare_trace(args.seed, ROOT)
        print(json.dumps({"prepared": args.workload}))
        return

    ctx = build(args.seed, ROOT)
    setup_s = time.monotonic() - spawned
    if args.mode == "setup":
        out = {"setup_s": setup_s}
    elif args.mode == "run":
        ready = time.monotonic()
        reps = [measure(ctx)]
        durations = [time.monotonic() - ready]
        while time.monotonic() - ready + statistics.mean(durations) <= args.seconds:
            began = time.monotonic()
            reps.append(measure(build(args.seed, ROOT)))
            durations.append(time.monotonic() - began)
        out = {
            "setup_s": setup_s,
            "repetitions": len(reps),
            "attempted": sum(rep.attempted for rep in reps),
            "violations": [v for rep in reps for v in rep.violations]
            + metrics.simulated_mismatches(reps),
            "metrics": metrics.end_to_end(setup_s, reps, peak_rss_mb()),
        }
    else:
        from tracer import Tracer

        untraced = measure(ctx)
        tracer = Tracer()
        tracer.install()
        try:
            traced = measure(build(args.seed, ROOT))
        finally:
            tracer.unpatch()
        tracer.save(ROOT / ".perfbench" / "spans" / f"{args.workload}-{args.seed}.npz")
        out = {
            "attempted": untraced.attempted + traced.attempted,
            "violations": untraced.violations
            + traced.violations
            + metrics.simulated_mismatches([untraced, traced]),
            "metrics": metrics.per_layer(
                tracer.summary(), tracer.counts, traced, untraced, import_s
            ),
        }
    shutil.rmtree(ROOT / ".perfbench" / "state", ignore_errors=True)
    print(json.dumps(out))


if __name__ == "__main__":
    sys.exit(main())

"""The pmtree benchmark: run one workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload trace_replay --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py``): ``trace_replay``, ``serve_soak`` and
``fleet_heal``.  Every workload runs in fresh single-threaded Python
processes started here, against the package under ``src/``:

* with ``--trace 0`` it sets up several times, each in a new process, and
  reports the median set-up time; then one process runs the workload for
  about ``--seconds`` and reports every end-to-end metric;
* with ``--trace 1`` one process runs the workload untraced and then under
  the span tracer (``tracer.py``), and reports every per-layer metric.

Inputs come only from ``--seed``.  Outputs are checked in the timed run: the
barrier replay against the paper's closed form, and the serving and fleet
ledgers for exactly-once accounting.  The simulator is a model; no hardware
measurement backs its cycle counts, so the closed-form check shows that the
simulator agrees with the paper's cost model and nothing more.

Every metric is printed by name with its unit; the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every check held.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("trace_replay", "serve_soak", "fleet_heal")
#: fresh processes that only set up, besides the measuring one
SETUP_SAMPLES = 4
#: the whole run ends within this many seconds
TIME_LIMIT = 170.0


def start_worker(mode: str, args, deadline: float) -> dict:
    """Run ``worker.py`` in a fresh process and return its JSON result."""
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        mode,
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--seconds",
        str(args.seconds),
        "--spawned",
        repr(time.monotonic()),
    ]
    try:
        proc = subprocess.run(
            command,
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        sys.exit(f"{mode} process for {args.workload} ran out of time")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"{mode} process for {args.workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    deadline = time.monotonic() + TIME_LIMIT

    sys.path.insert(0, str(HERE))
    import metrics

    start_worker("prepare", args, deadline)
    if args.trace:
        out = start_worker("trace", args, deadline)
    else:
        setups = [start_worker("setup", args, deadline)["setup_s"] for _ in range(SETUP_SAMPLES)]
        out = start_worker("run", args, deadline)
        out["metrics"]["setup_s"] = statistics.median(setups + [out["setup_s"]])

    violations = out["violations"]
    for name, value in out["metrics"].items():
        print(f"{args.workload:>12}  {name:<30} {value:>14.6g} {metrics.UNITS[name]}")
    for violation in violations:
        print(f"CHECK FAILED: {violation}")
    print(
        json.dumps(
            metrics.result(
                not violations, out["attempted"], len(violations), out["metrics"]
            )
        )
    )
    return 0 if not violations else 1


if __name__ == "__main__":
    sys.exit(main())

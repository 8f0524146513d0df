"""Measure the benchmark on many seeds and record the result as a baseline.

Usage (from the repository root)::

    python3 perfbench/baseline.py --seeds 1-10 --held-out 424242 --out perfbench/baseline.json

For every workload this runs ``run.py`` once per seed and reports each
end-to-end metric's median and its spread (the distance between the first
and third quartile of the runs, over the median), then makes one traced run
on the first seed for the per-layer metrics, and one run on the held-out
seed, whose checks must pass and whose simulated metrics must differ from
the first seed's.  The file also records the host, and which per-layer
metrics each workload should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402

SIMULATED = ("sim_cycles", "sojourn_p50_cycles", "sojourn_p99_cycles", "failed_frac")


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(values: list[float]) -> float:
    """Quartile distance over the median (0.0 for a constant)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, float]:
    started = time.monotonic()
    proc = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=200,
    )
    wall = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} seed {seed} printed nothing: {proc.stderr}")
    result = json.loads(lines[-1])
    result["exit_code"] = proc.returncode
    return result, wall


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="trace_replay,serve_soak,fleet_heal")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--held-out", type=int, default=None)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)

    import numpy

    out = {
        "host": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": platform.platform(),
        },
        "run_seconds": seconds,
        "seeds": seeds,
        "held_out_seed": args.held_out,
        "workloads": {},
    }
    ok = True
    for workload in args.workloads.split(","):
        runs = [run(workload, seed, seconds, 0) for seed in seeds]
        values = {
            name: [r["metrics"][name]["value"] for r, _ in runs]
            for name, *_ in metrics.END_TO_END
        }
        entry = {
            "why": why[workload],
            "moves": {
                name: f"{moves}{'; ' + note if note else ''}"
                for name, _, _, moves, on, note in metrics.PER_LAYER
                if workload in on
            },
            "correct": all(r["correct"] for r, _ in runs),
            "run_wall_s": statistics.median(wall for _, wall in runs),
            "end_to_end": {
                name: {
                    "unit": metrics.UNITS[name],
                    "median": statistics.median(v),
                    "spread": spread(v),
                    "bound": bounds[name],
                    "values": v,
                }
                for name, v in values.items()
            },
        }
        for name, stats in entry["end_to_end"].items():
            line = f"{workload:>12}  {name:<20} median {stats['median']:<12.6g} spread {stats['spread']:.4f}"
            print(line + ("" if name == "setup_s" or stats["spread"] <= stats["bound"] else "  OVER BOUND"))
        traced, _ = run(workload, seeds[0], seconds, 1)
        entry["per_layer"] = {
            name: item["value"] for name, item in traced["metrics"].items()
        }
        entry["correct"] = entry["correct"] and traced["correct"]
        if args.held_out is not None:
            held, _ = run(workload, args.held_out, seconds, 0)
            first = runs[0][0]["metrics"]
            differs = [
                name for name in SIMULATED
                if held["metrics"][name]["value"] != first[name]["value"]
            ]
            entry["held_out"] = {
                "correct": held["correct"],
                "simulated": {name: held["metrics"][name]["value"] for name in SIMULATED},
                "differs_from_first_seed": differs,
            }
            entry["correct"] = entry["correct"] and held["correct"] and bool(differs)
        ok = ok and entry["correct"]
        print(f"{workload:>12}  correct {entry['correct']}, run wall {entry['run_wall_s']:.1f} s")
        out["workloads"][workload] = entry
    if args.out is not None:
        args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

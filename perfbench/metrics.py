"""Metric definitions and their extraction from one run's figures.

:data:`END_TO_END` and :data:`PER_LAYER` list every metric the benchmark
prints, with its unit and better direction; ``BENCHMARK.json`` repeats the
same lists (a test keeps the two in step).  Each per-layer entry also names
the end-to-end metric it should move, and on which workloads.
"""

from __future__ import annotations

import numpy as np

#: name, unit, better
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("items_per_s", "items/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("failed_frac", "ratio", "lower"),
    ("sim_cycles", "cycles", "lower"),
    ("sojourn_p50_cycles", "cycles", "lower"),
    ("sojourn_p99_cycles", "cycles", "lower"),
    ("pause_p50_ms", "ms", "lower"),
    ("pause_p99_ms", "ms", "lower"),
    ("recover_s", "s", "lower"),
    ("state_mb", "MB", "lower"),
)

TR, SS, FH = ("trace_replay",), ("serve_soak",), ("fleet_heal",)
ALL = TR + SS + FH
_FAST_PATH = "should not move on serve_soak or fleet_heal while the fast path is barrier-only"
_NO_RECORDER = "should not move on fleet_heal, where the recorder is off"

#: name, unit, better, the end-to-end metric it should move, the workloads
#: it should move it on, and a note (or None)
PER_LAYER = (
    ("cli.import_s", "s", "lower", "setup_s", ALL, None),
    ("core.mapping_build_s", "s", "lower", "setup_s", TR, None),
    ("core.repair_builds", "count", "lower", "items_per_s", SS, None),
    ("core.repair_build_ms", "ms", "lower", "items_per_s", SS, None),
    ("templates.samples", "count", "lower", "items_per_s", SS + FH, None),
    ("templates.sample_us", "us", "lower", "items_per_s", SS + FH, None),
    ("memory.accesses", "count", "lower", "items_per_s", TR, None),
    ("memory.access_us", "us", "lower", "items_per_s", TR, None),
    ("memory.open_loop_s", "s", "lower", "items_per_s", TR, None),
    ("memory.module_steps", "count", "lower", "items_per_s", TR, _FAST_PATH),
    ("memory.step_hit_ratio", "ratio", "higher", "items_per_s", TR, _FAST_PATH),
    ("memory.wall_share", "ratio", "lower", "items_per_s", TR, None),
    ("serve.step_us", "us", "lower", "items_per_s", SS, None),
    ("serve.form_calls", "count", "lower", "items_per_s", SS, None),
    ("serve.form_us", "us", "lower", "items_per_s", SS, None),
    ("serve.poll_us", "us", "lower", "items_per_s", SS + FH, None),
    ("serve.wait_p50_cycles", "cycles", "lower", "sojourn_p50_cycles", SS, None),
    ("serve.wait_p99_cycles", "cycles", "lower", "sojourn_p99_cycles", SS, None),
    ("serve.batch_requests_mean", "requests", "higher", "sojourn_*_cycles", SS, None),
    ("serve.batch_conflicts_mean", "conflicts", "lower", "sojourn_*_cycles", SS, None),
    ("serve.rounds_per_request", "rounds", "lower", "sojourn_*_cycles", SS, None),
    ("serve.retries", "count", "lower", "failed_frac", SS, None),
    ("serve.timeouts", "count", "lower", "failed_frac", SS, None),
    ("durability.checkpoints", "count", "lower", "pause_p99_ms, items_per_s", SS, None),
    ("durability.checkpoint_ms_p50", "ms", "lower", "pause_p99_ms, items_per_s", SS, None),
    ("durability.checkpoint_ms_p99", "ms", "lower", "pause_p99_ms, items_per_s", SS, None),
    ("durability.checkpoint_growth", "ratio", "lower", "pause_p99_ms", SS, None),
    ("durability.snapshot_kb", "kB", "lower", "state_mb, recover_s", SS + FH, None),
    ("durability.journal_records", "count", "lower", "items_per_s, state_mb", SS, None),
    ("durability.journal_kb", "kB", "lower", "items_per_s, state_mb", SS, None),
    ("durability.journal_append_us", "us", "lower", "items_per_s, state_mb", SS, None),
    ("durability.snapshot_load_ms", "ms", "lower", "recover_s", SS, None),
    ("durability.journal_recover_ms", "ms", "lower", "recover_s", SS, None),
    ("durability.replayed_records", "count", "lower", "recover_s", SS, None),
    ("obs.events", "count", "lower", "items_per_s, state_mb", SS, _NO_RECORDER),
    ("obs.event_us", "us", "lower", "items_per_s, state_mb", SS, _NO_RECORDER),
    ("obs.sink_us", "us", "lower", "items_per_s, state_mb", SS, _NO_RECORDER),
    ("obs.evicted", "count", "lower", "items_per_s, state_mb", SS, _NO_RECORDER),
    ("obs.expose_ms", "ms", "lower", "pause_p99_ms", SS, None),
    ("host.tick_us", "us", "lower", "items_per_s", SS + FH, None),
    ("fleet.step_self_us", "us", "lower", "items_per_s", FH, None),
    ("fleet.routes", "count", "lower", "items_per_s", FH, None),
    ("fleet.route_us", "us", "lower", "items_per_s", FH, None),
    ("fleet.checkpoint_ms_p50", "ms", "lower", "items_per_s, state_mb", FH, None),
    ("fleet.checkpoint_ms_p99", "ms", "lower", "items_per_s, state_mb", FH, None),
    ("fleet.restarts", "count", "lower", "items_per_s, sojourn_p99_cycles", FH, None),
    ("fleet.rejoin_ms", "ms", "lower", "items_per_s, sojourn_p99_cycles", FH, None),
    ("fleet.rerouted", "count", "lower", "items_per_s, sojourn_p99_cycles", FH, None),
    ("bench.span_coverage", "ratio", "higher", "none (trace quality)", ALL, None),
    ("bench.trace_overhead", "ratio", "lower", "none (trace quality)", ALL, None),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}

#: simulated figures a workload's report supplies; read as 0 elsewhere
SIMULATED_LAYER = (
    "serve.wait_p50_cycles",
    "serve.wait_p99_cycles",
    "serve.batch_requests_mean",
    "serve.batch_conflicts_mean",
    "serve.rounds_per_request",
    "serve.retries",
    "serve.timeouts",
    "durability.snapshot_kb",
    "durability.journal_kb",
    "durability.replayed_records",
    "obs.evicted",
    "fleet.restarts",
    "fleet.rerouted",
)


#: the spans a driver tick's own time excludes: the step and the checkpoint
_TICK_CHILDREN = ("serve.step", "fleet.step", "durability.checkpoint", "fleet.checkpoint")


def percentile(values, q: float) -> float:
    """``np.percentile`` with linear interpolation; 0.0 for no values."""
    values = np.asarray(values, dtype=np.float64)
    return float(np.percentile(values, q)) if values.size else 0.0


def end_to_end(setup_s: float, reps: list, peak_rss_mb: float) -> dict:
    """The end-to-end metrics of one run from its repetitions.

    Host-timed figures are medians over the repetitions (pump pauses are
    pooled first).  Simulated figures repeat exactly in every repetition of
    one seed, so the first repetition's are reported.  A broken correctness
    check counts as one more failed operation.
    """
    first = reps[0]
    pauses = [p for rep in reps for p in rep.pauses]
    return {
        "setup_s": setup_s,
        "items_per_s": float(np.median([r.items / r.timed_s for r in reps])),
        "peak_rss_mb": peak_rss_mb,
        "failed_frac": (first.failed + len(first.violations)) / first.attempted,
        "sim_cycles": first.sim_cycles,
        "sojourn_p50_cycles": first.sojourn_p50,
        "sojourn_p99_cycles": first.sojourn_p99,
        "pause_p50_ms": percentile(pauses, 50) * 1e3,
        "pause_p99_ms": percentile(pauses, 99) * 1e3,
        "recover_s": float(np.median([r.recover_s for r in reps])),
        "state_mb": first.state_bytes / 1e6,
    }


def simulated_mismatches(reps: list) -> list[str]:
    """Simulated figures that differ between repetitions of one seed."""
    first = reps[0]
    out = []
    for i, rep in enumerate(reps[1:], start=1):
        for name in ("sim_cycles", "sojourn_p50", "sojourn_p99", "failed", "attempted"):
            if getattr(rep, name) != getattr(first, name):
                out.append(f"repetition {i}: {name} differs from repetition 0")
    return out


def growth(durations) -> float:
    """Mean of the last tenth of ``durations`` over the mean of the first
    tenth (1.0 when flat, 0.0 when there are none)."""
    d = np.asarray(durations, dtype=np.float64)
    if d.size == 0:
        return 0.0
    tenth = max(1, d.size // 10)
    return float(d[-tenth:].mean() / d[:tenth].mean())


def per_layer(summary, counts: dict, traced, untraced, import_s: float) -> dict:
    """The per-layer metrics of a traced run.

    ``summary`` is the run's :class:`~tracer.SpanSummary`, ``counts`` the
    tracer's counts, ``traced``/``untraced`` the two repetitions of the
    workload made with and without tracing (one process, one seed).
    """
    ms, us = 1e3, 1e6
    checkpoints = summary.durations("durability.checkpoint")
    fleet_checkpoints = summary.durations("fleet.checkpoint")
    repairs = summary.calls("core.repair_build")
    steps = counts.get("memory.module_steps", 0)
    wall = sum(hi - lo for lo, hi in traced.windows)
    covered = sum(summary.coverage(lo, hi) * (hi - lo) for lo, hi in traced.windows)
    in_memory = sum(
        summary.layer_share("memory.", lo, hi) * (hi - lo) for lo, hi in traced.windows
    )
    values = {
        "cli.import_s": import_s,
        "core.mapping_build_s": summary.inclusive("core.mapping_build"),
        "core.repair_builds": repairs,
        "core.repair_build_ms": (
            (summary.inclusive("core.repair_build") + summary.inclusive("core.repair_color"))
            / repairs * ms
            if repairs
            else 0.0
        ),
        "templates.samples": summary.calls("templates.sample"),
        "templates.sample_us": summary.mean("templates.sample") * us,
        "memory.accesses": summary.calls("memory.access"),
        "memory.access_us": summary.mean("memory.access") * us,
        "memory.open_loop_s": summary.inclusive("memory.open_loop"),
        "memory.module_steps": steps,
        "memory.step_hit_ratio": counts.get("memory.step_hits", 0) / steps if steps else 0.0,
        "memory.wall_share": in_memory / wall,
        "serve.step_us": summary.mean_self("serve.step") * us,
        "serve.form_calls": summary.calls("serve.form"),
        "serve.form_us": summary.mean("serve.form") * us,
        "serve.poll_us": summary.mean("serve.poll") * us,
        "durability.checkpoints": checkpoints.size,
        "durability.checkpoint_ms_p50": percentile(checkpoints, 50) * ms,
        "durability.checkpoint_ms_p99": percentile(checkpoints, 99) * ms,
        "durability.checkpoint_growth": growth(checkpoints),
        "durability.journal_records": summary.calls("durability.journal_append"),
        "durability.journal_append_us": summary.mean("durability.journal_append") * us,
        "durability.snapshot_load_ms": summary.inclusive("durability.snapshot_load") * ms,
        "durability.journal_recover_ms": summary.inclusive("durability.journal_recover") * ms,
        "obs.events": summary.calls("obs.event"),
        "obs.event_us": summary.mean("obs.event") * us,
        "obs.sink_us": summary.mean("obs.sink") * us,
        "obs.expose_ms": summary.mean("obs.expose") * ms,
        "host.tick_us": summary.mean_self("host.tick", _TICK_CHILDREN) * us,
        "fleet.step_self_us": summary.mean_self("fleet.step", ("serve.step",)) * us,
        "fleet.routes": summary.calls("fleet.route"),
        "fleet.route_us": summary.mean("fleet.route") * us,
        "fleet.checkpoint_ms_p50": percentile(fleet_checkpoints, 50) * ms,
        "fleet.checkpoint_ms_p99": percentile(fleet_checkpoints, 99) * ms,
        "fleet.rejoin_ms": summary.mean("fleet.rejoin") * ms,
        "bench.span_coverage": covered / wall,
        "bench.trace_overhead": traced.timed_s / untraced.timed_s,
    }
    for name in SIMULATED_LAYER:
        values[name] = traced.extra.get(name, 0)
    return {name: values[name] for name, *_ in PER_LAYER}


def result(correct: bool, attempted: int, failed: int, values: dict) -> dict:
    """The benchmark's final JSON object."""
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": UNITS[name]} for name, value in values.items()
        },
    }

"""Tests of the benchmark itself, on tiny configurations.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import metrics  # noqa: E402
import workloads  # noqa: E402
from tracer import SpanSummary, Tracer, self_times  # noqa: E402

TINY_TRACE = dict(
    workloads.TRACE_REPLAY,
    levels=8,
    modules=7,
    heap_ops=40,
    range_queries=3,
    range_selectivity=0.1,
    sweep_window=8,
    sampled=20,
    mix="subtree:7=1,path:6=1,level:8=1,composite:12x2=1",
    restarts=1,
)
TINY_SOAK = dict(
    workloads.SERVE_SOAK,
    cycles=500,
    faults="fail=3@100:200,slow=5:3@250:320",
    events_capacity=64,
    burst=[["subtree", 15, 2], ["path", 10, 2]],
    scrape_every=2,
)
TINY_FLEET = dict(workloads.FLEET_HEAL, cycles=400, kill_shard_at=["1@100", "2@200"],
                  restart_after=50)


# -- self time and span bookkeeping ------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    #      A [0, 10]
    #      |- B [1, 4]
    #      `- C [5, 9]
    #         `- D [6, 7]
    start = [0.0, 1.0, 5.0, 6.0]
    end = [10.0, 4.0, 9.0, 7.0]
    parent = [-1, 0, 0, 2]
    assert self_times(start, end, parent).tolist() == [3.0, 3.0, 3.0, 1.0]


def test_summary_counts_nested_same_name_spans_once():
    names = ["x", "y"]
    # x [0, 10] holds x [2, 5] holds y [3, 4]; then y [12, 14] on top
    summary = SpanSummary(
        names,
        name_id=[0, 0, 1, 1],
        start=[0.0, 2.0, 3.0, 12.0],
        end=[10.0, 5.0, 4.0, 14.0],
        parent=[-1, 0, 1, -1],
    )
    assert summary.inclusive("x") == 10.0
    assert summary.inclusive("y") == 3.0
    assert summary.calls("x") == 2
    assert summary.mean_self("x") == pytest.approx((7.0 + 2.0) / 2)
    # subtracting only the named children leaves y inside the inner x
    assert summary.mean_self("x", ("x",)) == pytest.approx((7.0 + 3.0) / 2)
    assert summary.coverage(0.0, 20.0) == pytest.approx(12.0 / 20.0)
    assert summary.layer_share("y", 0.0, 20.0) == pytest.approx(3.0 / 20.0)
    assert summary.mean("missing") == 0.0 and summary.calls("missing") == 0


def test_tracer_records_nesting_and_unpatches():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 41

    original = Layer.__dict__["outer"]
    tracer = Tracer()
    tracer.patch(Layer, "outer", "layer.outer")
    tracer.patch(Layer, "inner", "layer.inner")
    assert Layer().outer() == 42
    tracer.unpatch()
    assert Layer.__dict__["outer"] is original
    summary = tracer.summary()
    assert [summary.names[i] for i in summary.name_id] == ["layer.outer", "layer.inner"]
    assert summary.parent.tolist() == [-1, 0]
    assert (summary.self_time >= 0).all()
    assert summary.duration[0] >= summary.duration[1]


# -- metric extraction ---------------------------------------------------------------


def _rep(items, timed, pauses, failed=1, violations=(), recover=0.5, windows=((0.0, 1.0),)):
    return workloads.Rep(
        items=items,
        timed_s=timed,
        windows=list(windows),
        pauses=list(pauses),
        sim_cycles=1000,
        sojourn_p50=4.0,
        sojourn_p99=20.0,
        attempted=10,
        failed=failed,
        violations=list(violations),
        recover_s=recover,
        state_bytes=2_500_000,
    )


def test_end_to_end_takes_medians_and_pools_pauses():
    reps = [
        _rep(100, 1.0, [0.001] * 50, recover=0.4),
        _rep(300, 1.0, [0.003] * 50, recover=0.6),
        _rep(200, 1.0, [0.002] * 50, recover=0.5),
    ]
    values = metrics.end_to_end(0.7, reps, 120.0)
    assert list(values) == [name for name, *_ in metrics.END_TO_END]
    assert values["items_per_s"] == 200.0
    assert values["recover_s"] == 0.5
    assert values["pause_p50_ms"] == pytest.approx(2.0)
    assert values["pause_p99_ms"] == pytest.approx(3.0)
    assert values["failed_frac"] == 0.1
    assert values["state_mb"] == 2.5
    assert values["sim_cycles"] == 1000 and values["setup_s"] == 0.7


def test_a_broken_check_counts_as_a_failed_operation():
    values = metrics.end_to_end(0.7, [_rep(1, 1.0, [0.1], violations=["x"])], 1.0)
    assert values["failed_frac"] == 0.2


def test_simulated_mismatches_flag_a_nondeterministic_repetition():
    a, b = _rep(1, 1.0, [0.1]), _rep(1, 1.0, [0.1])
    assert metrics.simulated_mismatches([a, b]) == []
    b.sim_cycles += 1
    assert metrics.simulated_mismatches([a, b]) == [
        "repetition 1: sim_cycles differs from repetition 0"
    ]


def test_growth_is_last_tenth_over_first_tenth():
    assert metrics.growth([2.0] * 30) == 1.0
    assert metrics.growth(list(range(1, 21))) == pytest.approx(19.5 / 1.5)
    assert metrics.growth([]) == 0.0


def test_per_layer_reports_every_metric_from_spans():
    names = ["durability.checkpoint", "serve.step", "obs.event"]
    summary = SpanSummary(
        names,
        name_id=[1, 2, 0, 1, 0],
        start=[0.0, 0.5, 2.0, 4.0, 6.0],
        end=[1.0, 0.6, 3.0, 5.0, 9.0],
        parent=[-1, 0, -1, -1, -1],
    )
    traced = _rep(10, 2.0, [0.1], windows=[(0.0, 10.0)])
    traced.extra = {"serve.retries": 3}
    untraced = _rep(10, 1.6, [0.1])
    values = metrics.per_layer(summary, {"memory.module_steps": 8, "memory.step_hits": 2},
                               traced, untraced, 0.4)
    assert list(values) == [name for name, *_ in metrics.PER_LAYER]
    assert values["cli.import_s"] == 0.4
    assert values["durability.checkpoints"] == 2
    assert values["durability.checkpoint_growth"] == 3.0
    assert values["serve.step_us"] == pytest.approx(0.95e6)
    assert values["obs.events"] == 1
    assert values["memory.step_hit_ratio"] == 0.25
    assert values["serve.retries"] == 3 and values["fleet.restarts"] == 0
    assert values["bench.span_coverage"] == pytest.approx(6.0 / 10.0)
    assert values["bench.trace_overhead"] == pytest.approx(1.25)


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == [
        tuple(entry) for entry in metrics.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        tuple(entry[:3]) for entry in metrics.PER_LAYER
    ]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert max(m["bound"] for m in bench["end_to_end"]) == next(
        m["bound"] for m in bench["end_to_end"] if m["name"] == "setup_s"
    )


# -- the workloads' checks -------------------------------------------------------------


@pytest.fixture
def few_recoveries(monkeypatch):
    monkeypatch.setattr(workloads, "RECOVERIES", 2)


def test_trace_replay_checks_pass_and_repeat(tmp_path):
    reps = [
        workloads.measure_trace_replay(workloads.build_trace_replay(5, tmp_path, TINY_TRACE))
        for _ in range(2)
    ]
    assert reps[0].violations == []
    assert metrics.simulated_mismatches(reps) == []
    assert workloads.trace_cache(tmp_path, 5).exists()


def test_trace_replay_check_catches_a_wrong_barrier_cost(tmp_path, monkeypatch):
    from repro.memory import ParallelMemorySystem
    from repro.memory.stats import AccessResult

    access = ParallelMemorySystem.access

    def off_by_one(self, nodes, label=""):
        r = access(self, nodes, label)
        return AccessResult(r.cycles + 1, r.conflicts, r.module_counts, r.size, r.label)

    monkeypatch.setattr(ParallelMemorySystem, "access", off_by_one)
    rep = workloads.measure_trace_replay(
        workloads.build_trace_replay(5, tmp_path, TINY_TRACE)
    )
    assert any("closed form" in v for v in rep.violations)


def test_expected_costs_match_the_closed_form():
    from repro.core import ColorMapping
    from repro.memory import AccessTrace
    from repro.trees import CompleteBinaryTree

    tree = CompleteBinaryTree(6)
    mapping = ColorMapping.for_modules(tree, 7)
    nodes = np.array([0, 1, 2, 3, 4], dtype=np.int64)
    trace = AccessTrace([("a", nodes), ("b", np.arange(7, 14))])
    conflicts, cycles = workloads.expected_costs(trace, mapping, ports=2, latency=3)
    for i, (_, n) in enumerate(trace):
        top = np.bincount(mapping.colors_of(n), minlength=7).max()
        assert conflicts[i] == top - 1
        assert cycles[i] == -(-top // 2) * 3


def test_serve_soak_recovery_equals_an_uninterrupted_run(tmp_path, few_recoveries):
    from repro.serve.durability import diff_reports

    ctx = workloads.build_serve_soak(3, tmp_path, TINY_SOAK)
    rep = workloads.measure_serve_soak(ctx)
    assert rep.violations == []
    assert rep.extra["durability.replayed_records"] == 0
    assert len(rep.pauses) == TINY_SOAK["cycles"] // workloads.SOAK_PUMP

    # the same run, shut down and recovered, reports what an uninterrupted
    # run of the same config reports
    config = workloads.soak_config(3, TINY_SOAK)
    ctx = workloads.build_serve_soak(3, tmp_path, TINY_SOAK)
    workloads.soak_daemon_phase(ctx)
    recovered, _, _ = workloads.soak_recover(config, ctx["state_dir"])
    engine, clients, _, _ = workloads._soak_engine(config)
    uninterrupted = engine.run(clients, max_cycles=config["cycles"])
    assert diff_reports(recovered, uninterrupted) == []
    assert recovered.cycles >= config["cycles"]


def test_fleet_heal_ledger_holds_through_kills_and_a_crash(tmp_path, few_recoveries):
    rep = workloads.measure_fleet_heal(workloads.build_fleet_heal(2, tmp_path, TINY_FLEET))
    assert rep.violations == []
    assert rep.extra["fleet.restarts"] == 2
    assert rep.pauses and rep.recover_s > 0

"""End-to-end tests for the serving engine (and its CLI surface)."""

import pytest

from repro import spec
from repro.bench.workloads import heap_workload
from repro.cli import main
from repro.core import ColorMapping, LabelTreeMapping
from repro.memory import ParallelMemorySystem, SharedBus
from repro.obs import EventRecorder
from repro.obs.report import render_report
from repro.serve import (
    BurstyClient,
    ClosedLoopClient,
    MixEntry,
    PoissonClient,
    ServeEngine,
    TemplateMix,
    TraceClient,
    batch_conflict_bound,
)
from repro.trees import CompleteBinaryTree


@pytest.fixture(scope="module")
def tree():
    return CompleteBinaryTree(11)


@pytest.fixture(scope="module")
def mapping(tree):
    return ColorMapping.max_parallelism(tree, 4)  # M=15, N=11, k=3


@pytest.fixture(scope="module")
def mix(tree):
    return TemplateMix(
        tree,
        [MixEntry("subtree", 15), MixEntry("path", 11), MixEntry("level", 7)],
    )


def _run(mapping, mix, policy, rate=0.3, cycles=600, seed=0, **engine_kw):
    system = ParallelMemorySystem(mapping)
    engine = ServeEngine(system, policy=policy, **engine_kw)
    clients = [PoissonClient(i, mix, rate / 4, seed=seed + i) for i in range(4)]
    return engine.run(clients, max_cycles=cycles), engine, system


class TestEngineBasics:
    def test_everything_admitted_completes(self, mapping, mix):
        report, engine, system = _run(mapping, mix, "greedy-pack")
        assert report.arrivals > 0
        assert report.completed == report.admitted == report.arrivals
        assert report.shed == 0
        served = sum(mod.served for mod in system.modules)
        assert served == report.completed_items
        assert engine.queue.drained

    def test_sojourns_cover_queueing(self, mapping, mix):
        report, _, _ = _run(mapping, mix, "fifo")
        assert report.latency is not None
        assert report.latency["p50"] >= 1
        assert report.wait is not None

    def test_fifo_rounds_equal_conflicts_plus_one(self, mapping, mix):
        """On a unit-latency crossbar a batch with f conflicts takes f+1 rounds."""
        _, engine, _ = _run(mapping, mix, "fifo")
        tracker = engine.tracker
        assert len(tracker.batch_rounds) == len(tracker.batch_conflicts)
        for rounds, conflicts in zip(tracker.batch_rounds, tracker.batch_conflicts):
            assert rounds == conflicts + 1

    def test_deterministic_given_seeds(self, mapping, mix):
        first, _, _ = _run(mapping, mix, "load-aware", seed=5)
        second, _, _ = _run(mapping, mix, "load-aware", seed=5)
        assert first == second

    def test_no_drain_stops_at_max_cycles(self, mapping, mix):
        system = ParallelMemorySystem(mapping)
        engine = ServeEngine(system, policy="fifo")
        clients = [PoissonClient(0, mix, 0.4, seed=1)]
        report = engine.run(clients, max_cycles=200, drain=False)
        assert report.cycles == 200

    def test_each_run_starts_clean(self):
        """An undrained run hands nothing on: the next run serves and counts
        only its own arrivals and, once drained, holds no request."""
        engine, clients, _ = spec.serve(dict(cycles=200, arrival_rate=2.0, seed=3))
        engine.run(clients, max_cycles=200, drain=False)
        assert engine.held()  # the undrained run left work behind
        _, clients, _ = spec.serve(dict(cycles=200, arrival_rate=2.0, seed=4))
        report = engine.run(clients, max_cycles=200)
        assert report.completed <= report.arrivals
        assert report.completed + report.shed == report.arrivals
        assert engine.held() == []
        assert engine.checkpoint().state["inflight"] == []

    def test_rejects_duplicate_client_ids(self, mapping, mix):
        system = ParallelMemorySystem(mapping)
        engine = ServeEngine(system)
        clients = [PoissonClient(0, mix, 0.1), PoissonClient(0, mix, 0.1)]
        with pytest.raises(ValueError):
            engine.run(clients, max_cycles=10)

    def test_run_reports_only_itself(self, mapping, mix):
        system = ParallelMemorySystem(mapping)
        engine = ServeEngine(system, policy="fifo")
        first = engine.run([PoissonClient(0, mix, 0.2, seed=0)], max_cycles=100)
        second = engine.run([PoissonClient(0, mix, 0.2, seed=1)], max_cycles=100)
        assert first.arrivals > 0 and second.arrivals > 0
        # the second report counts only its own run's traffic
        assert second.arrivals == engine.tracker.arrivals
        assert second.completed == second.arrivals


class TestBatchingHeadline:
    def test_greedy_pack_beats_fifo_rounds_per_request(self, mapping, mix):
        """The acceptance headline: equal offered load, strictly fewer
        rounds per request under conflict-aware packing."""
        fifo, _, _ = _run(mapping, mix, "fifo", rate=0.4, cycles=1500)
        greedy, _, _ = _run(mapping, mix, "greedy-pack", rate=0.4, cycles=1500)
        assert fifo.arrivals == greedy.arrivals  # same seeded arrival stream
        assert greedy.mean_rounds_per_request < fifo.mean_rounds_per_request

    def test_batch_conflicts_within_paper_bound(self, mapping, mix):
        """Measured conflicts of every dispatched batch obey c - 1 + k."""
        for policy in ("greedy-pack", "load-aware"):
            _, engine, _ = _run(mapping, mix, policy, rate=0.5, cycles=1000)
            tracker = engine.tracker
            assert tracker.batch_conflicts, "no batches dispatched"
            for conflicts, c in zip(
                tracker.batch_conflicts, tracker.batch_components
            ):
                assert conflicts <= batch_conflict_bound(c, mapping.k)


class TestBackpressure:
    def test_shed_under_burst_overload(self, tree, mapping, mix):
        system = ParallelMemorySystem(mapping)
        engine = ServeEngine(
            system, policy="greedy-pack", queue_capacity=64, admission="shed"
        )
        clients = [BurstyClient(i, mix, 0.5, seed=i) for i in range(4)]
        report = engine.run(clients, max_cycles=600)
        assert report.shed > 0
        assert report.completed + report.shed == report.arrivals
        assert report.shed_rate == report.shed / report.arrivals

    def test_degrade_shrinks_requests(self, tree, mapping):
        mix = TemplateMix(tree, [MixEntry("subtree", 31)])
        system = ParallelMemorySystem(mapping)
        engine = ServeEngine(
            system, policy="fifo", queue_capacity=48, admission="degrade"
        )
        clients = [PoissonClient(0, mix, 0.5, seed=2)]
        report = engine.run(clients, max_cycles=400)
        assert report.degraded > 0
        assert report.completed + report.shed == report.arrivals

    def test_block_admits_everything_eventually(self, tree, mapping, mix):
        system = ParallelMemorySystem(mapping)
        engine = ServeEngine(
            system, policy="fifo", queue_capacity=32, admission="block"
        )
        clients = [PoissonClient(0, mix, 0.6, seed=3)]
        report = engine.run(clients, max_cycles=300)
        assert report.shed == 0
        assert report.completed == report.arrivals

    def test_deadline_misses_counted(self, tree, mapping, mix):
        system = ParallelMemorySystem(mapping, interconnect=SharedBus())
        engine = ServeEngine(system, policy="fifo", deadline=2)
        clients = [PoissonClient(0, mix, 0.6, seed=4)]
        report = engine.run(clients, max_cycles=300)
        assert report.deadline_misses > 0
        assert 0 < report.deadline_miss_rate <= 1


class TestClientIntegration:
    def test_closed_loop_equilibrium(self, mapping, mix):
        system = ParallelMemorySystem(mapping)
        engine = ServeEngine(system, policy="greedy-pack")
        clients = [
            ClosedLoopClient(i, mix, concurrency=2, think_time=1, seed=i)
            for i in range(3)
        ]
        report = engine.run(clients, max_cycles=400)
        assert report.completed == report.arrivals
        assert report.completed > 100  # the loop actually cycles

    def test_trace_client_serves_recorded_workload(self, tree, mapping):
        trace = heap_workload(tree, ops=60)
        system = ParallelMemorySystem(mapping)
        engine = ServeEngine(system, policy="greedy-pack")
        report = engine.run([TraceClient(0, trace, interval=2)], max_cycles=400)
        assert report.completed == len(trace)

    def test_labeltree_mapping_disables_budget(self, tree, mix):
        """Non-COLOR mappings have no k; packing falls back to disjointness."""
        system = ParallelMemorySystem(LabelTreeMapping(tree, 15))
        engine = ServeEngine(system, policy="greedy-pack")
        assert engine.policy.bound_k is None
        report = engine.run([PoissonClient(0, mix, 0.3, seed=0)], max_cycles=300)
        assert report.completed == report.arrivals


class TestObsIntegration:
    def test_serve_events_recorded(self, mapping, mix, tmp_path):
        recorder = EventRecorder()
        system = ParallelMemorySystem(mapping, recorder=recorder)
        engine = ServeEngine(system, policy="greedy-pack")
        clients = [PoissonClient(0, mix, 0.3, seed=0)]
        report = engine.run(clients, max_cycles=300)
        kinds = {e["ev"] for e in recorder.events}
        assert {
            "serve_arrival",
            "serve_complete",
            "access",
            "batch_retire",
            "issue",
            "complete",
        } <= kinds
        arrivals = [e for e in recorder.events if e["ev"] == "serve_arrival"]
        assert len(arrivals) == report.arrivals
        completes = [e for e in recorder.events if e["ev"] == "serve_complete"]
        assert len(completes) == report.completed
        sojourns = sorted(e["sojourn"] for e in completes)
        assert sojourns == sorted(engine.tracker.sojourns)
        assert recorder.meta["serve_policy"] == "greedy-pack"

    def test_artifact_report_renders(self, mapping, mix, tmp_path):
        recorder = EventRecorder()
        system = ParallelMemorySystem(mapping, recorder=recorder)
        engine = ServeEngine(system, policy="load-aware")
        engine.run([PoissonClient(0, mix, 0.3, seed=0)], max_cycles=300)
        path = recorder.save(tmp_path / "serve.jsonl")
        text = render_report(path)
        assert "module utilization" in text
        assert "batch:load-aware" in text


class TestServeCli:
    def test_end_to_end_with_obs(self, tmp_path, capsys):
        obs = tmp_path / "serve.jsonl"
        code = main(
            [
                "serve",
                "--levels", "11",
                "--modules", "15",
                "--policy", "greedy-pack",
                "--arrival-rate", "0.3",
                "--cycles", "300",
                "--obs", str(obs),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "serve[greedy-pack]" in out
        assert obs.exists()
        assert main(["obs", "report", str(obs)]) == 0
        assert "batch:greedy-pack" in capsys.readouterr().out

    def test_policies_and_traffic_shapes(self, capsys):
        for policy in ("fifo", "load-aware"):
            assert main(
                ["serve", "--policy", policy, "--cycles", "150",
                 "--arrival-rate", "0.2"]
            ) == 0
        assert main(
            ["serve", "--traffic", "bursty", "--cycles", "150",
             "--admission", "shed", "--queue-capacity", "64"]
        ) == 0
        assert main(
            ["serve", "--traffic", "closed-loop", "--clients", "2",
             "--cycles", "150", "--think-time", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert out.count("serve[") == 4

    def test_saved_mapping_and_custom_mix(self, tmp_path, capsys):
        mapping_path = tmp_path / "m.npz"
        assert main(
            ["build", "--levels", "10", "--color", "5,2",
             "--out", str(mapping_path)]
        ) == 0
        code = main(
            ["serve", "--mapping", str(mapping_path), "--cycles", "150",
             "--workload", "subtree:3=1,path:5=1,composite:12x3=0.5"]
        )
        assert code == 0
        assert "serve[greedy-pack]" in capsys.readouterr().out

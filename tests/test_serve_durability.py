"""Crash-consistent serving: snapshots, the write-ahead journal, and
deterministic recovery (plus the satellite state-capture contracts)."""

import gc
import json
import weakref

import numpy as np
import pytest

from repro.core import ColorMapping
from repro.io import load_faults, save_faults, save_snapshot
from repro.memory import FaultSchedule, ParallelMemorySystem
from repro.obs import EventRecorder
from repro.serve import (
    CrashPlan,
    DurabilityError,
    DurableServer,
    EngineSnapshot,
    JournalError,
    PoissonClient,
    ServeEngine,
    ServeJournal,
    SimulatedCrash,
    TemplateMix,
    assert_equivalent,
    diff_reports,
    filter_control,
    journal_accounting,
    run_with_recovery,
)
from repro.serve.durability import read_manifest, write_manifest
from repro.serve.slo import SLOTracker
from repro.trees import CompleteBinaryTree

FAULT_SPEC = "fail=2@100:220,slow=4:3@150:400,drop=0.05@50:500,seed=5"


def make_factory(
    *,
    levels=9,
    modules=7,
    faults=FAULT_SPEC,
    recorder=True,
    rate=0.08,
    clients=3,
    retry_timeout=40,
    repair="color",
    **engine_kwargs,
):
    """A process-restart stand-in: each call builds the same fresh setup."""

    def factory():
        tree = CompleteBinaryTree(levels)
        mapping = ColorMapping.for_modules(tree, modules)
        rec = EventRecorder() if recorder else None
        system = ParallelMemorySystem(mapping, recorder=rec)
        if faults is not None:
            system.attach_faults(FaultSchedule.parse(faults))
        engine = ServeEngine(
            system,
            "greedy-pack",
            retry_timeout=retry_timeout,
            repair=repair,
            queue_capacity=128,
            **engine_kwargs,
        )
        mix = TemplateMix.parse(tree, "subtree:7=2,path:6=1,level:4=1")
        cs = [PoissonClient(i, mix, rate, seed=100 + i) for i in range(clients)]
        return engine, cs

    return factory


def uninterrupted(factory, state_dir, max_cycles=400, checkpoint_every=100):
    engine, clients = factory()
    server = DurableServer(
        engine, clients, state_dir, checkpoint_every=checkpoint_every
    )
    report = server.serve(max_cycles)
    return report, list(engine.system.recorder.events), server


class TestSnapshotRoundTrip:
    def test_mid_run_snapshot_resumes_bit_exactly(self, tmp_path):
        factory = make_factory()
        base_report, base_events, _ = uninterrupted(factory, tmp_path / "base")

        engine, clients = factory()
        engine.start(clients, 400)
        for _ in range(180):  # mid-run, faults active, batches in flight
            assert engine.step()
        snapshot = engine.checkpoint()
        # survive the actual persistence path, not just object identity
        save_snapshot(snapshot.to_json(), tmp_path / "snap.json")
        from repro.io import load_snapshot

        restored = EngineSnapshot.from_json(load_snapshot(tmp_path / "snap.json"))

        engine2, clients2 = factory()
        engine2.restore(restored, clients2)
        while engine2.step():
            pass
        report = engine2.finish()
        assert_equivalent(
            (base_report, base_events),
            (report, list(engine2.system.recorder.events)),
        )

    def test_snapshot_json_is_pure_json(self, tmp_path):
        engine, clients = make_factory()()
        engine.start(clients, 400)
        for _ in range(120):
            engine.step()
        payload = engine.checkpoint().to_json()
        assert json.loads(json.dumps(payload)) == json.loads(json.dumps(payload))

    def test_restore_rejects_mismatched_configuration(self):
        factory = make_factory()
        engine, clients = factory()
        engine.start(clients, 400)
        for _ in range(50):
            engine.step()
        snapshot = engine.checkpoint()
        other, other_clients = make_factory(repair="oblivious")()
        with pytest.raises(DurabilityError, match="configuration"):
            other.restore(snapshot, other_clients)

    def test_restore_applies_the_snapshot_knobs(self):
        factory = make_factory()
        engine, clients = factory()
        engine.start(clients, 400)
        for _ in range(50):
            engine.step()
        assert engine.set_knobs(policy="fifo", deadline=30) == {
            "policy": "fifo",
            "deadline": 30,
        }
        snapshot = engine.checkpoint()
        engine2, clients2 = factory()  # built greedy-pack, no deadline
        engine2.restore(snapshot, clients2)
        assert (engine2.policy.name, engine2.deadline) == ("fifo", 30)
        # a snapshot written before the knobs were captured keeps the
        # engine's own deadline and retry timeout
        config = snapshot.state["config"]
        del config["deadline"], config["retry_timeout"]
        engine3, clients3 = make_factory(deadline=50, retry_timeout=12)()
        engine3.restore(snapshot, clients3)
        assert (engine3.deadline, engine3.retry_timeout) == (50, 12)

    def test_bad_knobs_change_nothing(self):
        engine, _ = make_factory()()
        for knobs in ({"retry_timeout": 0}, {"policy": "nope"}, {"window": 3}):
            with pytest.raises(ValueError):
                engine.set_knobs(deadline=30, **knobs)
        assert (engine.policy.name, engine.deadline) == ("greedy-pack", None)

    def test_restore_rejects_mismatched_clients(self):
        factory = make_factory()
        engine, clients = factory()
        engine.start(clients, 400)
        for _ in range(50):
            engine.step()
        snapshot = engine.checkpoint()
        engine2, _ = factory()
        _, wrong = make_factory(clients=2)()
        with pytest.raises(DurabilityError, match="client ids"):
            engine2.restore(snapshot, wrong)

    def test_restore_preserves_absolute_clocks(self):
        """Restoring must keep the lifetime clock and per-module port
        clocks — unlike reset() — so post-recovery fault windows fire at
        the same absolute cycles as in the uninterrupted run."""
        factory = make_factory()
        engine, clients = factory()
        engine.start(clients, 400)
        for _ in range(180):
            engine.step()
        snapshot = engine.checkpoint()
        clock = engine.system.clock
        ports = [list(mod._port_free) for mod in engine.system.modules]
        cursor = engine.system._fault_schedule.cursor
        # the run actually advanced: fault edges applied, ports scheduled
        assert cursor > 0
        assert any(p > 0 for port in ports for p in port)

        engine2, clients2 = factory()
        engine2.system.reset()
        assert engine2.system._fault_schedule.cursor == 0  # reset() rewinds
        assert all(
            p == 0 for m in engine2.system.modules for p in m._port_free
        )
        engine2.restore(snapshot, clients2)
        assert engine2.system.clock == clock
        assert [list(m._port_free) for m in engine2.system.modules] == ports
        assert engine2.system._fault_schedule.cursor == cursor
        assert engine2._cycle == snapshot.cycle


class TestJournal:
    def test_create_record_recover(self, tmp_path):
        path = tmp_path / "j.jsonl"
        j = ServeJournal.create(path)
        j.record("admit", 3, request=0, client=1, size=7)
        j.record("dispatch", 4, batch=0, requests=[0], size=7, conflicts=0)
        j.close()
        j2 = ServeJournal.recover(path)
        assert [r["kind"] for r in j2.records] == ["admit", "dispatch"]
        assert j2.position == 2
        j2.close()

    def test_torn_tail_is_truncated(self, tmp_path):
        path = tmp_path / "j.jsonl"
        j = ServeJournal.create(path)
        for i in range(5):
            j.record("admit", i, request=i)
        j.close()
        with path.open("a") as fh:
            fh.write('{"crc": 123, "rec": {"seq": ')  # no newline: torn
        j2 = ServeJournal.recover(path)
        assert len(j2.records) == 5
        j2.close()
        # the torn bytes are gone from disk too
        j3 = ServeJournal.recover(path)
        assert len(j3.records) == 5
        j3.close()

    def test_bad_crc_truncates_from_there(self, tmp_path):
        path = tmp_path / "j.jsonl"
        j = ServeJournal.create(path)
        for i in range(4):
            j.record("admit", i, request=i)
        j.close()
        lines = path.read_text().splitlines()
        doc = json.loads(lines[3])  # seqno 2
        doc["crc"] ^= 1
        lines[3] = json.dumps(doc)
        path.write_text("\n".join(lines) + "\n")
        j2 = ServeJournal.recover(path)
        assert [r["seq"] for r in j2.records] == [0, 1]
        j2.close()

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('{"not": "a journal"}\n')
        with pytest.raises(DurabilityError, match="not a serve journal"):
            ServeJournal.recover(path)

    def test_replay_verifies_and_flags_divergence(self, tmp_path):
        path = tmp_path / "j.jsonl"
        j = ServeJournal.create(path)
        j.record("admit", 0, request=0)
        j.record("admit", 1, request=1)
        j.close()
        j2 = ServeJournal.recover(path)
        j2.seek_replay(0)
        assert j2.replaying
        j2.record("admit", 0, request=0)  # matches: ok
        with pytest.raises(JournalError, match="diverged at seqno 1"):
            j2.record("admit", 1, request=99)
        j2.close()

    def test_seek_replay_rejects_future_seqno(self, tmp_path):
        j = ServeJournal.create(tmp_path / "j.jsonl")
        with pytest.raises(JournalError, match="disagree"):
            j.seek_replay(3)
        j.close()


class TestCrashRecovery:
    @pytest.mark.parametrize("mode", ["instant", "mid_checkpoint", "torn_journal"])
    def test_recovery_is_equivalent(self, tmp_path, mode):
        factory = make_factory()
        base_report, base_events, _ = uninterrupted(factory, tmp_path / "base")
        for at in (1, 77, 100, 253):  # incl. mid-batch and a checkpoint cycle
            result = run_with_recovery(
                factory,
                tmp_path / f"{mode}-{at}",
                400,
                checkpoint_every=100,
                crash_plan=CrashPlan(at_cycle=at, mode=mode),
            )
            assert result.crashed
            assert_equivalent(
                (base_report, base_events),
                (result.report, list(result.server.engine.system.recorder.events)),
            )

    def test_exactly_once_accounting(self, tmp_path):
        factory = make_factory()
        result = run_with_recovery(
            factory,
            tmp_path / "run",
            400,
            checkpoint_every=100,
            crash_plan=CrashPlan(at_cycle=253),
        )
        journal = ServeJournal.recover(tmp_path / "run" / "journal.jsonl")
        acct = journal_accounting(journal.records)
        journal.close()
        assert acct["double_retired"] == []
        assert acct["lost"] == set()
        assert len(acct["admitted"]) == result.report.admitted
        # retire + timeout-shed partitions the admitted set on a drained run
        assert len(acct["retired"]) == result.report.completed

    def test_cold_start_recovery_replays_from_zero(self, tmp_path):
        """A crash before the first checkpoint leaves only the journal;
        recovery re-executes from cycle 0 under full verification."""
        factory = make_factory()
        base_report, base_events, _ = uninterrupted(factory, tmp_path / "base")
        result = run_with_recovery(
            factory,
            tmp_path / "cold",
            400,
            checkpoint_every=1000,  # never reached before the crash
            crash_plan=CrashPlan(at_cycle=90),
        )
        assert result.crashed
        assert not list((tmp_path / "cold").glob("snap-*.json.tmp"))
        assert_equivalent(
            (base_report, base_events),
            (result.report, list(result.server.engine.system.recorder.events)),
        )

    def test_no_crash_runs_straight_through(self, tmp_path):
        factory = make_factory()
        result = run_with_recovery(
            factory, tmp_path / "run", 400, checkpoint_every=100
        )
        assert not result.crashed
        assert result.server.checkpoints_written > 0

    def test_tampered_journal_fails_replay(self, tmp_path):
        factory = make_factory()
        engine, clients = factory()
        server = DurableServer(
            engine,
            clients,
            tmp_path / "run",
            checkpoint_every=100,
            crash_plan=CrashPlan(at_cycle=253),
        )
        with pytest.raises(SimulatedCrash):
            server.serve(400)
        # tamper with a record past the last snapshot (cycle 200)
        path = tmp_path / "run" / "journal.jsonl"
        lines = path.read_text().splitlines()
        doc = json.loads(lines[-1])
        doc["rec"]["request"] = 424242
        doc["crc"] = None  # recompute below so the CRC passes
        import zlib

        doc["crc"] = zlib.crc32(
            json.dumps(doc["rec"], sort_keys=True, separators=(",", ":")).encode()
        )
        lines[-1] = json.dumps(doc)
        path.write_text("\n".join(lines) + "\n")
        engine2, clients2 = factory()
        server2 = DurableServer(
            engine2, clients2, tmp_path / "run", checkpoint_every=100
        )
        with pytest.raises(JournalError, match="diverged"):
            server2.recover()

    def test_recover_without_manifest_rejected(self, tmp_path):
        engine, clients = make_factory()()
        server = DurableServer(engine, clients, tmp_path / "empty")
        with pytest.raises(DurabilityError, match="manifest"):
            server.recover()

    def test_run_manifest_bytes_are_stable(self, tmp_path):
        """State dirs written by earlier releases must keep recovering."""
        write_manifest(tmp_path, 400, True, 50_000, shards=3)
        assert (tmp_path / "run.json").read_text() == (
            '{"max_cycles": 400, "drain": true, "drain_limit": 50000, "shards": 3}\n'
        )
        assert read_manifest(tmp_path) == {
            "max_cycles": 400,
            "drain": True,
            "drain_limit": 50_000,
            "shards": 3,
        }

    def test_control_events_are_emitted_and_filtered(self, tmp_path):
        factory = make_factory()
        result = run_with_recovery(
            factory,
            tmp_path / "run",
            400,
            checkpoint_every=100,
            crash_plan=CrashPlan(at_cycle=253),
        )
        events = list(result.server.engine.system.recorder.events)
        kinds = {ev["ev"] for ev in events}
        assert {"restore", "journal_replay"} <= kinds
        filtered = {ev["ev"] for ev in filter_control(events)}
        assert not filtered & {"checkpoint", "restore", "journal_replay"}

    def test_snapshots_are_pruned_to_retain(self, tmp_path):
        factory = make_factory()
        _, _, server = uninterrupted(
            factory, tmp_path / "run", max_cycles=400, checkpoint_every=50
        )
        snaps = sorted((tmp_path / "run").glob("snap-*.json"))
        assert len(snaps) == server.retain
        assert server.checkpoints_written > server.retain

    def test_checkpoint_overhead_is_tracked(self, tmp_path):
        factory = make_factory()
        _, _, server = uninterrupted(factory, tmp_path / "run")
        assert server.checkpoints_written > 0
        assert server.checkpoint_seconds > 0
        assert 0.0 < server.checkpoint_overhead < 1.0


    def test_dropped_server_is_freed_by_refcount(self, tmp_path):
        """No reference cycle pins a finished server, its engine and its
        journal until the next full garbage collection."""
        factory = make_factory()
        uninterrupted(factory, tmp_path, max_cycles=200)
        engine, clients = factory()
        gc.disable()
        try:
            server = DurableServer(engine, clients, tmp_path, checkpoint_every=100)
            server.recover()
            dropped = weakref.ref(server)
            del server
            assert dropped() is None
        finally:
            gc.enable()


class TestCrashPlanValidation:
    def test_bad_plans_rejected(self):
        with pytest.raises(ValueError, match="at_cycle"):
            CrashPlan(at_cycle=-1)
        with pytest.raises(ValueError, match="crash mode"):
            CrashPlan(at_cycle=0, mode="gently")

    def test_bad_server_parameters_rejected(self, tmp_path):
        engine, clients = make_factory()()
        with pytest.raises(ValueError, match="checkpoint_every"):
            DurableServer(engine, clients, tmp_path, checkpoint_every=0)
        with pytest.raises(ValueError, match="retain"):
            DurableServer(engine, clients, tmp_path, retain=0)


class TestDiffAndEquivalence:
    def test_diff_reports_names_fields(self, tmp_path):
        factory = make_factory()
        report, _, _ = uninterrupted(factory, tmp_path / "a")
        import dataclasses

        other = dataclasses.replace(report, completed=report.completed + 1)
        diffs = diff_reports(report, other)
        assert len(diffs) == 1 and diffs[0].startswith("completed:")
        with pytest.raises(DurabilityError, match="completed"):
            assert_equivalent((report, []), (other, []))

    def test_event_length_mismatch_detected(self, tmp_path):
        factory = make_factory()
        report, events, _ = uninterrupted(factory, tmp_path / "a")
        with pytest.raises(DurabilityError, match="length"):
            assert_equivalent((report, events), (report, events[:-1]))


# -- satellite contracts -------------------------------------------------------


class TestRepairCacheLRU:
    def test_cache_is_bounded_with_lru_eviction(self):
        tree = CompleteBinaryTree(8)
        mapping = ColorMapping.for_modules(tree, 7)
        system = ParallelMemorySystem(mapping)
        engine = ServeEngine(system, "fifo", repair="color", repair_cache_cap=2)
        a = engine._repair_mapping(frozenset({1}))
        b = engine._repair_mapping(frozenset({2}))
        # touch {1} so {2} is the least recently used entry
        assert engine._repair_mapping(frozenset({1})) is a
        c = engine._repair_mapping(frozenset({3}))
        assert set(engine._repair_cache) == {frozenset({1}), frozenset({3})}
        # an evicted set rebuilds deterministically (same coloring, new object)
        b2 = engine._repair_mapping(frozenset({2}))
        assert b2 is not b
        assert np.array_equal(b2.color_array(), b.color_array())
        assert len(engine._repair_cache) == 2
        assert engine._repair_mapping(frozenset({3})) is c

    def test_cap_validated(self):
        tree = CompleteBinaryTree(8)
        system = ParallelMemorySystem(ColorMapping.for_modules(tree, 7))
        with pytest.raises(ValueError, match="repair_cache_cap"):
            ServeEngine(system, "fifo", repair_cache_cap=0)


class TestEmptyReportAccessors:
    def test_empty_run_yields_defined_values(self):
        report = SLOTracker().report("fifo", cycles=0)
        assert report.p50 is None
        assert report.p95 is None
        assert report.p99 is None
        assert report.max_latency is None
        assert report.completion_rate == 0.0
        assert report.admit_rate == 0.0
        assert report.throughput == 0.0
        assert report.goodput == 0.0
        assert report.shed_rate == 0.0
        assert report.deadline_miss_rate == 0.0
        assert report.availability == 1.0

    def test_populated_run_matches_latency_dict(self, tmp_path):
        factory = make_factory()
        report, _, _ = uninterrupted(factory, tmp_path / "a")
        assert report.p50 == report.latency["p50"]
        assert report.p95 == report.latency["p95"]
        assert report.max_latency == report.latency["max"]
        assert report.completion_rate == report.completed / report.arrivals
        assert report.throughput == report.completed / report.cycles


class TestFaultScheduleRuntimeRoundTrip:
    def test_save_load_mid_run_equals_straight_through(self, tmp_path):
        """Advancing a schedule, saving it, loading it and advancing the
        rest must equal advancing straight through — cursor and drop
        lottery both resume mid-stream."""
        spec = "fail=1@10:60,slow=2:4@30:90,drop=0.2@0:200,seed=13"

        def run(system, upto, start=0):
            for cycle in range(start, upto):
                system.advance_faults(cycle)
                # spin the drop lottery the way serving traffic would
                system._drop_rng.random()

        tree = CompleteBinaryTree(6)
        mapping = ColorMapping.for_modules(tree, 5)

        straight = ParallelMemorySystem(mapping)
        straight.attach_faults(FaultSchedule.parse(spec))
        run(straight, 120)
        final_draw = straight._drop_rng.random()

        first = ParallelMemorySystem(mapping)
        first.attach_faults(FaultSchedule.parse(spec))
        run(first, 70)
        save_faults(first._fault_schedule, tmp_path / "faults.json")

        loaded = load_faults(tmp_path / "faults.json")
        assert isinstance(loaded, FaultSchedule)
        assert loaded.cursor == first._fault_schedule.cursor
        second = ParallelMemorySystem(mapping)
        second.attach_faults(loaded)
        run(second, 120, start=70)
        assert second._drop_rng.random() == final_draw
        assert second.failed_modules() == straight.failed_modules()
        assert [m.latency for m in second.modules] == [
            m.latency for m in straight.modules
        ]

    def test_loaded_schedule_without_runtime_starts_fresh(self, tmp_path):
        sched = FaultSchedule.parse("fail=1@10:60,seed=3")
        payload = sched.to_json()
        payload.pop("runtime")
        (tmp_path / "plain.json").write_text(json.dumps(payload))
        loaded = load_faults(tmp_path / "plain.json")
        assert loaded.cursor == 0

    def test_restore_runtime_validates_cursor(self):
        sched = FaultSchedule.parse("fail=1@10:60,seed=3")
        state = sched.runtime_state()
        state["cursor"] = 99
        with pytest.raises(ValueError, match="cursor"):
            sched.restore_runtime(state)

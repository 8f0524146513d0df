"""Serving-engine resilience: the retry ladder, repair remapping and the
fault-aware batch policies."""

import numpy as np
import pytest

from repro import spec
from repro.core import ColorMapping
from repro.memory import FaultSchedule, ParallelMemorySystem
from repro.obs import EventRecorder
from repro.serve import (
    DrainError,
    GreedyPackPolicy,
    PoissonClient,
    Request,
    ServeEngine,
    TemplateMix,
    TraceClient,
)
from repro.templates import STemplate


FAULT_SPEC = "fail=3@40:240,fail=9@120:320,fail=5@300:500,drop=0.05@0:800,seed=7"


@pytest.fixture
def mapping(tree12):
    return ColorMapping.max_parallelism(tree12, 4)


@pytest.fixture
def mix(tree12):
    return TemplateMix.parse(tree12, "composite:21x3=2,subtree:15=1,path:11=1")


def _engine(mapping, *, faults=None, recorder=None, **kwargs):
    system = ParallelMemorySystem(mapping, recorder=recorder)
    if faults is not None:
        system.attach_faults(FaultSchedule.parse(faults))
    kwargs.setdefault("policy", "greedy-pack")
    return ServeEngine(system, **kwargs)


def _run(engine, mix, cycles=800, rate=0.35, seed=11):
    clients = [PoissonClient(0, mix, rate=rate, seed=seed)]
    return engine.run(clients, max_cycles=cycles, drain_limit=50_000)


class TestParameterValidation:
    def test_bad_parameters_rejected(self, mapping):
        with pytest.raises(ValueError):
            _engine(mapping, retry_timeout=0)
        with pytest.raises(ValueError):
            _engine(mapping, max_retries=-1)
        with pytest.raises(ValueError):
            _engine(mapping, backoff_base=16, backoff_cap=8)
        with pytest.raises(ValueError):
            _engine(mapping, repair="pray")


class TestRetryLadder:
    def test_fault_free_run_reports_idle_resilience(self, mapping, mix):
        report = _run(_engine(mapping, retry_timeout=16, repair="color"), mix,
                      cycles=400)
        assert report.retries == 0
        assert report.timeouts == 0
        assert report.aborted_batches == 0
        assert report.availability == 1.0
        assert report.recovery is None

    def test_mid_batch_failure_triggers_retry_and_completes(self, mapping, mix):
        rec = EventRecorder()
        engine = _engine(mapping, faults=FAULT_SPEC, recorder=rec,
                         retry_timeout=16, max_retries=2, repair="color")
        report = _run(engine, mix)
        assert report.retries > 0
        assert report.timeouts > 0
        assert report.aborted_batches > 0
        assert report.completed == report.admitted
        assert report.timeout_shed == 0
        assert report.recovery is not None
        assert report.recovery["max"] >= report.latency["p50"]
        kinds = {e["ev"] for e in rec.events}
        assert "request_timeout" in kinds and "request_retry" in kinds
        retry = next(e for e in rec.events if e["ev"] == "request_retry")
        assert retry["retry_at"] > retry["cycle"]

    def test_forever_dead_module_without_repair_degrades_then_sheds(
        self, tree12, mapping
    ):
        """A subtree pinned to a never-recovering module climbs the whole
        ladder: retries exhaust, degradation cannot dodge a dead bank that
        its root maps to, and the request finally sheds."""
        rec = EventRecorder()
        system = ParallelMemorySystem(mapping, recorder=rec)
        system.attach_faults(FaultSchedule.parse("fail=3@0"))
        engine = ServeEngine(
            system, policy="fifo", retry_timeout=8, max_retries=1,
            backoff_base=2, backoff_cap=4, repair="none",
        )
        # a single-node request on the dead module cannot degrade at all
        node = int(np.flatnonzero(mapping.color_array() == 3)[0])
        instance = STemplate(1).instance_at(tree12, node)
        client = TraceClient(0, _single_access_trace(instance), interval=1)
        report = engine.run([client], max_cycles=4, drain_limit=10_000)
        assert report.timeout_shed == 1
        assert report.shed == 1
        assert report.completed == 0
        sheds = [e for e in rec.events if e["ev"] == "serve_shed"]
        assert sheds and sheds[0]["reason"] == "timeout"

    def test_run_that_can_never_drain_fails_at_once(self):
        """A module failed for good, no repair and no retry timeout: the
        batch queued on it can never retire, so the run fails as soon as
        arrivals stop instead of spinning out its drain limit."""
        config = {"traffic": "bursty", "faults": "slow=3:2,failed=5", "cycles": 300}
        engine, clients, _ = spec.serve(config)
        with pytest.raises(DrainError, match=r"can never drain: \d+ requests .*\[5\]"):
            engine.run(clients, max_cycles=300)
        assert engine.cycle == 300

    def test_failure_that_ends_after_arrivals_still_drains(self):
        """A later fault edge repairs the module, so the check stays quiet."""
        config = {"traffic": "bursty", "faults": "fail=5@0:400", "cycles": 300}
        engine, clients, _ = spec.serve(config)
        report = engine.run(clients, max_cycles=300)
        assert report.completed + report.shed == report.arrivals
        assert report.cycles > 400

    def test_availability_accounts_failed_cycles(self, mapping, mix):
        report = _run(
            _engine(mapping, faults=FAULT_SPEC, retry_timeout=16, repair="color"),
            mix,
        )
        assert 0.9 < report.availability < 1.0


def _single_access_trace(instance):
    from repro.memory import AccessTrace

    trace = AccessTrace()
    trace.add(instance.nodes, label=instance.kind)
    return trace


class TestRepairModes:
    def test_repair_avoids_dead_modules_entirely(self, mapping, mix):
        """With repair active, no dispatch ever lands on a failed module."""
        rec = EventRecorder()
        engine = _engine(mapping, faults=FAULT_SPEC, recorder=rec,
                         retry_timeout=16, repair="color")
        _run(engine, mix)
        repairs = [e for e in rec.events if e["ev"] == "repair"]
        assert repairs, "failed-set changes must emit repair events"
        assert all(e["mode"] == "color" for e in repairs)
        # at least one swap moved nodes off a dead module
        assert any(e["moved"] > 0 for e in repairs)

    def test_color_repair_not_worse_than_oblivious(self, mapping, mix):
        color = _run(
            _engine(mapping, faults=FAULT_SPEC, retry_timeout=16, repair="color"),
            mix,
        )
        oblivious = _run(
            _engine(mapping, faults=FAULT_SPEC, retry_timeout=16,
                    repair="oblivious"),
            mix,
        )
        assert color.arrivals == oblivious.arrivals
        assert color.goodput >= oblivious.goodput

    def test_deterministic_replay(self, mapping, mix):
        a = _run(_engine(mapping, faults=FAULT_SPEC, retry_timeout=16,
                         repair="color"), mix)
        b = _run(_engine(mapping, faults=FAULT_SPEC, retry_timeout=16,
                         repair="color"), mix)
        assert a.cycles == b.cycles
        assert a.retries == b.retries
        assert a.goodput == b.goodput


class TestFaultAwarePolicies:
    def test_policy_defers_requests_on_failed_modules(self, tree12, mapping):
        """When clean alternatives exist, the policy packs only requests
        that avoid the failed set."""
        policy = GreedyPackPolicy(max_components=4, bound_k=mapping.k)
        family = STemplate(7)
        colors = mapping.color_array()
        reqs = []
        for i, root in enumerate((1, 2, 15, 16)):
            inst = family.instance_at(tree12, root)
            reqs.append(Request(i, 0, inst, arrival_cycle=0))
        dirty_module = int(colors[reqs[0].nodes[0]])
        batch = policy.form(reqs, mapping, avoid=frozenset({dirty_module}))
        for req in batch.requests:
            assert dirty_module not in set(
                int(c) for c in mapping.colors_of(req.nodes)
            )

    def test_all_dirty_falls_back_to_head(self, tree12, mapping):
        policy = GreedyPackPolicy(max_components=4, bound_k=mapping.k)
        inst = STemplate(15).instance_at(tree12, 1)
        req = Request(0, 0, inst, arrival_cycle=0)
        touched = frozenset(int(c) for c in mapping.colors_of(inst.nodes))
        batch = policy.form([req], mapping, avoid=touched)
        assert batch.requests == (req,)

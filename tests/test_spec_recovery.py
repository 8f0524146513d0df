"""Randomized crash recovery over specs built by :mod:`repro.spec`.

E20 and E22 check recovery on fixed sweeps.  Here hypothesis draws small
serve and fleet configs (policy, router, traffic, admission, faults, shard
kills, restarts, checkpoint cadence, crash cycle and crash mode), and for
each one:

* a run crashed at the drawn cycle and recovered from its state dir reports
  exactly what the uninterrupted run reports, also when the recovery itself
  crashes (at a second drawn cycle, which may fall while it is still
  replaying the journal) and is recovered again;
* every arrival is accounted for once: ``completed + shed == arrivals`` for
  a serve run, ``completed + quota_shed + shard_shed + fleet_shed ==
  arrivals`` for a fleet.

A third test runs daemon configs with a submit burst and a knob change at
drawn cycles, as ``POST /submit`` and ``POST /policy`` would make them.
"""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import spec
from repro.fleet import FleetSupervisor
from repro.host.daemon import ServeDaemon
from repro.serve import CrashPlan, DurableServer, diff_reports
from repro.serve.durability import CRASH_MODES, SimulatedCrash

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def fault_specs(draw, modules: int, cycles: int):
    """``None`` or a timed spec of fail/slow/drop windows that all close
    before the arrival window ends, so every run drains."""
    if not draw(st.booleans()):
        return None
    terms = []
    for kind in draw(st.lists(st.sampled_from(["fail", "slow", "drop"]), max_size=3)):
        start = draw(st.integers(0, cycles // 2))
        end = draw(st.integers(start + 1, cycles - 1))
        module = draw(st.integers(0, modules - 1))
        if kind == "fail" and not any(t.startswith(f"fail={module}@") for t in terms):
            terms.append(f"fail={module}@{start}:{end}")
        elif kind == "slow" and not any(t.startswith(f"slow={module}:") for t in terms):
            terms.append(f"slow={module}:{draw(st.integers(2, 4))}@{start}:{end}")
        elif kind == "drop" and not any(t.startswith("drop=") for t in terms):
            terms.append(f"drop={draw(st.sampled_from([0.02, 0.1]))}@{start}:{end}")
    terms.append(f"seed={draw(st.integers(0, 99))}")
    return ",".join(terms)


@st.composite
def serve_specs(draw):
    modules = draw(st.sampled_from([3, 5, 7]))
    cycles = draw(st.integers(60, 160))
    return {
        "levels": draw(st.integers(5, 8)),
        "modules": modules,
        "policy": draw(st.sampled_from(["fifo", "greedy-pack", "load-aware"])),
        "traffic": draw(st.sampled_from(["poisson", "bursty", "closed-loop"])),
        "arrival_rate": draw(st.sampled_from([0.1, 0.25, 0.5])),
        "clients": draw(st.integers(1, 3)),
        "cycles": cycles,
        "workload": draw(
            st.sampled_from(["subtree:7=2,path:5=1,level:4=1", "path:4=1,composite:8x2=1"])
        ),
        "queue_capacity": draw(st.sampled_from([32, 256])),
        "admission": draw(st.sampled_from(["block", "shed", "degrade"])),
        "deadline": draw(st.sampled_from([None, 20])),
        "think_time": draw(st.integers(0, 4)),
        "seed": draw(st.integers(0, 999)),
        "faults": draw(fault_specs(modules, cycles)),
        "repair": draw(st.sampled_from(["none", "oblivious", "color"])),
        "retry_timeout": draw(st.sampled_from([None, 12, 30])),
        "max_retries": draw(st.integers(0, 3)),
        "checkpoint_every": draw(st.integers(5, 60)),
    }


@st.composite
def fleet_specs(draw):
    shards = draw(st.integers(2, 3))
    cycles = draw(st.integers(80, 200))
    killed = draw(st.lists(st.integers(0, shards - 1), unique=True, max_size=shards))
    return {
        "shards": shards,
        "router": draw(st.sampled_from(["round-robin", "least-loaded", "affinity"])),
        "levels": draw(st.integers(5, 7)),
        "modules": draw(st.sampled_from([3, 5, 7])),
        "policy": draw(st.sampled_from(["fifo", "greedy-pack", "load-aware"])),
        "cycles": cycles,
        "arrival_rate": draw(st.sampled_from([0.3, 1.0, 2.0])),
        "workload": "subtree:7=1,path:5=1,level:4=1",
        "tenants": draw(st.integers(1, 6)),
        "quota": draw(st.sampled_from([None, 3])),
        "gold_every": draw(st.integers(0, 2)),
        "gold_deadline": 24,
        "kill_shard_at": [
            f"{shard}@{draw(st.integers(1, cycles - 1))}" for shard in killed
        ],
        "admission": draw(st.sampled_from(["block", "shed", "degrade"])),
        "seed": draw(st.integers(0, 999)),
        "faults": draw(fault_specs(3, cycles)),
        "retry_timeout": draw(st.sampled_from([None, 16])),
        "restart_after": draw(st.sampled_from([None, 10, 40])),
        "checkpoint_every": draw(st.integers(5, 60)),
    }


def crash_plans(at_cycles):
    return st.builds(CrashPlan, at_cycle=at_cycles, mode=st.sampled_from(CRASH_MODES))


@SETTINGS
@given(config=serve_specs(), data=st.data())
def test_serve_crash_recovery_equals_uninterrupted(config, data):
    first = data.draw(crash_plans(st.integers(1, config["cycles"] - 1)))
    second = data.draw(st.none() | crash_plans(st.integers(1, first.at_cycle + 20)))
    engine, clients, _ = spec.serve(config)
    uninterrupted = engine.run(clients, max_cycles=config["cycles"])

    with tempfile.TemporaryDirectory() as state_dir:

        def server(crash_plan):
            engine, clients, _ = spec.serve(config)
            return DurableServer(
                engine,
                clients,
                state_dir,
                checkpoint_every=config["checkpoint_every"],
                crash_plan=crash_plan,
            )

        with pytest.raises(SimulatedCrash):
            server(first).serve(config["cycles"])
        try:
            report = server(second).recover()
        except SimulatedCrash:
            report = server(None).recover()
    assert diff_reports(uninterrupted, report) == []
    assert report.completed + report.shed == report.arrivals


def _supervised(config, state_dir, crash_at=None):
    coordinator, population, _, factory = spec.fleet(config)
    supervisor = FleetSupervisor(
        coordinator,
        factory=factory,
        state_dir=state_dir,
        checkpoint_every=config["checkpoint_every"],
        restart_after=config["restart_after"],
        crash_at=crash_at,
    )
    return supervisor, population.clients


@SETTINGS
@given(config=fleet_specs(), data=st.data())
def test_fleet_crash_recovery_equals_uninterrupted(config, data):
    crash_at = data.draw(st.integers(1, config["cycles"] - 1))
    second = data.draw(st.none() | st.integers(1, crash_at + 20))
    with tempfile.TemporaryDirectory() as tmp:
        supervisor, clients = _supervised(config, Path(tmp) / "control")
        uninterrupted = supervisor.serve(clients, config["cycles"])
        crashed = Path(tmp) / "crashed"
        supervisor, clients = _supervised(config, crashed, crash_at=crash_at)
        with pytest.raises(SimulatedCrash):
            supervisor.serve(clients, config["cycles"])
        supervisor, clients = _supervised(config, crashed, crash_at=second)
        try:
            recovered = supervisor.recover(clients)
        except SimulatedCrash:
            supervisor, clients = _supervised(config, crashed)
            recovered = supervisor.recover(clients)
    assert diff_reports(uninterrupted, recovered) == []
    shed = recovered.quota_shed + recovered.shard_shed + recovered.fleet_shed
    assert recovered.completed + shed == recovered.arrivals


knob_changes = st.fixed_dictionaries(
    {},
    optional={
        "policy": st.sampled_from(["fifo", "greedy-pack", "load-aware"]),
        "deadline": st.sampled_from([None, 10, 40]),
        "retry_timeout": st.sampled_from([None, 5, 30]),
    },
).filter(bool)


@settings(SETTINGS, max_examples=100)
@given(config=serve_specs(), data=st.data())
def test_daemon_crash_recovery_with_submits_and_knob_changes(config, data):
    config = dict(spec.resolve(config, spec.SERVE), daemon=True)
    cycles = config["cycles"]
    submit_at, knobs_at = data.draw(st.tuples(*[st.integers(1, cycles - 1)] * 2))
    kind, size = data.draw(st.sampled_from([("subtree", 7), ("path", 5), ("level", 4)]))
    count = data.draw(st.integers(1, 4))
    knobs = data.draw(knob_changes)
    first = data.draw(crash_plans(st.integers(1, cycles - 1)))
    second = data.draw(st.none() | crash_plans(st.integers(1, first.at_cycle + 20)))

    def daemon(state_dir: Path, crash_plan=None) -> ServeDaemon:
        """A daemon over ``state_dir``'s config.json, its control-plane
        requests made from a driver hook (the daemon itself never runs)."""
        config_path = state_dir / "config.json"
        daemon_config = json.loads(config_path.read_text())
        engine, clients, _ = spec.serve(daemon_config)
        server = DurableServer(
            engine,
            clients,
            state_dir,
            checkpoint_every=daemon_config["checkpoint_every"],
            crash_plan=crash_plan,
        )
        daemon = ServeDaemon(
            server, clients[-1], config=daemon_config, config_path=config_path
        )

        def control_plane(engine) -> None:
            # submit first: a knob change checkpoints, and that snapshot
            # must hold a submission made at the same cycle
            if engine.cycle == submit_at:
                daemon.feed.submit(kind, size, count=count)
            if engine.cycle == knobs_at:
                daemon._apply_knobs(dict(knobs))

        server.driver.after_step.append(control_plane)
        return daemon

    with tempfile.TemporaryDirectory() as tmp:
        control, crashed = Path(tmp) / "control", Path(tmp) / "crashed"
        for state_dir in (control, crashed):
            state_dir.mkdir()
            (state_dir / "config.json").write_text(json.dumps(config, indent=2) + "\n")
        uninterrupted = daemon(control).server.serve(cycles)
        with pytest.raises(SimulatedCrash):
            daemon(crashed, first).server.serve(cycles)
        # each recovery reads config.json as the crash left it, as
        # pmtree recover does
        try:
            report = daemon(crashed, second).server.recover()
        except SimulatedCrash:
            report = daemon(crashed).server.recover()
    assert diff_reports(uninterrupted, report) == []
    assert report.completed + report.shed == report.arrivals

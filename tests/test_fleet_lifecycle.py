"""Shard lifecycle state machine: health edges, suspicion grace, reset/rejoin
semantics and the coordinator's fleet-level checkpoint state."""

import json

import pytest

from repro.core import ColorMapping
from repro.fleet import (
    HEALTH_STATES,
    FleetCoordinator,
    FleetSupervisor,
    heavy_tailed_tenants,
)
from repro.memory import ParallelMemorySystem
from repro.memory.faults import FaultSchedule, FaultWindow
from repro.obs import EventRecorder
from repro.serve import ServeEngine, diff_reports
from repro.serve.durability import DurabilityError
from repro.trees import CompleteBinaryTree

WORKLOAD = "subtree:7=1,path:5=1,level:4=1"


def make_shards(n, levels=8, modules=7):
    shards = []
    for _ in range(n):
        tree = CompleteBinaryTree(levels)
        mapping = ColorMapping.for_modules(tree, modules)
        shards.append(
            ServeEngine(ParallelMemorySystem(mapping), policy="greedy-pack")
        )
    return shards


@pytest.fixture
def tree():
    return CompleteBinaryTree(8)


def population(tree, num_tenants=8, rate=6.0, seed=7):
    return heavy_tailed_tenants(tree, num_tenants, WORKLOAD, rate, seed=seed)


def identity_holds(report):
    return (
        report.completed + report.quota_shed + report.shard_shed
        + report.fleet_shed
        == report.arrivals
    )


# -- the health state machine --------------------------------------------------


def test_health_states_registry():
    assert HEALTH_STATES == ("alive", "suspected", "dead", "restoring")


def test_full_lifecycle_event_sequence(tree):
    recorder = EventRecorder()
    coordinator = FleetCoordinator(
        make_shards(2), recorder=recorder, kills=["1@60"]
    )
    supervisor = FleetSupervisor(coordinator, restart_after=30)
    report = supervisor.serve(population(tree).clients, 150)

    states = [
        (e["previous"], e["state"])
        for e in recorder.events
        if e["ev"] == "shard_state" and e["shard"] == 1
    ]
    assert states == [
        ("alive", "suspected"),
        ("suspected", "dead"),
        ("dead", "restoring"),
        ("restoring", "alive"),
    ]
    rejoins = [e for e in recorder.events if e["ev"] == "shard_rejoin"]
    assert len(rejoins) == 1
    assert rejoins[0]["shard"] == 1
    # no state dir: only the fresh rung is available
    assert rejoins[0]["how"] == "fresh"
    assert report.rejoined == [1]
    assert report.restarts == 1
    assert report.health == ["alive", "alive"]
    assert identity_holds(report)


def test_suspect_grace_lets_transient_outage_recover(tree):
    recorder = EventRecorder()
    coordinator = FleetCoordinator(
        make_shards(1), recorder=recorder, suspect_grace=10
    )
    coordinator.start(population(tree, rate=2.0).clients, 150)
    modules = coordinator.shards[0].system.num_modules
    # a bounded full-array outage shorter than the grace: suspected, then
    # cleared — never killed
    coordinator._kills[0] = FaultSchedule(
        [FaultWindow("fail", m, 50, 56) for m in range(modules)]
    )
    while coordinator.step():
        pass
    report = coordinator.finish()

    assert report.dead_shards == []
    assert report.health == ["alive"]
    states = [
        (e["previous"], e["state"])
        for e in recorder.events
        if e["ev"] == "shard_state"
    ]
    assert states == [("alive", "suspected"), ("suspected", "alive")]
    # a suspected sole shard takes no placements: arrivals in the outage
    # window shed at the fleet edge, and the books still balance
    assert report.fleet_shed > 0
    assert identity_holds(report)


def test_suspect_grace_expiry_still_kills(tree):
    coordinator = FleetCoordinator(
        make_shards(2), suspect_grace=5, kills=["1@50"]
    )
    report = coordinator.run(population(tree).clients, 150)
    assert report.dead_shards == [1]
    assert report.health[1] == "dead"
    assert identity_holds(report)


def test_suspected_shard_steps_but_takes_no_traffic(tree):
    recorder = EventRecorder()
    coordinator = FleetCoordinator(
        make_shards(2), recorder=recorder, suspect_grace=8, kills=["0@60"]
    )
    report = coordinator.run(population(tree).clients, 200)
    assert report.dead_shards == [0]
    routed_while_suspected = [
        e
        for e in recorder.events
        if e["ev"] in ("fleet_route", "fleet_reroute")
        and e["shard"] == 0
        and e["cycle"] >= 60
    ]
    assert routed_while_suspected == []


def test_restore_transitions_validated(tree):
    coordinator = FleetCoordinator(make_shards(2))
    with pytest.raises(ValueError, match="only dead shards"):
        coordinator.begin_restore(0)
    with pytest.raises(ValueError, match="nothing to rejoin"):
        coordinator.rejoin(0)
    coordinator._health[1] = "dead"
    coordinator.begin_restore(1)
    assert coordinator.health[1] == "restoring"
    coordinator.abandon_restore(1)
    assert coordinator.health[1] == "dead"


def test_set_health_rejects_unknown_state(tree):
    coordinator = FleetCoordinator(make_shards(1))
    with pytest.raises(ValueError, match="unknown health state"):
        coordinator._set_health(0, "zombie", 0)


# -- reset: byte-identical re-runs ---------------------------------------------


def test_reset_rearms_kills_for_byte_identical_rerun(tree):
    coordinator = FleetCoordinator(
        make_shards(2), router="affinity", kills=["1@100"]
    )
    first = coordinator.run(population(tree).clients, 200)
    second = coordinator.run(population(tree).clients, 200)
    assert first.dead_shards == [1]
    assert second.dead_shards == [1]
    assert diff_reports(first, second) == []


def test_reset_rearms_kills_after_a_rejoin_popped_them(tree):
    coordinator = FleetCoordinator(make_shards(2), kills=["1@60"])
    supervisor = FleetSupervisor(coordinator, restart_after=40)
    healed = supervisor.serve(population(tree).clients, 200)
    assert healed.restarts == 1
    # the rejoin retired shard 1's kill schedule; a plain re-run on the
    # same coordinator must re-arm and kill it again
    rerun = coordinator.run(population(tree).clients, 200)
    assert rerun.dead_shards == [1]
    assert rerun.restarts == 0
    assert identity_holds(rerun)


# -- fleet-level checkpoint state ----------------------------------------------


def test_state_dict_round_trips_through_json_mid_run(tree):
    coordinator = FleetCoordinator(
        make_shards(2), router="affinity", kills=["1@60"]
    )
    clients = population(tree).clients
    coordinator.start(clients, 120)
    for _ in range(80):
        coordinator.step()
    state = json.loads(json.dumps(coordinator.state_dict()))
    assert state["version"] == 1
    assert state["health"][1] == "dead"

    # restoring over the same engines at the same boundary is a no-op that
    # the run can continue from
    coordinator.restore_state(state, clients)
    assert coordinator._cycle == state["cycle"]
    while coordinator.step():
        pass
    report = coordinator.finish()
    assert report.dead_shards == [1]
    assert identity_holds(report)


def test_restore_state_validates_version_and_router(tree):
    coordinator = FleetCoordinator(
        make_shards(2), router="affinity", kills=["1@60"]
    )
    clients = population(tree).clients
    coordinator.start(clients, 120)
    for _ in range(80):
        coordinator.step()
    state = json.loads(json.dumps(coordinator.state_dict()))

    bad_version = dict(state, version=99)
    with pytest.raises(DurabilityError, match="version"):
        coordinator.restore_state(bad_version, clients)

    wrong_router = FleetCoordinator(make_shards(2), router="round-robin")
    with pytest.raises(DurabilityError, match="router"):
        wrong_router.restore_state(json.loads(json.dumps(state)), clients)

    wrong_shards = FleetCoordinator(make_shards(3), router="affinity")
    with pytest.raises(DurabilityError, match="shards"):
        wrong_shards.restore_state(json.loads(json.dumps(state)), clients)

"""E22 — self-healing fleet: kill/restart soak with exactly-once recovery.

Four claims about the supervised fleet.  First, with three different
shards killed mid-run and budgeted restarts enabled, every shard rejoins
(>= 3 restarts in the soak) and the fleet-level exactly-once identity
``completed + quota_shed + shard_shed + fleet_shed == arrivals`` survives
every kill/restart cycle — reconciliation against the failover ledger
means nothing executes twice.  Second, two identical supervised runs are
byte-identical (``diff_reports`` empty).  Third, crashing the whole
fleet mid-run and recovering from the newest fleet checkpoint reproduces
the uninterrupted control exactly — per-shard journals verify the
re-executed suffix record-for-record.  Fourth, restart-enabled goodput
strictly exceeds failover-only goodput under the same kill schedule: a
healed shard earns back the capacity a dead one forfeits.  This file pins
all four and times the supervised step loop against plain failover.
"""

import pytest

from repro import spec
from repro.fleet import FleetSupervisor
from repro.serve import diff_reports
from repro.serve.durability import SimulatedCrash

CYCLES = 450
CONFIG = {
    "shards": 4,
    "router": "least-loaded",
    "levels": 8,
    "modules": 7,
    "arrival_rate": 4.0,
    "workload": "subtree:7=1,path:5=1,level:4=1",
    "tenants": 8,
    "seed": 7,
    "faults": f"drop=0.03@0:{CYCLES},seed=3",
    "kill_shard_at": ["1@75", "2@150", "3@225"],
}


def _supervised(state_dir, crash_at=None):
    coordinator, population, _, factory = spec.fleet(CONFIG)
    supervisor = FleetSupervisor(
        coordinator,
        factory=factory,
        state_dir=state_dir,
        checkpoint_every=50,
        restart_after=50,
        crash_at=crash_at,
    )
    return supervisor, population.clients


def _failover():
    coordinator, population, _, _ = spec.fleet(CONFIG)
    return FleetSupervisor(coordinator), population.clients


def _identity(report):
    return (
        report.completed + report.quota_shed + report.shard_shed
        + report.fleet_shed
        == report.arrivals
    )


def test_e22_claim_holds():
    from repro.bench.experiments import e22_selfheal

    result = e22_selfheal("quick")
    assert result.holds, str(result)


def test_e22_soak_heals_and_accounts_exactly_once(tmp_path):
    """Three kills, three rejoins, books balanced across every cycle."""
    supervisor, clients = _supervised(tmp_path / "soak")
    report = supervisor.serve(clients, CYCLES)
    assert report.restarts >= 3
    assert sorted(report.rejoined) == [1, 2, 3]
    assert report.health == ["alive"] * CONFIG["shards"]
    assert _identity(report)


def test_e22_crash_recovery_matches_control(tmp_path):
    """Whole-fleet crash after the last rejoin, recovered from the newest
    checkpoint: the recovered report equals the uninterrupted control."""
    supervisor, clients = _supervised(tmp_path / "control")
    control = supervisor.serve(clients, CYCLES)
    supervisor, clients = _supervised(tmp_path / "crashed", crash_at=325)
    with pytest.raises(SimulatedCrash):
        supervisor.serve(clients, CYCLES)
    supervisor, clients = _supervised(tmp_path / "crashed")
    recovered = supervisor.recover(clients)
    assert diff_reports(control, recovered) == []


def test_e22_restarts_strictly_beat_failover(tmp_path):
    """Same kill schedule, restarts on vs off: healing wins goodput and
    availability outright."""
    supervisor, clients = _supervised(tmp_path / "healed")
    healed = supervisor.serve(clients, CYCLES)
    supervisor, clients = _failover()
    failover = supervisor.serve(clients, CYCLES)
    assert failover.restarts == 0
    assert healed.goodput > failover.goodput
    assert healed.availability > failover.availability


@pytest.mark.parametrize("mode", ["failover", "selfheal"])
def test_bench_supervised_step_loop(benchmark, tmp_path, mode):
    def run():
        if mode == "selfheal":
            supervisor, clients = _supervised(tmp_path / "bench")
        else:
            supervisor, clients = _failover()
        return supervisor.serve(clients, CYCLES)

    benchmark(run)

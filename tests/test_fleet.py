"""Fleet coordinator, routers, tenancy: the non-failover surface."""

import numpy as np
import pytest

from repro.core import ColorMapping
from repro.fleet import (
    BRONZE,
    GOLD,
    AffinityRouter,
    FleetCoordinator,
    LeastLoadedRouter,
    RoundRobinRouter,
    SLOClass,
    TenantDirectory,
    TenantPolicy,
    heavy_tailed_tenants,
    make_router,
)
from repro.memory import ParallelMemorySystem
from repro.obs import EventRecorder
from repro.serve import PoissonClient, ServeEngine, TemplateMix
from repro.serve.clients import spawn_seeds
from repro.trees import CompleteBinaryTree


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


def population(tree, num_tenants=6, rate=0.6, seed=3, **kwargs):
    return heavy_tailed_tenants(
        tree, num_tenants, "subtree:7=1,path:5=1,level:4=1", rate,
        seed=seed, **kwargs,
    )


# -- spawn_seeds -------------------------------------------------------------


def test_spawn_seeds_deterministic_and_distinct():
    a = spawn_seeds(42, 16)
    assert a == spawn_seeds(42, 16)
    assert len(set(a)) == 16
    assert a[:4] == spawn_seeds(42, 4)  # prefix-stable under n


def test_spawn_seeds_varies_with_master():
    assert spawn_seeds(1, 8) != spawn_seeds(2, 8)


def test_spawn_seeds_rejects_negative():
    with pytest.raises(ValueError):
        spawn_seeds(0, -1)


# -- routers -----------------------------------------------------------------


def test_make_router_rejects_unknown():
    with pytest.raises(ValueError, match="unknown router"):
        make_router("wat")


def sample_instance(tree, spec="path:4=1", seed=0):
    return TemplateMix.parse(tree, spec).sample(np.random.default_rng(seed))


def test_round_robin_cycles_over_alive_shards(tree):
    coordinator = FleetCoordinator(make_shards(3), router="round-robin")
    router = coordinator.router
    instance = sample_instance(tree)
    placed = [router.place(f"t{i}", instance, coordinator) for i in range(6)]
    assert placed == [0, 1, 2, 0, 1, 2]


def test_least_loaded_prefers_emptier_shard(tree):
    coordinator = FleetCoordinator(make_shards(2), router="least-loaded")
    instance = sample_instance(tree)
    coordinator._feeds[0].push(instance, "t0")  # load shard 0
    assert coordinator.router.place("t1", instance, coordinator) == 1


def test_affinity_is_sticky(tree):
    coordinator = FleetCoordinator(make_shards(3), router="affinity")
    router = coordinator.router
    instance = sample_instance(tree)
    first = router.place("t0", instance, coordinator)
    for _ in range(5):
        assert router.place("t0", instance, coordinator) == first
    assert router.assignments["t0"] == first


def test_affinity_balances_committed_weight(tree):
    """12 equal-size tenants over 3 shards: committed-weight buckets keep
    the spread even instead of piling one size class on one shard."""
    coordinator = FleetCoordinator(make_shards(3), router="affinity")
    router = coordinator.router
    instance = sample_instance(tree)
    for i in range(12):
        router.place(f"t{i}", instance, coordinator)
    per_shard = [0, 0, 0]
    for shard in router.assignments.values():
        per_shard[shard] += 1
    assert max(per_shard) - min(per_shard) <= 1, per_shard


def test_affinity_validates_params():
    with pytest.raises(ValueError):
        AffinityRouter(slack=-1)
    with pytest.raises(ValueError):
        AffinityRouter(bucket=0)
    with pytest.raises(ValueError):
        AffinityRouter(migrate=0)


def test_router_registry_names():
    assert isinstance(make_router("round-robin"), RoundRobinRouter)
    assert isinstance(make_router("least-loaded"), LeastLoadedRouter)
    assert isinstance(make_router("affinity"), AffinityRouter)


# -- tenancy -----------------------------------------------------------------


def test_slo_class_validation():
    with pytest.raises(ValueError):
        SLOClass("bad", weight=0.0)
    with pytest.raises(ValueError):
        SLOClass("bad", deadline=0)
    assert GOLD.weight > BRONZE.weight


def test_tenant_policy_validation():
    with pytest.raises(ValueError):
        TenantPolicy(quota=0)


def test_directory_default_and_classes():
    directory = TenantDirectory(
        {"t0": TenantPolicy(quota=2, slo=GOLD)},
        default=TenantPolicy(slo=BRONZE),
    )
    assert directory.policy("t0").quota == 2
    assert directory.policy("stranger").quota is None
    assert set(directory.classes()) == {"gold", "bronze"}


def test_heavy_tailed_population_shape(tree):
    pop = population(tree, num_tenants=6, gold_every=3)
    assert len(pop.clients) == 6
    assert [c.tenant for c in pop.clients] == [f"t{i}" for i in range(6)]
    # Zipf: rates strictly decreasing
    rates = [c.rate for c in pop.clients]
    assert rates == sorted(rates, reverse=True)
    assert pop.directory.policy("t0").slo.name == "gold"
    assert pop.directory.policy("t1").slo.name == "bronze"
    assert pop.directory.policy("t3").slo.name == "gold"


def test_heavy_tailed_validation(tree):
    with pytest.raises(ValueError):
        heavy_tailed_tenants(tree, 0, "path:4=1", 1.0)
    with pytest.raises(ValueError):
        heavy_tailed_tenants(tree, 2, "path:4=1", 0.0)


# -- coordinator accounting --------------------------------------------------


def test_fleet_accounting_closes(tree):
    pop = population(tree)
    report = FleetCoordinator(make_shards(3), router="least-loaded").run(
        pop.clients, 200
    )
    assert report.arrivals == report.routed + report.quota_shed
    assert report.completed + report.shard_shed == report.routed
    assert report.availability == 1.0
    assert report.dead_shards == []
    assert report.rerouted == 0
    assert report.completed_items > 0
    # shard trackers saw exactly what the coordinator routed (no failover)
    assert sum(r.completed for r in report.shard_reports) == report.completed


def test_fleet_report_identical_between_run_and_stepped(tree):
    reports = []
    for _ in range(2):
        pop = population(tree)
        coordinator = FleetCoordinator(make_shards(2), router="round-robin")
        if not reports:
            reports.append(coordinator.run(pop.clients, 150))
        else:
            coordinator.start(pop.clients, 150)
            while coordinator.step():
                pass
            reports.append(coordinator.finish())
    a, b = reports
    assert (a.arrivals, a.routed, a.completed, a.completed_items) == (
        b.arrivals, b.routed, b.completed, b.completed_items
    )
    assert a.latency == b.latency


def test_fleet_step_false_is_stable(tree):
    pop = population(tree)
    coordinator = FleetCoordinator(make_shards(2))
    coordinator.start(pop.clients, 100)
    while coordinator.step():
        pass
    counters = coordinator.counters
    before = (counters.completed, counters.routed, coordinator._cycle)
    for _ in range(4):
        assert coordinator.step() is False
    assert (counters.completed, counters.routed, coordinator._cycle) == before


def test_quota_sheds_excess_and_books_balance(tree):
    pop = population(tree, num_tenants=4, rate=2.5, quota=1)
    recorder = EventRecorder()
    report = FleetCoordinator(
        make_shards(2), router="round-robin",
        directory=pop.directory, recorder=recorder,
    ).run(pop.clients, 200)
    assert report.quota_shed > 0
    assert report.arrivals == report.routed + report.quota_shed
    assert report.completed + report.shard_shed == report.routed
    sheds = [e for e in recorder.events if e["ev"] == "fleet_shed"]
    assert len(sheds) == report.quota_shed
    assert all(e["reason"] == "quota" for e in sheds)


def test_gold_tenants_admitted_first_under_quota(tree):
    """Same quota, gold weight outranks bronze in the admission sort, so
    gold tenants shed strictly less than equally-loaded bronze tenants."""
    pop = population(tree, num_tenants=6, rate=3.0, quota=2, gold_every=2)
    report = FleetCoordinator(
        make_shards(2), router="least-loaded", directory=pop.directory
    ).run(pop.clients, 300)
    assert report.classes is not None
    assert set(report.classes) == {"gold", "bronze"}
    assert report.classes["gold"]["completed"] > 0


def test_tenant_summary_in_fleet_report(tree):
    pop = population(tree, num_tenants=4)
    report = FleetCoordinator(make_shards(2)).run(pop.clients, 150)
    assert report.tenants is not None
    for label in ("t0", "t1"):
        assert label in report.tenants
        assert report.tenants[label]["completed"] >= 0


def test_fleet_route_events(tree):
    pop = population(tree, num_tenants=3)
    recorder = EventRecorder()
    report = FleetCoordinator(
        make_shards(2), router="round-robin", recorder=recorder
    ).run(pop.clients, 100)
    routes = [e for e in recorder.events if e["ev"] == "fleet_route"]
    assert len(routes) == report.routed
    assert {e["shard"] for e in routes} <= {0, 1}
    assert all(e["tenant"].startswith("t") for e in routes)


def test_unique_client_ids_enforced(tree):
    mix = TemplateMix.parse(tree, "path:4=1")
    clients = [PoissonClient(0, mix, 0.1), PoissonClient(0, mix, 0.1)]
    with pytest.raises(ValueError, match="unique"):
        FleetCoordinator(make_shards(2)).start(clients, 50)


def test_empty_fleet_rejected():
    with pytest.raises(ValueError, match="at least one shard"):
        FleetCoordinator([])

"""Sharded multi-tenant serving: many engines, one front door.

Where :mod:`repro.serve` drives *one* engine over one memory system, this
package scales out: a :class:`FleetCoordinator` step-drives N engine shards
in lockstep behind fleet-level admission control — pluggable request
routing (:mod:`repro.fleet.router`: round-robin, least-loaded, sticky
tenant/template affinity), per-tenant quotas and SLO classes
(:mod:`repro.fleet.tenancy`), and a per-shard lifecycle state machine
(``alive → suspected → dead → restoring → alive``) whose death edge
re-routes everything a dead shard held to the survivors — or sheds it with
exactly-once accounting when no survivor remains.  On top of that,
:class:`FleetSupervisor` (:mod:`repro.fleet.supervisor`) makes the fleet
self-healing: per-shard checkpoints + write-ahead journals, budgeted
restarts with capped exponential backoff, a graceful restore ladder
(checkpoint → journal-only → fresh → stay dead), reconciliation against the
failover ledger so nothing executes twice, and a fleet-level snapshot for
deterministic whole-fleet crash recovery.  Results merge into a
:class:`FleetReport` (:mod:`repro.fleet.report`): exactly-once fleet
counters plus the per-shard :class:`~repro.serve.slo.ServeReport` detail.

CLI: ``pmtree fleet --shards 4 --router affinity --tenants 12 --quota 8
--kill-shard-at 2@400 --restart-after 120 --shard-state-dir state ...``;
experiment E21 pins the scaling, affinity and failover claims, E22 the
kill/restart soak (exactly-once, deterministic recovery, restart goodput).
"""

from repro.fleet.coordinator import (
    HEALTH_STATES,
    FleetCoordinator,
    ShardFeed,
    ShardKill,
)
from repro.fleet.report import FleetReport
from repro.fleet.router import (
    ROUTERS,
    AffinityRouter,
    LeastLoadedRouter,
    Router,
    RoundRobinRouter,
    make_router,
)
from repro.fleet.supervisor import FleetSupervisor
from repro.fleet.tenancy import (
    BRONZE,
    GOLD,
    SLOClass,
    TenantDirectory,
    TenantPolicy,
    TenantPopulation,
    heavy_tailed_tenants,
)

__all__ = [
    "BRONZE",
    "GOLD",
    "HEALTH_STATES",
    "ROUTERS",
    "AffinityRouter",
    "FleetCoordinator",
    "FleetReport",
    "FleetSupervisor",
    "LeastLoadedRouter",
    "Router",
    "RoundRobinRouter",
    "SLOClass",
    "ShardFeed",
    "ShardKill",
    "TenantDirectory",
    "TenantPolicy",
    "TenantPopulation",
    "heavy_tailed_tenants",
    "make_router",
]

"""One config dict builds every serving engine and fleet.

A run is fully described by a flat, JSON-able config: the tree height H
(``levels``), the module count M (``modules``) or a saved ``mapping``, the
batch bound c (``batch_components``), the traffic, the fault spec and the
durability cadence.  This module is the one place that turns such a config
into running objects:

* :func:`serve` builds ``(engine, clients, recorder)`` for ``pmtree serve``,
  ``pmtree daemon`` and ``pmtree recover``;
* :func:`fleet` builds ``(coordinator, population, recorder, factory)`` for
  ``pmtree fleet`` and ``pmtree recover --fleet``.

Both build their engines with one helper (mapping, then system, then the
fault schedule, then :class:`~repro.serve.engine.ServeEngine`), and both are
pure functions of the config: calling one twice yields two identically
configured setups, which is what crash recovery needs to restart "the
process".

:data:`SERVE` and :data:`FLEET` list every key a config may carry, with its
default.  The ``serve``/``daemon``/``fleet`` flags take their defaults from
these tables, ``config.json`` persists exactly their keys, and a config that
omits a key (a perf scenario, say) gets the default.
"""

from __future__ import annotations

__all__ = ["FLEET", "SERVE", "fleet", "resolve", "resolve_faults", "serve"]

#: engine keys a serve and a fleet config share, with their one default
_ENGINE = {
    "modules": 15,
    "policy": "greedy-pack",
    "queue_capacity": 256,
    "admission": "block",
    "batch_components": 4,
    "seed": 0,
    "obs": None,
    "faults": None,
    "repair": "none",
    "retry_timeout": None,
    "max_retries": 3,
    "checkpoint_every": 100,
}

#: a serve or daemon config: one engine fed by ``clients`` traffic clients
SERVE = {
    **_ENGINE,
    "levels": 11,
    "mapping": None,
    "traffic": "poisson",
    "arrival_rate": 0.2,
    "clients": 4,
    "cycles": 2000,
    "workload": "subtree:15=1,path:11=1,level:7=1",
    "deadline": None,
    "think_time": 0,
    "backoff_base": 8,
    "backoff_cap": 128,
    # None keeps every event; the daemon's flag bounds its ring buffer
    "events_capacity": None,
    # set by ``pmtree daemon``: append a SubmitFeed after the traffic clients
    "daemon": False,
}

#: a fleet config: ``shards`` engines behind a router and a Zipf population
FLEET = {
    **_ENGINE,
    "levels": 10,
    "cycles": 800,
    "arrival_rate": 1.2,
    "workload": "subtree:15=1,path:9=1,level:7=1",
    "shards": 4,
    "router": "affinity",
    "tenants": 8,
    "tenant_alpha": 1.2,
    "quota": None,
    "gold_every": 0,
    "gold_deadline": 96,
    "gold_weight": 4.0,
    "kill_shard_at": None,
    "restart_after": None,
    "restart_budget": 3,
}

#: config key -> ServeEngine keyword; a fleet config lacks the serve-only
#: ones, so its engines keep the ServeEngine defaults for those
_ENGINE_ARGS = {
    "policy": "policy",
    "queue_capacity": "queue_capacity",
    "admission": "admission",
    "batch_components": "max_batch_components",
    "deadline": "deadline",
    "retry_timeout": "retry_timeout",
    "max_retries": "max_retries",
    "backoff_base": "backoff_base",
    "backoff_cap": "backoff_cap",
    "repair": "repair",
}


def resolve(config: dict, table: dict) -> dict:
    """``config`` over ``table``: every key of the table, with the config's
    value where it has one (``None`` included) and the default otherwise.
    Keys outside the table are dropped."""
    return {key: config.get(key, default) for key, default in table.items()}


def resolve_faults(text: str):
    """Turn a ``--faults`` value into a FaultModel or FaultSchedule.

    ``@path.json`` loads a spec saved by :func:`repro.io.save_faults`;
    anything else goes through :func:`repro.memory.faults.parse_faults`
    (static terms like ``slow=3:2,failed=5`` give a FaultModel, timed terms
    like ``fail=3@50:400`` give a FaultSchedule).
    """
    from repro.io import load_faults
    from repro.memory import parse_faults

    if text.startswith("@"):
        return load_faults(text[1:])
    return parse_faults(text)


def _schedule(text: str | None):
    """The config's fault spec as a FaultSchedule, or ``None``.  Serving is
    cycle-driven, so a static model becomes open-ended windows."""
    from repro.memory import FaultSchedule

    if not text:
        return None
    faults = resolve_faults(text)
    if not isinstance(faults, FaultSchedule):
        faults = FaultSchedule.from_model(faults)
    return faults


def _engine(config: dict, mapping, faults, recorder=None, profiler=None):
    """Mapping -> system -> fault schedule -> ServeEngine."""
    from repro.memory import ParallelMemorySystem
    from repro.serve import ServeEngine

    system = ParallelMemorySystem(mapping, recorder=recorder, profiler=profiler)
    if faults is not None:
        system.attach_faults(faults)
    return ServeEngine(
        system,
        profiler=profiler,
        **{arg: config[key] for key, arg in _ENGINE_ARGS.items() if key in config},
    )


def serve(config: dict, profiler=None):
    """Build ``(engine, clients, recorder)`` from a serve config.

    ``recorder`` is an :class:`~repro.obs.events.EventRecorder` when the
    config names an ``obs`` artifact, else ``None``.  A daemon config
    (``daemon: true``) also gets a :class:`~repro.host.daemon.SubmitFeed`
    appended after the traffic clients, on its own derived seed, so
    HTTP-submitted work is part of the same deterministic, recoverable
    client set.  ``profiler`` times the system and the engine.
    """
    from repro.core import ColorMapping
    from repro.io import load_mapping
    from repro.obs import EventRecorder
    from repro.serve import (
        BurstyClient,
        ClosedLoopClient,
        PoissonClient,
        TemplateMix,
        spawn_seeds,
    )
    from repro.trees import CompleteBinaryTree

    config = resolve(config, SERVE)
    if config["mapping"]:
        mapping = load_mapping(config["mapping"])
        tree = mapping.tree
    else:
        tree = CompleteBinaryTree(config["levels"])
        mapping = ColorMapping.for_modules(tree, config["modules"])
    mix = TemplateMix.parse(tree, config["workload"])
    recorder = (
        EventRecorder(capacity=config["events_capacity"]) if config["obs"] else None
    )
    engine = _engine(config, mapping, _schedule(config["faults"]), recorder, profiler)
    num_clients = config["clients"]
    per_client = config["arrival_rate"] / num_clients
    # the feed's seed rides index N so the traffic clients' seeds 0..N-1
    # are exactly what a plain serve run draws (spawn_seeds is sequential)
    seeds = spawn_seeds(config["seed"], num_clients + 1)
    clients = []
    for i in range(num_clients):
        if config["traffic"] == "poisson":
            clients.append(PoissonClient(i, mix, per_client, seed=seeds[i]))
        elif config["traffic"] == "bursty":
            clients.append(BurstyClient(i, mix, per_client, seed=seeds[i]))
        else:
            clients.append(
                ClosedLoopClient(
                    i, mix, think_time=config["think_time"], seed=seeds[i]
                )
            )
    if config["daemon"]:
        from repro.host.daemon import SubmitFeed

        clients.append(SubmitFeed(num_clients, tree, seed=seeds[num_clients]))
    return engine, clients, recorder


def fleet(config: dict, profiler=None):
    """Build ``(coordinator, population, recorder, factory)`` from a fleet
    config.

    ``factory(shard)`` builds shard ``shard``'s engine from scratch (mapping,
    policy, and a fresh copy of its per-shard fault schedule), which is what
    both a restart after shard death and a whole-fleet recovery need.
    ``profiler`` is shared by every shard engine, so their spans roll up
    into one fleet-wide profile.
    """
    from repro.core import ColorMapping
    from repro.fleet import FleetCoordinator, SLOClass, heavy_tailed_tenants
    from repro.memory import per_shard_schedules
    from repro.obs import EventRecorder
    from repro.trees import CompleteBinaryTree

    config = resolve(config, FLEET)
    tree = CompleteBinaryTree(config["levels"])
    faults = _schedule(config["faults"])

    def factory(shard: int):
        mapping = ColorMapping.for_modules(tree, config["modules"])
        schedule = per_shard_schedules(faults, config["shards"])[shard]
        return _engine(config, mapping, schedule, profiler=profiler)

    gold = SLOClass(
        "gold", deadline=config["gold_deadline"], weight=config["gold_weight"]
    )
    population = heavy_tailed_tenants(
        tree,
        config["tenants"],
        config["workload"],
        config["arrival_rate"],
        seed=config["seed"],
        alpha=config["tenant_alpha"],
        quota=config["quota"],
        gold_every=config["gold_every"],
        gold=gold,
    )
    recorder = EventRecorder() if config["obs"] else None
    coordinator = FleetCoordinator(
        [factory(shard) for shard in range(config["shards"])],
        router=config["router"],
        directory=population.directory,
        recorder=recorder,
        kills=config["kill_shard_at"] or (),
    )
    return coordinator, population, recorder, factory

"""The fixed perf-trajectory scenario matrix and its recorder.

Each scenario is a deterministic, fully parameterized workload whose config
dict *is* its identity (see
:func:`~repro.obs.trajectory.config_fingerprint`): seeds are fixed, sizes
are fixed, and the same config replayed on the same host should land within
noise of the recorded wall clock.  The matrix spans the system's layers:

* ``simulate``         — barrier replay of a heap trace through a COLOR
  mapping (the :mod:`repro.memory` drain loop);
* ``serve``            — open-loop Poisson serving under greedy-pack
  batching (the :mod:`repro.serve` engine phases);
* ``serve_faults``     — serving through a fault schedule with color repair
  and the retry ladder (the resilience paths);
* ``serve_checkpoint`` — a durable serve run with checkpoints + journal
  (the :mod:`repro.serve.durability` write paths);
* ``fleet``            — a 4-shard multi-tenant fleet under affinity
  routing (the :mod:`repro.fleet` coordinator step loop), spans rolled up
  across all shard engines into one profile;
* ``fleet_restart``    — a supervised fleet with two mid-run shard kills,
  per-shard checkpoints/journals and budgeted restarts (the
  :mod:`repro.fleet.supervisor` self-healing paths: death snapshots,
  restore ladder, fleet snapshots);
* ``daemon``           — the daemon's hosting stack without the asyncio
  pacing: a durable serve run with a bounded ring-buffer recorder
  streaming every event through a live JSONL sink, plus a
  :class:`~repro.host.daemon.SubmitFeed` injecting out-of-band work (the
  :mod:`repro.host` tick path + obs sink fanout the control plane rides).

:func:`run_scenario` profiles ``repeats`` fresh runs and returns the
element-wise median artifact (:func:`~repro.obs.trajectory.median_of`), the
noise-aware point a :class:`~repro.obs.trajectory.PerfTrajectory` appends.
"""

from __future__ import annotations

import tempfile

from repro import spec
from repro.obs.perf import PerfProfiler
from repro.obs.trajectory import PerfArtifact, median_of

__all__ = ["SCENARIOS", "run_scenario", "record_matrix"]

#: the fixed scenario matrix: name -> config (the fingerprint surface).
#: Values here are deliberately plain JSON scalars — the config is hashed
#: canonically, so reordering keys is free but changing any value retunes
#: the scenario (new fingerprint, fresh trajectory comparisons).
SCENARIOS: dict[str, dict] = {
    "simulate": {
        "kind": "simulate",
        "levels": 12,
        "modules": 31,
        "workload": "heap",
        "ops": 600,
        "seed": 7,
    },
    "serve": {
        "kind": "serve",
        "levels": 11,
        "modules": 15,
        "policy": "greedy-pack",
        "traffic": "poisson",
        "arrival_rate": 0.3,
        "clients": 4,
        "cycles": 1500,
        "workload": "subtree:15=1,path:11=1,level:7=1",
        "seed": 0,
    },
    "serve_faults": {
        "kind": "serve",
        "levels": 11,
        "modules": 15,
        "policy": "greedy-pack",
        "traffic": "poisson",
        "arrival_rate": 0.3,
        "clients": 4,
        "cycles": 1500,
        "workload": "subtree:15=1,path:11=1,level:7=1",
        "seed": 0,
        "faults": "fail=3@100:600,slow=7:3@200:900,seed=11",
        "repair": "color",
        "retry_timeout": 24,
    },
    "serve_checkpoint": {
        "kind": "serve_checkpoint",
        "levels": 11,
        "modules": 15,
        "policy": "greedy-pack",
        "traffic": "poisson",
        "arrival_rate": 0.3,
        "clients": 4,
        "cycles": 1200,
        "workload": "subtree:15=1,path:11=1,level:7=1",
        "seed": 0,
        "checkpoint_every": 100,
    },
    "fleet": {
        "kind": "fleet",
        "levels": 10,
        "modules": 15,
        "policy": "greedy-pack",
        "shards": 4,
        "router": "affinity",
        "tenants": 12,
        "arrival_rate": 2.0,
        "cycles": 600,
        "workload": "subtree:15=1,path:9=1,level:7=1",
        "seed": 5,
    },
    "fleet_restart": {
        "kind": "fleet_restart",
        "levels": 10,
        "modules": 15,
        "policy": "greedy-pack",
        "shards": 4,
        "router": "least-loaded",
        "tenants": 12,
        "arrival_rate": 2.0,
        "cycles": 600,
        "workload": "subtree:15=1,path:9=1,level:7=1",
        "seed": 5,
        "kills": "1@150,2@300",
        "restart_after": 100,
        "checkpoint_every": 100,
    },
    "daemon": {
        "kind": "daemon",
        "levels": 11,
        "modules": 15,
        "policy": "greedy-pack",
        "traffic": "poisson",
        "arrival_rate": 0.3,
        "clients": 4,
        "cycles": 1200,
        "workload": "subtree:15=1,path:11=1,level:7=1",
        "seed": 0,
        "checkpoint_every": 100,
        "events_capacity": 4096,
    },
}


def _run_simulate(config: dict, profiler: PerfProfiler) -> None:
    from repro.bench.workloads import heap_workload
    from repro.core import ColorMapping
    from repro.memory import ParallelMemorySystem
    from repro.trees import CompleteBinaryTree

    tree = CompleteBinaryTree(config["levels"])
    mapping = ColorMapping.for_modules(tree, config["modules"])
    trace = heap_workload(tree, ops=config["ops"], seed=config["seed"])
    pms = ParallelMemorySystem(mapping, profiler=profiler)
    profiler.start()
    pms.run_trace(trace)
    profiler.stop()
    profiler.count("requests", len(trace))


def _run_serve(config: dict, profiler: PerfProfiler) -> None:
    engine, clients, _ = spec.serve(config, profiler)
    engine.run(clients, max_cycles=config["cycles"])


def _run_serve_checkpoint(config: dict, profiler: PerfProfiler) -> None:
    from repro.serve import DurableServer

    engine, clients, _ = spec.serve(config, profiler)
    with tempfile.TemporaryDirectory(prefix="pmtree-perf-") as state_dir:
        server = DurableServer(
            engine,
            clients,
            state_dir,
            checkpoint_every=config["checkpoint_every"],
        )
        server.serve(config["cycles"])


def _run_daemon(config: dict, profiler: PerfProfiler) -> None:
    from repro.serve import DurableServer

    # the stack ``pmtree daemon`` builds: a bounded recorder, and the submit
    # feed appended after the traffic clients, injecting a deterministic
    # burst of out-of-band work up front
    engine, clients, recorder = spec.serve(
        dict(config, obs="events.jsonl", daemon=True), profiler
    )
    for kind, size in (("subtree", 15), ("path", 11), ("composite", 24)):
        clients[-1].submit(kind, size, count=4)
    with tempfile.TemporaryDirectory(prefix="pmtree-perf-") as state_dir:
        stream = recorder.stream_to(f"{state_dir}/events.jsonl")
        server = DurableServer(
            engine,
            clients,
            state_dir,
            checkpoint_every=config["checkpoint_every"],
        )
        server.serve(config["cycles"])
        stream.close()


def _run_fleet(config: dict, profiler: PerfProfiler) -> None:
    # one shared profiler: spans from every shard engine roll up into a
    # single fleet-wide profile (start/stop are idempotent/tolerant)
    coordinator, population, _, _ = spec.fleet(config, profiler)
    report = coordinator.run(population.clients, max_cycles=config["cycles"])
    profiler.count("requests", report.routed)


def _run_fleet_restart(config: dict, profiler: PerfProfiler) -> None:
    from repro.fleet import FleetSupervisor

    coordinator, population, _, factory = spec.fleet(
        dict(config, kill_shard_at=config["kills"].split(",")), profiler
    )
    with tempfile.TemporaryDirectory(prefix="pmtree-perf-") as state_dir:
        supervisor = FleetSupervisor(
            coordinator,
            factory=factory,
            state_dir=state_dir,
            checkpoint_every=config["checkpoint_every"],
            restart_after=config["restart_after"],
        )
        report = supervisor.serve(population.clients, config["cycles"])
    profiler.count("requests", report.routed)


_RUNNERS = {
    "simulate": _run_simulate,
    "serve": _run_serve,
    "serve_checkpoint": _run_serve_checkpoint,
    "daemon": _run_daemon,
    "fleet": _run_fleet,
    "fleet_restart": _run_fleet_restart,
}


def run_scenario(
    name: str,
    repeats: int = 3,
    overrides: dict | None = None,
) -> PerfArtifact:
    """Profile ``repeats`` fresh runs of a scenario; return the median.

    ``overrides`` merge into the scenario config *and therefore change its
    fingerprint* — a quick-scaled run (smaller ``cycles``/``ops``) is a
    different scenario and will not silently compare against full-size
    baselines.
    """
    if name not in SCENARIOS:
        raise KeyError(f"unknown scenario {name!r}; pick from {sorted(SCENARIOS)}")
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    config = dict(SCENARIOS[name])
    if overrides:
        config.update(overrides)
    runner = _RUNNERS[config["kind"]]
    artifacts = []
    for _ in range(repeats):
        profiler = PerfProfiler()
        runner(config, profiler)
        artifacts.append(PerfArtifact.from_profiler(name, profiler, config))
    return median_of(artifacts)


def record_matrix(
    repeats: int = 3,
    scenarios: list[str] | None = None,
    overrides: dict | None = None,
) -> dict[str, PerfArtifact]:
    """Run :func:`run_scenario` over (a subset of) the matrix."""
    names = scenarios if scenarios is not None else sorted(SCENARIOS)
    return {
        name: run_scenario(name, repeats=repeats, overrides=overrides)
        for name in names
    }

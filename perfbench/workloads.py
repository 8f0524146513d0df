"""The benchmark's three workloads.

Each workload is a batch job of fixed input size, generated from the seed:

* ``trace_replay`` replays a mixed trace through the barrier and the
  open-loop memory simulator, under COLOR and LABEL-TREE;
* ``serve_soak`` runs the stack ``pmtree daemon`` builds for a long arrival
  window, shuts it down gracefully and recovers it in a fresh engine;
* ``fleet_heal`` runs a supervised four-shard fleet through two shard kills
  and a whole-fleet crash, then recovers it.

A workload exposes ``build(seed, root)``, which does everything up to the
first cycle or access (the set-up the benchmark times), and
``measure(ctx)``, which runs the timed phase, checks the outputs and returns
one repetition's raw figures (a :class:`Rep`).  Every simulated figure in a
:class:`Rep` is a pure function of the seed.
"""

from __future__ import annotations

import asyncio
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: cycles the daemon pumps between control-plane turns (its default); with
#: a checkpoint every 100 cycles, every fourth pump carries a checkpoint
SOAK_PUMP = 25
#: the supervised fleet's pump: with its 40-cycle checkpoint cadence every
#: fourth pump again carries a checkpoint
FLEET_PUMP = 10
#: recoveries timed per repetition, each from a copy of the same state dir
RECOVERIES = 5

TRACE_REPLAY = {
    "levels": 15,
    "modules": 31,
    "heap_ops": 1500,
    "range_queries": 150,
    "range_selectivity": 0.03,
    "sweep_window": 16,
    "sampled": 1500,
    "mix": "subtree:15=1,path:14=1,level:16=1,composite:24x3=1",
    "arrival_interval": 8,
    # an open-loop item past this many cycles of sojourn missed its deadline
    "sojourn_limit": 32,
    "restarts": 5,
}

SERVE_SOAK = {
    "levels": 10,
    "modules": 7,
    "mapping": None,
    "policy": "greedy-pack",
    "traffic": "poisson",
    "arrival_rate": 0.12,
    "clients": 4,
    "cycles": 25000,
    "workload": "subtree:15=1,path:10=1,level:16=1,composite:16x2=1",
    "queue_capacity": 256,
    "admission": "block",
    "batch_components": 4,
    "deadline": 9,
    "think_time": 0,
    "obs": "telemetry.jsonl",
    "faults": "fail=3@3000:3600,slow=5:3@9000:10500,fail=6@16000:16400",
    "repair": "color",
    "retry_timeout": 24,
    "max_retries": 3,
    "backoff_base": 8,
    "backoff_cap": 128,
    "checkpoint_every": 100,
    "events_capacity": 256,
    "daemon": True,
    # the out-of-band burst the submit feed injects at cycle 0
    "burst": [["subtree", 15, 4], ["path", 10, 4], ["composite", 24, 4]],
    # pumps between two scrapes of /metrics
    "scrape_every": 10,
}

FLEET_HEAL = {
    "shards": 4,
    "router": "affinity",
    "levels": 10,
    "modules": 15,
    "policy": "greedy-pack",
    "cycles": 4000,
    "arrival_rate": 1.2,
    "workload": "subtree:15=1,path:10=1,level:16=1,composite:16x2=1",
    "tenants": 16,
    "tenant_alpha": 1.2,
    "quota": 10,
    "gold_every": 4,
    "gold_deadline": 4,
    "gold_weight": 4.0,
    "kill_shard_at": ["1@1000", "2@2000"],
    "queue_capacity": 256,
    "admission": "block",
    "batch_components": 4,
    "faults": None,
    "repair": "none",
    "retry_timeout": None,
    "max_retries": 3,
    "obs": None,
    "restart_after": 200,
    "restart_budget": 3,
    "checkpoint_every": 40,
}


@dataclass
class Rep:
    """Raw figures of one repetition of a workload."""

    items: int  # tree-node accesses completed in the timed phase
    timed_s: float  # host seconds of the timed phase
    windows: list[tuple[float, float]]  # perf_counter intervals of the work
    pauses: list[float]  # host seconds of each pump (or barrier access)
    sim_cycles: int
    sojourn_p50: float
    sojourn_p99: float
    attempted: int  # operations the correctness checks covered
    failed: int  # modelled failures: shed, refused or past a deadline
    violations: list[str]  # broken correctness checks (empty when correct)
    recover_s: float
    state_bytes: int
    extra: dict = field(default_factory=dict)  # simulated per-layer figures


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def durability_sizes(state_dir: Path) -> dict:
    """Size of the newest snapshot and of all journals under ``state_dir``."""
    snapshots = sorted(state_dir.rglob("snap-*.json"), key=lambda f: f.name)
    journals = state_dir.rglob("journal.jsonl")
    return {
        "durability.snapshot_kb": snapshots[-1].stat().st_size / 1e3,
        "durability.journal_kb": sum(f.stat().st_size for f in journals) / 1e3,
    }


def timed_recoveries(state_dir: Path, recover) -> tuple:
    """Run ``recover()`` :data:`RECOVERIES` times, each from a copy of
    ``state_dir`` as it stands now; return the last ``(report, window,
    *rest)`` and the median seconds."""
    pristine = state_dir.with_name(state_dir.name + "-shutdown")
    shutil.rmtree(pristine, ignore_errors=True)
    shutil.copytree(state_dir, pristine)
    seconds = []
    for i in range(RECOVERIES):
        if i:
            shutil.rmtree(state_dir)
            shutil.copytree(pristine, state_dir)
        result = recover()
        window = result[1]
        seconds.append(window[1] - window[0])
    shutil.rmtree(pristine)
    return result, float(np.median(seconds))


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# -- trace_replay ---------------------------------------------------------------


def make_trace(seed: int, cfg: dict = TRACE_REPLAY):
    """The fixed mixed trace of ``seed`` (heap paths, range queries, a level
    sweep and sampled template instances)."""
    from repro.apps import level_sweep_trace
    from repro.bench.workloads import heap_workload, range_query_workload
    from repro.memory import AccessTrace
    from repro.serve import TemplateMix
    from repro.trees import CompleteBinaryTree

    tree = CompleteBinaryTree(cfg["levels"])
    parts = [
        heap_workload(tree, ops=cfg["heap_ops"], seed=seed),
        range_query_workload(
            tree,
            queries=cfg["range_queries"],
            selectivity=cfg["range_selectivity"],
            seed=seed + 1,
        ),
        level_sweep_trace(tree, window=cfg["sweep_window"]),
    ]
    mix = TemplateMix.parse(tree, cfg["mix"])
    rng = np.random.default_rng(seed + 2)
    sampled = (mix.sample(rng) for _ in range(cfg["sampled"]))
    parts.append(AccessTrace((inst.kind, inst.nodes) for inst in sampled))
    # interleave the parts evenly, each in its own order, so the open-loop
    # replay sees one mixed stream with the large range queries spread out
    keyed = [
        ((i + 0.5) / len(part), p, access)
        for p, part in enumerate(parts)
        for i, access in enumerate(part)
    ]
    keyed.sort(key=lambda entry: entry[:2])
    return AccessTrace(access for _, _, access in keyed)


def trace_cache(root: Path, seed: int) -> Path:
    return root / ".perfbench" / "cache" / f"trace_replay-{seed}.npz"


def prepare_trace(seed: int, root: Path, cfg: dict = TRACE_REPLAY) -> Path:
    """Build and cache the trace of ``seed`` unless it is cached already."""
    path = trace_cache(root, seed)
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.stem + ".tmp.npz")
        make_trace(seed, cfg).save(tmp)
        tmp.replace(path)
    return path


def _replay_systems(trace_path: Path, cfg: dict):
    from repro.core import ColorMapping, LabelTreeMapping
    from repro.memory import AccessTrace, ParallelMemorySystem
    from repro.trees import CompleteBinaryTree

    trace = AccessTrace.load(trace_path)
    tree = CompleteBinaryTree(cfg["levels"])
    mappings = [
        ColorMapping.for_modules(tree, cfg["modules"]),
        LabelTreeMapping(tree, cfg["modules"]),
    ]
    for mapping in mappings:
        mapping.color_array()
    systems = [
        (ParallelMemorySystem(m), ParallelMemorySystem(m, record_latencies=True))
        for m in mappings
    ]
    return trace, systems


def build_trace_replay(seed: int, root: Path, cfg: dict = TRACE_REPLAY) -> dict:
    trace, systems = _replay_systems(prepare_trace(seed, root, cfg), cfg)
    return {"cfg": cfg, "seed": seed, "root": root, "trace": trace, "systems": systems}


def expected_costs(trace, mapping, ports: int = 1, latency: int = 1):
    """The paper's closed form per access: conflicts from
    ``matrix_conflicts`` and barrier cycles ``ceil(max count / ports) *
    latency``, both computed apart from the simulator."""
    from repro.analysis.conflicts import matrix_conflicts

    colors = mapping.color_array()
    M = mapping.num_modules
    accesses = list(trace)
    conflicts = np.empty(len(accesses), dtype=np.int64)
    by_size: dict[int, list[int]] = {}
    for i, (_, nodes) in enumerate(accesses):
        by_size.setdefault(nodes.size, []).append(i)
    for size, idx in by_size.items():
        matrix = np.stack([accesses[i][1] for i in idx])
        conflicts[idx] = matrix_conflicts(colors, matrix, M)
    max_count = conflicts + 1
    cycles = -(-max_count // ports) * latency
    return conflicts, cycles


def measure_trace_replay(ctx: dict) -> Rep:
    cfg, trace = ctx["cfg"], ctx["trace"]
    items = attempted = failed = sim_cycles = 0
    timed = 0.0
    pauses: list[float] = []
    sojourns = []
    violations: list[str] = []
    windows: list[tuple[float, float]] = []
    for barrier, open_loop in ctx["systems"]:
        results = []
        access = barrier.access

        def timed_access(nodes, label="", _access=access, _results=results):
            started = time.perf_counter()
            result = _access(nodes, label)
            pauses.append(time.perf_counter() - started)
            _results.append(result)
            return result

        barrier.access = timed_access
        started = time.perf_counter()
        stats = barrier.run_trace(trace)
        open_stats = open_loop.run_open_loop(trace, cfg["arrival_interval"])
        ended = time.perf_counter()
        timed += ended - started
        windows.append((started, ended))
        del barrier.access

        mapping = barrier.mapping
        name = type(mapping).__name__
        conflicts, cycles = expected_costs(trace, mapping)
        got_conflicts = np.array([r.conflicts for r in results])
        got_cycles = np.array([r.cycles for r in results])
        broken = (got_conflicts != conflicts) | (got_cycles != cycles)
        if broken.any():
            violations.append(
                f"{name}: {int(broken.sum())} barrier accesses break the "
                f"closed form (first at access {int(np.argmax(broken))})"
            )
        if stats.total_cycles != int(cycles.sum()):
            violations.append(f"{name}: barrier total cycles disagree")
        flat = mapping.colors_of(np.concatenate([n for _, n in trace]))
        totals = np.bincount(flat, minlength=mapping.num_modules)
        if (
            open_stats.total_items != trace.total_items
            or open_stats.total_conflicts != int(conflicts.sum())
            or not np.array_equal(open_stats.module_totals, totals)
            or open_loop.last_latencies.size != trace.total_items
        ):
            violations.append(f"{name}: open-loop replay lost or misplaced items")
        lat = open_loop.last_latencies
        sojourns.append(lat)
        items += 2 * trace.total_items
        attempted += len(results) + lat.size
        failed += int(broken.sum()) + int((lat > cfg["sojourn_limit"]).sum())
        sim_cycles += stats.total_cycles + open_stats.total_cycles
    sojourns = np.concatenate(sojourns)

    # the replay's restart path: reload the cached trace, rebuild the systems
    path = trace_cache(ctx["root"], ctx["seed"])
    restarts = []
    for _ in range(cfg["restarts"]):
        started = time.perf_counter()
        _replay_systems(path, cfg)
        restarts.append(time.perf_counter() - started)
    return Rep(
        items=items,
        timed_s=timed,
        windows=windows,
        pauses=pauses,
        sim_cycles=sim_cycles,
        sojourn_p50=float(np.percentile(sojourns, 50)),
        sojourn_p99=float(np.percentile(sojourns, 99)),
        attempted=attempted,
        failed=failed,
        violations=violations,
        recover_s=float(np.median(restarts)),
        state_bytes=path.stat().st_size,
    )


# -- serve_soak -------------------------------------------------------------------


def _soak_engine(cfg: dict):
    from repro.cli import _build_engine

    engine, clients, recorder = _build_engine(cfg)
    feed = clients[-1]  # the SubmitFeed a daemon config appends
    for kind, size, count in cfg["burst"]:
        feed.submit(kind, size, count=count)
    return engine, clients, recorder, feed


def soak_config(seed: int, cfg: dict = SERVE_SOAK) -> dict:
    config = dict(cfg, seed=seed)
    config["faults"] = f"{cfg['faults']},seed={seed}"
    return config


def build_serve_soak(seed: int, root: Path, cfg: dict = SERVE_SOAK) -> dict:
    from repro.host.daemon import ServeDaemon
    from repro.serve import DurableServer

    config = soak_config(seed, cfg)
    state_dir = fresh_dir(root / ".perfbench" / "state" / "serve_soak")
    engine, clients, recorder, feed = _soak_engine(config)
    config_path = state_dir / "config.json"
    config_path.write_text(json.dumps(config, indent=2) + "\n")
    server = DurableServer(
        engine, clients, state_dir, checkpoint_every=config["checkpoint_every"]
    )
    daemon = ServeDaemon(
        server,
        feed,
        config=config,
        config_path=config_path,
        max_cycles=config["cycles"],
        tick_interval=0.0,
        cycles_per_tick=SOAK_PUMP,
    )
    stream = recorder.stream_to(state_dir / config["obs"])
    return {
        "cfg": config,
        "state_dir": state_dir,
        "server": server,
        "daemon": daemon,
        "recorder": recorder,
        "stream": stream,
    }


def soak_daemon_phase(ctx: dict) -> tuple:
    """Pump the daemon to the end of the arrival window, then shut it down.

    Returns ``(report, (start, end), pump pauses)``.  The shutdown request fires
    from a driver hook on the last cycle of the window, so the final
    checkpoint always lands on cycle ``cycles``.
    """
    cfg, server, daemon = ctx["cfg"], ctx["server"], ctx["daemon"]
    recorder = ctx["recorder"]
    driver = server.driver
    horizon = cfg["cycles"]

    def shutdown_at_horizon(engine) -> None:
        if engine.cycle >= horizon:
            daemon.request_shutdown()

    driver.after_step.append(shutdown_at_horizon)
    pauses: list[float] = []
    tick = driver.tick
    state = {"ticks": 0, "started": 0.0}

    def pumped_tick() -> bool:
        n = state["ticks"]
        if n % SOAK_PUMP == 0:
            pump = n // SOAK_PUMP
            if pump and pump % cfg["scrape_every"] == 0:
                recorder.metrics.expose_text()  # a scrape between pumps
            state["started"] = time.perf_counter()
        alive = tick()
        state["ticks"] = n + 1
        if (n + 1) % SOAK_PUMP == 0 or not alive:
            pauses.append(time.perf_counter() - state["started"])
        return alive

    driver.tick = pumped_tick
    started = time.perf_counter()
    try:
        report = asyncio.run(daemon.run())
    finally:
        ctx["stream"].close()
        del driver.tick
    return report, (started, time.perf_counter()), pauses


def soak_recover(cfg: dict, state_dir: Path):
    """Rebuild the engine as a restarted process would and recover it."""
    from repro.serve import DurableServer

    engine, clients, _, _ = _soak_engine(cfg)
    server = DurableServer(
        engine, clients, state_dir, checkpoint_every=cfg["checkpoint_every"]
    )
    started = time.perf_counter()
    report = server.recover()
    return report, (started, time.perf_counter()), server


def measure_serve_soak(ctx: dict) -> Rep:
    from repro.serve.durability import journal_accounting

    cfg, state_dir = ctx["cfg"], ctx["state_dir"]
    daemon_report, daemon_window, pauses = soak_daemon_phase(ctx)
    (report, recover_window, server), recover_s = timed_recoveries(
        state_dir, lambda: soak_recover(cfg, state_dir)
    )
    violations = []
    if report.completed + report.shed != report.arrivals:
        violations.append(
            f"ledger: completed {report.completed} + shed {report.shed} "
            f"!= arrivals {report.arrivals}"
        )
    ledger = journal_accounting(server.journal.records)
    if ledger["double_retired"] or ledger["lost"]:
        violations.append(
            f"journal: {len(ledger['double_retired'])} retired twice, "
            f"{len(ledger['lost'])} lost"
        )
    if server.replayed_records != 0:
        violations.append(
            f"rolling restart replayed {server.replayed_records} records"
        )
    rep = Rep(
        items=daemon_report.completed_items,
        timed_s=daemon_window[1] - daemon_window[0],
        windows=[daemon_window, recover_window],
        pauses=pauses,
        sim_cycles=report.cycles,
        sojourn_p50=report.latency["p50"],
        sojourn_p99=report.latency["p99"],
        attempted=report.arrivals,
        failed=report.shed + report.deadline_misses,
        violations=violations,
        recover_s=recover_s,
        state_bytes=dir_bytes(state_dir),
        extra={
            "serve.wait_p50_cycles": report.wait["p50"],
            "serve.wait_p99_cycles": report.wait["p99"],
            "serve.batch_requests_mean": report.mean_batch_size,
            "serve.batch_conflicts_mean": report.mean_batch_conflicts,
            "serve.rounds_per_request": report.mean_rounds_per_request,
            "serve.retries": report.retries,
            "serve.timeouts": report.timeouts,
            "durability.replayed_records": server.replayed_records,
            "obs.evicted": ctx["recorder"].evicted,
            **durability_sizes(state_dir),
        },
    )
    shutil.rmtree(state_dir, ignore_errors=True)
    return rep


# -- fleet_heal -------------------------------------------------------------------


def build_fleet_heal(seed: int, root: Path, cfg: dict = FLEET_HEAL) -> dict:
    from repro.cli import _build_fleet
    from repro.fleet import FleetSupervisor

    config = dict(cfg, seed=seed)
    state_dir = fresh_dir(root / ".perfbench" / "state" / "fleet_heal")
    coordinator, population, _, factory = _build_fleet(config)
    supervisor = FleetSupervisor(
        coordinator,
        factory=factory,
        state_dir=state_dir,
        checkpoint_every=config["checkpoint_every"],
        restart_after=config["restart_after"],
        restart_budget=config["restart_budget"],
        crash_at=config["cycles"],
    )
    return {
        "cfg": config,
        "state_dir": state_dir,
        "supervisor": supervisor,
        "clients": population.clients,
    }


def fleet_supervised_phase(ctx: dict) -> tuple[tuple[float, float], list[float]]:
    """Drive the fleet in pumps until the crash at the end of the window."""
    from repro.serve import SimulatedCrash

    cfg, supervisor = ctx["cfg"], ctx["supervisor"]
    pauses: list[float] = []
    started = time.perf_counter()
    supervisor.start(ctx["clients"], cfg["cycles"])
    try:
        while True:
            pump_started = time.perf_counter()
            for _ in range(FLEET_PUMP):
                if not supervisor.step():
                    raise RuntimeError("the fleet ended before its planned crash")
            pauses.append(time.perf_counter() - pump_started)
    except SimulatedCrash:
        pass
    return (started, time.perf_counter()), pauses


def fleet_recover(cfg: dict, state_dir: Path):
    from repro.cli import _build_fleet
    from repro.fleet import FleetSupervisor

    coordinator, population, _, factory = _build_fleet(cfg)
    supervisor = FleetSupervisor(
        coordinator,
        factory=factory,
        state_dir=state_dir,
        checkpoint_every=cfg["checkpoint_every"],
        restart_after=cfg["restart_after"],
        restart_budget=cfg["restart_budget"],
    )
    started = time.perf_counter()
    report = supervisor.recover(population.clients)
    return report, (started, time.perf_counter())


def measure_fleet_heal(ctx: dict) -> Rep:
    cfg, state_dir = ctx["cfg"], ctx["state_dir"]
    window, pauses = fleet_supervised_phase(ctx)
    (report, recover_window), recover_s = timed_recoveries(
        state_dir, lambda: fleet_recover(cfg, state_dir)
    )
    violations = []
    shed = report.quota_shed + report.shard_shed + report.fleet_shed
    if report.completed + shed != report.arrivals:
        violations.append(
            f"ledger: completed {report.completed} + quota_shed "
            f"{report.quota_shed} + shard_shed {report.shard_shed} + "
            f"fleet_shed {report.fleet_shed} != arrivals {report.arrivals}"
        )
    misses = sum(row["deadline_misses"] for row in (report.classes or {}).values())
    rep = Rep(
        items=report.completed_items,
        timed_s=window[1] - window[0] + recover_window[1] - recover_window[0],
        windows=[window, recover_window],
        pauses=pauses,
        sim_cycles=report.cycles,
        sojourn_p50=report.latency["p50"],
        sojourn_p99=report.latency["p99"],
        attempted=report.arrivals,
        failed=shed + misses,
        violations=violations,
        recover_s=recover_s,
        state_bytes=dir_bytes(state_dir),
        extra={
            "fleet.restarts": report.restarts,
            "fleet.rerouted": report.rerouted,
            **durability_sizes(state_dir),
        },
    )
    shutil.rmtree(state_dir, ignore_errors=True)
    return rep


WORKLOADS = {
    "trace_replay": (build_trace_replay, measure_trace_replay),
    "serve_soak": (build_serve_soak, measure_serve_soak),
    "fleet_heal": (build_fleet_heal, measure_fleet_heal),
}


"""The spec tables agree with the CLI, and omitted keys mean the defaults.

``config.json`` persists exactly the keys of :data:`repro.spec.SERVE` or
:data:`repro.spec.FLEET`, and ``pmtree recover`` rebuilds a run from it, so
a flag missing from its table would silently change a recovered run.
"""

import argparse

import pytest

from repro import spec
from repro.bench.perf import SCENARIOS
from repro.cli import _build_parser
from repro.serve import diff_reports

#: flags that steer one invocation (where state lives, the crash harness,
#: the control plane's address and pacing) rather than the run itself
RUN_CONTROL = {
    "state_dir",
    "shard_state_dir",
    "crash_at",
    "crash_mode",
    "host",
    "port",
    "tick_interval",
    "cycles_per_tick",
}


def _subparser(name: str) -> argparse.ArgumentParser:
    parser = _build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices[name]


def _dests(name: str) -> set[str]:
    return {a.dest for a in _subparser(name)._actions if a.dest != "help"}


def test_serve_table_holds_every_serve_and_daemon_flag():
    flags = (_dests("serve") | _dests("daemon")) - RUN_CONTROL
    # ``daemon`` is set by the daemon command itself, not by a flag
    assert set(spec.SERVE) == flags | {"daemon"}


def test_fleet_table_holds_every_fleet_flag():
    assert set(spec.FLEET) == _dests("fleet") - RUN_CONTROL


@pytest.mark.parametrize(
    "argv, table, changed",
    [
        (["serve"], spec.SERVE, {}),
        (
            ["daemon", "--state-dir", "x"],
            spec.SERVE,
            {"daemon": True, "events_capacity": 65536},
        ),
        (["fleet"], spec.FLEET, {}),
    ],
)
def test_flag_defaults_come_from_the_table(argv, table, changed):
    args = _build_parser().parse_args(argv)
    assert spec.resolve(vars(args), table) == {**table, **changed}


def _argv(command: str, config: dict) -> list[str]:
    argv = [command]
    for key, value in config.items():
        if key == "kind":
            continue
        argv += [f"--{key.replace('_', '-')}", str(value)]
    return argv


@pytest.mark.parametrize("name", ["serve", "serve_faults", "serve_checkpoint"])
def test_serve_scenario_builds_the_cli_run(name):
    """A perf scenario omits most keys; the CLI spells every one out."""
    scenario = dict(SCENARIOS[name], cycles=300)
    args = _build_parser().parse_args(_argv("serve", scenario))
    spelled = spec.resolve(vars(args), spec.SERVE)
    assert set(scenario) - {"kind"} < set(spelled)
    reports = []
    for config in (scenario, spelled):
        engine, clients, _ = spec.serve(config)
        reports.append(engine.run(clients, max_cycles=config["cycles"]))
    assert diff_reports(*reports) == []


def test_fleet_scenario_builds_the_cli_run():
    scenario = dict(SCENARIOS["fleet"], cycles=200)
    args = _build_parser().parse_args(_argv("fleet", scenario))
    spelled = spec.resolve(vars(args), spec.FLEET)
    reports = []
    for config in (scenario, spelled):
        coordinator, population, _, _ = spec.fleet(config)
        reports.append(coordinator.run(population.clients, config["cycles"]))
    assert diff_reports(*reports) == []


def test_resolve_drops_unknown_keys_and_keeps_explicit_none():
    config = spec.resolve({"kind": "serve", "retry_timeout": None, "seed": 3}, spec.SERVE)
    assert "kind" not in config
    assert config["retry_timeout"] is None
    assert config["seed"] == 3
    assert config["levels"] == spec.SERVE["levels"]


def test_fleet_factory_gives_each_restart_a_fresh_fault_schedule():
    config = {
        "shards": 2,
        "levels": 6,
        "modules": 5,
        "workload": "path:4=1",
        "faults": "drop=0.5@0:50,seed=4",
    }
    coordinator, _, _, factory = spec.fleet(config)
    first, again = factory(1), factory(1)
    a, b = first.system._fault_schedule, again.system._fault_schedule
    assert a is not b
    assert a.windows == b.windows and a.seed == b.seed
    # the two shards draw independent drop lotteries from one spec
    assert coordinator.shards[0].system._fault_schedule.seed != a.seed

"""The simulator's closed forms against the cycle loop they replace.

``ParallelMemorySystem`` answers a barrier access, a pipelined drain and an
open-loop replay in closed form whenever ``_start_run`` finds the closed
form equal to the cycle loop.  The loop stays as the reference: here an
oracle system whose ``_start_run`` always answers ``False`` runs the
same work through the loop, and every observable — results, per-request
latencies in issue order, per-module counters and port clocks, the lifetime
clock, the round-robin pointer and the profiler's spans and cycle counter —
must match, across repeated runs on one system.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ColorMapping, LabelTreeMapping, ModuloMapping, RandomMapping
from repro.memory import (
    AccessTrace,
    Crossbar,
    Interconnect,
    MultiBus,
    ParallelMemorySystem,
    SharedBus,
)
from repro.obs import EventRecorder
from repro.obs.perf import PerfProfiler
from repro.trees import CompleteBinaryTree



class PortCrossbar(Interconnect):
    """A crossbar wired to every port: ``M * ports`` requests per cycle, so
    multi-ported modules may take the closed forms too."""

    name = "port-crossbar"

    def __init__(self, ports: int):
        self.ports = ports

    def issue_limit(self, num_modules: int) -> int:
        return num_modules * self.ports


TREE = CompleteBinaryTree(7)
INTERCONNECTS = {
    "crossbar": lambda ports: Crossbar(),
    "port-crossbar": PortCrossbar,
    "multibus": lambda ports: MultiBus(2),
    "bus": lambda ports: SharedBus(),
}


@lru_cache(maxsize=None)
def _mapping(kind: str, M: int):
    if kind == "color":
        return ColorMapping.for_modules(TREE, M)
    if kind == "labeltree":
        return LabelTreeMapping(TREE, M)
    return RandomMapping(TREE, M, seed=M)


def _system(mapping, interconnect, latency, ports, record) -> ParallelMemorySystem:
    return ParallelMemorySystem(
        mapping,
        interconnect=INTERCONNECTS[interconnect](ports),
        module_latency=latency,
        module_ports=ports,
        record_latencies=record,
        profiler=PerfProfiler(calibrate=False),
    )


def _trace(*accesses) -> AccessTrace:
    return AccessTrace((f"op{i % 3}", np.asarray(n)) for i, n in enumerate(accesses))


def _oracle(*args) -> ParallelMemorySystem:
    """A system pinned to the cycle loop."""
    pms = _system(*args)
    start_run = pms._start_run
    pms._start_run = lambda single_port=False: start_run(single_port) and False
    return pms


def _run(pms: ParallelMemorySystem, trace: AccessTrace, mode):
    if mode == "access":
        results = [pms.access(nodes, label) for label, nodes in trace]
        return [
            (r.cycles, r.conflicts, r.module_counts.tolist(), r.size, r.label)
            for r in results
        ]
    if mode == "barrier":
        stats = pms.run_trace(trace)
    elif mode == "pipelined":
        stats = pms.run_trace(trace, pipelined=True)
    else:
        stats = pms.run_open_loop(trace, arrival_interval=mode)
    return (
        stats.num_accesses,
        stats.total_items,
        stats.total_cycles,
        stats.total_conflicts,
        stats.max_conflicts,
        None if stats.module_totals is None else stats.module_totals.tolist(),
        stats.per_label_cycles,
        stats.per_label_accesses,
    )


def _observe(pms: ParallelMemorySystem) -> dict:
    latencies = pms.last_latencies
    return {
        "last_latencies": None if latencies is None else latencies.tolist(),
        "latencies_dtype": None if latencies is None else latencies.dtype,
        "modules": [
            (
                mod.served,
                mod.busy_cycles,
                mod.max_queue_depth,
                list(mod._port_free),
                len(mod.queue),
            )
            for mod in pms.modules
        ],
        "clock": pms.clock,
        "rr_start": pms._rr_start,
        "spans": {
            name: row["calls"] for name, row in pms.profiler.phase_table().items()
        },
        "counters": dict(pms.profiler.counters),
    }


traces = st.lists(
    st.lists(
        st.integers(min_value=0, max_value=TREE.num_nodes - 1),
        min_size=1,
        max_size=24,
    ),
    min_size=1,
    max_size=10,
)
modes = st.lists(
    st.one_of(
        st.sampled_from(["access", "barrier", "pipelined"]),
        st.integers(min_value=1, max_value=8),
    ),
    min_size=1,
    max_size=4,
)


class TestClosedFormMatchesLoop:
    @settings(max_examples=150, deadline=None)
    @given(
        trace_lists=traces,
        M=st.sampled_from([3, 5, 7, 15]),
        kind=st.sampled_from(["color", "labeltree", "random"]),
        latency=st.integers(min_value=1, max_value=3),
        ports=st.integers(min_value=1, max_value=3),
        interconnect=st.sampled_from(sorted(INTERCONNECTS)),
        record=st.booleans(),
        runs=modes,
    )
    def test_every_observable_matches(
        self, trace_lists, M, kind, latency, ports, interconnect, record, runs
    ):
        trace = _trace(*trace_lists)
        config = (_mapping(kind, M), interconnect, latency, ports, record)
        fast, oracle = _system(*config), _oracle(*config)
        for mode in runs:  # state carried across calls must match too
            assert _run(fast, trace, mode) == _run(oracle, trace, mode)
            assert _observe(fast) == _observe(oracle)

    @pytest.mark.parametrize(
        "interconnect, ports",
        [("crossbar", 1), ("port-crossbar", 2), ("port-crossbar", 3)],
    )
    @pytest.mark.parametrize("latency", [1, 2, 3])
    def test_crossbar_takes_the_closed_forms(self, latency, interconnect, ports):
        """Where the interconnect never binds, no mode steps a single cycle."""
        pms = _system(_mapping("labeltree", 7), interconnect, latency, ports, True)

        def never(*args):
            raise AssertionError("the cycle loop ran")

        pms.issue_cycle = never
        trace = _trace(np.arange(40), np.arange(0, 120, 3), np.arange(5))
        pms.run_trace(trace)
        pms.run_trace(trace, pipelined=True)
        if ports == 1:
            pms.run_open_loop(trace, arrival_interval=2)

    def test_open_loop_with_long_queues(self):
        """Arrivals outpace service: sojourns and queue depths grow."""
        trace = _trace(*[np.arange(i, TREE.num_nodes, 9) for i in range(9)] * 3)
        config = (_mapping("color", 5), "crossbar", 2, 1, True)
        fast, oracle = _system(*config), _oracle(*config)
        assert _run(fast, trace, 1) == _run(oracle, trace, 1)
        assert _observe(fast) == _observe(oracle)
        assert max(mod.max_queue_depth for mod in fast.modules) > 20

    @pytest.mark.parametrize("sizes", [(5, 0, 0), (0, 0), ()])
    def test_open_loop_counts_cycles_through_empty_accesses(self, sizes):
        """The loop keeps stepping until the last arrival, items or not."""
        accesses = [(f"op{i}", np.arange(size)) for i, size in enumerate(sizes)]
        config = (_mapping("color", 5), "crossbar", 1, 1, True)
        fast, oracle = _system(*config), _oracle(*config)
        assert _run(fast, accesses, 3) == _run(oracle, accesses, 3)
        assert _observe(fast) == _observe(oracle)


class TestEligibility:
    """Where the closed form would be wrong, the system must take the loop."""

    @staticmethod
    def _nodes_with_counts(M: int, counts: list[int]) -> np.ndarray:
        """Heap ids whose ``v mod M`` colors hit module ``m`` ``counts[m]`` times."""
        nodes = [np.arange(m, M * c, M)[:c] for m, c in enumerate(counts)]
        return np.concatenate(nodes)

    def test_ports_times_modules_bounds_the_crossbar(self):
        """M=5, ports=3: the crossbar's limit of 5 binds before the ports do.

        Module counts [9, 17, 4, 0, 0] would cost ceil(17 / 3) = 6 cycles
        if every module could use all its ports every cycle, but only 5
        requests cross the crossbar per cycle and the loop takes 8.
        """
        mapping = ModuloMapping(TREE, 5)
        nodes = self._nodes_with_counts(5, [9, 17, 4, 0, 0])
        fast = _system(mapping, "crossbar", 1, 3, True)
        oracle = _oracle(mapping, "crossbar", 1, 3, True)
        assert not fast._start_run()
        assert fast.access(nodes).module_counts.tolist() == [9, 17, 4, 0, 0]
        assert fast.last_latencies.max() == 8
        assert oracle.access(nodes).cycles == 8
        assert _observe(fast) == _observe(oracle)

    @pytest.mark.parametrize("interconnect", ["multibus", "bus"])
    @pytest.mark.parametrize("ports", [1, 2])
    def test_narrow_interconnects_always_loop(self, interconnect, ports):
        mapping = ModuloMapping(TREE, 5)
        fast = _system(mapping, interconnect, 1, ports, True)
        assert not fast._start_run()
        assert not fast._start_run(single_port=True)
        oracle = _oracle(mapping, interconnect, 1, ports, True)
        trace = _trace(np.arange(12), np.arange(3, 40, 2))
        for mode in ("access", "pipelined", 2):
            assert _run(fast, trace, mode) == _run(oracle, trace, mode)
            assert _observe(fast) == _observe(oracle)

    def test_multiport_open_loop_loops(self):
        assert not _system(ModuloMapping(TREE, 5), "crossbar", 1, 2, False)._start_run()
        pms = _system(ModuloMapping(TREE, 5), "port-crossbar", 1, 2, False)
        assert pms._start_run()
        assert not pms._start_run(single_port=True)

    def test_perturbations_decline(self):
        mapping = ModuloMapping(TREE, 5)
        assert _system(mapping, "crossbar", 1, 1, False)._start_run()
        recorded = ParallelMemorySystem(mapping, recorder=EventRecorder())
        assert not recorded._start_run()
        failed = ParallelMemorySystem(mapping)
        failed.modules[2].failed = True
        assert not failed._start_run()
        slow = ParallelMemorySystem(mapping)
        slow.modules[4].latency = 3
        assert not slow._start_run()
        queued = ParallelMemorySystem(mapping)
        queued.modules[0].enqueue(0, 0)
        assert not queued._start_run()

"""Unit tests for multi-ported memory modules."""

import pytest

from repro.core import ColorMapping, ModuloMapping
from repro.memory import MemoryModule, ParallelMemorySystem
from repro.templates import PTemplate


class TestModulePorts:
    def test_dual_port_serves_two_per_cycle(self):
        mod = MemoryModule(module_id=0, ports=2)
        for i in range(4):
            mod.enqueue(i, i)
        assert mod.step(0) is not None
        assert mod.step(0) is not None
        assert mod.step(0) is None  # both ports busy
        assert mod.step(1) is not None

    def test_ports_with_latency(self):
        mod = MemoryModule(module_id=0, ports=2, latency=3)
        for i in range(3):
            mod.enqueue(i, i)
        assert mod.step(0) is not None and mod.step(0) is not None
        assert mod.step(1) is None and mod.step(2) is None
        assert mod.step(3) is not None

    def test_invalid_ports(self):
        with pytest.raises(ValueError):
            MemoryModule(module_id=0, ports=0)


class TestSystemPorts:
    def test_dual_ported_banks_halve_conflict_rounds(self, tree12):
        """Hardware ports are an alternative to a better mapping."""
        mapping = ModuloMapping(tree12, 7)
        nodes = PTemplate(7).instance_at(tree12, 200).nodes
        single = ParallelMemorySystem(mapping).access(nodes)
        dual = ParallelMemorySystem(mapping, module_ports=2).access(nodes)
        if single.conflicts > 0:
            assert dual.cycles < single.cycles
            assert dual.cycles >= -(-single.cycles // 2)

    def test_cf_mapping_gains_nothing_from_ports(self, tree12):
        """Conflict-free accesses are already one round: ports are wasted."""
        mapping = ColorMapping.max_parallelism(tree12, 3)
        nodes = PTemplate(7).instance_at(tree12, 100).nodes
        single = ParallelMemorySystem(mapping).access(nodes)
        dual = ParallelMemorySystem(mapping, module_ports=2).access(nodes)
        if single.conflicts == 0:
            assert dual.cycles == single.cycles == 1

    def test_trace_totals_consistent(self, tree12):
        mapping = ModuloMapping(tree12, 7)
        fam = PTemplate(7)
        from repro.memory import AccessTrace

        trace = AccessTrace()
        for i in range(0, fam.count(tree12), 211):
            trace.add_instance(fam.instance_at(tree12, i))
        pms = ParallelMemorySystem(mapping, module_ports=2)
        stats = pms.run_trace(trace)
        assert stats.total_items == trace.total_items
        assert sum(m.served for m in pms.modules) == trace.total_items

"""The parallel memory system simulator.

The paper's abstract machine: ``M`` memory modules that can each serve one
request per cycle, fed through an interconnect; simultaneous requests to one
module queue up (a *memory conflict*).  Binding a
:class:`~repro.core.mapping.TreeMapping` to the system turns tree-node
accesses into module requests.

Two replay modes:

* **barrier** (default) — each template access completes before the next
  starts; per-access cycles = serialized rounds (on a crossbar with unit
  latency: ``conflicts + 1``, exactly the paper's cost model);
* **pipelined** — all accesses are enqueued up front and the array drains;
  measures throughput, where load balance (Theorem 7) matters more than
  per-access conflicts.

Open-loop replay (:meth:`ParallelMemorySystem.run_open_loop`) feeds accesses
at a fixed arrival interval instead.  Every mode steps its cycles through one
issue kernel, :meth:`ParallelMemorySystem.issue_cycle`, which the serving
engine shares.  When nothing can perturb the schedule (see
:meth:`ParallelMemorySystem._start_run`), the three modes skip the loop and
take exact closed forms.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.core.mapping import TreeMapping
from repro.memory.interconnect import Crossbar, Interconnect
from repro.memory.module import MemoryModule
from repro.memory.stats import AccessResult, TraceStats
from repro.memory.trace import AccessTrace
from repro.obs.events import NullRecorder, default_recorder
from repro.obs.perf import NULL_PROFILER, NullProfiler

__all__ = ["ParallelMemorySystem"]


def _fifo_issue_cycles(
    module: np.ndarray, arrival: np.ndarray, first: np.ndarray, latency: int
) -> np.ndarray:
    """Issue cycle of every request on single-port FIFO modules.

    Requests come grouped by module (module ``m``'s run starts at
    ``first[m]``), each run in arrival order.  A module issues its ``k``-th
    request at ``issue_k = max(arrival_k, issue_{k-1} + latency)`` (Lindley's
    recursion), so ``issue_k - k * latency`` is the running maximum of
    ``arrival_j - j * latency``: one ``np.maximum.accumulate`` for all
    modules, once each run is lifted above the one before it.
    """
    offset = np.arange(module.size, dtype=np.int64)
    offset -= first[module]
    offset *= latency  # k * latency, k the rank within the module's run
    lift = module * (int(arrival.max()) + module.size * latency + 1)
    issue = arrival - offset
    issue += lift
    np.maximum.accumulate(issue, out=issue)
    issue -= lift
    issue += offset
    return issue


def _fifo_queue_depths(
    module: np.ndarray, arrival: np.ndarray, issue: np.ndarray
) -> np.ndarray:
    """Queue length each request finds on enqueue, itself included: the
    requests of its module up to it that have not issued before it arrives
    (issues within a run strictly increase, so they are a suffix)."""
    lift = module * (int(issue.max()) + 1)
    keys = issue + lift
    lift += arrival
    return np.arange(1, module.size + 1) - np.searchsorted(keys, lift)


def _access_result(
    counts: np.ndarray, size: int, label: str, cycles: int = 0
) -> AccessResult:
    """One access's record from its per-module request ``counts``; ``cycles``
    stays 0 for an access that shares its run with others (pipelined and
    open-loop replay), whose cycles only the whole trace has."""
    return AccessResult(
        cycles=cycles,
        conflicts=int(counts.max() - 1),
        module_counts=counts,
        size=size,
        label=label,
    )


class ParallelMemorySystem:
    """``M`` queued memory modules behind an interconnect, bound to a mapping.

    Pass ``recorder=EventRecorder()`` (see :mod:`repro.obs`) to capture
    cycle-level telemetry; the default is the shared null recorder (or
    whatever :func:`repro.obs.install` made the process default), which
    keeps the simulation loop free of event construction.
    """

    def __init__(
        self,
        mapping: TreeMapping,
        interconnect: Interconnect | None = None,
        module_latency: int = 1,
        module_ports: int = 1,
        record_latencies: bool = False,
        recorder: NullRecorder | None = None,
        profiler: NullProfiler | None = None,
    ):
        self.mapping = mapping
        self.interconnect = interconnect or Crossbar()
        self.num_modules = mapping.num_modules
        self.recorder = recorder if recorder is not None else default_recorder()
        self.modules = [
            MemoryModule(
                module_id=i,
                latency=module_latency,
                ports=module_ports,
                recorder=self.recorder,
            )
            for i in range(self.num_modules)
        ]
        self.record_latencies = record_latencies
        #: wall-clock span profiler (see :mod:`repro.obs.perf`): the drain
        #: loops run under a ``drain`` / ``open_loop`` span and count
        #: simulated cycles; the default null profiler is a free no-op
        self.profiler = profiler if profiler is not None else NULL_PROFILER
        #: per-request completion cycles of the most recent drain (1-based),
        #: populated only when ``record_latencies`` is set
        self.last_latencies: np.ndarray | None = None
        self._rr_start = 0  # round-robin pointer for issue-limited interconnects
        self._access_index = -1  # running access number for telemetry
        #: lifetime cycle counter (drives an attached fault schedule)
        self.clock = 0
        self._fault_schedule = None
        self._fault_transitions: list = []
        self._fault_idx = 0
        self._drop_prob = 0.0
        self._drop_rng: np.random.Generator | None = None
        self.dropped = 0  # requests lost to transient drop windows
        if self.recorder.enabled:
            self.recorder.set_meta(
                num_modules=self.num_modules,
                interconnect=self.interconnect.name,
                module_latency=module_latency,
                module_ports=module_ports,
                mapping=type(mapping).__name__,
            )

    # -- dynamic faults --------------------------------------------------------

    def attach_faults(self, schedule) -> None:
        """Attach a :class:`~repro.memory.faults.FaultSchedule`.

        Windows are applied as the system's lifetime ``clock`` (barrier
        replay) or the run's own cycle counter (pipelined / open-loop /
        serving) passes their edges; :meth:`reset` re-arms the schedule
        from cycle 0.  Each applied edge emits a ``fault_inject`` /
        ``fault_recover`` event when a recorder is enabled.

        A schedule whose :attr:`~repro.memory.faults.FaultSchedule.cursor`
        has already advanced (restored via :func:`repro.io.load_faults` or
        :meth:`~repro.memory.faults.FaultSchedule.restore_runtime`) resumes
        mid-window: the effects of the already-applied transitions are
        installed silently (no telemetry — those events were emitted by the
        original run) and stepping continues from the cursor.
        """
        schedule.validate_against(self.num_modules)
        self._fault_schedule = schedule
        self._fault_transitions = schedule.transitions()
        self._drop_prob = 0.0
        # the schedule owns the drop lottery so its position survives
        # save/restore round-trips; the system just draws from it
        self._drop_rng = schedule.rng
        self._fault_idx = schedule.cursor
        for _, edge, window in self._fault_transitions[: self._fault_idx]:
            self._apply_transition_effect(window, edge == "start")
        if self.recorder.enabled:
            self.recorder.set_meta(
                fault_windows=len(schedule.windows), fault_seed=schedule.seed
            )

    @property
    def fault_schedule(self):
        return self._fault_schedule

    def failed_modules(self) -> frozenset[int]:
        """Modules currently failed (empty when no faults are active)."""
        return frozenset(
            mod.module_id for mod in self.modules if mod.failed
        )

    def _apply_transition_effect(self, window, starting: bool) -> None:
        """Install one fault edge's effect on the array (no telemetry)."""
        if window.kind == "fail":
            self.modules[window.module].failed = starting
        elif window.kind == "slow":
            mod = self.modules[window.module]
            if starting:
                mod.latency = window.latency
            else:
                mod.restore_latency()
        else:  # drop
            self._drop_prob = window.drop_prob if starting else 0.0

    def advance_faults(self, now: int, emit_cycle: int | None = None) -> None:
        """Apply every scheduled fault edge with ``cycle <= now``.

        ``emit_cycle`` overrides the cycle stamped on telemetry events (the
        barrier drain counts locally while the schedule runs on the
        lifetime clock; everywhere else the two coincide).
        """
        if self._fault_schedule is None:
            return
        transitions = self._fault_transitions
        rec = self.recorder
        stamp = now if emit_cycle is None else emit_cycle
        while self._fault_idx < len(transitions):
            cycle, edge, window = transitions[self._fault_idx]
            if cycle > now:
                break
            self._fault_idx += 1
            starting = edge == "start"
            self._apply_transition_effect(window, starting)
            if rec.enabled:
                fields = {"cycle": stamp, "kind": window.kind}
                if window.kind == "drop":
                    fields["drop_prob"] = window.drop_prob
                else:
                    fields["module"] = window.module
                if window.kind == "slow":
                    fields["latency"] = window.latency
                rec.event("fault_inject" if starting else "fault_recover", **fields)
        self._fault_schedule.cursor = self._fault_idx

    def _faults_pending_after(self, now: int) -> bool:
        """Whether the schedule still holds edges strictly after ``now``."""
        transitions = self._fault_transitions
        return self._fault_idx < len(transitions) and any(
            cycle > now for cycle, _, _ in transitions[self._fault_idx :]
        )

    def maybe_drop(self, mod, served, cycle: int) -> bool:
        """Transient-drop lottery for a just-served request.

        Inside a ``drop`` window each service loses its result with the
        window's probability: the request re-queues at the tail of the same
        module (the port time it consumed is genuinely wasted) and a
        ``fault_drop`` event is emitted.  Returns ``True`` when dropped.
        """
        if self._drop_prob <= 0.0 or self._drop_rng is None:
            return False
        if self._drop_rng.random() >= self._drop_prob:
            return False
        mod.queue.append(served)
        self.dropped += 1
        if self.recorder.enabled:
            self.recorder.event(
                "fault_drop", cycle=cycle, module=mod.module_id, tag=served[0]
            )
        return True

    def _check_fault_deadlock(self, now: int) -> None:
        """Raise when pending work can never be served.

        All queue-holding modules are failed and the schedule has no future
        edges, so no recovery (and no upstream retry — this is the raw
        replay path) can ever drain the queues.
        """
        blocked = [mod for mod in self.modules if mod.queue]
        if (
            blocked
            and all(mod.failed for mod in blocked)
            and not self._faults_pending_after(now)
        ):
            dead = sorted(mod.module_id for mod in blocked)
            raise RuntimeError(
                f"drain stuck at cycle {now}: modules {dead} hold pending "
                f"requests but are failed with no scheduled recovery"
            )

    # -- the issue kernel ------------------------------------------------------

    def issue_cycle(self, cycle: int, base: int, pending: int, on_complete) -> tuple[int, int]:
        """One cycle of round-robin issue under the interconnect's limit.

        The single issue kernel behind every run loop: the barrier and
        pipelined drains, the open loop and the serving engine.  Modules
        are scanned from ``(base + cycle) % M`` — fair round-robin, so a
        narrow interconnect does not starve high-numbered banks — and each
        may issue until its free ports or the cycle's issue budget run out.
        ``pending`` is the number of queued requests (stamped on
        interconnect ``stall`` events).  Every issued request that is not
        lost to a drop window calls ``on_complete(module, request,
        completion_cycle)``; returns ``(issued, pending)`` after the cycle.
        """
        modules = self.modules
        num = self.num_modules
        limit = self.interconnect.issue_limit(num)
        rec = self.recorder
        recording = rec.enabled
        if recording:
            for mod in modules:
                if mod.queue:
                    rec.event(
                        "queue_depth",
                        cycle=cycle,
                        module=mod.module_id,
                        depth=len(mod.queue),
                    )
        issued = 0
        for off in range(num):
            if issued >= limit:
                if recording and pending:
                    rec.event(
                        "stall", cycle=cycle, where="interconnect", pending=pending
                    )
                break
            mod = modules[(base + cycle + off) % num]
            while issued < limit:
                served = mod.step(cycle)
                if served is None:
                    break
                issued += 1
                if self.maybe_drop(mod, served, cycle):
                    continue  # lost in flight; re-queued for another go
                pending -= 1
                on_complete(mod, served, cycle + mod.latency)
        return issued, pending

    # -- closed forms ------------------------------------------------------------

    def _start_run(self, single_port: bool = False) -> bool:
        """Zero every port clock for a run that counts cycles from 0, and say
        whether the run may take a closed form instead of the cycle loop.

        The closed forms equal the loop exactly when nothing can perturb its
        schedule: no enabled recorder (the loop's events), no fault
        schedule, drop window or failed module, no request already queued,
        one latency and one port count across the array, and an
        interconnect that never binds (``issue_limit >= M * ports``, so
        every module may issue on every free port every cycle).  The open
        loop also needs ``single_port``: with several ports the
        lowest-free-port choice makes the final port clocks depend on the
        whole schedule.
        """
        modules = self.modules
        latency, ports = modules[0].latency, modules[0].ports
        closed = not (
            self.recorder.enabled
            or self._fault_schedule is not None
            or self._drop_prob
            or (single_port and ports != 1)
            or self.interconnect.issue_limit(self.num_modules) < self.num_modules * ports
        )
        for mod in modules:
            mod._port_free = [0] * mod.ports  # reset_clock(), inlined: runs per access
            if closed and (
                mod.failed or mod.queue or mod.latency != latency or mod.ports != ports
            ):
                closed = False
        return closed

    def _drain_closed_form(self, counts: np.ndarray) -> tuple[int, int]:
        """The loop drain of ``counts[m]`` requests loaded on module ``m`` at
        cycle 0, without stepping a cycle; returns ``(last completion, loop
        cycles)``.

        Only valid where :meth:`_start_run` allows it.  Module ``m`` then
        issues ``ports`` requests every ``latency`` cycles, so the drain
        costs ``ceil(max(counts) / ports) * latency`` — on a unit-latency
        crossbar the paper's ``conflicts + 1`` rounds.  The loop itself runs
        ``(rounds - 1) * latency + 1`` cycles (it stops right after the last
        issue), which is what advances ``clock``.  Only the modules the
        drain touches are updated; :meth:`_start_run` has zeroed every port
        clock.
        """
        modules = self.modules
        latency, ports = modules[0].latency, modules[0].ports
        touched = np.flatnonzero(counts)
        loads = counts[touched]
        rounds = -(-int(loads.max()) // ports) if touched.size else 0
        for m, load in zip(touched.tolist(), loads.tolist()):
            mod = modules[m]
            mod.served += load
            mod.busy_cycles += load * latency
            if load > mod.max_queue_depth:
                mod.max_queue_depth = load
            if ports == 1:
                mod._port_free = [load * latency]
            else:
                last = (load - 1) // ports  # the module's final round
                used = load - last * ports  # ports busy in that round
                mod._port_free = [(last + 1) * latency] * used + [
                    last * latency
                ] * (ports - used)
        if self.record_latencies:
            # every request issued in round r completes at (r + 1) * latency
            per_round = np.clip(
                loads - ports * np.arange(rounds)[:, None], 0, ports
            ).sum(axis=1)
            self.last_latencies = np.repeat(
                latency * np.arange(1, rounds + 1, dtype=np.int64), per_round
            )
        cycles = (rounds - 1) * latency + 1 if rounds else 0
        self.clock += cycles
        return rounds * latency, cycles

    def _open_loop_closed_form(
        self, accesses: list, arrival_interval: int, stats: TraceStats, start: int
    ) -> tuple[int, int]:
        """The open loop as a per-module FIFO Lindley recursion; returns
        ``(last completion, loop cycles)``.

        Only valid where ``_start_run(single_port=True)`` allows it: each
        module then serves its requests in arrival order, one at a time (see
        :func:`_fifo_issue_cycles`).  ``last_latencies`` is ordered as the
        loop issues: by cycle, then by the cycle's rotated module scan.
        """
        modules = self.modules
        num = self.num_modules
        latency = modules[0].latency
        arrays = [np.asarray(nodes, dtype=np.int64) for _, nodes in accesses]
        sizes = np.array([nodes.size for nodes in arrays], dtype=np.int64)
        flat = np.concatenate(arrays) if arrays else np.zeros(0, dtype=np.int64)
        colors = np.asarray(self.mapping.colors_of(flat), dtype=np.int64)
        ends = np.cumsum(sizes).tolist()
        begin = 0
        for (label, _), end in zip(accesses, ends):
            counts = np.bincount(colors[begin:end], minlength=num)
            stats.record(_access_result(counts, end - begin, label))
            begin = end
        last_arrival = (len(accesses) - 1) * arrival_interval if accesses else -1
        if colors.size == 0:
            if self.record_latencies:
                self.last_latencies = np.zeros(0, dtype=np.int64)
            return 0, last_arrival + 1

        order = np.argsort(colors, kind="stable")  # per-module FIFO order
        module = colors[order]
        arrival = np.repeat(np.arange(len(accesses), dtype=np.int64), sizes)[order]
        arrival *= arrival_interval
        del flat, colors, order  # peak memory is a few arrays per request
        loads = np.bincount(module, minlength=num)
        first = np.cumsum(loads) - loads  # where each module's run begins
        issue = _fifo_issue_cycles(module, arrival, first, latency)
        depth = _fifo_queue_depths(module, arrival, issue)
        touched = np.flatnonzero(loads)
        max_depth = np.maximum.reduceat(depth, first[touched])
        port_free = issue[first[touched] + loads[touched] - 1] + latency
        for m, load, deepest, free_at in zip(
            touched.tolist(),
            loads[touched].tolist(),
            max_depth.tolist(),
            port_free.tolist(),
        ):
            mod = modules[m]
            mod.served += load
            mod.busy_cycles += load * latency
            mod.max_queue_depth = max(mod.max_queue_depth, deepest)
            mod._port_free = [free_at]
        if self.record_latencies:
            sojourn = issue - arrival
            sojourn += latency
            # the loop's issue order: by cycle, then by the rotated scan
            scan = (module - start - issue) % num
            scan += issue * num
            self.last_latencies = sojourn[np.argsort(scan)]
        last_issue = int(issue.max())
        return last_issue + latency, max(last_issue, last_arrival) + 1

    # -- cycle loops (the reference the closed forms must equal) -----------------

    def _drain(self, counts: np.ndarray | None = None) -> int:
        """Run cycles until every request *completes*; returns cycles elapsed.

        A request issued to a module at cycle ``t`` completes at
        ``t + latency`` (the module accepts its next request then), so the
        drain time is the latest completion across the array.  With
        ``counts`` (requests per module, not enqueued) the closed form
        :meth:`_drain_closed_form` stands in for the loop.

        The round-robin scan starts at ``_rr_start + cycle`` within a drain
        and the base pointer advances by one *per drain*, so consecutive
        accesses on an issue-limited interconnect rotate which module is
        served first (a fixed-length drain used to wrap the pointer back to
        where it started, pinning module 0 at the head of every access).
        """
        start = self._rr_start
        prof = self.profiler
        with prof.span("drain"):
            if counts is None:
                last_completion, cycles = self._drain_reference(start)
            else:
                last_completion, cycles = self._drain_closed_form(counts)
        if prof.enabled:
            prof.count("cycles", cycles)
        self._rr_start = (start + 1) % self.num_modules
        return last_completion

    def _drain_reference(self, start: int) -> tuple[int, int]:
        """Step the queued requests to completion; returns ``(last
        completion, cycles)``."""
        pending = sum(len(mod.queue) for mod in self.modules)
        latencies: list[int] | None = [] if self.record_latencies else None
        last_completion = 0
        rec = self.recorder
        recording = rec.enabled

        def complete(mod, served, completion):
            nonlocal last_completion
            last_completion = max(last_completion, completion)
            if recording:
                rec.event("complete", cycle=completion, module=mod.module_id)
            if latencies is not None:
                latencies.append(completion)

        cycles = 0
        while pending:
            self.advance_faults(self.clock, emit_cycle=cycles)
            issued, pending = self.issue_cycle(cycles, start, pending, complete)
            if issued == 0 and pending:
                self._check_fault_deadlock(self.clock)
            cycles += 1
            self.clock += 1
        if latencies is not None:
            self.last_latencies = np.array(latencies, dtype=np.int64)
        return last_completion, cycles

    def _open_loop_reference(
        self, accesses: list, arrival_interval: int, stats: TraceStats, start: int
    ) -> tuple[int, int]:
        """Step the open loop cycle by cycle; returns ``(last completion,
        cycles)``."""
        latencies: list[int] | None = [] if self.record_latencies else None
        enqueue_time: dict[tuple[int, int], int] = {}
        next_idx = 0
        pending = 0
        cycle = 0
        last_completion = 0
        rec = self.recorder
        recording = rec.enabled

        def complete(mod, served, completion):
            nonlocal last_completion
            last_completion = max(last_completion, completion)
            sojourn = completion - enqueue_time[served[0]]
            if recording:
                rec.event(
                    "complete",
                    cycle=completion,
                    module=mod.module_id,
                    access=served[0][0],
                    sojourn=sojourn,
                )
            if latencies is not None:
                latencies.append(sojourn)

        while next_idx < len(accesses) or pending:
            self.advance_faults(cycle)
            # arrivals scheduled for this cycle
            while next_idx < len(accesses) and cycle >= next_idx * arrival_interval:
                label, nodes = accesses[next_idx]
                nodes = np.asarray(nodes, dtype=np.int64)
                colors = self.mapping.colors_of(nodes)
                counts = np.bincount(colors, minlength=self.num_modules)
                if recording:
                    self._access_index += 1
                    rec.begin_access(self._access_index, label)
                    self._emit_conflicts(counts, cycle=cycle)
                    rec.event(
                        "access",
                        cycle=cycle,
                        label=label,
                        size=int(nodes.size),
                        conflicts=int(counts.max() - 1),
                    )
                for tag, (node, color) in enumerate(zip(nodes, colors)):
                    self.modules[int(color)].enqueue((next_idx, tag), int(node))
                    enqueue_time[(next_idx, tag)] = cycle
                stats.record(_access_result(counts, int(nodes.size), label))
                pending += nodes.size
                next_idx += 1
            if recording:
                rec.begin_access(-1)  # served requests span accesses
            issued, pending = self.issue_cycle(cycle, start, pending, complete)
            if issued == 0 and pending and next_idx >= len(accesses):
                self._check_fault_deadlock(cycle)
            cycle += 1
        if latencies is not None:
            self.last_latencies = np.array(latencies, dtype=np.int64)
        return last_completion, cycle

    def _emit_conflicts(self, counts: np.ndarray, cycle: int = 0) -> None:
        """Emit one ``conflict`` event per module an access overloads."""
        for module in np.nonzero(counts > 1)[0]:
            self.recorder.event(
                "conflict",
                cycle=cycle,
                module=int(module),
                extra=int(counts[module]) - 1,
            )

    def _enqueue(self, nodes: np.ndarray, colors: np.ndarray) -> None:
        for tag, (node, color) in enumerate(zip(nodes, colors)):
            self.modules[int(color)].enqueue(tag, int(node))

    # -- public API ------------------------------------------------------------

    def access(self, nodes: np.ndarray, label: str = "") -> AccessResult:
        """Simulate one parallel access to a set of tree nodes."""
        nodes = np.asarray(nodes, dtype=np.int64)
        if nodes.size == 0:
            raise ValueError("an access needs at least one node")
        colors = self.mapping.colors_of(nodes)
        counts = np.bincount(colors, minlength=self.num_modules)
        closed_form = self._start_run()  # each barrier access starts a fresh clock
        rec = self.recorder
        if rec.enabled:
            self._access_index += 1
            rec.begin_access(self._access_index, label)
            self._emit_conflicts(counts)
        if closed_form:
            cycles = self._drain(counts)
        else:
            self._enqueue(nodes, colors)
            cycles = self._drain()
        if rec.enabled:
            rec.event(
                "access",
                cycle=0,
                label=label,
                size=int(nodes.size),
                conflicts=int(counts.max() - 1),
                cycles=cycles,
            )
            rec.end_access(cycles)
        return _access_result(counts, int(nodes.size), label, cycles=cycles)

    def run_trace(self, trace: AccessTrace, pipelined: bool = False) -> TraceStats:
        """Replay a trace of template accesses; see the class docstring."""
        stats = TraceStats()
        if not pipelined:
            for label, nodes in trace:
                stats.record(self.access(nodes, label=label))
            return stats
        # pipelined: enqueue everything, then drain once.  The drain counts
        # cycles from 0, so clear port clocks left over from a previous run.
        closed_form = self._start_run()
        rec = self.recorder
        total_counts = np.zeros(self.num_modules, dtype=np.int64)
        for label, nodes in trace:
            nodes = np.asarray(nodes, dtype=np.int64)
            colors = self.mapping.colors_of(nodes)
            counts = np.bincount(colors, minlength=self.num_modules)
            total_counts += counts
            if rec.enabled:
                self._access_index += 1
                rec.begin_access(self._access_index, label)
                self._emit_conflicts(counts)
            if not closed_form:
                self._enqueue(nodes, colors)
            # per-access conflict bookkeeping still uses the paper's metric
            stats.record(_access_result(counts, int(nodes.size), label))
        if rec.enabled:
            # drain events belong to the shared pipeline, not one access
            rec.begin_access(-1)
        stats.total_cycles = self._drain(total_counts if closed_form else None)
        return stats

    def run_open_loop(self, trace: AccessTrace, arrival_interval: int) -> TraceStats:
        """Open-loop replay: access ``i`` arrives at cycle ``i * interval``.

        Models a steady request stream instead of a barrier or a one-shot
        drain: queues grow whenever the offered load exceeds what the mapping
        lets the array serve, so the resulting sojourn times (with
        ``record_latencies``) expose the mapping's sustainable throughput.
        """
        if arrival_interval < 1:
            raise ValueError(f"arrival_interval must be >= 1, got {arrival_interval}")
        closed_form = self._start_run(single_port=True)  # clock starts at 0
        stats = TraceStats()
        accesses = list(trace)
        start = self._rr_start
        prof = self.profiler
        with prof.span("open_loop"):
            if closed_form:
                run = self._open_loop_closed_form
            else:
                run = self._open_loop_reference
            last_completion, cycles = run(accesses, arrival_interval, stats, start)
        if prof.enabled:
            prof.count("cycles", cycles)
        self._rr_start = (start + 1) % self.num_modules
        stats.total_cycles = last_completion
        return stats

    # -- reporting ---------------------------------------------------------------

    def module_stats(self) -> list[dict]:
        """Per-module service counters accumulated since the last reset."""
        return [
            {
                "module": mod.module_id,
                "served": mod.served,
                "busy_cycles": mod.busy_cycles,
                "max_queue_depth": mod.max_queue_depth,
            }
            for mod in self.modules
        ]

    def reset(self) -> None:
        """Return to a fresh pre-run state.

        Clears module stats and queues, re-arms any attached fault schedule
        from cycle 0, and restores each module's *base* latency — so static
        overrides installed via
        :meth:`~repro.memory.module.MemoryModule.set_base_latency` (e.g. by
        :func:`~repro.memory.faults.apply_faults`) survive reuse of the
        same system.
        """
        for mod in self.modules:
            mod.reset_stats()
            mod.failed = False
            mod.restore_latency()
        self.last_latencies = None
        self._rr_start = 0
        self._access_index = -1
        self.clock = 0
        self._fault_idx = 0
        self._drop_prob = 0.0
        self.dropped = 0
        if self._fault_schedule is not None:
            self._fault_schedule.rewind()
            self._drop_rng = self._fault_schedule.rng

    # -- checkpoint / restore ----------------------------------------------------

    def snapshot_state(self) -> dict:
        """Full JSON-serializable runtime state (see :mod:`repro.serve.durability`).

        Captures the lifetime ``clock``, per-module queues and port clocks,
        fault-schedule advancement, and the drop-lottery RNG position — i.e.
        everything :meth:`reset` would wipe — so :meth:`restore_state` can
        resume the array mid-run with fault windows still firing at the same
        absolute cycles.
        """

        def tag_json(tag):
            return list(tag) if isinstance(tag, tuple) else tag

        return {
            "clock": self.clock,
            "rr_start": self._rr_start,
            "access_index": self._access_index,
            "dropped": self.dropped,
            "drop_prob": self._drop_prob,
            "modules": [
                {
                    "queue": [[tag_json(tag), addr] for tag, addr in mod.queue],
                    "served": mod.served,
                    "busy_cycles": mod.busy_cycles,
                    "max_queue_depth": mod.max_queue_depth,
                    "failed": mod.failed,
                    "latency": mod.latency,
                    "base_latency": mod.base_latency,
                    "port_free": list(mod._port_free),
                }
                for mod in self.modules
            ],
            "faults": (
                self._fault_schedule.runtime_state()
                if self._fault_schedule is not None
                else None
            ),
        }

    def restore_state(self, state: dict) -> None:
        """Resume from a :meth:`snapshot_state` capture.

        Unlike :meth:`reset`, restore preserves *absolute* time: the
        lifetime ``clock``, each module's port clocks (``_port_free``) and
        the fault cursor come back exactly, so a schedule attached before
        the snapshot keeps injecting at the cycles it would have anyway.
        """

        def tag_py(tag):
            return tuple(tag) if isinstance(tag, list) else tag

        module_states = state["modules"]
        if len(module_states) != self.num_modules:
            raise ValueError(
                f"snapshot has {len(module_states)} modules, "
                f"system has {self.num_modules}"
            )
        self.clock = int(state["clock"])
        self._rr_start = int(state["rr_start"])
        self._access_index = int(state["access_index"])
        self.dropped = int(state["dropped"])
        self._drop_prob = float(state["drop_prob"])
        for mod, mod_state in zip(self.modules, module_states):
            mod.queue = deque(
                (tag_py(tag), int(addr)) for tag, addr in mod_state["queue"]
            )
            mod.served = int(mod_state["served"])
            mod.busy_cycles = int(mod_state["busy_cycles"])
            mod.max_queue_depth = int(mod_state["max_queue_depth"])
            mod.failed = bool(mod_state["failed"])
            mod.latency = int(mod_state["latency"])
            mod.base_latency = int(mod_state["base_latency"])
            mod._port_free = [int(v) for v in mod_state["port_free"]]
        fault_state = state.get("faults")
        if fault_state is not None:
            if self._fault_schedule is None:
                raise ValueError(
                    "snapshot carries fault-schedule state but no schedule "
                    "is attached; attach_faults() the same schedule first"
                )
            self._fault_schedule.restore_runtime(fault_state)
            self._fault_idx = self._fault_schedule.cursor
            self._drop_rng = self._fault_schedule.rng

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ParallelMemorySystem(M={self.num_modules}, "
            f"interconnect={self.interconnect!r}, mapping={self.mapping!r})"
        )

"""The cycle-driven serving engine.

:class:`ServeEngine` wraps a :class:`~repro.memory.system.ParallelMemorySystem`
and serves an *online* stream of template requests instead of replaying a
pre-built trace.  Each cycle it:

1. applies due fault-schedule edges and, when the failed-module set changed,
   swaps in a repair mapping (``repair="color"`` for the conflict-aware
   :class:`~repro.memory.faults.ColorRepairMapping`, ``"oblivious"`` for the
   round-robin :class:`~repro.memory.faults.RemappedMapping`),
2. retires completions (notifying closed-loop clients) and aborts the
   in-flight batch if it exceeded the retry timeout,
3. collects arrivals from every client and runs admission control,
4. when the array is idle, forms the next batch with the configured
   :class:`~repro.serve.batching.BatchPolicy` and dispatches it — all
   requests of a batch are enqueued together, exactly the paper's composite
   access — and
5. steps the memory modules under the interconnect's issue limit.

A batch occupies the array until every one of its requests has completed
(the paper's serialized round-group: on a unit-latency crossbar a batch
with ``f`` conflicts takes ``f + 1`` rounds), so per-batch rounds divided
by requests served is directly comparable across policies.

**Retry ladder.**  With ``retry_timeout`` set, a batch still holding
unserved items after that many cycles is aborted: its unserved items are
pulled off the module queues and each affected request escalates through
*retry* (requeued head-of-line with capped exponential backoff, up to
``max_retries`` attempts), then *degrade* (the template shrinks in-family
via :func:`~repro.serve.request.degrade_instance` and the retry budget
resets), then *shed*.  The ladder guarantees the engine drains even when a
module never recovers.

Telemetry rides the system's :mod:`repro.obs` recorder: module-level
``issue``/``complete``/``queue_depth`` events are emitted by the shared
machinery, the system emits ``fault_inject``/``fault_recover``/``fault_drop``
as schedule edges apply, and the engine adds ``serve_arrival`` /
``serve_shed`` / ``access`` (one per batch) / ``batch_retire`` /
``serve_complete`` / ``request_timeout`` / ``request_retry`` / ``repair``
events, so ``pmtree obs report`` works on serving artifacts unchanged.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict, deque
from itertools import chain

import numpy as np

from repro.core.mapping import TreeMapping
from repro.host.driver import Driver
from repro.memory.system import ParallelMemorySystem
from repro.obs.perf import NULL_PROFILER, NullProfiler
from repro.serve.batching import (
    Batch,
    BatchPolicy,
    _elementary_components,
    make_policy,
)
from repro.serve.clients import Client
from repro.serve.request import (
    AdmissionQueue,
    Request,
    degrade_instance,
    request_from_json,
    request_to_json,
)
from repro.serve.slo import ServeReport, SLOTracker
from repro.templates.composite import make_composite

__all__ = ["KNOBS", "REPAIR_MODES", "DrainError", "ServeEngine"]

REPAIR_MODES = ("none", "oblivious", "color")

#: the serving knobs :meth:`ServeEngine.set_knobs` changes mid-run; a
#: snapshot carries them and a restore applies them
KNOBS = ("policy", "deadline", "retry_timeout")

#: snapshot ``config`` keys a restoring engine must already match
_STRUCTURE = ("admission", "queue_capacity", "repair", "num_modules")


class DrainError(RuntimeError):
    """A draining run cannot finish: it hit its drain limit, or the work it
    still holds can never complete."""


class ServeEngine:
    """Online request-serving loop over a parallel memory system.

    Parameters
    ----------
    system:
        The (mapping-bound) memory array to serve against.  Its recorder, if
        enabled, receives serving telemetry; its attached
        :class:`~repro.memory.faults.FaultSchedule`, if any, is applied as
        the serve clock advances.
    policy:
        A :class:`BatchPolicy` instance or a registry name
        (``"fifo"``, ``"greedy-pack"``, ``"load-aware"``).
    queue_capacity:
        Admission-queue bound, in items (tree nodes).
    admission:
        Backpressure policy: ``"block"``, ``"shed"`` or ``"degrade"``.
    max_batch_components:
        The paper's ``c`` — elementary components packed per batch.
    bound_k:
        Conflict budget parameter for conflict-aware packing; ``"auto"``
        reads the mapping's COLOR parameter ``k`` when present, ``None``
        disables the budget.
    deadline:
        When set, every request's deadline is ``arrival + deadline`` cycles.
    retry_timeout:
        Cycles an in-flight batch may hold the array before it is aborted
        and its unfinished requests climb the retry ladder; ``None``
        (default) disables timeouts entirely.
    max_retries:
        Plain retries per request before the ladder escalates to degrading
        the template (and, when it cannot shrink further, shedding).
    backoff_base / backoff_cap:
        Exponential backoff for retries: attempt ``n`` redispatches no
        earlier than ``min(backoff_base * 2**(n-1), backoff_cap)`` cycles
        after its timeout.
    repair:
        What to do with a dead module's nodes while it is down: ``"none"``
        (requests wait or time out), ``"oblivious"`` (round-robin remap) or
        ``"color"`` (conflict-aware recoloring).  Repair mappings are built
        lazily per failed-module set and dropped when the set recovers.
    repair_cache_cap:
        Bound on the per-failed-set repair-mapping cache (LRU eviction).
        Under churning failure sets the number of distinct sets is
        combinatorial, so a long-lived engine must not hold them all;
        evicted mappings are rebuilt deterministically on demand.
    profiler:
        A :class:`~repro.obs.perf.PerfProfiler` to receive wall-clock phase
        spans (``retire`` / ``admit`` / ``dispatch`` / ``service``) and run
        throughput counters; the default is the shared
        :data:`~repro.obs.perf.NULL_PROFILER`, whose spans are free no-ops.
        Use a fresh profiler per run — :meth:`finish` folds its wall clock
        into the report's ``wall_time_s`` / ``requests_per_sec`` /
        ``cycles_per_sec`` fields.
    """

    def __init__(
        self,
        system: ParallelMemorySystem,
        policy: BatchPolicy | str = "greedy-pack",
        *,
        queue_capacity: int = 256,
        admission: str = "block",
        max_batch_components: int = 4,
        bound_k: int | str | None = "auto",
        deadline: int | None = None,
        retry_timeout: int | None = None,
        max_retries: int = 3,
        backoff_base: int = 8,
        backoff_cap: int = 128,
        repair: str = "none",
        repair_cache_cap: int = 8,
        profiler: NullProfiler | None = None,
    ):
        self.system = system
        if bound_k == "auto":
            bound_k = getattr(system.mapping, "k", None)
        if isinstance(policy, str):
            policy = make_policy(
                policy, max_components=max_batch_components, bound_k=bound_k
            )
        self.policy = policy
        self.queue = AdmissionQueue(queue_capacity, policy=admission)
        self.deadline = self.retry_timeout = None
        self.set_knobs(deadline=deadline, retry_timeout=retry_timeout)
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if backoff_base < 1 or backoff_cap < backoff_base:
            raise ValueError(
                f"need 1 <= backoff_base <= backoff_cap, got "
                f"{backoff_base}/{backoff_cap}"
            )
        if repair not in REPAIR_MODES:
            raise ValueError(f"unknown repair mode {repair!r}; pick from {REPAIR_MODES}")
        if repair_cache_cap < 1:
            raise ValueError(
                f"repair_cache_cap must be >= 1, got {repair_cache_cap}"
            )
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.repair = repair
        self.repair_cache_cap = repair_cache_cap
        self.profiler = profiler if profiler is not None else NULL_PROFILER
        # phase spans bound once: with the null profiler these are all the
        # shared NULL_SPAN singleton, so the step loop never allocates
        self._sp_retire = self.profiler.span("retire")
        self._sp_admit = self.profiler.span("admit")
        self._sp_dispatch = self.profiler.span("dispatch")
        self._sp_service = self.profiler.span("service")
        self.tracker = SLOTracker()
        #: write-ahead journal hook (see :mod:`repro.serve.durability`);
        #: ``None`` keeps the engine journal-free
        self.journal = None
        self._next_id = 0  # plain int so checkpoints can capture it
        self._requests: dict[int, Request] = {}  # in flight, by id
        self._mapping: TreeMapping = system.mapping  # effective (repair) mapping
        self._failed_now: frozenset[int] = frozenset()
        self._repair_cache: OrderedDict[frozenset[int], TreeMapping] = OrderedDict()
        # per-run state, owned by start()/step()/finish() (promoted to
        # attributes so checkpoints can capture a run mid-flight)
        self._clients: list[Client] = []
        self._clients_by_id: dict[int, Client] = {}
        self._max_cycles = 0
        self._drain = True
        self._drain_limit = 0
        self._completions: list[tuple[int, int]] = []
        self._remaining: dict[int, int] = {}
        self._current_batch: Batch | None = None
        self._batch_dispatched_at = 0
        self._access_index = -1
        self._cycle = 0
        self._active = False

    # -- fault / repair internals ----------------------------------------------

    def _journal(self, kind: str, cycle: int, **fields) -> None:
        """Append (or, during recovery, verify) one WAL record."""
        if self.journal is not None:
            self.journal.record(kind, cycle, **fields)

    def _repair_mapping(self, failed: frozenset[int]) -> TreeMapping:
        """Effective mapping for the current failed set.

        Mappings are cached per failed set with LRU eviction bounded by
        ``repair_cache_cap``; an evicted set's mapping is rebuilt
        deterministically if the set recurs, so eviction never changes
        behavior — only construction cost.
        """
        if not failed or self.repair == "none":
            return self.system.mapping
        cache = self._repair_cache
        if failed in cache:
            cache.move_to_end(failed)
            return cache[failed]
        from repro.memory.faults import ColorRepairMapping, RemappedMapping

        cls = ColorRepairMapping if self.repair == "color" else RemappedMapping
        mapping = cls(self.system.mapping, failed)
        cache[failed] = mapping
        while len(cache) > self.repair_cache_cap:
            cache.popitem(last=False)
        return mapping

    def _advance_faults(self, cycle: int) -> None:
        """Apply schedule edges; swap the dispatch mapping on membership change."""
        system = self.system
        system.advance_faults(cycle)
        failed = system.failed_modules()
        if failed == self._failed_now:
            return
        self._failed_now = failed
        self._mapping = self._repair_mapping(failed)
        rec = system.recorder
        if rec.enabled and self.repair != "none":
            moved = 0
            if self._mapping is not system.mapping:
                moved = int(
                    (self._mapping.color_array() != system.mapping.color_array()).sum()
                )
            rec.event(
                "repair",
                cycle=cycle,
                mode=self.repair,
                modules=sorted(failed),
                moved=moved,
            )

    def _check_drainable(self, cycle: int) -> None:
        """Raise :class:`DrainError` once the in-flight batch can never retire.

        That holds when no retry timeout can abort it, no completion is
        pending, every item it still needs sits queued on a failed module,
        and no later fault-schedule edge can bring one of those modules
        back.  Nothing then changes but the clock, and the batch holds the
        array, so nothing queued behind it dispatches either.
        """
        if (
            self._current_batch is None
            or self.retry_timeout is not None
            or self._completions
            or not self._remaining
            or not self._failed_now
        ):
            return
        modules = self.system.modules
        if any(mod.queue and not mod.failed for mod in modules):
            return
        if self.system._faults_pending_after(cycle):
            return
        blocked = [mod.module_id for mod in modules if mod.queue]
        raise DrainError(
            f"serving can never drain: {len(self.held())} requests wait "
            f"behind failed modules {blocked}, which no later fault edge "
            "repairs, and no retry timeout aborts the batch holding them"
        )

    # -- dispatch / service internals -----------------------------------------

    def _dispatch(self, batch: Batch, cycle: int, access_index: int) -> dict[int, int]:
        """Enqueue a batch's nodes onto the modules; returns remaining-item
        counts keyed by request id."""
        system = self.system
        rec = system.recorder
        if rec.enabled:
            rec.begin_access(access_index, self.policy.name)
            system._emit_conflicts(batch.module_counts, cycle=cycle)
            rec.event(
                "access",
                cycle=cycle,
                label=f"batch:{self.policy.name}",
                size=batch.size,
                conflicts=batch.conflicts,
                requests=len(batch),
                components=batch.num_components,
            )
        self._journal(
            "dispatch",
            cycle,
            batch=access_index,
            requests=[req.request_id for req in batch.requests],
            size=batch.size,
            conflicts=batch.conflicts,
        )
        remaining: dict[int, int] = {}
        mapping = self._mapping
        for req in batch.requests:
            req.dispatch_cycle = cycle
            req.attempts += 1
            remaining[req.request_id] = req.size
            colors = mapping.colors_of(req.nodes)
            for offset, (node, color) in enumerate(zip(req.nodes, colors)):
                system.modules[int(color)].enqueue(
                    (req.request_id, offset), int(node)
                )
        self.tracker.on_dispatch(batch, cycle)
        return remaining

    def _step_modules(self, cycle: int) -> None:
        """One service cycle: round-robin issue under the interconnect limit;
        requests whose last item issues complete ``latency`` cycles later."""
        system = self.system
        pending = sum(len(mod.queue) for mod in system.modules)
        system.issue_cycle(cycle, 0, pending, self._item_complete)

    def _item_complete(self, mod, served, completion: int) -> None:
        """Issue-kernel callback: count down the item's request and queue the
        request for retirement once its last item is in flight."""
        request_id = served[0][0]
        rec = self.system.recorder
        if rec.enabled:
            rec.event(
                "complete", cycle=completion, module=mod.module_id, request=request_id
            )
        remaining = self._remaining
        remaining[request_id] -= 1
        if remaining[request_id] == 0:
            del remaining[request_id]
            heapq.heappush(self._completions, (completion, request_id))

    def _retire(self, cycle: int) -> int:
        """Complete requests whose last item finished by ``cycle``; returns
        the latest completion cycle retired (or -1)."""
        rec = self.system.recorder
        completions = self._completions
        last = -1
        while completions and completions[0][0] <= cycle:
            done_cycle, request_id = heapq.heappop(completions)
            request = self._requests.pop(request_id)
            request.complete_cycle = done_cycle
            last = max(last, done_cycle)
            self.tracker.on_complete(request)
            if rec.enabled:
                rec.event(
                    "serve_complete",
                    cycle=done_cycle,
                    request=request_id,
                    client=request.client_id,
                    tenant=request.tenant,
                    sojourn=request.sojourn,
                    missed=request.missed_deadline,
                )
            self._journal(
                "retire",
                cycle,
                request=request_id,
                client=request.client_id,
                completed=done_cycle,
                sojourn=request.sojourn,
            )
            client = self._clients_by_id.get(request.client_id)
            if client is not None:
                client.notify(request, done_cycle)
        return last

    def _admitted(self, request: Request, cycle: int) -> None:
        """Book an admission: the tracker, then the ``admit`` WAL record."""
        self.tracker.on_admit(request)
        self._journal(
            "admit",
            cycle,
            request=request.request_id,
            client=request.client_id,
            tenant=request.tenant,
            size=request.size,
        )

    def _end_batch(self, cycle: int, rounds: int, aborted: bool = False) -> None:
        """Free the array: book the in-flight batch's ``rounds`` and emit its
        ``batch_retire``; an ``aborted`` batch (the retry timeout cut it
        short) also sends its unfinished requests up the retry ladder."""
        batch = self._current_batch
        self._current_batch = None
        if aborted:
            self.tracker.on_batch_aborted(batch, rounds)
        else:
            self.tracker.on_batch_retired(batch, rounds)
        rec = self.system.recorder
        if rec.enabled:
            rec.event(
                "batch_retire",
                cycle=cycle,
                rounds=rounds,
                requests=len(batch),
                components=batch.num_components,
                conflicts=batch.conflicts,
                **({"aborted": True} if aborted else {}),
            )
        if aborted:
            self._abort_batch(batch, cycle)

    # -- retry ladder ----------------------------------------------------------

    def _escalate(self, request: Request, cycle: int) -> None:
        """One rung up the ladder for a timed-out request:
        retry -> degrade -> shed."""
        tracker = self.tracker
        rec = self.system.recorder
        request.timeouts += 1
        tracker.on_timeout(request)
        if rec.enabled:
            rec.event(
                "request_timeout",
                cycle=cycle,
                request=request.request_id,
                client=request.client_id,
                attempt=request.attempts,
            )
        degraded_now = False
        if request.attempts > self.max_retries:
            smaller = degrade_instance(request.instance)
            if smaller is None:
                # ladder exhausted: shed
                self._requests.pop(request.request_id, None)
                tracker.on_timeout_shed(request)
                if rec.enabled:
                    rec.event(
                        "serve_shed",
                        cycle=cycle,
                        request=request.request_id,
                        client=request.client_id,
                        size=request.size,
                        reason="timeout",
                    )
                self._journal(
                    "shed",
                    cycle,
                    request=request.request_id,
                    client=request.client_id,
                    reason="timeout",
                )
                client = self._clients_by_id.get(request.client_id)
                if client is not None:
                    client.notify_shed(request, cycle)
                return
            if request.degraded == 0:
                tracker.degraded += 1
            request.instance = smaller
            request.degraded += 1
            request.attempts = 0  # a smaller template earns a fresh budget
            degraded_now = True
        backoff = min(
            self.backoff_base * (1 << max(request.attempts - 1, 0)),
            self.backoff_cap,
        )
        request.retry_at = cycle + backoff
        tracker.on_retry(request)
        if rec.enabled:
            rec.event(
                "request_retry",
                cycle=cycle,
                request=request.request_id,
                client=request.client_id,
                retry_at=request.retry_at,
                attempt=request.attempts,
                degraded=degraded_now,
            )
        self._journal(
            "retry",
            cycle,
            request=request.request_id,
            retry_at=request.retry_at,
            attempt=request.attempts,
            degraded=degraded_now,
        )
        self.queue.requeue(request)

    def _abort_batch(self, batch: Batch, cycle: int) -> None:
        """Pull a timed-out batch's unserved items off the array and send
        every still-incomplete request up the retry ladder.  Requests whose
        items all issued already retire normally through the completions
        heap — aborting them would discard finished work."""
        remaining = self._remaining
        live = [req for req in batch.requests if req.request_id in remaining]
        ids = {req.request_id for req in live}
        for mod in self.system.modules:
            if mod.queue:
                mod.queue = deque(
                    entry for entry in mod.queue if entry[0][0] not in ids
                )
        for req in live:
            del remaining[req.request_id]
            self._requests.pop(req.request_id, None)
            self._escalate(req, cycle)

    # -- main loop -------------------------------------------------------------

    @property
    def cycle(self) -> int:
        """The next cycle :meth:`step` will execute (0 before any work)."""
        return self._cycle

    @property
    def active(self) -> bool:
        """True between :meth:`start` and the run's natural end."""
        return self._active

    def start(
        self,
        clients: list[Client],
        max_cycles: int,
        drain: bool = True,
        drain_limit: int = 1_000_000,
    ) -> None:
        """Arm a fresh run: reset the system, drop every request an earlier
        run left behind (:meth:`purge`), install clients, zero the clock.

        ``run`` is ``start`` + ``step`` until exhausted + ``finish``; the
        split exists so a supervisor (:mod:`repro.serve.durability`) can
        interleave checkpoints — and simulated crashes — between cycles.
        """
        if max_cycles < 1:
            raise ValueError(f"max_cycles must be >= 1, got {max_cycles}")
        system = self.system
        system.reset()
        self.purge()
        self._mapping = system.mapping
        self._failed_now = frozenset()
        rec = system.recorder
        if rec.enabled:
            rec.set_meta(
                serve_policy=self.policy.name,
                admission=self.queue.policy,
                queue_capacity=self.queue.capacity,
                max_batch_components=self.policy.max_components,
                num_clients=len(clients),
                retry_timeout=self.retry_timeout,
                repair=self.repair,
            )
        clients_by_id = {client.client_id: client for client in clients}
        if len(clients_by_id) != len(clients):
            raise ValueError("client ids must be unique")
        self._clients = list(clients)
        self._clients_by_id = clients_by_id
        self._max_cycles = max_cycles
        self._drain = drain
        self._drain_limit = drain_limit
        self.tracker = SLOTracker()
        self._access_index = -1
        self._cycle = 0
        self._active = True
        self.profiler.start()

    def step(self) -> bool:
        """Advance the run by one cycle; ``False`` once the run is over.

        A ``False`` return leaves all state untouched (the exit checks run
        before any work), so callers may checkpoint right up to the end.
        """
        if not self._active:
            return False
        system = self.system
        rec = system.recorder
        tracker = self.tracker
        cycle = self._cycle
        arriving = cycle < self._max_cycles
        if not arriving and not self._drain:
            self._active = False
            return False
        if not arriving and (
            self._current_batch is None
            and self.queue.drained
            and not self._completions
            and not self._remaining
        ):
            self._active = False
            return False
        if cycle > self._max_cycles + self._drain_limit:
            raise DrainError(
                f"serving did not drain within {self._drain_limit} cycles after "
                f"arrivals stopped (queue={self.queue!r})"
            )
        # 0. fault-schedule edges + repair remapping + availability sample
        self._advance_faults(cycle)
        if not arriving:
            self._check_drainable(cycle)
        tracker.on_cycle(len(self._failed_now), system.num_modules)
        # 1. retire completions due now; free the array when its batch ends
        with self._sp_retire:
            last_done = self._retire(cycle)
            if self._current_batch is not None and not any(
                not req.completed for req in self._current_batch.requests
            ):
                dispatched = self._batch_dispatched_at
                self._end_batch(cycle, max(last_done, dispatched) - dispatched)
            # 1b. retry-timeout abort: the batch has held the array too long
            if (
                self._current_batch is not None
                and self.retry_timeout is not None
                and cycle - self._batch_dispatched_at >= self.retry_timeout
                and any(
                    req.request_id in self._remaining
                    for req in self._current_batch.requests
                )
            ):
                self._end_batch(cycle, cycle - self._batch_dispatched_at, aborted=True)
        # 2. arrivals + admission
        with self._sp_admit:
            if arriving:
                for client in self._clients:
                    for instance, tenant in client.poll_tenants(cycle):
                        request = Request(
                            request_id=self._next_id,
                            client_id=client.client_id,
                            instance=instance,
                            arrival_cycle=cycle,
                            deadline=(
                                cycle + self.deadline
                                if self.deadline is not None
                                else None
                            ),
                            tenant=tenant,
                        )
                        self._next_id += 1
                        tracker.on_arrival(request)
                        if rec.enabled:
                            rec.event(
                                "serve_arrival",
                                cycle=cycle,
                                request=request.request_id,
                                client=client.client_id,
                                tenant=request.tenant,
                                size=request.size,
                                kind=instance.kind,
                            )
                        outcome = self.queue.offer(request, cycle)
                        if outcome == "admitted":
                            self._admitted(request, cycle)
                        elif outcome == "shed":
                            tracker.on_shed(request)
                            if rec.enabled:
                                rec.event(
                                    "serve_shed",
                                    cycle=cycle,
                                    request=request.request_id,
                                    client=client.client_id,
                                    size=request.size,
                                )
                            self._journal(
                                "shed",
                                cycle,
                                request=request.request_id,
                                client=client.client_id,
                                reason="admission",
                            )
                            client.notify_shed(request, cycle)
            for request in self.queue.admit_waiting(cycle):
                self._admitted(request, cycle)
        # 3. dispatch the next batch once the array is idle; requests in
        # a backoff window are not yet eligible
        with self._sp_dispatch:
            if self._current_batch is None and self.queue.pending:
                eligible = [
                    req for req in self.queue.pending if req.retry_at <= cycle
                ]
                if eligible:
                    avoid = (
                        self._failed_now if self.repair == "none" else frozenset()
                    )
                    batch = self.policy.form(eligible, self._mapping, avoid=avoid)
                    self.queue.remove(batch.requests)
                    self._access_index += 1
                    for req in batch.requests:
                        self._requests[req.request_id] = req
                    self._remaining.update(
                        self._dispatch(batch, cycle, self._access_index)
                    )
                    self._current_batch = batch
                    self._batch_dispatched_at = cycle
        # 4. service
        with self._sp_service:
            if self._remaining or any(mod.queue for mod in system.modules):
                self._step_modules(cycle)
        self._cycle = cycle + 1
        return True

    def finish(self) -> ServeReport:
        """Close the run out and fold the tracker into a :class:`ServeReport`.

        With an enabled profiler the report's wall-clock fields are
        populated from it: ``wall_time_s`` is the profiler's accumulated
        run clock, ``requests_per_sec`` / ``cycles_per_sec`` divide the
        run's completions / cycles by it (0.0 on an empty or unclocked
        run — the fields are always defined).
        """
        self._active = False
        report = self.tracker.report(self.policy.name, cycles=self._cycle)
        rec = self.system.recorder
        if rec.enabled:
            rec.set_meta(
                serve_cycles=self._cycle, serve_arrivals=self.tracker.arrivals
            )
        prof = self.profiler
        if prof.enabled:
            prof.stop()
            prof.count("cycles", self._cycle)
            prof.count("requests", self.tracker.completed)
            if rec.enabled:
                prof.count("events", len(rec.events))
            wall = prof.wall_time_s
            report.wall_time_s = wall
            if wall > 0:
                report.cycles_per_sec = self._cycle / wall
                report.requests_per_sec = self.tracker.completed / wall
        return report

    def run(
        self,
        clients: list[Client],
        max_cycles: int,
        drain: bool = True,
        drain_limit: int = 1_000_000,
    ) -> ServeReport:
        """Serve ``clients`` for ``max_cycles`` cycles of arrivals.

        With ``drain`` (default) the loop keeps cycling after arrivals stop
        until every admitted request has completed, so the report covers the
        full offered load; ``drain_limit`` bounds the post-arrival cycles as
        a runaway guard.
        """
        return Driver(self).run(
            clients, max_cycles, drain=drain, drain_limit=drain_limit
        )

    # -- knobs -----------------------------------------------------------------

    def set_knobs(self, **knobs) -> dict:
        """Change any of the :data:`KNOBS` between steps; returns the values
        set, in :data:`KNOBS` order.

        ``policy`` is a :class:`BatchPolicy` or a registry name (a new name
        is built with the current policy's packing parameters);
        ``deadline`` and ``retry_timeout`` are cycles or ``None``.  Every
        value is checked before any is set, so a bad one changes nothing.
        """
        unknown = set(knobs) - set(KNOBS)
        if unknown:
            raise ValueError(f"unknown knobs: {sorted(unknown)}")
        policy = knobs.get("policy", self.policy)
        if isinstance(policy, str) and policy != self.policy.name:
            policy = make_policy(
                policy,
                max_components=self.policy.max_components,
                bound_k=self.policy.bound_k,
            )
        elif isinstance(policy, str):
            policy = self.policy
        deadline = knobs.get("deadline", self.deadline)
        deadline = None if deadline is None else int(deadline)
        timeout = knobs.get("retry_timeout", self.retry_timeout)
        timeout = None if timeout is None else int(timeout)
        if timeout is not None and timeout < 1:
            raise ValueError(f"retry_timeout must be >= 1, got {timeout}")
        self.policy, self.deadline, self.retry_timeout = policy, deadline, timeout
        values = {"policy": policy.name, "deadline": deadline, "retry_timeout": timeout}
        return {key: values[key] for key in KNOBS if key in knobs}

    # -- held work -------------------------------------------------------------

    def held(self) -> list[Request]:
        """Every *unsettled* request the engine holds, deduplicated: the
        admission queue, then the blocked arrivals, then the in-flight table.

        The in-flight table covers the current batch's still-running
        members; the batch object itself is deliberately not scanned — it
        keeps listing requests that already retired mid-batch, and handing
        those on (a fleet re-routes what a dead shard held) would execute
        them twice.
        """
        held = chain(self.queue.pending, self.queue.waiting, self._requests.values())
        return list({req.request_id: req for req in held}.values())

    @property
    def backlog_items(self) -> int:
        """Items (tree nodes) of every unsettled request the engine holds."""
        return sum(req.size for req in self.held())

    def purge(self) -> int:
        """Drop every request the engine holds — queue, blocked arrivals,
        in-flight table and batch, pending completions, module queues — and
        return how many unsettled ones there were.

        :meth:`start` purges, so every run starts clean; a fleet purges a
        restored shard, whose held work was settled or re-routed when it
        died.
        """
        purged = len(self.held())
        self.queue.pending = []
        self.queue.waiting = deque()
        self._requests = {}
        self._current_batch = None
        self._batch_dispatched_at = 0
        self._completions = []
        self._remaining = {}
        for mod in self.system.modules:
            mod.reset_queue()
        return purged

    def align(self, cycle: int, max_cycles: int, drain: bool, drain_limit: int) -> None:
        """Resume serving inside an enclosing run at ``cycle`` (a shard
        rejoining its fleet): the run window becomes the caller's, and
        module clocks and fault cursors catch up on the next step."""
        self._cycle = cycle
        self._max_cycles = max_cycles
        self._drain = drain
        self._drain_limit = drain_limit
        self._active = True

    def reserve_ids(self, used) -> None:
        """Number later requests past every id in ``used`` (a shard restarted
        from its journal alone keeps the ids the journal already holds)."""
        self._next_id = max([self._next_id, *(rid + 1 for rid in used)])

    # -- checkpoint / restore ----------------------------------------------------

    def _config(self) -> dict:
        """The snapshot's ``config`` block: the knobs, then the structure a
        restoring engine must match (:data:`_STRUCTURE`)."""
        return {
            "policy": self.policy.name,
            "deadline": self.deadline,
            "retry_timeout": self.retry_timeout,
            "admission": self.queue.policy,
            "queue_capacity": self.queue.capacity,
            "repair": self.repair,
            "num_modules": self.system.num_modules,
        }

    def state_dict(self) -> dict:
        """The full serving state, JSON-serializable, at a cycle boundary
        (call between :meth:`step` invocations)."""
        batch = self._current_batch
        # one shared registry: the same Request object may sit in the
        # in-flight table, the queue and the current batch at once
        requests = dict(self._requests)
        for req in chain(self.held(), batch.requests if batch is not None else ()):
            requests.setdefault(req.request_id, req)
        batch_state = None
        if batch is not None:
            # the batch's costing is pinned at dispatch time (the effective
            # mapping may have changed since), so store it rather than
            # recomputing against the restore-time mapping
            batch_state = {
                "ids": [req.request_id for req in batch.requests],
                "dispatched_at": self._batch_dispatched_at,
                "module_counts": [int(c) for c in batch.module_counts],
                "conflicts": batch.conflicts,
                "num_components": batch.num_components,
            }
        recorder = self.system.recorder
        return {
            "config": self._config(),
            "next_id": self._next_id,
            "failed_now": sorted(self._failed_now),
            "repair_keys": [sorted(key) for key in self._repair_cache],
            "requests": {
                str(rid): request_to_json(req) for rid, req in requests.items()
            },
            "inflight": sorted(self._requests),
            "queue": {
                "pending": [req.request_id for req in self.queue.pending],
                "waiting": [req.request_id for req in self.queue.waiting],
            },
            "batch": batch_state,
            "run": {
                "max_cycles": self._max_cycles,
                "drain": self._drain,
                "drain_limit": self._drain_limit,
                "cycle": self._cycle,
                "access_index": self._access_index,
                "active": self._active,
                "completions": [list(entry) for entry in self._completions],
                "remaining": {str(rid): n for rid, n in self._remaining.items()},
            },
            "tracker": self.tracker.state_dict(),
            "system": self.system.snapshot_state(),
            "clients": {
                str(client.client_id): client.state_dict() for client in self._clients
            },
            "recorder": recorder.state_dict() if recorder.enabled else None,
        }

    def load_state(self, state: dict, clients: list[Client]) -> None:
        """Resume from a :meth:`state_dict` capture.

        The engine must match the capture's structure (admission, queue
        capacity, repair mode, module count); its knobs are set to the
        captured ones (a capture without ``deadline`` / ``retry_timeout``
        keeps the engine's own).  ``clients`` must be freshly built with
        the captured run's configuration; their state is overwritten.
        """
        from repro.serve.durability import DurabilityError

        config, live = state["config"], self._config()
        mismatched = {
            key: (config.get(key), live[key])
            for key in _STRUCTURE
            if config.get(key) != live[key]
        }
        if mismatched:
            raise DurabilityError(
                f"engine configuration does not match the snapshot: {mismatched}"
            )
        clients_by_id = {client.client_id: client for client in clients}
        snap_clients = state["clients"]
        if set(snap_clients) != {str(cid) for cid in clients_by_id}:
            raise DurabilityError(
                f"client ids {sorted(clients_by_id)} do not match the "
                f"snapshot's {sorted(snap_clients)}"
            )
        self.set_knobs(**{key: config[key] for key in KNOBS if key in config})
        registry = {
            int(rid): request_from_json(payload)
            for rid, payload in state["requests"].items()
        }
        self._next_id = int(state["next_id"])
        self._requests = {rid: registry[rid] for rid in state["inflight"]}
        self.queue.pending = [registry[rid] for rid in state["queue"]["pending"]]
        self.queue.waiting = deque(registry[rid] for rid in state["queue"]["waiting"])
        batch_state = state["batch"]
        if batch_state is None:
            self._current_batch = None
            self._batch_dispatched_at = 0
        else:
            self._current_batch = self._rebuild_batch(batch_state, registry)
            self._batch_dispatched_at = int(batch_state["dispatched_at"])
        run = state["run"]
        self._max_cycles = int(run["max_cycles"])
        self._drain = bool(run["drain"])
        self._drain_limit = int(run["drain_limit"])
        self._cycle = int(run["cycle"])
        self._access_index = int(run["access_index"])
        self._active = bool(run["active"])
        self._completions = [tuple(entry) for entry in run["completions"]]
        heapq.heapify(self._completions)
        self._remaining = {int(rid): int(n) for rid, n in run["remaining"].items()}
        self.tracker = SLOTracker.from_state(state["tracker"])
        self.system.restore_state(state["system"])
        # rebuild the repair cache (deterministic per failed set) in its
        # captured LRU order, then bind the effective dispatch mapping
        self._repair_cache.clear()
        for key in state["repair_keys"]:
            self._repair_mapping(frozenset(int(m) for m in key))
        self._failed_now = frozenset(int(m) for m in state["failed_now"])
        self._mapping = self._repair_mapping(self._failed_now)
        for client in clients:
            client.load_state(snap_clients[str(client.client_id)])
        self._clients = list(clients)
        self._clients_by_id = clients_by_id
        recorder = self.system.recorder
        if state["recorder"] is not None and recorder.enabled:
            recorder.load_state(state["recorder"])

    @staticmethod
    def _rebuild_batch(batch_state: dict, registry: dict[int, Request]) -> Batch:
        reqs = tuple(registry[int(rid)] for rid in batch_state["ids"])
        parts = _elementary_components(reqs)
        return Batch(
            requests=reqs,
            nodes=np.concatenate([req.nodes for req in reqs]),
            module_counts=np.array(batch_state["module_counts"], dtype=np.int64),
            conflicts=int(batch_state["conflicts"]),
            num_components=int(batch_state["num_components"]),
            composite=(
                make_composite(parts) if parts is not None and len(parts) > 1 else None
            ),
        )

    def checkpoint(self):
        """Capture the full serving state as an
        :class:`~repro.serve.durability.EngineSnapshot` (cycle-boundary
        consistent: call between :meth:`step` invocations)."""
        from repro.serve.durability import EngineSnapshot

        return EngineSnapshot.capture(self)

    def restore(self, snapshot, clients: list[Client]) -> None:
        """Resume a run from a snapshot captured by :meth:`checkpoint`.

        ``clients`` must be freshly constructed with the same configuration
        as the checkpointed run's; their RNG and pacing state is overwritten
        from the snapshot.  After restore, :meth:`step` continues the run
        bit-exactly — including fault windows and the drop lottery.
        """
        from repro.serve.durability import EngineSnapshot

        if not isinstance(snapshot, EngineSnapshot):
            raise TypeError(f"expected an EngineSnapshot, got {type(snapshot)!r}")
        snapshot.restore_into(self, clients)

"""Online request serving over the parallel memory system.

Where :mod:`repro.memory` *replays* pre-built traces, this package *serves*
a live stream of template requests from simulated clients — the paper's
composite-template theorem (`C(D, c)` accessed with at most ``c - 1 + k``
conflicts under COLOR) turned into an online batching engine:

* :mod:`repro.serve.request` — typed requests, bounded admission queue with
  block / shed / degrade backpressure;
* :mod:`repro.serve.batching` — batch-formation policies (``fifo``,
  ``greedy-pack``, ``load-aware``) that pack disjoint pending requests into
  certified composite instances within the ``c - 1 + k`` conflict budget;
* :mod:`repro.serve.clients` — Poisson, bursty on/off, closed-loop and
  trace-replay traffic generators over a configurable template mix;
* :mod:`repro.serve.engine` — the cycle-driven main loop (admit, batch,
  dispatch, retire) wired into :mod:`repro.obs` telemetry, with a
  retry -> degrade -> shed timeout ladder and fault-aware repair
  remapping (``repair="oblivious" | "color"``) for runs under a
  :class:`~repro.memory.faults.FaultSchedule`;
* :mod:`repro.serve.slo` — sojourn percentiles, goodput, shed and
  deadline-miss accounting;
* :mod:`repro.serve.durability` — crash consistency: versioned
  :class:`EngineSnapshot` checkpoints, an append-only
  :class:`ServeJournal` write-ahead log, and a crash harness
  (:class:`CrashPlan` / :class:`DurableHost` / :class:`DurableServer` /
  :func:`run_with_recovery`) that proves recovery is deterministic and
  exactly-once.

CLI: ``pmtree serve --levels 11 --modules 15 --policy greedy-pack ...``
(add ``--state-dir/--checkpoint-every`` for durable runs, then
``pmtree recover`` after a crash).
"""

from repro.serve.batching import (
    POLICIES,
    Batch,
    BatchPolicy,
    FifoPolicy,
    GreedyPackPolicy,
    LoadAwarePolicy,
    batch_conflict_bound,
    make_policy,
)
from repro.serve.clients import (
    BurstyClient,
    Client,
    ClosedLoopClient,
    MixEntry,
    PoissonClient,
    TemplateMix,
    TraceClient,
    spawn_seeds,
)
from repro.serve.durability import (
    CONTROL_EVENTS,
    CrashPlan,
    DurabilityError,
    DurableHost,
    DurableServer,
    EngineSnapshot,
    JournalError,
    RecoveryResult,
    ServeJournal,
    SimulatedCrash,
    assert_equivalent,
    diff_reports,
    filter_control,
    journal_accounting,
    run_with_recovery,
)
from repro.serve.engine import REPAIR_MODES, DrainError, ServeEngine
from repro.serve.request import AdmissionQueue, Request, degrade_instance
from repro.serve.slo import ServeReport, SLOTracker

__all__ = [
    "CONTROL_EVENTS",
    "POLICIES",
    "AdmissionQueue",
    "Batch",
    "BatchPolicy",
    "BurstyClient",
    "Client",
    "ClosedLoopClient",
    "CrashPlan",
    "DrainError",
    "DurabilityError",
    "DurableHost",
    "DurableServer",
    "EngineSnapshot",
    "FifoPolicy",
    "GreedyPackPolicy",
    "JournalError",
    "LoadAwarePolicy",
    "MixEntry",
    "PoissonClient",
    "REPAIR_MODES",
    "RecoveryResult",
    "Request",
    "SLOTracker",
    "ServeEngine",
    "ServeJournal",
    "ServeReport",
    "SimulatedCrash",
    "TemplateMix",
    "TraceClient",
    "assert_equivalent",
    "batch_conflict_bound",
    "degrade_instance",
    "diff_reports",
    "filter_control",
    "journal_accounting",
    "make_policy",
    "run_with_recovery",
    "spawn_seeds",
]

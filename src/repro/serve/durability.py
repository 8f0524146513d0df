"""Crash-consistent serving: checkpoints, write-ahead journal, recovery.

The serving engine is deterministic by construction — the paper's COLOR
mapping is a pure function, the cycle loop is barrier-synchronous, and every
random draw (client traffic, the fault drop lottery) comes from a seeded
generator whose position is part of the state.  That makes *bit-exact*
crash recovery provable rather than merely plausible, and this module
proves it with three pieces:

:class:`EngineSnapshot`
    a versioned envelope (version, cycle, journal seqno) around the
    engine's own :meth:`~ServeEngine.state_dict`: the request table and id
    counter, admission queue contents, knobs, SLO counters, per-module
    queues and port clocks, the system's lifetime clock, the fault-schedule
    cursor, repair-cache keys, and every RNG state.
    :meth:`ServeEngine.checkpoint` / :meth:`ServeEngine.restore` round-trip
    through it; :func:`repro.io.save_snapshot` adds a CRC and an atomic
    write.

:class:`ServeJournal`
    an append-only JSONL write-ahead log of ``admit`` / ``dispatch`` /
    ``retire`` / ``shed`` / ``retry`` records with monotone seqnos, cycle
    stamps and per-record CRCs.  Because re-execution from a snapshot is
    bit-exact, the journal is not needed to *reconstruct* state — it is the
    independent witness recovery verifies itself against: during replay
    every record the resumed run emits is compared to the journalled one,
    and any divergence raises :class:`JournalError` instead of silently
    serving a different history.  On reload a torn tail (the record being
    appended when the process died) is detected and truncated.

:class:`DurableHost` / :class:`CrashPlan` / :func:`run_with_recovery`
    the crash harness: one durable run loop that checkpoints every ``N``
    cycles, kills the run at an arbitrary cycle — including mid-batch (any
    cycle with a batch in flight) and mid-checkpoint (a torn snapshot at
    the final path) — then restarts from the newest boundary that
    restores, replays the journal in verify mode, and continues to the
    end.  :class:`DurableServer` hosts one engine;
    :class:`~repro.fleet.supervisor.FleetSupervisor` hosts a fleet.
    :func:`assert_equivalent` then proves the recovered run's
    :class:`~repro.serve.slo.ServeReport` and obs event stream match an
    uninterrupted seeded run cycle-for-cycle, and
    :func:`journal_accounting` proves exactly-once request accounting
    (nothing lost, nothing retired twice).

Control-plane telemetry (``checkpoint`` / ``restore`` / ``journal_replay``
events) rides the system's :mod:`repro.obs` recorder and is excluded from
equivalence comparison via :data:`CONTROL_EVENTS`.
"""

from __future__ import annotations

import json
import time
import weakref
import zlib
from dataclasses import dataclass, fields as dataclass_fields
from pathlib import Path

from repro.host.driver import Driver
from repro.io import load_snapshot, save_snapshot
from repro.obs.perf import NULL_PROFILER
from repro.serve.clients import Client
from repro.serve.engine import ServeEngine
from repro.serve.slo import WALL_CLOCK_FIELDS, ServeReport

__all__ = [
    "CONTROL_EVENTS",
    "CRASH_MODES",
    "CheckpointStore",
    "CrashPlan",
    "DurabilityError",
    "DurableHost",
    "DurableServer",
    "EngineSnapshot",
    "JournalError",
    "RecoveryResult",
    "ServeJournal",
    "SimulatedCrash",
    "assert_equivalent",
    "attach_journal",
    "diff_reports",
    "filter_control",
    "journal_accounting",
    "read_manifest",
    "run_with_recovery",
    "write_manifest",
]

SNAPSHOT_VERSION = 1
JOURNAL_FORMAT = 1

#: obs event kinds emitted by the durability layer itself; excluded from
#: run-equivalence comparison (an uninterrupted run has no reason to carry
#: them, and a recovered one necessarily does)
CONTROL_EVENTS = frozenset({"checkpoint", "restore", "journal_replay"})

class DurabilityError(RuntimeError):
    """A snapshot or recovery invariant was violated."""


class JournalError(DurabilityError):
    """Journal replay diverged from the journalled history (nondeterminism)."""


class SimulatedCrash(RuntimeError):
    """Raised by the crash harness at the planned kill point."""


# -- engine snapshot -----------------------------------------------------------


@dataclass(frozen=True)
class EngineSnapshot:
    """A cycle-boundary-consistent checkpoint of one serving run.

    ``cycle`` is the next cycle the restored run will execute; ``seqno`` is
    the journal position the snapshot covers (every record with a smaller
    seqno is already folded into the state, every later one will be
    re-emitted — and verified — by re-execution).  ``state`` is the
    engine's :meth:`~ServeEngine.state_dict`; persist the snapshot with
    :func:`repro.io.save_snapshot`.
    """

    version: int
    cycle: int
    seqno: int
    state: dict

    @classmethod
    def capture(cls, engine: ServeEngine) -> "EngineSnapshot":
        """Snapshot a running engine between :meth:`~ServeEngine.step` calls."""
        seqno = engine.journal.position if engine.journal is not None else 0
        return cls(SNAPSHOT_VERSION, engine.cycle, seqno, engine.state_dict())

    def restore_into(self, engine: ServeEngine, clients: list[Client]) -> None:
        """Load this snapshot into a freshly configured engine + clients."""
        if self.version != SNAPSHOT_VERSION:
            raise DurabilityError(
                f"snapshot version {self.version} unsupported "
                f"(expected {SNAPSHOT_VERSION})"
            )
        engine.load_state(self.state, clients)

    # -- persistence -----------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "version": self.version,
            "cycle": self.cycle,
            "seqno": self.seqno,
            "state": self.state,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "EngineSnapshot":
        return cls(
            version=int(payload["version"]),
            cycle=int(payload["cycle"]),
            seqno=int(payload["seqno"]),
            state=payload["state"],
        )


# -- write-ahead journal -------------------------------------------------------


def _record_crc(rec: dict) -> int:
    return zlib.crc32(
        json.dumps(rec, sort_keys=True, separators=(",", ":")).encode()
    )


class ServeJournal:
    """Append-only JSONL write-ahead log of serving lifecycle records.

    Layout: a header line ``{"format": 1, "type": "serve_journal"}``, then
    one line per record — ``{"crc": <crc32 of the canonical record>,
    "rec": {"seq": n, "kind": ..., "cycle": ..., ...}}`` — flushed per
    append, so at most the final record can be torn by a crash.

    Two modes share :meth:`record`: *append* (normal operation — the record
    is written and flushed) and *verify* (recovery — the record the resumed
    run emits is compared against the journalled one at the same seqno, and
    a mismatch raises :class:`JournalError`).  :meth:`seek_replay` arms
    verify mode for the records between a snapshot's seqno and the journal
    tail; once the run re-emits all of them, appending resumes seamlessly.
    """

    def __init__(self, path: Path, fh, records: list[dict]):
        self.path = Path(path)
        self._fh = fh
        self.records = records
        self._next = len(records)
        self._replay_upto = 0
        self._replay_from = 0
        #: wall-clock profiler for append+flush cost (``journal`` span);
        #: :func:`attach_journal` wires the engine's profiler in here
        self.profiler = NULL_PROFILER

    @classmethod
    def create(cls, path: str | Path) -> "ServeJournal":
        """Start a fresh journal, truncating anything at ``path``."""
        path = Path(path)
        fh = path.open("w", encoding="utf-8")
        fh.write(json.dumps({"format": JOURNAL_FORMAT, "type": "serve_journal"}) + "\n")
        fh.flush()
        return cls(path, fh, [])

    @classmethod
    def recover(cls, path: str | Path) -> "ServeJournal":
        """Reload a journal after a crash: keep the valid prefix, truncate
        the torn tail (partial line, bad CRC, or seqno gap), reopen for
        appending."""
        path = Path(path)
        raw = path.read_bytes()
        records: list[dict] = []
        header_ok = False
        good_end = 0
        pos = 0
        for line in raw.splitlines(keepends=True):
            end = pos + len(line)
            if not line.endswith(b"\n"):
                break  # partial final line: the append the crash interrupted
            data = line.strip()
            if not data:
                break  # we never write blank lines; treat as corruption
            try:
                doc = json.loads(data)
            except json.JSONDecodeError:
                break
            if not header_ok:
                if not (
                    isinstance(doc, dict)
                    and doc.get("type") == "serve_journal"
                    and doc.get("format") == JOURNAL_FORMAT
                ):
                    raise DurabilityError(f"{path} is not a serve journal")
                header_ok = True
            else:
                rec = doc.get("rec") if isinstance(doc, dict) else None
                if (
                    not isinstance(rec, dict)
                    or doc.get("crc") != _record_crc(rec)
                    or rec.get("seq") != len(records)
                ):
                    break
                records.append(rec)
            good_end = end
            pos = end
        if not header_ok:
            raise DurabilityError(f"{path} has no valid journal header")
        if good_end < len(raw):
            with path.open("r+b") as trunc:
                trunc.truncate(good_end)
        fh = path.open("a", encoding="utf-8")
        return cls(path, fh, records)

    # -- positions -------------------------------------------------------------

    @property
    def position(self) -> int:
        """Seqno the next record will carry (== records logically written)."""
        return self._next

    @property
    def replaying(self) -> bool:
        """Whether :meth:`record` is still verifying journalled records."""
        return self._next < self._replay_upto

    @property
    def replay_total(self) -> int:
        """Records the current recovery must re-emit and verify."""
        return self._replay_upto - self._replay_from

    def seek_replay(self, seqno: int) -> None:
        """Arm verify mode from ``seqno`` (a snapshot's coverage point) to
        the journal tail."""
        if not 0 <= seqno <= len(self.records):
            raise JournalError(
                f"snapshot covers seqno {seqno} but the journal only holds "
                f"{len(self.records)} records — journal and snapshots disagree"
            )
        self._next = seqno
        self._replay_from = seqno
        self._replay_upto = len(self.records)

    # -- recording -------------------------------------------------------------

    def record(self, kind: str, cycle: int, **fields) -> None:
        """Append one record — or, during replay, verify it byte-for-byte."""
        rec = {"seq": self._next, "kind": kind, "cycle": cycle}
        rec.update(fields)
        if self._next < self._replay_upto:
            expected = self.records[self._next]
            if expected != rec:
                raise JournalError(
                    f"replay diverged at seqno {self._next}: the journal "
                    f"holds {expected!r} but the resumed run emitted {rec!r}"
                )
            self._next += 1
            return
        self.records.append(rec)
        self._next += 1
        with self.profiler.span("journal"):
            self._fh.write(json.dumps({"crc": _record_crc(rec), "rec": rec}) + "\n")
            self._fh.flush()

    def require_replayed(self) -> None:
        """Raise :class:`JournalError` if the run ended while journalled
        records were still waiting to be re-emitted."""
        if self.replaying:
            raise JournalError(
                f"{self.path} holds {self.replay_total} records past the end "
                f"of the recovered run — the histories disagree"
            )

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


# -- crash harness + supervisor ------------------------------------------------

CRASH_MODES = ("instant", "mid_checkpoint", "torn_journal")


@dataclass(frozen=True)
class CrashPlan:
    """Kill the run when its cycle counter reaches ``at_cycle``.

    ``mode`` selects what the dying process leaves behind:

    * ``"instant"`` — clean kill between writes (any cycle, including one
      with a batch in flight — the mid-batch case);
    * ``"mid_checkpoint"`` — a torn snapshot file at the *final* path, as
      if the process died halfway through an unprotected snapshot write;
      recovery must detect it and fall back to the previous snapshot;
    * ``"torn_journal"`` — a partial record appended to the journal tail;
      recovery must truncate it.
    """

    at_cycle: int
    mode: str = "instant"

    def __post_init__(self) -> None:
        if self.at_cycle < 0:
            raise ValueError(f"at_cycle must be >= 0, got {self.at_cycle}")
        if self.mode not in CRASH_MODES:
            raise ValueError(
                f"unknown crash mode {self.mode!r}; pick from {CRASH_MODES}"
            )


class CheckpointStore:
    """One state directory's checkpoint + journal layout.

    Owns the on-disk naming scheme (``journal.jsonl``,
    ``<prefix>-<cycle>.json`` with the ``snap`` prefix for engine
    snapshots), snapshot writes with retention pruning, and the
    recovery-side selection of the newest snapshot that still loads
    cleanly.  :class:`DurableServer` keeps one for its state dir; the fleet
    supervisor (:class:`~repro.fleet.supervisor.FleetSupervisor`) gives
    every shard its own under ``<state_dir>/shard-<i>/`` and keeps its
    ``fleet-<cycle>.json`` boundaries in one at the root.
    """

    def __init__(self, state_dir: str | Path, retain: int = 3):
        if retain < 1:
            raise ValueError(f"retain must be >= 1, got {retain}")
        self.state_dir = Path(state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.retain = retain

    @property
    def journal_path(self) -> Path:
        return self.state_dir / "journal.jsonl"

    def snapshot_path(self, cycle: int, prefix: str = "snap") -> Path:
        return self.state_dir / f"{prefix}-{cycle:09d}.json"

    def snapshot_paths(self, prefix: str = "snap") -> list[Path]:
        """This directory's ``<prefix>-<cycle>.json`` files, newest first."""
        return sorted(self.state_dir.glob(f"{prefix}-*.json"), reverse=True)

    def create_journal(self) -> "ServeJournal":
        return ServeJournal.create(self.journal_path)

    def recover_journal(self) -> "ServeJournal":
        return ServeJournal.recover(self.journal_path)

    def write_snapshot(self, engine: ServeEngine) -> EngineSnapshot:
        """Capture + persist the engine at its current cycle, then prune.

        The capture and write run under the engine's ``checkpoint``
        profiler span, so durable fleets report checkpoint wall-cost the
        same way :class:`DurableServer` does.
        """
        with engine.profiler.span("checkpoint"):
            snapshot = engine.checkpoint()
            save_snapshot(snapshot.to_json(), self.snapshot_path(snapshot.cycle))
        self.prune()
        return snapshot

    def prune(self, prefix: str = "snap") -> None:
        for stale in self.snapshot_paths(prefix)[self.retain :]:
            stale.unlink()

    def latest_snapshot(self, max_cycle: int | None = None) -> EngineSnapshot | None:
        """Newest snapshot that loads and checksums cleanly, else ``None``.

        ``max_cycle`` bounds the search: fleet recovery must not restore a
        shard *past* the fleet-checkpoint cycle it is rejoining.
        """
        for path in self.snapshot_paths():
            try:
                snapshot = EngineSnapshot.from_json(load_snapshot(path))
            except (ValueError, KeyError):
                continue  # torn or corrupt: fall back to an older snapshot
            if max_cycle is not None and snapshot.cycle > max_cycle:
                continue
            return snapshot
        return None


def attach_journal(engine: ServeEngine, journal: ServeJournal) -> ServeJournal:
    """Make ``journal`` the engine's write-ahead log, timed by the engine's
    profiler."""
    journal.profiler = engine.profiler
    engine.journal = journal
    return journal


def write_manifest(
    state_dir: Path, max_cycles: int, drain: bool, drain_limit: int, **extra
) -> None:
    """Persist a durable run's loop arguments (plus ``extra`` fields) as
    ``<state_dir>/run.json``; a recovery with no usable snapshot restarts
    the run from them."""
    (state_dir / "run.json").write_text(
        json.dumps(
            {
                "max_cycles": max_cycles,
                "drain": drain,
                "drain_limit": drain_limit,
                **extra,
            }
        )
        + "\n"
    )


def read_manifest(state_dir: Path) -> dict:
    """Load ``<state_dir>/run.json`` as written by :func:`write_manifest`,
    with the loop arguments typed for :meth:`ServeEngine.start`."""
    path = state_dir / "run.json"
    if not path.exists():
        raise DurabilityError(
            f"{state_dir} holds no run manifest; nothing to recover"
        )
    manifest = json.loads(path.read_text())
    return {
        **manifest,
        "max_cycles": int(manifest["max_cycles"]),
        "drain": bool(manifest["drain"]),
        "drain_limit": int(manifest["drain_limit"]),
    }


class DurableHost:
    """One durable run loop over a :class:`~repro.host.steppable.Steppable`.

    The host owns what durability needs whatever the target is: the
    ``run.json`` manifest, journal attach at :meth:`start` and the replay
    check plus close at :meth:`finish`, the checkpoint cadence and its
    wall-clock cost, the control events, the :class:`CrashPlan` and its
    three modes, and recovery's "newest boundary that restores, else fall
    back" loop.  A subclass supplies the rest: :meth:`_live` (the live
    ``(engine, store)`` pairs), :meth:`_write_checkpoints` (one boundary's
    files), :meth:`_boundaries` (recovery's candidates, newest first),
    :meth:`_restore` (restore one; returns its cycle),
    :meth:`_restore_fallback` (none restored), and the extra manifest and
    event fields.  Checkpoints happen between steps, so they cost wall
    time (:attr:`checkpoint_overhead`), never simulated cycles.
    """

    #: the :class:`SimulatedCrash` message, formatted with cycle and mode
    crash_message = "simulated crash at cycle {cycle} ({mode})"

    def __init__(
        self, target, recorder, state_dir, *, checkpoint_every, retain, crash_plan
    ):
        if checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        if retain < 1:
            raise ValueError(f"retain must be >= 1, got {retain}")
        self.target = target
        self.recorder = recorder
        self.state_dir = None if state_dir is None else Path(state_dir)
        self.retain = retain
        self.crash_plan = crash_plan
        self.checkpoint_seconds = 0.0
        self.run_seconds = 0.0
        self.checkpoints_written = 0
        self.replayed_records = 0
        self._replaying: list[ServeJournal] = []
        # the driver reaches back through a weak proxy: a strong reference
        # would close a host -> driver -> callback -> host cycle, and a
        # dropped host (with its whole journal) would then live until the
        # next full garbage collection
        host = weakref.proxy(self)
        self.driver = Driver(
            target,
            checkpoint_every=None if self.state_dir is None else checkpoint_every,
            checkpoint=lambda target: host.checkpoint(),
            crash_at=None if crash_plan is None else crash_plan.at_cycle,
            crash=lambda target: host._crash(),
            after_step=[lambda target: host._after_step()],
        )

    @property
    def cycle(self) -> int:
        """The target's clock."""
        return self.target.cycle

    @property
    def active(self) -> bool:
        """True between :meth:`start` and the run's natural end."""
        return self.target.active

    @property
    def checkpoint_overhead(self) -> float:
        """Wall-clock fraction the run spent writing checkpoints."""
        return (
            self.checkpoint_seconds / self.run_seconds if self.run_seconds else 0.0
        )

    def _manifest_fields(self) -> dict:
        """Fields ``run.json`` records beyond the loop arguments."""
        return {}

    def _journals(self) -> list[ServeJournal]:
        return [e.journal for e, _ in self._live() if e.journal is not None]

    def _event(self, kind: str, **fields) -> None:
        if self.recorder.enabled:
            self.recorder.event(kind, cycle=self.target.cycle, **fields)

    # -- the run ---------------------------------------------------------------

    def start(
        self,
        clients: list[Client],
        max_cycles: int,
        drain: bool = True,
        drain_limit: int = 1_000_000,
    ) -> None:
        """Arm a fresh run without driving it: write the run manifest, start
        the target and give every live engine a fresh journal.  Drive it
        with :meth:`step` (the daemon pumps ``driver.tick()`` itself) and
        close it with :meth:`finish`."""
        if self.state_dir is not None:
            extra = self._manifest_fields()
            write_manifest(self.state_dir, max_cycles, drain, drain_limit, **extra)
        self.target.start(clients, max_cycles, drain=drain, drain_limit=drain_limit)
        self.driver.last_checkpoint = -1
        for engine, store in self._live():
            attach_journal(engine, store.create_journal())

    def step(self) -> bool:
        """One durable cycle: crash check, checkpoint cadence, the target's
        step, after-step hooks.  ``False`` once the run is done."""
        return self.driver.tick()

    def finish(self):
        """Check that no live journal holds records the run did not
        re-emit, close the journals and close the run out."""
        try:
            for journal in self._journals():
                journal.require_replayed()
            return self.target.finish()
        finally:
            for journal in self._journals():
                journal.close()

    def _loop(self):
        """Drive the run to its end and :meth:`finish` it, timed into
        :attr:`run_seconds`."""
        self._replaying = [j for j in self._journals() if j.replaying]
        started = time.perf_counter()
        try:
            self.driver.loop()
            return self.finish()
        finally:
            self.run_seconds += time.perf_counter() - started
            for journal in self._journals():
                journal.close()  # already closed unless the run crashed

    def _after_step(self) -> None:
        """On the step where recovery's journal replay completes, record
        :attr:`replayed_records` and emit the one ``journal_replay`` event."""
        if self._replaying and not any(j.replaying for j in self._replaying):
            self.replayed_records = sum(j.replay_total for j in self._replaying)
            self._replaying = []
            self._event("journal_replay", records=self.replayed_records)

    # -- checkpoints and crashes -------------------------------------------------

    def checkpoint(self) -> None:
        """Write one boundary now (the driver calls this on its cadence).

        The ``checkpoint`` event goes out before the capture, so the
        snapshot itself remembers that a checkpoint happened here (WAL
        convention: log, then act).
        """
        cycle = self.target.cycle
        self._event("checkpoint", **self._event_fields())
        started = time.perf_counter()
        self._write_checkpoints()
        self.checkpoint_seconds += time.perf_counter() - started
        self.checkpoints_written += 1
        self.driver.last_checkpoint = cycle

    def _crash(self) -> None:
        plan = self.crash_plan
        for engine, store in self._live():
            if plan.mode == "mid_checkpoint":
                # a torn snapshot at the final path, as if the writer died
                # mid-write with no atomic-rename protection
                path = save_snapshot(
                    engine.checkpoint().to_json(), store.snapshot_path(engine.cycle)
                )
                path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
            elif plan.mode == "torn_journal":
                # a partial record at the journal tail (no trailing newline)
                engine.journal._fh.write('{"crc": 1234567, "rec": {"seq": ')
                engine.journal._fh.flush()
        raise SimulatedCrash(
            self.crash_message.format(cycle=self.target.cycle, mode=plan.mode)
        )

    # -- recovery ----------------------------------------------------------------

    def _recover(self, clients: list[Client]):
        """Restore the newest boundary that restores (else fall back), then
        drive the run to its end with every journal verifying the replay."""
        if self.state_dir is None:
            raise DurabilityError(f"this {type(self).__name__} has no state dir")
        manifest = read_manifest(self.state_dir)
        for key, value in self._manifest_fields().items():
            if manifest.get(key) != value:
                raise DurabilityError(
                    f"the run manifest records {key}={manifest.get(key)}; "
                    f"this run has {value}"
                )
        failure = None
        for boundary in self._boundaries():
            try:
                restored = self._restore(boundary, clients, manifest)
                break
            except (DurabilityError, ValueError, KeyError) as exc:
                failure = exc  # torn or unassemblable: try an older boundary
        else:
            restored = self._restore_fallback(clients, manifest, failure)
        if restored is not None:
            self.driver.last_checkpoint = restored
        self._event("restore", snapshot=restored, **self._event_fields())
        return self._loop()


class DurableServer(DurableHost):
    """A durable serving run: one engine, one state dir.

    ``state_dir`` accumulates ``run.json`` (the run's arguments),
    ``journal.jsonl`` and ``snap-<cycle>.json`` files (``retain`` newest
    kept).  :meth:`serve` starts a fresh run; after a crash, build a *new*
    engine + clients with the same configuration and call :meth:`recover`
    on a new server over the same ``state_dir``.
    """

    def __init__(
        self,
        engine: ServeEngine,
        clients: list[Client],
        state_dir: str | Path,
        checkpoint_every: int = 100,
        crash_plan: CrashPlan | None = None,
        retain: int = 3,
    ):
        super().__init__(
            engine,
            engine.system.recorder,
            state_dir,
            checkpoint_every=checkpoint_every,
            retain=retain,
            crash_plan=crash_plan,
        )
        self.engine = engine
        self.clients = list(clients)
        self.store = CheckpointStore(self.state_dir, retain=retain)

    @property
    def journal(self) -> ServeJournal | None:
        """The engine's write-ahead journal (``None`` before a run starts)."""
        return self.engine.journal

    def serve(
        self, max_cycles: int, drain: bool = True, drain_limit: int = 1_000_000
    ) -> ServeReport:
        """Run from cycle 0 with checkpoints + journal in ``state_dir``."""
        self.start(self.clients, max_cycles, drain=drain, drain_limit=drain_limit)
        return self._loop()

    def recover(self) -> ServeReport:
        """Resume a crashed run from ``state_dir`` and drive it to the end.

        Protocol: load the newest snapshot that passes its CRC (skipping
        torn ones), truncate the journal's torn tail, restore the engine,
        re-execute with the journal in verify mode until the crash point is
        passed, then continue appending.  With no usable snapshot the run
        re-executes from cycle 0 (cold start) under the same verification.
        """
        return self._recover(self.clients)

    def _live(self) -> list[tuple[ServeEngine, CheckpointStore]]:
        return [(self.engine, self.store)]

    def _event_fields(self) -> dict:
        return {"seqno": self.journal.position}

    def _write_checkpoints(self) -> None:
        self.store.write_snapshot(self.engine)

    def _boundaries(self) -> list[EngineSnapshot]:
        # the journal reopens first: every way back verifies against it
        attach_journal(self.engine, self.store.recover_journal())
        snapshot = self.store.latest_snapshot()
        return [] if snapshot is None else [snapshot]

    def _restore(self, snapshot: EngineSnapshot, clients, manifest) -> int:
        self.engine.restore(snapshot, clients)
        self.journal.seek_replay(snapshot.seqno)
        return snapshot.cycle

    def _restore_fallback(self, clients, manifest, failure) -> None:
        if failure is not None:
            raise failure  # the snapshot loads but does not fit this engine
        self.journal.seek_replay(0)
        self.engine.start(
            clients,
            manifest["max_cycles"],
            drain=manifest["drain"],
            drain_limit=manifest["drain_limit"],
        )


@dataclass(frozen=True)
class RecoveryResult:
    """Outcome of :func:`run_with_recovery`."""

    report: ServeReport
    crashed: bool
    server: DurableServer


def run_with_recovery(
    factory,
    state_dir: str | Path,
    max_cycles: int,
    *,
    drain: bool = True,
    drain_limit: int = 1_000_000,
    checkpoint_every: int = 100,
    crash_plan: CrashPlan | None = None,
    retain: int = 3,
) -> RecoveryResult:
    """Serve under a crash plan; on crash, rebuild and recover to the end.

    ``factory`` must return a fresh ``(engine, clients)`` pair with the
    exact configuration of the original run each time it is called — it
    plays the role of restarting the process.  Returns the final report
    (recovered, if a crash fired) plus the supervisor that produced it.
    """

    def server(plan: CrashPlan | None) -> DurableServer:
        engine, clients = factory()
        return DurableServer(
            engine, clients, state_dir, checkpoint_every, plan, retain=retain
        )

    first = server(crash_plan)
    try:
        report = first.serve(max_cycles, drain=drain, drain_limit=drain_limit)
        return RecoveryResult(report=report, crashed=False, server=first)
    except SimulatedCrash:
        pass
    second = server(None)
    return RecoveryResult(report=second.recover(), crashed=True, server=second)


# -- equivalence + exactly-once accounting -------------------------------------


def filter_control(events: list[dict]) -> list[dict]:
    """Drop the durability layer's own telemetry (see :data:`CONTROL_EVENTS`)."""
    return [ev for ev in events if ev.get("ev") not in CONTROL_EVENTS]


def diff_reports(a, b) -> list[str]:
    """Field-by-field differences between two :class:`ServeReport` or two
    :class:`~repro.fleet.report.FleetReport` objects (empty == identical).

    Wall-clock fields (:data:`~repro.serve.slo.WALL_CLOCK_FIELDS`) are
    excluded: two bit-identical simulated histories always differ in real
    seconds, so they are not part of the equivalence claim.  A fleet
    report's ``shard_reports`` are diffed shard by shard.
    """
    out = []
    for f in dataclass_fields(a):
        if f.name in WALL_CLOCK_FIELDS:
            continue
        va, vb = getattr(a, f.name), getattr(b, f.name)
        if f.name == "shard_reports" and len(va) == len(vb):
            for shard, (ra, rb) in enumerate(zip(va, vb)):
                out.extend(f"shard {shard} {line}" for line in diff_reports(ra, rb))
        elif f.name == "shard_reports":
            out.append(f"shard_reports: {len(va)} != {len(vb)}")
        elif va != vb:
            out.append(f"{f.name}: {va!r} != {vb!r}")
    return out


def assert_equivalent(
    baseline: tuple[ServeReport, list[dict]],
    recovered: tuple[ServeReport, list[dict]],
) -> None:
    """Prove a recovered run matches an uninterrupted one cycle-for-cycle.

    Compares the :class:`~repro.serve.slo.ServeReport` field by field and
    the obs event streams element by element (control-plane events
    excluded).  Raises :class:`DurabilityError` naming the first divergence.
    """
    report_a, events_a = baseline
    report_b, events_b = recovered
    diffs = diff_reports(report_a, report_b)
    if diffs:
        raise DurabilityError("reports differ: " + "; ".join(diffs))
    # equivalence is defined over the JSON artifact representation (a
    # restored event has list-valued fields where a live one holds tuples)
    events_a = json.loads(json.dumps(filter_control(events_a)))
    events_b = json.loads(json.dumps(filter_control(events_b)))
    for i, (ev_a, ev_b) in enumerate(zip(events_a, events_b)):
        if ev_a != ev_b:
            raise DurabilityError(
                f"event streams diverge at index {i}: {ev_a!r} != {ev_b!r}"
            )
    if len(events_a) != len(events_b):
        raise DurabilityError(
            f"event streams differ in length: baseline {len(events_a)}, "
            f"recovered {len(events_b)}"
        )


def journal_accounting(records: list[dict]) -> dict:
    """Exactly-once bookkeeping over a journal's records.

    Returns the admitted / retired / shed request-id sets plus the two
    failure lists the durability claim cares about: ``double_retired``
    (a request retired more than once — must be empty always) and ``lost``
    (admitted but neither retired nor shed — must be empty for a drained
    run).
    """
    admitted: set[int] = set()
    retired: set[int] = set()
    shed: set[int] = set()
    double_retired: list[int] = []
    for rec in records:
        kind = rec.get("kind")
        rid = rec.get("request")
        if kind == "admit":
            admitted.add(rid)
        elif kind == "retire":
            if rid in retired:
                double_retired.append(rid)
            retired.add(rid)
        elif kind == "shed":
            shed.add(rid)
    return {
        "admitted": admitted,
        "retired": retired,
        "shed": shed,
        "double_retired": double_retired,
        "lost": admitted - retired - shed,
    }

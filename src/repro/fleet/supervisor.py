"""Self-healing fleet supervision: per-shard durability, restart, rejoin.

:class:`FleetSupervisor` wraps a :class:`~repro.fleet.coordinator.FleetCoordinator`
with the two things the coordinator deliberately does not own.  It is a
:class:`~repro.serve.durability.DurableHost`: the run loop, manifest,
journal lifecycle, crash plan and recovery fallback are the host's; this
module supplies the fleet's boundary format and the restart ladder.

* **per-shard durability** — every shard gets its own
  :class:`~repro.serve.durability.CheckpointStore` under
  ``<state_dir>/shard-<i>/`` (checkpoints every ``checkpoint_every`` fleet
  cycles + a write-ahead journal with torn-tail recovery), plus a
  fleet-level snapshot (``fleet-<cycle>.json``) of the coordinator's own
  state — health, failover ledger, router placement, quotas, client RNGs —
  written at the same cycle boundary, so a whole-fleet crash recovers
  deterministically via :meth:`FleetSupervisor.recover`;
* **restart/rejoin** — when a shard dies, the supervisor snapshots the
  frozen engine (the *death snapshot*: the shard's measured history
  survives its death), schedules a restart ``restart_after`` cycles later
  under a per-shard budget with capped exponential backoff, and walks a
  graceful-degradation ladder to bring it back:

  1. **checkpoint** — restore the newest loadable snapshot, re-open the
     journal at its recovered tail and append;
  2. **journal** — snapshots unusable: start a fresh engine but carry the
     journal forward (request-id continuity from the journalled history);
  3. **fresh** — journal unusable too: a blank shard with a new journal;
  4. **stay dead** — everything failed: the shard is abandoned and the
     fleet serves on.  No rung ever raises out of the fleet loop.

  A restored shard is reconciled against the coordinator's failover ledger
  before rejoining (:meth:`~repro.fleet.coordinator.FleetCoordinator.rejoin`
  strips every request it held at death — all of it was settled or
  re-routed — so nothing is ever executed against the fleet counters
  twice), and the router is invited to rebalance back with bounded
  migration.

A shard journal that lived through a death + checkpoint-restore keeps the
records the restore rolled back; per-shard
:func:`~repro.serve.durability.journal_accounting` can therefore show those
superseded admissions as "lost" — the coordinator's exactly-once counters
(``arrivals == completed + quota_shed + shard_shed + fleet_shed``) are the
fleet-level source of truth.
"""

from __future__ import annotations

from pathlib import Path

from repro.fleet.coordinator import FLEET_SNAPSHOT_VERSION, FleetCoordinator
from repro.fleet.report import FleetReport
from repro.io import load_snapshot, save_snapshot
from repro.serve.clients import Client
from repro.serve.durability import (
    CheckpointStore,
    CrashPlan,
    DurabilityError,
    DurableHost,
    attach_journal,
)
from repro.serve.engine import ServeEngine

__all__ = ["FleetSupervisor"]


class FleetSupervisor(DurableHost):
    """Drive a fleet run with durability, restarts and whole-fleet recovery.

    Parameters
    ----------
    coordinator:
        The fleet to supervise.  The supervisor owns the step loop; drive
        it with :meth:`serve` (fresh run) or :meth:`recover` (after a
        whole-fleet crash over the same ``state_dir``).
    factory:
        Optional ``factory(shard) -> ServeEngine`` building a replacement
        engine with the shard's exact original configuration (tree, policy,
        fault schedule).  Without one, restarts restore into / re-start the
        existing dead engine object — fine in-process, but a real restart
        (new process) needs the factory.
    state_dir:
        Root of the fleet's durable state (``run.json``,
        ``fleet-<cycle>.json``, ``shard-<i>/``).  ``None`` disables
        durability: restarts still work but only the ``fresh`` rung is
        available and nothing survives a fleet crash.
    checkpoint_every:
        Fleet-cycle cadence of shard + fleet snapshots (durable runs only).
    restart_after:
        Cycles between a shard's death and its first restart attempt.
        ``None`` (default) disables restarts — pure PR-7 failover.
    restart_budget:
        Maximum restart attempts per shard per run.
    backoff / backoff_cap:
        The n-th attempt waits ``restart_after * min(backoff**n,
        backoff_cap)`` cycles — capped exponential backoff.
    retain:
        Snapshots kept per shard store (and fleet snapshots kept).
    crash_at:
        Crash-harness hook: raise
        :class:`~repro.serve.durability.SimulatedCrash` once the fleet
        clock reaches this cycle (an ``instant``
        :class:`~repro.serve.durability.CrashPlan`).
    """

    crash_message = "fleet crash injected at cycle {cycle}"

    def __init__(
        self,
        coordinator: FleetCoordinator,
        *,
        factory=None,
        state_dir: str | Path | None = None,
        checkpoint_every: int = 100,
        restart_after: int | None = None,
        restart_budget: int = 3,
        backoff: int = 2,
        backoff_cap: int = 8,
        retain: int = 3,
        crash_at: int | None = None,
    ):
        if restart_after is not None and restart_after < 1:
            raise ValueError(
                f"restart_after must be >= 1, got {restart_after}"
            )
        if restart_budget < 0:
            raise ValueError(f"restart_budget must be >= 0, got {restart_budget}")
        if backoff < 1:
            raise ValueError(f"backoff must be >= 1, got {backoff}")
        if backoff_cap < 1:
            raise ValueError(f"backoff_cap must be >= 1, got {backoff_cap}")
        super().__init__(
            coordinator,
            coordinator.recorder,
            state_dir,
            checkpoint_every=checkpoint_every,
            retain=retain,
            crash_plan=None if crash_at is None else CrashPlan(crash_at),
        )
        self.coordinator = coordinator
        self.factory = factory
        self.restart_after = restart_after
        self.restart_budget = restart_budget
        self.backoff = backoff
        self.backoff_cap = backoff_cap
        #: the root store holds the ``fleet-<cycle>.json`` boundaries
        self.store = self.stores = None
        if self.state_dir is not None:
            self.store = CheckpointStore(self.state_dir, retain=retain)
            self.stores = [
                CheckpointStore(self.state_dir / f"shard-{i}", retain=retain)
                for i in range(len(coordinator.shards))
            ]
        self._attempts: dict[int, int] = {}
        self._pending: dict[int, int] = {}
        self._deaths_seen = 0

    # -- entry points ----------------------------------------------------------

    def serve(
        self,
        clients: list[Client],
        max_cycles: int,
        drain: bool = True,
        drain_limit: int = 1_000_000,
    ) -> FleetReport:
        """Run the fleet from cycle 0 under supervision."""
        self.start(clients, max_cycles, drain=drain, drain_limit=drain_limit)
        return self._loop()

    def start(
        self,
        clients: list[Client],
        max_cycles: int,
        drain: bool = True,
        drain_limit: int = 1_000_000,
    ) -> None:
        """Start the fleet with a fresh restart ladder (everything
        :meth:`serve` does short of driving the loop)."""
        self._attempts = {}
        self._pending = {}
        self._deaths_seen = 0
        super().start(clients, max_cycles, drain=drain, drain_limit=drain_limit)

    def recover(self, clients: list[Client]) -> FleetReport:
        """Resume a crashed fleet run from ``state_dir`` and drive it home.

        The caller rebuilds the coordinator (and ``clients``) with the
        original run's configuration, exactly as
        :meth:`~repro.serve.durability.DurableServer.recover` asks for a
        single engine.  The newest fleet snapshot that can be fully
        assembled wins: every shard it lists as alive/suspected must have a
        shard snapshot at that exact cycle; dead shards restore from their
        death snapshot.  Shard journals re-open at their recovered tails
        and verify the re-executed suffix record-for-record, so recovery is
        deterministic or it is an error — never silently divergent.
        """
        return self._recover(clients)

    # -- the durable host's hooks ------------------------------------------------

    def _live(self) -> list[tuple[ServeEngine, CheckpointStore]]:
        coord = self.coordinator
        pairs = zip(coord.shards, self.stores or ())
        return [pair for shard, pair in enumerate(pairs) if coord._steppable(shard)]

    def _manifest_fields(self) -> dict:
        return {"shards": len(self.coordinator.shards)}

    def _event_fields(self) -> dict:
        return {"fleet": True}

    def _write_checkpoints(self) -> None:
        """Write one fleet boundary: a snapshot of every shard that can
        still step, then ``fleet-<cycle>.json`` with the coordinator's and
        the restart ladder's state."""
        for engine, store in self._live():
            store.write_snapshot(engine)
        payload = {
            "version": FLEET_SNAPSHOT_VERSION,
            "fleet": self.coordinator.state_dict(),
            "supervisor": {
                "attempts": {str(s): n for s, n in self._attempts.items()},
                "pending": {str(s): c for s, c in self._pending.items()},
                "deaths_seen": self._deaths_seen,
            },
        }
        save_snapshot(payload, self.store.snapshot_path(self.cycle, "fleet"))
        self.store.prune("fleet")

    def _boundaries(self) -> list[Path]:
        return self.store.snapshot_paths("fleet")

    def _restore(self, path: Path, clients, manifest: dict) -> int:
        payload = load_snapshot(path)
        if payload.get("version") != FLEET_SNAPSHOT_VERSION:
            raise DurabilityError(
                f"fleet snapshot version {payload.get('version')} unsupported"
            )
        coord = self.coordinator
        fleet_state = payload["fleet"]
        cycle = int(fleet_state["cycle"])
        health = [str(h) for h in fleet_state["health"]]
        if len(health) != len(coord.shards):
            raise DurabilityError("fleet snapshot shard count mismatch")
        # assemble first (any miss falls back to an older fleet boundary),
        # mutate only once every required shard snapshot is in hand
        chosen = []
        for shard, state in enumerate(health):
            snap = self.stores[shard].latest_snapshot(max_cycle=cycle)
            if state in ("alive", "suspected"):
                if snap is None or snap.cycle != cycle:
                    raise DurabilityError(
                        f"shard {shard} has no snapshot at fleet cycle {cycle}"
                    )
            chosen.append(snap)
        for shard, (state, snap) in enumerate(zip(health, chosen)):
            if snap is not None:
                engine = self._build_engine(shard)
                engine.restore(snap, [coord.feed(shard)])
            else:
                # a shard that died before its first checkpoint and whose
                # death snapshot is gone: an empty history (it is dead, so
                # it never steps)
                engine = self._started_engine(
                    shard,
                    manifest["max_cycles"],
                    manifest["drain"],
                    manifest["drain_limit"],
                )
            coord.shards[shard] = engine
            if state in ("alive", "suspected"):
                journal = attach_journal(engine, self.stores[shard].recover_journal())
                journal.seek_replay(snap.seqno)
        coord.restore_state(fleet_state, clients)
        sup = payload.get("supervisor", {})
        self._attempts = {
            int(s): int(n) for s, n in sup.get("attempts", {}).items()
        }
        self._pending = {
            int(s): int(c) for s, c in sup.get("pending", {}).items()
        }
        self._deaths_seen = int(sup.get("deaths_seen", len(coord._dead)))
        return cycle

    def _restore_fallback(self, clients, manifest, failure):
        raise DurabilityError(
            f"{self.state_dir} holds no recoverable fleet snapshot"
            + (f" (last failure: {failure})" if failure else "")
        )

    def _after_step(self) -> None:
        super()._after_step()
        self._note_deaths()
        self._run_due_restarts()

    # -- restarts ----------------------------------------------------------------

    def _note_deaths(self) -> None:
        """React to shards the last step declared dead: freeze their history
        to disk (the death snapshot) and schedule a restart."""
        coord = self.coordinator
        newly_dead = coord._dead[self._deaths_seen :]
        self._deaths_seen = len(coord._dead)
        for shard in newly_dead:
            engine = coord.shards[shard]
            if self.stores is not None:
                try:
                    # unconditional: the dead shard's measured history must
                    # survive both its own restart and a whole-fleet crash
                    self.stores[shard].write_snapshot(engine)
                except OSError:
                    pass  # a failed death snap degrades recovery, not the run
                if engine.journal is not None:
                    engine.journal.close()
                    engine.journal = None
            attempts = self._attempts.get(shard, 0)
            if self.restart_after is None or attempts >= self.restart_budget:
                continue
            delay = self.restart_after * min(
                self.backoff**attempts, self.backoff_cap
            )
            self._pending[shard] = coord._death_cycle[shard] + delay

    def _run_due_restarts(self) -> None:
        if not self._pending:
            return
        coord = self.coordinator
        cycle = coord._cycle
        due = sorted(s for s, at in self._pending.items() if cycle >= at)
        for shard in due:
            del self._pending[shard]
            if not coord._active:
                continue
            self._attempts[shard] = self._attempts.get(shard, 0) + 1
            self._restore_shard(shard)

    # -- the degradation ladder ------------------------------------------------

    def _build_engine(self, shard: int) -> ServeEngine:
        if self.factory is not None:
            return self.factory(shard)
        return self.coordinator.shards[shard]

    def _started_engine(
        self, shard: int, max_cycles: int, drain: bool, drain_limit: int
    ) -> ServeEngine:
        engine = self._build_engine(shard)
        engine.start(
            [self.coordinator.feed(shard)],
            max_cycles,
            drain=drain,
            drain_limit=drain_limit,
        )
        return engine

    def _restore_shard(self, shard: int) -> bool:
        """Walk the restore ladder; ``True`` iff the shard rejoined."""
        coord = self.coordinator
        coord.begin_restore(shard)
        store = None if self.stores is None else self.stores[shard]
        rungs = ("checkpoint", "journal", "fresh") if store is not None else ("fresh",)
        for how in rungs:
            try:
                engine, fields = self._rung(how, shard, store)
                if engine is None:
                    continue
                coord.rejoin(shard, engine, how=how)
            except Exception:
                continue  # ladder: fall through, never crash the fleet
            self._event("shard_restore", shard=shard, how=how, **fields)
            return True
        # rung 4: stay dead — the fleet serves on without the shard
        coord.abandon_restore(shard)
        self._event("shard_restore", shard=shard, how="abandoned")
        return False

    def _rung(self, how: str, shard: int, store: CheckpointStore | None):
        """The engine one rung (see the module docstring) restores, with its
        ``shard_restore`` fields; ``(None, {})`` when there is no snapshot."""
        coord = self.coordinator
        if how == "checkpoint":
            snapshot = store.latest_snapshot()
            if snapshot is None:
                return None, {}
            engine = self._build_engine(shard)
            engine.restore(snapshot, [coord.feed(shard)])
            attach_journal(engine, store.recover_journal())
            return engine, {"snapshot": snapshot.cycle}
        engine = self._started_engine(
            shard, coord._max_cycles, coord._drain, coord._drain_limit
        )
        if how == "journal":  # request-id continuity from the journal
            journal = store.recover_journal()
            admitted = [
                int(entry["request"])
                for entry in journal.records
                if entry.get("kind") == "admit" and entry.get("request") is not None
            ]
            engine.reserve_ids(admitted)
            attach_journal(engine, journal)
        elif store is not None:
            attach_journal(engine, store.create_journal())
        return engine, {}

"""The shared run loop: one :class:`Driver` drives every steppable host.

Before this layer existed, ``ServeEngine.run``, the durable server's loop,
``FleetCoordinator.run`` and ``FleetSupervisor.step`` each re-implemented
the same "start → step until done → periodic checkpoint → finish"
orchestration.  The :class:`Driver` owns that loop once:

* **checkpoint cadence** — with ``checkpoint_every=N`` and a ``checkpoint``
  callable, the driver fires the callable at every cycle divisible by ``N``
  (while the target is active, never twice at one cycle) *before* stepping,
  so a checkpoint always lands on a cycle boundary.  ``last_checkpoint`` is
  the cadence state; recovery seeds it with the restored snapshot's cycle
  so the boundary it resumed from is not re-written.
* **crash plans** — with ``crash_at`` and a ``crash`` callable, the driver
  fires the callable once the target's clock reaches the planned cycle
  (the callable raises — e.g.
  :class:`~repro.serve.durability.SimulatedCrash` — to kill the run).
* **hooks** — ``after_step`` callables receive the target each tick; they
  are skipped on the final (``False``) step, matching the historical
  ``break``-on-done loops byte for byte.

Order within one :meth:`tick`: crash check → checkpoint cadence →
``target.step()`` → ``after_step`` hooks.  This is exactly the order the
durable hosts (:class:`~repro.serve.durability.DurableHost`) established,
so delegating to the driver keeps existing runs — including
crash-recovery equivalence — byte-identical.  Wall-clock pacing belongs to
the caller: the asyncio daemon awaits between :meth:`Driver.tick` calls.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

__all__ = ["Driver"]

Hook = Callable[[Any], None]


class Driver:
    """Owns the step loop of one :class:`~repro.host.steppable.Steppable`."""

    def __init__(
        self,
        target,
        *,
        checkpoint_every: int | None = None,
        checkpoint: Hook | None = None,
        crash_at: int | None = None,
        crash: Hook | None = None,
        after_step: Iterable[Hook] = (),
    ):
        if checkpoint_every is not None:
            if checkpoint_every < 1:
                raise ValueError(
                    f"checkpoint_every must be >= 1, got {checkpoint_every}"
                )
            if checkpoint is None:
                raise ValueError("checkpoint_every needs a checkpoint callable")
        if crash_at is not None and crash is None:
            raise ValueError("crash_at needs a crash callable")
        self.target = target
        self.checkpoint_every = checkpoint_every
        self.checkpoint = checkpoint
        self.crash_at = crash_at
        self.crash = crash
        self.after_step = list(after_step)
        #: cycle of the last checkpoint written (cadence state; recovery
        #: seeds it with the restored snapshot's cycle)
        self.last_checkpoint = -1
        #: successful (True-returning) steps driven so far
        self.ticks = 0

    def start(self, *args, **kwargs) -> None:
        """Arm the target (passes straight through to ``target.start``)."""
        self.target.start(*args, **kwargs)

    def tick(self) -> bool:
        """Drive one cycle; ``False`` once the target is done.

        A ``False`` tick runs the crash and checkpoint gates (they check
        ``target.active`` themselves) but skips the after-step hooks,
        exactly as the historical loops broke out before their post-step
        work.
        """
        target = self.target
        if (
            self.crash_at is not None
            and target.active
            and target.cycle >= self.crash_at
        ):
            self.crash(target)
        if (
            self.checkpoint_every is not None
            and target.active
            and target.cycle % self.checkpoint_every == 0
            and target.cycle != self.last_checkpoint
        ):
            self.checkpoint(target)
            self.last_checkpoint = target.cycle
        if not target.step():
            return False
        self.ticks += 1
        for hook in self.after_step:
            hook(target)
        return True

    def loop(self) -> int:
        """Tick until the target is done; returns the cycles driven."""
        before = self.ticks
        while self.tick():
            pass
        return self.ticks - before

    def finish(self):
        """Close the target out (passes through to ``target.finish``)."""
        return self.target.finish()

    def run(self, *args, **kwargs):
        """``start`` + ``loop`` + ``finish`` — the classic batch run."""
        self.start(*args, **kwargs)
        self.loop()
        return self.finish()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Driver(target={type(self.target).__name__}, "
            f"ticks={self.ticks}, checkpoint_every={self.checkpoint_every}, "
            f"crash_at={self.crash_at})"
        )

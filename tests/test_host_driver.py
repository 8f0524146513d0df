"""Driver unit tests: cadence, crash gate, hook order, tick semantics."""

import pytest

from repro.host import Driver, Steppable


class ScriptedTarget:
    """A minimal Steppable that runs ``total`` cycles and logs everything."""

    def __init__(self, total):
        self.total = total
        self._cycle = 0
        self._active = False
        self.log = []

    @property
    def cycle(self):
        return self._cycle

    @property
    def active(self):
        return self._active

    def start(self, clients, max_cycles, drain=True, drain_limit=1_000_000):
        self._cycle = 0
        self._active = True
        self.log.append(("start", clients, max_cycles))

    def step(self):
        if not self._active:
            return False
        if self._cycle >= self.total:
            self._active = False
            return False
        self._cycle += 1
        self.log.append(("step", self._cycle))
        return True

    def finish(self):
        self.log.append(("finish",))
        return {"cycles": self._cycle}


def test_scripted_target_satisfies_protocol():
    assert isinstance(ScriptedTarget(1), Steppable)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"checkpoint_every": 0, "checkpoint": lambda t: None},
        {"checkpoint_every": 5},  # cadence without a callable
        {"crash_at": 3},  # crash cycle without a callable
    ],
)
def test_driver_rejects_bad_parameters(kwargs):
    with pytest.raises(ValueError):
        Driver(ScriptedTarget(1), **kwargs)


def test_run_is_start_loop_finish():
    target = ScriptedTarget(3)
    report = Driver(target).run(["c"], 3)
    assert report == {"cycles": 3}
    assert target.log[0] == ("start", ["c"], 3)
    assert target.log[-1] == ("finish",)
    assert [e for e in target.log if e[0] == "step"] == [
        ("step", 1),
        ("step", 2),
        ("step", 3),
    ]


def test_loop_returns_cycles_driven_and_counts_ticks():
    target = ScriptedTarget(7)
    driver = Driver(target)
    driver.start([], 7)
    assert driver.loop() == 7
    assert driver.ticks == 7
    # a drained target yields no further ticks
    assert driver.loop() == 0


def test_checkpoint_fires_on_cadence_exactly_once_per_boundary():
    target = ScriptedTarget(5)
    seen = []
    driver = Driver(
        target,
        checkpoint_every=2,
        checkpoint=lambda t: seen.append(t.cycle),
    )
    driver.start([], 5)
    driver.loop()
    assert seen == [0, 2, 4]
    assert driver.last_checkpoint == 4
    # the final (False) tick must not re-checkpoint an inactive target
    driver.tick()
    assert seen == [0, 2, 4]


def test_seeded_last_checkpoint_skips_restored_boundary():
    target = ScriptedTarget(4)
    seen = []
    driver = Driver(
        target, checkpoint_every=2, checkpoint=lambda t: seen.append(t.cycle)
    )
    driver.start([], 4)
    driver.last_checkpoint = 0  # as recovery seeds it with the snapshot cycle
    driver.loop()
    assert seen == [2, 4]


def test_crash_gate_fires_at_cycle():
    class Boom(RuntimeError):
        pass

    def crash(target):
        raise Boom(f"at {target.cycle}")

    target = ScriptedTarget(10)
    driver = Driver(target, crash_at=4, crash=crash)
    driver.start([], 10)
    with pytest.raises(Boom, match="at 4"):
        driver.loop()
    assert target.cycle == 4


def test_hooks_order_and_final_step_skips_after_hooks():
    target = ScriptedTarget(2)
    calls = []
    driver = Driver(target, after_step=[lambda t: calls.append(("after", t.cycle))])
    driver.start([], 2)
    driver.loop()
    # after hooks see the post-step cycle; the final False step runs none
    assert calls == [("after", 1), ("after", 2)]


def test_checkpoint_lands_before_the_step_it_covers():
    target = ScriptedTarget(3)
    order = []
    driver = Driver(
        target,
        checkpoint_every=1,
        checkpoint=lambda t: order.append(("ckpt", t.cycle)),
        after_step=[lambda t: order.append(("stepped", t.cycle))],
    )
    driver.start([], 3)
    driver.loop()
    # the trailing ("ckpt", 3): the target is still active entering the
    # final tick (it deactivates inside the False step), so the last
    # boundary is checkpointed too — a run can restore right at its end
    assert order == [
        ("ckpt", 0),
        ("stepped", 1),
        ("ckpt", 1),
        ("stepped", 2),
        ("ckpt", 2),
        ("stepped", 3),
        ("ckpt", 3),
    ]

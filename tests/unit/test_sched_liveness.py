"""The scheduler's run loop counts live tasks instead of scanning for them.

These tests count work, never time: how often the full task list is
walked, and whether the live-task count agrees with a full scan at every
point where tasks start, finish, fail or nest.
"""

from repro.sim.clock import Clock
from repro.sim.sched import Future, Scheduler, Sleep


class CountingList(list):
    """A task list that counts full iterations over itself."""

    def __init__(self) -> None:
        super().__init__()
        self.walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


def make() -> Scheduler:
    sched = Scheduler(Clock(), seed=0)
    sched.tasks = CountingList()
    return sched


def assert_count_matches(sched: Scheduler) -> None:
    assert sched._live_count == len(sched._live())


def test_run_never_walks_the_task_list_with_10k_idle_daemons():
    sched = make()
    never = Future("never")

    def idle():
        yield never

    for index in range(10_000):
        sched.spawn(idle(), name=f"idle-{index}", daemon=True)

    def worker(rounds):
        for _ in range(rounds):
            yield Sleep(0.001)

    for index in range(4):
        sched.spawn(worker(50), name=f"worker-{index}")
    assert sched.run() == []
    # 10,004 first steps plus 200 sleeps: all without one task-list walk.
    assert sched.steps == 10_204
    assert sched.tasks.walks == 0


def test_stalled_run_walks_only_to_report_the_blocked():
    sched = make()
    never = Future("never")

    def stuck():
        yield never

    def worker():
        for _ in range(100):
            yield Sleep(0.01)

    hung = sched.spawn(stuck(), name="stuck")
    sched.spawn(worker(), name="worker")
    assert sched.run() == [hung]
    # One walk describes the stall, one builds the returned list.
    assert sched.tasks.walks == 2


def test_live_count_through_daemons_failures_and_mid_step_spawns():
    sched = make()
    seen = []

    def child():
        yield Sleep(0.1)

    def parent():
        sched.spawn(child(), name="child")
        assert_count_matches(sched)
        seen.append(sched._live_count)
        yield Sleep(0.05)

    def fails():
        yield Sleep(0.01)
        raise RuntimeError("boom")

    def bad_yield():
        yield "not a future"

    def daemon_fails():
        yield Sleep(0.02)
        raise RuntimeError("daemon boom")

    sched.spawn(parent(), name="parent")
    sched.spawn(fails(), name="fails")
    sched.spawn(bad_yield(), name="bad-yield")
    sched.spawn(daemon_fails(), name="daemon", daemon=True)
    assert sched._live_count == 3
    assert_count_matches(sched)
    assert sched.run() == []
    assert len(seen) == 1
    assert sched._live_count == 0
    assert_count_matches(sched)
    failed = sorted(t.name for t in sched.tasks if t.failed)
    assert failed == ["bad-yield", "daemon", "fails"]


def test_live_count_through_nested_pump_once():
    sched = make()
    order = []

    def quick(name):
        order.append(name)
        return
        yield  # pragma: no cover - makes this a generator

    def pumper():
        sched.spawn(quick("inner"), name="inner")
        # Re-entrant progress, as legacy synchronous code makes it: the
        # nested step finishes another task while this one is mid-step.
        while "inner" not in order:
            sched.pump_once()
            assert_count_matches(sched)
        order.append("pumper")
        yield Sleep(0.0)

    sched.spawn(pumper(), name="pumper")
    assert sched.run() == []
    assert order == ["inner", "pumper"]
    assert sched._live_count == 0
    assert_count_matches(sched)

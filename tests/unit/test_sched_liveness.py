"""The scheduler tracks live tasks only, and keeps no finished one.

These tests count work and references, never time: how many steps a
run takes, which tasks it reports blocked or failed, and whether a
finished task is still reachable from the scheduler afterwards.
"""

import gc
import weakref

from repro.sim.clock import Clock
from repro.sim.sched import Future, Scheduler, Sleep


def make() -> Scheduler:
    return Scheduler(Clock(), seed=0)


def test_finished_tasks_are_not_kept():
    sched = make()

    def short(rounds):
        for _ in range(rounds):
            yield Sleep(0.001)

    refs = [weakref.ref(sched.spawn(short(index % 3), name=f"short-{index}"))
            for index in range(2_000)]
    assert len(sched._live) == 2_000
    assert sched.run() == []
    # 2,000 first steps plus 0 + 1 + 2 sleeps per group of three.
    assert sched.steps == 2_000 + sum(index % 3 for index in range(2_000))
    assert not sched._live and sched.failed == []
    gc.collect()
    assert all(ref() is None for ref in refs)


def test_run_steps_the_same_with_10k_idle_daemons():
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
    # Daemons never count as live, so only the four workers do.
    assert len(sched._live) == 4
    assert sched.run() == []
    # 10,004 first steps plus 200 sleeps.
    assert sched.steps == 10_204


def test_stalled_run_reports_blocked_tasks_in_spawn_order():
    sched = make()
    never = Future("never")

    def stuck():
        yield never

    def worker():
        for _ in range(100):
            yield Sleep(0.01)

    first = sched.spawn(stuck(), name="stuck-a")
    sched.spawn(worker(), name="worker")
    second = sched.spawn(stuck(), name="stuck-b")
    assert sched.run() == [first, second]
    assert "stuck-a(future:never)" in sched._describe_blocked()


def test_live_count_through_daemons_failures_and_mid_step_spawns():
    sched = make()
    seen = []

    def child():
        yield Sleep(0.1)

    def parent():
        sched.spawn(child(), name="child")
        seen.append(len(sched._live))
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
    daemon = sched.spawn(daemon_fails(), name="daemon", daemon=True)
    assert len(sched._live) == 3
    assert sched.run() == []
    # parent, fails and bad-yield were live when the child spawned.
    assert seen == [4]
    assert not sched._live
    # Death order, daemons excluded (a daemon's death is only counted).
    assert [t.name for t in sched.failed] == ["bad-yield", "fails"]
    assert daemon.failed
    assert isinstance(sched.failed[0].exception, TypeError)


def test_live_count_through_nested_pump_once():
    sched = make()
    order = []

    def quick(name):
        order.append(name)
        return
        yield  # pragma: no cover - makes this a generator

    def pumper():
        inner = sched.spawn(quick("inner"), name="inner")
        # Re-entrant progress, as legacy synchronous code makes it: the
        # nested step finishes another task while this one is mid-step.
        while "inner" not in order:
            sched.pump_once()
        assert inner not in sched._live
        order.append("pumper")
        yield Sleep(0.0)

    sched.spawn(pumper(), name="pumper")
    assert sched.run() == []
    assert order == ["inner", "pumper"]
    assert not sched._live

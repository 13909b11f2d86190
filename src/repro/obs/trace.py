"""Per-layer time attribution.

:class:`LayerTracker` is a stack profiler charging *exclusive* time to
the innermost active layer, in the hybrid time model of
:mod:`repro.bench.timing` (real CPU seconds from ``time.perf_counter``
plus simulated device seconds from the virtual clock).  Because
virtual-network delivery is synchronous — a reply arrives via nested
handler invocation before ``call`` returns, all on one Python stack —
exactly one layer (or the root ``"other"`` bucket) is active at every
instant, so the per-layer totals sum to the tracked wall total by
construction.  This is what lets a Fig. 5 run split its headline number
into crypto / RPC / NFS server / network / disk components that
actually add up.
"""

from __future__ import annotations

import time


class _LayerContext:
    __slots__ = ("_tracker", "_name")

    def __init__(self, tracker: "LayerTracker", name: str) -> None:
        self._tracker = tracker
        self._name = name

    def __enter__(self) -> "LayerTracker":
        self._tracker.push(self._name)
        return self._tracker

    def __exit__(self, *exc) -> bool:
        self._tracker.pop()
        return False


class LayerTracker:
    """Charges exclusive cpu + simulated time to the innermost layer.

    Instrumented sections bracket themselves with :meth:`push` /
    :meth:`pop` (or ``with layers.layer("crypto")``).  Time between a
    push and the next push/pop is charged to the pushed layer; time with
    an empty stack goes to the root bucket :data:`ROOT` (``"other"``).
    Nested pushes suspend the outer layer, so totals are exclusive and
    :meth:`breakdown` sums to exactly the time elapsed since
    :meth:`reset`.
    """

    ROOT = "other"
    enabled = True

    __slots__ = ("_clock", "_stack", "_totals", "_cpu_mark", "_sim_mark")

    def __init__(self, clock=None) -> None:
        self._clock = clock
        self._stack: list[str] = []
        self._totals: dict[str, list[float]] = {}
        self._cpu_mark = time.perf_counter()
        self._sim_mark = self._now_sim()

    def _now_sim(self) -> float:
        return self._clock.now if self._clock is not None else 0.0

    def _flush(self) -> None:
        cpu = time.perf_counter()
        sim = self._now_sim()
        name = self._stack[-1] if self._stack else self.ROOT
        bucket = self._totals.get(name)
        if bucket is None:
            bucket = self._totals[name] = [0.0, 0.0]
        bucket[0] += cpu - self._cpu_mark
        bucket[1] += sim - self._sim_mark
        self._cpu_mark = cpu
        self._sim_mark = sim

    def push(self, name: str) -> None:
        self._flush()
        self._stack.append(name)

    def pop(self) -> None:
        self._flush()
        if self._stack:
            self._stack.pop()

    def layer(self, name: str) -> _LayerContext:
        return _LayerContext(self, name)

    def reset(self) -> None:
        """Zero the totals and restart the accounting window now.

        The layer stack survives — reset may run while instrumented
        code is active further up the call stack.
        """
        self._totals.clear()
        self._cpu_mark = time.perf_counter()
        self._sim_mark = self._now_sim()

    def breakdown(self) -> dict[str, tuple[float, float]]:
        """Per-layer ``(cpu_seconds, sim_seconds)`` since the last reset."""
        self._flush()
        return {name: (cpu, sim) for name, (cpu, sim) in self._totals.items()}

    def total(self) -> float:
        """Total tracked seconds (cpu + sim) since the last reset."""
        return sum(cpu + sim for cpu, sim in self.breakdown().values())


class _NullLayerContext:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_LAYER_CONTEXT = _NullLayerContext()


class NullLayerTracker:
    """Do-nothing LayerTracker for disabled metrics."""

    ROOT = LayerTracker.ROOT
    enabled = False

    __slots__ = ()

    def push(self, name: str) -> None:
        pass

    def pop(self) -> None:
        pass

    def layer(self, name: str) -> _NullLayerContext:
        return _NULL_LAYER_CONTEXT

    def reset(self) -> None:
        pass

    def breakdown(self) -> dict[str, tuple[float, float]]:
        return {}

    def total(self) -> float:
        return 0.0

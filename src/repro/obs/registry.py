"""A hierarchical metrics registry: counters, gauges, histograms.

Instruments live under dotted names (``rpc.calls``,
``channel.mac_reject``, ``nfs3.ops.read``) in one flat, ordered store
per registry.  ``counter()`` / ``gauge()`` / ``histogram()`` /
``family()`` are get-or-create, so independent components referring to
the same name share the instrument (that is how per-link network
counters aggregate into one ``net.messages``).

Registries are *instance-scoped*: each World/session builds its own, so
parallel tests never share state.  Components that can exist many times
under one registry (RPC peers) carve a private namespace with
:meth:`MetricsRegistry.scope`, which uniquifies the prefix.

:data:`NULL_REGISTRY` is the disabled configuration — every instrument
is a shared no-op, and the layer tracker never reads a clock — so
instrumented code needs no ``if metrics:`` guards on the hot path.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Any, Iterable

from .trace import LayerTracker, NullLayerTracker

#: Fixed exponential histogram buckets: 1 µs to ~17 minutes in steps of
#: 4x.  Fixed so histograms from any two runs are bucket-compatible.
DEFAULT_BUCKETS: tuple[float, ...] = tuple(4**i * 1e-6 for i in range(16))


def nearest_rank(ordered: list[float], q: float) -> float:
    """Exact nearest-rank *q*-quantile of pre-sorted values (0.0 if none).

    The exact counterpart of :meth:`Histogram.quantile`: reports keep
    raw simulated latencies and read their p50/p95/p99 with this.
    """
    if not ordered:
        return 0.0
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def snapshot(self) -> int:
        return self.value


class Gauge:
    """A value that can move both ways (queue depths, cache sizes).

    With ``track_peak`` the gauge also keeps a high-watermark: the
    largest value it has held since creation (or the last
    :meth:`reset_peak`).  Peaked gauges snapshot as a dict carrying
    both numbers, so exported artifacts answer "how deep did the queue
    get" without ad-hoc side counters.
    """

    __slots__ = ("name", "value", "track_peak", "peak")

    def __init__(self, name: str, track_peak: bool = False) -> None:
        self.name = name
        self.value = 0.0
        self.track_peak = track_peak
        self.peak = 0.0

    def enable_peak(self) -> None:
        """Upgrade an existing gauge to watermark tracking in place."""
        self.track_peak = True
        if self.peak < self.value:
            self.peak = self.value

    def set(self, value: float) -> None:
        self.value = value
        if value > self.peak:
            self.peak = value

    def inc(self, amount: float = 1.0) -> None:
        self.set(self.value + amount)

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def reset_peak(self) -> None:
        """Restart the watermark from the current value (e.g. after a
        crash wipes the state the old peak described)."""
        self.peak = self.value

    def snapshot(self):
        if self.track_peak:
            return {"type": "gauge", "value": self.value, "peak": self.peak}
        # Always a float, so snapshot JSON distinguishes gauges from
        # counters (ints) — the merge helper's dispatch relies on it.
        return float(self.value)


class Histogram:
    """Counts observations into fixed exponential buckets.

    ``bounds[i]`` is the inclusive upper edge of bucket *i*; one
    overflow bucket catches everything beyond the last bound.  Bucket
    placement is deterministic — no wall-clock or random dependencies.
    """

    __slots__ = ("name", "bounds", "bucket_counts", "count", "sum")

    def __init__(self, name: str,
                 bounds: Iterable[float] = DEFAULT_BUCKETS) -> None:
        self.name = name
        self.bounds = tuple(bounds)
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the *q*-quantile by interpolating within buckets.

        Walks the cumulative counts to the bucket holding rank
        ``q * count`` and interpolates linearly between that bucket's
        edges — the standard estimate for pre-aggregated exponential
        buckets (so p99 from a snapshot needs no raw samples).
        Observations in the overflow bucket report the last finite
        bound, a deliberate floor rather than a guess.
        """
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile {q} outside (0, 1]")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0
        for index, n in enumerate(self.bucket_counts):
            if seen + n >= rank and n > 0:
                if index >= len(self.bounds):
                    return self.bounds[-1]  # overflow: floor, not guess
                lo = self.bounds[index - 1] if index else 0.0
                hi = self.bounds[index]
                return lo + (hi - lo) * ((rank - seen) / n)
            seen += n
        return self.bounds[-1]

    def snapshot(self) -> dict:
        buckets = [[bound, n]
                   for bound, n in zip(self.bounds, self.bucket_counts)]
        buckets.append([None, self.bucket_counts[-1]])  # overflow
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "buckets": buckets,
        }


class CounterFamily:
    """Counters sharing one name, split by an arbitrary hashable label.

    ``family.labels((prog, proc)).inc()`` is how RpcPeer keeps its
    per-procedure call mix; :meth:`items` preserves the raw label keys
    so existing consumers (``proc_counts``) need no string parsing.
    """

    __slots__ = ("name", "_children")

    def __init__(self, name: str) -> None:
        self.name = name
        self._children: dict[Any, Counter] = {}

    def labels(self, key: Any) -> Counter:
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = Counter(f"{self.name}{{{key}}}")
        return child

    def items(self):
        return self._children.items()

    def total(self) -> int:
        return sum(child.value for child in self._children.values())

    def snapshot(self) -> dict:
        values = {str(key): child.value
                  for key, child in self._children.items()}
        return {"type": "family",
                "values": dict(sorted(values.items()))}


class MetricsRegistry:
    """One session's worth of instruments plus its layer tracker."""

    enabled = True

    def __init__(self, clock=None) -> None:
        self._instruments: dict[str, Any] = {}
        self._scope_counts: dict[str, int] = {}
        #: The per-layer latency-attribution profiler (see
        #: :class:`repro.obs.trace.LayerTracker`).
        self.layers = LayerTracker(clock)

    def _get(self, name: str, kind: type, factory) -> Any:
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = self._instruments[name] = factory(name)
        elif not isinstance(instrument, kind):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(instrument).__name__}, not {kind.__name__}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter, Counter)

    def gauge(self, name: str, track_peak: bool = False) -> Gauge:
        gauge = self._get(name, Gauge, Gauge)
        if track_peak:
            gauge.enable_peak()
        return gauge

    def histogram(self, name: str,
                  bounds: Iterable[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._get(name, Histogram, lambda n: Histogram(n, bounds))

    def family(self, name: str) -> CounterFamily:
        return self._get(name, CounterFamily, CounterFamily)

    def scope(self, prefix: str) -> "ScopedRegistry":
        """A per-instance namespace under ``prefix``.

        Every call returns a *distinct* prefix (``prefix``,
        ``prefix#2``, ...) so same-named components — two peers both
        called ``sfscd->host`` after a redial — never share instruments.
        """
        count = self._scope_counts.get(prefix, 0) + 1
        self._scope_counts[prefix] = count
        unique = prefix if count == 1 else f"{prefix}#{count}"
        return ScopedRegistry(self, unique)

    def snapshot(self) -> dict:
        """All instruments plus the layer breakdown, JSON-serializable."""
        metrics = {name: self._instruments[name].snapshot()
                   for name in sorted(self._instruments)}
        layers = {
            name: {"cpu": cpu, "sim": sim, "total": cpu + sim}
            for name, (cpu, sim) in sorted(self.layers.breakdown().items())
        }
        return {"metrics": metrics, "layers": layers}


class ScopedRegistry:
    """A view writing ``<prefix>.<name>`` instruments into the parent."""

    __slots__ = ("_parent", "prefix")

    def __init__(self, parent: MetricsRegistry, prefix: str) -> None:
        self._parent = parent
        self.prefix = prefix

    @property
    def enabled(self) -> bool:
        return self._parent.enabled

    @property
    def layers(self):
        return self._parent.layers

    def counter(self, name: str) -> Counter:
        return self._parent.counter(f"{self.prefix}.{name}")

    def gauge(self, name: str, track_peak: bool = False) -> Gauge:
        return self._parent.gauge(f"{self.prefix}.{name}",
                                  track_peak=track_peak)

    def histogram(self, name: str,
                  bounds: Iterable[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._parent.histogram(f"{self.prefix}.{name}", bounds)

    def family(self, name: str) -> CounterFamily:
        return self._parent.family(f"{self.prefix}.{name}")

    def scope(self, prefix: str) -> "ScopedRegistry":
        return self._parent.scope(f"{self.prefix}.{prefix}")


class _NullInstrument:
    """One shared object standing in for every disabled instrument."""

    __slots__ = ()
    name = "null"
    value = 0
    count = 0
    sum = 0.0
    mean = 0.0
    peak = 0
    track_peak = False

    def inc(self, amount=1) -> None:
        pass

    def dec(self, amount=1) -> None:
        pass

    def set(self, value) -> None:
        pass

    def enable_peak(self) -> None:
        pass

    def reset_peak(self) -> None:
        pass

    def observe(self, value) -> None:
        pass

    def quantile(self, q) -> float:
        return 0.0

    def labels(self, key) -> "_NullInstrument":
        return self

    def items(self):
        return ()

    def total(self) -> int:
        return 0

    def snapshot(self) -> int:
        return 0


_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry:
    """Metrics disabled: every instrument is a shared no-op.

    Pass this (or :data:`NULL_REGISTRY`) wherever a registry is accepted
    to turn instrumentation off without touching instrumented code.
    """

    enabled = False

    def __init__(self) -> None:
        self.layers = NullLayerTracker()

    def counter(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str, track_peak: bool = False) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str,
                  bounds: Iterable[float] = DEFAULT_BUCKETS) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def family(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def scope(self, prefix: str) -> "NullRegistry":
        return self

    def snapshot(self) -> dict:
        return {"metrics": {}, "layers": {}}


#: The shared disabled registry; safe to hand to any number of components.
NULL_REGISTRY = NullRegistry()


class _TeeInstrument:
    """One instrument writing through to two underlying instruments.

    Reads (``value``, ``peak``, ``snapshot`` ...) come from the
    *primary*; writes go to both.  That keeps the primary the source of
    truth for existing consumers while the secondary accumulates the
    same series under another registry.
    """

    __slots__ = ("_primary", "_secondary")

    def __init__(self, primary, secondary) -> None:
        self._primary = primary
        self._secondary = secondary

    def __getattr__(self, name):
        return getattr(self._primary, name)

    def inc(self, amount=1) -> None:
        self._primary.inc(amount)
        self._secondary.inc(amount)

    def dec(self, amount=1) -> None:
        self._primary.dec(amount)
        self._secondary.dec(amount)

    def set(self, value) -> None:
        self._primary.set(value)
        self._secondary.set(value)

    def observe(self, value) -> None:
        self._primary.observe(value)
        self._secondary.observe(value)

    def reset_peak(self) -> None:
        self._primary.reset_peak()
        self._secondary.reset_peak()

    def labels(self, key) -> "_TeeInstrument":
        return _TeeInstrument(self._primary.labels(key),
                              self._secondary.labels(key))


class TeeRegistry:
    """A registry view fanning every write into two registries.

    The fleet control plane uses this to give each simulated machine a
    *per-source* registry (what its heartbeat reports to the collector)
    without breaking the world-wide registry every existing test and
    bench reads: instruments created through the tee update both.
    ``layers`` and ``scope`` delegate to the primary only — layer
    attribution is a per-World concern, not a per-source one.
    """

    __slots__ = ("_primary", "_secondary")

    def __init__(self, primary, secondary) -> None:
        self._primary = primary
        self._secondary = secondary

    @property
    def enabled(self) -> bool:
        return self._primary.enabled or self._secondary.enabled

    @property
    def layers(self):
        return self._primary.layers

    def counter(self, name: str) -> _TeeInstrument:
        return _TeeInstrument(self._primary.counter(name),
                              self._secondary.counter(name))

    def gauge(self, name: str, track_peak: bool = False) -> _TeeInstrument:
        return _TeeInstrument(
            self._primary.gauge(name, track_peak=track_peak),
            self._secondary.gauge(name, track_peak=track_peak),
        )

    def histogram(self, name: str,
                  bounds: Iterable[float] = DEFAULT_BUCKETS) -> _TeeInstrument:
        return _TeeInstrument(self._primary.histogram(name, bounds),
                              self._secondary.histogram(name, bounds))

    def family(self, name: str) -> _TeeInstrument:
        return _TeeInstrument(self._primary.family(name),
                              self._secondary.family(name))

    def scope(self, prefix: str):
        return self._primary.scope(prefix)

    def snapshot(self) -> dict:
        return self._primary.snapshot()

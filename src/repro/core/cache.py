"""Client-side caching with leases and invalidation callbacks.

"The SFS read-write protocol, while virtually identical to NFS 3, adds
enhanced attribute and access caching to reduce the number of NFS
GETATTR and ACCESS RPCs sent over the wire.  We changed the NFS protocol
in two ways to extend the lifetime of cache entries.  First, every file
attribute structure returned by the server has a timeout field or lease.
Second, the server can call back to the client to invalidate entries
before the lease expires.  The server does not wait for invalidations to
be acknowledged; consistency does not need to be perfect, just better
than NFS 3 on which SFS is implemented." (paper section 3.3)

We grant one lease duration per connection (negotiated at CONNECT) and
key entries by file handle; an invalidation callback clears every entry
for that handle.  The cache measures its own effectiveness (hits/misses)
for the caching ablation benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..obs.registry import NULL_REGISTRY
from ..sim.clock import Clock


@dataclass
class _Entry:
    value: Any
    expires: float


class LeaseCache:
    """A lease-scoped cache keyed by (handle, extra-key) pairs."""

    def __init__(self, clock: Clock, lease_duration: float,
                 enabled: bool = True, metrics=None,
                 name: str = "cache") -> None:
        self._clock = clock
        self._lease = lease_duration
        self.enabled = enabled
        self._entries: dict[bytes, dict[Any, _Entry]] = {}
        self._next_sweep = clock.now + lease_duration
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        registry = metrics if metrics is not None else NULL_REGISTRY
        self._m_hits = registry.counter(f"cache.{name}.hits")
        self._m_misses = registry.counter(f"cache.{name}.misses")
        self._m_invalidations = registry.counter(
            f"cache.{name}.invalidations"
        )

    def get(self, handle: bytes, key: Any = None) -> Any | None:
        if not self.enabled:
            return None
        by_key = self._entries.get(handle)
        if by_key is None:
            self.misses += 1
            self._m_misses.inc()
            return None
        entry = by_key.get(key)
        if entry is None or entry.expires < self._clock.now:
            self.misses += 1
            self._m_misses.inc()
            return None
        self.hits += 1
        self._m_hits.inc()
        return entry.value

    def put(self, handle: bytes, value: Any, key: Any = None) -> None:
        if not self.enabled:
            return
        now = self._clock.now
        if now >= self._next_sweep:
            self._sweep(now)
        self._entries.setdefault(handle, {})[key] = _Entry(
            value, now + self._lease
        )

    def _sweep(self, now: float) -> None:
        """Drop the entries ``get`` would count as expired; runs at most
        once per lease duration, so the cache holds about one lease's
        worth of entries instead of everything ever cached."""
        self._next_sweep = now + self._lease
        for handle, by_key in list(self._entries.items()):
            for key in [key for key, entry in by_key.items()
                        if entry.expires < now]:
                del by_key[key]
            if not by_key:
                del self._entries[handle]

    def size(self) -> int:
        """Entries held, expired or not."""
        return sum(len(by_key) for by_key in self._entries.values())

    def invalidate(self, handle: bytes) -> None:
        """Drop all entries for *handle* (server callback or local write)."""
        if self._entries.pop(handle, None) is not None:
            self.invalidations += 1
            self._m_invalidations.inc()

    def clear(self) -> None:
        self._entries.clear()


@dataclass
class ClientCaches:
    """The three caches an SFS read-write client keeps per mount."""

    attrs: LeaseCache
    access: LeaseCache
    lookups: LeaseCache

    @classmethod
    def create(cls, clock: Clock, lease_duration: float,
               enabled: bool = True, metrics=None) -> "ClientCaches":
        return cls(
            attrs=LeaseCache(clock, lease_duration, enabled,
                             metrics=metrics, name="attrs"),
            access=LeaseCache(clock, lease_duration, enabled,
                              metrics=metrics, name="access"),
            lookups=LeaseCache(clock, lease_duration, enabled,
                               metrics=metrics, name="lookups"),
        )

    def invalidate(self, handle: bytes) -> None:
        self.attrs.invalidate(handle)
        self.access.invalidate(handle)
        self.lookups.invalidate(handle)

    def stats(self) -> dict[str, int]:
        return {
            "attr_hits": self.attrs.hits,
            "attr_misses": self.attrs.misses,
            "access_hits": self.access.hits,
            "access_misses": self.access.misses,
            "lookup_hits": self.lookups.hits,
            "lookup_misses": self.lookups.misses,
        }

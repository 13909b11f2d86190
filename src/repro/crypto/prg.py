"""DSS-style SHA-1 pseudo-random generator and entropy pool.

The paper (section 3.1.3) chooses the FIPS 186 pseudo-random generator
"both because it is based on SHA-1 and because it cannot be run backwards
in the event that its state gets compromised", seeded from multiple
asynchronous sources hashed down to 512 bits.

The generator keeps a *b*-bit state ``XKEY`` and produces 20-byte blocks:

    x     = G(XKEY mod 2^b)
    XKEY  = (1 + XKEY + x) mod 2^b

where G is the SHA-1 compression-style function (we use SHA-1 itself with
a domain-separation tag, which preserves the one-wayness argument).
"""

from __future__ import annotations

import os
import time

from .backend import new_sha1
from .sha1 import sha1
from .util import bytes_to_int, int_to_bytes

_STATE_BITS = 512
_STATE_BYTES = _STATE_BITS // 8
_MOD = 1 << _STATE_BITS


class EntropyPool:
    """Accumulates entropy from several sources into a 512-bit seed.

    Mirrors the paper's sources: external program output, the OS random
    device, a seed file from the previous execution, nanosecond timers,
    and (for interactive programs) keystrokes with inter-keystroke timings.
    All sources are run through a SHA-1-based hash to produce the seed.
    """

    def __init__(self) -> None:
        self._hash = new_sha1(b"SFS-entropy-pool")
        self._count = 0

    def add(self, label: str, data: bytes) -> None:
        """Mix in one source, tagged by *label* to keep sources distinct."""
        self._hash.update(len(label).to_bytes(4, "big"))
        self._hash.update(label.encode())
        self._hash.update(len(data).to_bytes(4, "big"))
        self._hash.update(data)
        self._count += 1

    def add_timer(self) -> None:
        """Mix in a nanosecond timestamp (process-scheduling entropy)."""
        self.add("timer", time.monotonic_ns().to_bytes(8, "big"))

    def add_system_sources(self) -> None:
        """Mix in the OS random device and clock, like SFS's startup."""
        self.add("os-random", os.urandom(64))
        self.add("pid", os.getpid().to_bytes(4, "big"))
        self.add_timer()

    def seed(self) -> bytes:
        """Produce the 64-byte (512-bit) seed from everything mixed in."""
        state = self._hash.copy()
        blocks = []
        for counter in range(_STATE_BYTES // 20 + 1):
            h = state.copy()
            h.update(counter.to_bytes(4, "big"))
            blocks.append(h.digest())
        return b"".join(blocks)[:_STATE_BYTES]


class DSSRandom:
    """FIPS 186-style PRG with a 512-bit key state.

    Offers the small slice of the :mod:`random` API the rest of the code
    base uses (``getrandbits`` / ``randrange`` / ``bytes``), so it can be
    passed anywhere a ``random.Random`` is expected.
    """

    def __init__(self, seed: bytes) -> None:
        if not seed:
            raise ValueError("seed must be non-empty")
        self._xkey = bytes_to_int(sha1(b"DSS-seed-0" + seed) + sha1(b"DSS-seed-1" + seed) + sha1(b"DSS-seed-2" + seed) + sha1(b"DSS-seed-3" + seed)[:4]) % _MOD
        self._buffer = b""

    @classmethod
    def from_pool(cls, pool: EntropyPool) -> "DSSRandom":
        return cls(pool.seed())

    def _step(self) -> bytes:
        x = sha1(b"DSS-G" + int_to_bytes(self._xkey, _STATE_BYTES))
        self._xkey = (1 + self._xkey + bytes_to_int(x)) % _MOD
        return x

    def bytes(self, length: int) -> bytes:
        """Return *length* pseudo-random bytes."""
        while len(self._buffer) < length:
            self._buffer += self._step()
        out, self._buffer = self._buffer[:length], self._buffer[length:]
        return out

    def getrandbits(self, bits: int) -> int:
        """Return a uniform integer in [0, 2**bits)."""
        if bits <= 0:
            return 0
        nbytes = (bits + 7) // 8
        value = bytes_to_int(self.bytes(nbytes))
        return value >> (nbytes * 8 - bits)

    def randrange(self, start: int, stop: int | None = None) -> int:
        """Return a uniform integer in [start, stop) (rejection sampled)."""
        if stop is None:
            start, stop = 0, start
        span = stop - start
        if span <= 0:
            raise ValueError("empty range for randrange")
        bits = span.bit_length()
        while True:
            candidate = self.getrandbits(bits)
            if candidate < span:
                return start + candidate

    def random(self) -> float:
        """Return a float in [0.0, 1.0) (53 bits of precision)."""
        return self.getrandbits(53) / (1 << 53)


def system_random() -> DSSRandom:
    """A DSSRandom seeded from system entropy sources."""
    pool = EntropyPool()
    pool.add_system_sources()
    return DSSRandom.from_pool(pool)

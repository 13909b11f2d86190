"""SHA-1 implemented from scratch per FIPS 180-1.

SFS uses SHA-1 everywhere: HostID computation (with deliberately duplicated
input, paper section 2.2), session-key derivation, the per-message MAC, the
DSS pseudo-random generator, and AuthID hashing.  This implementation offers
the familiar ``update() / digest() / hexdigest() / copy()`` streaming
interface and is verified against :mod:`hashlib` in the test suite.
"""

from __future__ import annotations

import struct

_MASK = 0xFFFFFFFF


class ReferenceStats:
    """Process-wide count of message bytes the reference SHA1 absorbed.

    With the fast lane on (:func:`repro.crypto.backend.new_sha1`) the
    protocol paths never reach the reference, so a nonzero count there
    is a fast lane that silently stopped being used.
    """

    __slots__ = ("reference_bytes",)

    def __init__(self) -> None:
        self.reference_bytes = 0

    def snapshot(self) -> dict[str, int]:
        return {"reference_bytes": self.reference_bytes}


STATS = ReferenceStats()


def _rotl(value: int, amount: int) -> int:
    return ((value << amount) | (value >> (32 - amount))) & _MASK


class SHA1:
    """Streaming SHA-1 hash object."""

    digest_size = 20
    block_size = 64
    name = "sha1"

    def __init__(self, data: bytes = b"") -> None:
        self._h = (0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0)
        self._buffer = b""
        self._length = 0
        if data:
            self.update(data)

    def update(self, data: bytes) -> None:
        """Absorb more message bytes."""
        STATS.reference_bytes += len(data)
        self._length += len(data)
        self._buffer += data
        nblocks = len(self._buffer) // 64
        for i in range(nblocks):
            self._compress(self._buffer[i * 64 : (i + 1) * 64])
        self._buffer = self._buffer[nblocks * 64 :]

    def _compress(self, block: bytes) -> None:
        w = list(struct.unpack(">16I", block))
        for t in range(16, 80):
            w.append(_rotl(w[t - 3] ^ w[t - 8] ^ w[t - 14] ^ w[t - 16], 1))
        a, b, c, d, e = self._h
        for t in range(80):
            if t < 20:
                f = (b & c) | (~b & d)
                k = 0x5A827999
            elif t < 40:
                f = b ^ c ^ d
                k = 0x6ED9EBA1
            elif t < 60:
                f = (b & c) | (b & d) | (c & d)
                k = 0x8F1BBCDC
            else:
                f = b ^ c ^ d
                k = 0xCA62C1D6
            temp = (_rotl(a, 5) + f + e + k + w[t]) & _MASK
            e = d
            d = c
            c = _rotl(b, 30)
            b = a
            a = temp
        self._h = (
            (self._h[0] + a) & _MASK,
            (self._h[1] + b) & _MASK,
            (self._h[2] + c) & _MASK,
            (self._h[3] + d) & _MASK,
            (self._h[4] + e) & _MASK,
        )

    def digest(self) -> bytes:
        """Return the 20-byte digest of the data absorbed so far."""
        clone = self.copy()
        # Padding goes straight to the compression function: it is not
        # message data, so neither _length nor STATS counts it.
        padding = b"\x80" + bytes((55 - clone._length) % 64)
        tail = (clone._buffer + padding
                + struct.pack(">Q", clone._length * 8))
        for offset in range(0, len(tail), 64):
            clone._compress(tail[offset:offset + 64])
        return struct.pack(">5I", *clone._h)

    def hexdigest(self) -> str:
        """Return the digest as a lowercase hex string."""
        return self.digest().hex()

    def copy(self) -> "SHA1":
        """Return an independent copy of this hash object."""
        clone = SHA1.__new__(SHA1)
        clone._h = self._h
        clone._buffer = self._buffer
        clone._length = self._length
        return clone


def sha1(data: bytes) -> bytes:
    """One-shot SHA-1 digest.

    Delegates to the (bit-identical, test-verified) hashlib backend when
    :data:`repro.crypto.backend.use_fast_sha1` is set; the from-scratch
    :class:`SHA1` above is always available as the reference.
    """
    from . import backend

    if backend.use_fast_sha1:
        return backend.fast_sha1(data)
    return SHA1(data).digest()


def sha1_concat(*parts: bytes) -> bytes:
    """SHA-1 over the concatenation of *parts* (protocol convenience)."""
    return sha1(b"".join(parts))

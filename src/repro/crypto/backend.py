"""Accelerated backends for the from-scratch primitives.

Every algorithm in :mod:`repro.crypto` is implemented from scratch and
those implementations are the *reference*: the test suite verifies them
against published vectors and, where possible, against the standard
library.  Where a bit-identical faster implementation exists, this
module lets the hot paths delegate to it so that benchmark results
reflect the paper's relative costs rather than pure-Python speed:

* ``use_fast_sha1`` — SHA-1/HMAC, one-shot and streaming
  (:func:`new_sha1`), go through hashlib's C code.
* ``use_fast_arc4`` — ARC4 keystream blocks come from
  :mod:`repro.crypto.arc4kernel` (OpenSSL's RC4 when its layout
  self-check passes, else the unrolled pure-Python block loop) instead
  of the reference per-byte loop.
* ``use_fast_marshal`` — every XDR codec marshals through its compiled
  lane (flat code generated from its combinator tree on first use, see
  :mod:`repro.rpc.xdr`) instead of per-field codec dispatch.

The delegation is sound precisely because the outputs are identical —
``tests/unit/test_sha1.py`` asserts equality between the from-scratch
SHA-1 and hashlib on randomized inputs, and the golden wire-vector
suite (``tests/unit/test_wire_vectors.py``) asserts that channel records,
NFS3 marshals and RPC envelopes are bit-for-bit the same under both
settings, and ``tests/unit/test_xdr_compiled.py`` checks every codec's
compiled lane against the reference codec —
so flipping these flags cannot change any protocol bytes, only speed.

Call :func:`set_fast` to switch globally (e.g. ``set_fast(False)`` in
tests that exercise the reference implementations end to end).
"""

from __future__ import annotations

import hashlib
import hmac as _hmac

from .sha1 import SHA1

#: When True (default), one-shot SHA-1/HMAC use hashlib's C implementation.
use_fast_sha1 = True

#: When True (default), ARC4 keystream generation uses the block kernel.
use_fast_arc4 = True

#: When True (default), codecs marshal through their compiled lanes.
use_fast_marshal = True


def set_fast(enabled: bool, *, sha1: bool | None = None,
             arc4: bool | None = None,
             marshal: bool | None = None) -> None:
    """Globally enable/disable the accelerated backends.

    The positional flag flips everything at once (the common case in
    tests); keyword overrides pin individual backends, e.g.
    ``set_fast(True, arc4=False)`` to benchmark the pure-Python cipher
    under fast hashing.
    """
    global use_fast_sha1, use_fast_arc4, use_fast_marshal
    use_fast_sha1 = enabled if sha1 is None else sha1
    use_fast_arc4 = enabled if arc4 is None else arc4
    use_fast_marshal = enabled if marshal is None else marshal


def fast_sha1(data: bytes) -> bytes:
    return hashlib.sha1(data).digest()


def new_sha1(data: bytes = b""):
    """A streaming SHA-1 object (``update``/``digest``/``copy``).

    hashlib's when ``use_fast_sha1`` is set, else the from-scratch
    reference :class:`repro.crypto.sha1.SHA1`.  Code that hashes in
    pieces (HostIDs, session keys, the entropy pool) must come through
    here, not construct the reference directly, or it bypasses the
    fast lane.
    """
    if use_fast_sha1:
        return hashlib.sha1(data)
    return SHA1(data)


def fast_hmac_sha1(key: bytes, message: bytes) -> bytes:
    return _hmac.new(key, message, hashlib.sha1).digest()


def fast_hmac_sha1_parts(key: bytes, *parts: bytes) -> bytes:
    """HMAC over the concatenation of *parts* without concatenating.

    Bit-identical to ``fast_hmac_sha1(key, b"".join(parts))``; the
    channel MAC uses it to authenticate length‖message without building
    a copy of every payload.
    """
    mac = _hmac.new(key, digestmod=hashlib.sha1)
    for part in parts:
        mac.update(part)
    return mac.digest()

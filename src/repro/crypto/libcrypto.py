"""Locate OpenSSL's libcrypto for the ctypes fast kernels.

Two kernels bind C code from libcrypto: the ARC4 keystream crank
(:mod:`repro.crypto.arc4kernel`) and modular exponentiation
(:func:`repro.crypto.numtheory.powmod`).  Each binds its own symbols and
proves them against its pure-Python oracle at load; this module only
finds the library, and opens each candidate name at most once per
process.
"""

from __future__ import annotations

import ctypes
import functools

_NAMES = ("libcrypto.so.3", "libcrypto.so.1.1", "libcrypto.so",
          "libcrypto.dylib")


@functools.cache
def _open(name: str) -> ctypes.CDLL | None:
    try:
        return ctypes.CDLL(name)
    except OSError:
        return None


def find(*symbols: str) -> ctypes.CDLL | None:
    """The first libcrypto on this host that exports every *symbols*."""
    for name in _NAMES:
        lib = _open(name)
        if lib is not None and all(hasattr(lib, s) for s in symbols):
            return lib
    return None

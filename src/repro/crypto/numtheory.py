"""Number-theoretic primitives for the Rabin-Williams cryptosystem.

Everything here is implemented from scratch on Python integers: the
extended Euclidean algorithm, Miller-Rabin primality testing, prime
generation with congruence constraints (Rabin-Williams needs
``p = 3 mod 8`` and ``q = 7 mod 8``), Jacobi symbols, and square roots
modulo Blum-type primes combined with the CRT.

Modular exponentiation, the one operation whose cost sets the price of
every Rabin private-key operation, goes through :func:`powmod`.  It runs
OpenSSL's ``BN_mod_exp_mont_consttime`` through ctypes when libcrypto is
present and a load-time self-check against builtin ``pow`` passes, and
builtin ``pow`` otherwise (and for even moduli, moduli <= 1, negative
exponents and moduli wider than the preallocated buffers).  Both give the
same integer, so the choice changes cost, never bytes.  :data:`STATS`
counts the calls each path served, so a lane that silently stopped
engaging shows up as ``builtin_calls`` rising.
"""

from __future__ import annotations

import ctypes
import random
import threading
from typing import Callable

from . import libcrypto

# Witnesses proving primality deterministically for all n < 3.3 * 10**24.
_SMALL_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

_SMALL_PRIMES: list[int] = []


def _sieve(limit: int) -> list[int]:
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = b"\x00" * len(flags[i * i :: i])
    return [i for i, keep in enumerate(flags) if keep]


def small_primes() -> list[int]:
    """Primes below 2000, used for cheap trial division."""
    global _SMALL_PRIMES
    if not _SMALL_PRIMES:
        _SMALL_PRIMES = _sieve(2000)
    return _SMALL_PRIMES


def egcd(a: int, b: int) -> tuple[int, int, int]:
    """Return ``(g, x, y)`` with ``a*x + b*y == g == gcd(a, b)``."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def modinv(a: int, m: int) -> int:
    """Modular inverse of *a* modulo *m* (raises if not coprime)."""
    g, x, _ = egcd(a % m, m)
    if g != 1:
        raise ValueError("modular inverse does not exist")
    return x % m


class ModexpStats:
    """Process-wide :func:`powmod` counters, one per exponentiation path."""

    __slots__ = ("libcrypto_calls", "builtin_calls")

    def __init__(self) -> None:
        self.libcrypto_calls = 0
        self.builtin_calls = 0

    def snapshot(self) -> dict[str, int]:
        return {
            "libcrypto_calls": self.libcrypto_calls,
            "builtin_calls": self.builtin_calls,
        }


STATS = ModexpStats()

# Widest modulus the libcrypto lane takes; its output buffer is sized once.
_LANE_MAX_BYTES = 1024


class _LibcryptoModexp:
    """``BN_mod_exp_mont_consttime`` over BIGNUMs allocated once, at load.

    A call converts its three operands with ``BN_bin2bn`` into the
    preallocated BIGNUMs, exponentiates with the shared ``BN_CTX`` and
    reads the result back out of one fixed buffer, so it allocates no
    ctypes objects (and leaves no cyclic garbage).  The lock serialises
    the shared scratch state, since ctypes releases the GIL during each
    foreign call.
    """

    def __init__(self, lib: ctypes.CDLL) -> None:
        bn_new = lib.BN_new
        bn_new.restype = ctypes.c_void_p
        ctx_new = lib.BN_CTX_new
        ctx_new.restype = ctypes.c_void_p
        self._base, self._exp, self._mod, self._out = (
            bn_new(), bn_new(), bn_new(), bn_new())
        self._ctx = ctx_new()
        if not all((self._base, self._exp, self._mod, self._out, self._ctx)):
            raise MemoryError("libcrypto BIGNUM allocation failed")
        self._bin2bn = lib.BN_bin2bn
        self._bin2bn.argtypes = [ctypes.c_char_p, ctypes.c_int,
                                 ctypes.c_void_p]
        self._bin2bn.restype = ctypes.c_void_p
        self._modexp = lib.BN_mod_exp_mont_consttime
        self._modexp.argtypes = [ctypes.c_void_p] * 6
        self._modexp.restype = ctypes.c_int
        self._bn2bin = lib.BN_bn2bin
        self._bn2bin.argtypes = [ctypes.c_void_p, ctypes.c_char_p]
        self._bn2bin.restype = ctypes.c_int
        self._buffer = ctypes.create_string_buffer(_LANE_MAX_BYTES)
        self._view = memoryview(self._buffer).cast("B")
        self._lock = threading.Lock()

    def self_check(self) -> bool:
        """Prove the binding against builtin ``pow`` on edge-case vectors."""
        rng = random.Random(0x5F5)
        mod = rng.getrandbits(1024) | (1 << 1023) | 1
        vectors = [
            (rng.getrandbits(1024) % mod, rng.getrandbits(1024), mod),
            (mod + 12345, rng.getrandbits(512), mod),  # base >= mod
            (0, 65537, mod),
            (rng.getrandbits(1000), 0, mod),
            (rng.getrandbits(1000), 1, mod),
            (2, (1019 + 1) // 4, 1019),
            (5, 3, 3),  # base == 0 (mod m) after reduction
        ]
        try:
            return all(self.modexp(base, exp, mod) == pow(base, exp, mod)
                       for base, exp, mod in vectors)
        except Exception:  # noqa: BLE001 - any ctypes surprise: fall back
            return False

    def modexp(self, base: int, exp: int, mod: int) -> int | None:
        """``base ** exp % mod`` for odd ``mod > 1`` and ``exp >= 0``."""
        base %= mod
        base_bytes = base.to_bytes((base.bit_length() + 7) // 8, "big")
        exp_bytes = exp.to_bytes((exp.bit_length() + 7) // 8, "big")
        mod_bytes = mod.to_bytes((mod.bit_length() + 7) // 8, "big")
        with self._lock:
            self._bin2bn(base_bytes, len(base_bytes), self._base)
            self._bin2bn(exp_bytes, len(exp_bytes), self._exp)
            self._bin2bn(mod_bytes, len(mod_bytes), self._mod)
            if not self._modexp(self._out, self._base, self._exp, self._mod,
                                self._ctx, None):
                return None
            length = self._bn2bin(self._out, self._buffer)
            return int.from_bytes(self._view[:length], "big")


#: The libcrypto symbols the modexp kernel binds.
LIBCRYPTO_SYMBOLS = ("BN_new", "BN_CTX_new", "BN_bin2bn", "BN_bn2bin",
                     "BN_mod_exp_mont_consttime")


def _load_modexp() -> _LibcryptoModexp | None:
    lib = libcrypto.find(*LIBCRYPTO_SYMBOLS)
    if lib is None:
        return None
    try:
        kernel = _LibcryptoModexp(lib)
    except Exception:  # noqa: BLE001 - any ctypes surprise: fall back
        return None
    return kernel if kernel.self_check() else None


_LIBCRYPTO = _load_modexp()

#: Name of the kernel :func:`powmod` uses for odd moduli ("libcrypto" or
#: "builtin"), chosen at load from what the platform provides.
MODEXP_KERNEL = "libcrypto" if _LIBCRYPTO is not None else "builtin"


def powmod(base: int, exp: int, mod: int) -> int:
    """``pow(base, exp, mod)``, through libcrypto where it applies."""
    if (_LIBCRYPTO is not None and mod & 1 and mod > 1 and exp >= 0
            and mod.bit_length() <= 8 * _LANE_MAX_BYTES):
        result = _LIBCRYPTO.modexp(base, exp, mod)
        if result is not None:
            STATS.libcrypto_calls += 1
            return result
    STATS.builtin_calls += 1
    return pow(base, exp, mod)


def is_probable_prime(n: int, rounds: int = 24, rng: random.Random | None = None) -> bool:
    """Miller-Rabin primality test.

    Deterministic for n < 3.3e24 via fixed witnesses; probabilistic with
    *rounds* random witnesses beyond that.
    """
    if n < 2:
        return False
    for p in small_primes():
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1

    def witness_composite(a: int) -> bool:
        x = powmod(a, d, n)
        if x in (1, n - 1):
            return False
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                return False
        return True

    if n < 3_317_044_064_679_887_385_961_981:
        return not any(witness_composite(a) for a in _SMALL_WITNESSES if a < n - 1)
    rng = rng or random
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        if witness_composite(a):
            return False
    return True


def gen_prime(
    bits: int,
    rng: random.Random,
    condition: Callable[[int], bool] | None = None,
) -> int:
    """Generate a *bits*-bit prime, optionally satisfying *condition*.

    The top two bits are forced to 1 so that the product of two such
    primes always has exactly ``2 * bits`` bits, as public-key code
    expects.
    """
    if bits < 8:
        raise ValueError("refusing to generate primes below 8 bits")
    while True:
        candidate = rng.getrandbits(bits)
        candidate |= (1 << (bits - 1)) | (1 << (bits - 2)) | 1
        if condition is not None and not condition(candidate):
            continue
        if is_probable_prime(candidate):
            return candidate


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a / n) for odd positive n."""
    if n <= 0 or n % 2 == 0:
        raise ValueError("Jacobi symbol requires odd positive n")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def sqrt_mod_blum_prime(a: int, p: int) -> int:
    """Square root of *a* modulo a prime ``p = 3 (mod 4)``.

    Returns a root ``r`` with ``r*r = a (mod p)``; the caller is
    responsible for *a* actually being a quadratic residue.
    """
    if p % 4 != 3:
        raise ValueError("prime must be 3 mod 4")
    return powmod(a, (p + 1) // 4, p)


def crt_pair(rp: int, p: int, rq: int, q: int, q_inv: int) -> int:
    """Combine residues mod *p* and *q* into a residue mod ``p*q``.

    *q_inv* is the CRT coefficient ``modinv(q, p)``, which a key
    computes once rather than per combination.
    """
    diff = (rp - rq) * q_inv % p
    return (rq + q * diff) % (p * q)

"""Tests for repro.crypto.numtheory."""

import ctypes
import gc
import random

import pytest
from hypothesis import given, strategies as st

from repro.crypto import libcrypto, numtheory
from repro.crypto.numtheory import (
    crt_pair,
    egcd,
    gen_prime,
    is_probable_prime,
    jacobi,
    modinv,
    powmod,
    small_primes,
    sqrt_mod_blum_prime,
)

KNOWN_PRIMES = [2, 3, 5, 7, 97, 7919, 2**127 - 1, 2**521 - 1]
KNOWN_COMPOSITES = [
    0, 1, 4, 100, 561, 41041, 2**127, 3215031751,  # incl. Carmichael numbers
]


@pytest.mark.parametrize("p", KNOWN_PRIMES)
def test_known_primes(p):
    assert is_probable_prime(p)


@pytest.mark.parametrize("n", KNOWN_COMPOSITES)
def test_known_composites(n):
    assert not is_probable_prime(n)


def test_small_primes_sieve():
    primes = small_primes()
    assert primes[:5] == [2, 3, 5, 7, 11]
    assert all(is_probable_prime(p) for p in primes[:50])


@given(st.integers(min_value=1, max_value=10**12),
       st.integers(min_value=1, max_value=10**12))
def test_egcd_bezout(a, b):
    g, x, y = egcd(a, b)
    assert a * x + b * y == g
    assert a % g == 0 and b % g == 0


@given(st.integers(min_value=2, max_value=10**9))
def test_modinv_inverse(a):
    m = 1_000_000_007  # prime modulus
    inv = modinv(a, m)
    assert a * inv % m == 1


def test_modinv_requires_coprime():
    with pytest.raises(ValueError):
        modinv(6, 9)


def test_gen_prime_congruence_conditions():
    rng = random.Random(1)
    p = gen_prime(128, rng, condition=lambda c: c % 8 == 3)
    q = gen_prime(128, rng, condition=lambda c: c % 8 == 7)
    assert is_probable_prime(p) and p % 8 == 3
    assert is_probable_prime(q) and q % 8 == 7
    assert p.bit_length() == 128 and q.bit_length() == 128


def test_gen_prime_rejects_tiny():
    with pytest.raises(ValueError):
        gen_prime(4, random.Random(0))


def test_jacobi_known_values():
    # (a/p) for p prime equals the Legendre symbol.
    p = 7919
    squares = {pow(x, 2, p) for x in range(1, p)}
    for a in (2, 3, 5, 10, 1234):
        expected = 1 if a % p in squares else -1
        assert jacobi(a, p) == expected
    assert jacobi(p, p) == 0


def test_jacobi_requires_odd_positive():
    with pytest.raises(ValueError):
        jacobi(3, 4)
    with pytest.raises(ValueError):
        jacobi(3, -5)


@given(st.integers(min_value=1, max_value=10**6))
def test_jacobi_multiplicative(a):
    n1, n2 = 1009, 2003  # odd primes
    assert jacobi(a, n1 * n2) == jacobi(a, n1) * jacobi(a, n2)


def test_sqrt_mod_blum_prime():
    p = 1000003  # p % 4 == 3
    for x in (2, 17, 500000):
        square = x * x % p
        root = sqrt_mod_blum_prime(square, p)
        assert root * root % p == square


def test_sqrt_mod_requires_3_mod_4():
    with pytest.raises(ValueError):
        sqrt_mod_blum_prime(4, 13)  # 13 % 4 == 1


@given(st.integers(min_value=0, max_value=1008),
       st.integers(min_value=0, max_value=2002))
def test_crt_pair(rp, rq):
    p, q = 1009, 2003
    combined = crt_pair(rp, p, rq, q, modinv(q, p))
    assert combined % p == rp
    assert combined % q == rq
    assert 0 <= combined < p * q


def _powmod_cases():
    rng = random.Random(2048)
    for bits in (64, 127, 256, 384, 512, 768, 1024, 1536, 2048):
        mod = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        yield rng.getrandbits(bits) % mod, rng.getrandbits(bits), mod
        yield mod + rng.getrandbits(bits), rng.getrandbits(bits // 2), mod
        yield rng.getrandbits(3 * bits), rng.getrandbits(bits), mod
        yield 0, rng.getrandbits(bits), mod
        yield rng.getrandbits(bits), 0, mod
        yield rng.getrandbits(bits), 1, mod
        yield mod, rng.getrandbits(bits), mod
        yield mod - 1, rng.getrandbits(bits), mod
    yield 12345, 678, 2**64  # even modulus: builtin pow
    yield 7, 5, 1
    yield 7, 0, 1
    yield -5, 3, 1019  # negative base
    yield 3, -1, 1019  # negative exponent (a modular inverse): builtin pow


@pytest.mark.parametrize("base,exp,mod", list(_powmod_cases()))
def test_powmod_matches_builtin_pow(base, exp, mod):
    assert powmod(base, exp, mod) == pow(base, exp, mod)


def test_modexp_kernel_loads_wherever_libcrypto_exports_it():
    # A self-check that stopped passing would quietly leave every
    # exponentiation on builtin pow; where the symbols exist it must not.
    lib = libcrypto.find(*numtheory.LIBCRYPTO_SYMBOLS)
    expected = "builtin" if lib is None else "libcrypto"
    assert numtheory.MODEXP_KERNEL == expected


@pytest.mark.parametrize("mod,path", [
    (2**64, "builtin_calls"),  # even: always builtin pow
    (2**521 - 1, "libcrypto_calls"),
])
def test_powmod_counts_the_path_that_served_it(mod, path):
    if path == "libcrypto_calls" and numtheory.MODEXP_KERNEL != "libcrypto":
        pytest.skip("libcrypto modexp kernel unavailable")
    before = numtheory.STATS.snapshot()
    assert powmod(5, 2**300 + 17, mod) == pow(5, 2**300 + 17, mod)
    after = numtheory.STATS.snapshot()
    assert {k: after[k] - before[k] for k in after} == {
        k: int(k == path) for k in after}


def _ctypes_types() -> set[int]:
    bases = (ctypes.Array, ctypes._Pointer, ctypes._SimpleCData,
             ctypes.Structure, ctypes.Union, ctypes._CFuncPtr)
    return {id(obj) for obj in gc.get_objects()
            if isinstance(obj, type) and issubclass(obj, bases)}


def test_powmod_leaves_no_cyclic_garbage():
    rng = random.Random(1000)
    mod = rng.getrandbits(384) | (1 << 383) | 1
    operands = [(rng.getrandbits(384), rng.getrandbits(384))
                for _ in range(1000)]
    gc.collect()
    gc.garbage.clear()
    types_before = _ctypes_types()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for base, exp in operands:
            powmod(base, exp, mod)
        gc.collect()
        garbage = list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert garbage == []
    assert _ctypes_types() == types_before

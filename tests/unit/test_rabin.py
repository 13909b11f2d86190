"""Tests for the Rabin-Williams cryptosystem (repro.crypto.rabin)."""

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import rabin
from repro.crypto.numtheory import jacobi


@pytest.fixture(scope="module")
def key():
    return rabin.generate_key(768, random.Random(42))


@pytest.fixture(scope="module")
def other_key():
    return rabin.generate_key(768, random.Random(43))


def test_key_structure(key):
    assert key.p % 8 == 3
    assert key.q % 8 == 7
    assert key.n == key.p * key.q
    assert key.public_key.n == key.n
    assert key.public_key.bits in (767, 768)


def test_private_key_validates_congruences():
    with pytest.raises(rabin.RabinError):
        rabin.PrivateKey(7, 7)  # 7 % 8 == 7, but p must be 3 mod 8


def test_encrypt_decrypt_roundtrip(key):
    rng = random.Random(1)
    for size in (0, 1, 20, 54):
        message = bytes(rng.getrandbits(8) for _ in range(size))
        ciphertext = key.public_key.encrypt(message, rng)
        assert key.decrypt(ciphertext) == message


def test_encryption_is_randomized(key):
    rng = random.Random(2)
    c1 = key.public_key.encrypt(b"same message", rng)
    c2 = key.public_key.encrypt(b"same message", rng)
    assert c1 != c2
    assert key.decrypt(c1) == key.decrypt(c2) == b"same message"


def test_message_too_long_rejected(key):
    rng = random.Random(3)
    limit = key.public_key.size - 42
    key.public_key.encrypt(b"x" * limit, rng)  # exactly at the limit
    with pytest.raises(rabin.RabinError):
        key.public_key.encrypt(b"x" * (limit + 1), rng)


def test_tampered_ciphertext_rejected(key):
    rng = random.Random(4)
    ciphertext = bytearray(key.public_key.encrypt(b"secret", rng))
    ciphertext[10] ^= 1
    with pytest.raises(rabin.RabinError):
        key.decrypt(bytes(ciphertext))


def test_wrong_key_cannot_decrypt(key, other_key):
    rng = random.Random(5)
    ciphertext = key.public_key.encrypt(b"secret", rng)
    padded = other_key.public_key.encrypt(b"x", rng)  # right length source
    with pytest.raises(rabin.RabinError):
        other_key.decrypt(ciphertext[: other_key.public_key.size]
                          if len(ciphertext) != other_key.public_key.size
                          else ciphertext)


def test_sign_verify(key):
    signature = key.sign(b"a message")
    assert key.public_key.verify(b"a message", signature)
    assert not key.public_key.verify(b"another message", signature)


def test_signature_tamper_rejected(key):
    signature = bytearray(key.sign(b"m"))
    signature[5] ^= 1
    assert not key.public_key.verify(b"m", bytes(signature))


def test_signature_wrong_key_rejected(key, other_key):
    signature = key.sign(b"m")
    assert not other_key.public_key.verify(b"m", signature)


def test_signature_malformed_rejected(key):
    assert not key.public_key.verify(b"m", b"")
    assert not key.public_key.verify(b"m", b"\x07" + b"\x00" * key.public_key.size)
    too_big = bytes([0]) + b"\xff" * key.public_key.size
    assert not key.public_key.verify(b"m", too_big)


def test_signing_is_deterministic(key):
    assert key.sign(b"stable") == key.sign(b"stable")


# The tweak byte (e, f) that makes e*f*m a residue, predicted from the
# Jacobi symbols of m mod p and mod q: -1 flips both symbols, 2 flips
# only the p symbol (p = 3 mod 8), -2 only the q symbol (q = 7 mod 8).
_JACOBI_TWEAK_BYTE = {(1, 1): 0b00, (-1, -1): 0b10, (-1, 1): 0b01,
                      (1, -1): 0b11}


def test_tweak_covers_all_jacobi_cases(key):
    # Find messages hitting each (jp, jq) combination; each signature
    # must verify and carry the tweak the Jacobi symbols predict.
    seen = set()
    counter = 0
    while len(seen) < 4 and counter < 200:
        message = f"msg{counter}".encode()
        m = rabin._fdh_encode(message, key.n)
        case = (jacobi(m % key.p, key.p), jacobi(m % key.q, key.q))
        if case not in seen:
            seen.add(case)
            signature = key.sign(message)
            assert key.public_key.verify(message, signature)
            assert signature[0] == _JACOBI_TWEAK_BYTE[case], case
        counter += 1
    assert len(seen) == 4, f"only exercised {seen}"


# SHA-256 over keys, signatures, ciphertexts and decryptions for fixed
# keys and messages, frozen from the implementation that took every root
# with a direct exponentiation of the tweaked target and chose the tweak
# from Jacobi symbols.  Any change to the private-key arithmetic must
# reproduce these bytes exactly.
_GOLDEN_DIGEST = (
    "2d87931638b64ac9c0b90091855079652571dfcfacbe7e3c2cda75b666ad62fb"
)


def test_golden_signatures_and_decryptions():
    digest = hashlib.sha256()
    for bits in (512, 768, 1024):
        key = rabin.generate_key(bits, random.Random(bits))
        digest.update(key.to_bytes())
        rng = random.Random(bits + 1)
        for index in range(16):
            message = f"golden {bits} {index}".encode()
            digest.update(key.sign(message))
            ciphertext = key.public_key.encrypt(message, rng)
            digest.update(ciphertext)
            digest.update(key.decrypt(ciphertext))
    assert digest.hexdigest() == _GOLDEN_DIGEST


def test_serialization_roundtrip(key):
    assert rabin.PublicKey.from_bytes(key.public_key.to_bytes()) == key.public_key
    twin = rabin.PrivateKey.from_bytes(key.to_bytes())
    # The precomputed CRT state is derived, not compared or printed.
    assert twin == key and hash(twin) == hash(key)
    assert repr(twin) == f"PrivateKey(p={key.p}, q={key.q})"


def test_public_key_deserialization_errors():
    with pytest.raises(rabin.RabinError):
        rabin.PublicKey.from_bytes(b"")
    with pytest.raises(rabin.RabinError):
        rabin.PublicKey.from_bytes((99).to_bytes(4, "big") + b"xx")
    even = (1).to_bytes(4, "big") + bytes([4])
    with pytest.raises(rabin.RabinError):
        rabin.PublicKey.from_bytes(even)


def test_mgf1_expands_deterministically():
    out1 = rabin.mgf1(b"seed", 100)
    out2 = rabin.mgf1(b"seed", 100)
    assert out1 == out2
    assert len(out1) == 100
    assert rabin.mgf1(b"seed", 50) == out1[:50]
    assert rabin.mgf1(b"other", 100) != out1


def test_fdh_below_modulus_and_odd(key):
    for counter in range(20):
        value = rabin._fdh_encode(f"m{counter}".encode(), key.n)
        assert 0 < value < key.n
        assert value % 2 == 1


@given(st.binary(max_size=40))
@settings(max_examples=25, deadline=None)
def test_roundtrip_property(message):
    key = _cached_key()
    rng = random.Random(7)
    assert key.decrypt(key.public_key.encrypt(message, rng)) == message
    assert key.public_key.verify(message, key.sign(message))


_KEY_CACHE = []


def _cached_key():
    if not _KEY_CACHE:
        _KEY_CACHE.append(rabin.generate_key(768, random.Random(99)))
    return _KEY_CACHE[0]

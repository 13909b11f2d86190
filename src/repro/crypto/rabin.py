"""The Rabin-Williams public-key cryptosystem, from scratch.

The paper (section 3.1.3) uses Rabin for both encryption and signing:
"Like low-exponent RSA, encryption and signature verification are
particularly fast in Rabin because they do not require modular
exponentiation" — both are a single modular squaring.  Security rests only
on the hardness of factoring.

Key structure (Williams' variant): ``n = p*q`` with ``p = 3 (mod 8)`` and
``q = 7 (mod 8)``.  For such *n*, ``jacobi(-1, n) = 1`` with -1 a
non-residue mod both primes, and ``jacobi(2, n) = -1``; consequently for
any *m* coprime to *n* exactly one of ``m, -m, 2m, -2m`` is a quadratic
residue, which gives every (padded) message a square root after a cheap
"tweak".

* Encryption is OAEP-style (SHA-1 based, as in the plaintext-aware scheme
  the paper cites): pad, square mod n; decryption takes the four square
  roots via CRT and the padding check picks the right one.
* Signatures pad the message hash deterministically to the full modulus
  width (full-domain hash via MGF1/SHA-1), tweak it to a residue, and
  publish the root together with the two tweak bits.  Verification is one
  squaring plus a padding re-computation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .numtheory import crt_pair, gen_prime, modinv, powmod
from .sha1 import sha1
from .util import bytes_to_int, constant_time_eq, int_to_bytes

DEFAULT_KEY_BITS = 768


class RabinError(Exception):
    """Raised on malformed ciphertexts, signatures, or keys."""


def mgf1(seed: bytes, length: int) -> bytes:
    """MGF1 mask generation function built on SHA-1 (PKCS#1-style)."""
    out = bytearray()
    counter = 0
    while len(out) < length:
        out += sha1(seed + counter.to_bytes(4, "big"))
        counter += 1
    return bytes(out[:length])


@dataclass(frozen=True)
class PublicKey:
    """A Rabin-Williams public key: just the modulus."""

    n: int

    @property
    def bits(self) -> int:
        return self.n.bit_length()

    @property
    def size(self) -> int:
        """Modulus size in bytes."""
        return (self.n.bit_length() + 7) // 8

    def to_bytes(self) -> bytes:
        """Serialize as length-prefixed big-endian modulus."""
        raw = int_to_bytes(self.n)
        return len(raw).to_bytes(4, "big") + raw

    @classmethod
    def from_bytes(cls, data: bytes) -> "PublicKey":
        if len(data) < 4:
            raise RabinError("truncated public key")
        length = int.from_bytes(data[:4], "big")
        if len(data) != 4 + length:
            raise RabinError("public key length mismatch")
        n = bytes_to_int(data[4:])
        if n < 3 or n % 2 == 0:
            raise RabinError("implausible public key modulus")
        return cls(n)

    # --- encryption -----------------------------------------------------

    def encrypt(self, message: bytes, rng: random.Random) -> bytes:
        """OAEP-pad *message* and square it modulo n."""
        padded = _oaep_encode(message, self.size, rng)
        m = bytes_to_int(padded)
        c = m * m % self.n
        return int_to_bytes(c, self.size)

    # --- signature verification ----------------------------------------

    def verify(self, message: bytes, signature: bytes) -> bool:
        """Verify a Rabin-Williams signature (squaring, no exponentiation)."""
        try:
            e, f, s = _split_signature(signature, self.size)
        except RabinError:
            return False
        if s >= self.n:
            return False
        target = _fdh_encode(message, self.n)
        # s*s = e * f * m (mod n), so recover m = e * f^-1 * s^2.  With
        # e in {1, -1} its own inverse and f in {1, 2}, f^-1 for f == 2 is
        # (n + 1) / 2 — still no modular exponentiation.
        f_inv = 1 if f == 1 else (self.n + 1) // 2
        candidate = s * s % self.n * e * f_inv % self.n
        return candidate == target


# (m is a residue mod p, m is a residue mod q) -> the tweak (e, f) that
# makes e*f*m a residue mod both.  Both primes are 3 (mod 4), so
# multiplying by -1 flips residuosity modulo both.  2 is a non-residue
# mod p (p = 3 mod 8) but a residue mod q (q = 7 mod 8), so multiplying
# by 2 flips only the p side, and by -2 only the q side.
_TWEAKS = {
    (True, True): (1, 1),
    (False, False): (-1, 1),
    (False, True): (1, 2),
    (True, False): (-1, 2),
}


def _tweak_roots(prime: int, exponent: int) -> dict[int, int]:
    """``t ** exponent mod prime`` for each tweak factor t = e*f."""
    minus_one = prime - 1 if exponent & 1 else 1
    two = powmod(2, exponent, prime)
    return {1: 1, -1: minus_one, 2: two, -2: minus_one * two % prime}


@dataclass(frozen=True)
class PrivateKey:
    """A Rabin-Williams private key: the factorization of n.

    Only ``p`` and ``q`` are compared and serialised.  The rest is CRT
    state derived once per key, so that each private-key operation costs
    its two half-size exponentiations and nothing more: the modulus, the
    CRT coefficient ``q^-1 mod p``, the root exponents ``(p+1)/4`` and
    ``(q+1)/4``, and those exponents applied to each tweak factor.
    """

    p: int
    q: int
    n: int = field(init=False, repr=False, compare=False)
    _q_inv: int = field(init=False, repr=False, compare=False)
    _exp_p: int = field(init=False, repr=False, compare=False)
    _exp_q: int = field(init=False, repr=False, compare=False)
    _roots_p: dict[int, int] = field(init=False, repr=False, compare=False)
    _roots_q: dict[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        p, q = self.p, self.q
        if p % 8 != 3 or q % 8 != 7:
            raise RabinError("Rabin-Williams requires p=3 (mod 8), q=7 (mod 8)")
        exp_p, exp_q = (p + 1) // 4, (q + 1) // 4
        derived = {
            "n": p * q,
            "_q_inv": modinv(q, p),
            "_exp_p": exp_p,
            "_exp_q": exp_q,
            "_roots_p": _tweak_roots(p, exp_p),
            "_roots_q": _tweak_roots(q, exp_q),
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    @property
    def public_key(self) -> PublicKey:
        return PublicKey(self.n)

    def to_bytes(self) -> bytes:
        """Serialize both primes, length-prefixed."""
        rp = int_to_bytes(self.p)
        rq = int_to_bytes(self.q)
        return (
            len(rp).to_bytes(4, "big") + rp + len(rq).to_bytes(4, "big") + rq
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "PrivateKey":
        if len(data) < 8:
            raise RabinError("truncated private key")
        lp = int.from_bytes(data[:4], "big")
        p = bytes_to_int(data[4 : 4 + lp])
        rest = data[4 + lp :]
        lq = int.from_bytes(rest[:4], "big")
        q = bytes_to_int(rest[4 : 4 + lq])
        if rest[4 + lq :]:
            raise RabinError("trailing bytes in private key")
        return cls(p, q)

    # --- decryption -----------------------------------------------------

    def decrypt(self, ciphertext: bytes) -> bytes:
        """Take the four square roots and return the one that OAEP-decodes."""
        n = self.n
        size = self.public_key.size
        if len(ciphertext) != size:
            raise RabinError("ciphertext has wrong length")
        c = bytes_to_int(ciphertext)
        if c >= n:
            raise RabinError("ciphertext out of range")
        for root in self._square_roots(c):
            try:
                return _oaep_decode(int_to_bytes(root, size), size)
            except RabinError:
                continue
        raise RabinError("no square root yields valid OAEP padding")

    def _square_roots(self, c: int) -> list[int]:
        p, q = self.p, self.q
        cp, cq = c % p, c % q
        rp = powmod(cp, self._exp_p, p)
        rq = powmod(cq, self._exp_q, q)
        if rp * rp % p != cp or rq * rq % q != cq:
            return []
        roots = set()
        for sp in (rp, p - rp):
            for sq in (rq, q - rq):
                roots.add(crt_pair(sp, p, sq, q, self._q_inv))
        return sorted(roots)

    # --- signing ---------------------------------------------------------

    def sign(self, message: bytes) -> bytes:
        """Sign: tweak the padded hash to a residue, take a square root.

        The signature is ``tweak_byte || root`` where the tweak byte
        encodes (e, f) with e in {1, -1} and f in {1, 2} such that
        ``e * f * m`` is a quadratic residue mod n.

        ``r = m ** ((p+1)/4) mod p`` squares to ``m`` exactly when m is a
        residue mod p (and to ``-m`` otherwise), so the two root
        exponentiations also decide the tweak.  Exponentiation is
        multiplicative, so the root of ``e*f*m`` is the precomputed
        root of ``e*f`` times ``r``: the same value a direct
        exponentiation of ``e*f*m`` gives.
        """
        n, p, q = self.n, self.p, self.q
        m = _fdh_encode(message, n)
        mp, mq = m % p, m % q
        if not mp or not mq:
            # Vanishingly unlikely: the hash shares a factor with n.
            raise RabinError("message hash not coprime to modulus")
        rp = powmod(mp, self._exp_p, p)
        rq = powmod(mq, self._exp_q, q)
        e, f = _TWEAKS[rp * rp % p == mp, rq * rq % q == mq]
        ef = e * f
        rp = self._roots_p[ef] * rp % p
        rq = self._roots_q[ef] * rq % q
        s = crt_pair(rp, p, rq, q, self._q_inv)
        target = ef % n * m % n
        if s * s % n != target:
            raise RabinError("internal error: padded hash not a residue")
        tweak = (0 if e == 1 else 2) | (0 if f == 1 else 1)
        return bytes([tweak]) + int_to_bytes(s, self.public_key.size)


def _split_signature(signature: bytes, size: int) -> tuple[int, int, int]:
    if len(signature) != 1 + size:
        raise RabinError("signature has wrong length")
    tweak = signature[0]
    if tweak > 3:
        raise RabinError("invalid tweak byte")
    e = -1 if tweak & 2 else 1
    f = 2 if tweak & 1 else 1
    return e, f, bytes_to_int(signature[1:])


def generate_key(bits: int = DEFAULT_KEY_BITS, rng: random.Random | None = None) -> PrivateKey:
    """Generate a Rabin-Williams key pair with an n of roughly *bits* bits."""
    rng = rng or random.Random()
    half = bits // 2
    p = gen_prime(half, rng, condition=lambda c: c % 8 == 3)
    q = gen_prime(bits - half, rng, condition=lambda c: c % 8 == 7)
    while q == p:
        q = gen_prime(bits - half, rng, condition=lambda c: c % 8 == 7)
    return PrivateKey(p, q)


# --- padding -------------------------------------------------------------

_OAEP_SEED_LEN = 20
_OAEP_HASH_LEN = 20


def _oaep_encode(message: bytes, size: int, rng: random.Random) -> bytes:
    """EME-OAEP (SHA-1) producing ``size - 1`` bytes so the value < n.

    Layout: ``00 || masked_seed(20) || masked_db`` where
    ``db = lhash(20) || 00.. || 01 || message``.  The leading zero byte
    keeps the padded integer below the modulus.
    """
    db_len = size - 1 - _OAEP_SEED_LEN
    max_message = db_len - _OAEP_HASH_LEN - 1
    if max_message < 1:
        raise RabinError("modulus too small for OAEP")
    if len(message) > max_message:
        raise RabinError(
            f"message too long for OAEP ({len(message)} > {max_message})"
        )
    lhash = sha1(b"RabinOAEP")
    padding = b"\x00" * (max_message - len(message))
    db = lhash + padding + b"\x01" + message
    seed = bytes(rng.getrandbits(8) for _ in range(_OAEP_SEED_LEN))
    masked_db = bytes(a ^ b for a, b in zip(db, mgf1(seed, db_len)))
    masked_seed = bytes(
        a ^ b for a, b in zip(seed, mgf1(masked_db, _OAEP_SEED_LEN))
    )
    return b"\x00" + masked_seed + masked_db


def _oaep_decode(padded: bytes, size: int) -> bytes:
    if len(padded) != size:
        raise RabinError("padded block has wrong length")
    if padded[0] != 0:
        raise RabinError("bad OAEP leading byte")
    masked_seed = padded[1 : 1 + _OAEP_SEED_LEN]
    masked_db = padded[1 + _OAEP_SEED_LEN :]
    seed = bytes(
        a ^ b for a, b in zip(masked_seed, mgf1(masked_db, _OAEP_SEED_LEN))
    )
    db = bytes(a ^ b for a, b in zip(masked_db, mgf1(seed, len(masked_db))))
    lhash = sha1(b"RabinOAEP")
    if not constant_time_eq(db[:_OAEP_HASH_LEN], lhash):
        raise RabinError("bad OAEP label hash")
    rest = db[_OAEP_HASH_LEN:]
    index = rest.find(b"\x01")
    if index < 0 or any(rest[:index]):
        raise RabinError("bad OAEP padding separator")
    return rest[index + 1 :]


def _fdh_encode(message: bytes, n: int) -> int:
    """Deterministic full-domain hash of *message* into Z_n.

    Expands SHA-1(message) with MGF1 to one byte less than the modulus and
    clears the top bit, guaranteeing the value is below n.
    """
    size = (n.bit_length() + 7) // 8
    digest = sha1(b"RabinFDH" + message)
    expanded = bytearray(mgf1(digest, size - 1))
    expanded[0] &= 0x7F
    value = bytes_to_int(bytes(expanded))
    # Force odd so the value is coprime to n with overwhelming probability
    # (n is a product of two odd primes).
    return value | 1

"""SFS key negotiation (paper figure 3 and section 3.1.1).

The client fetches the server's public key ``K_S`` and checks it against
the HostID in the self-certifying pathname.  To ensure forward secrecy it
generates a short-lived key ``K_C`` (regenerated hourly in SFS; our
clients regenerate per :class:`EphemeralKeyCache` policy), picks two
random key-halves ``k_C1, k_C2`` and encrypts them to ``K_S``; the server
picks ``k_S1, k_S2`` and encrypts them to ``K_C``.  Both sides derive one
session key per direction:

    k_CS = SHA-1("KCS", K_S, k_C1, K_C, k_S1)
    k_SC = SHA-1("KSC", K_S, k_C2, K_C, k_S2)

The client is assured nobody without ``K_S``'s private half can know the
session keys; the server learns nothing about the client ("SFS servers do
not care which clients they talk to, only which users are on those
clients").  SessionID = SHA-1("SessionInfo", k_SC, k_CS) later binds user
authentication to this channel.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from ..crypto.backend import new_sha1
from ..crypto.mac import hmac_sha1
from ..crypto.rabin import PrivateKey, PublicKey, RabinError, generate_key

KEY_HALF_LEN = 16
EPHEMERAL_KEY_BITS = 640  # short-lived, anonymity-only key


class KeyNegotiationError(Exception):
    """Raised when key negotiation fails (bad key, bad ciphertext)."""


def make_key_halves(rng: random.Random) -> tuple[bytes, bytes]:
    """Two fresh 16-byte key halves."""
    return (
        bytes(rng.getrandbits(8) for _ in range(KEY_HALF_LEN)),
        bytes(rng.getrandbits(8) for _ in range(KEY_HALF_LEN)),
    )


def encrypt_key_halves(
    recipient: PublicKey, half1: bytes, half2: bytes, rng: random.Random
) -> bytes:
    """Seal both key halves to *recipient* in one Rabin encryption."""
    return recipient.encrypt(half1 + half2, rng)


def decrypt_key_halves(key: PrivateKey, ciphertext: bytes) -> tuple[bytes, bytes]:
    """Open sealed key halves; raises KeyNegotiationError on garbage."""
    try:
        plain = key.decrypt(ciphertext)
    except RabinError as exc:
        raise KeyNegotiationError(f"bad key-half ciphertext: {exc}") from None
    if len(plain) != 2 * KEY_HALF_LEN:
        raise KeyNegotiationError("key halves have wrong length")
    return plain[:KEY_HALF_LEN], plain[KEY_HALF_LEN:]


def _derive(tag: bytes, ks: PublicKey, kc: PublicKey,
            client_half: bytes, server_half: bytes) -> bytes:
    h = new_sha1()
    h.update(tag)
    h.update(ks.to_bytes())
    h.update(client_half)
    h.update(kc.to_bytes())
    h.update(server_half)
    return h.digest()


@dataclass(frozen=True)
class SessionKeys:
    """The two per-direction 20-byte session keys plus the SessionID."""

    kcs: bytes  # client -> server
    ksc: bytes  # server -> client

    @property
    def session_id(self) -> bytes:
        h = new_sha1()
        h.update(b"SessionInfo")
        h.update(self.ksc)
        h.update(self.kcs)
        return h.digest()


def derive_session_keys(
    server_key: PublicKey,
    client_key: PublicKey,
    kc1: bytes,
    kc2: bytes,
    ks1: bytes,
    ks2: bytes,
) -> SessionKeys:
    """Compute k_CS and k_SC exactly as both endpoints do."""
    return SessionKeys(
        kcs=_derive(b"KCS", server_key, client_key, kc1, ks1),
        ksc=_derive(b"KSC", server_key, client_key, kc2, ks2),
    )


def negotiate_client_keys(
    server_key: PublicKey,
    client_key: PrivateKey,
    rng: random.Random,
    exchange: Callable[[bytes, bytes], bytes],
) -> SessionKeys:
    """Run the client side of figure 3 over any exchange mechanism.

    Picks fresh key halves, seals them to *server_key*, and calls
    ``exchange(client_pubkey_bytes, sealed_halves)``, which performs the
    actual round trip (ENCRYPT for a new session, REKEY for channel
    resynchronization) and returns the server's sealed halves.  Both
    callers derive identical keys from identical material, so re-keying
    preserves every property of the original negotiation — including
    forward secrecy, since nothing from the old streams is reused.
    """
    kc1, kc2 = make_key_halves(rng)
    sealed = encrypt_key_halves(server_key, kc1, kc2, rng)
    server_sealed = exchange(client_key.public_key.to_bytes(), sealed)
    ks1, ks2 = decrypt_key_halves(client_key, server_sealed)
    return derive_session_keys(
        server_key, client_key.public_key, kc1, kc2, ks1, ks2
    )


def rekey_auth(session_keys: SessionKeys, client_pubkey: bytes,
               sealed_halves: bytes) -> bytes:
    """The continuity proof carried by a REKEY request.

    HMAC-SHA1 keyed by the current SessionID over the new key material.
    The SessionID never crosses the wire, so only the two endpoints of
    the live session can mint or verify this tag; a network attacker who
    forced a desync cannot splice in a negotiation of their own.
    """
    body = (b"SFS-rekey"
            + len(client_pubkey).to_bytes(4, "big") + client_pubkey
            + sealed_halves)
    return hmac_sha1(session_keys.session_id, body)


class EphemeralKeyCache:
    """Manages the client's short-lived anonymous key ``K_C``.

    "Clients discard and regenerate K_C at regular intervals (every hour
    by default)" — our policy is use-count based since the simulated
    clock only advances during device activity.
    """

    def __init__(self, rng: random.Random, max_uses: int = 64,
                 bits: int = EPHEMERAL_KEY_BITS) -> None:
        self._rng = rng
        self._max_uses = max_uses
        self._bits = bits
        self._key: PrivateKey | None = None
        self._uses = 0

    def current(self) -> PrivateKey:
        """The current ephemeral key, regenerating when worn out."""
        if self._key is None or self._uses >= self._max_uses:
            self._key = generate_key(self._bits, self._rng)
            self._uses = 0
        self._uses += 1
        return self._key

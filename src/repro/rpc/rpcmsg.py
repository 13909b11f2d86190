"""Sun RPC version 2 message format (RFC 1831), from scratch.

Only the pieces SFS needs: CALL and REPLY messages, AUTH_NONE and
AUTH_SYS credential flavors, and the accept/reject status hierarchy.
Argument and result bodies are carried as raw trailing bytes so each
program's codecs stay independent of the envelope.

The envelope is on every RPC hop, so it is packed and parsed flat: one
precompiled ``struct`` per group of fixed header words, and each
authenticator's wire bytes computed once per credential object
(:attr:`OpaqueAuth.wire`).  The checks are XDR's: a 400-byte limit on
authenticator bodies, zero padding, full words, and the RPC version.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property

from .xdr import Array, Record, String, Struct, UInt32, XdrError

RPC_VERSION = 2

CALL = 0
REPLY = 1

# Reply status
MSG_ACCEPTED = 0
MSG_DENIED = 1

# Accept status
SUCCESS = 0
PROG_UNAVAIL = 1
PROG_MISMATCH = 2
PROC_UNAVAIL = 3
GARBAGE_ARGS = 4
SYSTEM_ERR = 5
#: SFS extension (outside RFC 1831's 0-5 range): the server's request
#: queue is full and the call was never executed.  Retryable — the
#: client backs off and resends; admission control's backpressure path.
SERVER_BUSY = 102

# Reject status
RPC_MISMATCH = 0
AUTH_ERROR = 1

# Auth flavors
AUTH_NONE = 0
AUTH_SYS = 1

_MAX_AUTH_BODY = 400
_MAX_GROUPS = 16

_PAD = (b"", b"\x00", b"\x00\x00", b"\x00\x00\x00")
_W1 = struct.Struct(">I")
_W2 = struct.Struct(">2I")
_W3 = struct.Struct(">3I")
_W4 = struct.Struct(">4I")
_CALL_HEAD = struct.Struct(">6I")  # xid, CALL, rpcvers, prog, vers, proc


class RpcMsgError(XdrError):
    """Raised on malformed RPC envelopes."""


@dataclass(frozen=True)
class OpaqueAuth:
    """An RPC authenticator: flavor + opaque body."""

    flavor: int = AUTH_NONE
    body: bytes = b""

    @cached_property
    def wire(self) -> bytes:
        """Flavor, length, body and zero pad, packed on first use."""
        body = bytes(self.body)
        if len(body) > _MAX_AUTH_BODY:
            raise XdrError(f"opaque exceeds maximum {_MAX_AUTH_BODY}")
        return _W2.pack(self.flavor, len(body)) + body + _PAD[-len(body) % 4]


NULL_AUTH = OpaqueAuth()


def _auth_at(data, off: int) -> tuple[OpaqueAuth, int]:
    """Parse the authenticator at *off*; returns it and the next offset."""
    flavor, length = _W2.unpack_from(data, off)
    if length > _MAX_AUTH_BODY:
        raise XdrError(f"opaque length {length} exceeds maximum "
                       f"{_MAX_AUTH_BODY}")
    if not flavor and not length:
        return NULL_AUTH, off + 8
    end = off + 8 + length
    stop = end + (-length % 4)
    if stop > len(data):
        raise XdrError("truncated XDR data")
    if data[end:stop] != _PAD[stop - end]:
        raise XdrError("nonzero XDR padding")
    return OpaqueAuth(flavor, bytes(data[off + 8:end])), stop


#: authsys_parms (RFC 1831 section 9.2).
AuthSysParms = Struct("authsys_parms", [
    ("stamp", UInt32),
    ("machinename", String(255)),
    ("uid", UInt32),
    ("gid", UInt32),
    ("gids", Array(UInt32)),  # to_auth sends at most 16
])


@dataclass(frozen=True)
class AuthSys:
    """AUTH_SYS (a.k.a. AUTH_UNIX) credentials: the classic NFS identity."""

    stamp: int = 0
    machinename: str = "localhost"
    uid: int = 0
    gid: int = 0
    gids: tuple[int, ...] = ()

    def to_auth(self) -> OpaqueAuth:
        """The credential (at most 16 groups), encoded once per instance."""
        return self._auth

    @cached_property
    def _auth(self) -> OpaqueAuth:
        return OpaqueAuth(AUTH_SYS, AuthSysParms.pack(Record(
            stamp=self.stamp, machinename=self.machinename, uid=self.uid,
            gid=self.gid, gids=self.gids[:_MAX_GROUPS])))

    @classmethod
    def from_auth(cls, auth: OpaqueAuth) -> "AuthSys":
        if auth.flavor != AUTH_SYS:
            raise RpcMsgError("not an AUTH_SYS credential")
        parms = AuthSysParms.unpack(auth.body)
        if len(parms.gids) > _MAX_GROUPS:
            raise RpcMsgError("too many groups in AUTH_SYS")
        return cls(parms.stamp, parms.machinename, parms.uid, parms.gid,
                   tuple(parms.gids))


@dataclass(frozen=True)
class CallHeader:
    """A parsed RPC CALL envelope (argument bytes carried separately)."""

    xid: int
    prog: int
    vers: int
    proc: int
    cred: OpaqueAuth = NULL_AUTH
    verf: OpaqueAuth = NULL_AUTH


def pack_call(header: CallHeader, args: bytes) -> bytes:
    try:
        # Envelope and body leave as one buffer.
        return b"".join((
            _CALL_HEAD.pack(header.xid, CALL, RPC_VERSION, header.prog,
                            header.vers, header.proc),
            header.cred.wire, header.verf.wire, args))
    except struct.error:
        raise XdrError(f"uint32 out of range in {header}") from None


@dataclass(frozen=True)
class ReplyHeader:
    """A parsed RPC REPLY envelope (result bytes carried separately)."""

    xid: int
    reply_stat: int = MSG_ACCEPTED
    accept_stat: int = SUCCESS
    reject_stat: int = RPC_MISMATCH
    auth_stat: int = 0
    verf: OpaqueAuth = NULL_AUTH
    mismatch_low: int = 0
    mismatch_high: int = 0

    @property
    def successful(self) -> bool:
        return self.reply_stat == MSG_ACCEPTED and self.accept_stat == SUCCESS


def pack_reply(header: ReplyHeader, results: bytes = b"") -> bytes:
    try:
        head = _W3.pack(header.xid, REPLY, header.reply_stat)
        if header.reply_stat == MSG_ACCEPTED:
            accept = header.accept_stat
            verf = header.verf.wire
            if accept == SUCCESS:
                return b"".join((head, verf, _W1.pack(SUCCESS), results))
            if accept == PROG_MISMATCH:
                tail = _W3.pack(accept, header.mismatch_low,
                                header.mismatch_high)
            else:
                tail = _W1.pack(accept)
            return head + verf + tail
        if header.reject_stat == RPC_MISMATCH:
            return head + _W3.pack(RPC_MISMATCH, header.mismatch_low,
                                   header.mismatch_high)
        return head + _W2.pack(header.reject_stat, header.auth_stat)
    except struct.error:
        raise XdrError(f"uint32 out of range in {header}") from None


@dataclass(frozen=True)
class ParsedMessage:
    """Either a CALL or a REPLY, with the trailing body bytes.

    ``body`` is a ``memoryview`` over the record's tail, not a copy —
    an 8 KB READ payload crosses three RPC hops in the SFS
    configuration, and slicing it out of every envelope showed up in
    profiles.  The codec layer accepts views everywhere and copies only
    the opaque payloads it hands to callers as real ``bytes``.
    """

    mtype: int
    call: CallHeader | None
    reply: ReplyHeader | None
    body: bytes


def peek_message(data: bytes) -> tuple[int, int] | None:
    """Cheaply read ``(mtype, xid)`` off a record without full parsing.

    The duplicate-reply cache consults this on every inbound record to
    spot retransmitted calls before paying for header/auth unpacking.
    Returns None for records too short or of unknown type.
    """
    if len(data) < 8:
        return None
    xid, mtype = _W2.unpack_from(data, 0)
    if mtype not in (CALL, REPLY):
        return None
    return mtype, xid


def parse_message(data: bytes) -> ParsedMessage:
    """Parse an RPC record into its envelope + trailing body bytes."""
    try:
        return _parse(data)
    except struct.error:
        raise XdrError("truncated XDR data") from None


def _parse(data) -> ParsedMessage:
    xid, mtype = _W2.unpack_from(data, 0)
    if mtype == CALL:
        rpcvers, prog, vers, proc = _W4.unpack_from(data, 8)
        if rpcvers != RPC_VERSION:
            raise RpcMsgError(f"unsupported RPC version {rpcvers}")
        cred, off = _auth_at(data, 24)
        verf, off = _auth_at(data, off)
        return ParsedMessage(
            CALL, CallHeader(xid, prog, vers, proc, cred, verf), None,
            memoryview(data)[off:],
        )
    if mtype != REPLY:
        raise RpcMsgError(f"bad message type {mtype}")
    (reply_stat,) = _W1.unpack_from(data, 8)
    if reply_stat == MSG_ACCEPTED:
        verf, off = _auth_at(data, 12)
        (accept_stat,) = _W1.unpack_from(data, off)
        off += 4
        low = high = 0
        if accept_stat == PROG_MISMATCH:
            low, high = _W2.unpack_from(data, off)
            off += 8
        reply = ReplyHeader(xid, MSG_ACCEPTED, accept_stat, verf=verf,
                            mismatch_low=low, mismatch_high=high)
        return ParsedMessage(REPLY, None, reply, memoryview(data)[off:])
    if reply_stat == MSG_DENIED:
        reject_stat, word = _W2.unpack_from(data, 12)
        if reject_stat == RPC_MISMATCH:
            (high,) = _W1.unpack_from(data, 20)
            reply = ReplyHeader(xid, MSG_DENIED, reject_stat=reject_stat,
                                mismatch_low=word, mismatch_high=high)
        else:
            reply = ReplyHeader(xid, MSG_DENIED, reject_stat=reject_stat,
                                auth_stat=word)
        return ParsedMessage(REPLY, None, reply, b"")
    raise RpcMsgError(f"bad reply_stat {reply_stat}")

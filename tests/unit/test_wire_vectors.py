"""Golden wire vectors: the fast lane never changes a protocol byte.

The wire-path optimizations (block ARC4 kernels, the compiled XDR lane and
flat RPC envelope, the single-buffer channel seal) are sound only if they
are bit-identical to the reference implementations — that is the invariant
:mod:`repro.crypto.backend` documents and docs/PERFORMANCE.md leans on.
This suite pins it three ways:

* **Golden digests** — seeded channel transcripts, the hot NFS3
  encodings and the RPC envelopes must match constants frozen from the
  reference path, so a regression against *history* is caught even if
  both paths drift together.
* **Cross-path equality** — every vector is produced under
  ``set_fast(True)`` and ``set_fast(False)`` and compared bit for bit,
  with the marshal counters checked to prove the fast path actually ran.
* **Kernel equivalence** — the block ARC4 kernels advance the same
  (state, i, j) machine as the reference per-byte loop, including across
  a mid-stream flip of the backend flag.

Regenerate the golden constants (after a *deliberate* wire format
change) with ``PYTHONPATH=src:. python tests/unit/test_wire_vectors.py``.
"""

import hashlib
import random

import pytest

from repro.core.channel import SecureChannel
from repro.crypto import arc4kernel, backend
from repro.crypto.arc4 import ARC4
from repro.nfs3 import const, types
from repro.rpc import rpcmsg, xdr
from repro.rpc.rpcmsg import (
    AuthSys,
    CallHeader,
    OpaqueAuth,
    ReplyHeader,
    RpcMsgError,
    pack_call,
    pack_reply,
    parse_message,
)
from repro.rpc.xdr import Record, XdrError

K_CS = bytes(range(1, 21))
K_SC = bytes(range(101, 121))

CHANNEL_PAYLOADS = [
    b"",
    b"x",
    b"NFS3 over a secure channel",
    bytes(range(256)),
    b"\x00" * 1000,
    bytes((i * 7 + 3) & 0xFF for i in range(8192)),
]

#: sha256 over len(record) ‖ record for every record of the seeded
#: transcript, both directions.  Frozen from the reference path.
GOLDEN_CHANNEL = (
    "129dd7f1900fa1928be597b90ba6f704db1715496d6662d9c8c31ffc08c7b0b9"
)

_FH = bytes(range(1, 33))
_FH2 = bytes(range(200, 240))
_VERF = bytes(range(8))


def _time(seconds):
    return types.NfsTime.make(seconds=seconds, nseconds=seconds * 1000 + 1)


def _fattr():
    return types.Fattr.make(
        type=const.NF3REG, mode=0o644, nlink=2, uid=10, gid=20,
        size=0x1_2345_6789, used=4096,
        rdev=types.SpecData.make(major=1, minor=2),
        fsid=7, fileid=42,
        atime=_time(1), mtime=_time(2), ctime=_time(3),
    )


def _wcc():
    return Record(
        before=types.WccAttr.make(size=100, mtime=_time(2), ctime=_time(3)),
        after=_fattr(),
    )


def nfs3_vectors():
    """(name, codec, value) for each hot codec, OK and failure arms."""
    payload = bytes((i * 13 + 5) & 0xFF for i in range(1025))
    return [
        ("getattr_args", types.GetAttrArgs, Record(object=_FH)),
        ("getattr_res_ok", types.GetAttrRes,
         (const.NFS3_OK, Record(obj_attributes=_fattr()))),
        ("getattr_res_fail", types.GetAttrRes, (const.NFS3ERR_NOENT, None)),
        ("lookup_args", types.LookupArgs,
         Record(what=Record(dir=_FH, name="file.txt"))),
        ("lookup_res_ok", types.LookupRes,
         (const.NFS3_OK, Record(object=_FH2, obj_attributes=_fattr(),
                                dir_attributes=None))),
        ("lookup_res_fail", types.LookupRes,
         (const.NFS3ERR_NOENT, Record(dir_attributes=_fattr()))),
        ("read_args", types.ReadArgs,
         Record(file=_FH, offset=0x1_0000_0001, count=8192)),
        ("read_res_ok", types.ReadRes,
         (const.NFS3_OK, Record(file_attributes=_fattr(),
                                count=len(payload), eof=True,
                                data=payload))),
        ("read_res_fail", types.ReadRes,
         (const.NFS3ERR_IO, Record(file_attributes=None))),
        ("write_args", types.WriteArgs,
         Record(file=_FH, offset=4096, count=11,
                stable=const.FILE_SYNC, data=b"hello world")),
        ("write_res_ok", types.WriteRes,
         (const.NFS3_OK, Record(file_wcc=_wcc(), count=11,
                                committed=const.FILE_SYNC, verf=_VERF))),
        ("write_res_fail", types.WriteRes,
         (const.NFS3ERR_IO, Record(file_wcc=Record(before=None,
                                                   after=None)))),
    ]


#: sha256 of each vector's encoding, frozen from the reference path.
GOLDEN_NFS3 = {
    "getattr_args":
        "004625dac81b0e938512c786ac38ce24501d5781bd114ac99b1842e2076490ca",
    "getattr_res_ok":
        "7afeb8996404de5e898988dbf0d29cbf97a4829f36d16b09c20ab3faf39e2e3d",
    "getattr_res_fail":
        "433ebf5bc03dffa38536673207a21281612cef5faa9bc7a4d5b9be2fdb12cf1a",
    "lookup_args":
        "ba9383526963e2ca128ac98a051043c840abb97583b2b8202592a3e87c8f7c71",
    "lookup_res_ok":
        "48ff72d6a105089ad9c25c03ba68221b5582c225c9e6f1f947262406d2314616",
    "lookup_res_fail":
        "246693d7dda43ec36bf46f7c3db1d0f915b8a959c4a74310630a96b481450d50",
    "read_args":
        "b2fa13a7e3f00b50f2959b8913e458811b500b8266b5e8bcbc993ae64287c0af",
    "read_res_ok":
        "d17444816735f663431971eb580cae4947bad230f4ca9b8897824fc936eec7d1",
    "read_res_fail":
        "0af69fc776f69eec4b68853316a041d0fdaea4665ec299fbc9283560a0a6f667",
    "write_args":
        "1a50a08970007140879081e2e654d1aa8a14b4cba4c12bdf79a83367dfebdb18",
    "write_res_ok":
        "a6d24f3cb51cba89b44db0a166a0a3a560fd5ce430d986512cc51b299cd3311a",
    "write_res_fail":
        "fa236c53c3c620a6d7a96ab6389430820cdbc0b22e73932bd36d3b5bc86df6c6",
}


_ARGS = bytes((i * 11 + 7) & 0xFF for i in range(37))


def _authsys(groups):
    return AuthSys(stamp=0x5F5E100, machinename="client.sfs.test",
                   uid=1000, gid=100, gids=tuple(range(200, 200 + groups)))


def envelope_vectors():
    """(name, header, body) for each RPC envelope shape SFS sends."""
    call = dict(xid=0x01020304, prog=100003, vers=3, proc=6)
    return [
        ("call_auth_none", CallHeader(**call), _ARGS),
        ("call_auth_sys_0", CallHeader(cred=_authsys(0).to_auth(), **call),
         _ARGS),
        ("call_auth_sys_2", CallHeader(cred=_authsys(2).to_auth(), **call),
         _ARGS),
        ("call_auth_sys_20", CallHeader(cred=_authsys(20).to_auth(), **call),
         b""),
        ("reply_success", ReplyHeader(xid=0xA0B0C0D0), _ARGS),
        ("reply_prog_mismatch",
         ReplyHeader(xid=17, accept_stat=rpcmsg.PROG_MISMATCH,
                     mismatch_low=2, mismatch_high=4), b""),
        ("reply_garbage_args",
         ReplyHeader(xid=18, accept_stat=rpcmsg.GARBAGE_ARGS), b""),
        ("reply_server_busy",
         ReplyHeader(xid=19, accept_stat=rpcmsg.SERVER_BUSY), b""),
        ("reply_denied_rpc_mismatch",
         ReplyHeader(xid=20, reply_stat=rpcmsg.MSG_DENIED,
                     reject_stat=rpcmsg.RPC_MISMATCH,
                     mismatch_low=2, mismatch_high=2), b""),
        ("reply_denied_auth_error",
         ReplyHeader(xid=21, reply_stat=rpcmsg.MSG_DENIED,
                     reject_stat=rpcmsg.AUTH_ERROR, auth_stat=5), b""),
    ]


def _pack_envelope(header, body):
    if isinstance(header, CallHeader):
        return pack_call(header, body)
    return pack_reply(header, body)


#: sha256 of each packed envelope, frozen from the field-by-field packer.
GOLDEN_ENVELOPES = {
    "call_auth_none":
        "91f8f8c43568921e034aa385b39a9dab58e15f73d6b34975f1046f439d12b4d9",
    "call_auth_sys_0":
        "6c1d3552bf429c7cfde9d827f7e4c94ae6546ae27640a743bfbdcdfa08d76eb5",
    "call_auth_sys_2":
        "60b768f8019b3037f41b9d02922b7ccbca782d026222c0c4f038bc693875690e",
    "call_auth_sys_20":
        "47504f2eb38969038ef6f2636ae1d9ccd7b6b87638d2b683a02983eeedcad0a5",
    "reply_success":
        "b44b48a3607026c481397e4e32ad93dc1756b222509d495bbfc69f634ad02347",
    "reply_prog_mismatch":
        "4fed11abdc3a79a2bf8631d084cd1a858df9de53a8cbefaa0a587793a72c4206",
    "reply_garbage_args":
        "747111ebdf467c917b59c540f4f724dee9e8f3183066ad124389627bee294246",
    "reply_server_busy":
        "6d27f69142824183a0d917125772293f66ed0e1b3cfaf027336aa2bb285e86d8",
    "reply_denied_rpc_mismatch":
        "4542a97062762b5718b2a53ad153d5ccf5a3685733ca006ceb3025a1df3a73bd",
    "reply_denied_auth_error":
        "a20d2919786416d0e98b0213d25abcacec64cba7584045e06c88f9de9ab588bd",
}


@pytest.fixture(autouse=True)
def _fast_flags_restored():
    yield
    backend.set_fast(True)


class _CapturePipe:
    """Minimal Pipe: records sends, hand-delivers on demand."""

    def __init__(self):
        self.sent = []
        self.handler = None

    def send(self, data):
        self.sent.append(bytes(data))

    def on_receive(self, handler):
        self.handler = handler


def channel_transcript():
    """Wire records of the seeded two-way conversation."""
    client_pipe, server_pipe = _CapturePipe(), _CapturePipe()
    client = SecureChannel(client_pipe, send_key=K_CS, recv_key=K_SC)
    server = SecureChannel(server_pipe, send_key=K_SC, recv_key=K_CS)
    for payload in CHANNEL_PAYLOADS:
        client.send(payload)
        server.send(payload[::-1])
    return client_pipe.sent + server_pipe.sent, client, server


def _digest(records):
    acc = hashlib.sha256()
    for record in records:
        acc.update(len(record).to_bytes(4, "big"))
        acc.update(record)
    return acc.hexdigest()


# ---------------------------------------------------------------------------
# Channel records
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fast", [True, False])
def test_channel_transcript_matches_golden(fast):
    backend.set_fast(fast)
    records, _client, _server = channel_transcript()
    assert _digest(records) == GOLDEN_CHANNEL


def test_channel_records_identical_across_backends():
    backend.set_fast(True)
    fast_records, _c, _s = channel_transcript()
    backend.set_fast(False)
    slow_records, _c, _s = channel_transcript()
    assert fast_records == slow_records


@pytest.mark.parametrize("fast", [True, False])
def test_fast_sealed_records_decrypt_on_reference_receiver(fast):
    """Sender and receiver may disagree about the flag: same bytes."""
    backend.set_fast(fast)
    records, _client, _server = channel_transcript()
    backend.set_fast(not fast)
    pipe = _CapturePipe()
    receiver = SecureChannel(pipe, send_key=K_SC, recv_key=K_CS)
    delivered = []
    receiver.on_receive(lambda p: delivered.append(bytes(p)))
    for record in records[:len(CHANNEL_PAYLOADS)]:  # client->server half
        pipe.handler(record)
    assert delivered == CHANNEL_PAYLOADS
    assert receiver.rejected_records == 0


# ---------------------------------------------------------------------------
# Hot NFS3 marshals
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fast", [True, False])
def test_nfs3_encodings_match_golden(fast):
    backend.set_fast(fast)
    for name, codec, value in nfs3_vectors():
        encoded = codec.pack(value)
        assert hashlib.sha256(encoded).hexdigest() == GOLDEN_NFS3[name], name
        assert codec.unpack(encoded) == value, name


def test_nfs3_fast_and_slow_encodings_identical():
    for name, codec, value in nfs3_vectors():
        backend.set_fast(True)
        fast_bytes = codec.pack(value)
        backend.set_fast(False)
        slow_bytes = codec.pack(value)
        assert fast_bytes == slow_bytes, name
        # Cross-decode: each path reads the other's bytes.
        assert codec.unpack(fast_bytes) == value, name
        backend.set_fast(True)
        assert codec.unpack(slow_bytes) == value, name


def test_fast_marshal_path_actually_runs():
    """Guard against the fast path silently never installing."""
    backend.set_fast(True)
    before = xdr.STATS.snapshot()
    for name, codec, value in nfs3_vectors():
        codec.unpack(codec.pack(value))
    delta = {k: xdr.STATS.snapshot()[k] - before[k] for k in before}
    count = len(nfs3_vectors())
    assert delta["fast_packs"] == count
    assert delta["fast_unpacks"] == count


def test_slow_marshal_path_counts_when_disabled():
    backend.set_fast(False)
    before = xdr.STATS.snapshot()
    vector = nfs3_vectors()[0]
    vector[1].unpack(vector[1].pack(vector[2]))
    delta = {k: xdr.STATS.snapshot()[k] - before[k] for k in before}
    assert delta["fast_packs"] == 0 and delta["slow_packs"] == 1
    assert delta["fast_unpacks"] == 0 and delta["slow_unpacks"] == 1


def test_non_canonical_values_fall_back_to_codec():
    """DECLINED is an implementation detail: odd values still marshal."""
    backend.set_fast(True)
    # memoryview file handle: fast path wants real bytes, codec copes.
    value = Record(object=memoryview(_FH))
    encoded = types.GetAttrArgs.pack(value)
    assert encoded == types.GetAttrArgs.pack(Record(object=_FH))


# ---------------------------------------------------------------------------
# XDR strictness: identical on both paths (the bugfix regression tests)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fast", [True, False])
def test_nonzero_string_padding_rejected(fast):
    backend.set_fast(fast)
    value = Record(what=Record(dir=_FH, name="abc"))
    encoded = bytearray(types.LookupArgs.pack(value))
    assert encoded[-1] == 0  # "abc" pads with one zero byte
    encoded[-1] = 0xAA
    with pytest.raises(XdrError):
        types.LookupArgs.unpack(bytes(encoded))


@pytest.mark.parametrize("fast", [True, False])
def test_nonzero_opaque_padding_rejected(fast):
    backend.set_fast(fast)
    ok = (const.NFS3_OK,
          Record(file_attributes=None, count=3, eof=False, data=b"abc"))
    encoded = bytearray(types.ReadRes.pack(ok))
    assert encoded[-1] == 0
    encoded[-1] = 0x01
    with pytest.raises(XdrError):
        types.ReadRes.unpack(bytes(encoded))


@pytest.mark.parametrize("fast", [True, False])
@pytest.mark.parametrize("tail", [b"\x00" * 4, b"junk"])
def test_trailing_garbage_rejected(fast, tail):
    backend.set_fast(fast)
    encoded = types.GetAttrArgs.pack(Record(object=_FH)) + tail
    with pytest.raises(XdrError):
        types.GetAttrArgs.unpack(encoded)


@pytest.mark.parametrize("fast", [True, False])
def test_truncated_record_rejected(fast):
    backend.set_fast(fast)
    encoded = types.ReadArgs.pack(
        Record(file=_FH, offset=0, count=4096)
    )
    with pytest.raises(XdrError):
        types.ReadArgs.unpack(encoded[:-3])


# ---------------------------------------------------------------------------
# RPC envelopes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fast", [True, False])
def test_envelopes_match_golden(fast):
    backend.set_fast(fast)
    for name, header, body in envelope_vectors():
        record = _pack_envelope(header, body)
        assert hashlib.sha256(record).hexdigest() == GOLDEN_ENVELOPES[name], \
            name


@pytest.mark.parametrize("fast", [True, False])
def test_envelopes_parse_back(fast):
    backend.set_fast(fast)
    for name, header, body in envelope_vectors():
        parsed = parse_message(_pack_envelope(header, body))
        assert bytes(parsed.body) == body, name
        if isinstance(header, CallHeader):
            assert parsed.mtype == rpcmsg.CALL and parsed.reply is None
            assert parsed.call == header, name
        else:
            assert parsed.mtype == rpcmsg.REPLY and parsed.call is None
            assert parsed.reply == header, name


@pytest.mark.parametrize("fast", [True, False])
@pytest.mark.parametrize("groups", [0, 2, 16, 20])
def test_authsys_credentials_round_trip(fast, groups):
    backend.set_fast(fast)
    cred = _authsys(groups)
    header = CallHeader(xid=1, prog=2, vers=3, proc=4, cred=cred.to_auth())
    decoded = AuthSys.from_auth(parse_message(pack_call(header, b"")).call.cred)
    assert decoded == AuthSys(cred.stamp, cred.machinename, cred.uid,
                              cred.gid, cred.gids[:16])


@pytest.mark.parametrize("fast", [True, False])
def test_envelope_bad_rpc_version_rejected(fast):
    backend.set_fast(fast)
    raw = bytearray(pack_call(CallHeader(xid=1, prog=2, vers=3, proc=4), b""))
    raw[11] = 3  # rpcvers
    with pytest.raises(RpcMsgError):
        parse_message(bytes(raw))


@pytest.mark.parametrize("fast", [True, False])
def test_envelope_nonzero_auth_padding_rejected(fast):
    backend.set_fast(fast)
    cred = OpaqueAuth(rpcmsg.AUTH_SYS, b"abc")  # one pad byte
    raw = bytearray(pack_call(CallHeader(xid=1, prog=2, vers=3, proc=4,
                                         cred=cred), b""))
    pad_at = 24 + 8 + 3  # fixed words, flavor + length, body
    assert raw[pad_at] == 0
    raw[pad_at] = 0x80
    with pytest.raises(XdrError):
        parse_message(bytes(raw))


@pytest.mark.parametrize("fast", [True, False])
def test_envelope_oversized_auth_body_rejected(fast):
    backend.set_fast(fast)
    too_big = OpaqueAuth(rpcmsg.AUTH_SYS, bytes(401))
    with pytest.raises(XdrError):
        pack_call(CallHeader(xid=1, prog=2, vers=3, proc=4, cred=too_big),
                  b"")
    with pytest.raises(XdrError):
        pack_reply(ReplyHeader(xid=1, verf=too_big))
    words = (1, rpcmsg.CALL, 2, 2, 3, 4, rpcmsg.AUTH_SYS, 401)
    raw = b"".join(w.to_bytes(4, "big") for w in words) + bytes(404)
    with pytest.raises(XdrError):
        parse_message(raw + bytes(8))
    # 400 bytes is the limit, not past it.
    limit = OpaqueAuth(rpcmsg.AUTH_SYS, bytes(400))
    header = CallHeader(xid=1, prog=2, vers=3, proc=4, cred=limit)
    assert parse_message(pack_call(header, b"")).call == header


@pytest.mark.parametrize("fast", [True, False])
def test_truncated_envelopes_rejected(fast):
    backend.set_fast(fast)
    for name, header, body in envelope_vectors():
        record = _pack_envelope(header, b"")
        for cut in range(len(record)):
            with pytest.raises(XdrError):
                parse_message(record[:cut])


@pytest.mark.parametrize("fast", [True, False])
def test_bad_message_and_reply_types_rejected(fast):
    backend.set_fast(fast)
    with pytest.raises(RpcMsgError):
        parse_message((1).to_bytes(4, "big") + (5).to_bytes(4, "big"))
    words = (1, rpcmsg.REPLY, 2)  # reply_stat 2 is neither branch
    with pytest.raises(RpcMsgError):
        parse_message(b"".join(w.to_bytes(4, "big") for w in words))


# ---------------------------------------------------------------------------
# ARC4 kernels
# ---------------------------------------------------------------------------

def _random_draws(rng, total):
    sizes = []
    while total:
        n = min(total, rng.choice([1, 3, 20, 32, 64, 333, 1024, 4096]))
        sizes.append(n)
        total -= n
    return sizes


@pytest.mark.parametrize(
    "crank", [arc4kernel.fast_crank, arc4kernel.pyblock_crank],
    ids=[arc4kernel.FAST_KERNEL, "pyblock"],
)
def test_block_kernels_match_reference(crank):
    rng = random.Random(20260805)
    for _trial in range(10):
        key = bytes(rng.randrange(256)
                    for _ in range(rng.choice([1, 5, 16, 20, 24])))
        spins = max(1, (len(key) * 8 + 127) // 128)
        ref_state = arc4kernel.key_schedule(key, spins)
        fast_state = list(ref_state)
        ri = rj = fi = fj = 0
        for n in _random_draws(rng, 6000):
            expected, ri, rj = arc4kernel.reference_crank(ref_state, ri,
                                                          rj, n)
            got, fi, fj = crank(fast_state, fi, fj, n)
            assert got == expected
            assert (fi, fj) == (ri, rj)
        assert fast_state == ref_state


def test_sfs_spin_rule_selects_two_spins_for_20_byte_keys():
    key = K_CS
    assert ARC4(key).keystream(64) == ARC4(key, spins=2).keystream(64)
    assert ARC4(key).keystream(64) != ARC4(key, spins=1).keystream(64)
    # Classic 128-bit keys keep the single-spin schedule.
    key16 = bytes(range(16))
    assert ARC4(key16).keystream(64) == ARC4(key16, spins=1).keystream(64)


def test_midstream_backend_flip_keeps_stream_continuous():
    key = b"flip-test-session-key"[:20]
    sizes = [5, 37, 1000, 64, 3, 2048, 31, 1, 1500]
    flipping = ARC4(key)
    out = bytearray()
    for index, n in enumerate(sizes):
        backend.set_fast(index % 2 == 0)
        out += flipping.keystream(n)
    backend.set_fast(False)
    assert bytes(out) == ARC4(key).keystream(sum(sizes))


def test_keystream_lookahead_buffer_is_exact():
    """Many small draws equal one big draw (buffered refill is seamless)."""
    backend.set_fast(True)
    key = K_SC
    small = ARC4(key)
    chunks = [small.keystream(n) for n in [1, 31, 32, 33, 900, 100, 1024]]
    backend.set_fast(False)
    assert b"".join(chunks) == ARC4(key).keystream(sum(
        [1, 31, 32, 33, 900, 100, 1024]))


def _regenerate():
    """Print fresh golden constants (reference path)."""
    backend.set_fast(False)
    records, _c, _s = channel_transcript()
    print(f'GOLDEN_CHANNEL = "{_digest(records)}"')
    print("GOLDEN_NFS3 = {")
    for name, codec, value in nfs3_vectors():
        digest = hashlib.sha256(codec.pack(value)).hexdigest()
        print(f'    "{name}":\n        "{digest}",')
    print("}")
    print("GOLDEN_ENVELOPES = {")
    for name, header, body in envelope_vectors():
        digest = hashlib.sha256(_pack_envelope(header, body)).hexdigest()
        print(f'    "{name}":\n        "{digest}",')
    print("}")


if __name__ == "__main__":
    _regenerate()

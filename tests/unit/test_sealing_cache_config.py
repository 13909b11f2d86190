"""Tests for sealing, lease caches, handle translation, and dispatch
config — the small SFS core modules."""

import pytest

from repro.core import proto
from repro.core.cache import ClientCaches, LeaseCache
from repro.core.config import DispatchConfig
from repro.core.handlemap import translate_args, translate_result
from repro.core.sealing import SealError, seal, unseal
from repro.nfs3 import const as nfs_const
from repro.nfs3 import types as nfs_types
from repro.rpc.xdr import Record
from repro.sim.clock import Clock


# --- sealing ----------------------------------------------------------------

def test_seal_roundtrip():
    blob = seal(b"key", b"payload", label=b"test")
    assert unseal(b"key", blob, label=b"test") == b"payload"


def test_seal_hides_plaintext():
    assert b"payload" not in seal(b"key", b"payload")


def test_seal_tamper_detected():
    blob = bytearray(seal(b"key", b"payload"))
    blob[0] ^= 1
    with pytest.raises(SealError):
        unseal(b"key", bytes(blob))


def test_seal_wrong_key_detected():
    blob = seal(b"key", b"payload")
    with pytest.raises(SealError):
        unseal(b"other", blob)


def test_seal_label_separation():
    blob = seal(b"key", b"payload", label=b"a")
    with pytest.raises(SealError):
        unseal(b"key", blob, label=b"b")


def test_seal_short_blob():
    with pytest.raises(SealError):
        unseal(b"key", b"tiny")


# --- lease cache -------------------------------------------------------------

def test_lease_cache_hit_and_expiry():
    clock = Clock()
    cache = LeaseCache(clock, lease_duration=10.0)
    cache.put(b"handle", "value")
    assert cache.get(b"handle") == "value"
    clock.advance(9.0)
    assert cache.get(b"handle") == "value"
    clock.advance(2.0)
    assert cache.get(b"handle") is None
    assert cache.hits == 2
    assert cache.misses == 1


def test_lease_cache_extra_key():
    clock = Clock()
    cache = LeaseCache(clock, 10.0)
    cache.put(b"h", 7, key=("uid", 1))
    assert cache.get(b"h", ("uid", 1)) == 7
    assert cache.get(b"h", ("uid", 2)) is None


def test_lease_cache_invalidation():
    clock = Clock()
    cache = LeaseCache(clock, 10.0)
    cache.put(b"h", 1)
    cache.put(b"h", 2, key="other")
    cache.invalidate(b"h")
    assert cache.get(b"h") is None
    assert cache.get(b"h", "other") is None
    assert cache.invalidations == 1


def test_lease_cache_disabled():
    clock = Clock()
    cache = LeaseCache(clock, 10.0, enabled=False)
    cache.put(b"h", 1)
    assert cache.get(b"h") is None


def test_lease_cache_put_sweeps_expired_entries():
    clock = Clock()
    cache = LeaseCache(clock, 10.0)
    cache.put(b"old", 1)
    cache.put(b"both", 2, key="old")
    clock.advance(6.0)
    cache.put(b"both", 3, key="new")
    clock.advance(5.0)  # t=11: the t=0 entries are expired, not yet swept
    assert cache.size() == 3
    assert cache.get(b"old") is None and cache.misses == 1
    cache.put(b"fresh", 4)  # first put a lease after creation sweeps
    assert cache.size() == 2
    assert cache.get(b"old") is None and cache.misses == 2
    assert cache.get(b"both", "old") is None and cache.misses == 3
    assert cache.get(b"both", "new") == 3
    # A fully expired handle is gone; invalidating it counts nothing.
    cache.invalidate(b"old")
    assert cache.invalidations == 0
    # At most one sweep per lease: the t=6 entry expires at t=16 but
    # stays until the next sweep, due at t=21.
    clock.advance(6.0)
    cache.put(b"fresh", 5)
    assert cache.size() == 2
    clock.advance(4.0)
    cache.put(b"fresh", 6)
    assert cache.size() == 1
    assert cache.get(b"fresh") == 6 and cache.hits == 2


def test_client_caches_aggregate():
    clock = Clock()
    caches = ClientCaches.create(clock, 10.0)
    caches.attrs.put(b"h", "attrs")
    caches.access.put(b"h", 7, key=(1, 7))
    caches.lookups.put(b"dir", (b"h", "attrs"), key="name")
    caches.invalidate(b"h")
    assert caches.attrs.get(b"h") is None
    assert caches.access.get(b"h", (1, 7)) is None
    assert caches.lookups.get(b"dir", "name") is not None  # different handle
    stats = caches.stats()
    assert stats["attr_misses"] == 1


# --- handle translation ---------------------------------------------------------

def _tag(handle: bytes) -> bytes:
    return b"T" + handle


def test_translate_lookup_args():
    args = Record(what=Record(dir=b"D", name="x"))
    translate_args(nfs_const.NFSPROC3_LOOKUP, args, _tag)
    assert args.what.dir == b"TD"


def test_translate_rename_args_two_handles():
    args = Record(from_=Record(dir=b"A", name="x"),
                  to=Record(dir=b"B", name="y"))
    translate_args(nfs_const.NFSPROC3_RENAME, args, _tag)
    assert args.from_.dir == b"TA"
    assert args.to.dir == b"TB"


def test_translate_link_args():
    args = Record(file=b"F", link=Record(dir=b"D", name="n"))
    translate_args(nfs_const.NFSPROC3_LINK, args, _tag)
    assert args.file == b"TF"
    assert args.link.dir == b"TD"


def test_translate_lookup_result():
    body = Record(object=b"O", obj_attributes=None, dir_attributes=None)
    translate_result(nfs_const.NFSPROC3_LOOKUP, nfs_const.NFS3_OK, body, _tag)
    assert body.object == b"TO"


def test_translate_optional_result_handle():
    body = Record(obj=None, obj_attributes=None, dir_wcc=None)
    translate_result(nfs_const.NFSPROC3_CREATE, nfs_const.NFS3_OK, body, _tag)
    assert body.obj is None
    body2 = Record(obj=b"N", obj_attributes=None, dir_wcc=None)
    translate_result(nfs_const.NFSPROC3_CREATE, nfs_const.NFS3_OK, body2, _tag)
    assert body2.obj == b"TN"


def test_translate_readdirplus_entries():
    entries = [
        Record(fileid=1, name="a", cookie=1, name_attributes=None,
               name_handle=b"H1"),
        Record(fileid=2, name="b", cookie=2, name_attributes=None,
               name_handle=None),
    ]
    body = Record(dir_attributes=None, cookieverf=b"\x00" * 8,
                  entries=entries, eof=True)
    translate_result(nfs_const.NFSPROC3_READDIRPLUS, nfs_const.NFS3_OK,
                     body, _tag)
    assert entries[0].name_handle == b"TH1"
    assert entries[1].name_handle is None


def test_translate_failure_result_untouched():
    body = Record(dir_attributes=None)
    out = translate_result(nfs_const.NFSPROC3_LOOKUP,
                           nfs_const.NFS3ERR_NOENT, body, _tag)
    assert out is body  # unchanged


# --- dispatch config ---------------------------------------------------------------

def test_dispatch_default_export_rule():
    config = DispatchConfig()
    config.add_export("main", b"H" * 20, proto.DIALECT_RW)
    assert config.dispatch(proto.SERVICE_FILESERVER, b"H" * 20, []) == "main"
    assert config.dispatch(proto.SERVICE_FILESERVER, b"X" * 20, []) is None


def test_dispatch_first_match_wins():
    config = DispatchConfig()
    config.add_export("main", b"H" * 20, proto.DIALECT_RW)
    config.prepend_rule("experimental", "exp",
                        lambda s, h, e: "v2" in e)
    assert config.dispatch(1, b"H" * 20, ["v2"]) == "exp"
    assert config.dispatch(1, b"H" * 20, []) == "main"


def test_dispatch_rules_listing():
    config = DispatchConfig()
    config.add_export("main", b"H" * 20, proto.DIALECT_RW)
    listing = config.rules()
    assert any("main" in line for line in listing)

"""The compiled XDR lane against its oracle, the reference codec.

Every module-level :class:`~repro.rpc.xdr.Codec` in the ``repro``
package is checked with Hypothesis-generated canonical values:

* the compiled lane serves the value (no silent fallback) and its bytes
  equal the reference encoder's;
* both decoders return the value from those bytes;
* mutated encodings — a nonzero pad byte, 1-3 bytes cut off, 4 trailing
  bytes, an out-of-range enum, bool or union discriminant — raise
  :class:`~repro.rpc.xdr.XdrError` with the lane on and with it off.
"""

import importlib
import pkgutil

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro
from repro.crypto import backend
from repro.rpc import xdr
from repro.rpc.xdr import Record, XdrError

_RANGES = {"I": (0, 2**32 - 1), "i": (-2**31, 2**31 - 1),
           "Q": (0, 2**64 - 1), "q": (-2**63, 2**63 - 1)}
_NUMERIC = type(xdr.UInt32)


def _module_codecs():
    """(qualified name, codec) for each module-level codec, deduplicated."""
    found, seen = [], set()
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        module = importlib.import_module(info.name)
        for attr, value in sorted(vars(module).items()):
            if isinstance(value, xdr.Codec) and id(value) not in seen:
                seen.add(id(value))
                found.append((f"{info.name}.{attr}", value))
    return found


_POINT = xdr.Struct("point", [("x", xdr.Int32), ("y", xdr.Hyper)])

#: Combinator shapes no protocol uses yet, so the walk cannot reach them.
SHAPES = [
    ("shape.fixed_array_after_fields", xdr.Struct("s1", [
        ("a", xdr.UInt32), ("b", xdr.FixedArray(xdr.UInt32, 3)),
        ("c", xdr.UHyper)])),
    ("shape.fixed_array_of_structs", xdr.FixedArray(_POINT, 2)),
    ("shape.arrays", xdr.Struct("s2", [
        ("hypers", xdr.Array(xdr.Hyper, 5)), ("flags", xdr.Array(xdr.Bool)),
        ("points", xdr.Array(_POINT))])),
    ("shape.padded_fixed_opaque", xdr.Struct("s3", [
        ("a", xdr.FixedOpaque(5)), ("b", xdr.Int32),
        ("c", xdr.FixedOpaque(2))])),
    ("shape.union_without_default", xdr.Union("u1", {
        1: None, 2: _POINT, 7: xdr.Optional(xdr.String(9))})),
    ("shape.signed_enum", xdr.Struct("s4", [
        ("e", xdr.Enum(-2, 0, 5)), ("v", xdr.VOID),
        ("maybe", xdr.Optional(xdr.Optional(xdr.UInt32)))])),
    ("shape.keyword_field", xdr.Struct("s5", [
        ("from", xdr.UInt32), ("class", xdr.String())])),
]

CODECS = _module_codecs() + SHAPES


def values(codec):
    """A strategy for canonical values of *codec*."""
    if codec is xdr.Bool:
        return st.booleans()
    if isinstance(codec, _NUMERIC):
        low, high = _RANGES[codec.fmt]
        return st.integers(low, high)
    if isinstance(codec, xdr.Void):
        return st.none()
    if isinstance(codec, xdr.Enum):
        return st.sampled_from(sorted(codec._values))
    if isinstance(codec, xdr.FixedOpaque):
        return st.binary(min_size=codec.length, max_size=codec.length)
    if isinstance(codec, xdr.Opaque):
        return st.binary(max_size=min(codec.maximum, 70))
    if isinstance(codec, xdr.String):
        return st.text(max_size=min(codec.maximum, 12)).filter(
            lambda text: len(text.encode()) <= codec.maximum)
    if isinstance(codec, xdr.Array):
        return st.lists(values(codec.element),
                        max_size=min(codec.maximum, 4))
    if isinstance(codec, xdr.FixedArray):
        return st.lists(values(codec.element), min_size=codec.length,
                        max_size=codec.length)
    if isinstance(codec, xdr.LinkedList):
        return st.lists(values(codec.element), max_size=3)
    if isinstance(codec, xdr.Optional):
        return st.none() | values(codec.element)
    if isinstance(codec, xdr.Struct):
        return st.fixed_dictionaries(
            {name: values(field) for name, field in codec.fields}
        ).map(lambda fields: Record(**fields))
    if isinstance(codec, xdr.Union):
        arms = [st.tuples(st.just(disc),
                          st.none() if arm is None else values(arm))
                for disc, arm in codec.arms.items()]
        if codec.default is not xdr.Union._NO_DEFAULT:
            other = st.integers(0, 2**32 - 1).filter(
                lambda disc: disc not in codec.arms)
            body = (st.none() if codec.default is None
                    else values(codec.default))
            arms.append(st.tuples(other, body))
        return st.one_of(arms)
    raise TypeError(f"no strategy for {codec!r}")


def layout(codec, value, off, marks):
    """Walk *value*'s encoding; return its end offset and append
    ``(kind, offset, replacement)`` for each byte or word a mutation
    may break."""
    if codec is xdr.Bool:
        marks.append(("word", off, 2))
        return off + 4
    if isinstance(codec, _NUMERIC):
        return off + (4 if codec.fmt in "Ii" else 8)
    if isinstance(codec, xdr.Void):
        return off
    if isinstance(codec, xdr.Enum):
        marks.append(("int", off, max(codec._values) + 1))
        return off + 4
    if isinstance(codec, (xdr.FixedOpaque, xdr.Opaque, xdr.String)):
        if isinstance(codec, xdr.FixedOpaque):
            length = codec.length
        else:
            length = len(value.encode() if isinstance(value, str) else value)
            off += 4
        end = off + length
        stop = end + (-length % 4)
        marks.extend(("pad", k, 0x5A) for k in range(end, stop))
        return stop
    if isinstance(codec, (xdr.Array, xdr.FixedArray)):
        off += 4 if isinstance(codec, xdr.Array) else 0
        for item in value:
            off = layout(codec.element, item, off, marks)
        return off
    if isinstance(codec, xdr.LinkedList):
        for item in value:
            marks.append(("word", off, 2))
            off = layout(codec.element, item, off + 4, marks)
        marks.append(("word", off, 2))
        return off + 4
    if isinstance(codec, xdr.Optional):
        marks.append(("word", off, 2))
        if value is None:
            return off + 4
        return layout(codec.element, value, off + 4, marks)
    if isinstance(codec, xdr.Struct):
        for name, field in codec.fields:
            off = layout(field, getattr(value, name), off, marks)
        return off
    if isinstance(codec, xdr.Union):
        disc, body = value
        if codec.default is xdr.Union._NO_DEFAULT:
            marks.append(("word", off, max(codec.arms) + 1))
        arm = codec._arm(disc)
        return off + 4 if arm is None else layout(arm, body, off + 4, marks)
    raise TypeError(f"no layout for {codec!r}")


def mutations(codec, value, encoded):
    """Encodings the reference decoder must reject."""
    marks = []
    assert layout(codec, value, 0, marks) == len(encoded)
    out = []
    for kind, off, replacement in marks:
        raw = bytearray(encoded)
        if kind == "pad":
            raw[off] = replacement
        else:
            raw[off:off + 4] = replacement.to_bytes(4, "big",
                                                    signed=kind == "int")
        out.append(bytes(raw))
    if encoded:
        out.extend(encoded[:-cut] for cut in (1, 2, 3))
    out.append(encoded + b"\x00\x00\x00\x00")
    return out


@pytest.fixture(autouse=True)
def _fast_flags_restored():
    yield
    backend.set_fast(True)


def test_the_walk_finds_the_protocol_codecs():
    names = {name for name, _codec in CODECS}
    assert "repro.nfs3.types.GetAttrRes" in names
    assert "repro.nfs3.types.ReaddirPlusRes" in names
    assert "repro.core.proto.AuthEnvelope" in names
    assert "repro.rpc.rpcmsg.AuthSysParms" in names
    assert len(CODECS) > 100


def test_every_codec_compiles():
    for name, codec in CODECS:
        lane = xdr._compile(codec)
        assert lane[0] is not xdr._decline, name


_SETTINGS = settings(max_examples=12, deadline=None, database=None,
                     suppress_health_check=list(HealthCheck))


@pytest.mark.parametrize("codec", [c for _n, c in CODECS],
                         ids=[n for n, _c in CODECS])
@_SETTINGS
@given(data=st.data())
def test_compiled_lane_matches_reference(codec, data):
    value = data.draw(values(codec))
    backend.set_fast(False)
    reference = codec.pack(value)
    assert codec.unpack(reference) == value
    backend.set_fast(True)
    before = xdr.STATS.snapshot()
    assert codec.pack(value) == reference
    assert codec.unpack(reference) == value
    after = xdr.STATS.snapshot()
    assert after["fast_packs"] - before["fast_packs"] == 1
    assert after["fast_unpacks"] - before["fast_unpacks"] == 1
    assert after["slow_packs"] == before["slow_packs"]
    assert after["slow_unpacks"] == before["slow_unpacks"]


@pytest.mark.parametrize("codec", [c for _n, c in CODECS],
                         ids=[n for n, _c in CODECS])
@_SETTINGS
@given(data=st.data())
def test_mutated_encodings_rejected_on_both_lanes(codec, data):
    value = data.draw(values(codec))
    encoded = codec.pack(value)
    for bad in mutations(codec, value, encoded):
        for fast in (True, False):
            backend.set_fast(fast)
            with pytest.raises(XdrError):
                codec.unpack(bad)


def test_mutations_cover_every_kind():
    """The mutation walk reaches pads, enums, bools and discriminants."""
    from repro.nfs3 import const, types

    value = Record(file=b"abc", offset=1, count=2, stable=const.FILE_SYNC,
                   data=b"hello")
    marks = []
    layout(types.WriteArgs, value, 0, marks)
    kinds = {kind for kind, _off, _rep in marks}
    assert kinds == {"pad", "int"}
    marks = []
    layout(types.CreateHow, (const.EXCLUSIVE, b"12345678"), 0, marks)
    assert [kind for kind, _off, _rep in marks] == ["word"]
    marks = []
    layout(types.PostOpAttr, None, 0, marks)
    assert marks == [("word", 0, 2)]


def test_non_canonical_values_fall_back_and_errors_come_from_reference():
    codec = xdr.Struct("s", [("a", xdr.UInt32), ("b", xdr.Opaque(4))])
    backend.set_fast(True)
    # A mapping is not the lane's shape; the reference encodes it.
    assert codec.pack({"a": 1, "b": b"xy"}) == codec.pack(
        Record(a=1, b=b"xy"))
    # Out-of-range and oversized values: the reference reports them.
    with pytest.raises(XdrError, match="uint32 out of range"):
        codec.pack(Record(a=-1, b=b""))
    with pytest.raises(XdrError, match="opaque exceeds maximum 4"):
        codec.pack(Record(a=1, b=b"12345"))
    with pytest.raises(XdrError, match="missing field"):
        codec.pack(Record(a=1))


def test_mapping_with_a_dict_method_name_is_not_read_by_attribute():
    codec = xdr.Struct("s", [("items", xdr.Array(xdr.UInt32))])
    backend.set_fast(True)
    assert codec.pack({"items": [7]}) == codec.pack(Record(items=[7]))


def test_memoryview_input_decodes():
    from repro.nfs3 import types

    value = Record(object=bytes(range(32)))
    encoded = types.GetAttrArgs.pack(value)
    assert types.GetAttrArgs.unpack(memoryview(encoded)) == value
    assert types.GetAttrArgs.unpack(bytearray(encoded)) == value


def test_foreign_codec_subclass_uses_the_reference():
    class Doubled(xdr.Codec):
        def encode(self, packer, value):
            packer.pack_uint32(value * 2)

        def decode(self, unpacker):
            return unpacker.unpack_uint32() // 2

    codec = xdr.Struct("s", [("n", Doubled())])
    before = xdr.STATS.snapshot()
    assert codec.unpack(codec.pack(Record(n=21))) == Record(n=21)
    after = xdr.STATS.snapshot()
    assert after["slow_packs"] - before["slow_packs"] == 1
    assert after["slow_unpacks"] - before["slow_unpacks"] == 1

"""XDR — External Data Representation (RFC 1832), from scratch.

All SFS programs "communicate with Sun RPC ... the exact bytes exchanged
between programs are clearly and unambiguously described in the XDR
protocol description language.  We also use XDR to define SFS's
cryptographic protocols.  Any data that SFS hashes, signs, or public-key
encrypts is defined as an XDR data structure; SFS computes the hash or
public key function on the raw, marshaled bytes." (paper section 3.2)

This module provides the byte-level :class:`Packer`/:class:`Unpacker`
pair plus a declarative codec-combinator layer (:class:`Struct`,
:class:`Union`, :class:`Array`, ...) used to describe every protocol in
the repository.  Structs decode to :class:`Record` objects that offer
attribute access, equality, and a readable repr — which also powers the
RPC library's traffic pretty-printer.

Marshaling is on the wire path of every RPC hop, so the byte layer is
built to avoid per-item allocation: a :class:`Packer` writes into a
pooled ``bytearray`` with ``struct.pack_into`` (the pool is recycled by
:meth:`Packer.detach`, the terminal snapshot-and-release used by the
one-shot helpers), and an :class:`Unpacker` reads numerics in place with
``struct.unpack_from`` — no intermediate 4/8-byte slices.  An Unpacker
also accepts ``memoryview`` input so record parsing never copies the
payload region just to decode it.

That Packer/Unpacker dispatch is the *reference* marshal.  Each codec
instance is also compiled, on first use, into a flat pack/unpack pair
generated from its combinator tree (the *compiled lane*, see
:func:`_compile`): no per-field dispatch, and every run of fixed-size
items one precompiled ``struct.Struct``.  :meth:`Codec.pack` and
:meth:`Codec.unpack` use it while
:data:`repro.crypto.backend.use_fast_marshal` is on.  The lane declines
anything outside the canonical shape and the reference codec then
decides; both produce identical bytes — the golden wire-vector suite
and ``tests/unit/test_xdr_compiled.py`` assert this — and both enforce
XDR's zero-fill rule for padding.
"""

from __future__ import annotations

import struct
from contextlib import contextmanager
from functools import lru_cache
from keyword import iskeyword
from types import SimpleNamespace
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from ..crypto import backend

UNLIMITED = 0xFFFFFFFF

_U32 = struct.Struct(">I")
_I32 = struct.Struct(">i")
_U64 = struct.Struct(">Q")
_I64 = struct.Struct(">q")

_PAD = (b"", b"\x00", b"\x00\x00", b"\x00\x00\x00")


class XdrError(Exception):
    """Raised on malformed XDR data or out-of-range values."""


def _padding(length: int) -> int:
    return (4 - length % 4) % 4


class MarshalStats:
    """Process-wide marshaling counters, surfaced by the bench layer:
    marshals served by the compiled lane (fast) and by the reference
    codec (slow), and Packer buffers recycled vs freshly allocated."""

    __slots__ = ("fast_packs", "fast_unpacks", "slow_packs",
                 "slow_unpacks", "pool_hits", "pool_misses")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

    def snapshot(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


STATS = MarshalStats()

# Recycled Packer buffers.  Small stack: steady-state RPC traffic keeps
# a handful in flight (call pack + reply pack per hop).  Buffers above
# _MAX_POOLED (a full WRITE record is ~8.2 KB; 128 KB is far past any
# legal record) are dropped rather than hoarded.
_POOL: list[bytearray] = []
_POOL_MAX = 8
_MAX_POOLED = 1 << 17


class Packer:
    """Serializes primitive XDR items into a pooled, growing buffer."""

    __slots__ = ("_buf", "_len")

    def __init__(self) -> None:
        if _POOL:
            self._buf = _POOL.pop()
            STATS.pool_hits += 1
        else:
            self._buf = bytearray(256)
            STATS.pool_misses += 1
        self._len = 0

    def data(self) -> bytes:
        """Snapshot the packed bytes (non-destructive)."""
        return bytes(memoryview(self._buf)[: self._len])

    def detach(self) -> bytes:
        """Snapshot the packed bytes and recycle the buffer.

        Terminal: the Packer must not be used afterwards.  All one-shot
        pack helpers end with this so steady-state marshaling reuses the
        same few buffers instead of growing a fresh one per message.
        """
        buf = self._buf
        out = bytes(memoryview(buf)[: self._len])
        self._buf = None  # type: ignore[assignment] - poison further use
        if len(_POOL) < _POOL_MAX and len(buf) <= _MAX_POOLED:
            _POOL.append(buf)
        return out

    def _write(self, raw: bytes) -> None:
        off = self._len
        end = off + len(raw)
        # Slice assignment both overwrites reserved space and extends
        # past the end, so one statement covers the grow-or-fit cases.
        self._buf[off:end] = raw
        self._len = end

    def pack_uint32(self, value: int) -> None:
        if not 0 <= value <= 0xFFFFFFFF:
            raise XdrError(f"uint32 out of range: {value}")
        off = self._len
        buf = self._buf
        if off + 4 > len(buf):
            buf.extend(bytes(len(buf) or 64))
        _U32.pack_into(buf, off, value)
        self._len = off + 4

    def pack_int32(self, value: int) -> None:
        if not -0x80000000 <= value <= 0x7FFFFFFF:
            raise XdrError(f"int32 out of range: {value}")
        off = self._len
        buf = self._buf
        if off + 4 > len(buf):
            buf.extend(bytes(len(buf) or 64))
        _I32.pack_into(buf, off, value)
        self._len = off + 4

    def pack_uhyper(self, value: int) -> None:
        if not 0 <= value <= 0xFFFFFFFFFFFFFFFF:
            raise XdrError(f"uhyper out of range: {value}")
        off = self._len
        buf = self._buf
        if off + 8 > len(buf):
            buf.extend(bytes(len(buf) or 64))
        _U64.pack_into(buf, off, value)
        self._len = off + 8

    def pack_hyper(self, value: int) -> None:
        if not -(1 << 63) <= value < (1 << 63):
            raise XdrError(f"hyper out of range: {value}")
        off = self._len
        buf = self._buf
        if off + 8 > len(buf):
            buf.extend(bytes(len(buf) or 64))
        _I64.pack_into(buf, off, value)
        self._len = off + 8

    def pack_bool(self, value: bool) -> None:
        self.pack_uint32(1 if value else 0)

    def pack_fixed_opaque(self, value: bytes, length: int) -> None:
        if len(value) != length:
            raise XdrError(f"fixed opaque must be {length} bytes, got {len(value)}")
        self._write(value)
        pad = _padding(length)
        if pad:
            self._write(_PAD[pad])

    def pack_opaque(self, value: bytes, maximum: int = UNLIMITED) -> None:
        if len(value) > maximum:
            raise XdrError(f"opaque exceeds maximum {maximum}")
        self.pack_uint32(len(value))
        self._write(value)
        pad = _padding(len(value))
        if pad:
            self._write(_PAD[pad])

    def pack_string(self, value: str, maximum: int = UNLIMITED) -> None:
        self.pack_opaque(value.encode(), maximum)


class Unpacker:
    """Deserializes primitive XDR items from a byte buffer.

    Accepts ``bytes``, ``bytearray``, or ``memoryview`` input; numerics
    are read in place with ``unpack_from`` and only opaque payloads are
    materialized as fresh ``bytes`` (callers hash them and use them as
    dict keys, so they must be real immutable bytes).
    """

    __slots__ = ("_data", "_offset", "_len")

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._offset = 0
        self._len = len(data)

    def done(self) -> None:
        """Assert the whole buffer was consumed."""
        if self._offset != self._len:
            raise XdrError(
                f"{self._len - self._offset} unconsumed bytes after decode"
            )

    def unpack_uint32(self) -> int:
        off = self._offset
        if off + 4 > self._len:
            raise XdrError("truncated XDR data")
        self._offset = off + 4
        return _U32.unpack_from(self._data, off)[0]

    def unpack_int32(self) -> int:
        off = self._offset
        if off + 4 > self._len:
            raise XdrError("truncated XDR data")
        self._offset = off + 4
        return _I32.unpack_from(self._data, off)[0]

    def unpack_uhyper(self) -> int:
        off = self._offset
        if off + 8 > self._len:
            raise XdrError("truncated XDR data")
        self._offset = off + 8
        return _U64.unpack_from(self._data, off)[0]

    def unpack_hyper(self) -> int:
        off = self._offset
        if off + 8 > self._len:
            raise XdrError("truncated XDR data")
        self._offset = off + 8
        return _I64.unpack_from(self._data, off)[0]

    def unpack_bool(self) -> bool:
        value = self.unpack_uint32()
        if value not in (0, 1):
            raise XdrError(f"bool must be 0 or 1, got {value}")
        return bool(value)

    def unpack_fixed_opaque(self, length: int) -> bytes:
        off = self._offset
        end = off + length
        pad = _padding(length)
        if end + pad > self._len:
            raise XdrError("truncated XDR data")
        data = self._data
        for k in range(end, end + pad):
            if data[k]:
                raise XdrError("nonzero XDR padding")
        self._offset = end + pad
        chunk = data[off:end]
        return chunk if chunk.__class__ is bytes else bytes(chunk)

    def unpack_opaque(self, maximum: int = UNLIMITED) -> bytes:
        length = self.unpack_uint32()
        if length > maximum:
            raise XdrError(f"opaque length {length} exceeds maximum {maximum}")
        return self.unpack_fixed_opaque(length)

    def unpack_string(self, maximum: int = UNLIMITED) -> str:
        raw = self.unpack_opaque(maximum)
        try:
            return raw.decode()
        except UnicodeDecodeError as exc:
            raise XdrError(f"string is not valid UTF-8: {exc}") from None


class Record(SimpleNamespace):
    """A decoded XDR struct: attribute access, equality, readable repr.

    ``Record(**fields)`` is SimpleNamespace's C constructor, so compiled
    lanes build each decoded struct with one call.
    """

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Record):
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self.__dict__.items())
        return f"Record({inner})"

    def _asdict(self) -> dict[str, Any]:
        return dict(self.__dict__)


class Codec:
    """Base class for declarative XDR codecs.

    ``encode``/``decode`` are the reference marshal: field-by-field
    dispatch through a :class:`Packer`/:class:`Unpacker`, the authority
    for every value and the only reporter of errors.  The one-shot
    :meth:`pack`/:meth:`unpack` first try the codec's *compiled lane*
    (see :func:`_compile`), built on first use, whenever
    :data:`repro.crypto.backend.use_fast_marshal` is on; when the lane
    declines a value or buffer, the reference path runs instead.

    Subclasses emit their part of the compiled lane through
    ``_emit_pack``/``_emit_unpack``.  A codec must not be changed once it
    has been used, since its lane is compiled from its tree once.
    """

    def __new__(cls, *args: Any, **kwargs: Any) -> "Codec":
        # The lane slots exist from the start, so every codec of a class
        # keeps the same attribute layout (a split instance dict).
        self = super().__new__(cls)
        self._cpack: Callable[[Any], Any] | None = None
        self._cunpack: Callable[[Any], Any] | None = None
        return self

    def encode(self, packer: Packer, value: Any) -> None:
        raise NotImplementedError

    def decode(self, unpacker: Unpacker) -> Any:
        raise NotImplementedError

    def pack(self, value: Any) -> bytes:
        """One-shot encode to bytes."""
        if backend.use_fast_marshal:
            lane = self._cpack
            out = (lane or _compile(self)[0])(value)
            if out is not DECLINED:
                STATS.fast_packs += 1
                return out
        STATS.slow_packs += 1
        packer = Packer()
        self.encode(packer, value)
        return packer.detach()

    def unpack(self, data: bytes) -> Any:
        """One-shot decode from bytes (requires full consumption)."""
        if backend.use_fast_marshal:
            lane = self._cunpack
            out = (lane or _compile(self)[1])(data)
            if out is not DECLINED:
                STATS.fast_unpacks += 1
                return out
        STATS.slow_unpacks += 1
        unpacker = Unpacker(data)
        value = self.decode(unpacker)
        unpacker.done()
        return value

    def _emit_pack(self, gen: "_PackGen", expr: str) -> None:
        raise _Uncompilable(type(self).__name__)

    def _emit_unpack(self, gen: "_UnpackGen") -> str:
        raise _Uncompilable(type(self).__name__)


class _Numeric(Codec):
    """A fixed-size integer; *fmt* is its ``struct`` format character,
    ``?`` for a bool (a uint32 that must be 0 or 1)."""

    def __init__(self, fmt: str, packname: str, unpackname: str) -> None:
        self.fmt = fmt
        self._packname = packname
        self._unpackname = unpackname

    def encode(self, packer: Packer, value: Any) -> None:
        getattr(packer, self._packname)(value)

    def decode(self, unpacker: Unpacker) -> Any:
        return getattr(unpacker, self._unpackname)()

    def _emit_pack(self, gen: "_PackGen", expr: str) -> None:
        if self.fmt == "?":
            gen.fixed("I", f"(1 if {expr} else 0)")
        else:
            gen.fixed(self.fmt, expr)

    def _emit_unpack(self, gen: "_UnpackGen") -> str:
        if self.fmt != "?":
            return gen.fixed(self.fmt)
        word = gen.fixed("I")
        gen.check_later(f"{word} > 1")
        return f"({word} == 1)"


UInt32 = _Numeric("I", "pack_uint32", "unpack_uint32")
Int32 = _Numeric("i", "pack_int32", "unpack_int32")
UHyper = _Numeric("Q", "pack_uhyper", "unpack_uhyper")
Hyper = _Numeric("q", "pack_hyper", "unpack_hyper")
Bool = _Numeric("?", "pack_bool", "unpack_bool")


class Void(Codec):
    """The XDR void type (no bytes on the wire)."""

    def encode(self, packer: Packer, value: Any) -> None:
        if value is not None:
            raise XdrError("void takes no value")

    def decode(self, unpacker: Unpacker) -> None:
        return None

    def _emit_pack(self, gen: "_PackGen", expr: str) -> None:
        gen.check(f"{expr} is not None")

    def _emit_unpack(self, gen: "_UnpackGen") -> str:
        return "None"


VOID = Void()


class Enum(Codec):
    """An int32 constrained to a set of allowed values."""

    def __init__(self, *values: int) -> None:
        self._values = frozenset(values)

    def encode(self, packer: Packer, value: int) -> None:
        if value not in self._values:
            raise XdrError(f"enum value {value} not allowed")
        packer.pack_int32(value)

    def decode(self, unpacker: Unpacker) -> int:
        value = unpacker.unpack_int32()
        if value not in self._values:
            raise XdrError(f"enum value {value} not allowed")
        return value

    def _emit_pack(self, gen: "_PackGen", expr: str) -> None:
        value = gen.bind(expr)
        gen.check(f"{value} not in {gen.const(self._values)}")
        gen.fixed("i", value)

    def _emit_unpack(self, gen: "_UnpackGen") -> str:
        value = gen.fixed("i")
        gen.check_later(f"{value} not in {gen.const(self._values)}")
        return value


class FixedOpaque(Codec):
    def __init__(self, length: int) -> None:
        self.length = length

    def encode(self, packer: Packer, value: bytes) -> None:
        packer.pack_fixed_opaque(value, self.length)

    def decode(self, unpacker: Unpacker) -> bytes:
        return unpacker.unpack_fixed_opaque(self.length)

    def _emit_pack(self, gen: "_PackGen", expr: str) -> None:
        value = gen.bind(expr)
        gen.check(f"{value}.__class__ not in _BYTES "
                  f"or len({value}) != {self.length}")
        gen.fixed(f"{self.length}s", value)
        if _padding(self.length):
            gen.fixed(f"{_padding(self.length)}x", None)

    def _emit_unpack(self, gen: "_UnpackGen") -> str:
        value = gen.fixed(f"{self.length}s")
        pad = _padding(self.length)
        if pad:
            gen.check_later(f"{gen.fixed(f'{pad}s')} != _PAD[{pad}]")
        return value


class Opaque(Codec):
    def __init__(self, maximum: int = UNLIMITED) -> None:
        self.maximum = maximum

    def encode(self, packer: Packer, value: bytes) -> None:
        packer.pack_opaque(value, self.maximum)

    def decode(self, unpacker: Unpacker) -> bytes:
        return unpacker.unpack_opaque(self.maximum)

    def _emit_pack(self, gen: "_PackGen", expr: str) -> None:
        value = gen.bind(expr)
        gen.check(f"{value}.__class__ not in _BYTES")
        gen.counted(value, self.maximum)

    def _emit_unpack(self, gen: "_UnpackGen") -> str:
        return gen.counted(self.maximum)


class String(Codec):
    def __init__(self, maximum: int = UNLIMITED) -> None:
        self.maximum = maximum

    def encode(self, packer: Packer, value: str) -> None:
        packer.pack_string(value, self.maximum)

    def decode(self, unpacker: Unpacker) -> str:
        return unpacker.unpack_string(self.maximum)

    def _emit_pack(self, gen: "_PackGen", expr: str) -> None:
        gen.counted(gen.bind(f"{expr}.encode()", force=True), self.maximum)

    def _emit_unpack(self, gen: "_UnpackGen") -> str:
        return f"{gen.counted(self.maximum)}.decode()"


class Array(Codec):
    """Variable-length XDR array."""

    def __init__(self, element: Codec, maximum: int = UNLIMITED) -> None:
        self.element = element
        self.maximum = maximum

    def encode(self, packer: Packer, value: Sequence[Any]) -> None:
        if len(value) > self.maximum:
            raise XdrError(f"array exceeds maximum {self.maximum}")
        packer.pack_uint32(len(value))
        for item in value:
            self.element.encode(packer, item)

    def decode(self, unpacker: Unpacker) -> list[Any]:
        length = unpacker.unpack_uint32()
        if length > self.maximum:
            raise XdrError(f"array length {length} exceeds maximum {self.maximum}")
        return [self.element.decode(unpacker) for _ in range(length)]

    def _emit_pack(self, gen: "_PackGen", expr: str) -> None:
        items = gen.bind(expr)
        count = gen.bind(f"len({items})", force=True)
        if self.maximum < UNLIMITED:
            gen.check(f"{count} > {self.maximum}")
        gen.fixed("I", count)
        gen.repeat(self.element, items, count)

    def _emit_unpack(self, gen: "_UnpackGen") -> str:
        count = gen.fixed("I")
        gen.flush()
        if self.maximum < UNLIMITED:
            gen.check(f"{count} > {self.maximum}")
        return gen.repeat(self.element, count)


class FixedArray(Codec):
    def __init__(self, element: Codec, length: int) -> None:
        self.element = element
        self.length = length

    def encode(self, packer: Packer, value: Sequence[Any]) -> None:
        if len(value) != self.length:
            raise XdrError(f"fixed array must have {self.length} elements")
        for item in value:
            self.element.encode(packer, item)

    def decode(self, unpacker: Unpacker) -> list[Any]:
        return [self.element.decode(unpacker) for _ in range(self.length)]

    def _emit_pack(self, gen: "_PackGen", expr: str) -> None:
        items = gen.bind(expr)
        gen.check(f"len({items}) != {self.length}")
        gen.repeat(self.element, items, str(self.length))

    def _emit_unpack(self, gen: "_UnpackGen") -> str:
        return gen.repeat(self.element, str(self.length))


class LinkedList(Codec):
    """XDR optional-chained list (``*entry`` where entry ends with next),
    as a Python list: each item follows a TRUE, and a FALSE ends it."""

    def __init__(self, element: Codec) -> None:
        self.element = element

    def encode(self, packer: Packer, value: Sequence[Any]) -> None:
        for item in value:
            packer.pack_bool(True)
            self.element.encode(packer, item)
        packer.pack_bool(False)

    def decode(self, unpacker: Unpacker) -> list[Any]:
        out = []
        while unpacker.unpack_bool():
            out.append(self.element.decode(unpacker))
        return out

    def _emit_pack(self, gen: "_PackGen", expr: str) -> None:
        gen.loop(self.element, f"for {{}} in {gen.bind(expr)}:", tag="1")
        gen.fixed("I", "0")

    def _emit_unpack(self, gen: "_UnpackGen") -> str:
        items = gen.name("a")
        gen.settle()
        gen.line(f"{items} = []")
        with gen.block("while True:"):
            more = gen.fixed("I")
            gen.flush()
            with gen.block(f"if {more} != 1:"):
                gen.check(more)
                gen.line(f"o += {gen.off}")
                gen.line("break")
            gen.flush(f"{items}.append({self.element._emit_unpack(gen)})")
            gen.settle()
        return items


class Optional(Codec):
    """XDR optional data (``*`` in the language): bool + value-if-present."""

    def __init__(self, element: Codec) -> None:
        self.element = element

    def encode(self, packer: Packer, value: Any) -> None:
        if value is None:
            packer.pack_bool(False)
        else:
            packer.pack_bool(True)
            self.element.encode(packer, value)

    def decode(self, unpacker: Unpacker) -> Any:
        if unpacker.unpack_bool():
            return self.element.decode(unpacker)
        return None

    def _emit_pack(self, gen: "_PackGen", expr: str) -> None:
        value = gen.bind(expr)
        gen.branches(self, value, [(f"{value} is None", _NOTHING, "0"),
                                   (None, self.element, "1")])

    def _emit_unpack(self, gen: "_UnpackGen") -> str:
        flag = gen.fixed("I")
        return gen.branches(self, [(f"{flag} == 1", self.element),
                                   (flag, _FAIL), (None, None)])


class Struct(Codec):
    """Named XDR struct; decodes to :class:`Record`.

    Accepts either a mapping or any object with matching attributes when
    encoding, so callers can pass dicts, Records, or dataclasses.
    """

    def __init__(self, name: str, fields: Iterable[tuple[str, Codec]]) -> None:
        self.name = name
        self.fields = list(fields)
        self._names = frozenset(name for name, _ in self.fields)

    def encode(self, packer: Packer, value: Any) -> None:
        for field_name, codec in self.fields:
            if isinstance(value, Mapping):
                try:
                    item = value[field_name]
                except KeyError:
                    raise XdrError(
                        f"{self.name}: missing field {field_name!r}"
                    ) from None
            else:
                try:
                    item = getattr(value, field_name)
                except AttributeError:
                    raise XdrError(
                        f"{self.name}: missing field {field_name!r}"
                    ) from None
            codec.encode(packer, item)

    def decode(self, unpacker: Unpacker) -> Record:
        return Record(
            **{name: codec.decode(unpacker) for name, codec in self.fields}
        )

    def make(self, **fields: Any) -> Record:
        """Build a Record for this struct, checking the field names."""
        if fields.keys() != self._names:
            missing = self._names - set(fields)
            extra = set(fields) - self._names
            raise XdrError(
                f"{self.name}: bad fields (missing={sorted(missing)}, "
                f"extra={sorted(extra)})"
            )
        return Record(**fields)

    def _emit_pack(self, gen: "_PackGen", expr: str) -> None:
        if len(self.fields) > 2:
            expr = gen.bind(expr)
        # A mapping is encoded by key; the lane reads attributes, so it
        # must not mistake a dict method for a field of the same name.
        if any(hasattr(dict, name) for name in self._names):
            gen.check(f"isinstance({expr}, _Mapping)")
        for name, codec in self.fields:
            if _plain(name):
                codec._emit_pack(gen, f"{expr}.{name}")
            else:
                codec._emit_pack(gen, f"getattr({expr}, {name!r})")

    def _emit_unpack(self, gen: "_UnpackGen") -> str:
        fields = [(name, codec._emit_unpack(gen))
                  for name, codec in self.fields]
        if all(_plain(name) for name, _ in fields):
            return f"_Record({', '.join(f'{n}={v}' for n, v in fields)})"
        items = ", ".join(f"{name!r}: {value}" for name, value in fields)
        return f"_Record(**{{{items}}})"


def _plain(name: str) -> bool:
    """Whether *name* can be written as an attribute or keyword."""
    return name.isidentifier() and not iskeyword(name)


class Union(Codec):
    """Discriminated XDR union.

    Values are ``(discriminant, body)`` tuples.  *arms* maps discriminant
    values to codecs (``None`` meaning void); *default* covers all other
    discriminants (omit it to make unknown discriminants an error).
    """

    _NO_DEFAULT = object()

    def __init__(
        self,
        name: str,
        arms: Mapping[int, Codec | None],
        default: Codec | None | object = _NO_DEFAULT,
    ) -> None:
        self.name = name
        self.arms = dict(arms)
        self.default = default

    def _arm(self, disc: int) -> Codec | None:
        if disc in self.arms:
            return self.arms[disc]
        if self.default is Union._NO_DEFAULT:
            raise XdrError(f"{self.name}: unknown union discriminant {disc}")
        return self.default  # type: ignore[return-value]

    def encode(self, packer: Packer, value: tuple[int, Any]) -> None:
        disc, body = value
        codec = self._arm(disc)
        packer.pack_uint32(disc)
        if codec is None:
            if body is not None:
                raise XdrError(f"{self.name}: void arm takes no body")
        else:
            codec.encode(packer, body)

    def decode(self, unpacker: Unpacker) -> tuple[int, Any]:
        disc = unpacker.unpack_uint32()
        codec = self._arm(disc)
        if codec is None:
            return disc, None
        return disc, codec.decode(unpacker)

    def _cases(self, disc: str) -> list[tuple[str | None, Any]]:
        """(condition, arm) per distinct arm codec, then the default."""
        grouped: dict[int, tuple[list[int], Codec | None]] = {}
        for value, arm in self.arms.items():
            grouped.setdefault(id(arm), ([], arm))[0].append(value)
        cases: list[tuple[str | None, Any]] = [
            (" or ".join(f"{disc} == {value!r}" for value in values), arm)
            for values, arm in grouped.values()
        ]
        default = self.default
        cases.append((None, _FAIL if default is Union._NO_DEFAULT
                      else default))
        return cases

    def _emit_pack(self, gen: "_PackGen", expr: str) -> None:
        disc, body = gen.name("d"), gen.name("b")
        gen.line(f"{disc}, {body} = {expr}")
        gen.branches(self, body, [(cond, arm, disc)
                                  for cond, arm in self._cases(disc)])

    def _emit_unpack(self, gen: "_UnpackGen") -> str:
        disc = gen.fixed("I")
        return gen.branches(self, self._cases(disc), disc)


# ---------------------------------------------------------------------------
# The compiled lane (see the module docstring).  Generated code raises
# for anything outside the canonical shape; the wrapper turns that into
# DECLINED, so the reference codec decides and reports every error.
# ---------------------------------------------------------------------------

#: Sentinel a compiled lane returns to decline a value or buffer whose
#: shape it does not cover; the caller falls back to the reference codec.
DECLINED = object()

#: Arm markers in generated branches: "this discriminant is an error",
#: and "nothing follows the tag word" (an absent optional).
_FAIL = object()
_NOTHING = object()


class _Uncompilable(Exception):
    """A codec in the tree has no code generator (a foreign subclass)."""


class _Decline(Exception):
    """Raised by generated code for a non-canonical value or buffer."""


@lru_cache(maxsize=None)
def _struct(fmt: str) -> struct.Struct:
    return struct.Struct(">" + fmt)


def _fixed_format(codec: Codec) -> str | None:
    """The one struct format character of a bare integer codec."""
    fmt = codec.fmt if isinstance(codec, _Numeric) else "?"
    return None if fmt == "?" else fmt


class _Gen:
    """Shared code-emission state: lines, indentation, names, constants,
    and the pending run of fixed-size items."""

    def __init__(self, codec: Codec) -> None:
        self.top = codec
        self.lines: list[str] = []
        self.depth = 2
        self.count = 0
        self.run: list[tuple[str, str | None]] = []
        self.ns: dict[str, Any] = {
            "_D": _Decline, "_BYTES": (bytes, bytearray), "_PAD": _PAD,
            "_Mapping": Mapping, "_Record": Record,
            "_spack": struct.pack, "_sunpack_from": struct.unpack_from,
            "DECLINED": DECLINED,
        }

    def name(self, prefix: str) -> str:
        self.count += 1
        return f"{prefix}{self.count}"

    def const(self, value: Any) -> str:
        name = self.name("k")
        self.ns[name] = value
        return name

    def line(self, text: str) -> None:
        self.lines.append("    " * self.depth + text)

    def check(self, condition: str) -> None:
        self.line(f"if {condition}: raise _D")

    @contextmanager
    def block(self, header: str) -> Iterator[None]:
        self.line(header)
        self.depth += 1
        yield
        self.depth -= 1

    def chain(self, cases: list[tuple]) -> Iterator[tuple[Any, ...]]:
        """Open an if/elif/else block per case (condition None: else)
        and yield the case's arm and tag inside it."""
        for index, (condition, *rest) in enumerate(cases):
            header = ("else:" if condition is None else
                      f"{'elif' if index else 'if'} {condition}:")
            with self.block(header):
                if rest[0] is _FAIL:
                    self.line("raise _D")
                else:
                    yield rest

    def define(self, params: str, head: list[str]) -> Callable[[Any], Any]:
        source = "\n".join([f"def lane({params}):", "    try:", *head,
                            *self.lines, "    except Exception:",
                            "        return DECLINED"])
        name = getattr(self.top, "name", type(self.top).__name__)
        namespace = dict(self.ns)
        exec(compile(source, f"<xdr lane {name}>", "exec"), namespace)
        return namespace["lane"]


class _PackGen(_Gen):
    """Generates ``lane(v) -> bytes``.

    Written parts stay pending until code must branch or loop; a lane
    that ends without doing so returns them as one ``b"".join`` (or the
    lone part), and each arm of a union or optional that is the whole
    codec returns its own.  Otherwise they are appended to ``out``.
    Deferring a part past later lines is safe: those only bind new
    names or raise.
    """

    def __init__(self, codec: Codec) -> None:
        super().__init__(codec)
        self.parts: list[str] = []
        self.started = False  # this path has appended to ``out``
        self.uses_out = False
        self.ended = False  # every path has returned

    def bind(self, expr: str, force: bool = False) -> str:
        """A local name holding *expr* (evaluated once, now)."""
        if expr.isidentifier() and not force:
            return expr
        name = self.name("v")
        self.line(f"{name} = {expr}")
        return name

    def fixed(self, fmt: str, expr: str | None) -> None:
        self.run.append((fmt, expr))

    def flush(self) -> None:
        if self.run:
            fmt = "".join(fmt for fmt, _ in self.run)
            args = ", ".join(expr for _, expr in self.run if expr is not None)
            self.parts.append(f"{self.const(_struct(fmt))}.pack({args})")
            self.run = []

    def commit(self) -> None:
        """Append the run and the pending parts to ``out``."""
        self.flush()
        for part in self.parts:
            self.line(f"w({part})")
            self.started = self.uses_out = True
        self.parts = []

    def finish(self) -> None:
        self.flush()
        if self.started:
            self.commit()
            self.line('return b"".join(out)')
        elif len(self.parts) == 1:
            self.line(f"return {self.parts[0]}")
        else:
            joined = "".join(f"{part}, " for part in self.parts)
            self.line(f'return b"".join(({joined}))')

    def counted(self, data: str, maximum: int) -> None:
        """Length prefix, the bytes of *data*, zero pad."""
        length = self.bind(f"len({data})", force=True)
        if maximum < UNLIMITED:
            self.check(f"{length} > {maximum}")
        self.fixed("I", length)
        self.flush()
        self.parts += [data, f"_PAD[-{length} & 3]"]

    def repeat(self, element: Codec, items: str, count: str) -> None:
        """*count* items of *element*; integers in one ``struct.pack``."""
        fmt = _fixed_format(element)
        if fmt is not None:
            self.flush()
            self.parts.append(f"_spack('>%d{fmt}' % {count}, *{items})")
        else:
            self.loop(element, f"for {{}} in {items}:")

    def loop(self, element: Codec, header: str,
             tag: str | None = None) -> None:
        """Each item's encoding (after its *tag* word), in a loop."""
        self.commit()
        item = self.name("x")
        with self.block(header.format(item)):
            if tag is not None:
                self.fixed("I", tag)
            element._emit_pack(self, item)
            self.commit()

    def branches(self, owner: Codec, value: str,
                 cases: list[tuple[str | None, Any, str]]) -> None:
        """One branch per case, each starting with the pending run and its
        tag word; *value* is the arm's body."""
        final = owner is self.top
        run, self.run = self.run, []
        if not final:
            self.commit()
        parts, started = self.parts, self.started
        for arm, tag in self.chain(cases):
            self.run, self.parts = run + [("I", tag)], list(parts)
            self.started = started
            if arm is None:
                self.check(f"{value} is not None")
            elif arm is not _NOTHING:
                arm._emit_pack(self, value)
            if final:
                self.finish()
            else:
                self.commit()
        self.run, self.parts, self.started = [], [], not final or started
        self.ended = final

    def build(self) -> Callable[[Any], Any]:
        self.top._emit_pack(self, "v")
        if not self.ended:
            self.finish()
        head = ["        out = []", "        w = out.append"]
        return self.define("v", head if self.uses_out else [])


class _UnpackGen(_Gen):
    """Generates ``lane(data) -> value``.

    The read position is ``base + off``: *base* is ``0`` until the first
    variable-length item, then the local ``o``; *off* is a compile-time
    constant, so a fixed run reads at a constant offset.  Values are
    expressions over the run's targets (a struct is one ``_Record(...)``
    call), used only after the run is read; checks on a pending run's
    values are queued until its ``unpack_from``.  So nested structs share
    one run.  Each arm of a union or optional that is the whole codec
    returns its own value.
    """

    def __init__(self, codec: Codec) -> None:
        super().__init__(codec)
        self.base = "0"
        self.off = 0
        self.queued: list[str] = []
        self.slices = False  # bytes are sliced out: needs real bytes

    def pos(self) -> str:
        if self.base == "0":
            return str(self.off)
        return f"o + {self.off}" if self.off else "o"

    def fixed(self, fmt: str) -> str:
        target = self.name("t")
        self.run.append((fmt, target))
        return target

    def flush(self, then: str | None = None) -> None:
        """Read the pending run, run the queued checks, emit *then*."""
        if self.run:
            fmt = "".join(fmt for fmt, _ in self.run)
            compiled = _struct(fmt)
            targets = "".join(f"{target}, " for _, target in self.run)
            self.line(f"{targets}= {self.const(compiled)}"
                      f".unpack_from(data, {self.pos()})")
            self.off += compiled.size
            self.run = []
        queued, self.queued = self.queued, []
        for text in queued + ([then] if then else []):
            self.line(text)

    def check_later(self, condition: str) -> None:
        self.queued.append(f"if {condition}: raise _D")

    def settle(self) -> None:
        """Flush, and make ``o`` the read position."""
        self.flush()
        if self.base == "0":
            self.line(f"o = {self.off}")
        elif self.off:
            self.line(f"o += {self.off}")
        self.base, self.off = "o", 0

    def finish(self, value: str) -> None:
        """End the lane: the whole buffer was read, return *value*."""
        self.flush()
        size = "L" if self.slices else "len(data)"
        self.line(f"if {self.pos()} != {size}: raise _D")
        self.line(f"return {value}")

    def counted(self, maximum: int) -> str:
        """Length-prefixed bytes with zero pad; returns their local."""
        length = self.fixed("I")
        self.flush()
        if maximum < UNLIMITED:
            self.check(f"{length} > {maximum}")
        end, value = self.name("e"), self.name("b")
        self.slices = True
        self.line(f"{end} = {self.pos()} + {length}")
        self.line(f"o = {end} + (-{length} & 3)")
        self.check(f"o > L or data[{end}:o] != _PAD[o - {end}]")
        self.line(f"{value} = data[{end} - {length}:{end}]")
        self.base, self.off = "o", 0
        return value

    def repeat(self, element: Codec, count: str) -> str:
        fmt = _fixed_format(element)
        items = self.name("a")
        if fmt is not None:
            self.flush()
            self.line(f"{items} = list(_sunpack_from('>%d{fmt}' % {count}, "
                      f"data, {self.pos()}))")
            self.settle()
            self.line(f"o += {count} * {_struct(fmt).size}")
            return items
        self.settle()
        self.line(f"{items} = []")
        with self.block(f"for _ in range({count}):"):
            self.flush(f"{items}.append({element._emit_unpack(self)})")
            self.settle()
        return items

    def branches(self, owner: Codec, cases: list[tuple[str | None, Any]],
                 tag: str | None = None) -> str | None:
        """Branch on the pending run's last word; each branch binds the
        result (``(tag, body)`` for a union) and settles ``o``, or, when
        *owner* is the whole codec, returns it (and this returns None)."""
        self.flush()
        final = owner is self.top
        result = self.name("u")
        base, off = self.base, self.off
        for (arm,) in self.chain(cases):
            self.base, self.off = base, off
            body = "None" if arm is None else arm._emit_unpack(self)
            value = f"({tag}, {body})" if tag else body
            if final:
                self.finish(value)
            else:
                self.flush(f"{result} = {value}")
                self.settle()
        self.base, self.off = "o", 0
        return None if final else result

    def build(self) -> Callable[[Any], Any]:
        value = self.top._emit_unpack(self)
        if value is not None:
            self.finish(value)
        head = ["        if data.__class__ is not bytes:",
                "            data = bytes(data)",
                "        L = len(data)"]
        return self.define("data", head if self.slices else [])


def _decline(_value: Any) -> Any:
    return DECLINED


def _compile(codec: Codec) -> tuple[Callable[[Any], Any], Callable[[Any], Any]]:
    """Build and attach *codec*'s compiled lane (decline-only when some
    codec in its tree has no generator)."""
    try:
        lane = (_PackGen(codec).build(), _UnpackGen(codec).build())
    except _Uncompilable:
        lane = (_decline, _decline)
    codec._cpack, codec._cunpack = lane
    return lane

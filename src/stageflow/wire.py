"""The shared layout of the byte containers (SGF1 graphs, SCK1 checkpoints).

Every container is little-endian: a 4-byte magic, a format version u32, then
length-prefixed sections (u32 byte length + body). Section 0 is always the
string table (count u32; entries u32 length + utf-8; id 0 is always the
empty string, so 0 can mean "none"); the format's own sections follow in
its fixed order and refer to strings by u32 id.

Writers intern strings in first-use order while they fill their sections,
and ``pack`` writes the table only after them (placing it first), so equal
inputs give equal bytes and every string a section uses is in the table.

Shapes are rank u16 then dims i64 (-1 = wildcard). Tensors are a dtype tag
u8, a shape, then the raw row-major payload, which a "sized" tensor (SCK1)
prefixes with its u32 byte length.

A run of fields whose layout a count fixes (a node's head, a shape's dims)
is one ``ByteReader.take`` of a cached ``layout``, and a string table entry
is one length read and one slice.

A container ends with its last section, and each section with its last
field: trailing bytes are malformed (a decoder calls ``ByteReader.end``
after each of its sections).
Malformed input raises ``CorruptGraph`` (``FormatVersionMismatch`` for a
version the runtime does not read); each format maps these to its own error
contract.
"""
from __future__ import annotations

import functools
import math
import struct
from typing import Dict, List, Optional, Sequence

import numpy as np

from .dtypes import DTYPE_TAGS, TAG_DTYPES, DType
from .errors import CorruptGraph, FormatVersionMismatch
from .tensor import Tensor, concrete_tensor, default_device

# A fixed layout per format string; the counts in hostile bytes vary, so
# the cache is bounded.
layout = functools.lru_cache(maxsize=256)(struct.Struct)

_FIXED = _U8, _U16, _U32, _I64, _F64 = tuple(map(layout, ("<B", "<H", "<I", "<q", "<d")))


def _put(field: struct.Struct):  # a ByteWriter method for one field
    return lambda self, v: self._parts.append(field.pack(v))


def _get(field: struct.Struct):  # a ByteReader method for one field
    return lambda self: self.take(field)[0]


class StringTable:
    """Deterministic first-use interning; id 0 is the empty string."""

    def __init__(self):
        self._ids: Dict[str, int] = {"": 0}
        self.strings: List[str] = [""]

    def intern(self, s: str) -> int:
        sid = self._ids.get(s)
        if sid is None:
            sid = len(self.strings)
            self._ids[s] = sid
            self.strings.append(s)
        return sid


class ByteWriter:
    def __init__(self, table: Optional[StringTable] = None):
        self._parts: List[bytes] = []
        self.table = table

    u8, u16, u32, i64, f64 = map(_put, _FIXED)

    def raw(self, b: bytes):
        self._parts.append(b)

    def blob(self, b: bytes):
        """u32 byte length, then the bytes."""
        self.u32(len(b))
        self.raw(b)

    def string(self, s: str):
        """The id of ``s`` in the container's string table, as u32."""
        self._parts.append(_U32.pack(self.table.intern(s)))

    def getvalue(self) -> bytes:
        return b"".join(self._parts)


class ByteReader:
    def __init__(self, data: bytes, strings: Sequence[str] = ()):
        self._data = data
        self._pos = 0
        self.strings = strings

    def take(self, fields: struct.Struct) -> tuple:
        """The run of ``fields`` at the cursor, read in one call."""
        try:
            v = fields.unpack_from(self._data, self._pos)
        except struct.error:
            raise CorruptGraph("truncated container") from None
        self._pos += fields.size
        return v

    u8, u16, u32, i64, f64 = map(_get, _FIXED)

    def raw(self, n: int) -> bytes:
        if self._pos + n > len(self._data):
            raise CorruptGraph("truncated container")
        b = self._data[self._pos : self._pos + n]
        self._pos += n
        return b

    def blob(self) -> bytes:
        return self.raw(self.u32())

    def string(self) -> str:
        return self.string_at(self.take(_U32)[0])

    def string_at(self, i: int) -> str:
        """Entry ``i`` of the container's string table."""
        if i >= len(self.strings):
            raise CorruptGraph(f"string id {i} out of range")
        return self.strings[i]

    def end(self, what: str) -> None:
        """Check that the reader consumed its data; ``what`` names the end."""
        if self._pos != len(self._data):
            raise CorruptGraph(f"{len(self._data) - self._pos} bytes after {what}")


def pack(magic: bytes, version: int, table: StringTable,
         sections: Sequence[ByteWriter]) -> bytes:
    """Header, the string table, then ``sections``, each length-prefixed."""
    strings = ByteWriter()
    strings.u32(len(table.strings))
    for s in table.strings:
        strings.blob(s.encode("utf-8"))
    w = ByteWriter()
    w.raw(magic)
    w.u32(version)
    for section in (strings, *sections):
        w.blob(section.getvalue())
    return w.getvalue()


def unpack(data: bytes, magic: bytes, version: int,
           n_sections: int) -> List[ByteReader]:
    """Check the header and return a reader per section after the string
    table; each reader resolves string ids against that table."""
    r = ByteReader(data)
    if r.raw(len(magic)) != magic:
        raise CorruptGraph(f"not a {magic.decode()} container (bad magic)")
    found = r.u32()
    if found != version:
        raise FormatVersionMismatch(
            f"{magic.decode()} version {found}, this runtime reads {version}"
        )
    sr = ByteReader(r.blob())
    strings = [sr.raw(sr.take(_U32)[0]).decode("utf-8") for _ in range(sr.u32())]
    sr.end("the string table")
    sections = [ByteReader(r.blob(), strings) for _ in range(n_sections)]
    r.end("the last section")
    return sections


def write_shape(w: ByteWriter, shape) -> None:
    w.u16(len(shape))
    for d in shape:
        w.i64(-1 if d is None else d)


def read_shape(r: ByteReader, rank: Optional[int] = None):
    """A shape, or its dims alone when its ``rank`` was read already."""
    dims = r.take(layout(f"<{r.u16() if rank is None else rank}q"))
    return tuple([None if d == -1 else d for d in dims])


def dtype_of(tag: int) -> DType:
    dtype = TAG_DTYPES.get(tag)
    if dtype is None:
        raise CorruptGraph(f"bad dtype tag {tag}")
    return dtype


def write_tensor(w: ByteWriter, t: Tensor, sized: bool = False) -> None:
    """Dtype tag, shape, then the payload (length-prefixed if ``sized``)."""
    w.u8(DTYPE_TAGS[t.dtype])
    write_shape(w, t.shape)
    payload = t.raw().tobytes()
    if sized:
        w.blob(payload)
    else:
        w.raw(payload)


def read_tensor(r: ByteReader, dtype: DType, sized: bool = False) -> Tensor:
    """The shape and payload after a tensor's dtype tag."""
    shape = read_shape(r)
    if None in shape or min(shape, default=0) < 0:
        raise CorruptGraph("stored tensors need concrete non-negative dims")
    nbytes = math.prod(shape) * dtype.width
    payload = r.blob() if sized else r.raw(nbytes)
    if len(payload) != nbytes:
        raise CorruptGraph("tensor payload does not match its shape")
    arr = np.frombuffer(payload, dtype=dtype.np_dtype).reshape(shape).copy()
    arr.flags.writeable = False
    return concrete_tensor(dtype, shape, default_device(), arr)

"""Serialized graph-function container ("SGF1").

Little-endian, versioned. Layout: magic ``SGF1``, format version u32, then
length-prefixed sections in fixed order:

* string table (count u32; entries u32 length + utf-8; id 0 is always the
  empty string, so 0 can mean "no device"),
* input table (name id u32, dtype u8 with the high bit flagging a
  variable-reference placeholder, rank u16, dims i64 with -1 = wildcard),
* node table (op-name id u32, input refs as (node id u32, output index u16)
  where ids below the input count denote placeholders, tagged attr list,
  device-name id u32 or 0),
* output table (name id u32, ref),
* nested library (count u32; name id + u32 byte length + a complete nested
  container, sorted by name).

Tensor-valued attrs encode as dtype u8, rank u16, dims i64[], then the raw
row-major payload. Node output specs are not stored; they are re-inferred on
load. The top-level function's own name has no slot in the container (nested
names live in the library), so a round-trip preserves everything except it.

Graphs that reference host callbacks are not serializable; callbacks are
registry ids with no portable meaning.
"""
from __future__ import annotations

import struct
from typing import Dict, List, Tuple

import numpy as np

from .devices import DeviceName
from .dtypes import DTYPE_TAGS, TAG_DTYPES, DType
from .errors import (
    CorruptGraph, FormatVersionMismatch, NotSerializable, StageflowError,
)
from .graph import GraphFunction, Node, Placeholder
from .kernels import KernelEnv, infer_out_specs
from .tensor import Tensor, tensor_from_host

MAGIC = b"SGF1"
VERSION = 1

_VAR_REF_BIT = 0x80

_A_INT, _A_FLOAT, _A_BOOL, _A_STRING, _A_DTYPE, _A_SHAPE, _A_FUNCTION, \
    _A_TENSOR, _A_INT_LIST, _A_NONE = range(1, 11)


class ByteWriter:
    def __init__(self):
        self._parts: List[bytes] = []

    def u8(self, v: int):
        self._parts.append(struct.pack("<B", v))

    def u16(self, v: int):
        self._parts.append(struct.pack("<H", v))

    def u32(self, v: int):
        self._parts.append(struct.pack("<I", v))

    def i64(self, v: int):
        self._parts.append(struct.pack("<q", v))

    def f64(self, v: float):
        self._parts.append(struct.pack("<d", v))

    def raw(self, b: bytes):
        self._parts.append(b)

    def getvalue(self) -> bytes:
        return b"".join(self._parts)


class ByteReader:
    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    def _take(self, fmt: str):
        try:
            v = struct.unpack_from(fmt, self._data, self._pos)[0]
        except struct.error:
            raise CorruptGraph("truncated container") from None
        self._pos += struct.calcsize(fmt)
        return v

    def u8(self) -> int:
        return self._take("<B")

    def u16(self) -> int:
        return self._take("<H")

    def u32(self) -> int:
        return self._take("<I")

    def i64(self) -> int:
        return self._take("<q")

    def f64(self) -> float:
        return self._take("<d")

    def raw(self, n: int) -> bytes:
        if self._pos + n > len(self._data):
            raise CorruptGraph("truncated container")
        b = self._data[self._pos : self._pos + n]
        self._pos += n
        return b


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


def _write_section(w: ByteWriter, body: bytes) -> None:
    w.u32(len(body))
    w.raw(body)


def _read_section(r: ByteReader) -> ByteReader:
    return ByteReader(r.raw(r.u32()))


def _shape_to_wire(w: ByteWriter, shape) -> None:
    w.u16(len(shape))
    for d in shape:
        w.i64(-1 if d is None else d)


def _shape_from_wire(r: ByteReader):
    rank = r.u16()
    dims = []
    for _ in range(rank):
        d = r.i64()
        dims.append(None if d == -1 else d)
    return tuple(dims)


def _tensor_to_wire(w: ByteWriter, t: Tensor) -> None:
    w.u8(DTYPE_TAGS[t.dtype])
    _shape_to_wire(w, t.shape)
    w.raw(t.raw().tobytes())


def _tensor_from_wire(r: ByteReader) -> Tensor:
    tag = r.u8()
    dtype = TAG_DTYPES.get(tag)
    if dtype is None:
        raise CorruptGraph(f"bad dtype tag {tag}")
    shape = _shape_from_wire(r)
    if any(d is None for d in shape):
        raise CorruptGraph("constant tensors cannot have wildcard dims")
    count = 1
    for d in shape:
        count *= d
    payload = r.raw(count * dtype.width)
    arr = np.frombuffer(payload, dtype=dtype.np_dtype)
    return tensor_from_host(arr, shape, dtype)


def serialize(gf: GraphFunction) -> bytes:
    """Encode a graph function; round-trips structurally via deserialize."""
    if not gf.serializable:
        raise NotSerializable(
            f"{gf.name} contains a host_call (directly or in its library) "
            "and cannot be serialized"
        )
    return _serialize_container(gf)


def _serialize_container(gf: GraphFunction) -> bytes:
    table = StringTable()
    # Intern in a fixed walk order so equal graphs produce equal bytes.
    for ph in gf.inputs:
        table.intern(ph.name)
    for node in gf.nodes:
        table.intern(node.op)
        for attr_name in sorted(node.attrs):
            table.intern(attr_name)
            v = node.attrs[attr_name]
            if isinstance(v, str):
                table.intern(v)
        if node.device is not None:
            table.intern(node.device.render())
    for name, _ in gf.outputs:
        table.intern(name)
    lib_items = sorted(gf.library.items())
    for name, _ in lib_items:
        table.intern(name)

    strings = ByteWriter()
    strings.u32(len(table.strings))
    for s in table.strings:
        b = s.encode("utf-8")
        strings.u32(len(b))
        strings.raw(b)

    inputs = ByteWriter()
    inputs.u32(len(gf.inputs))
    for ph in gf.inputs:
        inputs.u32(table.intern(ph.name))
        inputs.u8(DTYPE_TAGS[ph.dtype] | (_VAR_REF_BIT if ph.is_variable_ref else 0))
        _shape_to_wire(inputs, ph.shape)

    nodes = ByteWriter()
    nodes.u32(len(gf.nodes))
    for node in gf.nodes:
        nodes.u32(table.intern(node.op))
        nodes.u32(len(node.inputs))
        for vid, out_idx in node.inputs:
            nodes.u32(vid)
            nodes.u16(out_idx)
        nodes.u32(len(node.attrs))
        for attr_name in sorted(node.attrs):
            nodes.u32(table.intern(attr_name))
            _attr_to_wire(nodes, table, node.attrs[attr_name])
        nodes.u32(table.intern(node.device.render()) if node.device else 0)

    outputs = ByteWriter()
    outputs.u32(len(gf.outputs))
    for name, (vid, out_idx) in gf.outputs:
        outputs.u32(table.intern(name))
        outputs.u32(vid)
        outputs.u16(out_idx)

    library = ByteWriter()
    library.u32(len(lib_items))
    for name, sub in lib_items:
        library.u32(table.intern(name))
        body = _serialize_container(sub)
        library.u32(len(body))
        library.raw(body)

    w = ByteWriter()
    w.raw(MAGIC)
    w.u32(VERSION)
    for section in (strings, inputs, nodes, outputs, library):
        _write_section(w, section.getvalue())
    return w.getvalue()


def _attr_to_wire(w: ByteWriter, table: StringTable, v) -> None:
    if v is None:
        w.u8(_A_NONE)
    elif isinstance(v, bool):
        w.u8(_A_BOOL)
        w.u8(1 if v else 0)
    elif isinstance(v, int):
        w.u8(_A_INT)
        w.i64(v)
    elif isinstance(v, float):
        w.u8(_A_FLOAT)
        w.f64(v)
    elif isinstance(v, str):
        # Function-name and plain string attrs share the string encoding;
        # the op's attr schema disambiguates on load.
        w.u8(_A_STRING)
        w.u32(table.intern(v))
    elif isinstance(v, DType):
        w.u8(_A_DTYPE)
        w.u8(DTYPE_TAGS[v])
    elif isinstance(v, Tensor):
        w.u8(_A_TENSOR)
        _tensor_to_wire(w, v)
    elif isinstance(v, tuple) and any(d is None for d in v):
        w.u8(_A_SHAPE)
        _shape_to_wire(w, v)
    elif isinstance(v, tuple):
        w.u8(_A_INT_LIST)
        w.u16(len(v))
        for d in v:
            w.i64(d)
    else:
        raise NotSerializable(f"attr value {v!r} has no wire encoding")


def _attr_from_wire(r: ByteReader, strings: List[str]):
    tag = r.u8()
    if tag == _A_NONE:
        return None
    if tag == _A_BOOL:
        return bool(r.u8())
    if tag == _A_INT:
        return r.i64()
    if tag == _A_FLOAT:
        return r.f64()
    if tag == _A_STRING:
        return strings[r.u32()]
    if tag == _A_DTYPE:
        dt = TAG_DTYPES.get(r.u8())
        if dt is None:
            raise CorruptGraph("bad dtype tag in attr")
        return dt
    if tag == _A_TENSOR:
        return _tensor_from_wire(r)
    if tag == _A_SHAPE:
        return _shape_from_wire(r)
    if tag == _A_INT_LIST:
        return tuple(r.i64() for _ in range(r.u16()))
    raise CorruptGraph(f"unknown attr tag {tag}")


def deserialize(data: bytes, name: str = "loaded") -> GraphFunction:
    """Decode a container; node output specs are re-inferred.

    Every decode failure is a ``StageflowError``: malformed bytes that trip
    anything else (bad UTF-8, out-of-range ids) raise ``CorruptGraph``.
    """
    try:
        return _decode(data, name)
    except StageflowError:
        raise
    except Exception as e:
        raise CorruptGraph(f"corrupt graph container: {type(e).__name__}: {e}") from e


def _decode(data: bytes, name: str) -> GraphFunction:
    r = ByteReader(data)
    if r.raw(4) != MAGIC:
        raise CorruptGraph("not a graph-function container (bad magic)")
    version = r.u32()
    if version != VERSION:
        raise FormatVersionMismatch(
            f"container version {version}, this runtime reads {VERSION}"
        )

    sr = _read_section(r)
    strings = []
    for _ in range(sr.u32()):
        strings.append(sr.raw(sr.u32()).decode("utf-8"))

    def string_at(i: int) -> str:
        if i >= len(strings):
            raise CorruptGraph(f"string id {i} out of range")
        return strings[i]

    ir = _read_section(r)
    placeholders: List[Placeholder] = []
    for _ in range(ir.u32()):
        pname = string_at(ir.u32())
        dt_byte = ir.u8()
        dtype = TAG_DTYPES.get(dt_byte & ~_VAR_REF_BIT)
        if dtype is None:
            raise CorruptGraph("bad placeholder dtype")
        shape = _shape_from_wire(ir)
        placeholders.append(
            Placeholder(pname, dtype, shape, bool(dt_byte & _VAR_REF_BIT))
        )

    nr = _read_section(r)
    raw_nodes = []
    for _ in range(nr.u32()):
        op = string_at(nr.u32())
        n_inputs = nr.u32()
        inputs = tuple((nr.u32(), nr.u16()) for _ in range(n_inputs))
        attrs = {}
        for _ in range(nr.u32()):
            attr_name = string_at(nr.u32())
            attrs[attr_name] = _attr_from_wire(nr, strings)
        dev_id = nr.u32()
        device = None
        if dev_id:
            device = DeviceName.parse(string_at(dev_id))
        raw_nodes.append((op, inputs, attrs, device))

    outr = _read_section(r)
    outputs = []
    for _ in range(outr.u32()):
        oname = string_at(outr.u32())
        outputs.append((oname, (outr.u32(), outr.u16())))

    lr = _read_section(r)
    library: Dict[str, GraphFunction] = {}
    for _ in range(lr.u32()):
        lname = string_at(lr.u32())
        body = lr.raw(lr.u32())
        library[lname] = _decode(body, lname)

    # Rebuild node output specs by running inference in program order.
    n_in = len(placeholders)
    env = KernelEnv(device=_default_device(), libraries=(library,))
    specs: List[Tuple] = [[(ph.dtype, ph.shape)] for ph in placeholders]
    nodes: List[Node] = []
    for op, inputs, attrs, device in raw_nodes:
        in_specs = []
        for vid, out_idx in inputs:
            if vid >= len(specs):
                raise CorruptGraph("node references a later value")
            group = specs[vid]
            if out_idx >= len(group):
                raise CorruptGraph("node references a missing output")
            in_specs.append(group[out_idx])
        out_specs = infer_out_specs(op, attrs, in_specs, env)
        nodes.append(Node(op, inputs, attrs, device, tuple(out_specs)))
        specs.append(list(out_specs))

    return GraphFunction(name, placeholders, nodes, outputs, library)


def _default_device():
    from .runtime import get_runtime

    return get_runtime().devices[0].name

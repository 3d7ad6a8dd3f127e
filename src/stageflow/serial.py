"""Serialized graph-function container ("SGF1").

Framed as ``wire`` lays out (magic ``SGF1``, version, string table); the
sections that follow, in fixed order, are:

* input table (name id u32, dtype u8 with the high bit flagging a
  variable-reference placeholder, shape),
* node table (op-name id u32, input refs as (node id u32, output index u16)
  where ids below the input count denote placeholders, tagged attr list,
  device-name id u32 or 0),
* output table (name id u32, ref),
* nested library (count u32; name id + u32 byte length + a complete nested
  container, sorted by name).

Fixed-layout runs are one ``struct`` call each: a node's op-name id and ref
count, its refs, and a placeholder's name id, dtype and rank. Tensor-valued
attrs use the ``wire`` tensor encoding. On load each node passes
``graph.checked_node`` once: an attr outside its op's schema is
``CorruptGraph``, and the output specs, which are not stored, are inferred.
The top-level function's own name has no slot in the container (nested
names live in the library), so a round-trip preserves everything except it.

Graphs that reference host callbacks are not serializable; callbacks are
registry ids with no portable meaning.
"""
from __future__ import annotations

import functools
from itertools import chain
from typing import Dict, List

from .dtypes import DTYPE_TAGS, DType
from .errors import CorruptGraph, NotSerializable, StageflowError
from .graph import GraphFunction, Placeholder
from .tensor import Tensor
from .wire import (
    ByteReader, ByteWriter, StringTable, dtype_of, layout, pack, read_shape,
    read_tensor, unpack, write_shape, write_tensor,
)

MAGIC = b"SGF1"
VERSION = 1

_VAR_REF_BIT = 0x80

# Attr tags. Tag 7 is unused; function names travel as strings.
_A_INT, _A_FLOAT, _A_BOOL, _A_STRING, _A_DTYPE, _A_SHAPE = range(1, 7)
_A_TENSOR, _A_INT_LIST, _A_NONE = range(8, 11)

_INPUT_HEAD = layout("<IBH")  # name id, dtype byte, rank
_NODE_HEAD = layout("<II")  # op-name id, ref count
_REF = layout("<IH")  # node id, output index
_NO_DEVICE = bytes(4)  # string id 0: the empty string


@functools.lru_cache(maxsize=256)
def _node_run(n: int):
    """The layout of a node's op-name id, ref count, ``n`` refs and attr
    count, written in one call."""
    return layout(f"<II{'IH' * n}I")


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
    inputs, nodes, outputs, library = (ByteWriter(table) for _ in range(4))

    inputs.u32(len(gf.inputs))
    for ph in gf.inputs:
        inputs.string(ph.name)
        inputs.u8(DTYPE_TAGS[ph.dtype] | (_VAR_REF_BIT if ph.is_variable_ref else 0))
        write_shape(inputs, ph.shape)

    nodes.u32(len(gf.nodes))
    for node in gf.nodes:
        n = len(node.inputs)
        nodes.raw(_node_run(n).pack(
            table.intern(node.op), n, *chain(*node.inputs), len(node.attrs)))
        for attr_name in sorted(node.attrs):
            nodes.string(attr_name)
            _attr_to_wire(nodes, node.attrs[attr_name])
        if node.device is None:
            nodes.raw(_NO_DEVICE)
        else:
            nodes.string(node.device.render())

    outputs.u32(len(gf.outputs))
    for name, (vid, out_idx) in gf.outputs:
        outputs.string(name)
        outputs.u32(vid)
        outputs.u16(out_idx)

    library.u32(len(gf.library))
    for name, sub in sorted(gf.library.items()):
        library.string(name)
        library.blob(_serialize_container(sub))

    return pack(MAGIC, VERSION, table, (inputs, nodes, outputs, library))


def _attr_to_wire(w: ByteWriter, v) -> None:
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
        w.string(v)
    elif isinstance(v, DType):
        w.u8(_A_DTYPE)
        w.u8(DTYPE_TAGS[v])
    elif isinstance(v, Tensor):
        w.u8(_A_TENSOR)
        write_tensor(w, v)
    elif isinstance(v, tuple) and any(d is None for d in v):
        w.u8(_A_SHAPE)
        write_shape(w, v)
    elif isinstance(v, tuple):
        w.u8(_A_INT_LIST)
        w.u16(len(v))
        for d in v:
            w.i64(d)
    else:
        raise NotSerializable(f"attr value {v!r} has no wire encoding")


def _attr_from_wire(r: ByteReader):
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
        return r.string()
    if tag == _A_DTYPE:
        return dtype_of(r.u8())
    if tag == _A_TENSOR:
        return read_tensor(r, dtype_of(r.u8()))
    if tag == _A_SHAPE:
        return read_shape(r)
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
    ir, nr, outr, lr = unpack(data, MAGIC, VERSION, 4)

    placeholders: List[Placeholder] = []
    for _ in range(ir.u32()):
        name_id, dt_byte, rank = ir.take(_INPUT_HEAD)
        pname = ir.string_at(name_id)
        dtype = dtype_of(dt_byte & ~_VAR_REF_BIT)
        placeholders.append(Placeholder(
            pname, dtype, read_shape(ir, rank), bool(dt_byte & _VAR_REF_BIT)
        ))
    ir.end("the input table")

    outputs = []
    for _ in range(outr.u32()):
        oname = outr.string()
        outputs.append((oname, (outr.u32(), outr.u16())))
    outr.end("the output table")

    library: Dict[str, GraphFunction] = {}
    for _ in range(lr.u32()):
        lname = lr.string()
        library[lname] = _decode(lr.blob(), lname)
    lr.end("the library")

    # Each node as GraphFunction takes it (no declared specs), in wire order.
    nodes = []
    for _ in range(nr.u32()):
        op_id, n_refs = nr.take(_NODE_HEAD)
        inputs = tuple(_REF.iter_unpack(nr.raw(_REF.size * n_refs)))
        attrs = {}
        for _ in range(nr.u32()):
            attr_name = nr.string()
            attrs[attr_name] = _attr_from_wire(nr)
        nodes.append((nr.string_at(op_id), inputs, attrs or None, nr.string() or None, None))
    nr.end("the node table")
    return GraphFunction(name, placeholders, nodes, outputs, library)

"""Checkpoints: object-graph state matched by named edges, not names.

``save`` walks the trackable object graph from a root (breadth-first, edges
in lexicographic order) and serializes its skeleton together with every
stateful node's payload: variable tensors, opaque blobs for bare numpy
arrays, and opaque node state from trackables that declare it (iterator
cursors). ``restore`` walks the checkpoint skeleton and the live object
graph side by side from both roots, greedily pairing children reached by
equal edge names — first match wins, revisits are cycle-safe — and assigns
matched payloads. Matching is local: it depends only on the two graphs being
walked, never on anything else in the program, and it is insensitive to the
order in which sibling attributes were created.

File format "SCK1", framed as ``wire`` lays out (magic, version, string
table), then two sections: the skeleton (node count u32; per node its path
id, payload kind u8 and name-sorted edges as (name id u32, child node id
u32)), and the payload records (count u32; per record, sorted by path: the
"/"-joined edge path id from the root, then a ``wire`` tensor with its u32
byte length, or the tag 0xFF, rank 0 and a u32-length opaque blob).
"""
from __future__ import annotations

import io
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from . import wire
from .errors import StorageError
from .state import Trackable, Variable
from .tensor import Tensor

MAGIC = b"SCK1"
VERSION = 1

_P_NONE, _P_TENSOR, _P_OPAQUE = 0, 1, 2
_OPAQUE_TAG = 0xFF


@dataclass
class CheckpointNode:
    edges: Tuple[Tuple[str, int], ...]  # (edge name, child node id), name-sorted
    payload_kind: int
    path: str


@dataclass
class Checkpoint:
    """In-memory checkpoint: skeleton plus payloads keyed by node path."""

    nodes: List[CheckpointNode]
    payloads: Dict[str, Union[Tensor, bytes]]

    def to_bytes(self) -> bytes:
        return _encode(self)

    @staticmethod
    def from_bytes(data: bytes) -> "Checkpoint":
        return _decode(data)


@dataclass
class MatchReport:
    matched: List[str] = field(default_factory=list)
    unmatched_in_checkpoint: List[str] = field(default_factory=list)
    unmatched_in_memory: List[str] = field(default_factory=list)
    conflicts: List[Tuple[str, str]] = field(default_factory=list)


def _join(path: str, name: str) -> str:
    return f"{path}/{name}" if path else name


def _children_of(obj) -> List[Tuple[str, object]]:
    if isinstance(obj, Trackable):
        return sorted(obj.tracked_children().items())
    return []


def _payload_of(obj) -> Tuple[int, Optional[Union[Tensor, bytes]]]:
    if isinstance(obj, Variable):
        return _P_TENSOR, obj.snapshot()
    if isinstance(obj, np.ndarray):
        buf = io.BytesIO()
        np.save(buf, obj, allow_pickle=False)
        return _P_OPAQUE, buf.getvalue()
    if isinstance(obj, Trackable):
        state = obj._state_payload()
        if state is not None:
            return _P_OPAQUE, state
    return _P_NONE, None


def build_checkpoint(root) -> Checkpoint:
    """Snapshot the object graph reachable from ``root``."""
    nodes: List[CheckpointNode] = []
    payloads: Dict[str, Union[Tensor, bytes]] = {}
    index: Dict[int, int] = {id(root): 0}
    objs = [root]
    queue = deque([(0, "")])
    paths = {0: ""}
    # First pass assigns ids breadth-first with name-sorted edges, so the
    # node numbering (and therefore the file bytes) is a pure function of
    # the object graph.
    edges_by_node: Dict[int, List[Tuple[str, int]]] = {}
    while queue:
        node_id, path = queue.popleft()
        obj = objs[node_id]
        edge_list = []
        for name, child in _children_of(obj):
            cid = index.get(id(child))
            if cid is None:
                cid = len(objs)
                index[id(child)] = cid
                objs.append(child)
                paths[cid] = _join(path, name)
                queue.append((cid, paths[cid]))
            edge_list.append((name, cid))
        edges_by_node[node_id] = edge_list
    for node_id, obj in enumerate(objs):
        kind, payload = _payload_of(obj)
        nodes.append(
            CheckpointNode(
                edges=tuple(edges_by_node[node_id]),
                payload_kind=kind,
                path=paths[node_id],
            )
        )
        if payload is not None:
            payloads[paths[node_id]] = payload
    return Checkpoint(nodes, payloads)


def save(root, path: Optional[str] = None) -> Checkpoint:
    """Checkpoint ``root``'s object graph, optionally writing it to disk."""
    ckpt = build_checkpoint(root)
    if path is not None:
        try:
            with open(path, "wb") as f:
                f.write(ckpt.to_bytes())
        except OSError as e:
            raise StorageError(f"cannot write checkpoint to {path}: {e}") from e
    return ckpt


def load_checkpoint(path: str) -> Checkpoint:
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as e:
        raise StorageError(f"cannot read checkpoint from {path}: {e}") from e
    return Checkpoint.from_bytes(data)


def restore(root, ckpt: Union[Checkpoint, str]) -> MatchReport:
    """Greedily match the checkpoint against the live graph and load state."""
    if isinstance(ckpt, str):
        ckpt = load_checkpoint(ckpt)
    elif not isinstance(ckpt, Checkpoint):
        raise StorageError(
            f"restore takes a Checkpoint or a path, got {type(ckpt).__name__}"
        )
    report = MatchReport()
    visited_ck = {0}
    visited_live = {id(root)}
    queue = deque([(0, root, "", None, None)])  # +parent obj/edge for rebinds
    while queue:
        ck_id, obj, path, parent, edge_name = queue.popleft()
        node = ckpt.nodes[ck_id]
        report.matched.append(path)
        _apply_payload(node, ckpt.payloads.get(node.path), obj, path, parent,
                       edge_name, report)
        ck_edges = dict(node.edges)
        live_edges = dict(_children_of(obj))
        for name in sorted(set(ck_edges) | set(live_edges)):
            in_ck, in_live = name in ck_edges, name in live_edges
            if in_ck and in_live:
                child_id = ck_edges[name]
                child = live_edges[name]
                if child_id in visited_ck or id(child) in visited_live:
                    continue  # first match wins; also breaks cycles
                visited_ck.add(child_id)
                visited_live.add(id(child))
                queue.append((child_id, child, _join(path, name), obj, name))
            elif in_ck:
                report.unmatched_in_checkpoint.append(_join(path, name))
            else:
                report.unmatched_in_memory.append(_join(path, name))
    return report


def _apply_payload(node, payload, obj, path, parent, edge_name, report) -> None:
    if isinstance(obj, Variable):
        if node.payload_kind != _P_TENSOR or not isinstance(payload, Tensor):
            report.conflicts.append(
                (path, "live object is a variable but the checkpoint node "
                       "holds no tensor")
            )
            return
        if payload.dtype is not obj.dtype or payload.shape != obj.shape:
            report.conflicts.append(
                (path,
                 f"checkpoint holds {payload.dtype.value}{list(payload.shape)}, "
                 f"variable is {obj.dtype.value}{list(obj.shape)}")
            )
            return
        obj.assign(payload)
        return
    if isinstance(obj, np.ndarray):
        if node.payload_kind != _P_OPAQUE or not isinstance(payload, bytes):
            report.conflicts.append((path, "checkpoint node is not a blob"))
            return
        if parent is None:
            report.conflicts.append((path, "cannot rebind a root blob"))
            return
        try:
            restored = np.load(io.BytesIO(payload), allow_pickle=False)
        except Exception as e:  # hostile bytes fail in many ways
            report.conflicts.append((path, f"undecodable blob: {e}"))
            return
        setattr(parent, edge_name, restored)
        return
    if isinstance(obj, Trackable) and node.payload_kind == _P_OPAQUE:
        if not isinstance(payload, bytes):
            report.conflicts.append((path, "missing opaque payload"))
            return
        try:
            obj._restore_state(payload)
        except Exception as e:  # a bad payload must not abort the restore
            report.conflicts.append((path, f"state restore failed: {e}"))


# ---------------------------------------------------------------------------
# Wire encoding
# ---------------------------------------------------------------------------


def _encode(ckpt: Checkpoint) -> bytes:
    table = wire.StringTable()
    skeleton, payloads = wire.ByteWriter(table), wire.ByteWriter(table)

    skeleton.u32(len(ckpt.nodes))
    for node in ckpt.nodes:
        skeleton.string(node.path)
        skeleton.u8(node.payload_kind)
        skeleton.u32(len(node.edges))
        for name, child in node.edges:
            skeleton.string(name)
            skeleton.u32(child)

    payloads.u32(len(ckpt.payloads))
    for path in sorted(ckpt.payloads):
        value = ckpt.payloads[path]
        payloads.string(path)
        if isinstance(value, Tensor):
            wire.write_tensor(payloads, value, sized=True)
        else:
            payloads.u8(_OPAQUE_TAG)
            payloads.u16(0)  # rank
            payloads.blob(value)

    return wire.pack(MAGIC, VERSION, table, (skeleton, payloads))


def _decode(data: bytes) -> Checkpoint:
    try:
        kr, pr = wire.unpack(data, MAGIC, VERSION, 2)
        nodes = []
        for _ in range(kr.u32()):
            path = kr.string()
            kind = kr.u8()
            edges = tuple((kr.string(), kr.u32()) for _ in range(kr.u32()))
            nodes.append(CheckpointNode(edges=edges, payload_kind=kind, path=path))
        kr.end("the skeleton")
        if not nodes:
            raise StorageError("checkpoint has no root node")
        if any(child >= len(nodes) for node in nodes for _, child in node.edges):
            raise StorageError("checkpoint edge points past the skeleton")
        payloads: Dict[str, Union[Tensor, bytes]] = {}
        for _ in range(pr.u32()):
            path = pr.string()
            tag = pr.u8()
            if tag == _OPAQUE_TAG:
                pr.u16()  # rank
                payloads[path] = bytes(pr.blob())
            else:
                payloads[path] = wire.read_tensor(pr, wire.dtype_of(tag), sized=True)
        pr.end("the payloads")
        return Checkpoint(nodes, payloads)
    except StorageError:
        raise
    except Exception as e:
        raise StorageError(f"corrupt checkpoint: {e}") from e

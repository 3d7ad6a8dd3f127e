"""Dataflow graph functions: the staged-execution IR.

A GraphFunction is an immutable, acyclic dataflow graph with named inputs
and outputs. Value references are ``(value_id, output_index)`` pairs where
value ids below the input count denote placeholders and the rest denote
nodes in topological (= recorded program) order.

Graphs compose: a node may invoke another graph function by name through
the ``function``-kind attribute; callees live in the ``library`` of the
enclosing function.

The optimizer lives here too: ``prune`` removes stateless nodes that no
output (and no retained stateful node) depends on, and ``constant_fold``
evaluates stateless nodes whose inputs are all constants. Both preserve
semantics exactly; kernels are deterministic, so folded graphs are
bit-identical to unfolded ones. ``optimize`` prunes first, so no dead node
is folded, then folds. Folding drops the constants it leaves without a
consumer, so the result is the graph that folding first and pruning after
gives. Each pass hands back the graph itself when it changes nothing, and
otherwise builds one new graph that reuses every node whose inputs did not
move.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .devices import DeviceName
from .dtypes import DType, SymShape
from .errors import CorruptGraph, KernelError
from .runtime import get_runtime
from .tensor import Tensor

Ref = Tuple[int, int]  # (value id, output index)

# Ops whose attrs name other graph functions, keyed to the attr names.
FUNCTION_ATTRS = {
    "call_function": ("function",),
    "cond": ("then_branch", "else_branch"),
    "while_loop": ("loop_cond", "loop_body"),
}

# Ops whose first input must be a variable-reference placeholder.
VARIABLE_OPS = ("read_variable", "assign_variable", "assign_add_variable")

@dataclass(frozen=True)
class Placeholder:
    name: str
    dtype: DType
    shape: SymShape
    is_variable_ref: bool = False


@dataclass(frozen=True)
class Node:
    op: str
    inputs: Tuple[Ref, ...]
    attrs: Dict[str, Any]
    device: Optional[DeviceName]
    out_specs: Tuple[Tuple[DType, SymShape], ...]


class GraphFunction:
    """Immutable once constructed; safe to share across threads."""

    def __init__(
        self,
        name: str,
        inputs: Sequence[Placeholder],
        nodes: Sequence[Node],
        outputs: Sequence[Tuple[str, Ref]],
        library: Optional[Dict[str, "GraphFunction"]] = None,
    ):
        self.name = name
        self.inputs: Tuple[Placeholder, ...] = tuple(inputs)
        self.nodes: Tuple[Node, ...] = tuple(nodes)
        self.outputs: Tuple[Tuple[str, Ref], ...] = tuple(outputs)
        self.library: Dict[str, GraphFunction] = dict(
            sorted((library or {}).items())
        )
        self.serializable = not any(n.op == "host_call" for n in self.nodes) and all(
            f.serializable for f in self.library.values()
        )
        self._validate()
        self._output_specs = tuple(self.spec_of(ref) for _, ref in self.outputs)
        self._plan = None  # compiled executor plan, set lazily
        self._fwd_bwd = None  # derived (forward variant, backward fn), set lazily
        self._bwd_by_mask: Dict[Tuple[bool, ...], Any] = {}  # backward_for's cache
        self._grad_paths = None  # backprop._grad_paths, set lazily

    # -- well-formedness -----------------------------------------------------

    def _validate(self) -> None:
        n_in = len(self.inputs)
        for i, node in enumerate(self.nodes):
            for vid, out_idx in node.inputs:
                if vid < 0 or vid >= n_in + i:
                    raise CorruptGraph(
                        f"{self.name}: node {i} ({node.op}) references value "
                        f"{vid} that is not an input or an earlier node"
                    )
                if vid >= n_in and out_idx >= len(self.nodes[vid - n_in].out_specs):
                    raise CorruptGraph(
                        f"{self.name}: node {i} references missing output "
                        f"{out_idx} of node {vid - n_in}"
                    )
            if node.op in VARIABLE_OPS and not (
                node.inputs and node.inputs[0][0] < n_in
                and self.inputs[node.inputs[0][0]].is_variable_ref
            ):
                raise CorruptGraph(
                    f"{self.name}: node {i} ({node.op}) must take a variable "
                    "input placeholder as its first input"
                )
        for _, (vid, out_idx) in self.outputs:
            if vid < 0 or vid >= n_in + len(self.nodes) or (
                vid >= n_in and out_idx >= len(self.nodes[vid - n_in].out_specs)
            ):
                raise CorruptGraph(f"{self.name}: dangling output reference")

    # -- introspection ---------------------------------------------------------

    def spec_of(self, ref: Ref) -> Tuple[DType, SymShape]:
        vid, out_idx = ref
        if vid < len(self.inputs):
            ph = self.inputs[vid]
            return ph.dtype, ph.shape
        return self.nodes[vid - len(self.inputs)].out_specs[out_idx]

    @property
    def output_specs(self) -> List[Tuple[DType, SymShape]]:
        """The outputs' (dtype, shape) specs, computed once; each call gets
        its own list."""
        return list(self._output_specs)

    def op_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for n in self.nodes:
            counts[n.op] = counts.get(n.op, 0) + 1
        return counts

    def __repr__(self) -> str:
        return (
            f"<GraphFunction {self.name!r}: {len(self.inputs)} inputs, "
            f"{len(self.nodes)} nodes, {len(self.outputs)} outputs>"
        )

    # -- structural comparison -------------------------------------------------

    def _normal_form(self, top: bool = True):
        def norm_attr(v):
            if isinstance(v, Tensor):
                return ("tensor", v.dtype, v.shape, v.raw().tobytes())
            if isinstance(v, DType):
                return ("dtype", v)
            return v

        return (
            tuple(self.inputs),
            tuple(
                (
                    n.op,
                    n.inputs,
                    tuple(sorted((k, norm_attr(v)) for k, v in n.attrs.items())),
                    n.device,
                    n.out_specs,
                )
                for n in self.nodes
            ),
            self.outputs,
            tuple(
                (name, f._normal_form(top=False))
                for name, f in sorted(self.library.items())
            ),
        )

    def structurally_equal(self, other: "GraphFunction") -> bool:
        """Equality up to the (unserialized) top-level function name."""
        return self._normal_form() == other._normal_form()


class GraphBuilder:
    """Accumulates placeholders and nodes while a trace is open."""

    # Building-time refs: ("p", idx) for placeholders, ("n", idx, out) for
    # node outputs. Placeholders may be appended after nodes already exist
    # (closure captures), so the final ids are only assigned at finalize.

    def __init__(self):
        self.placeholders: List[Placeholder] = []
        self.nodes: List[dict] = []

    def add_placeholder(
        self, name: str, dtype: DType, shape: SymShape, is_variable_ref: bool = False
    ):
        self.placeholders.append(Placeholder(name, dtype, tuple(shape), is_variable_ref))
        return ("p", len(self.placeholders) - 1)

    def add_node(
        self,
        op: str,
        inputs: Sequence,
        attrs: Dict[str, Any],
        device: Optional[DeviceName],
        out_specs: Sequence[Tuple[DType, SymShape]],
    ):
        """Append a node; the builder keeps ``attrs`` itself, not a copy, so
        the caller must not change it afterwards."""
        idx = len(self.nodes)
        self.nodes.append((op, inputs, attrs, device, tuple(out_specs)))
        return [("n", idx, j) for j in range(len(out_specs))]

    def finalize(
        self,
        name: str,
        output_refs: Sequence,
        output_names: Sequence[str],
        library: Optional[Dict[str, GraphFunction]] = None,
    ) -> GraphFunction:
        n_in = len(self.placeholders)

        def to_ref(bref) -> Ref:
            if bref[0] == "p":
                return (bref[1], 0)
            return (n_in + bref[1], bref[2])

        nodes = [
            Node(op, tuple([to_ref(r) for r in inputs]), attrs, device, out_specs)
            for op, inputs, attrs, device, out_specs in self.nodes
        ]
        outputs = [
            (oname, to_ref(oref)) for oname, oref in zip(output_names, output_refs)
        ]
        return GraphFunction(name, self.placeholders, nodes, outputs, library)


def add_to_library(library: Dict[str, GraphFunction], gf: GraphFunction) -> str:
    """Add ``gf`` under its name, or ``name_v{i}`` with the first free ``i``
    when another function holds the name; returns the name used."""
    name = gf.name
    if name in library and library[name] is not gf:
        i = 1
        while f"{name}_v{i}" in library:
            i += 1
        name = f"{name}_v{i}"
    library[name] = gf
    return name


# ---------------------------------------------------------------------------
# Statefulness, reachability, and the optimizer passes
# ---------------------------------------------------------------------------


def node_is_stateful(node: Node, library: Dict[str, GraphFunction]) -> bool:
    """A node is stateful if its op is, or if a function it calls is."""
    if node.op in FUNCTION_ATTRS:
        for attr_name in FUNCTION_ATTRS[node.op]:
            fn_name = node.attrs.get(attr_name)
            callee = library.get(fn_name) if isinstance(fn_name, str) else None
            if callee is not None and graph_is_stateful(callee):
                return True
        return False
    return get_runtime().registry.get(node.op).stateful


def graph_is_stateful(gf: GraphFunction) -> bool:
    return any(node_is_stateful(n, gf.library) for n in gf.nodes)


def _referenced_functions(nodes: Sequence[Node]) -> set:
    names = set()
    for n in nodes:
        for attr_name in FUNCTION_ATTRS.get(n.op, ()):
            v = n.attrs.get(attr_name)
            if isinstance(v, str):
                names.add(v)
    return names


def _rebuild(
    gf: GraphFunction, kept: Sequence[int], folded: Dict[int, List[Optional[Node]]]
) -> GraphFunction:
    """``gf`` with only the nodes at the indices ``kept``, in order.

    A kept index in ``folded`` is replaced by its constant nodes, one per
    output (``None`` for an output nothing reads). A kept node whose inputs
    did not move is reused as it is.
    """
    n_in = len(gf.inputs)
    nodes: List[Node] = []
    moved: Dict[Ref, Ref] = {}  # old ref -> new ref, for the refs that moved
    for i in kept:
        old_vid = n_in + i
        consts = folded.get(i)
        if consts is not None:
            for j, const in enumerate(consts):
                if const is not None:
                    moved[(old_vid, j)] = (n_in + len(nodes), 0)
                    nodes.append(const)
            continue
        node = gf.nodes[i]
        if moved:
            inputs = tuple([moved.get(r, r) for r in node.inputs])
            if inputs != node.inputs:
                node = Node(node.op, inputs, node.attrs, node.device, node.out_specs)
        vid = n_in + len(nodes)
        if vid != old_vid:
            for j in range(len(node.out_specs)):
                moved[(old_vid, j)] = (vid, j)
        nodes.append(node)
    outputs = [(name, moved.get(ref, ref)) for name, ref in gf.outputs]
    library = gf.library
    if library:
        names = _referenced_functions(nodes)
        library = {k: v for k, v in library.items() if k in names}
    return GraphFunction(gf.name, gf.inputs, nodes, outputs, library)


def prune(gf: GraphFunction) -> GraphFunction:
    """Drop stateless nodes that neither outputs nor stateful nodes reach.

    Stateful nodes are always retained (their effects are the point), and so
    is everything upstream of them. Idempotent; semantics-preserving.
    """
    n_in = len(gf.inputs)
    nodes = gf.nodes
    keep = [False] * len(nodes)
    for _, (vid, _) in gf.outputs:
        if vid >= n_in:
            keep[vid - n_in] = True
    # Every consumer of node i comes after it, so a reverse walk settles
    # keep[i] before visiting i; a kept node needs no statefulness test.
    for i in range(len(nodes) - 1, -1, -1):
        node = nodes[i]
        if keep[i] or node_is_stateful(node, gf.library):
            keep[i] = True
            for vid, _ in node.inputs:
                if vid >= n_in:
                    keep[vid - n_in] = True
    if all(keep):
        return gf
    return _rebuild(gf, [i for i, k in enumerate(keep) if k], {})


# ``executor`` imports this module and evaluates nodes for folding; it binds
# its ``run_node_for_folding`` here when it is imported.
run_node_for_folding = None


def constant_fold(gf: GraphFunction) -> GraphFunction:
    """Evaluate stateless nodes whose inputs are all constants.

    Folded nodes are replaced by constant nodes holding the eagerly computed
    values. A kernel failure during folding keeps the node untouched. Nodes
    are visited in topological order, so one pass reaches the fixpoint.
    When anything folds, every constant left without a consumer is dropped,
    so folding and pruning commute.
    """
    n_in = len(gf.inputs)
    const_vals: Dict[Ref, Tensor] = {}
    folded_outs: Dict[int, List[Tensor]] = {}
    for i, node in enumerate(gf.nodes):
        if node.op == "constant":
            const_vals[(n_in + i, 0)] = node.attrs["value"]
            continue
        if not all(r in const_vals for r in node.inputs) or node_is_stateful(
            node, gf.library
        ):
            continue
        try:
            outs = run_node_for_folding(
                node, [const_vals[r] for r in node.inputs], gf.library
            )
        except KernelError:
            continue
        folded_outs[i] = outs
        for j, value in enumerate(outs):
            const_vals[(n_in + i, j)] = value
    if not folded_outs:
        return gf

    # What is read once the folded nodes no longer read their inputs.
    used = {ref for _, ref in gf.outputs}
    for i, node in enumerate(gf.nodes):
        if i not in folded_outs:
            used.update(node.inputs)
    folded: Dict[int, List[Optional[Node]]] = {}
    for i, outs in folded_outs.items():
        device = gf.nodes[i].device
        folded[i] = [
            Node("constant", (), {"value": value}, device,
                 ((value.dtype, value.shape),))
            if (n_in + i, j) in used else None
            for j, value in enumerate(outs)
        ]
    kept = [
        i for i, node in enumerate(gf.nodes)
        if node.op != "constant" or (n_in + i, 0) in used
    ]
    return _rebuild(gf, kept, folded)


def optimize(gf: GraphFunction) -> GraphFunction:
    """The finalize-time pipeline: prune, then fold constants.

    Pruning first means no dead node is evaluated or rebuilt; the result is
    the graph that ``prune(constant_fold(gf))`` gives. A graph that neither
    pass changes comes back as the same object.
    """
    return constant_fold(prune(gf))

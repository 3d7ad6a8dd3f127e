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
bit-identical to unfolded ones. ``optimize`` marks what prune keeps, folds
only that, and rebuilds once. Folding drops the constants it leaves without
a consumer, so the result is also the graph that folding first and pruning
after gives. Each pass hands back the graph itself when it changes nothing,
and otherwise builds one new graph that reuses every node whose inputs did
not move. Nodes are named tuples, built without a setattr per field.
"""
from __future__ import annotations

from functools import partial
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

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


class Placeholder(NamedTuple):
    name: str
    dtype: DType
    shape: SymShape
    is_variable_ref: bool = False


class Node(NamedTuple):
    op: str
    inputs: Tuple[Ref, ...]
    attrs: Dict[str, Any]
    device: Optional[DeviceName]
    out_specs: Tuple[Tuple[DType, SymShape], ...]


# A Node from the tuple of its fields, without a Python frame per node.
new_node = partial(tuple.__new__, Node)


class GraphFunction:
    """Immutable once constructed; safe to share across threads."""

    def __init__(
        self,
        name: str,
        inputs: Sequence[Placeholder],
        nodes: Sequence[Node],
        outputs: Sequence[Tuple[str, Ref]],
        library: Optional[Dict[str, "GraphFunction"]] = None,
        *,
        nodes_of: Optional["GraphFunction"] = None,
        _refs_checked: bool = False,
    ):
        self.name = name
        self.inputs: Tuple[Placeholder, ...] = tuple(inputs)
        self.nodes: Tuple[Node, ...] = tuple(nodes)
        self.outputs: Tuple[Tuple[str, Ref], ...] = tuple(outputs)
        self.library: Dict[str, GraphFunction] = dict(
            sorted((library or {}).items())
        )
        # ``nodes_of``: a graph with these very tuples; only outputs are new.
        if _refs_checked:  # by SGF1 decode: each names an earlier value
            self._validate(refs=False)
        elif nodes_of is None or self.nodes is not nodes_of.nodes or (
                self.inputs is not nodes_of.inputs):
            self._validate()
        self._output_specs = self._checked_output_specs()
        self._plan = None  # compiled executor plan, set lazily
        self._fwd_bwd = None  # derived (forward variant, backward fn), set lazily
        self._bwd_by_mask: Dict[Tuple[bool, ...], Any] = {}  # backward_for's cache
        self._grad_paths = None  # backprop._grad_paths, set lazily

    # -- well-formedness -----------------------------------------------------

    def _validate(self, refs: bool = True) -> None:
        n_in = len(self.inputs)
        nodes = self.nodes
        for end, node in enumerate(nodes, n_in):  # end: the node's value id
            for vid, out_idx in node.inputs if refs else ():
                if vid < 0 or vid >= end:
                    raise CorruptGraph(
                        f"{self.name}: node {end - n_in} ({node.op}) references "
                        f"value {vid} that is not an input or an earlier node"
                    )
                if vid >= n_in and out_idx >= len(nodes[vid - n_in].out_specs):
                    raise CorruptGraph(
                        f"{self.name}: node {end - n_in} references missing "
                        f"output {out_idx} of node {vid - n_in}"
                    )
            if node.op in VARIABLE_OPS and not (
                node.inputs and node.inputs[0][0] < n_in
                and self.inputs[node.inputs[0][0]].is_variable_ref
            ):
                raise CorruptGraph(
                    f"{self.name}: node {end - n_in} ({node.op}) must take a "
                    "variable input placeholder as its first input"
                )

    def _checked_output_specs(self) -> tuple:
        n_in, n_values = len(self.inputs), len(self.inputs) + len(self.nodes)
        specs = []
        for _, (vid, out_idx) in self.outputs:
            if 0 <= vid < n_in:
                ph = self.inputs[vid]
                specs.append((ph.dtype, ph.shape))
            elif n_in <= vid < n_values and out_idx < len(
                    out_specs := self.nodes[vid - n_in].out_specs):
                specs.append(out_specs[out_idx])
            else:
                raise CorruptGraph(f"{self.name}: dangling output reference")
        return tuple(specs)

    @property
    def serializable(self) -> bool:  # no host_call here or in the library
        return all(n.op != "host_call" for n in self.nodes) and all(
            f.serializable for f in self.library.values())

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
        if len(out_specs) == 1:
            return [("n", idx, 0)]
        return [("n", idx, j) for j in range(len(out_specs))]

    def finalize(
        self,
        name: str,
        output_refs: Sequence,
        output_names: Sequence[str],
        library: Optional[Dict[str, GraphFunction]] = None,
    ) -> GraphFunction:
        n_in = len(self.placeholders)
        nodes = [
            new_node((op, tuple([
                (n_in + r[1], r[2]) if r[0] == "n" else (r[1], 0) for r in inputs
            ]), attrs, device, out_specs))
            for op, inputs, attrs, device, out_specs in self.nodes
        ]
        outputs = [
            (oname, (n_in + r[1], r[2]) if r[0] == "n" else (r[1], 0))
            for oname, r in zip(output_names, output_refs)
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
    gf: GraphFunction, kept: Sequence[int], folded: Dict[int, List[Optional[Node]]],
    outputs: Optional[Sequence[Tuple[str, Ref]]] = None,
) -> GraphFunction:
    """``gf`` with only the nodes at the indices ``kept``, in order, and
    ``outputs`` (default: ``gf``'s) of those.

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
                node = new_node((node.op, inputs, *node[2:]))
        vid = n_in + len(nodes)
        if vid != old_vid:
            for j in range(len(node.out_specs)):
                moved[(old_vid, j)] = (vid, j)
        nodes.append(node)
    outputs = [(name, moved.get(ref, ref))
               for name, ref in (gf.outputs if outputs is None else outputs)]
    library = gf.library
    if library:
        names = _referenced_functions(nodes)
        library = {k: v for k, v in library.items() if k in names}
    return GraphFunction(gf.name, gf.inputs, nodes, outputs, library)


def prune(
    gf: GraphFunction, outputs: Optional[Sequence[Tuple[str, Ref]]] = None
) -> GraphFunction:
    """Drop stateless nodes that neither outputs nor stateful nodes reach.

    Stateful nodes are always retained (their effects are the point), and so
    is everything upstream of them. Given ``outputs`` (named refs of values
    of ``gf``), the result has those outputs. Idempotent;
    semantics-preserving.
    """
    return _optimized(gf, outputs, fold=False)


def constant_fold(gf: GraphFunction) -> GraphFunction:
    """Evaluate stateless nodes whose inputs are all constants.

    Folded nodes are replaced by constant nodes holding the eagerly computed
    values. A kernel failure during folding keeps the node untouched. Nodes
    are visited in topological order, so one pass reaches the fixpoint.
    When anything folds, every constant left without a consumer is dropped,
    so folding and pruning commute.
    """
    return _optimized(gf, None, prune=False)


def optimize(gf: GraphFunction) -> GraphFunction:
    """The finalize-time pipeline: prune, then fold constants, in one pass.

    Only the nodes prune keeps are folded, and the graph is rebuilt once:
    the result is ``constant_fold(prune(gf))``, which is also
    ``prune(constant_fold(gf))``. A graph that neither pass changes comes
    back as the same object.
    """
    return _optimized(gf, None)


# ``executor`` imports this module and evaluates nodes for folding; it binds
# its ``run_node_for_folding`` here when it is imported.
run_node_for_folding = None


def _optimized(gf: GraphFunction, outputs, prune: bool = True, fold: bool = True):
    """Mark what ``prune`` keeps (toward ``outputs`` in place of ``gf``'s,
    if given), fold only those nodes, then build the result once."""
    n_in = len(gf.inputs)
    nodes = gf.nodes
    keep = [not prune] * (n_in + len(nodes))  # per value id
    if prune:
        for _, (vid, _) in gf.outputs if outputs is None else outputs:
            keep[vid] = True
        # Every consumer of a node comes after it, so a reverse walk settles
        # whether a node is kept before visiting it.
        for vid, node in zip(range(len(keep) - 1, n_in - 1, -1), reversed(nodes)):
            if keep[vid] or node_is_stateful(node, gf.library):
                keep[vid] = True
                for ref_vid, _ in node.inputs:
                    keep[ref_vid] = True
    const_vals: Dict[Ref, Tensor] = {}
    folded_outs: Dict[int, List[Tensor]] = {}
    for vid, node in enumerate(nodes if fold else (), n_in):
        if not keep[vid]:
            continue
        if node.op == "constant":
            const_vals[(vid, 0)] = node.attrs["value"]
            continue
        if not all(map(const_vals.__contains__, node.inputs)) or node_is_stateful(
            node, gf.library
        ):
            continue
        try:
            outs = run_node_for_folding(
                node, [const_vals[r] for r in node.inputs], gf.library
            )
        except KernelError:
            continue
        folded_outs[vid - n_in] = outs
        for j, value in enumerate(outs):
            const_vals[(vid, j)] = value
    keep = keep[n_in:]  # per node
    if not folded_outs:
        if all(keep):
            return gf if outputs is None else GraphFunction(
                gf.name, gf.inputs, nodes, outputs, gf.library, nodes_of=gf)
        return _rebuild(gf, [i for i, k in enumerate(keep) if k], {}, outputs)

    # What is read once the folded nodes no longer read their inputs.
    used = {ref for _, ref in gf.outputs}
    for i, node in enumerate(nodes):
        if keep[i] and i not in folded_outs:
            used.update(node.inputs)
    folded: Dict[int, List[Optional[Node]]] = {}
    for i, outs in folded_outs.items():
        device = nodes[i].device
        folded[i] = [
            Node("constant", (), {"value": value}, device,
                 ((value.dtype, value.shape),))
            if (n_in + i, j) in used else None
            for j, value in enumerate(outs)
        ]
    return _rebuild(gf, [
        i for i, node in enumerate(nodes)
        if keep[i] and (node.op != "constant" or (n_in + i, 0) in used)
    ], folded)

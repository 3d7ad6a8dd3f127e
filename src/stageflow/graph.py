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

``checked_node`` is the one check of a node; every recorded, hand-built or
decoded node passes it once. Graphs derived from checked nodes (finalize,
the optimizer passes, forward variants) pass ``_checked=True`` instead.
"""
from __future__ import annotations

from functools import partial
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .devices import DeviceName, as_device_name
from .dtypes import DType, SymShape
from .errors import (
    ArityMismatch, AttrMismatch, CorruptGraph, KernelError, UnknownDevice, UnknownOp,
)
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
        _checked: bool = False,
    ):
        """Each node passes ``checked_node``, which gives its attrs and
        specs (its AttrMismatch and UnknownDevice raised as CorruptGraph
        naming the node), and each output names a tensor value; a malformed
        argument is CorruptGraph too. ``_checked``: the library derived the
        nodes and outputs from a graph that already passed."""
        if not _checked:
            try:
                inputs, library = tuple(inputs), dict(library or {})
                scope = NodeScope.of(inputs, library)
                checked, values, n_in = [], scope.values, len(inputs)
                for k, (op, refs, attrs, device, specs) in enumerate(nodes):
                    try:
                        node = checked_node(k, op, refs, attrs, device, specs, scope)
                    except (AttrMismatch, UnknownDevice) as e:
                        raise CorruptGraph(f"node {k}: {e}") from None
                    checked.append(new_node(node))
                    for j, spec in enumerate(node[4]):
                        values[n_in + k, j] = spec
                nodes, outputs = checked, tuple(outputs)
                scope.check_outputs(name, [r for _, r in outputs], [o for o, _ in outputs])
            except (AttributeError, TypeError, ValueError) as e:
                raise CorruptGraph(f"{name}: malformed graph: {type(e).__name__}: {e}") from None
        self.name = name
        self.inputs: Tuple[Placeholder, ...] = tuple(inputs)
        self.nodes: Tuple[Node, ...] = tuple(nodes)
        self.outputs: Tuple[Tuple[str, Ref], ...] = tuple(outputs)
        self.library: Dict[str, GraphFunction] = dict(
            sorted((library or {}).items())
        )
        self._output_specs = tuple([self.spec_of(ref) for _, ref in self.outputs])
        self._plan = None  # compiled executor plan, set lazily
        self._fwd_bwd = None  # derived (forward variant, backward fn), set lazily
        self._bwd_by_mask: Dict[Tuple[bool, ...], Any] = {}  # backward_for's cache
        self._grad_paths = None  # backprop._grad_paths, set lazily

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


class NodeScope(NamedTuple):
    """What the next node of a graph under construction may refer to."""

    values: Dict[tuple, Tuple[DType, SymShape]]  # each earlier value's ref -> spec
    variables: set  # the refs of the variable-reference placeholders
    library: Dict[str, "GraphFunction"]  # what function attrs name
    env: Any  # a KernelEnv, which resolves function attrs in ``library``
    ops: Dict[str, Any]  # the op registry's definitions, by name

    @classmethod
    def of(cls, inputs: Sequence[Placeholder], library: Dict[str, "GraphFunction"]):
        """The scope of a graph's first node: ``inputs`` at ``(index, 0)``."""
        rt = get_runtime()
        return cls(
            {(i, 0): (ph.dtype, ph.shape) for i, ph in enumerate(inputs)},
            {(i, 0) for i, ph in enumerate(inputs) if ph.is_variable_ref}, library,
            _kernels.KernelEnv(rt.devices[0].name, (library,)), rt.registry._defs)

    def check_outputs(self, graph: str, refs: Sequence, names: Sequence) -> None:
        """CorruptGraph unless each of ``refs`` names a tensor value in
        scope (not a variable) and has a name."""
        values, variables = self.values, self.variables
        if len(refs) != len(names) or not all(
                isinstance(r, tuple) and r in values and r not in variables
                and isinstance(o, str)
                for r, o in zip(refs, names)):
            raise CorruptGraph(f"{graph}: an output names no tensor value")


def checked_node(k, op, inputs, attrs, device, out_specs, scope: NodeScope) -> tuple:
    """The fields of node ``k``, checked: a known op (UnknownOp) with that
    many inputs (ArityMismatch), canonical attrs (AttrMismatch), each graph
    function attr put in the scope's library and named there, and a
    canonical device (UnknownDevice); inputs that name earlier values in
    ``scope``, with variable placeholders just at a variable op's input 0
    and where the graphs a call, cond or while_loop node runs take them
    (CorruptGraph); and the specs the op's ``infer`` gives, which declared
    ``out_specs`` (None: none) must equal (CorruptGraph)."""
    try:
        op_def = scope.ops[op]
    except (KeyError, TypeError):
        raise UnknownOp(f"unknown op {op!r}") from None
    try:
        inputs = tuple(inputs)
        in_specs = [*map(scope.values.__getitem__, inputs)]
    except (KeyError, TypeError):
        raise CorruptGraph(f"node {k} references a missing or later value") from None
    if op_def.input_arity is not None and len(inputs) != op_def.input_arity:
        raise ArityMismatch(f"{op} takes {op_def.input_arity} inputs, got {len(inputs)}")
    attrs = (_ops.canonicalize_attrs(op_def, attrs)
             if attrs is not None or op_def.required_attrs else {})
    variables = scope.variables
    if op in VARIABLE_OPS:
        if not (inputs and inputs[0] in variables) or not variables.isdisjoint(inputs[1:]):
            raise CorruptGraph(f"node {k} ({op}) must take a variable input "
                               "placeholder as its first input, and only there")
    elif op in FUNCTION_ATTRS:
        for name in FUNCTION_ATTRS[op]:
            if isinstance(attrs[name], GraphFunction):
                attrs[name] = add_to_library(scope.library, attrs[name])
        if op == "cond" and inputs and inputs[0] in variables:
            raise CorruptGraph(f"node {k} (cond) takes a variable as its predicate")
        # Specs do not carry kind: match it against each graph the node runs.
        for name, refs in _kernels.callee_inputs(op, attrs, inputs):
            callee = scope.env.resolve_function(attrs[name])
            if any((ref in variables) != ph.is_variable_ref
                   for ref, ph in zip(refs, callee.inputs)):
                raise CorruptGraph(f"node {k} ({op}) passes a variable where "
                                   f"{callee.name} takes a tensor, or the reverse")
    elif variables and not variables.isdisjoint(inputs):
        raise CorruptGraph(f"node {k} ({op}) takes a variable input placeholder")
    if device is not None:
        device = as_device_name(device)
    specs = tuple(op_def.infer(attrs, in_specs, scope.env))
    if out_specs is not None and (
            type(out_specs) not in (list, tuple) or tuple(out_specs) != specs):
        raise CorruptGraph(
            f"node {k} ({op}) declares outputs {out_specs!r}, but infers {list(specs)}")
    return op, inputs, attrs, device, specs


class GraphBuilder:
    """Accumulates placeholders and checked nodes, for a trace or by hand."""

    # Building-time refs: ("p", idx) for placeholders, ("n", idx, out) for
    # node outputs. Placeholders may be appended after nodes already exist
    # (closure captures), so the final ids are only assigned at finalize.

    def __init__(self, library: Optional[Dict[str, GraphFunction]] = None):
        """``library``: the functions that function attrs may name; a graph
        function given as an attr is added to it."""
        self.placeholders: List[Placeholder] = []
        self.nodes: List[tuple] = []  # Node fields, with building-time refs
        self.library: Dict[str, GraphFunction] = dict(library or {})
        self._scope = NodeScope.of((), self.library)

    def add_placeholder(
        self, name: str, dtype: DType, shape: SymShape, is_variable_ref: bool = False
    ):
        ref, shape = ("p", len(self.placeholders)), tuple(shape)
        self.placeholders.append(Placeholder(name, dtype, shape, is_variable_ref))
        self._scope.values[ref] = (dtype, shape)
        if is_variable_ref:
            self._scope.variables.add(ref)
        return ref

    def add_node(
        self,
        op: str,
        inputs: Sequence,
        attrs: Optional[Dict[str, Any]],
        device: Optional[DeviceName],
        out_specs: Optional[Sequence[Tuple[DType, SymShape]]],
    ):
        """Append ``op`` on ``inputs`` (building-time refs) if it passes
        ``checked_node``, which gives its attrs and output specs (None
        declares none); return its output refs. Calls resolve in ``library``."""
        idx = len(self.nodes)
        node = checked_node(idx, op, inputs, attrs, device, out_specs, self._scope)
        self.nodes.append(node)
        specs = node[4]
        if len(specs) == 1:
            ref = ("n", idx, 0)
            self._scope.values[ref] = specs[0]
            return [ref]
        refs = [("n", idx, j) for j in range(len(specs))]
        self._scope.values.update(zip(refs, specs))
        return refs

    def finalize(self, name: str, output_refs: Sequence,
                 output_names: Sequence[str]) -> GraphFunction:
        """The graph with these named outputs, building-time refs to tensor
        values (CorruptGraph)."""
        output_refs, output_names = list(output_refs), list(output_names)
        self._scope.check_outputs(name, output_refs, output_names)
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
        return GraphFunction(name, self.placeholders, nodes, outputs, self.library,
                             _checked=True)


def add_to_library(library: Dict[str, GraphFunction], gf: GraphFunction) -> str:
    """The name of ``gf`` in ``library``: its own, or ``name_v{i}`` with the
    first ``i`` that no other function holds; adds it there if need be."""
    name, i = gf.name, 0
    while library.get(name, gf) is not gf:
        i += 1
        name = f"{gf.name}_v{i}"
    library[name] = gf
    return name


# ---------------------------------------------------------------------------
# Statefulness, reachability, and the optimizer passes
# ---------------------------------------------------------------------------


def node_is_stateful(node: Node, library: Dict[str, GraphFunction]) -> bool:
    """A node is stateful if its op is, or if a function it calls (named in
    ``library``, as the node check left it) is."""
    if node.op in FUNCTION_ATTRS:
        return any(graph_is_stateful(library[node.attrs[a]]) for a in FUNCTION_ATTRS[node.op])
    return get_runtime().registry.get(node.op).stateful


def graph_is_stateful(gf: GraphFunction) -> bool:
    return any(node_is_stateful(n, gf.library) for n in gf.nodes)


def _referenced_functions(nodes: Sequence[Node]) -> set:
    return {n.attrs[a] for n in nodes for a in FUNCTION_ATTRS.get(n.op, ())}


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
    return GraphFunction(gf.name, gf.inputs, nodes, outputs, library, _checked=True)


def prune(gf: GraphFunction) -> GraphFunction:
    """Drop stateless nodes that neither outputs nor stateful nodes reach.

    Stateful nodes are always retained (their effects are the point), and so
    is everything upstream of them. Idempotent; semantics-preserving.
    """
    return _optimized(gf, None, fold=False)


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
    """Mark what ``prune`` keeps (toward ``outputs``, named refs of values
    of ``gf``, in place of its own if given), fold only those nodes, then
    build the result once."""
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
                gf.name, gf.inputs, nodes, outputs, gf.library, _checked=True)
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


# ``kernels`` and ``ops`` import this module: bind them once it is complete.
from . import kernels as _kernels, ops as _ops  # noqa: E402

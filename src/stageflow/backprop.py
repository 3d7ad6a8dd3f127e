"""The reverse pass, and the derived functions of graph functions.

One reverse pass. ``reverse_accumulate`` is the one loop that accumulates
gradients: an eager tape, a tape's traced replay plan and a staged
derivation all run it. It walks ``TapeEntry`` records whose values are keyed
by anything hashable: a tape keys them by object identity, a derivation by
the graph's ``(value id, output index)`` refs. A forward walk from the
source keys marks every value they reach; the reverse walk skips an entry
that no source or no gradient reaches, and tells each entry which of its
inputs are reached (``GradContext.needs``), so no gradient toward a constant
is computed. An op entry hands its rule a ``GradContext`` over its saved
values (``TapeEntry.backprop``). A staged call's entry, on a tape or in a
derivation, runs ``call_backward``; a host call's runs
``host_call_backward``.

The first time a graph function is called while a tape watches one of its
inputs, two derived functions are built from it and cached:

* a *forward variant*: the same graph, with every intermediate value the
  backward pass needs appended as an extra named output (nested function
  calls on the gradient path are rewritten to call the callee's own forward
  variant, so intermediates thread out through call boundaries);
* a *backward function*: a fresh graph that maps
  ``(output gradients..., saved values...)`` to gradients for every float
  input, built by running the reverse pass over one entry per forward node,
  toward the float inputs, inside a new trace.

A rule reads saved values lazily, so the forward variant saves only the
values that the needed gradients read, and computes a needed gradient with
the same ops either way, so the gradients are bit-identical to a
derivation toward every input. The tape entry for the call stores the
saved values, so no eager math runs in the backward of a staged call.

A tape wants only the gradients of inputs that reach one of its sources.
``backward_for`` serves a mask of wanted float inputs with a backward
function that keeps just those outputs of the full one and prunes the nodes
no kept output or stateful node reaches. It takes the same inputs, so the
forward variant and the saved values stay one per graph, and no mask needs
a second derivation. The kept nodes are the full backward's own, so the
gradients are bit-identical to the full backward's. ``call_backward`` runs
the masked backward for the inputs its caller needs, on a tape and for a
nested call alike.

A node without a gradient rule (a staged ``cond`` or ``while_loop``) drops
the gradient that reaches it. ``_grad_paths`` records, per value, each such
node its gradient reaches and the inputs that reach that node. The tape
entry of a staged call raises NotDifferentiable (``refuse_dropped``) when a
gradient would be dropped on its way to an input the tape needs, rather
than passing zero; other outputs and inputs differentiate as usual.
"""
from __future__ import annotations

from typing import Dict, List, Tuple

from .errors import NotDifferentiable, StagingError
from .escape import backward_callback_for
from .gradients import GradContext, zeros_for
from .graph import GraphFunction, Node, _optimized, add_to_library
from .ops import add, dispatch
from .runtime import get_runtime

SavedDesc = Tuple  # ("input", placeholder index) | ("extra", fwd extra index)

# Ops whose gradients are derived from their callee or callback, not looked
# up: their entries bring their own backward.
_DERIVED = ("call_function", "host_call")


class TapeEntry:
    """One recorded op application, as the reverse pass sees it.

    ``input_ids``/``output_ids`` key its values. An op entry keeps its
    ``op_def`` and ``attrs`` and hands its rule the ``saved_inputs`` and
    ``saved_outputs`` (the values, or ``LazyReads`` that make each at its
    first read) and the ``in_specs`` (None: read from the saved inputs). A
    custom entry (a staged or host call, an op whose gradient raises or is
    dropped) brings a prebuilt ``backward`` closure instead.
    """

    __slots__ = ("op", "input_ids", "output_ids", "saved_inputs", "saved_outputs",
                 "op_def", "attrs", "backward", "in_specs")

    def __init__(self, op, input_ids, output_ids, saved_inputs, saved_outputs,
                 op_def=None, attrs=None, backward=None, in_specs=None):
        self.op = op
        self.input_ids = input_ids
        self.output_ids = output_ids
        self.saved_inputs = saved_inputs
        self.saved_outputs = saved_outputs
        self.op_def = op_def
        self.attrs = attrs
        self.backward = backward
        self.in_specs = in_specs

    def backprop(self, out_grads, needs) -> List[Tuple[object, object]]:
        """``(input key, gradient)`` contributions for upstream
        ``out_grads``. ``needs`` flags the inputs whose gradient is wanted;
        op rules and custom entries compute only those."""
        if self.backward is not None:
            return self.backward(out_grads, needs)
        grads = self.op_def.gradient(GradContext(
            self.attrs, self.saved_inputs.__getitem__,
            self.saved_outputs.__getitem__, self.in_specs, out_grads, needs,
        ))
        keys = self.input_ids
        return [(keys[i], g) for i, g in enumerate(grads) if g is not None]


class LazyReads:
    """Indexable: ``read(keys[i])`` at ``i``, made when a rule reads it."""

    __slots__ = ("read", "keys")

    def __init__(self, read, keys):
        self.read = read
        self.keys = keys

    def __getitem__(self, i):
        return self.read(self.keys[i])


def reverse_accumulate(entries, seeds: Dict, source_keys) -> Dict:
    """Gradients by key, accumulated in reverse over ``entries`` (in
    recording order) from ``seeds`` (key to gradient). Only the entries a
    source key reaches run, and an input that no source reaches gets no
    gradient computed."""
    reach = set(source_keys)
    for entry in entries:
        for key in entry.input_ids:
            if key in reach:
                reach.update(entry.output_ids)
                break
    grads = dict(seeds)
    for entry in reversed(entries):
        out_grads = list(map(grads.get, entry.output_ids))
        if not any(out_grads):  # a tensor is always true
            continue
        needs = list(map(reach.__contains__, entry.input_ids))
        if not any(needs):
            continue
        for key, g in entry.backprop(out_grads, needs):
            prev = grads.get(key)
            grads[key] = g if prev is None else add(prev, g)
    return grads


def call_backward(gf: GraphFunction, out_grads, saved: list, needs):
    """``(input position, gradient)`` pairs of a call of ``gf`` that saved
    ``saved`` (its forward variant's saved values, as ``saved_desc`` lists
    them): zeros stand in for None output gradients, and the staged backward
    for the float inputs flagged in ``needs`` runs as a call."""
    float_pos = get_forward_backward(gf)[3]
    wanted = tuple([needs[p] for p in float_pos])
    seeds = [
        g if g is not None else zeros_for(spec)
        for g, spec in zip(out_grads, gf.output_specs)
    ]
    grads = _staging.call_concrete(backward_for(gf, wanted), seeds + saved)
    return zip([p for p, w in zip(float_pos, wanted) if w], grads)


def host_call_backward(cb_id: int, in_specs: Tuple, out_specs, read_input, keys):
    """The backward of a host call of callback ``cb_id`` on inputs of
    ``in_specs``, read by position with ``read_input`` and keyed by
    ``keys``: a host call of the callback's derived VJP on the inputs and
    the output gradients (zeros for None), which gives every float input a
    gradient."""

    def backward(out_grads, needs):
        bwd_id, float_in = backward_callback_for(cb_id, in_specs)
        args = [read_input(k) for k in range(len(in_specs))]
        args += [
            g if g is not None else zeros_for(spec)
            for g, spec in zip(out_grads, out_specs)
        ]
        results = dispatch("host_call", args, {"callback": bwd_id})
        return [(keys[p], g) for p, g in zip(float_in, results)]

    return backward


def get_forward_backward(gf: GraphFunction):
    cached = getattr(gf, "_fwd_bwd", None)
    if cached is None:
        cached = _build(gf)
        gf._fwd_bwd = cached
    return cached


def backward_for(gf: GraphFunction, wanted: Tuple[bool, ...]):
    """The backward function of ``gf`` returning only the gradients of the
    float inputs flagged in ``wanted`` (one flag per float input, in input
    order); cached per graph and mask."""
    bwd_cf = get_forward_backward(gf)[1]
    if all(wanted):
        return bwd_cf
    cf = gf._bwd_by_mask.get(wanted)
    if cf is None:
        full = bwd_cf.graph
        pruned = _optimized(full, [o for o, w in zip(full.outputs, wanted) if w], fold=False)
        cf = gf._bwd_by_mask.setdefault(
            wanted,
            _staging.ConcreteFunction(pruned, bwd_cf.materialize_captured(), "list"),
        )
    return cf


def _grad_paths(gf: GraphFunction) -> Dict[Tuple[int, int], frozenset]:
    """For each value a float input reaches, what a gradient at it reaches:
    the positions of the float inputs, and ``(description, positions)`` for
    each node without a gradient rule, with the positions of the float
    inputs that reach that node. Reach passes through the nodes a tape
    records: a call, a node with a gradient rule, and one without a rule
    that has a float output. Cached per graph."""
    if gf._grad_paths is None:
        n_in = len(gf.inputs)
        paths = {
            (p, 0): frozenset((p,)) for p, ph in enumerate(gf.inputs) if ph.dtype.is_float
        }
        defs = get_runtime().registry
        for i, node in enumerate(gf.nodes):
            if not any(map(paths.__contains__, node.inputs)):
                continue
            ins = [paths.get(r, frozenset()) for r in node.inputs]
            if node.op == "call_function":
                callee = gf.library[node.attrs["function"]]
                c_paths = _grad_paths(callee)
                outs = [
                    frozenset(_through_call(c_paths.get(r, ()), ins))
                    for _, r in callee.outputs
                ]
            else:
                path = frozenset().union(*ins)
                if node.op not in _DERIVED and defs.get(node.op).gradient is None:
                    if not any(dt.is_float for dt, _ in node.out_specs):
                        continue
                    deps = frozenset(x for x in path if isinstance(x, int))
                    path |= {(f"node {i} ({node.op}) of {gf.name}", deps)}
                outs = [path] * len(node.out_specs)
            for k, path in enumerate(outs):
                paths[(n_in + i, k)] = path
        gf._grad_paths = paths
    return gf._grad_paths


def _through_call(path, ins):
    """A callee output's path in the caller's terms; ``ins`` holds the paths
    of the call's inputs."""
    for x in path:
        if isinstance(x, int):
            yield from ins[x]
        else:
            yield x[0], frozenset(y for d in x[1] for y in ins[d] if isinstance(y, int))


def refuse_dropped(gf: GraphFunction, out_grads, needs) -> None:
    """Raise NotDifferentiable if a gradient in ``out_grads`` (one per output
    of ``gf``, or None) reaches a node without a gradient rule that an input
    flagged in ``needs`` reaches: the backward drops it at that node."""
    paths = _grad_paths(gf)
    for g, (_, ref) in zip(out_grads, gf.outputs):
        if g is None:
            continue
        for x in paths.get(ref, ()):
            if not isinstance(x, int) and any(needs[d] for d in x[1]):
                raise NotDifferentiable(
                    f"cannot differentiate {gf.name}: a gradient reaches "
                    f"{x[0]}, which has no gradient rule"
                )


def _build(gf: GraphFunction):
    rt = get_runtime()
    n_in = len(gf.inputs)
    ts = _staging.TraceState(gf.name + "_bwd")

    needed: List[Tuple[int, int]] = []  # forward refs exported by the variant
    call_rewrites: Dict[int, GraphFunction] = {}
    saved_desc: List[SavedDesc] = []
    saved_syms: Dict[Tuple[int, int], object] = {}

    def saved_value(ref, spec=None):
        # ``spec``: that of an extra output of a rewritten call.
        sym = saved_syms.get(ref)
        if sym is None:
            dt, shape = spec or gf.spec_of(ref)
            sym = ts.add_arg_tensor(f"saved_{len(saved_desc)}", dt, shape)
            if ref[0] < n_in:
                saved_desc.append(("input", ref[0]))
            else:  # each ref is saved once
                saved_desc.append(("extra", len(needed)))
                needed.append(ref)
            saved_syms[ref] = sym
        return sym

    with ts.open():
        # Backward inputs, part 1: one upstream-gradient placeholder per
        # forward output. Part 2, the saved forward values, are made as the
        # reverse pass reads them.
        seeds: Dict[Tuple[int, int], object] = {}
        for name, ref in gf.outputs:
            dt, shape = gf.spec_of(ref)
            if any(d is None for d in shape):
                raise StagingError(
                    f"cannot differentiate {gf.name}: output {name!r} has "
                    "unknown dims (shape-polymorphic functions are not "
                    "differentiable)"
                )
            g = ts.add_arg_tensor(f"grad_{name}", dt, shape)
            prev = seeds.get(ref)
            seeds[ref] = g if prev is None else add(prev, g)

        float_pos = [
            p for p, ph in enumerate(gf.inputs) if ph.dtype.is_float
        ]
        entries = _node_entries(gf, saved_value, call_rewrites)
        grads = reverse_accumulate(entries, seeds, [(p, 0) for p in float_pos])
        out_refs, out_names = [], []
        for p in float_pos:
            ph = gf.inputs[p]
            g = grads.get((p, 0))
            if g is None:
                g = zeros_for((ph.dtype, ph.shape))
            out_refs.append(ts.resolve_input(g))
            out_names.append(f"grad_{ph.name}")

    bwd_gf = ts.finalize(out_refs, out_names)
    bwd_cf = _staging.ConcreteFunction(bwd_gf, ts.capture_values, "list")

    fwd_gf = _assemble_forward_variant(gf, needed, call_rewrites)
    rt.stats.count_derived_trace()
    return fwd_gf, bwd_cf, saved_desc, float_pos


def _node_entries(gf, saved_value, call_rewrites) -> List[TapeEntry]:
    """The entries a tape would record for ``gf``'s nodes, keyed by refs,
    reading saved values through ``saved_value``. A node without a rule
    drops the gradient (see ``refuse_dropped``), and has no entry if it
    has no float output."""
    n_in = len(gf.inputs)
    defs = get_runtime().registry
    entries = []
    for i, node in enumerate(gf.nodes):
        outs = [(n_in + i, k) for k in range(len(node.out_specs))]
        op_def = defs.get(node.op)
        if node.op == "call_function":
            backward = _call_node_backward(gf, i, node, saved_value, call_rewrites)
        elif node.op == "host_call":
            backward = host_call_backward(
                node.attrs["callback"], tuple(map(gf.spec_of, node.inputs)),
                node.out_specs, LazyReads(saved_value, node.inputs).__getitem__,
                node.inputs,
            )
        elif op_def.gradient is not None:
            entries.append(TapeEntry(
                node.op, node.inputs, outs, LazyReads(saved_value, node.inputs),
                LazyReads(saved_value, outs), op_def, node.attrs,
                in_specs=LazyReads(gf.spec_of, node.inputs),
            ))
            continue
        elif any(dt.is_float for dt, _ in node.out_specs):
            backward = _dropped
        else:
            continue
        entries.append(TapeEntry(node.op, node.inputs, outs, (), (), backward=backward))
    return entries


def _dropped(out_grads, needs):
    return ()


def _call_node_backward(gf, i, node, saved_value, call_rewrites):
    """A call node's backward: the forward variant calls the callee's own
    forward variant, whose extra outputs are the callee's saved values."""
    vid = len(gf.inputs) + i
    callee = gf.library[node.attrs["function"]]

    def backward(out_grads, needs):
        c_fwd, _, c_desc, _ = get_forward_backward(callee)
        call_rewrites[i] = c_fwd
        m, specs = len(callee.outputs), c_fwd.output_specs
        saved = [
            saved_value(node.inputs[d[1]]) if d[0] == "input"
            else saved_value((vid, m + d[1]), specs[m + d[1]])
            for d in c_desc
        ]
        return [
            (node.inputs[p], g)
            for p, g in call_backward(callee, out_grads, saved, needs)
        ]

    return backward


def _assemble_forward_variant(gf, needed, call_rewrites) -> GraphFunction:
    library = dict(gf.library)
    nodes = list(gf.nodes)
    for i, c_fwd in call_rewrites.items():
        node = nodes[i]
        attrs = dict(node.attrs, function=add_to_library(library, c_fwd))
        nodes[i] = Node(node.op, node.inputs, attrs, node.device,
                        tuple(c_fwd.output_specs))
    outputs = list(gf.outputs) + [
        (f"saved_{k}", ref) for k, ref in enumerate(needed)
    ]
    return GraphFunction(gf.name + "_fwd", gf.inputs, nodes, outputs, library,
                         _checked=True)


# ``staging`` imports this module, and derivation traces the backward and
# calls concrete functions: the module is bound here, once it is complete.
from . import staging as _staging  # noqa: E402

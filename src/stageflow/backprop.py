"""Differentiation of graph functions.

The first time a graph function is called while a tape watches one of its
inputs, two derived functions are built from it and cached:

* a *forward variant*: the same graph, with every intermediate value the
  backward pass needs appended as an extra named output (nested function
  calls on the gradient path are rewritten to call the callee's own forward
  variant, so intermediates thread out through call boundaries);
* a *backward function*: a fresh graph that maps
  ``(output gradients..., saved values...)`` to gradients for every float
  input, built by running the per-op gradient rules in reverse over the
  forward graph inside a new trace.

Derivation runs only toward float inputs. One forward pass marks the values
a float input reaches; the reverse pass skips every node that no float
input reaches, and tells each rule which of its inputs are reached
(``GradContext.needs``), as the eager tape does. So no
gradient toward a constant is recorded, and the forward variant saves only
the values that the needed gradients read. A rule computes a needed
gradient with the same ops either way, so the gradients are bit-identical
to a derivation toward every input.

The tape entry for the call stores the saved values, so computing the
gradient of a staged forward pass executes the staged backward function —
no eager math runs in the backward pass of a staged computation.

A tape wants only the gradients of inputs that reach one of its sources.
``backward_for`` serves a mask of wanted float inputs with a backward
function that keeps just those outputs of the full one and prunes the nodes
no kept output or stateful node reaches. It takes the same inputs, so the
forward variant and the saved values stay one per graph, and no mask needs
a second derivation. The kept nodes are the full backward's own, so the
gradients are bit-identical to the full backward's.

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
from .ops import _DERIVED, add, dispatch
from .runtime import get_runtime

SavedDesc = Tuple  # ("input", placeholder index) | ("extra", fwd extra index)


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
    paths = _grad_paths(gf)

    needed: List[Tuple[int, int]] = []  # forward refs exported by the variant
    needed_index: Dict[Tuple[int, int], int] = {}
    aug_specs: Dict[Tuple[int, int], Tuple] = {}  # extra outputs of rewritten calls
    call_rewrites: Dict[int, GraphFunction] = {}
    saved_desc: List[SavedDesc] = []
    saved_syms: Dict[Tuple[int, int], object] = {}
    grads: Dict[Tuple[int, int], object] = {}

    def spec_of(ref):
        return aug_specs.get(ref) or gf.spec_of(ref)

    def accumulate(ref, g):
        # A value no float input reaches passes its gradient nowhere.
        if ref in paths:
            prev = grads.get(ref)
            grads[ref] = g if prev is None else add(prev, g)

    with ts.open():
        # Backward inputs, part 1: one upstream-gradient placeholder per
        # forward output.
        for name, ref in gf.outputs:
            dt, shape = gf.spec_of(ref)
            if any(d is None for d in shape):
                raise StagingError(
                    f"cannot differentiate {gf.name}: output {name!r} has "
                    "unknown dims (shape-polymorphic functions are not "
                    "differentiable)"
                )
            accumulate(ref, ts.add_arg_tensor(f"grad_{name}", dt, shape))

        # Backward inputs, part 2 (lazily): saved forward values.
        def saved_value(ref):
            sym = saved_syms.get(ref)
            if sym is None:
                dt, shape = spec_of(ref)
                sym = ts.add_arg_tensor(f"saved_{len(saved_desc)}", dt, shape)
                vid, out_idx = ref
                if vid < n_in:
                    saved_desc.append(("input", vid))
                else:
                    pos = needed_index.get(ref)
                    if pos is None:
                        pos = len(needed)
                        needed.append(ref)
                        needed_index[ref] = pos
                    saved_desc.append(("extra", pos))
                saved_syms[ref] = sym
            return sym

        for i in range(len(gf.nodes) - 1, -1, -1):
            vid = n_in + i
            if (vid, 0) not in paths:  # no float input reaches it: no gradient
                continue
            node = gf.nodes[i]
            out_grads = [grads.get((vid, j)) for j in range(len(node.out_specs))]
            if all(g is None for g in out_grads):
                continue
            if node.op == "call_function":
                _diff_call_node(
                    gf, node, vid, out_grads, saved_value, accumulate,
                    call_rewrites, aug_specs, i,
                )
            elif node.op == "host_call":
                _diff_host_call(gf, node, out_grads, saved_value, accumulate)
            else:
                rule = rt.registry.get(node.op).gradient
                if rule is None:  # dropped; see refuse_dropped
                    continue
                gctx = GradContext(
                    node.attrs,
                    input_fn=lambda k, _n=node: saved_value(_n.inputs[k]),
                    output_fn=lambda k, _v=vid: saved_value((_v, k)),
                    in_specs=[gf.spec_of(r) for r in node.inputs],
                    out_grads=out_grads,
                    needs=[r in paths for r in node.inputs],
                )
                for ref, g in zip(node.inputs, rule(gctx)):
                    if g is not None:
                        accumulate(ref, g)

        float_pos = [
            p for p, ph in enumerate(gf.inputs) if ph.dtype.is_float
        ]
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


def _diff_call_node(
    gf, node, vid, out_grads, saved_value, accumulate, call_rewrites,
    aug_specs, node_idx,
):
    callee = gf.library[node.attrs["function"]]
    c_fwd, c_bwd_cf, c_desc, c_float = get_forward_backward(callee)
    call_rewrites[node_idx] = c_fwd
    m = len(callee.outputs)
    for k in range(m, len(c_fwd.outputs)):
        aug_specs[(vid, k)] = c_fwd.output_specs[k]
    args = []
    for j, spec in enumerate(callee.output_specs):
        g = out_grads[j] if j < len(out_grads) else None
        args.append(g if g is not None else zeros_for(spec))
    for d in c_desc:
        if d[0] == "input":
            args.append(saved_value(node.inputs[d[1]]))
        else:
            args.append(saved_value((vid, m + d[1])))
    results = _staging.call_concrete(c_bwd_cf, args)
    for pos, g in zip(c_float, results):
        accumulate(node.inputs[pos], g)


def _diff_host_call(gf, node, out_grads, saved_value, accumulate):
    in_specs = tuple(gf.spec_of(r) for r in node.inputs)
    bwd_id, float_in = backward_callback_for(node.attrs["callback"], in_specs)
    args = [saved_value(r) for r in node.inputs]
    for j, spec in enumerate(node.out_specs):
        g = out_grads[j] if j < len(out_grads) else None
        args.append(g if g is not None else zeros_for(spec))
    results = dispatch("host_call", args, {"callback": bwd_id})
    for pos, g in zip(float_in, results):
        accumulate(node.inputs[pos], g)


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

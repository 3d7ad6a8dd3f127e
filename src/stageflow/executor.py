"""Dataflow execution of graph functions.

A graph compiles once (lazily, cached on the GraphFunction) into a flat
plan: one step per distinct non-constant value, value slots instead of
refs, constants preloaded. Execution walks the plan in order on the calling
thread, with no host recursion and no thread pool; nested graphs (calls,
branches, loop bodies) run the same way, inline in their node's kernel.

The plan compiler numbers values (global value numbering): a constant or a
pure compute node that computes a value the plan already has gets no step
and no slot of its own. So each distinct pure computation runs once per
call, e.g. the force a staged leapfrog recomputes at each step boundary.
This lives in the plan, not in the graph IR: backward graphs are derived
from the graph as recorded, and a derivation from merged nodes would sum
upstream gradients before propagating them, ``(g1 + g2) * c`` where eager
computes ``g1 * c + g2 * c``, which is not bit-identical. The backward
graphs run through plans too, so they are deduplicated the same way.

Slots hold raw arrays. Every node passed ``graph.checked_node``, which runs
its op's ``infer`` rule, once, so a step trusts its inputs and only
computes. A step is one of two kinds, by what the op's ``OpDef`` has:

* a compute step calls the op's ``compute`` on its input arrays, with the
  node's attrs bound if it has any. For an attr-free elementwise op
  (``add``, ``mul``, ``exp``, ...) that is its array function itself, with
  no wrapper between the plan and numpy. Eager dispatch and constant
  folding call the same function on the same arrays, so the bytes agree;
* a Tensor step (a variable op, ``dropout``, ``call_function``, ``cond``,
  ``while_loop``, ``host_call`` or a custom op with a ``kernel``) calls
  its kernel with Tensors, each slot wrapped at most once per call, and a
  ``KernelEnv`` per pinned device, made at the first Tensor step that
  needs it.

One step loop, two entries. ``execute_graph`` binds the inputs to the
placeholders, then runs ``run_bound``: a staged call outside a trace, a
call, branch or loop node's graph and ``execute`` all enter here, and the
binding is their one input check. It reads a table the plan holds, so an
input that is a concrete tensor of its placeholder's exact spec, or a
variable of it at a variable-reference placeholder, costs one class test
and one spec comparison. A tape replay, whose exact key proved its inputs'
specs, calls ``run_bound`` directly.

Tensors are made only at the graph's edges and for Tensor steps: the inputs
are unwrapped once, at binding; each output is wrapped once, read-only
and C-contiguous, on its node's device (an output that is an input or a
constant comes back as that object, and outputs that share a slot come back
as one object). So a plan of compute steps makes no Tensor and no
``KernelEnv`` between its edges. With several devices, each step
counts the transparent copies eager placement would make for its node (a
merged node runs no step and makes no copies).

Ordering: data edges, plus one program-order chain through all stateful
nodes. The chain is what the per-variable ordering contract requires (it is
deliberately coarser: a single chain also keeps the RNG stream
deterministic). Node order satisfies both, since a graph builder only
appends a node after its inputs and in the order ops were recorded, so
running the plan in order is enough and the order survives serialization
without a wire field.
"""
from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, Sequence

from . import graph, kernels
from .dtypes import matches_spec
from .errors import (
    CallbackError,
    DeadVariable,
    InputMismatch,
    KernelError,
    MissingFunction,
    NotSerializable,
    SignatureViolation,
    StageflowError,
)
from .graph import GraphFunction, Node
from .kernels import KernelEnv, _wrap
from .ops import get_op_def, placement_target
from .runtime import current_context, get_runtime
from .state import Variable
from .tensor import Tensor, move_to

_PASSTHROUGH = (CallbackError, SignatureViolation, DeadVariable, MissingFunction,
                InputMismatch, NotSerializable)
_NO_DEFAULT = object()


class _Plan:
    """A graph compiled to steps over slots, one step per distinct value.

    A step is ``(kind, fn, a, b, out, info)``. A compute node has its arity
    as ``kind``, its input slots as ``a``/``b`` (with more than two inputs,
    ``a`` holds them all) and its output slot as ``out``; ``fn`` is the op's
    compute, taking the input arrays, with the node's attrs bound if it has
    any. A Tensor node has kind -1, its output slots (a range) as ``out``,
    and ``fn`` is its kernel with the attrs bound, taking ``(inputs, env)``.
    ``info`` is ``(node index, op, pinned device, input slots)``.

    Value numbering: a constant, or a node whose op has a compute and is
    not stateful (custom ops included), that computes what an earlier node
    already computes gets no step and no slot; its outputs alias the
    earlier node's slot. A constant's value number is its dtype, shape, raw
    bytes and devices (by bytes, so ``0.0`` and ``-0.0`` stay apart); a
    compute node's is its op, attrs, input slots (themselves value numbers)
    and pinned device. An attr given at its op's default
    (``OpDef.attr_defaults``) counts as absent there, so ``matmul`` with
    ``transpose_a=False`` and without it share a step; the node keeps its
    attrs. Every other node (stateful ops and ops
    with a Tensor kernel) always gets a step.
    """

    __slots__ = ("n_inputs", "binding", "prefill", "constants", "slot_device",
                 "steps", "output_slots")

    def __init__(self, gf: GraphFunction):
        n_in = self.n_inputs = len(gf.inputs)
        # Per placeholder, the class and (dtype, shape) of a value that binds
        # without further checks, and the placeholder itself.
        self.binding = tuple([
            (Variable if ph.is_variable_ref else Tensor, (ph.dtype, ph.shape), ph)
            for ph in gf.inputs
        ])
        # Per value id, its first slot: a placeholder's is its id, a node's
        # its first output's.
        first: List[int] = list(range(n_in))
        # Per slot: a constant's array and tensor, and the device of a
        # pinned node's outputs (None: the call's device).
        prefill: List = [None] * n_in
        constants: List = [None] * n_in
        slot_device: List = [None] * n_in
        steps: List[tuple] = []
        numbered: Dict[tuple, int] = {}  # value number -> its slot
        defs = get_runtime().registry._defs
        for j, (op, inputs, attrs, device, out_specs) in enumerate(gf.nodes):
            hit = None
            if op == "constant":
                value = attrs["value"]
                arr = value.raw()
                key = (value.dtype, arr.shape, arr.tobytes(), value.device, device)
            else:
                # A graph only refers to earlier values.
                in_slots = tuple([first[vid] + k for vid, k in inputs])
                op_def = defs.get(op) or get_op_def(op)  # UnknownOp
                compute = op_def.compute
                key = None
                if compute is not None and not op_def.stateful:
                    defaults = op_def.attr_defaults
                    key = (op, tuple(sorted([
                        (k, v) for k, v in attrs.items()
                        if defaults.get(k, _NO_DEFAULT) is not v
                    ])) if attrs else (), in_slots, device)
            if key is not None:
                hit = numbered.get(key)
            out = len(prefill) if hit is None else hit
            first.append(out)
            if hit is not None:
                continue
            n_out = len(out_specs)
            if key is not None:
                numbered[key] = out
            slot_device += [device] * n_out
            if op == "constant":
                prefill.append(arr)
                constants.append(value)
                continue
            prefill += [None] * n_out
            constants += [None] * n_out
            info = (j, op, device, in_slots)
            if compute is None:
                kernel = partial(op_def.kernel, attrs)
                steps.append((-1, kernel, None, None, range(out, out + n_out), info))
            else:
                fn = partial(compute, **attrs) if attrs else compute
                n = len(in_slots)
                a, b = (in_slots, None) if n > 2 else (in_slots + (None, None))[:2]
                steps.append((n, fn, a, b, out, info))
        self.prefill, self.constants, self.slot_device = prefill, constants, slot_device
        self.steps = steps
        self.output_slots = [first[vid] + k for _, (vid, k) in gf.outputs]


def _plan_for(gf: GraphFunction) -> _Plan:
    plan = gf._plan
    if plan is None:
        plan = _Plan(gf)
        gf._plan = plan
    return plan


def _bind_inputs(gf: GraphFunction, values: Sequence) -> list:
    """Check ``values`` against the placeholders and return their slot
    values: a tensor's array, a variable itself.

    This is a call's one input check. A concrete tensor of its placeholder's
    exact spec, or a variable of it at a variable-reference placeholder,
    binds after one class test and one spec comparison; any other value
    gets ``_bind_one``'s checks and messages.
    """
    binding = (gf._plan or _plan_for(gf)).binding
    if len(values) != len(binding):
        raise InputMismatch(
            f"{gf.name} takes {len(binding)} inputs "
            f"(including captures), got {len(values)}"
        )
    raw = []
    for v, (cls, spec, ph) in zip(values, binding):
        if v.__class__ is cls and (v.dtype, v.shape) == spec:
            if cls is Variable:
                raw.append(v)
                continue
            array = v._array
            if array is not None:  # not symbolic
                raw.append(array)
                continue
        raw.append(_bind_one(gf, ph, v))
    return raw


def _bind_one(gf: GraphFunction, ph, v):
    """``v`` checked against placeholder ``ph``; its slot value."""
    if ph.is_variable_ref:
        if not isinstance(v, Variable):
            raise InputMismatch(
                f"{gf.name}: input {ph.name!r} expects a variable"
            )
        what, slot = "variable bound to", v
    else:
        if not isinstance(v, Tensor):
            raise InputMismatch(
                f"{gf.name}: input {ph.name!r} expects a tensor, got "
                f"{type(v).__name__}"
            )
        if v._symbolic is not None:
            raise InputMismatch(
                f"{gf.name}: symbolic tensor passed for {ph.name!r}"
            )
        what, slot = "input", v._array
    if not matches_spec(v.dtype, v.shape, ph.dtype, ph.shape):
        raise InputMismatch(
            f"{gf.name}: {what} {ph.name!r} is "
            f"{v.dtype.value}{list(v.shape)}, expected "
            f"{ph.dtype.value}{list(ph.shape)}"
        )
    return slot


def execute_graph(gf: GraphFunction, inputs: Sequence,
                  env: Optional[KernelEnv] = None) -> List[Tensor]:
    """Run ``gf`` on ``inputs`` (arguments, then captures) on this thread."""
    return run_bound(gf, inputs, _bind_inputs(gf, inputs), env)


def run_bound(gf: GraphFunction, inputs: Sequence, raw: list,
              env: Optional[KernelEnv] = None) -> List[Tensor]:
    """Run ``gf`` on ``inputs`` already known to match its placeholders,
    with ``raw`` their slot values (a tensor's array, a variable itself)."""
    rt = get_runtime()
    plan = gf._plan or _plan_for(gf)
    buffers = list(plan.prefill)
    buffers[: plan.n_inputs] = raw
    if env is not None:
        device = env.device
    else:
        device = current_context().scope_device() or rt.devices[0].name
    tensors: Dict[int, object] = {}  # slot -> its Tensor, made once per call
    envs = None  # pinned device (None: the call's) -> KernelEnv
    multi_device = len(rt.devices) > 1

    for kind, fn, a, b, out, info in plan.steps:
        if multi_device:
            # Count the copies eager placement would make to run the node on
            # its device; a Tensor node gets the moved tensors.
            moved = move_to(info[2] or device, [
                _tensor(s, tensors, plan, inputs, buffers, device) for s in info[3]
            ], rt.stats)
        try:
            if kind == 2:
                buffers[out] = fn(buffers[a], buffers[b])
            elif kind == 1:
                buffers[out] = fn(buffers[a])
            elif kind == 0:
                buffers[out] = fn()
            elif kind > 0:
                buffers[out] = fn(*[buffers[s] for s in a])
            else:
                if envs is None:
                    envs = {}
                node_env = envs.get(info[2])
                if node_env is None:
                    libraries = (gf.library,) + (env.libraries if env is not None else ())
                    node_env = envs[info[2]] = KernelEnv(info[2] or device, libraries)
                ins = moved if multi_device else [
                    _tensor(s, tensors, plan, inputs, buffers, device) for s in info[3]
                ]
                for s, t in zip(out, fn(ins, node_env)):
                    buffers[s] = t.raw()
                    tensors[s] = t
        except _PASSTHROUGH:
            raise
        except Exception as e:
            raise KernelError(f"node {info[0]} ({info[1]}): {e}") from e

    return [_tensor(s, tensors, plan, inputs, buffers, device) for s in plan.output_slots]


def _tensor(s: int, tensors: Dict, plan: _Plan, inputs: Sequence, buffers: list, device):
    """Slot ``s`` as a Tensor (or variable), made at most once per call: an
    input or a constant is that object, any other slot's array is wrapped
    on its node's device."""
    t = tensors.get(s)
    if t is None:
        t = inputs[s] if s < plan.n_inputs else plan.constants[s]
        if t is None:
            t = _wrap(buffers[s], plan.slot_device[s] or device)
        tensors[s] = t
    return t


# The control-flow kernels run their graphs through this module, which
# imports ``kernels``: bind the entry point there once.
kernels.execute_graph = execute_graph


def execute(
    gf: GraphFunction,
    inputs: Sequence,
    captured: Sequence = (),
    workers: Optional[int] = None,
) -> List[Tensor]:
    """Run a graph function directly (inputs, then captured values), on
    this thread; ``workers`` is accepted for compatibility and ignored."""
    if not isinstance(gf, GraphFunction):
        raise InputMismatch(f"execute runs a GraphFunction, got {type(gf).__name__}")
    try:
        all_inputs = list(inputs) + list(captured)
    except TypeError:
        raise InputMismatch(
            f"execute takes lists of inputs, got {type(inputs).__name__} "
            f"and {type(captured).__name__}"
        ) from None
    env = KernelEnv(device=placement_target(all_inputs, current_context()))
    return execute_graph(gf, all_inputs, env=env)


def run_node_for_folding(node: Node, inputs: Sequence[Tensor], library) -> List[Tensor]:
    """Evaluate one stateless node on constant inputs (constant folding):
    its op's compute on their arrays, or its kernel on the tensors."""
    device = get_runtime().devices[0].name
    op_def = get_op_def(node.op)
    try:
        if op_def.compute is not None:
            return [_wrap(op_def.compute(*[x._array for x in inputs], **node.attrs), device)]
        env = KernelEnv(device=device, libraries=(library,))
        return op_def.kernel(node.attrs, list(inputs), env)
    except StageflowError:
        raise
    except Exception as e:
        raise KernelError(f"folding {node.op}: {e}") from e


# ``graph`` folds constants through this function, and this module imports
# ``graph``: bind it there once.
graph.run_node_for_folding = run_node_for_folding

"""Dataflow execution of graph functions.

A graph compiles once (lazily, cached on the GraphFunction) into a flat
plan: one instruction per non-constant node, value slots instead of refs,
constants preloaded. Execution walks the plan in order on the calling
thread; there is no host recursion in a single graph, however deep the
dependency chains, and no thread pool. Nested graph executions (function
calls, branches and loop bodies inside a graph) run the same way, inline
in the kernel that calls them.

Ordering: data edges, plus one program-order chain through all stateful
nodes. The chain is what the per-variable ordering contract requires (it is
deliberately coarser: a single chain also keeps the RNG stream
deterministic). Node order satisfies both, since a graph builder only
appends a node after its inputs and in the order ops were recorded, so
running the plan in order is enough and the order survives serialization
without a wire field.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

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
from .kernels import KernelEnv
from .runtime import current_context, get_runtime
from .tensor import Tensor, move_to

_PASSTHROUGH = (CallbackError, SignatureViolation, DeadVariable, MissingFunction,
                InputMismatch, NotSerializable)


@dataclass
class _Instr:
    node_idx: int
    op: str
    kernel: object
    attrs: dict
    in_slots: Tuple[int, ...]
    out_slots: Tuple[int, ...]
    device: Optional[object]


class _Plan:
    __slots__ = ("n_inputs", "n_slots", "const_prefill", "instrs", "output_slots")

    def __init__(self, gf: GraphFunction):
        from .ops import get_op_def

        n_in = len(gf.inputs)
        self.n_inputs = n_in
        slot_of: Dict[Tuple[int, int], int] = {}
        next_slot = n_in
        for j, node in enumerate(gf.nodes):
            for k in range(len(node.out_specs)):
                slot_of[(n_in + j, k)] = next_slot
                next_slot += 1
        self.n_slots = next_slot

        def slot(ref) -> int:
            vid, out_idx = ref
            if vid < n_in:
                return vid
            return slot_of[(vid, out_idx)]

        self.const_prefill: List[Tuple[int, Tensor]] = []
        self.instrs: List[_Instr] = []
        for j, node in enumerate(gf.nodes):
            out_slots = tuple(slot_of[(n_in + j, k)] for k in range(len(node.out_specs)))
            if node.op == "constant":
                self.const_prefill.append((out_slots[0], node.attrs["value"]))
                continue
            self.instrs.append(
                _Instr(
                    node_idx=j,
                    op=node.op,
                    kernel=get_op_def(node.op).kernel,
                    attrs=node.attrs,
                    in_slots=tuple(slot(r) for r in node.inputs),
                    out_slots=out_slots,
                    device=node.device,
                )
            )
        self.output_slots = [(name, slot(ref)) for name, ref in gf.outputs]


def _plan_for(gf: GraphFunction) -> _Plan:
    plan = gf._plan
    if plan is None:
        plan = _Plan(gf)
        gf._plan = plan
    return plan


def _bind_inputs(gf: GraphFunction, values: Sequence) -> None:
    from .state import Variable

    if len(values) != len(gf.inputs):
        raise InputMismatch(
            f"{gf.name} takes {len(gf.inputs)} inputs "
            f"(including captures), got {len(values)}"
        )
    for ph, v in zip(gf.inputs, values):
        if ph.is_variable_ref or isinstance(v, Variable):
            if not isinstance(v, Variable):
                raise InputMismatch(
                    f"{gf.name}: input {ph.name!r} expects a variable"
                )
            what = "variable bound to"
        else:
            if not isinstance(v, Tensor):
                raise InputMismatch(
                    f"{gf.name}: input {ph.name!r} expects a tensor, got "
                    f"{type(v).__name__}"
                )
            if v.is_symbolic:
                raise InputMismatch(
                    f"{gf.name}: symbolic tensor passed for {ph.name!r}"
                )
            what = "input"
        if not matches_spec(v.dtype, v.shape, ph.dtype, ph.shape):
            raise InputMismatch(
                f"{gf.name}: {what} {ph.name!r} is "
                f"{v.dtype.value}{list(v.shape)}, expected "
                f"{ph.dtype.value}{list(ph.shape)}"
            )


def execute_graph(
    gf: GraphFunction,
    inputs: Sequence,
    env: Optional[KernelEnv] = None,
    workers: Optional[int] = None,
) -> List[Tensor]:
    """Run ``gf`` on ``inputs`` (arguments, then captures) on this thread.

    ``workers`` is accepted for compatibility and ignored.
    """
    rt = get_runtime()
    plan = _plan_for(gf)
    _bind_inputs(gf, inputs)
    buffers: List = [None] * plan.n_slots
    buffers[: plan.n_inputs] = inputs
    for s, t in plan.const_prefill:
        buffers[s] = t

    if env is not None:
        exec_device = env.device
        libraries = (gf.library,) + env.libraries
    else:
        exec_device = current_context().scope_device() or rt.devices[0].name
        libraries = (gf.library,)
    shared_env = KernelEnv(device=exec_device, libraries=libraries)
    multi_device = len(rt.devices) > 1

    for instr in plan.instrs:
        if instr.device is None:
            node_env = shared_env
        else:
            node_env = KernelEnv(device=instr.device, libraries=libraries)
        ins = [buffers[s] for s in instr.in_slots]
        if multi_device:
            ins = move_to(node_env.device, ins, rt.stats)
        try:
            outs = instr.kernel(instr.attrs, ins, node_env)
        except _PASSTHROUGH:
            raise
        except Exception as e:
            raise KernelError(f"node {instr.node_idx} ({instr.op}): {e}") from e
        for s, out in zip(instr.out_slots, outs):
            buffers[s] = out

    return [buffers[s] for _, s in plan.output_slots]


def execute(
    gf: GraphFunction,
    inputs: Sequence,
    captured: Sequence = (),
    workers: Optional[int] = None,
) -> List[Tensor]:
    """Run a graph function directly (inputs, then captured values)."""
    from .ops import placement_target

    all_inputs = list(inputs) + list(captured)
    env = KernelEnv(device=placement_target(all_inputs, current_context()))
    return execute_graph(gf, all_inputs, env=env, workers=workers)


def run_node_for_folding(node: Node, inputs: Sequence[Tensor], library) -> List[Tensor]:
    """Evaluate one stateless node on constant inputs (constant folding)."""
    from .ops import get_op_def

    rt = get_runtime()
    op_def = get_op_def(node.op)
    env = KernelEnv(device=rt.devices[0].name, libraries=(library,))
    try:
        return op_def.kernel(node.attrs, list(inputs), env)
    except StageflowError:
        raise
    except Exception as e:
        raise KernelError(f"folding {node.op}: {e}") from e

"""Kernels and shape/dtype inference for the built-in op set.

Every op has exactly one kernel shared by both execution modes: eager
dispatch and the graph executor call the same functions, which is what makes
eager and staged results bit-identical. Kernels are deterministic for fixed
inputs (reductions use numpy's fixed accumulation order), and the only
nondeterminism anywhere comes from the runtime RNG stream consumed by the
stateful random ops.

A kernel takes ``(attrs, inputs, env)`` and returns a list of output
tensors. ``env`` supplies the target device, the library chain for resolving
function-valued attrs, and the executor re-entry points; pure math kernels
ignore everything except the device.

Inference mirrors each kernel symbolically: given input (dtype, shape)
specs, possibly with wildcard dims, it produces output specs or raises
``KernelError`` for inputs the kernel would reject.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from . import dtypes
from .devices import DeviceName
from .dtypes import DType, SymShape
from .errors import (
    BroadcastIncompatible,
    KernelError,
    MissingFunction,
)
from .tensor import Tensor

Spec = Tuple[DType, SymShape]


@dataclass
class KernelEnv:
    """What a kernel may reach besides its inputs."""

    device: DeviceName
    libraries: Tuple[Dict[str, Any], ...] = ()  # innermost library first

    def resolve_function(self, name_or_fn):
        from .graph import GraphFunction

        if isinstance(name_or_fn, GraphFunction):
            return name_or_fn
        for lib in self.libraries:
            if name_or_fn in lib:
                return lib[name_or_fn]
        raise MissingFunction(f"no graph function named {name_or_fn!r} in scope")


def _wrap(arr: np.ndarray, dtype: DType, env: KernelEnv) -> Tensor:
    # asarray(order="C") rather than ascontiguousarray: the latter turns
    # 0-d arrays into 1-d ones. Copies exactly when the kernel produced a
    # non-contiguous or wrong-dtype view; contiguous views of existing
    # tensor buffers are safe to share (the base is immutable).
    out = np.asarray(arr, dtype=dtype.np_dtype, order="C")
    if out.flags.writeable:
        out.flags.writeable = False
    return Tensor(dtype, out.shape, env.device, array=out)


def _require_float(op: str, *specs: Spec) -> None:
    for dt, _ in specs:
        if not dt.is_float:
            raise KernelError(f"{op} requires a float tensor, got {dt.value}")


def _require_same_dtype(op: str, specs: Sequence[Spec]) -> DType:
    first = specs[0][0]
    for dt, _ in specs[1:]:
        if dt is not first:
            raise KernelError(
                f"{op}: mixed dtypes {first.value} and {dt.value} "
                "(there is no implicit promotion)"
            )
    return first


def _no_bool(op: str, *specs: Spec) -> None:
    for dt, _ in specs:
        if dt is DType.boolean:
            raise KernelError(f"{op} is not defined for boolean tensors")


def _broadcast(op: str, a: SymShape, b: SymShape) -> SymShape:
    try:
        return dtypes.broadcast_shapes(a, b)
    except BroadcastIncompatible as e:
        raise KernelError(str(e)) from e


# ---------------------------------------------------------------------------
# Elementwise and linear-algebra kernels
# ---------------------------------------------------------------------------


def _binary_infer(op, floats_only=False):
    def infer(attrs, in_specs, env=None):
        dt = _require_same_dtype(op, in_specs)
        _no_bool(op, *in_specs)
        if floats_only:
            _require_float(op, *in_specs)
        return [(dt, _broadcast(op, in_specs[0][1], in_specs[1][1]))]

    return infer


def _binary_kernel(np_fn, op: str, floats_only: bool = False):
    def kernel(attrs, inputs, env):
        a, b = inputs
        if a.dtype is not b.dtype:
            raise KernelError(
                f"{op}: mixed dtypes {a.dtype.value} and {b.dtype.value} "
                "(there is no implicit promotion)"
            )
        if a.dtype is DType.boolean:
            raise KernelError(f"{op} is not defined for boolean tensors")
        if floats_only and not a.dtype.is_float:
            raise KernelError(f"{op} requires a float tensor, got {a.dtype.value}")
        return [_wrap(np_fn(a.raw(), b.raw()), a.dtype, env)]

    return kernel


def _unary_infer(op, floats_only=False, out_dtype=None):
    def infer(attrs, in_specs, env=None):
        dt, shape = in_specs[0]
        _no_bool(op, in_specs[0])
        if floats_only:
            _require_float(op, in_specs[0])
        return [(out_dtype or dt, shape)]

    return infer


def _unary_kernel(np_fn, op: str, floats_only: bool = False):
    def kernel(attrs, inputs, env):
        (x,) = inputs
        if x.dtype is DType.boolean:
            raise KernelError(f"{op} is not defined for boolean tensors")
        if floats_only and not x.dtype.is_float:
            raise KernelError(f"{op} requires a float tensor, got {x.dtype.value}")
        return [_wrap(np_fn(x.raw()), x.dtype, env)]

    return kernel


def _div_np(a, b):
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.divide(a, b)


def _exp_np(x):
    with np.errstate(over="ignore"):
        return np.exp(x)


def _log_np(x):
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.log(x)


def _softplus_np(x):
    # log(1 + e^x) computed as logaddexp(0, x): stable for large |x|.
    return np.logaddexp(0.0, x)


def _relu_np(x):
    return np.maximum(x, 0)


def _step_positive_np(x):
    return np.greater(x, 0).astype(x.dtype)


def _matmul_infer(attrs, in_specs, env=None):
    _require_float("matmul", *in_specs)
    dt = _require_same_dtype("matmul", in_specs)
    (m, k1), (k2, n) = _rank2("matmul", in_specs[0][1]), _rank2("matmul", in_specs[1][1])
    if k1 is not None and k2 is not None and k1 != k2:
        raise KernelError(f"matmul inner dims {k1} and {k2} differ")
    return [(dt, (m, n))]


def _rank2(op, shape: SymShape):
    if len(shape) != 2:
        raise KernelError(f"{op} requires rank-2 tensors, got shape {list(shape)}")
    return shape


def _matmul_kernel(attrs, inputs, env):
    a, b = inputs
    if a.dtype is not b.dtype or not a.dtype.is_float:
        raise KernelError("matmul requires two float tensors of one dtype")
    if len(a.shape) != 2 or len(b.shape) != 2 or a.shape[1] != b.shape[0]:
        raise KernelError(
            f"matmul requires compatible rank-2 tensors, got "
            f"{list(a.shape)} and {list(b.shape)}"
        )
    return [_wrap(np.matmul(a.raw(), b.raw()), a.dtype, env)]


def _transpose_infer(attrs, in_specs, env=None):
    dt, shape = in_specs[0]
    _rank2("transpose", shape)
    return [(dt, (shape[1], shape[0]))]


def _transpose_kernel(attrs, inputs, env):
    (x,) = inputs
    return [_wrap(x.raw().T, x.dtype, env)]


def _greater_infer(attrs, in_specs, env=None):
    _require_same_dtype("greater", in_specs)
    _no_bool("greater", *in_specs)
    return [(DType.boolean, _broadcast("greater", in_specs[0][1], in_specs[1][1]))]


def _greater_kernel(attrs, inputs, env):
    a, b = inputs
    if a.dtype is not b.dtype or a.dtype is DType.boolean:
        raise KernelError("greater compares two non-boolean tensors of one dtype")
    return [_wrap(np.greater(a.raw(), b.raw()), DType.boolean, env)]


# ---------------------------------------------------------------------------
# Shape manipulation
# ---------------------------------------------------------------------------


def _reshape_infer(attrs, in_specs, env=None):
    dt, shape = in_specs[0]
    target = attrs["shape"]
    if any(d is None for d in target):
        raise KernelError("reshape target must be fully known")
    if dtypes.is_concrete_shape(shape) and dtypes.element_count(
        shape
    ) != dtypes.element_count(target):
        raise KernelError(
            f"cannot reshape {list(shape)} ({dtypes.element_count(shape)} elements) "
            f"to {list(target)}"
        )
    return [(dt, tuple(target))]


def _reshape_kernel(attrs, inputs, env):
    (x,) = inputs
    target = attrs["shape"]
    if x.size != dtypes.element_count(target):
        raise KernelError(f"cannot reshape {list(x.shape)} to {list(target)}")
    return [_wrap(x.raw().reshape(target), x.dtype, env)]


def _broadcast_to_infer(attrs, in_specs, env=None):
    dt, shape = in_specs[0]
    target = tuple(attrs["shape"])
    _broadcast("broadcast_to", shape, target)  # compatibility check
    return [(dt, target)]


def _broadcast_to_kernel(attrs, inputs, env):
    (x,) = inputs
    target = tuple(attrs["shape"])
    try:
        out = np.broadcast_to(x.raw(), target)
    except ValueError as e:
        raise KernelError(str(e)) from e
    if out.shape != target:
        raise KernelError(f"cannot broadcast {list(x.shape)} to {list(target)}")
    return [_wrap(out.copy(), x.dtype, env)]


def _eye_infer(attrs, in_specs, env=None):
    n = attrs["size"]
    dt = attrs["dtype"]
    if not dt.is_float:
        raise KernelError("eye produces float tensors")
    return [(dt, (n, n))]


def _eye_kernel(attrs, inputs, env):
    n, dt = attrs["size"], attrs["dtype"]
    return [_wrap(np.eye(n, dtype=dt.np_dtype), dt, env)]


def _constant_infer(attrs, in_specs, env=None):
    value: Tensor = attrs["value"]
    return [(value.dtype, value.shape)]


def _constant_kernel(attrs, inputs, env):
    value: Tensor = attrs["value"]
    if value.device == env.device:
        return [value]
    return [Tensor(value.dtype, value.shape, env.device, array=value.raw())]


def _identity_infer(attrs, in_specs, env=None):
    return [in_specs[0]]


def _identity_kernel(attrs, inputs, env):
    # Fresh handle over the same buffer: tapes track values by object
    # identity, so an op must never return its own input object.
    x = inputs[0]
    return [Tensor(x.dtype, x.shape, env.device, array=x.raw())]


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------


def _reduce_shape(op, shape: SymShape, axes, keepdims) -> SymShape:
    rank = len(shape)
    if axes is None:
        axes = tuple(range(rank))
    norm = []
    for ax in axes:
        if ax < -rank or ax >= rank:
            raise KernelError(f"{op}: axis {ax} out of range for rank {rank}")
        norm.append(ax % rank if rank else 0)
    if len(set(norm)) != len(norm):
        raise KernelError(f"{op}: repeated axes {axes}")
    out = []
    for i, d in enumerate(shape):
        if i in norm:
            if keepdims:
                out.append(1)
        else:
            out.append(d)
    return tuple(out)


def _reduce_infer(op, floats_only):
    def infer(attrs, in_specs, env=None):
        dt, shape = in_specs[0]
        _no_bool(op, in_specs[0])
        if floats_only:
            _require_float(op, in_specs[0])
        return [(dt, _reduce_shape(op, shape, attrs.get("axes"), attrs.get("keepdims", False)))]

    return infer


def _reduce_kernel(np_fn):
    def kernel(attrs, inputs, env):
        (x,) = inputs
        axes = attrs.get("axes")
        keepdims = attrs.get("keepdims", False)
        axis = tuple(axes) if axes is not None else None
        out = np_fn(x.raw(), axis=axis, keepdims=keepdims)
        return [_wrap(np.asarray(out), x.dtype, env)]

    return kernel


# ---------------------------------------------------------------------------
# Stateful kernels: randomness and variables
# ---------------------------------------------------------------------------


def _random_normal_infer(attrs, in_specs, env=None):
    dt = attrs["dtype"]
    if not dt.is_float:
        raise KernelError("random_normal produces float tensors")
    return [(dt, tuple(attrs["shape"]))]


def _random_normal_kernel(attrs, inputs, env):
    from .runtime import get_runtime

    shape, dt = tuple(attrs["shape"]), attrs["dtype"]
    arr = get_runtime().draw(lambda rng: rng.standard_normal(shape))
    return [_wrap(arr, dt, env)]


def _dropout_infer(attrs, in_specs, env=None):
    _require_float("dropout", in_specs[0])
    rate = attrs["rate"]
    if not (0.0 <= rate < 1.0):
        raise KernelError(f"dropout rate must be in [0, 1), got {rate}")
    spec = in_specs[0]
    return [spec, spec]  # (output, scaled keep-mask saved for the gradient)


def _dropout_kernel(attrs, inputs, env):
    from .runtime import get_runtime

    (x,) = inputs
    rate = attrs["rate"]
    keep = 1.0 - rate
    draws = get_runtime().draw(lambda rng: rng.random(x.shape))
    mask = (draws >= rate).astype(x.dtype.np_dtype) / x.dtype.np_dtype.type(keep)
    return [_wrap(x.raw() * mask, x.dtype, env), _wrap(mask, x.dtype, env)]


def _variable_of(inputs, op):
    from .state import Variable

    v = inputs[0]
    if not isinstance(v, Variable):
        raise KernelError(f"{op} expects a variable as its first input")
    return v


def _read_variable_infer(attrs, in_specs, env=None):
    return [in_specs[0]]


def _read_variable_kernel(attrs, inputs, env):
    v = _variable_of(inputs, "read_variable")
    return [v.snapshot()]


def _assign_infer(op):
    def infer(attrs, in_specs, env=None):
        var_spec, val_spec = in_specs
        if var_spec[0] is not val_spec[0]:
            raise KernelError(
                f"{op}: value dtype {val_spec[0].value} does not match "
                f"variable dtype {var_spec[0].value}"
            )
        for dv, dn in zip(var_spec[1], val_spec[1]):
            if dv is not None and dn is not None and dv != dn:
                raise KernelError(f"{op}: shape mismatch {var_spec[1]} vs {val_spec[1]}")
        if len(var_spec[1]) != len(val_spec[1]):
            raise KernelError(f"{op}: rank mismatch {var_spec[1]} vs {val_spec[1]}")
        return []

    return infer


def _assign_kernel(attrs, inputs, env):
    v = _variable_of(inputs, "assign_variable")
    v.write(inputs[1])
    return []


def _assign_add_kernel(attrs, inputs, env):
    v = _variable_of(inputs, "assign_add_variable")
    v.accumulate(inputs[1])
    return []


# ---------------------------------------------------------------------------
# Higher-order ops: function calls, control flow, host callbacks
# ---------------------------------------------------------------------------


def _call_function_infer(attrs, in_specs, env=None):
    gf = _infer_resolve(attrs["function"], env)
    if len(in_specs) != len(gf.inputs):
        raise KernelError(
            f"call_function: {gf.name} takes {len(gf.inputs)} inputs, "
            f"got {len(in_specs)}"
        )
    return list(gf.output_specs)


def _infer_resolve(fn_attr, env):
    from .graph import GraphFunction

    if isinstance(fn_attr, GraphFunction):
        return fn_attr
    if env is None:
        raise KernelError(f"cannot resolve function {fn_attr!r} without a library")
    return env.resolve_function(fn_attr)


def _call_function_kernel(attrs, inputs, env):
    from .executor import execute_graph

    gf = env.resolve_function(attrs["function"])
    return execute_graph(gf, inputs, env=env)


def _cond_infer(attrs, in_specs, env=None):
    then_gf = _infer_resolve(attrs["then_branch"], env)
    else_gf = _infer_resolve(attrs["else_branch"], env)
    pred_dt, pred_shape = in_specs[0]
    if pred_dt is not DType.boolean or (
        dtypes.is_concrete_shape(pred_shape) and dtypes.element_count(pred_shape) != 1
    ):
        raise KernelError("cond predicate must be a boolean scalar")
    t_specs, e_specs = then_gf.output_specs, else_gf.output_specs
    if [s[0] for s in t_specs] != [s[0] for s in e_specs]:
        raise KernelError("cond branches must produce matching output dtypes")
    return list(t_specs)


def _cond_kernel(attrs, inputs, env):
    from .executor import execute_graph

    n_ops = attrs["n_operands"]
    n_then = attrs["n_then_captured"]
    pred = inputs[0]
    operands = inputs[1 : 1 + n_ops]
    then_caps = inputs[1 + n_ops : 1 + n_ops + n_then]
    else_caps = inputs[1 + n_ops + n_then :]
    if bool(pred.raw().reshape(-1)[0]):
        gf = env.resolve_function(attrs["then_branch"])
        return execute_graph(gf, list(operands) + list(then_caps), env=env)
    gf = env.resolve_function(attrs["else_branch"])
    return execute_graph(gf, list(operands) + list(else_caps), env=env)


def _while_infer(attrs, in_specs, env=None):
    n_vars = attrs["n_vars"]
    return [in_specs[i] for i in range(n_vars)]


def _while_kernel(attrs, inputs, env):
    from .executor import execute_graph

    n_vars = attrs["n_vars"]
    n_cond = attrs["n_cond_captured"]
    cond_gf = env.resolve_function(attrs["loop_cond"])
    body_gf = env.resolve_function(attrs["loop_body"])
    loop_vars = list(inputs[:n_vars])
    cond_caps = list(inputs[n_vars : n_vars + n_cond])
    body_caps = list(inputs[n_vars + n_cond :])
    while True:
        (keep_going,) = execute_graph(cond_gf, loop_vars + cond_caps, env=env)
        if keep_going.dtype is not DType.boolean or keep_going.size != 1:
            raise KernelError("while_loop condition must return a boolean scalar")
        if not bool(keep_going.raw().reshape(-1)[0]):
            return loop_vars
        loop_vars = list(execute_graph(body_gf, loop_vars + body_caps, env=env))


def _host_call_infer(attrs, in_specs, env=None):
    from .escape import callback_signature

    return list(callback_signature(attrs["callback"]))


def _host_call_kernel(attrs, inputs, env):
    from .escape import run_callback

    return run_callback(attrs["callback"], list(inputs))


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------

KERNELS: Dict[str, Callable] = {
    "constant": _constant_kernel,
    "identity": _identity_kernel,
    "add": _binary_kernel(np.add, "add"),
    "sub": _binary_kernel(np.subtract, "sub"),
    "mul": _binary_kernel(np.multiply, "mul"),
    "div": _binary_kernel(_div_np, "div", floats_only=True),
    "neg": _unary_kernel(np.negative, "neg"),
    "exp": _unary_kernel(_exp_np, "exp", floats_only=True),
    "log": _unary_kernel(_log_np, "log", floats_only=True),
    "softplus": _unary_kernel(_softplus_np, "softplus", floats_only=True),
    "relu": _unary_kernel(_relu_np, "relu", floats_only=True),
    "step_positive": _unary_kernel(_step_positive_np, "step_positive",
                                   floats_only=True),
    "matmul": _matmul_kernel,
    "transpose": _transpose_kernel,
    "greater": _greater_kernel,
    "reshape": _reshape_kernel,
    "broadcast_to": _broadcast_to_kernel,
    "reduce_sum": _reduce_kernel(np.sum),
    "reduce_mean": _reduce_kernel(np.mean),
    "eye": _eye_kernel,
    "random_normal": _random_normal_kernel,
    "dropout": _dropout_kernel,
    "read_variable": _read_variable_kernel,
    "assign_variable": _assign_kernel,
    "assign_add_variable": _assign_add_kernel,
    "call_function": _call_function_kernel,
    "cond": _cond_kernel,
    "while_loop": _while_kernel,
    "host_call": _host_call_kernel,
}

INFERENCE: Dict[str, Callable] = {
    "constant": _constant_infer,
    "identity": _identity_infer,
    "add": _binary_infer("add"),
    "sub": _binary_infer("sub"),
    "mul": _binary_infer("mul"),
    "div": _binary_infer("div", floats_only=True),
    "neg": _unary_infer("neg"),
    "exp": _unary_infer("exp", floats_only=True),
    "log": _unary_infer("log", floats_only=True),
    "softplus": _unary_infer("softplus", floats_only=True),
    "relu": _unary_infer("relu", floats_only=True),
    "step_positive": _unary_infer("step_positive", floats_only=True),
    "matmul": _matmul_infer,
    "transpose": _transpose_infer,
    "greater": _greater_infer,
    "reshape": _reshape_infer,
    "broadcast_to": _broadcast_to_infer,
    "reduce_sum": _reduce_infer("reduce_sum", floats_only=False),
    "reduce_mean": _reduce_infer("reduce_mean", floats_only=True),
    "eye": _eye_infer,
    "random_normal": _random_normal_infer,
    "dropout": _dropout_infer,
    "read_variable": _read_variable_infer,
    "assign_variable": _assign_infer("assign_variable"),
    "assign_add_variable": _assign_infer("assign_add_variable"),
    "call_function": _call_function_infer,
    "cond": _cond_infer,
    "while_loop": _while_infer,
    "host_call": _host_call_infer,
}


def infer_out_specs(op: str, attrs, in_specs, env: Optional[KernelEnv] = None):
    try:
        fn = INFERENCE[op]
    except KeyError:
        from .errors import UnknownOp

        raise UnknownOp(f"no inference rule for op {op!r}") from None
    return fn(attrs, in_specs, env)

"""Kernels and shape/dtype inference for the built-in op set.

Every op has one ``infer`` rule, and both execution modes use it. The rule
is the op's only validator: given the input (dtype, shape) specs, possibly
with wildcard (``None``) dims, and the attrs, it returns the output specs or
raises ``KernelError`` (``ShapeMismatch`` for a variable assignment). Eager
dispatch runs it before every kernel call, and ``graph.checked_node`` once
for every node a graph gets from outside the library: recorded, hand-built
or decoded. What runs after it trusts its inputs and only computes.

Each op has one entry in ``KERNELS``, and the op registry hands it out as
the op's ``compute`` or its ``kernel``. A pure op (and ``random_normal``)
has a ``compute(*arrays, **attrs)`` that returns one array; for an attr-free
elementwise op that is its array function itself (``np.add``, ``_exp_np``,
...). Eager dispatch, graph plans and constant folding all call it on raw
arrays and wrap the result once, so every mode runs the same function on
the same arrays, and they stay bit-identical as long as a compute returns

* its op's output dtype (``reduce_sum`` of int32 accumulates in int32, not
  numpy's int64, so a staged consumer sees eager's wrapped-around value);
* a C-contiguous array, the layout eager's wrap gives (a reduction or BLAS
  call over a strided view may round differently, so ``transpose`` copies).
  A 0-d result may be a numpy scalar; wrapping makes it a 0-d array.

``matmul`` reads a transposed operand through its ``transpose_a`` or
``transpose_b`` attr as a ``.T`` view of the C-contiguous input, so its
gradient copies nothing; both modes pass it the same view. With inner dim 1
it is an outer product, which numpy's matmul runs several times slower
than ``multiply``. So it computes ``multiply`` and then adds ``0.0`` in
place: each output is one product either way, and the add turns the
``-0.0`` of e.g. ``-1 * 0`` into matmul's ``0.0`` (matmul sums onto
``+0``), so the bytes equal ``np.matmul``'s, infs and NaNs included. The
one exception is a product of two NaNs with different bits: IEEE 754
leaves open which comes out, and OpenBLAS's float64 kernels do not pick
the same one in every tile of one output.

The other ops have a Tensor-level kernel, ``(attrs, inputs, env)`` to a
list of tensors, because they need more than arrays: the variable ops take
a ``Variable``, ``dropout`` has two outputs, ``constant`` hands out its
value, and ``call_function``, ``cond``, ``while_loop`` and ``host_call``
re-enter the executor or the host with tensors and resolve function attrs
through the ``KernelEnv``. The ``cond`` and ``while_loop`` kernels run only
in graphs: outside a trace, ``staging`` runs Python control flow, which
checks predicates with the same helpers. Kernels are deterministic for
fixed inputs; the only nondeterminism is the runtime RNG stream, drawn in
node order.

What a kernel still checks is what ``infer`` could not see:

* dims that ``infer`` saw as wildcards: the size of a ``cond`` or
  ``while_loop`` predicate (``_check_predicate``), and the value a variable
  is assigned (``Variable._check_value``);
* that an eager variable op got a variable, since specs do not carry
  kind (in a graph, ``checked_node`` saw that input 0 of a variable op is
  a variable-reference placeholder, and that a call, cond or while_loop
  node passes variables just where the graphs it runs take them);
* numpy's own errors on wildcard dims (a broadcast, matmul or reshape that
  does not fit at run time), which the dispatcher and the executor wrap as
  ``KernelError``.
"""
from __future__ import annotations

import math
from typing import Any, Callable, Dict, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import dtypes
from .devices import DeviceName
from .dtypes import _FROM_NP, DType, SymShape, matches_spec
from .errors import BroadcastIncompatible, KernelError, MissingFunction, ShapeMismatch
from .escape import callback_signature, run_callback
from .graph import FUNCTION_ATTRS, GraphFunction
from .runtime import get_runtime
from .state import Variable
from .tensor import Tensor, concrete_tensor, to_device

Spec = Tuple[DType, SymShape]


class KernelEnv(NamedTuple):
    """What a kernel may reach besides its inputs."""

    device: DeviceName
    libraries: Tuple[Dict[str, Any], ...] = ()  # innermost library first

    def resolve_function(self, name_or_fn):
        if isinstance(name_or_fn, GraphFunction):
            return name_or_fn
        for lib in self.libraries:
            if name_or_fn in lib:
                return lib[name_or_fn]
        raise MissingFunction(f"no graph function named {name_or_fn!r} in scope")


def _wrap(arr, device: DeviceName) -> Tensor:
    """A compute's result as a read-only tensor on ``device``.

    ``asarray(order="C")`` turns a numpy scalar (what a ufunc returns for
    0-d inputs) into a 0-d array and copies nothing else: the ``compute``
    contract already gives the output dtype and a C-contiguous layout.
    Contiguous views of existing tensor buffers are safe to share (the base
    is immutable).
    """
    out = np.asarray(arr, order="C")
    if out.flags.writeable:
        out.flags.writeable = False
    return concrete_tensor(_FROM_NP[out.dtype], out.shape, device, out)


def _check_dtypes(op: str, floats_only: bool, dt: DType,
                  other: Optional[DType] = None) -> DType:
    """The one input dtype: no implicit promotion, no boolean math, and a
    float where the op needs one. Every eager op runs this; the module
    lookup ``dtypes.boolean`` is cheaper than the enum's ``DType.boolean``."""
    if other is not None and other is not dt:
        raise KernelError(
            f"{op}: mixed dtypes {dt.value} and {other.value} "
            "(there is no implicit promotion)"
        )
    if dt is dtypes.boolean:
        raise KernelError(f"{op} is not defined for boolean tensors")
    if floats_only and not dt.is_float:
        raise KernelError(f"{op} requires a float tensor, got {dt.value}")
    return dt


def _broadcast(op: str, a: SymShape, b: SymShape) -> SymShape:
    try:
        return dtypes.broadcast_shapes(a, b)
    except BroadcastIncompatible as e:
        raise KernelError(str(e)) from e


# ---------------------------------------------------------------------------
# Elementwise and linear algebra
# ---------------------------------------------------------------------------


def _binary_infer(op, floats_only=False):
    def infer(attrs, in_specs, env=None):
        (dt, a), (dt_b, b) = in_specs
        _check_dtypes(op, floats_only, dt, dt_b)
        return [(dt, a if a == b else _broadcast(op, a, b))]

    return infer


def _unary_infer(op, floats_only=False):
    def infer(attrs, in_specs, env=None):
        _check_dtypes(op, floats_only, in_specs[0][0])
        return [in_specs[0]]

    return infer


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


def _mean_np(x, axes=None, keepdims=False):
    axis = None if axes is None else tuple(axes)
    if x.size:
        return np.mean(x, axis=axis, keepdims=keepdims)
    # Every output of an empty input averages an empty slice: 0 / 0 = NaN.
    # np.mean would warn about each one.
    with np.errstate(invalid="ignore"):
        return np.sum(x, axis=axis, keepdims=keepdims) / 0


def _matmul_np(a, b, transpose_a=False, transpose_b=False):
    if transpose_a:
        a = a.T
    if transpose_b:
        b = b.T
    if a.shape[1] == 1 and b.shape[0] == 1:
        # An outer product: one product per output, as matmul computes it
        # (see the module docstring). A wildcard misfit goes to matmul,
        # which raises.
        out = np.multiply(a, b)
        out += 0.0
        return out
    return np.matmul(a, b)


def _step_positive_np(x):
    # One pass into the output dtype; no bool temporary.
    return np.greater(x, 0, out=np.empty(x.shape, x.dtype))


def _matmul_infer(attrs, in_specs, env=None):
    dt = _check_dtypes("matmul", True, in_specs[0][0], in_specs[1][0])
    (m, k1), (k2, n) = _rank2("matmul", in_specs[0][1]), _rank2("matmul", in_specs[1][1])
    if attrs:
        if attrs.get("transpose_a"):
            m, k1 = k1, m
        if attrs.get("transpose_b"):
            k2, n = n, k2
    if k1 is not None and k2 is not None and k1 != k2:
        raise KernelError(f"matmul inner dims {k1} and {k2} differ")
    return [(dt, (m, n))]


def _rank2(op, shape: SymShape):
    if len(shape) != 2:
        raise KernelError(f"{op} requires rank-2 tensors, got shape {list(shape)}")
    return shape


def _transpose_infer(attrs, in_specs, env=None):
    dt, shape = in_specs[0]
    _rank2("transpose", shape)
    return [(dt, (shape[1], shape[0]))]


def _greater_infer(attrs, in_specs, env=None):
    _check_dtypes("greater", False, in_specs[0][0], in_specs[1][0])
    return [(DType.boolean, _broadcast("greater", in_specs[0][1], in_specs[1][1]))]


# ---------------------------------------------------------------------------
# Shape manipulation
# ---------------------------------------------------------------------------


def _known_target(op: str, target) -> tuple:
    if None in target:
        raise KernelError(f"{op} target shape must be fully known, got {list(target)}")
    return tuple(target)


def _reshape_infer(attrs, in_specs, env=None):
    dt, shape = in_specs[0]
    target = _known_target("reshape", attrs["shape"])
    if None not in shape and math.prod(shape) != math.prod(target):
        raise KernelError(
            f"cannot reshape {list(shape)} ({math.prod(shape)} elements) "
            f"to {list(target)}"
        )
    return [(dt, target)]


def _broadcast_to_infer(attrs, in_specs, env=None):
    dt, shape = in_specs[0]
    target = _known_target("broadcast_to", attrs["shape"])
    lead = len(target) - len(shape)
    if lead < 0:
        raise KernelError(f"cannot broadcast {list(shape)} to {list(target)}")
    for d, t in zip(shape, target[lead:]):
        if d != t and d != 1 and d is not None:
            raise KernelError(f"cannot broadcast {list(shape)} to {list(target)}")
    return [(dt, target)]


def _eye_infer(attrs, in_specs, env=None):
    n = attrs["size"]
    dt = attrs["dtype"]
    if not dt.is_float:
        raise KernelError("eye produces float tensors")
    if n < 0:
        raise KernelError(f"eye size must be non-negative, got {n}")
    return [(dt, (n, n))]


def _constant_infer(attrs, in_specs, env=None):
    value: Tensor = attrs["value"]
    return [(value.dtype, value.shape)]


def _constant_kernel(attrs, inputs, env):
    value: Tensor = attrs["value"]
    if value.device == env.device:
        return [value]
    return [to_device(value, env.device)]


def _identity_infer(attrs, in_specs, env=None):
    return [in_specs[0]]


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------


def _reduce_shape(op, shape: SymShape, axes, keepdims) -> SymShape:
    rank = len(shape)
    if axes is None:
        return (1,) * rank if keepdims else ()
    norm = set()
    for ax in axes:
        if ax < -rank or ax >= rank:
            raise KernelError(f"{op}: axis {ax} out of range for rank {rank}")
        norm.add(ax % rank)
    if len(norm) != len(axes):
        raise KernelError(f"{op}: repeated axes {axes}")
    if keepdims:
        return tuple(1 if i in norm else d for i, d in enumerate(shape))
    return tuple(d for i, d in enumerate(shape) if i not in norm)


def _reduce_infer(op, floats_only):
    def infer(attrs, in_specs, env=None):
        dt, shape = in_specs[0]
        _check_dtypes(op, floats_only, dt)
        return [(dt, _reduce_shape(op, shape, attrs.get("axes"), attrs.get("keepdims", False)))]

    return infer


# ---------------------------------------------------------------------------
# Stateful ops: randomness and variables
# ---------------------------------------------------------------------------


def _random_normal_infer(attrs, in_specs, env=None):
    dt = attrs["dtype"]
    if not dt.is_float:
        raise KernelError("random_normal produces float tensors")
    return [(dt, _known_target("random_normal", attrs["shape"]))]


def _dropout_infer(attrs, in_specs, env=None):
    _check_dtypes("dropout", True, in_specs[0][0])
    rate = attrs["rate"]
    if not (0.0 <= rate < 1.0):
        raise KernelError(f"dropout rate must be in [0, 1), got {rate}")
    spec = in_specs[0]
    return [spec, spec]  # (output, scaled keep-mask saved for the gradient)


def _dropout_kernel(attrs, inputs, env):
    (x,) = inputs
    rate = attrs["rate"]
    keep = 1.0 - rate
    draws = get_runtime().draw(lambda rng: rng.random(x.shape))
    mask = (draws >= rate).astype(x.dtype.np_dtype) / x.dtype.np_dtype.type(keep)
    return [_wrap(x.raw() * mask, env.device), _wrap(mask, env.device)]


def _variable_of(inputs, op):
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
        (var_dt, var_shape), (val_dt, val_shape) = in_specs
        if var_dt is not val_dt or len(var_shape) != len(val_shape) or any(
            dv is not None and dn is not None and dv != dn
            for dv, dn in zip(var_shape, val_shape)
        ):
            raise ShapeMismatch(
                f"{op}: variable holds {var_dt.value}{list(var_shape)}, "
                f"got {val_dt.value}{list(val_shape)}"
            )
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


def callee_inputs(op: str, attrs, inputs: Sequence) -> tuple:
    """What each graph a ``call_function``, ``cond`` or ``while_loop`` node
    runs receives, as ``(function attr, its inputs)`` pairs: sliced from
    the node's ``inputs`` (specs, refs or values, one sequence type) by the
    node's count attrs, which must fit (KernelError).

    A call's graph gets all inputs. A branch gets the operands and its own
    captures, after the boolean predicate at input 0; the loop condition
    and body get the loop variables and their own captures."""
    if op == "call_function":
        return (("function", inputs),)
    if op == "cond":
        counts = attrs["n_operands"], attrs["n_then_captured"], attrs["n_else_captured"]
        head = 1
    else:
        counts = attrs["n_vars"], attrs["n_cond_captured"], attrs["n_body_captured"]
        head = 0
    if min(counts) < 0 or head + sum(counts) != len(inputs):
        raise KernelError(f"{op} counts {list(counts)} do not fit its {len(inputs)} inputs")
    n, k = head + counts[0], head + counts[0] + counts[1]
    shared = inputs[head:n]
    first, second = FUNCTION_ATTRS[op]
    return ((first, shared + inputs[n:k]), (second, shared + inputs[k:]))


def _matched_callees(op: str, attrs, in_specs: Sequence[Spec], env) -> list:
    """The graphs a call, cond or while_loop node runs, each matched against
    the specs it receives: one per placeholder (KernelError otherwise),
    where a spec with an unknown dim is checked when the graph runs."""
    graphs = []
    for name, specs in callee_inputs(op, attrs, in_specs):
        gf = _resolve(attrs[name], env)
        if len(specs) != len(gf.inputs):
            raise KernelError(
                f"{op}: {gf.name} takes {len(gf.inputs)} inputs, got {len(specs)}"
            )
        for (dt, shape), ph in zip(specs, gf.inputs):
            if None not in shape and not matches_spec(dt, shape, ph.dtype, ph.shape):
                raise KernelError(f"{op}: {gf.name} input {ph.name!r} is "
                                  f"{ph.dtype.value}{list(ph.shape)}, got "
                                  f"{dt.value}{list(shape)}")
        graphs.append(gf)
    return graphs


def _call_function_infer(attrs, in_specs, env=None):
    (gf,) = _matched_callees("call_function", attrs, in_specs, env)
    return gf.output_specs  # a fresh list


def _resolve(fn_attr, env: Optional[KernelEnv]):
    """A function attr's graph; eager inference passes no env (no library)."""
    return (env or _NO_LIBRARY).resolve_function(fn_attr)


_NO_LIBRARY = KernelEnv(device=None)

# The executor imports this module and runs the graphs of the control-flow
# kernels below; it binds its ``execute_graph`` here when it is imported.
execute_graph = None


def _call_function_kernel(attrs, inputs, env):
    gf = env.resolve_function(attrs["function"])
    return execute_graph(gf, inputs, env=env)


def _require_predicate(op: str, spec: Spec) -> None:
    dt, shape = spec
    if dt is not DType.boolean or (None not in shape and math.prod(shape) != 1):
        raise KernelError(
            f"{op} predicate must be a boolean scalar, got {dt.value}{list(shape)}"
        )


def _check_predicate(op: str, pred: Tensor) -> bool:
    """The value of a predicate whose size ``infer`` saw as a wildcard."""
    arr = pred.raw()
    if arr.size != 1:
        raise KernelError(f"{op} predicate must have one element, got shape {list(arr.shape)}")
    return bool(arr.reshape(-1)[0])


def _cond_infer(attrs, in_specs, env=None):
    then_gf, else_gf = _matched_callees("cond", attrs, in_specs, env)
    _require_predicate("cond", in_specs[0])
    t_specs, e_specs = then_gf.output_specs, else_gf.output_specs
    if [s[0] for s in t_specs] != [s[0] for s in e_specs]:
        raise KernelError("cond branches must produce matching output dtypes")
    return t_specs


def _cond_kernel(attrs, inputs, env):
    then_in, else_in = callee_inputs("cond", attrs, inputs)
    name, branch_inputs = then_in if _check_predicate("cond", inputs[0]) else else_in
    return execute_graph(env.resolve_function(attrs[name]), branch_inputs, env=env)


def _require_condition(specs: Sequence[Spec]) -> None:
    """The specs of a ``while_loop`` condition's results: one boolean scalar."""
    if len(specs) != 1:
        raise KernelError(f"while_loop condition must return one value, got {len(specs)}")
    _require_predicate("while_loop", specs[0])


def loop_body_fits(out_specs: Sequence[Spec], var_specs: Sequence[Spec]) -> bool:
    """Whether a ``while_loop`` body's results fit the loop variables: one
    per variable, of its dtype, and of its shape where the result's dims
    are known (the rest are checked when the body runs)."""
    return len(out_specs) == len(var_specs) and all(
        dt is v_dt and (None in shape or matches_spec(dt, shape, v_dt, v_shape))
        for (dt, shape), (v_dt, v_shape) in zip(out_specs, var_specs)
    )


def _while_infer(attrs, in_specs, env=None):
    cond_gf, body_gf = _matched_callees("while_loop", attrs, in_specs, env)
    _require_condition(cond_gf.output_specs)
    var_specs = list(in_specs[: attrs["n_vars"]])
    if not loop_body_fits(body_gf.output_specs, var_specs):
        raise KernelError(f"while_loop: {body_gf.name} must return one value per "
                          "loop variable, with matching specs")
    return var_specs


def _while_kernel(attrs, inputs, env):
    n_vars = attrs["n_vars"]
    n_cond = attrs["n_cond_captured"]
    cond_gf = env.resolve_function(attrs["loop_cond"])
    body_gf = env.resolve_function(attrs["loop_body"])
    loop_vars = list(inputs[:n_vars])
    cond_caps = list(inputs[n_vars : n_vars + n_cond])
    body_caps = list(inputs[n_vars + n_cond :])
    while True:
        (keep_going,) = execute_graph(cond_gf, loop_vars + cond_caps, env=env)
        if not _check_predicate("while_loop", keep_going):
            return loop_vars
        loop_vars = list(execute_graph(body_gf, loop_vars + body_caps, env=env))


def _host_call_infer(attrs, in_specs, env=None):
    return list(callback_signature(attrs["callback"]))


def _host_call_kernel(attrs, inputs, env):
    return run_callback(attrs["callback"], list(inputs))


# ---------------------------------------------------------------------------
# Array computes and the kernel table
# ---------------------------------------------------------------------------


def _sum_np(x, axes=None, keepdims=False):
    # Accumulate in the input dtype: numpy sums int32 as int64, and a
    # staged consumer would then see the unwrapped value. ``np.sum`` is this
    # reduction behind a few microseconds of Python.
    return np.add.reduce(x, axis=None if axes is None else tuple(axes),
                         keepdims=keepdims, dtype=x.dtype)


def _broadcast_to(x, shape):
    # A C-contiguous copy of the broadcast, without the Python overhead of
    # ``np.broadcast_to(...).copy()``. ``infer`` checked the ranks.
    out = np.empty(shape, dtype=x.dtype)
    out[...] = x
    return out


def _random_normal(shape, dtype):
    shape = tuple(shape)
    arr = get_runtime().draw(lambda rng: rng.standard_normal(shape))
    return arr.astype(dtype.np_dtype, copy=False)


# The one execution entry of every op. ``ops.build_registry`` gives each
# built-in op its entry as its ``compute`` or, where its ``op(...)`` line
# says ``tensors=True``, as its ``kernel``.
KERNELS: Dict[str, Callable] = {
    # Computes: ``compute(*arrays, **attrs)`` returns one array. Dispatch
    # and the executor's edges wrap a fresh Tensor: tapes track values by
    # identity, so an op never returns its input object.
    "identity": lambda x: x,
    "add": np.add,
    "sub": np.subtract,
    "mul": np.multiply,
    "div": _div_np,
    "neg": np.negative,
    "exp": _exp_np,
    "log": _log_np,
    "softplus": _softplus_np,
    "relu": _relu_np,
    "step_positive": _step_positive_np,
    "matmul": _matmul_np,
    # A C-contiguous copy, as eager wraps it: a matmul or reduction of the
    # result must see the same layout in both modes.
    "transpose": lambda x: x.T.copy(),
    "greater": np.greater,
    "reshape": lambda x, shape: x.reshape(shape),
    "broadcast_to": _broadcast_to,
    "reduce_sum": _sum_np,
    "reduce_mean": _mean_np,
    "eye": lambda size, dtype: np.eye(size, dtype=dtype.np_dtype),
    "random_normal": _random_normal,
    # Tensor kernels: ``kernel(attrs, inputs, env)`` returns a list of tensors.
    "constant": _constant_kernel,
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


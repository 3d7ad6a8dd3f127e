"""Op schemas and the dual dispatcher.

Every primitive operation is described by an OpDef: arity, attr schema,
statefulness, inference rule, one execution entry (an array ``compute`` or
a Tensor ``kernel``), and (if differentiable) a gradient rule. Dispatch
takes the same call in two directions depending on the current execution
context:

* eager: the op's ``infer`` rule validates the input specs and attrs (the
  same rule graph building runs, so both modes reject the same inputs with
  the same error), inputs are transparently moved to the resolved device,
  the op runs immediately, and the call is recorded on any active tape
  watching one of its inputs. All of this bookkeeping is one frame,
  ``dispatch`` itself; it calls out only to the rule, to
  ``resolve_placement``, to the op's compute or kernel and, under a tape, to
  ``_notify_tapes``. An op with a ``compute`` gets its inputs' arrays and
  its result is wrapped once, so eager runs the same function on the same
  arrays as a staged plan and constant folding do;
* graph building: a node is appended to the open trace and symbolic outputs
  come back. No kernel runs (constants embed their value directly).

The user-facing wrappers at the bottom (``add``, ``matmul``, ...) are thin:
they coerce plain Python values to tensors and call dispatch.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import kernels as _k
from .devices import DeviceName, resolve_device
from .dtypes import DType, float32
from .errors import (
    ArityMismatch,
    AttrMismatch,
    DuplicateOp,
    InvalidOpDef,
    KernelError,
    NotDifferentiable,
    StageflowError,
    SymbolicTensor,
    UnknownOp,
)
from .graph import GraphFunction
from .runtime import ExecutionContext, current_context, get_runtime
from .state import Variable
from .tensor import Tensor, coerce, constant as _constant_tensor, move_to, to_device

# Attr value kinds.
INT, FLOAT, BOOL, STRING, DTYPE, SHAPE, AXES, TENSOR, FUNCTION = (
    "int", "float", "bool", "string", "dtype", "shape", "axes", "tensor", "function",
)


@dataclass(frozen=True)
class OpDef:
    name: str
    input_arity: Optional[int]  # None = variadic
    attr_schema: Dict[str, Tuple[str, bool]]  # name -> (kind, required)
    output_arity: Optional[int]
    stateful: bool
    infer: Callable
    # Exactly one of the two (``register_op`` checks): ``compute(*arrays,
    # **attrs)`` returns the one output array; ``kernel(attrs, inputs, env)``
    # returns a list of tensors, for ops that need more than arrays.
    compute: Optional[Callable] = None
    kernel: Optional[Callable] = None
    gradient: Optional[Callable] = None
    # The value an absent optional attr means, for those that have one: plan
    # value numbering treats an attr given at its default as absent.
    attr_defaults: Dict[str, Any] = field(default_factory=dict, compare=False)
    # Names of the required attrs, so a call without attrs canonicalizes
    # without walking the schema, and each attr's checker, by name.
    required_attrs: Tuple[str, ...] = field(init=False, repr=False, compare=False)
    attr_checks: Dict[str, Callable] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "required_attrs", tuple(
            name for name, (_, required) in self.attr_schema.items() if required))
        try:
            checks = {name: _ATTR_CHECKS[kind] for name, (kind, _) in self.attr_schema.items()}
        except KeyError as e:
            raise InvalidOpDef(f"op {self.name!r} has an attr of unknown kind {e}") from None
        object.__setattr__(self, "attr_checks", checks)

    @property
    def differentiable(self) -> bool:
        return self.gradient is not None


class OpRegistry:
    """Immutable after startup apart from explicit register_op calls."""

    def __init__(self):
        self._defs: Dict[str, OpDef] = {}

    def register(self, op_def: OpDef) -> None:
        if op_def.name in self._defs:
            raise DuplicateOp(f"op {op_def.name!r} is already registered")
        self._defs[op_def.name] = op_def

    def get(self, name: str) -> OpDef:
        try:
            return self._defs[name]
        except KeyError:
            raise UnknownOp(f"unknown op {name!r}") from None

    def all_defs(self) -> List[OpDef]:
        return list(self._defs.values())


def _schema(**attrs) -> Dict[str, Tuple[str, bool]]:
    """attrs: name=kind for required, name=(kind, False) for optional."""
    out = {}
    for name, spec in attrs.items():
        if isinstance(spec, tuple):
            out[name] = spec
        else:
            out[name] = (spec, True)
    return out


def build_registry() -> OpRegistry:
    from . import gradients

    grads = gradients.GRADIENTS
    reg = OpRegistry()

    def op(name, arity, out_arity, stateful=False, defaults=None, tensors=False,
           **attrs):  # tensors: the op's entry is a Tensor kernel
        entry = _k.KERNELS[name]
        reg.register(
            OpDef(
                name=name,
                input_arity=arity,
                attr_schema=_schema(**attrs),
                output_arity=out_arity,
                stateful=stateful,
                infer=_k.INFERENCE[name],
                compute=None if tensors else entry,
                kernel=entry if tensors else None,
                gradient=grads.get(name),
                attr_defaults=defaults or {},
            )
        )

    op("constant", 0, 1, tensors=True, value=TENSOR)
    op("identity", 1, 1)
    op("add", 2, 1)
    op("sub", 2, 1)
    op("mul", 2, 1)
    op("div", 2, 1)
    op("neg", 1, 1)
    op("exp", 1, 1)
    op("log", 1, 1)
    op("softplus", 1, 1)
    op("relu", 1, 1)
    op("step_positive", 1, 1)
    # Absent transpose attrs mean False; the gradient rule sets only True
    # ones, so forward graphs keep their bytes.
    op("matmul", 2, 1, defaults={"transpose_a": False, "transpose_b": False},
       transpose_a=(BOOL, False), transpose_b=(BOOL, False))
    op("transpose", 1, 1)
    op("greater", 2, 1)
    op("reshape", 1, 1, shape=SHAPE)
    op("broadcast_to", 1, 1, shape=SHAPE)
    reduce_defaults = {"axes": None, "keepdims": False}  # all axes, dropped
    op("reduce_sum", 1, 1, defaults=reduce_defaults,
       axes=(AXES, False), keepdims=(BOOL, False))
    op("reduce_mean", 1, 1, defaults=reduce_defaults,
       axes=(AXES, False), keepdims=(BOOL, False))
    op("eye", 0, 1, size=INT, dtype=DTYPE)
    op("random_normal", 0, 1, stateful=True, shape=SHAPE, dtype=DTYPE)
    op("dropout", 1, 2, stateful=True, tensors=True, rate=FLOAT)
    op("read_variable", 1, 1, stateful=True, tensors=True)
    op("assign_variable", 2, 0, stateful=True, tensors=True)
    op("assign_add_variable", 2, 0, stateful=True, tensors=True)
    op("call_function", None, None, tensors=True, function=FUNCTION)
    op(
        "cond", None, None, tensors=True,
        then_branch=FUNCTION, else_branch=FUNCTION,
        n_operands=INT, n_then_captured=INT, n_else_captured=INT,
    )
    op(
        "while_loop", None, None, tensors=True,
        loop_cond=FUNCTION, loop_body=FUNCTION,
        n_vars=INT, n_cond_captured=INT, n_body_captured=INT,
    )
    op("host_call", None, None, stateful=True, tensors=True, callback=INT)
    return reg


def register_op(op_def: OpDef) -> None:
    """Register a custom op with the live runtime; DuplicateOp on reuse,
    InvalidOpDef unless it has exactly one of ``compute`` and ``kernel``
    (and a compute op has one output)."""
    if (op_def.compute is None) == (op_def.kernel is None):
        raise InvalidOpDef(
            f"op {op_def.name!r} must have exactly one of compute and kernel"
        )
    if op_def.compute is not None and op_def.output_arity != 1:
        raise InvalidOpDef(
            f"op {op_def.name!r} has a compute, which returns one array, but "
            f"output arity {op_def.output_arity}"
        )
    get_runtime().registry.register(op_def)


def get_op_def(name: str) -> OpDef:
    return get_runtime().registry.get(name)


def kernel_table() -> List[OpDef]:
    """The built-in op set (plus anything registered since startup)."""
    return get_runtime().registry.all_defs()


# ---------------------------------------------------------------------------
# Attr canonicalization
# ---------------------------------------------------------------------------


def canonicalize_attrs(op_def: OpDef, attrs: Optional[dict]) -> Dict[str, Any]:
    """``attrs`` (a dict, or None for none) checked against the op's schema,
    in name order, each value by its kind's checker; AttrMismatch for
    attrs that are not a dict and for an unexpected, missing or ill-typed
    attr."""
    if attrs is None:
        attrs = {}
    elif not isinstance(attrs, dict):
        raise AttrMismatch(
            f"{op_def.name}: attrs must be a dict, got {type(attrs).__name__}"
        )
    checks = op_def.attr_checks
    out: Dict[str, Any] = {}
    for name in sorted(attrs):
        check = checks.get(name)
        if check is None:
            raise AttrMismatch(f"{op_def.name}: unexpected attr {name!r}")
        out[name] = check(op_def.name, name, attrs[name])
    for name in op_def.required_attrs:
        if name not in out:
            raise AttrMismatch(f"{op_def.name}: missing required attr {name!r}")
    return out


def _typed_attr(types: tuple, what: str, convert=None):
    """The checker of a kind whose values are instances of ``types``,
    returned through ``convert``; a bool is a value only where ``types``
    names it."""

    def check(op: str, name: str, value):
        if not isinstance(value, types) or (
            isinstance(value, bool) and bool not in types
        ):
            raise AttrMismatch(f"{op}.{name} must be {what}, got {value!r}")
        return value if convert is None else convert(value)

    return check


def _bool_attr(op: str, name: str, value):
    if value is True or value is False:
        return value
    if not isinstance(value, np.bool_):
        raise AttrMismatch(f"{op}.{name} must be a bool, got {value!r}")
    return bool(value)


def _shape_attr(op: str, name: str, value):
    try:
        dims = tuple([None if d is None else int(d) for d in value])
    except (TypeError, ValueError):
        raise AttrMismatch(f"{op}.{name} must be a shape, got {value!r}") from None
    for d in dims:
        if d is not None and d < 0:
            raise AttrMismatch(f"{op}.{name}: negative extent in {dims}")
    return dims


def _axes_attr(op: str, name: str, value):
    if value is None:
        return None
    try:
        return tuple(map(int, value))
    except (TypeError, ValueError):
        raise AttrMismatch(f"{op}.{name} must be axes, got {value!r}") from None


def _tensor_attr(op: str, name: str, value):
    if not isinstance(value, Tensor) or value.is_symbolic:
        raise AttrMismatch(f"{op}.{name} must be a concrete tensor")
    return value


# One checker per attr kind: ``(op name, attr name, value)`` to the
# canonical value, or AttrMismatch.
_ATTR_CHECKS: Dict[str, Callable[[str, str, Any], Any]] = {
    INT: _typed_attr((int, np.integer), "an int", int),
    FLOAT: _typed_attr((int, float, np.floating), "a float", float),
    BOOL: _bool_attr,
    STRING: _typed_attr((str,), "a string"),
    DTYPE: _typed_attr((DType,), "a DType"),
    SHAPE: _shape_attr,
    AXES: _axes_attr,
    TENSOR: _tensor_attr,
    FUNCTION: _typed_attr((str, GraphFunction), "a graph function or its name"),
}


# ---------------------------------------------------------------------------
# Placement
# ---------------------------------------------------------------------------


def resolve_placement(
    op_def: OpDef, inputs: Sequence, ctx: ExecutionContext
) -> Tuple[DeviceName, List]:
    """Pick the execution device and transparently copy stray inputs to it,
    for an op (``op_def``) or a staged call (None); both place alike.

    Each transparent copy bumps the runtime copy metric. With a single
    device and no scope, ``inputs`` itself comes back.
    """
    rt = ctx.runtime
    if len(rt.devices) == 1 and not ctx.device_scopes:
        return rt.devices[0].name, inputs
    target = placement_target(inputs, ctx)
    return target, move_to(target, inputs, rt.stats)


def placement_target(inputs: Sequence, ctx: ExecutionContext) -> DeviceName:
    """Scope wins if set; otherwise the first tensor input's device;
    otherwise the default CPU."""
    target = ctx.scope_device()
    if target is None:
        target = next((x.device for x in inputs if isinstance(x, Tensor)),
                      ctx.runtime.devices[0].name)
    return target


def copy_to(t: Tensor, dst: Union[str, DeviceName]) -> Tensor:
    """Explicitly copy a tensor to a device (identity if already there)."""
    name = resolve_device(dst)
    return t if t.device == name else to_device(t, name)


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------


def dispatch(op: str, inputs: Sequence, attrs: Optional[dict] = None) -> List[Tensor]:
    """Run an op eagerly or record it into the open trace.

    Look the op up (UnknownOp). In a trace, ``TraceState.record`` takes it
    from there. The rest of the eager path is this frame, in this order:
    check the arity and canonicalize the attrs; reject symbolic and
    non-tensor inputs; run the op's ``infer`` rule, which the compute or
    kernel trusts; place the inputs (``resolve_placement``, the one owner of
    placement); run the compute on the input arrays and wrap its result, or
    run the kernel, turning a non-Stageflow failure into KernelError; count
    the op and record it on the active tapes.
    """
    ctx = current_context()
    try:
        inputs = list(inputs)
    except TypeError:
        raise KernelError(
            f"{op}: inputs must be a sequence, got {type(inputs).__name__}"
        ) from None
    try:
        op_def = ctx.runtime.registry._defs[op]
    except KeyError:
        raise UnknownOp(f"unknown op {op!r}") from None
    if ctx.traces and not ctx.escape_depth:
        return ctx.traces[-1].record(op_def, inputs, attrs, ctx)
    if op_def.input_arity is not None and len(inputs) != op_def.input_arity:
        raise ArityMismatch(
            f"{op} takes {op_def.input_arity} inputs, got {len(inputs)}"
        )
    attrs = (canonicalize_attrs(op_def, attrs)
             if attrs is not None or op_def.required_attrs else {})
    specs = []
    for i, x in enumerate(inputs):
        if isinstance(x, Tensor):
            if x._symbolic is not None:
                raise SymbolicTensor(
                    f"symbolic tensor passed to eager dispatch of {op!r}; "
                    "symbolic values are only usable inside their trace"
                )
        elif not isinstance(x, Variable):
            raise KernelError(
                f"{op}: input {i} is {type(x).__name__}, "
                "expected a tensor or variable"
            )
        elif op_def.compute is not None:
            raise KernelError(f"{op}: input {i} is a variable; {op} takes tensors")
        specs.append((x.dtype, x.shape))
    op_def.infer(attrs, specs, None)
    device, moved = resolve_placement(op_def, inputs, ctx)
    compute = op_def.compute
    try:
        if compute is None:
            env = ctx.runtime.eager_envs.get(device) or _k.KernelEnv(device=device)
            outputs = op_def.kernel(attrs, moved, env)
        else:
            n = len(moved)  # unrolled for the common attr-free arities
            if n == 2 and not attrs:
                out = compute(moved[0]._array, moved[1]._array)
            elif n == 1 and not attrs:
                out = compute(moved[0]._array)
            else:
                out = compute(*[x._array for x in moved], **attrs)
            outputs = [_k._wrap(out, device)]
    except StageflowError:
        raise
    except Exception as e:  # numpy and friends
        raise KernelError(f"{op}: {e}") from e
    counts = ctx.op_counts
    counts[op] = counts.get(op, 0) + 1
    if ctx.tapes:
        _notify_tapes(op_def, inputs, outputs, attrs, ctx)
    return outputs


def _notify_tapes(op_def, inputs, outputs, attrs, ctx) -> None:
    # Reading a variable watches it on every active tape, without an
    # explicit watch call.
    if op_def.name == "read_variable":
        var = inputs[0]
        if var.dtype.is_float:
            for t in ctx.tapes:
                if t.active:
                    t._auto_watch(var)
    if op_def.differentiable:
        for t in ctx.tapes:
            if t.active:
                t._maybe_record(op_def, inputs, outputs, attrs)
    elif op_def.name != "host_call" and any(y.dtype.is_float for y in outputs):
        # A gradient reaching a float output of an op without a rule raises,
        # where it would otherwise stop there as if it were a constant. An
        # eager host call's callback puts its own ops on the tapes, and a
        # traced one goes on with its derived backward (``TraceState.record``).
        for t in ctx.tapes:
            if t.active and not t._tracked.isdisjoint(map(id, inputs)):
                t._record_custom(op_def.name, inputs, outputs, (), raising_backward(
                    f"{op_def.name} has no gradient rule, and a gradient reached "
                    "its output"
                ))


def raising_backward(message: str):
    """A tape entry's backward that raises NotDifferentiable(message)."""
    def backward(out_grads, needs):
        raise NotDifferentiable(message)

    return backward


# ---------------------------------------------------------------------------
# Coercion and user-facing wrappers
# ---------------------------------------------------------------------------


def _as_operand(x, like: Optional[Tensor] = None):
    """Coerce a wrapper argument to a Tensor (variables read themselves).

    A plain value next to a tensor takes that tensor's dtype, and must fit
    it (NarrowingOverflow otherwise).
    """
    if isinstance(x, Tensor):
        return x
    if isinstance(x, Variable):
        return x.read_value()
    if isinstance(like, Tensor):
        return coerce(x, like.dtype)
    return _constant_tensor(x)


def _binary(op: str):
    def fn(a, b):
        if not (isinstance(a, Tensor) and isinstance(b, Tensor)):
            if isinstance(a, Variable):
                a = a.read_value()
            if isinstance(b, Variable):
                b = b.read_value()
            if not isinstance(a, Tensor):
                a = _as_operand(a, like=b if isinstance(b, Tensor) else None)
            if not isinstance(b, Tensor):
                b = _as_operand(b, like=a)
        return dispatch(op, [a, b])[0]

    fn.__name__ = op
    return fn


def _unary(op: str):
    def fn(x):
        return dispatch(op, [_as_operand(x)])[0]

    fn.__name__ = op
    return fn


add = _binary("add")
sub = _binary("sub")
mul = _binary("mul")
div = _binary("div")
matmul = _binary("matmul")
greater = _binary("greater")
neg = _unary("neg")
exp = _unary("exp")
log = _unary("log")
softplus = _unary("softplus")
relu = _unary("relu")
identity = _unary("identity")


def reshape(x, shape) -> Tensor:
    return dispatch("reshape", [_as_operand(x)], {"shape": shape})[0]


def broadcast_to(x, shape) -> Tensor:
    return dispatch("broadcast_to", [_as_operand(x)], {"shape": shape})[0]


def reduce_sum(x, axes=None, keepdims: bool = False) -> Tensor:
    return dispatch(
        "reduce_sum", [_as_operand(x)], {"axes": axes, "keepdims": keepdims}
    )[0]


def reduce_mean(x, axes=None, keepdims: bool = False) -> Tensor:
    return dispatch(
        "reduce_mean", [_as_operand(x)], {"axes": axes, "keepdims": keepdims}
    )[0]


def eye(size: int, dtype: DType = float32) -> Tensor:
    return dispatch("eye", [], {"size": size, "dtype": dtype})[0]


def random_normal(shape, dtype: DType = float32) -> Tensor:
    return dispatch("random_normal", [], {"shape": shape, "dtype": dtype})[0]


def dropout(x, rate: float) -> Tensor:
    out, _mask = dispatch("dropout", [_as_operand(x)], {"rate": rate})
    return out


def _install_operators() -> None:
    def coerced(op):
        def method(self, other):
            return dispatch(op, [self, _as_operand(other, like=self)])[0]

        return method

    def r_coerced(op):
        def method(self, other):
            return dispatch(op, [_as_operand(other, like=self), self])[0]

        return method

    Tensor.__add__ = coerced("add")
    Tensor.__radd__ = r_coerced("add")
    Tensor.__sub__ = coerced("sub")
    Tensor.__rsub__ = r_coerced("sub")
    Tensor.__mul__ = coerced("mul")
    Tensor.__rmul__ = r_coerced("mul")
    Tensor.__truediv__ = coerced("div")
    Tensor.__rtruediv__ = r_coerced("div")
    Tensor.__matmul__ = coerced("matmul")
    Tensor.__gt__ = coerced("greater")
    Tensor.__neg__ = lambda self: dispatch("neg", [self])[0]

    # Arithmetic on a variable reads it first (the binary wrappers do), which
    # also auto-watches it on active tapes.
    for name, fn in (("add", add), ("sub", sub), ("mul", mul),
                     ("truediv", div), ("matmul", matmul)):
        setattr(Variable, f"__{name}__", fn)
        setattr(Variable, f"__r{name}__", lambda self, other, fn=fn: fn(other, self))
    Variable.__neg__ = lambda self: -self.read_value()


_install_operators()

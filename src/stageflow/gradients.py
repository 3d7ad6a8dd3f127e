"""Per-op gradient rules.

Each rule maps upstream output gradients to input gradients and is written
entirely in terms of dispatched primitive ops. That single property gives
higher-order differentiation for free: when a rule runs while an outer tape
is active its ops are recorded like any others, and when it runs while a
trace is open its ops become nodes of the backward graph being built.
A tape whose backward repeats traces its rules the same way, once, to get
a plan it replays (see ``tape``): there the saved forward values are
placeholders, so a rule that reads a concrete value (``.numpy()``) raises
in that trace, and that backward keeps running op by op.

Rules receive a ``GradContext``: attrs plus lazy accessors for the saved
forward inputs/outputs and the upstream gradients. Accessors are lazy so the
staged-backward builder only exports forward intermediates a rule actually
touches. ``needs(i)`` says whether input ``i``'s gradient is wanted at all;
a rule may return None for an input that is not needed instead of computing
it, and must compute the needed ones with the same ops either way.
"""
from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

from .dtypes import DType
from .errors import StagingError
from .ops import (
    add, broadcast_to, dispatch, div, exp, mul, neg, reduce_sum, reshape,
)
from .tensor import Tensor, concrete_tensor, default_device, tensor_from_host


class GradContext:
    """Accessors into one recorded op application. ``in_specs`` None reads
    a spec from the saved input itself, and only when a rule asks for it."""

    __slots__ = ("attrs", "_input_fn", "_output_fn", "_in_specs", "_out_grads",
                 "_needs")

    def __init__(self, attrs, input_fn, output_fn, in_specs, out_grads, needs=None):
        self.attrs = attrs
        self._input_fn = input_fn
        self._output_fn = output_fn
        self._in_specs = in_specs
        self._out_grads = out_grads
        self._needs = needs  # per-input flags; None = every input

    def input(self, i: int) -> Tensor:
        return self._input_fn(i)

    def output(self, j: int) -> Tensor:
        return self._output_fn(j)

    def out_grad(self, j: int = 0) -> Optional[Tensor]:
        return self._out_grads[j]

    def in_spec(self, i: int):
        if self._in_specs is None:
            x = self._input_fn(i)
            return (x.dtype, x.shape)
        return self._in_specs[i]

    def needs(self, i: int) -> bool:
        return self._needs is None or self._needs[i]


def _static_shape(shape, what: str):
    if None in shape:
        raise StagingError(
            f"cannot build a gradient for {what} with unknown dims {list(shape)}; "
            "gradients of shape-polymorphic functions are not supported"
        )
    return tuple(shape)


def _scalar(value: float, dtype: DType) -> Tensor:
    return tensor_from_host([value], (), dtype)


def _filled(fill, spec, what: str) -> Tensor:
    dtype, shape = spec
    arr = fill(_static_shape(shape, what), dtype=dtype.np_dtype)
    arr.flags.writeable = False
    return concrete_tensor(dtype, arr.shape, default_device(), arr)


def zeros_for(spec) -> Tensor:
    return _filled(np.zeros, spec, "a zero gradient")


def ones_for(spec) -> Tensor:
    return _filled(np.ones, spec, "a gradient seed")


def _unbroadcast(g: Tensor, target_shape) -> Tensor:
    """Sum a broadcast gradient back down to the operand's shape."""
    if g.shape == target_shape and None not in target_shape:
        return g
    target = _static_shape(target_shape, "an unbroadcast")
    gshape = _static_shape(g.shape, "an unbroadcast")
    if gshape == target:
        return g
    extra = len(gshape) - len(target)
    axes = list(range(extra))
    for i, d in enumerate(target):
        if d == 1 and gshape[extra + i] != 1:
            axes.append(extra + i)
    if axes:
        g = reduce_sum(g, axes=tuple(axes), keepdims=False)
    if g.shape != target:
        g = reshape(g, target)
    return g


# Individual rules. Return one entry per op input; None means no gradient
# flows to that input.


def _grad_identity(ctx) -> List[Optional[Tensor]]:
    return [ctx.out_grad()]


def _grad_add(ctx):
    up = ctx.out_grad()
    return [
        _unbroadcast(up, ctx.in_spec(0)[1]) if ctx.needs(0) else None,
        _unbroadcast(up, ctx.in_spec(1)[1]) if ctx.needs(1) else None,
    ]


def _grad_sub(ctx):
    up = ctx.out_grad()
    return [
        _unbroadcast(up, ctx.in_spec(0)[1]) if ctx.needs(0) else None,
        _unbroadcast(neg(up), ctx.in_spec(1)[1]) if ctx.needs(1) else None,
    ]


def _grad_mul(ctx):
    up = ctx.out_grad()
    return [
        _unbroadcast(mul(up, ctx.input(1)), ctx.in_spec(0)[1])
        if ctx.needs(0) else None,
        _unbroadcast(mul(up, ctx.input(0)), ctx.in_spec(1)[1])
        if ctx.needs(1) else None,
    ]


def _grad_div(ctx):
    up = ctx.out_grad()
    a, b = ctx.input(0), ctx.input(1)
    ga = _unbroadcast(div(up, b), ctx.in_spec(0)[1]) if ctx.needs(0) else None
    gb = (
        _unbroadcast(neg(div(mul(up, a), mul(b, b))), ctx.in_spec(1)[1])
        if ctx.needs(1) else None
    )
    return [ga, gb]


def _grad_neg(ctx):
    return [neg(ctx.out_grad())]


def _grad_exp(ctx):
    return [mul(ctx.out_grad(), ctx.output(0))]


def _grad_log(ctx):
    return [div(ctx.out_grad(), ctx.input(0))]


def _grad_softplus(ctx):
    x = ctx.input(0)
    one = _scalar(1.0, ctx.in_spec(0)[0])
    sigmoid = div(one, add(one, exp(neg(x))))
    return [mul(ctx.out_grad(), sigmoid)]


def _grad_relu(ctx):
    gate = dispatch("step_positive", [ctx.input(0)])[0]
    return [mul(ctx.out_grad(), gate)]


def _matmul(a, b, ta: bool, tb: bool) -> Tensor:
    """``a @ b`` with either operand read transposed; only a True attr is
    set, as a forward ``matmul`` has none."""
    attrs = {}
    if ta:
        attrs["transpose_a"] = True
    if tb:
        attrs["transpose_b"] = True
    return dispatch("matmul", [a, b], attrs)[0]


def _grad_step_positive(ctx):
    # A step's derivative is zero wherever it is defined: relu's second
    # derivative passes through here.
    return [None]


def _grad_matmul(ctx):
    """The four transpose cases, as TensorFlow's ``_MatMulGrad`` writes
    them; none dispatches a ``transpose``. With ``G`` the upstream gradient:

    * ``C = A B``:     ``dA = G B^T``,     ``dB = A^T G``;
    * ``C = A B^T``:   ``dA = G B``,       ``dB = G^T A``;
    * ``C = A^T B``:   ``dA = B G^T``,     ``dB = A G``;
    * ``C = A^T B^T``: ``dA = B^T G^T``,   ``dB = G^T A^T``.
    """
    up = ctx.out_grad()
    ta = ctx.attrs.get("transpose_a", False)
    tb = ctx.attrs.get("transpose_b", False)
    ga = gb = None
    # Each gradient touches only the other operand: a staged backward
    # exports just the forward values its rules read.
    if ctx.needs(0):
        b = ctx.input(1)
        ga = _matmul(b, up, tb, True) if ta else _matmul(up, b, False, not tb)
    if ctx.needs(1):
        a = ctx.input(0)
        gb = _matmul(up, a, True, ta) if tb else _matmul(a, up, not ta, False)
    return [ga, gb]


def _grad_transpose(ctx):
    return [dispatch("transpose", [ctx.out_grad()])[0]]


def _grad_reshape(ctx):
    shape = _static_shape(ctx.in_spec(0)[1], "a reshape gradient")
    return [reshape(ctx.out_grad(), shape)]


def _grad_broadcast_to(ctx):
    return [_unbroadcast(ctx.out_grad(), ctx.in_spec(0)[1])]


def _reduced_axes(shape, axes):
    rank = len(shape)
    if axes is None:
        return tuple(range(rank))
    return tuple(ax % rank for ax in axes)


def _kept_dims_grad(ctx, what: str):
    """A reduction's upstream gradient with the reduced axes kept as 1s,
    plus the input shape and the reduced axes."""
    up = ctx.out_grad()
    in_shape = _static_shape(ctx.in_spec(0)[1], what)
    axes = _reduced_axes(in_shape, ctx.attrs.get("axes"))
    if not ctx.attrs.get("keepdims", False):
        mid_shape = tuple(1 if i in axes else d for i, d in enumerate(in_shape))
        up = reshape(up, mid_shape)
    return up, in_shape, axes


def _grad_reduce_sum(ctx):
    up, in_shape, _ = _kept_dims_grad(ctx, "a reduce_sum gradient")
    return [broadcast_to(up, in_shape)]


def _grad_reduce_mean(ctx):
    up, in_shape, axes = _kept_dims_grad(ctx, "a reduce_mean gradient")
    count = 1
    for ax in axes:
        count *= in_shape[ax]
    scaled = mul(up, _scalar(1.0 / count, ctx.in_spec(0)[0]))
    return [broadcast_to(scaled, in_shape)]


def _grad_dropout(ctx):
    up = ctx.out_grad(0)
    if up is None:
        return [None]
    return [mul(up, ctx.output(1))]  # output 1 is the scaled keep-mask


def _grad_read_variable(ctx):
    return [ctx.out_grad()]


GRADIENTS: Dict[str, Callable[[GradContext], List[Optional[Tensor]]]] = {
    "identity": _grad_identity,
    "add": _grad_add,
    "sub": _grad_sub,
    "mul": _grad_mul,
    "div": _grad_div,
    "neg": _grad_neg,
    "exp": _grad_exp,
    "log": _grad_log,
    "softplus": _grad_softplus,
    "relu": _grad_relu,
    "step_positive": _grad_step_positive,
    "matmul": _grad_matmul,
    "transpose": _grad_transpose,
    "reshape": _grad_reshape,
    "broadcast_to": _grad_broadcast_to,
    "reduce_sum": _grad_reduce_sum,
    "reduce_mean": _grad_reduce_mean,
    "dropout": _grad_dropout,
    "read_variable": _grad_read_variable,
}

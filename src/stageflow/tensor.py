"""Dense tensor values and host interchange.

A Tensor is immutable once constructed and is either *concrete* (it owns a
row-major buffer resident on some device) or *symbolic* (a reference to a
node output inside one open trace; it has a dtype and shape but no data).
Symbolic tensors never escape the trace that made them: any attempt to read
their data raises ``SymbolicTensor``.

Storage is a read-only numpy array. All mutable state in the runtime lives
in variables (see ``state``), which own their buffers separately.

``Tensor()`` checks that it gets exactly one of an array and a symbolic
ref; ``symbolic_tensor`` (graph building) and ``concrete_tensor`` (kernel
results and other hot eager paths) skip that check.
"""
from __future__ import annotations

import threading
from typing import Any, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from . import dtypes
from .devices import DeviceName
from .dtypes import DType, Shape, SymShape
from .errors import LengthMismatch, NarrowingOverflow, ShapeMismatch, SymbolicTensor
from .runtime import current_context, get_runtime

broadcast_shapes = dtypes.broadcast_shapes

_INT32_MIN = -(2**31)
_INT32_MAX = 2**31 - 1


class SymbolicRef(NamedTuple):
    """Identity of a node output inside one trace."""

    trace_id: int
    ref: Any  # builder-level value reference, owned by graph.GraphBuilder


class Tensor:
    __slots__ = ("dtype", "shape", "device", "_array", "_symbolic", "_born_trace")

    def __init__(
        self,
        dtype: DType,
        shape: SymShape,
        device: DeviceName,
        array: Optional[np.ndarray] = None,
        symbolic: Optional[SymbolicRef] = None,
    ):
        if (array is None) == (symbolic is None):
            raise SymbolicTensor("tensor must be exactly one of concrete or symbolic")
        self.dtype = dtype
        self.shape = tuple(shape)
        self.device = device
        self._array = array
        self._symbolic = symbolic
        self._born_trace = _current_trace_id() if _open_traces else None

    # -- predicates --------------------------------------------------------

    @property
    def is_symbolic(self) -> bool:
        return self._symbolic is not None

    @property
    def rank(self) -> int:
        return len(self.shape)

    @property
    def size(self) -> int:
        return dtypes.element_count(self.shape)

    # -- data access -------------------------------------------------------

    def raw(self) -> np.ndarray:
        """The backing array, read-only, no copy. Concrete tensors only."""
        if self._array is None:
            raise SymbolicTensor(
                "symbolic tensor has no data; it is only valid inside its trace"
            )
        return self._array

    def numpy(self) -> np.ndarray:
        """A mutable host copy of the data."""
        return self.raw().copy()

    def item(self) -> Union[float, int, bool]:
        return self.raw().reshape(-1)[0].item()

    def __float__(self) -> float:
        return float(self.item())

    def __repr__(self) -> str:
        if self.is_symbolic:
            return f"<symbolic Tensor {self.dtype.value}{list(self.shape)}>"
        return (
            f"Tensor({self._array!r}, dtype={self.dtype.value}, "
            f"device={self.device.render()!r})"
        )

    # Arithmetic operators are installed by stageflow.ops at import time so
    # that this module stays free of dispatch machinery.


# Traces open on any thread (``staging.TraceState.open`` keeps the count).
# While it is 0 no tensor can be born inside a trace, so construction skips
# the thread-local lookup. A thread raises the count before it pushes its
# trace and lowers it after the pop, so it never reads 0 while its own
# trace is open.
_open_traces = 0
_open_traces_lock = threading.Lock()


def count_open_trace(delta: int) -> None:
    global _open_traces
    with _open_traces_lock:
        _open_traces += delta


def _current_trace_id() -> Optional[int]:
    ctx = current_context()
    if ctx.traces:
        return ctx.traces[-1].trace_id
    return None


def symbolic_tensor(dtype: DType, shape: SymShape, device: DeviceName,
                    sref: SymbolicRef) -> Tensor:
    """A symbolic tensor, born in ``sref``'s trace. Unlike ``Tensor()`` it
    reads no thread context: a symbolic tensor resolves through its ref,
    never through the trace it was born in."""
    t = object.__new__(Tensor)
    t.dtype = dtype
    t.shape = tuple(shape)
    t.device = device
    t._array = None
    t._symbolic = sref
    t._born_trace = sref.trace_id
    return t


def concrete_tensor(dtype: DType, shape: Shape, device: DeviceName,
                    array: np.ndarray) -> Tensor:
    """The counterpart of ``symbolic_tensor`` for a caller that holds a
    read-only ``array`` of ``dtype`` and its shape as a tuple: unlike
    ``Tensor()`` it skips the concrete-or-symbolic check and the shape copy."""
    t = object.__new__(Tensor)
    t.dtype = dtype
    t.shape = shape
    t.device = device
    t._array = array
    t._symbolic = None
    t._born_trace = _current_trace_id() if _open_traces else None
    return t


def to_device(t: Tensor, device: DeviceName) -> Tensor:
    """A handle to ``t``'s data on ``device``. Devices are simulated and
    buffers immutable, so the copy shares the buffer."""
    return Tensor(t.dtype, t.shape, device, array=t.raw())


def move_to(target: DeviceName, values: Sequence, stats) -> list:
    """``values`` with every tensor off ``target`` copied there, once per
    distinct tensor even when it is passed twice; ``stats`` counts each
    copy."""
    copies = {}
    out = []
    for v in values:
        if isinstance(v, Tensor) and v.device != target:
            copy = copies.get(id(v))
            if copy is None:
                copy = copies[id(v)] = to_device(v, target)
                stats.count_copy()
            v = copy
        out.append(v)
    return out


def default_device() -> DeviceName:
    return get_runtime().devices[0].name


def tensor_from_host(
    data: Sequence, shape: Sequence[int], dtype: DType
) -> Tensor:
    """Build a concrete tensor from a flat host sequence.

    The data is copied; the caller's buffer is never aliased. Values must be
    representable in ``dtype`` (int32 range-checks, NarrowingOverflow
    otherwise). Only boolean, integer and float host data converts: any
    other kind (None, strings, complex numbers, objects) raises
    NarrowingOverflow; a shape that is not non-negative ints, or a dtype
    that is not a DType, ShapeMismatch.
    """
    _check_dtype(dtype)
    shape = dtypes.check_shape(shape)
    flat = _host_array(data).reshape(-1)
    if flat.dtype.kind not in "biuf":
        raise NarrowingOverflow(f"host data of dtype {flat.dtype} is not a number")
    if flat.size != dtypes.element_count(shape):
        raise LengthMismatch(
            f"{flat.size} values cannot fill shape {list(shape)} "
            f"({dtypes.element_count(shape)} elements)"
        )
    if dtype is DType.int32 and flat.size:
        try:
            with np.errstate(invalid="ignore"):
                as_int = flat.astype(np.int64)
        except (OverflowError, TypeError, ValueError):
            raise NarrowingOverflow("value not representable as int32") from None
        if np.any(as_int != flat):
            raise NarrowingOverflow("non-integral value for int32 tensor")
        if as_int.min() < _INT32_MIN or as_int.max() > _INT32_MAX:
            raise NarrowingOverflow("value out of int32 range")
    array = flat.astype(dtype.np_dtype).reshape(shape).copy()
    array.flags.writeable = False
    return Tensor(dtype, shape, default_device(), array=array)


def _host_array(data) -> np.ndarray:
    """``np.asarray(data)``; LengthMismatch for ragged nested sequences."""
    try:
        return np.asarray(data)
    except ValueError as e:
        raise LengthMismatch(f"host data is not rectangular: {e}") from None


def _check_dtype(dtype) -> None:
    if not isinstance(dtype, DType):
        raise ShapeMismatch(f"dtype must be a DType, got {dtype!r}")


def coerce(value, dtype: DType) -> Tensor:
    """A plain host value (scalar, nested sequence or array) as a tensor of
    ``dtype`` on the default device.

    The original values are checked, not their conversion: an int32 target
    rejects non-integral and out-of-range values with NarrowingOverflow, as
    ``tensor_from_host`` does.
    """
    if type(value) is float and dtype.is_float:
        # The common case (``x * 0.5``) built directly; the same bits as the
        # general path, since a Python float has a single rounding to dtype.
        array = np.array(value, dtype=dtype.np_dtype)
        array.flags.writeable = False
        return concrete_tensor(dtype, (), default_device(), array)
    arr = _host_array(value)
    return tensor_from_host(arr.reshape(-1), arr.shape, dtype)


def to_host(t: Tensor) -> Tuple[list, Shape, DType]:
    """Fetch a tensor's data as (flat row-major list, shape, dtype).

    Round-trips bit-exactly with ``tensor_from_host``. Raises
    ``SymbolicTensor`` for symbolic values.
    """
    arr = t.raw()
    return arr.reshape(-1).tolist(), t.shape, t.dtype


def constant(value, dtype: Optional[DType] = None) -> Tensor:
    """Convenience constructor from nested sequences / scalars / arrays.

    Python floats default to float32, ints to int32, bools to boolean.
    Other host data raises NarrowingOverflow, as in ``tensor_from_host``.
    A tensor comes back as is: another ``dtype`` raises ShapeMismatch, as
    does a ``dtype`` that is not a DType.
    """
    if dtype is not None:
        _check_dtype(dtype)
    if isinstance(value, Tensor):
        if dtype is not None and value.dtype is not dtype:
            raise ShapeMismatch(f"constant: the tensor is {value.dtype.value}, not {dtype.value}")
        return value
    arr = _host_array(value)
    if dtype is None:
        if arr.dtype.kind == "b":
            dtype = DType.boolean
        elif arr.dtype.kind in "iu":
            dtype = DType.int32
        elif arr.dtype == np.float64 and isinstance(value, np.ndarray):
            dtype = DType.float64
        else:  # floats; ``tensor_from_host`` rejects any other kind
            dtype = DType.float32
    return tensor_from_host(arr.reshape(-1), arr.shape, dtype)

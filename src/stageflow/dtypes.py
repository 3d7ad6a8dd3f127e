"""Element types and shape arithmetic.

The dtype set is a closed enumeration of four entries: two float widths for
differentiable math, int32 for indices and counters, and boolean for
predicates. There is no implicit promotion anywhere in the runtime; mixing
dtypes in an elementwise op is an error.

Shapes are plain tuples of non-negative extents. Inside a trace a dimension
may be ``None``, meaning "unknown until execution" (used by pinned signatures
with wildcard dims).
"""
from __future__ import annotations

import enum
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from .errors import BroadcastIncompatible, ShapeMismatch

Shape = Tuple[int, ...]
# Shapes of symbolic values may contain wildcard (unknown) dims.
SymShape = Tuple[Optional[int], ...]


class DType(enum.Enum):
    float32 = "float32"
    float64 = "float64"
    int32 = "int32"
    boolean = "boolean"

    def __init__(self, value: str):
        # Plain attributes, not properties: kernels read them for every
        # output they wrap.
        self.np_dtype = np.dtype(np.bool_ if value == "boolean" else value)
        self.width = int(self.np_dtype.itemsize)
        self.is_float = value in ("float32", "float64")

    def __repr__(self) -> str:
        return f"DType.{self.value}"

    # Members are singletons, so identity is equality: hash without the
    # Python frame of ``Enum.__hash__`` (every trace key hashes its dtypes).
    __hash__ = object.__hash__


float32 = DType.float32
float64 = DType.float64
int32 = DType.int32
boolean = DType.boolean

_FROM_NP = {d.np_dtype: d for d in DType}

# Stable single-byte tags, used by the wire formats and trace keys.
DTYPE_TAGS = {
    DType.float32: 1,
    DType.float64: 2,
    DType.int32: 3,
    DType.boolean: 4,
}
TAG_DTYPES = {v: k for k, v in DTYPE_TAGS.items()}


def check_shape(dims: Iterable[int]) -> Shape:
    """``dims`` as a shape; ShapeMismatch unless each is a non-negative int."""
    try:
        shape = tuple(int(d) for d in dims)
    except (TypeError, ValueError):
        raise ShapeMismatch(f"not a shape: {dims!r}") from None
    if any(d < 0 for d in shape):
        raise ShapeMismatch(f"negative extent in shape {shape}")
    return shape


def check_specs(specs: Iterable, error: type) -> list:
    """``specs`` as (DType, shape of ints or None) pairs, the form of a pinned
    signature or a callback's outputs; ``error`` for any other entry."""
    try:
        entries = list(specs)
    except TypeError:
        raise error(
            f"a signature is a list of (dtype, shape) entries, got {specs!r}"
        ) from None
    checked = []
    for entry in entries:
        try:
            dtype, shape = entry
            dims = tuple(None if d is None else int(d) for d in shape)
        except (TypeError, ValueError):
            raise error(
                f"a signature entry must be (dtype, shape of ints or None), got {entry!r}"
            ) from None
        if not isinstance(dtype, DType):
            raise error(f"signature dtypes must be DType, got {dtype!r}")
        checked.append((dtype, dims))
    return checked


def element_count(shape: Sequence[Optional[int]]) -> int:
    n = 1
    for d in shape:
        if d is None:
            raise ValueError("element count of a shape with wildcard dims")
        n *= d
    return n


def broadcast_shapes(a: Sequence[Optional[int]], b: Sequence[Optional[int]]) -> SymShape:
    """Right-aligned broadcast of two shapes (NumPy convention).

    Wildcard dims broadcast optimistically: ``None`` against ``1`` or
    ``None`` stays unknown, ``None`` against ``n > 1`` resolves to ``n``
    (validated for real at execution time).
    """
    if a == b or not b:
        return tuple(a)
    if not a:
        return tuple(b)
    pa, pb = tuple(a), tuple(b)
    if len(pa) < len(pb):
        pa = (1,) * (len(pb) - len(pa)) + pa
    else:
        pb = (1,) * (len(pa) - len(pb)) + pb
    out = []
    for da, db in zip(pa, pb):
        if da == db or db == 1:
            out.append(da)
        elif da == 1 or da is None:
            out.append(db)
        elif db is None:
            out.append(da)
        else:
            raise BroadcastIncompatible(
                f"shapes {tuple(a)} and {tuple(b)} are not broadcast-compatible"
            )
    return tuple(out)


def matches_spec(dtype: DType, shape: Sequence[int], want_dtype: DType,
                 want_shape: Sequence[Optional[int]]) -> bool:
    """Whether a concrete (dtype, shape) fits a spec: the same dtype, the
    same rank, and every dim the spec knows (not ``None``) equal."""
    return dtype is want_dtype and (
        shape == want_shape  # the common case, without a per-dim loop
        or len(shape) == len(want_shape)
        and all(w is None or s == w for s, w in zip(shape, want_shape))
    )

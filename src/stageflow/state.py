"""Mutable program state: variables and trackable host objects.

A Variable is an ordinary host object with its own unique storage.
Staged computations reference variables by identity (through weak
references), so a variable that the host program no longer holds is gone:
executing a graph that still points at it raises ``DeadVariable``.

Trackable objects form the named-edge object graph used for checkpoint
matching: assigning a variable, another trackable, or a bare numpy array to
a public attribute creates an edge labeled with the attribute name.
"""
from __future__ import annotations

import itertools
import threading
from typing import Dict, Iterator, Optional, Sequence

import numpy as np

from .dtypes import DType
from .errors import ShapeMismatch, StagingError, StorageError
from .runtime import current_context
from .tensor import Tensor, coerce, constant as _constant

_uid = itertools.count()


class Variable:
    """Named-free mutable tensor storage, referenced by identity.

    The storage array is read-only and is never changed in place: a write
    replaces it with a new array. So a snapshot hands out the storage
    itself, and keeps its value through later writes.
    """

    def __init__(self, initial, dtype: Optional[DType] = None):
        if isinstance(initial, Tensor) and initial.is_symbolic:
            raise StagingError(
                "a variable initializer must be a concrete value; compute it "
                "under escape_trace() when initializing inside a staged function"
            )
        init = _constant(initial, dtype=dtype)
        self.uid = next(_uid)
        self.dtype = init.dtype
        self.shape = init.shape
        self.device = init.device
        self._lock = threading.Lock()
        self._storage = _read_only(init.raw().copy())
        # Made once: every staged function that captures the variable keeps it.
        self._repr = f"Variable(uid={self.uid}, {self.dtype.value}{list(self.shape)})"
        ctx = current_context()
        if ctx.traces:
            ctx.traces[-1].created_variables.append(self)

    # -- raw storage access (kernels) ---------------------------------------

    def snapshot(self) -> Tensor:
        return Tensor(self.dtype, self.shape, self.device, array=self._storage)

    def _check_value(self, value: Tensor, op: str) -> None:
        if value.dtype is not self.dtype or value.shape != self.shape:
            raise ShapeMismatch(
                f"{op}: variable holds {self.dtype.value}{list(self.shape)}, "
                f"got {value.dtype.value}{list(value.shape)}"
            )

    def write(self, value: Tensor) -> None:
        self._check_value(value, "assign")
        with self._lock:
            self._storage = _read_only(value.raw().copy())

    def accumulate(self, value: Tensor) -> None:
        self._check_value(value, "assign_add")
        with self._lock:
            # np.array keeps 0-d results as arrays (0-d + 0-d is a scalar).
            self._storage = _read_only(np.array(
                self._storage + value.raw(), dtype=self.dtype.np_dtype
            ))

    # -- dispatched API -------------------------------------------------------

    def read_value(self) -> Tensor:
        return _ops.dispatch("read_variable", [self])[0]

    def assign(self, value) -> None:
        _ops.dispatch("assign_variable", [self, self._coerce(value)])

    def assign_add(self, value) -> None:
        _ops.dispatch("assign_add_variable", [self, self._coerce(value)])

    def _coerce(self, value) -> Tensor:
        if isinstance(value, Tensor):
            return value
        return coerce(value, self.dtype)

    def numpy(self) -> np.ndarray:
        return self._storage.copy()

    def __float__(self) -> float:
        return float(self.numpy().reshape(-1)[0])

    def __repr__(self) -> str:
        return self._repr


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def variable_create(initial: Tensor) -> Variable:
    return Variable(initial)


class Trackable:
    """Base for objects whose state participates in checkpoints.

    Assigning a Variable, a Trackable, or a numpy array to a public
    attribute adds a named edge to the object graph; reassigning replaces
    the edge, deleting removes it. Edge names are unique per object by
    construction (attribute names).
    """

    def __init__(self):
        object.__setattr__(self, "_tracked_children", {})

    def __setattr__(self, name, value):
        if not name.startswith("_") and isinstance(
            value, (Variable, Trackable, np.ndarray)
        ):
            self._ensure_track_dict()[name] = value
        else:
            self._ensure_track_dict().pop(name, None)
        object.__setattr__(self, name, value)

    def __delattr__(self, name):
        self._ensure_track_dict().pop(name, None)
        object.__delattr__(self, name)

    def _ensure_track_dict(self) -> Dict[str, object]:
        try:
            return object.__getattribute__(self, "_tracked_children")
        except AttributeError:
            d: Dict[str, object] = {}
            object.__setattr__(self, "_tracked_children", d)
            return d

    def track(self, name: str, value) -> None:
        """Explicitly add a named edge without touching attributes."""
        self._ensure_track_dict()[name] = value

    def tracked_children(self) -> Dict[str, object]:
        return dict(self._ensure_track_dict())

    # Optional node-local state, serialized as an opaque payload. Subclasses
    # with non-tensor state (cursors, counters) override both hooks.

    def _state_payload(self) -> Optional[bytes]:
        return None

    def _restore_state(self, payload: bytes) -> None:
        raise NotImplementedError


class SequenceIterator(Trackable):
    """Iterator over an in-memory sequence whose position checkpoints."""

    def __init__(self, items: Sequence):
        super().__init__()
        self._items = list(items)
        self._cursor = 0

    def __iter__(self) -> Iterator:
        return self

    def __next__(self):
        if self._cursor >= len(self._items):
            raise StopIteration
        item = self._items[self._cursor]
        self._cursor += 1
        return item

    @property
    def position(self) -> int:
        return self._cursor

    def _state_payload(self) -> Optional[bytes]:
        return np.int64(self._cursor).tobytes()

    def _restore_state(self, payload: bytes) -> None:
        if len(payload) != 8:
            raise StorageError(
                f"iterator state is {len(payload)} bytes, expected an 8-byte cursor"
            )
        cursor = int(np.frombuffer(payload, dtype=np.int64)[0])
        if not 0 <= cursor <= len(self._items):
            raise StorageError(
                f"iterator cursor {cursor} is outside 0..{len(self._items)}"
            )
        self._cursor = cursor


# ``ops`` imports Variable from this module (and installs the variable
# operators), so the module is bound here, once the class exists.
from . import ops as _ops

"""Escapes from staged execution.

``host_call`` embeds an imperative host callback in a graph: the callback is
registered once (graphs reference it by registry id, which is why such
graphs are not serializable) and runs imperatively whenever the node
executes. In eager mode a host call is transparent: the callback just runs,
and any ops it dispatches land on active tapes as usual. In a staged
backward pass the callback re-runs under an internal gradient tape to
produce its vector-Jacobian product, so host calls stay differentiable; a
callback must therefore be effectively pure for its gradient to mean
anything.

Callback execution is serialized through a single slot by default, modeling
a single-threaded host interpreter; construct the runtime with
``serialize_host_callbacks=False`` to lift that.

``escape_trace`` pauses the innermost trace: dispatches inside the scope
execute eagerly and produce concrete values. The variable-initialization
path of the state-creation contract is its main internal user.
"""
from __future__ import annotations

import contextlib
import itertools
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from .dtypes import DType, check_specs, matches_spec
from .errors import CallbackError, SignatureViolation
from .runtime import current_context, get_runtime
from .tensor import Tensor

_ids = itertools.count(1)
_registry: Dict[int, "HostCallback"] = {}
# Reentrant: backward_callback_for registers its derived callback while
# holding the lock.
_registry_lock = threading.RLock()
_backward_ids: Dict[Tuple, Tuple[int, Tuple[int, ...]]] = {}


@dataclass(frozen=True)
class HostCallback:
    """A registered host function plus its declared output signature."""

    id: int
    fn: object
    output_signature: Tuple[Tuple[DType, tuple], ...]


def register_callback(fn, output_signature) -> HostCallback:
    """Register a host function returning tensors of the declared signature.

    Registered callbacks are never evicted: graphs reference them by id and
    must outlive nothing.
    """
    sig = tuple(check_specs(output_signature, SignatureViolation))
    with _registry_lock:
        cb = HostCallback(next(_ids), fn, sig)
        _registry[cb.id] = cb
    return cb


def callback_signature(cb_id: int):
    cb = _registry.get(cb_id)
    if cb is None:
        raise CallbackError(f"no host callback registered under id {cb_id}")
    return list(cb.output_signature)


def _normalize_outputs(result) -> List[Tensor]:
    if isinstance(result, Tensor):
        return [result]
    if isinstance(result, (tuple, list)):
        return list(result)
    raise SignatureViolation(
        f"host callback returned {type(result).__name__}; expected tensors"
    )


def run_callback(cb_id: int, inputs: List[Tensor]) -> List[Tensor]:
    cb = _registry.get(cb_id)
    if cb is None:
        raise CallbackError(f"no host callback registered under id {cb_id}")
    rt = get_runtime()
    lock = (
        rt.host_callback_lock
        if rt.options.serialize_host_callbacks
        else contextlib.nullcontext()
    )
    with lock:
        try:
            result = cb.fn(*inputs)
        except (SignatureViolation, CallbackError):
            raise
        except Exception as e:
            raise CallbackError(
                f"host callback {cb_id} raised {type(e).__name__}: {e}"
            ) from e
    outputs = _normalize_outputs(result)
    if len(outputs) != len(cb.output_signature):
        raise SignatureViolation(
            f"host callback {cb_id} returned {len(outputs)} values, declared "
            f"{len(cb.output_signature)}"
        )
    for i, (out, (dtype, shape)) in enumerate(zip(outputs, cb.output_signature)):
        if not isinstance(out, Tensor) or out.is_symbolic:
            raise SignatureViolation(
                f"host callback {cb_id} output {i} is not a concrete tensor"
            )
        if not matches_spec(out.dtype, out.shape, dtype, shape):
            raise SignatureViolation(
                f"host callback {cb_id} output {i} is "
                f"{out.dtype.value}{list(out.shape)}, declared "
                f"{dtype.value}{list(shape)}"
            )
    return outputs


def host_call(cb: HostCallback, inputs: Sequence) -> List[Tensor]:
    """Invoke a registered callback; stages as a stateful graph node."""
    if not isinstance(cb, HostCallback):
        raise CallbackError(
            f"host_call takes a registered HostCallback, got {type(cb).__name__}"
        )
    return _ops.dispatch(
        "host_call", [_ops._as_operand(x) for x in inputs], {"callback": cb.id}
    )


def backward_callback_for(cb_id: int, in_specs: Tuple) -> Tuple[int, Tuple[int, ...]]:
    """A derived callback computing the VJP of ``cb_id`` at fixed input specs.

    Shared per (callback, input signature); re-runs the forward callback
    under a fresh internal tape each invocation. Lookup and registration
    happen under one lock, so threads deriving the same VJP share one id.
    """
    key = (cb_id, in_specs)
    with _registry_lock:
        hit = _backward_ids.get(key)
        if hit is not None:
            return hit
        cb = _registry.get(cb_id)
        if cb is None:
            raise CallbackError(f"no host callback registered under id {cb_id}")
        n = len(in_specs)
        float_pos = tuple(i for i, (dt, _) in enumerate(in_specs) if dt.is_float)

        def vjp_fn(*args):
            xs, gs = list(args[:n]), list(args[n:])
            tape = Tape()
            with tape:
                for p in float_pos:
                    tape.watch(xs[p])
                ys = _normalize_outputs(cb.fn(*xs))
            return tape.vjp(ys, gs, [xs[p] for p in float_pos])

        out_sig = [in_specs[p] for p in float_pos]
        derived = register_callback(vjp_fn, out_sig)
        hit = _backward_ids[key] = (derived.id, float_pos)
        return hit


# ``tape`` imports this module (through ``ops``); it binds its ``Tape`` class
# here when it is imported.
Tape = None


@contextmanager
def escape_trace():
    """Pause the innermost trace; dispatches inside run eagerly.

    A no-op outside any trace.
    """
    ctx = current_context()
    ctx.escape_depth += 1
    try:
        yield
    finally:
        ctx.escape_depth -= 1


# ``ops`` imports this module (through ``kernels``): the module is bound here,
# once the names ``kernels`` needs from this one exist.
from . import ops as _ops  # noqa: E402

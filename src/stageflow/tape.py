"""Gradient tapes: trace-based reverse-mode differentiation.

A tape records every differentiable op whose inputs it is watching (directly
or transitively) while it is active. Tapes nest strictly: an inner tape's
gradient computation dispatches ordinary ops, so a still-active outer tape
records the backward math too, which is all that higher-order derivatives
require. A watched op without a gradient rule that has a float output is
recorded with a backward that raises NotDifferentiable.

The backward pass runs only over entries reachable from the requested
sources. A forward walk over the entries finds every value computed from a
source; an entry none of whose inputs is among them is skipped, and a rule
computes no gradient for an input that no source reaches (``needs``). The
gradients that are computed use the same ops in the same order either way.

An op entry hands its rule a ``GradContext`` over the saved tensors, which
reads an input's or output's spec from the tensor only when the rule asks.

Values are tracked by host object identity. Entries keep strong references
to the tensors they saved, so identities stay stable for the tape's
lifetime.
"""
from __future__ import annotations

from typing import Dict, List, Sequence, Tuple, Union

from . import escape
from .errors import (
    ConsumedTape,
    InactiveTape,
    NonNestedEnd,
    NonScalarTarget,
    UnwatchedSource,
)
from .gradients import GradContext, ones_for, zeros_for
from .ops import add
from .runtime import current_context
from .tensor import Tensor


class TapeEntry:
    """One recorded op application.

    ``saved_inputs``/``saved_outputs`` hold everything the op's gradient
    might need, so the backward pass never re-runs the forward op. An op
    entry keeps its ``op_def`` and ``attrs`` and builds its gradient from
    them; a custom entry (a staged call) brings a prebuilt ``backward``
    closure instead.
    """

    __slots__ = ("op", "input_ids", "output_ids", "saved_inputs", "saved_outputs",
                 "op_def", "attrs", "backward")

    def __init__(self, op, input_ids, output_ids, saved_inputs, saved_outputs,
                 op_def=None, attrs=None, backward=None):
        self.op = op
        self.input_ids = input_ids
        self.output_ids = output_ids
        self.saved_inputs = saved_inputs
        self.saved_outputs = saved_outputs
        self.op_def = op_def
        self.attrs = attrs
        self.backward = backward

    def backprop(self, out_grads, needs) -> List[Tuple[int, Tensor]]:
        """``(input identity, gradient)`` contributions for upstream
        ``out_grads``. ``needs`` flags the inputs whose gradient is wanted;
        op rules and custom entries compute only those."""
        if self.backward is not None:
            return self.backward(out_grads, needs)
        grads = self.op_def.gradient(GradContext(
            self.attrs, self.saved_inputs.__getitem__,
            self.saved_outputs.__getitem__, None, out_grads, needs,
        ))
        ids = self.input_ids
        return [(ids[i], g) for i, g in enumerate(grads) if g is not None]


def _spec_of(value) -> Tuple:
    return (value.dtype, value.shape)


class Tape:
    """Records watched computations; nestable; one gradient call unless
    constructed persistent."""

    def __init__(self, persistent: bool = False):
        self.persistent = persistent
        self.active = False
        self._consumed = False
        self.entries: List[TapeEntry] = []
        self._watched: set = set()
        self._tracked: set = set()
        self._refs: list = []  # keeps watched/saved objects alive

    # -- lifecycle -----------------------------------------------------------

    def begin(self) -> "Tape":
        ctx = current_context()
        if self.active:
            raise InactiveTape("tape is already active")
        ctx.tapes.append(self)
        self.active = True
        return self

    def end(self) -> None:
        ctx = current_context()
        if not ctx.tapes or ctx.tapes[-1] is not self:
            raise NonNestedEnd(
                "tapes must end innermost-first; this tape is not the "
                "innermost active tape"
            )
        ctx.tapes.pop()
        self.active = False

    def __enter__(self) -> "Tape":
        return self.begin()

    def __exit__(self, exc_type, exc, tb) -> None:
        if self.active:
            self.end()

    # -- watching and recording ------------------------------------------------

    def watch(self, value) -> None:
        if not self.active:
            raise InactiveTape("cannot watch on an inactive tape")
        self._watched.add(id(value))
        self._tracked.add(id(value))
        self._refs.append(value)

    def _auto_watch(self, variable) -> None:
        # Reading a variable counts as watching it; no explicit call needed.
        self._watched.add(id(variable))
        self._tracked.add(id(variable))
        self._refs.append(variable)

    def watches(self, value) -> bool:
        return id(value) in self._watched

    def _maybe_record(self, op_def, inputs, outputs, attrs) -> None:
        input_ids = tuple(map(id, inputs))
        if self._tracked.isdisjoint(input_ids):
            return
        output_ids = tuple(map(id, outputs))
        self.entries.append(
            TapeEntry(op_def.name, input_ids, output_ids,
                      tuple(inputs), tuple(outputs), op_def, attrs)
        )
        self._tracked.update(output_ids)

    def _record_custom(self, op, inputs, outputs, saved, backward) -> None:
        """Record a function-call entry with a prebuilt backward closure
        mapping upstream output gradients and the ``needs`` mask to
        ``(input identity, gradient)`` contributions.

        A staged call can return one of its inputs, or one object at several
        output positions. The gradient reaching that object is already
        accumulated where it is an input or at its first position, so the
        other positions get the output id ``None`` and no upstream gradient.
        """
        input_ids = tuple(map(id, inputs))
        seen = set(input_ids)
        output_ids = []
        for y in outputs:
            oid = id(y)
            output_ids.append(None if oid in seen else oid)
            seen.add(oid)
        self.entries.append(
            TapeEntry(op, input_ids, tuple(output_ids), tuple(saved),
                      tuple(outputs), backward=backward)
        )
        self._tracked.update(oid for oid in output_ids if oid is not None)

    # -- differentiation ---------------------------------------------------------

    def gradient(
        self,
        target: Tensor,
        sources: Union[Sequence, object],
    ) -> Union[List[Tensor], Tensor]:
        """d(target)/d(source) for each source, by reverse accumulation.

        Unconnected sources get zero tensors of their own shape. A target
        computed after the tape stopped is unconnected too: the tape
        recorded none of its ops, so every source gets zeros. A
        non-persistent tape supports exactly one gradient call.
        """
        single = not isinstance(sources, (list, tuple))
        source_list = [sources] if single else list(sources)
        if self._consumed:
            raise ConsumedTape(
                "this tape's gradient was already computed; construct it with "
                "persistent=True to reuse it"
            )
        if not isinstance(target, Tensor):
            raise NonScalarTarget("gradient target must be a tensor")
        if None in target.shape or _count(target.shape) != 1:
            raise NonScalarTarget(
                f"gradient target must be a scalar, got shape {list(target.shape)}"
            )
        for s in source_list:
            if id(s) not in self._watched:
                raise UnwatchedSource(
                    "every gradient source must be watched by this tape"
                )
            if not s.dtype.is_float:
                raise UnwatchedSource(
                    f"cannot differentiate with respect to a {s.dtype.value} "
                    "value; only float sources are supported"
                )
        if not self.persistent:
            self._consumed = True

        seeds = {id(target): ones_for(_spec_of(target))}
        grads = self._accumulate(seeds, source_list)
        results = [
            grads.get(id(s), None) or zeros_for(_spec_of(s)) for s in source_list
        ]
        return results[0] if single else results

    def _reachable(self, sources: Sequence) -> set:
        """Identities of the sources and of every value computed from them."""
        reach = set(map(id, sources))
        for entry in self.entries:
            for iid in entry.input_ids:
                if iid in reach:
                    reach.update(entry.output_ids)
                    break
        return reach

    def _accumulate(self, seeds: Dict[int, Tensor], sources: Sequence) -> Dict[int, Tensor]:
        """Reverse accumulation from ``seeds`` over the entries some source
        reaches; an input no source reaches gets no gradient computed."""
        reach = self._reachable(sources)
        grads = dict(seeds)
        for entry in reversed(self.entries):
            out_grads = list(map(grads.get, entry.output_ids))
            if not any(out_grads):  # a tensor is always true
                continue
            needs = list(map(reach.__contains__, entry.input_ids))
            if not any(needs):
                continue
            for key, g in entry.backprop(out_grads, needs):
                prev = grads.get(key)
                grads[key] = g if prev is None else add(prev, g)
        return grads

    def vjp(
        self, outputs: Sequence[Tensor], cotangents: Sequence[Tensor],
        sources: Sequence,
    ) -> List[Tensor]:
        """Vector-Jacobian product with explicit output cotangents.

        Internal generalization of ``gradient`` used by host-callback
        differentiation; subject to the same consumed-tape rule.
        """
        if self._consumed:
            raise ConsumedTape("tape already consumed")
        if not self.persistent:
            self._consumed = True
        seeds: Dict[int, Tensor] = {}
        for y, ct in zip(outputs, cotangents):
            if ct is None:
                continue
            prev = seeds.get(id(y))
            seeds[id(y)] = ct if prev is None else add(prev, ct)
        grads = self._accumulate(seeds, sources)
        return [grads.get(id(s)) or zeros_for(_spec_of(s)) for s in sources]


def _count(shape) -> int:
    n = 1
    for d in shape:
        n *= d
    return n


# ``escape`` runs a host callback's VJP under a tape, and this module imports
# ``escape`` (through ``ops``): bind the class there once.
escape.Tape = Tape

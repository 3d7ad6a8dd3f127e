"""Gradient tapes: trace-based reverse-mode differentiation.

A tape records every differentiable op whose inputs it is watching (directly
or transitively) while it is active. Tapes nest strictly: an inner tape's
gradient computation dispatches ordinary ops, so a still-active outer tape
records the backward math too, which is all that higher-order derivatives
require. A watched op without a gradient rule that has a float output is
recorded with a backward that raises NotDifferentiable.

The backward pass is ``backprop.reverse_accumulate``, the one reverse pass
that tape replays and staged derivations run too, over this tape's entries
keyed by value identity (``backprop.TapeEntry``). It runs only the entries a
requested source reaches, and a rule computes no gradient for an input that
no source reaches (``needs``). The gradients that are computed use the same
ops in the same order either way. An op entry hands its rule a
``GradContext`` over the saved tensors, which reads an input's or output's
spec from the tensor only when the rule asks. A staged call's entry runs
``backprop.call_backward``, the backward a derivation runs for a nested
call; a host call staged under a tape that is active inside the trace runs
``backprop.host_call_backward`` (eagerly, the callback's own ops reach the
tape).

Values are tracked by host object identity. Entries keep strong references
to the tensors they saved, so identities stay stable for the tape's
lifetime.

Replay. A backward pass whose structure repeats runs as a cached plan, not
op by op. A tape's fingerprint (entry count, last op, first saved input's
shape, source count) is counted per thread; from its ``REPLAY_AFTER``-th
sighting on, the backward gets an exact structural key, built in one pass:
each entry's op, attrs and input count, and the number (first position) and
spec (class, dtype, shape) at each position of the entries' values, the
sources and the target (``vjp``: the seeds). On the key's first sighting
the op-by-op backward runs with a trace open (``staging.TraceState``)
instead, over entries whose rules read placeholders: it records the same
ops in the same order over placeholders for the saved values it reads, so
the finalized graph's plan is bit-identical to the op-by-op path. That
graph is pruned, not constant-folded, so the seed's chain runs at replay
and the plan keeps no constant of a source's size. ``gradient``'s ones
seed is made in the trace, a plan constant, with the target's spec in the
key; ``vjp``'s cotangents stay plan inputs. That call and every later one with the key run the plan
through ``executor.run_bound``, unchecked, as the key proved each input's
spec: a replayed backward makes no seed and dispatches, and counts, no
eager op. ``RuntimeStats`` counts the plans built (``tape_plans``, not
``traces``) and the backward passes they run (``tape_replays``). The plans
live on the thread's ``ExecutionContext``, at most ``_MAX_PLANS`` of them,
least recently used evicted first; they hold no tensor or variable of the
tape. The backward runs op by op while any tape is active (it must record
the backward math) or a trace is open, under a device scope or with
several devices (eager places each op by its inputs), for a tape holding a
custom entry (a staged call or an op without a gradient rule), and for
good for a key whose trace raised (a rule that reads a concrete value).
"""
from __future__ import annotations

from itertools import count
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple, Union

from . import escape, executor
from .errors import (
    ConsumedTape,
    InactiveTape,
    NonNestedEnd,
    NonScalarTarget,
    UnwatchedSource,
)
from .backprop import LazyReads, TapeEntry, reverse_accumulate
from .gradients import ones_for, zeros_for
from .graph import prune
from .ops import add
from .runtime import current_context
from .staging import TraceKey, TraceState
from .tensor import Tensor

# A fingerprint seen this many times on a thread gets an exact key, and
# its backward a plan.
REPLAY_AFTER = 8
_MAX_PLANS = 256  # plans kept per thread
_MAX_SIGHTINGS = 4096  # fingerprints counted per thread before a reset
_UNSEEN = object()
_SPEC = attrgetter("__class__", "dtype._value_", "shape")  # a value's, in a key


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

        Once a thread has seen a tape of this structure ``REPLAY_AFTER``
        times, and when no tape is active, no trace is open and there is
        one device and no device scope, the backward runs as a cached plan
        (see the module docstring): the same bits, and no eager op counted.
        The ones seed is a plan constant, and the key (the target's spec
        in the seed's place) proves the inputs: no seed, no input check.
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

        grads = self._accumulate(target, None, source_list)
        results = [
            grads.get(id(s), None) or zeros_for(_spec_of(s)) for s in source_list
        ]
        return results[0] if single else results

    def _accumulate(self, target, seeds, sources: Sequence) -> Dict[int, Tensor]:
        """Gradients by value identity from ``seeds``, or with ``seeds``
        None from a ones seed at ``target``: from a cached plan when the
        backward's structure repeats, else op by op."""
        ctx = current_context()
        if (self.entries and not (ctx.tapes or ctx.traces or ctx.device_scopes
                                  or ctx.escape_depth)
                and len(ctx.runtime.devices) == 1):
            grads = _replay(ctx, self.entries, target, seeds, sources)
            if grads is not None:
                return grads
        if seeds is None:
            seeds = {id(target): ones_for(_spec_of(target))}
        return reverse_accumulate(self.entries, seeds, map(id, sources))

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
        grads = self._accumulate(None, seeds, sources)
        return [grads.get(id(s)) or zeros_for(_spec_of(s)) for s in sources]


def _replay(ctx, entries, target, seeds, sources) -> Optional[Dict[int, Tensor]]:
    """The backward's gradients from a cached plan, or None to run it op by
    op: before the fingerprint's ``REPLAY_AFTER``-th sighting, for a tape
    without an exact key, or for a key whose trace raised."""
    first = entries[0].saved_inputs
    fingerprint = (len(entries), entries[-1].op,
                   first[0].shape if first else None, len(sources))
    sightings = ctx.tape_sightings
    seen = sightings.get(fingerprint, 0)
    if seen < REPLAY_AFTER - 1:
        if len(sightings) >= _MAX_SIGHTINGS:
            sightings.clear()
        sightings[fingerprint] = seen + 1
        return None
    key, values = _structure(entries, target, seeds, sources)
    if key is None:
        return None
    plans = ctx.tape_plans
    plan = plans.get(key, _UNSEEN)
    if plan is _UNSEEN:
        if any(isinstance(v, Tensor) for step in key.encoding[0] for _, v in step[1]):
            return None  # the key would hold a tensor attr and match it by identity
        plan = _trace_plan(entries, target, seeds, sources, key.encoding, values)
        if len(plans) >= _MAX_PLANS:
            plans.popitem(last=False)
        plans[key] = plan  # None: this key runs op by op
        if plan is not None:
            ctx.runtime.stats.count_tape_plan()
    else:
        plans.move_to_end(key)
    if plan is None:
        return None
    ctx.runtime.stats.count_tape_replay()
    graph, inputs, outputs = plan
    ins = list(map(values.__getitem__, inputs))  # the key proved their specs
    outs = executor.run_bound(graph, ins, [
        v._array if v.__class__ is Tensor else v for v in ins])
    return dict(zip(map(id, map(values.__getitem__, outputs)), outs))


def _structure(entries, target, seeds, sources):
    """The exact key of a backward pass and its values by position, or
    Nones when it has none (a custom entry).

    The values are laid out in one list: each entry's inputs and outputs,
    then the sources, then the target (``seeds`` None: a ones seed there)
    or the seed values. A value's number is the position of its first
    appearance. The key holds each entry's op, attrs and input count; the
    number at each position; the class, dtype and shape at each position;
    the source count; and, for explicit seeds, the number of the value each
    attaches to (-1 for one the tape never saw).
    """
    values: list = []
    steps = []
    for e in entries:
        if e.backward is not None:
            return None, None
        attrs = e.attrs
        steps.append((e.op, tuple(attrs.items()) if attrs else (), len(e.saved_inputs)))
        values += e.saved_inputs
        values += e.saved_outputs
    values += sources
    values += (target,) if seeds is None else seeds.values()
    first: Dict[int, int] = {}  # identity -> number, its first position
    wiring = tuple(map(first.setdefault, map(id, values), count()))
    attach = None if seeds is None else tuple([first.get(t, -1) for t in seeds])
    key = TraceKey((tuple(steps), wiring, tuple(map(_SPEC, values)), len(sources), attach))
    return key, values


def _trace_plan(entries, target, seeds, sources, encoding, values):
    """The op-by-op backward traced into ``(graph, input numbers, source
    numbers of the outputs)``, over placeholders for the saved values and
    seeds it reads, each made at its first read; None if the trace raises
    or reads a value from outside the tape."""
    wiring = encoding[1]
    ts = TraceState("tape_backward")
    made: Dict[int, object] = {}
    inputs: List[int] = []  # placeholder order, as value numbers

    def placeholder(n):
        p = made.get(n)
        if p is None:
            v = values[n]
            if isinstance(v, Tensor):
                p = ts.add_arg_tensor(f"value_{n}", v.dtype, v.shape)
            else:  # a variable stands for itself, by reference
                ts.add_arg_variable(f"value_{n}", v)
                p = v
            made[n] = p
            inputs.append(n)
        return p

    steps, at = [], 0
    for e in entries:  # each entry's numbers: its inputs', then its outputs'
        k = at + len(e.saved_inputs)
        end = k + len(e.saved_outputs)
        # The entry's rule over placeholders; specs come from the tape's
        # values, so reading one makes no placeholder.
        steps.append(TapeEntry(
            e.op, e.input_ids, e.output_ids, LazyReads(placeholder, wiring[at:k]),
            LazyReads(placeholder, wiring[k:end]), e.op_def, e.attrs,
            in_specs=[(x.dtype, x.shape) for x in e.saved_inputs],
        ))
        at = end
    try:
        with ts.open():
            if seeds is None:  # ones made in the trace: a constant node
                seeds = {id(target): ones_for(_spec_of(target))}
            else:
                seeds = {t: placeholder(n) for t, n in zip(seeds, wiring[at + len(sources):])}
            grads = reverse_accumulate(steps, seeds, map(id, sources))
            outputs, refs = [], []
            for s, n in zip(sources, wiring[at:]):
                g = grads.get(id(s))
                if g is not None and n not in outputs:
                    outputs.append(n)
                    refs.append(ts.resolve_input(g))
        if ts.capture_values:
            return None
        # Not folded: see the module docstring.
        gf = prune(ts.builder.finalize(ts.name, refs, [f"grad_{i}" for i in range(len(refs))]))
    except Exception:
        # Any failure means the trace cannot stand in for this backward; the
        # op-by-op run that follows raises the rule's own error, if any.
        return None
    return gf, tuple(inputs), tuple(outputs)


def _count(shape) -> int:
    n = 1
    for d in shape:
        n *= d
    return n


# ``escape`` runs a host callback's VJP under a tape, and this module imports
# ``escape`` (through ``ops``): bind the class there once.
escape.Tape = Tape

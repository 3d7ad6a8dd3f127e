"""Staging: trace host functions into cached graph functions.

``stage`` wraps a host callable in a PolymorphicFunction. Each call infers a
trace key from the arguments (tensors abstracted to dtype/shape, variables
keyed by identity, plain values by value, plus the ambient device scope); a
cache miss runs the function once in a graph-building context and caches the
optimized graph, a hit reuses it. Outside a trace, a call places its inputs
as an op would (``ops.resolve_placement``) and runs the graph through
``executor.execute_graph``, whose input binding is the call's one input
check; it dispatches no op and counts as one ``staged_calls``. Inside a
trace, it records a ``call_function`` node. Taped calls record one tape
entry whose backward is itself a staged call.

Host values the function closes over are captured: external tensors and
variables become hidden placeholder inputs passed automatically at call
time (variables by reference, so staged writes hit live storage). Host
values *created during* the trace freeze into the graph as constants.

State creation follows the double-trace contract: a function may create
variables only on its first trace; if it does, it is traced again and the
second trace (which must create none) becomes the cached behavior.

``trace_function`` is the one tracer. Tensor-dependent control flow
(``cond``, ``while_loop``) is staged only while a trace records, with its
branches traced afresh, as the enclosing trace is cached; outside a trace
it is Python control flow over eager ops.
"""
from __future__ import annotations

import functools
import inspect
import itertools
import threading
import weakref
from contextlib import contextmanager
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .backprop import call_backward, get_forward_backward, host_call_backward, refuse_dropped
from .dtypes import DType, check_specs, matches_spec
from .errors import (
    DeadVariable,
    KernelError,
    MissingConcreteFunction,
    SignatureMismatch,
    StageflowError,
    StagingError,
    SymbolicTensor,
    UnencodableArgument,
    VariableCreationError,
)
from .executor import execute_graph
from .graph import GraphBuilder, GraphFunction, optimize
from .kernels import (
    KernelEnv, _check_predicate, _require_condition, _require_predicate, loop_body_fits,
)
from .ops import _as_operand, _notify_tapes, dispatch, raising_backward, resolve_placement
from .runtime import current_context, get_runtime
from .state import Variable
from .tensor import SymbolicRef, Tensor, count_open_trace, symbolic_tensor

_trace_ids = itertools.count(1)
_new_sref = functools.partial(tuple.__new__, SymbolicRef)  # no frame per output


class TraceState:
    """One open trace: the graph under construction plus capture state."""

    def __init__(self, name: str):
        self.trace_id = next(_trace_ids)
        self.name = name
        self.builder = GraphBuilder()
        self.created_variables: List[Variable] = []
        self.capture_values: List[Any] = []  # placeholder order
        self._capture_refs: Dict[int, Any] = {}
        self._pre_bound: Dict[int, Any] = {}  # explicit variable args
        self._const_cache: Dict[int, Any] = {}
        self._keepalive: List[Any] = []
        self._base_scope_depth = 0

    @contextmanager
    def open(self):
        ctx = current_context()
        count_open_trace(1)
        ctx.traces.append(self)
        # Tapes follow execution, not tracing: outer tapes must not see the
        # symbolic ops recorded here (they see the staged call instead), so
        # the tape stack is suspended for the duration of the trace.
        saved_tapes = ctx.tapes
        ctx.tapes = []
        self._base_scope_depth = len(ctx.device_scopes)
        try:
            yield self
        finally:
            ctx.tapes = saved_tapes
            popped = ctx.traces.pop()
            count_open_trace(-1)
            assert popped is self

    # -- inputs -----------------------------------------------------------------

    def add_arg_tensor(self, name: str, dtype: DType, shape) -> Tensor:
        bref = self.builder.add_placeholder(name, dtype, tuple(shape))
        return self._symbolic(dtype, tuple(shape), bref)

    def add_arg_variable(self, name: str, v: Variable) -> None:
        bref = self.builder.add_placeholder(
            name, v.dtype, v.shape, is_variable_ref=True
        )
        self._pre_bound[id(v)] = bref
        self._keepalive.append(v)

    def _symbolic(self, dtype, shape, bref) -> Tensor:
        ctx = current_context()
        device = ctx.scope_device() or ctx.runtime.devices[0].name
        return symbolic_tensor(dtype, shape, device, SymbolicRef(self.trace_id, bref))

    # -- value resolution ----------------------------------------------------------

    def resolve_input(self, x):
        if isinstance(x, Tensor):
            sref = x._symbolic
            if sref is not None:
                if sref.trace_id == self.trace_id:
                    return sref.ref
                ctx = current_context()
                if not any(t.trace_id == sref.trace_id for t in ctx.traces):
                    raise StagingError(
                        "symbolic tensor from a closed trace cannot be used; "
                        "symbolic values are only valid inside the trace that "
                        "created them"
                    )
                return self._capture(x, is_variable=False)
            if x._born_trace == self.trace_id:
                return self._embed_constant(x)
            return self._capture(x, is_variable=False)
        if isinstance(x, Variable):
            pre = self._pre_bound.get(id(x))
            if pre is not None:
                return pre
            return self._capture(x, is_variable=True)
        raise KernelError(
            f"op inputs must be tensors or variables, got {type(x).__name__}"
        )

    def _capture(self, x, is_variable: bool):
        key = id(x)
        bref = self._capture_refs.get(key)
        if bref is None:
            idx = len(self.capture_values)
            bref = self.builder.add_placeholder(
                f"capture_{idx}", x.dtype, x.shape, is_variable_ref=is_variable
            )
            self._capture_refs[key] = bref
            self.capture_values.append(x)
            self._keepalive.append(x)
        return bref

    def _embed_constant(self, t: Tensor):
        key = id(t)
        bref = self._const_cache.get(key)
        if bref is None:
            refs = self.builder.add_node("constant", [], {"value": t}, None, None)
            bref = refs[0]
            self._const_cache[key] = bref
            self._keepalive.append(t)
        return bref

    # -- node recording ----------------------------------------------------------

    def record(self, op_def, inputs: List, attrs: Optional[dict], ctx,
               notify: bool = True) -> List[Tensor]:
        """Append one node applying ``op_def`` to ``inputs`` and return its
        symbolic outputs.

        ``ops.dispatch`` calls this with the thread's context ``ctx`` and the
        call's attrs, which ``GraphBuilder.add_node`` checks with the rest of
        the node (a graph function attr goes into the trace's library). Nodes
        are placed on the ambient device; only a device scope entered inside
        the traced function pins the node. The node goes on the tapes active
        in the trace as an op would, unless ``notify`` is false (a staged
        call, which records its own entry); a host call, whose callback has
        not run, goes on with the callback's derived backward.
        """
        brefs = tuple(map(self.resolve_input, inputs))  # rejects non-tensor inputs
        scopes = ctx.device_scopes
        if scopes:
            device = scopes[-1]
            pinned = device if len(scopes) > self._base_scope_depth else None
        else:
            device, pinned = ctx.runtime.devices[0].name, None
        builder = self.builder
        out_brefs = builder.add_node(op_def.name, brefs, attrs, pinned, None)
        node = builder.nodes[-1]  # (op, inputs, attrs, device, out_specs)
        if len(out_brefs) == 1:  # most ops
            (dt, shape), = node[4]
            outs = [symbolic_tensor(dt, shape, device, _new_sref((self.trace_id, *out_brefs)))]
        else:
            outs = [
                symbolic_tensor(dt, shape, device, _new_sref((self.trace_id, bref)))
                for (dt, shape), bref in zip(node[4], out_brefs)
            ]
        if ctx.tapes and notify:
            if op_def.name == "host_call":
                _tape_host_call(inputs, outs, node, ctx)
            else:
                _notify_tapes(op_def, inputs, outs, node[2], ctx)
        return outs

    def finalize(self, output_refs, output_names) -> GraphFunction:
        gf = self.builder.finalize(self.name, output_refs, output_names)
        return optimize(gf)


def _tape_host_call(inputs, outs, node, ctx) -> None:
    keys = tuple(map(id, inputs))
    backward = host_call_backward(
        node[2]["callback"], tuple((x.dtype, x.shape) for x in inputs), node[4],
        inputs.__getitem__, keys,
    )
    for t in ctx.tapes:
        if t.active and not t._tracked.isdisjoint(keys):
            t._record_custom("host_call", inputs, outs, inputs, backward)


# ---------------------------------------------------------------------------
# Trace keys
# ---------------------------------------------------------------------------


class TraceKey:
    """A trace cache key: an argument encoding, hashed once."""

    __slots__ = ("encoding", "_hash")

    def __init__(self, encoding: Tuple):
        self.encoding = encoding
        self._hash = hash(encoding)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if not isinstance(other, TraceKey):
            return NotImplemented
        return self._hash == other._hash and self.encoding == other.encoding

    def __repr__(self) -> str:
        return f"TraceKey{self.encoding!r}"


_PINNED = TraceKey(("__pinned__",))


def _encode_value(v):
    # A tensor is its (dtype, shape): no other encoding holds a DType.
    if isinstance(v, Tensor):
        return (v.dtype, v.shape)
    if isinstance(v, Variable):
        return ("variable", v.dtype, v.shape, id(v))
    if isinstance(v, bool):
        return ("bool", v)
    if v is None or isinstance(v, (int, float, str)):
        return ("value", type(v).__name__, v)
    if isinstance(v, (list, tuple)):
        return ("seq", type(v).__name__, tuple(_encode_value(e) for e in v))
    if isinstance(v, dict):
        try:
            items = sorted(v.items())
        except TypeError:
            raise UnencodableArgument(
                "dict arguments must have sortable keys"
            ) from None
        return ("map", tuple((k, _encode_value(e)) for k, e in items))
    raise UnencodableArgument(
        f"cannot build a trace key from a {type(v).__name__} argument; pass "
        "tensors, variables, or plain host values"
    )


def infer_trace_key(args: Sequence, ctx=None) -> TraceKey:
    """Deterministic, payload-independent key over arguments + device scope."""
    ctx = ctx or current_context()
    dev = ctx.scope_device()
    return TraceKey((tuple([
        (a.dtype, a.shape) if type(a) is Tensor else _encode_value(a) for a in args
    ]), dev.render() if dev else None))


# ---------------------------------------------------------------------------
# Concrete and polymorphic functions
# ---------------------------------------------------------------------------


def _normalize_outputs(result, fn_name: str):
    if result is None:
        return [], "none"
    if isinstance(result, Tensor):
        return [result], "single"
    if isinstance(result, (tuple, list)):
        for r in result:
            if not isinstance(r, Tensor):
                raise StagingError(
                    f"{fn_name} returned a {type(r).__name__}; staged functions "
                    "must return tensors (or tuples/lists of tensors)"
                )
        return list(result), type(result).__name__
    raise StagingError(
        f"{fn_name} returned a {type(result).__name__}; staged functions must "
        "return tensors (or tuples/lists of tensors, or None)"
    )


class ConcreteFunction:
    """A traced graph plus its captured environment and output structure."""

    def __init__(self, graph: GraphFunction, captured: Sequence, structure: str,
                 all_explicit: bool = False):
        """``all_explicit``: every argument of the traced call is a tensor or
        a variable, so a call with its trace key passes all its arguments
        as inputs (the key fixes which arguments are which)."""
        self.graph = graph
        self.structure = structure
        self.all_explicit = all_explicit
        self._captured = []
        for value in captured:
            if isinstance(value, Variable):
                self._captured.append(("variable", weakref.ref(value), repr(value)))
            else:
                self._captured.append(("tensor", value, None))
        # Only a float output can carry a gradient back to the inputs.
        self.differentiable = any(dt.is_float for dt, _ in graph.output_specs)

    @functools.cached_property
    def _read_var_positions(self) -> Tuple[int, ...]:
        # Graph validation makes input 0 of a read_variable a placeholder.
        positions = {
            node.inputs[0][0]
            for node in self.graph.nodes
            if node.op == "read_variable"
        }
        return tuple(sorted(positions))

    @property
    def name(self) -> str:
        return self.graph.name

    def materialize_captured(self) -> List:
        values = []
        for kind, payload, desc in self._captured:
            if kind == "variable":
                v = payload()
                if v is None:
                    raise DeadVariable(
                        f"staged function {self.graph.name!r} references "
                        f"{desc}, whose host object no longer exists"
                    )
                values.append(v)
            else:
                values.append(payload)
        return values

    def unpack(self, outputs: List[Tensor]):
        if self.structure == "none":
            return None
        if self.structure == "single":
            return outputs[0]
        if self.structure == "tuple":
            return tuple(outputs)
        return list(outputs)


def call_concrete(cf: ConcreteFunction, explicit: Sequence, ctx=None) -> List[Tensor]:
    """Invoke a concrete function on its explicit inputs (see ``_call``), in
    this thread's context ``ctx``.

    When an active tape watches one of the inputs (captured variables that
    the graph reads auto-watch first), the call runs through the derived
    forward variant so the intermediates the backward pass needs come back
    with the outputs, and the tape entry's backward is itself a staged
    function call.
    """
    inputs_all = list(explicit) + cf.materialize_captured()
    ctx = ctx or current_context()
    active_tapes = [t for t in ctx.tapes if t.active] if ctx.tapes else None
    if active_tapes:
        for pos in cf._read_var_positions:
            v = inputs_all[pos]
            if isinstance(v, Variable) and v.dtype.is_float:
                for t in active_tapes:
                    t._auto_watch(v)
        watching = [
            t
            for t in active_tapes
            if any(id(x) in t._tracked for x in inputs_all)
        ]
        if watching and cf.differentiable:
            return _call_with_tape(cf, inputs_all, watching, ctx)
    return _call(cf.graph, inputs_all, ctx)


def _call(gf: GraphFunction, inputs: List, ctx) -> List[Tensor]:
    """``gf`` on ``inputs``: a ``call_function`` node in an open trace,
    which goes on no tape (the caller records the call's entry); otherwise
    the inputs placed as an op's would be and the graph run on this
    thread, which ``execute_graph``'s binding checks."""
    if ctx.traces and not ctx.escape_depth:
        return ctx.traces[-1].record(ctx.runtime.registry.get("call_function"),
                                     inputs, {"function": gf}, ctx, notify=False)
    device, moved = resolve_placement(None, inputs, ctx)
    ctx.counts.staged_calls += 1
    env = ctx.runtime.eager_envs.get(device) or KernelEnv(device=device)
    return execute_graph(gf, moved, env)


def _call_with_tape(cf, inputs_all, watching, ctx) -> List[Tensor]:
    fwd, _, saved_desc, _ = get_forward_backward(cf.graph)
    outs_all = _call(fwd, inputs_all, ctx)
    m = len(cf.graph.outputs)
    outs, extras = outs_all[:m], outs_all[m:]
    saved_vals = [
        inputs_all[d[1]] if d[0] == "input" else extras[d[1]] for d in saved_desc
    ]
    input_ids = [id(x) for x in inputs_all]

    def backward(out_grads, needs):
        refuse_dropped(cf.graph, out_grads, needs)
        return [
            (input_ids[p], g)
            for p, g in call_backward(cf.graph, out_grads, saved_vals, needs)
        ]

    # The staged backward reads the extras, so a tape that records that
    # backward sees them as inputs. Recording them as outputs of the call's
    # inputs makes a gradient flowing into one raise, where it would
    # otherwise stop there as if they were constants. An extra that is an
    # output or an input is that same object, and its gradient is exact.
    known = set(input_ids).union(map(id, outs))
    hidden = [e for e in extras if id(e) not in known]
    for t in watching:
        if hidden:
            t._record_custom("call_function_extras", inputs_all, hidden, (), raising_backward(
                f"{cf.name}: a gradient flows into an intermediate that the staged "
                "call saved for its backward; higher-order gradients through a "
                "staged call whose backward reads saved intermediates are not "
                "supported"
            ))
        t._record_custom("call_function", inputs_all, outs, saved_vals, backward)
    return outs


class PolymorphicFunction:
    """The callable returned by ``stage``."""

    def __init__(self, fn, signature=None, name: Optional[str] = None):
        self._fn = fn
        base = name or getattr(fn, "__name__", "staged_fn")
        self._name = "staged_lambda" if base == "<lambda>" else base
        try:
            self._sig = inspect.signature(fn)
        except (TypeError, ValueError):
            self._sig = None
        # The parameter names when every parameter is plain positional: a
        # call passing exactly one argument per name binds without inspect.
        plain = (inspect.Parameter.POSITIONAL_ONLY,
                 inspect.Parameter.POSITIONAL_OR_KEYWORD)
        self._plain_names = None
        if self._sig is not None and all(
            p.kind in plain for p in self._sig.parameters.values()
        ):
            self._plain_names = tuple(self._sig.parameters)
        self.pinned_signature = (
            None if signature is None else check_specs(signature, SignatureMismatch)
        )
        self._cache: Dict[TraceKey, ConcreteFunction] = {}
        self._cache_lock = threading.Lock()
        self._key_locks: Dict[TraceKey, threading.Lock] = {}
        self.variables_created: "weakref.WeakSet[Variable]" = weakref.WeakSet()
        self._traced_once = False
        self.trace_count = 0

    # -- public surface ---------------------------------------------------------

    @property
    def cache_size(self) -> int:
        return len(self._cache)

    def cached_functions(self) -> List[ConcreteFunction]:
        return list(self._cache.values())

    def trace_key_for(self, *args, **kwargs) -> TraceKey:
        values = [v for _, v, _ in self._bind(args, kwargs)]
        if self.pinned_signature is not None:
            self._check_pinned(values)
            return _PINNED
        return infer_trace_key(values)

    def get_concrete(self, key: TraceKey) -> ConcreteFunction:
        cf = self._cache.get(key)
        if cf is None:
            raise MissingConcreteFunction(
                f"{self._name} has no cached graph function for {key!r}"
            )
        return cf

    def __call__(self, *args, **kwargs):
        names = self._plain_names
        if names is not None and not kwargs and len(args) == len(names):
            bound, values = None, args  # ``_bind`` gives one entry per name
        else:
            bound = self._bind(args, kwargs)
            values = [v for _, v, _ in bound]
        ctx = current_context()
        cf = self._concrete_for(values, ctx, bound)
        explicit = values if cf.all_explicit else [
            v for v in values if isinstance(v, (Tensor, Variable))
        ]
        return cf.unpack(call_concrete(cf, explicit, ctx))

    # -- internals -------------------------------------------------------------

    def _bind(self, args, kwargs) -> List[Tuple[str, object, str]]:
        """Flatten a call into ordered (name, value, kind) entries.

        Variadic parameters expand one entry per element, so every tensor
        argument gets its own placeholder and trace-key slot.
        """
        names = self._plain_names
        if names is not None and not kwargs and len(args) == len(names):
            return [(name, v, "pos") for name, v in zip(names, args)]
        if self._sig is None:
            if kwargs:
                raise StagingError(f"{self._name} does not accept keyword arguments")
            return [(f"arg_{i}", v, "pos") for i, v in enumerate(args)]
        try:
            ba = self._sig.bind(*args, **kwargs)
        except TypeError as e:
            raise StagingError(f"{self._name}: {e}") from e
        ba.apply_defaults()
        entries: List[Tuple[str, object, str]] = []
        for name, param in self._sig.parameters.items():
            if name not in ba.arguments:
                continue
            value = ba.arguments[name]
            if param.kind is inspect.Parameter.VAR_POSITIONAL:
                entries.extend(
                    (f"{name}_{i}", v, "pos") for i, v in enumerate(value)
                )
            elif param.kind is inspect.Parameter.VAR_KEYWORD:
                entries.extend((k, value[k], "kw") for k in sorted(value))
            elif param.kind is inspect.Parameter.KEYWORD_ONLY:
                entries.append((name, value, "kw"))
            else:
                entries.append((name, value, "pos"))
        return entries

    def _check_pinned(self, values: Sequence) -> None:
        sig = self.pinned_signature
        if len(values) != len(sig):
            raise SignatureMismatch(
                f"{self._name} is pinned to {len(sig)} arguments, got {len(values)}"
            )
        for i, (arg, (dtype, shape)) in enumerate(zip(values, sig)):
            if not isinstance(arg, Tensor):
                raise SignatureMismatch(
                    f"{self._name}: argument {i} must be a tensor under a "
                    "pinned signature"
                )
            if not matches_spec(arg.dtype, arg.shape, dtype, shape):
                raise SignatureMismatch(
                    f"{self._name}: argument {i} is {arg.dtype.value}"
                    f"{list(arg.shape)}, pinned to {dtype.value}{list(shape)}"
                )

    def _concrete_for(self, values: Sequence, ctx=None, bound=None) -> ConcreteFunction:
        """The concrete function for a call's argument ``values``, traced
        on a miss from ``bound``, the call's ``_bind`` entries (None: the
        plain entries of ``values``)."""
        if self.pinned_signature is not None:
            self._check_pinned(values)
            key = _PINNED
        else:
            key = infer_trace_key(values, ctx)
        cf = self._cache.get(key)
        if cf is not None:
            return cf
        with self._cache_lock:
            cf = self._cache.get(key)
            if cf is not None:
                return cf
            key_lock = self._key_locks.setdefault(key, threading.Lock())
        with key_lock:
            with self._cache_lock:
                cf = self._cache.get(key)
            if cf is not None:
                return cf
            cf = self._trace_to_concrete(self._bind(values, {}) if bound is None else bound)
            with self._cache_lock:
                self._cache[key] = cf
            return cf

    def _trace_to_concrete(self, bound: List) -> ConcreteFunction:
        cf, created = self._run_trace(bound)
        if created:
            if self._traced_once:
                raise VariableCreationError(
                    f"{self._name} created variables on a later trace; state "
                    "must only be created the first time a staged function runs"
                )
            for v in created:
                self.variables_created.add(v)
            cf, created = self._run_trace(bound)
            if created:
                raise VariableCreationError(
                    f"{self._name} creates variables every time it runs; it "
                    "must create state on the first call only"
                )
        self._traced_once = True
        return cf

    def _run_trace(self, bound: List):
        self.trace_count += 1
        return trace_function(self._fn, self._name, bound, self.pinned_signature)


def trace_function(
    fn, name: str, bound: List, pinned=None
) -> Tuple[ConcreteFunction, List[Variable]]:
    """Trace ``fn`` once on the ``(name, value, kind)`` entries of
    ``PolymorphicFunction._bind``; returns the ConcreteFunction and the
    variables the trace created. A tensor becomes a placeholder of its spec
    (of ``pinned[i]`` under a pinned signature), a variable a
    variable-reference placeholder; other values pass as they are."""
    get_runtime().stats.count_trace()
    ts = TraceState(name)
    args, kwargs = [], {}
    all_explicit = all(isinstance(v, (Tensor, Variable)) for _, v, _ in bound)
    for i, (pname, value, kind) in enumerate(bound):
        if pinned is not None:
            value = ts.add_arg_tensor(pname, *pinned[i])
        elif isinstance(value, Tensor):
            value = ts.add_arg_tensor(pname, value.dtype, value.shape)
        elif isinstance(value, Variable):
            ts.add_arg_variable(pname, value)
        if kind == "pos":
            args.append(value)
        else:
            kwargs[pname] = value
    with ts.open():
        try:
            result = fn(*args, **kwargs)
        except SymbolicTensor as e:
            raise StagingError(
                f"{name} used a concrete-only facility on a symbolic tensor "
                f"while being traced: {e}"
            ) from e
        except StageflowError:
            raise
        except Exception as e:
            raise StagingError(
                f"{name} raised while being traced: {type(e).__name__}: {e}"
            ) from e
        out_tensors, structure = _normalize_outputs(result, name)
        out_refs = [ts.resolve_input(t) for t in out_tensors]
    gf = ts.finalize(out_refs, [f"out_{i}" for i in range(len(out_refs))])
    cf = ConcreteFunction(gf, ts.capture_values, structure, all_explicit)
    return cf, ts.created_variables


def stage(fn=None, *, signature=None, name=None):
    """Decorator form of PolymorphicFunction construction."""
    if fn is None:
        return lambda f: PolymorphicFunction(f, signature=signature, name=name)
    return PolymorphicFunction(fn, signature=signature, name=name)


# ---------------------------------------------------------------------------
# Tensor-dependent control flow: eager outside a trace, a node inside one
# ---------------------------------------------------------------------------

def cond(pred, true_fn, false_fn, operands: Sequence = ()):
    """Tensor-dependent branch: ``true_fn(*operands)`` if the boolean scalar
    ``pred`` holds, else ``false_fn(*operands)``.

    Outside a trace this is a Python ``if``: only the taken branch runs, and
    tapes differentiate its eager ops, so a mismatch between the branches
    shows only once the code is traced. Inside a trace both branches are
    traced afresh into one ``cond`` node, which has no gradient; their
    structures (StagingError) and dtypes (KernelError) must match.
    """
    pred = _as_operand(pred)
    ops = [_as_operand(x) for x in _operand_list(operands, "cond operands")]
    if not current_context().tracing:
        _require_callable(true_fn, "cond true_fn")
        _require_callable(false_fn, "cond false_fn")
        _require_predicate("cond", (pred.dtype, pred.shape))
        fn = true_fn if _check_predicate("cond", pred) else false_fn
        result = fn(*ops)
        _normalize_outputs(result, _fn_name(fn, "cond_branch"))
        return result
    bound = [(f"arg_{i}", x, "pos") for i, x in enumerate(ops)]
    then_cf, _ = trace_function(true_fn, _fn_name(true_fn, "cond_true"), bound)
    else_cf, _ = trace_function(false_fn, _fn_name(false_fn, "cond_false"), bound)
    if then_cf.structure != else_cf.structure:
        raise StagingError("cond branches must produce matching outputs")
    then_caps = then_cf.materialize_captured()
    else_caps = else_cf.materialize_captured()
    outs = dispatch(
        "cond",
        [pred] + ops + then_caps + else_caps,
        {
            "then_branch": then_cf.graph,
            "else_branch": else_cf.graph,
            "n_operands": len(ops),
            "n_then_captured": len(then_caps),
            "n_else_captured": len(else_caps),
        },
    )
    return then_cf.unpack(outs)


def while_loop(cond_fn, body_fn, loop_vars: Sequence):
    """Tensor-dependent loop; loop variables keep their dtype and their
    known dims (StagingError).

    Outside a trace this is a Python ``while`` over eager ops, which tapes
    differentiate. Inside a trace the condition and body are traced afresh
    into one ``while_loop`` node, which has no gradient.
    """
    vars_ = [_as_operand(x) for x in _operand_list(loop_vars, "while_loop loop_vars")]
    specs = [(x.dtype, x.shape) for x in vars_]
    cond_name = _fn_name(cond_fn, "loop_cond")
    body_name = _fn_name(body_fn, "loop_body")
    if not current_context().tracing:
        _require_callable(cond_fn, "while_loop cond_fn")
        _require_callable(body_fn, "while_loop body_fn")
        while True:
            keep_going, _ = _normalize_outputs(cond_fn(*vars_), cond_name)
            _require_condition([(p.dtype, p.shape) for p in keep_going])
            if not _check_predicate("while_loop", keep_going[0]):
                return tuple(vars_) if len(vars_) != 1 else vars_[0]
            vars_, _ = _normalize_outputs(body_fn(*vars_), body_name)
            _check_loop_body([(x.dtype, x.shape) for x in vars_], specs)
    bound = [(f"arg_{i}", x, "pos") for i, x in enumerate(vars_)]
    cond_cf, _ = trace_function(cond_fn, cond_name, bound)
    body_cf, _ = trace_function(body_fn, body_name, bound)
    _check_loop_body(body_cf.graph.output_specs, specs)
    cond_caps = cond_cf.materialize_captured()
    body_caps = body_cf.materialize_captured()
    outs = dispatch(
        "while_loop",
        vars_ + cond_caps + body_caps,
        {
            "loop_cond": cond_cf.graph,
            "loop_body": body_cf.graph,
            "n_vars": len(vars_),
            "n_cond_captured": len(cond_caps),
            "n_body_captured": len(body_caps),
        },
    )
    return tuple(outs) if len(outs) != 1 else outs[0]


def _operand_list(values, what: str) -> Sequence:
    if not isinstance(values, (list, tuple)):
        raise StagingError(f"{what} must be a list or tuple, got {type(values).__name__}")
    return values


def _require_callable(fn, what: str) -> None:
    # A traced branch that is not callable fails as the trace calls it; an
    # eager one fails the same way, before anything runs.
    if not callable(fn):
        raise StagingError(f"{what} must be callable, got {type(fn).__name__}")


def _check_loop_body(out_specs, var_specs) -> None:
    if not loop_body_fits(out_specs, var_specs):
        raise StagingError("while_loop body must return one value per loop "
                           "variable, with matching specs")


def _fn_name(fn, fallback: str) -> str:
    name = getattr(fn, "__name__", fallback)
    return fallback if name == "<lambda>" else name

"""One validator per op: the op's ``infer`` rule.

Eager dispatch runs the same rule graph building runs, so a function that is
rejected staged is rejected eagerly too, with the same error class. Kernels
trust the rule; the checks they keep cover dims the rule saw as wildcards.
"""
import sys
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import stageflow as sf
from stageflow import ops as sfops
from stageflow.errors import (
    AttrMismatch,
    CorruptGraph,
    InputMismatch,
    KernelError,
    MissingFunction,
    ShapeMismatch,
    StageflowError,
)
from stageflow.graph import GraphBuilder, Node, Placeholder


def f32(*shape):
    return sf.constant(np.ones(shape, dtype=np.float32))


def f64(*shape):
    return sf.tensor_from_host(np.ones(shape).reshape(-1), shape, sf.float64)


def i32(*values):
    return sf.constant(np.array(values, dtype=np.int32))


def op(name, attrs=None):
    return lambda *xs: sfops.dispatch(name, list(xs), attrs)[0]


# (id, function, argument maker, error class). Each function is run eagerly
# and staged on the same arguments and must raise the same class both ways.
REJECTIONS = [
    ("add-mixed-dtypes", sf.add, lambda: [f32(2), f64(2)], KernelError),
    ("add-boolean", sf.add, lambda: [sf.constant([True]), sf.constant([False])], KernelError),
    ("add-broadcast", sf.add, lambda: [f32(2, 3), f32(4)], KernelError),
    ("sub-mixed-dtypes", sf.sub, lambda: [i32(1), f32(1)], KernelError),
    ("mul-boolean", sf.mul, lambda: [sf.constant(True), sf.constant(True)], KernelError),
    ("div-int32", sf.div, lambda: [i32(1, 2), i32(1, 1)], KernelError),
    ("neg-boolean", sf.neg, lambda: [sf.constant([True])], KernelError),
    ("exp-int32", sf.exp, lambda: [i32(1)], KernelError),
    ("log-int32", sf.log, lambda: [i32(1)], KernelError),
    ("softplus-int32", sf.softplus, lambda: [i32(1)], KernelError),
    ("relu-int32", sf.relu, lambda: [i32(1)], KernelError),
    ("step_positive-int32", op("step_positive"), lambda: [i32(1)], KernelError),
    ("matmul-int32", sf.matmul, lambda: [sf.constant([[1]]), sf.constant([[1]])], KernelError),
    ("matmul-mixed-dtypes", sf.matmul, lambda: [f32(2, 2), f64(2, 2)], KernelError),
    ("matmul-rank-1", sf.matmul, lambda: [f32(2), f32(2, 2)], KernelError),
    ("matmul-inner-dims", sf.matmul, lambda: [f32(2, 3), f32(4, 2)], KernelError),
    ("matmul-transposed-inner-dims", op("matmul", {"transpose_a": True}),
     lambda: [f32(2, 3), f32(4, 2)], KernelError),
    ("matmul-int-transpose-attr", op("matmul", {"transpose_a": 1}),
     lambda: [f32(2, 2), f32(2, 2)], AttrMismatch),
    ("transpose-rank-3", op("transpose"), lambda: [f32(2, 2, 2)], KernelError),
    ("greater-mixed-dtypes", sf.greater, lambda: [f32(1), f64(1)], KernelError),
    ("greater-boolean", sf.greater,
     lambda: [sf.constant([True]), sf.constant([False])], KernelError),
    ("greater-broadcast", sf.greater, lambda: [f32(2), f32(3)], KernelError),
    ("reshape-count", lambda x: sf.reshape(x, (4,)), lambda: [f32(2, 3)], KernelError),
    ("reshape-wildcard-target", lambda x: sf.reshape(x, (None, 3)),
     lambda: [f32(2, 3)], KernelError),
    ("broadcast_to-incompatible", lambda x: sf.broadcast_to(x, (2, 4)),
     lambda: [f32(3)], KernelError),
    ("broadcast_to-lower-rank", lambda x: sf.broadcast_to(x, (3,)),
     lambda: [f32(2, 3)], KernelError),
    ("broadcast_to-wildcard-target", lambda x: sf.broadcast_to(x, (None, 3)),
     lambda: [f32(3)], KernelError),
    ("reduce_sum-boolean", sf.reduce_sum, lambda: [sf.constant([True, False])], KernelError),
    ("reduce_sum-axis-range", lambda x: sf.reduce_sum(x, axes=(2,)),
     lambda: [f32(2, 3)], KernelError),
    ("reduce_sum-repeated-axes", lambda x: sf.reduce_sum(x, axes=(0, -2)),
     lambda: [f32(2, 3)], KernelError),
    ("reduce_mean-int32", sf.reduce_mean, lambda: [i32(1, 2, 4)], KernelError),
    ("eye-int32", lambda: sf.eye(2, sf.int32), lambda: [], KernelError),
    ("eye-negative", lambda: sf.eye(-1), lambda: [], KernelError),
    ("random_normal-int32", lambda: sf.random_normal((2,), sf.int32), lambda: [], KernelError),
    ("random_normal-wildcard", lambda: sf.random_normal((None, 2)), lambda: [], KernelError),
    ("dropout-rate", lambda x: sf.dropout(x, 1.5), lambda: [f32(4)], KernelError),
    ("dropout-int32", lambda x: sf.dropout(x, 0.5), lambda: [i32(1, 2)], KernelError),
    ("assign-shape", lambda v, x: v.assign(x),
     lambda: [sf.Variable([1.0, 2.0]), f32(3)], ShapeMismatch),
    ("assign-dtype", lambda v, x: v.assign(x),
     lambda: [sf.Variable([1.0, 2.0]), f64(2)], ShapeMismatch),
    ("assign_add-rank", lambda v, x: v.assign_add(x),
     lambda: [sf.Variable([1.0, 2.0]), f32(1, 2)], ShapeMismatch),
    ("cond-vector-predicate",
     lambda p, x: sf.cond(p, lambda v: v * 2.0, lambda v: v, [x]),
     lambda: [sf.constant([True, False, False]), sf.constant(3.0)], KernelError),
    ("cond-int-predicate",
     lambda p, x: sf.cond(p, lambda v: v * 2.0, lambda v: v, [x]),
     lambda: [i32(1), sf.constant(3.0)], KernelError),
    ("while-float-condition",
     lambda x: sf.while_loop(lambda v: v, lambda v: v - 1.0, [x]),
     lambda: [sf.constant(3.0)], KernelError),
    ("call_function-unknown", op("call_function", {"function": "ghost"}),
     lambda: [f32(1)], MissingFunction),
]


@pytest.mark.parametrize(
    "fn, make_args, error", [r[1:] for r in REJECTIONS], ids=[r[0] for r in REJECTIONS]
)
def test_rejection_same_in_both_modes(fn, make_args, error):
    with pytest.raises(error):
        fn(*make_args())
    with pytest.raises(error):
        sf.stage(fn)(*make_args())


def test_rejected_assign_leaves_variable_unchanged():
    v = sf.Variable([1.0, 2.0])
    with pytest.raises(ShapeMismatch):
        v.assign(f32(3))
    np.testing.assert_array_equal(v.numpy(), [1.0, 2.0])


# ---------------------------------------------------------------------------
# Eager output specs are the rule's output specs
# ---------------------------------------------------------------------------

PURE_OPS = [
    "identity", "add", "sub", "mul", "div", "neg", "exp", "log", "softplus",
    "relu", "step_positive", "matmul", "transpose", "greater", "reshape",
    "broadcast_to", "reduce_sum", "reduce_mean", "eye",
]
DTYPES = [sf.float32, sf.float64, sf.int32, sf.boolean]
shapes = st.lists(st.integers(0, 3), max_size=3).map(tuple)


def _value(rng, dtype, shape):
    if dtype is sf.boolean:
        arr = rng.random(shape) > 0.5
    elif dtype is sf.int32:
        arr = rng.integers(-3, 4, size=shape)
    else:
        arr = rng.standard_normal(shape)
    return sf.tensor_from_host(np.asarray(arr).reshape(-1), shape, dtype)


@st.composite
def op_calls(draw):
    name = draw(st.sampled_from(PURE_OPS))
    arity = 0 if name == "eye" else 2 if name in ("add", "sub", "mul", "div",
                                                  "matmul", "greater") else 1
    in_specs = [(draw(st.sampled_from(DTYPES)), draw(shapes)) for _ in range(arity)]
    if draw(st.booleans()) and arity == 2:  # often a well-typed pair
        in_specs[1] = (in_specs[0][0], in_specs[1][1])
    attrs = {}
    if name in ("reshape", "broadcast_to"):
        attrs["shape"] = draw(shapes)
    elif name in ("reduce_sum", "reduce_mean"):
        attrs["axes"] = draw(st.none() | st.lists(st.integers(-4, 3), max_size=3))
        attrs["keepdims"] = draw(st.booleans())
    elif name == "eye":
        attrs["size"] = draw(st.integers(-1, 3))
        attrs["dtype"] = draw(st.sampled_from(DTYPES))
    return name, in_specs, attrs, draw(st.integers(0, 2**31))


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(op_calls())
def test_eager_agrees_with_infer(call):
    name, in_specs, attrs, seed = call
    rng = np.random.default_rng(seed)
    inputs = [_value(rng, dt, shape) for dt, shape in in_specs]
    op_def = sfops.get_op_def(name)
    attrs = sfops.canonicalize_attrs(op_def, attrs)
    try:
        want = op_def.infer(attrs, in_specs, None)
    except StageflowError as e:
        with pytest.raises(type(e)):
            sfops.dispatch(name, inputs, attrs)
        return
    outs = sfops.dispatch(name, inputs, attrs)
    assert [(t.dtype, t.shape) for t in outs] == [(dt, tuple(s)) for dt, s in want]
    for t in outs:
        assert t.raw().dtype == t.dtype.np_dtype and t.raw().shape == t.shape


# ---------------------------------------------------------------------------
# Wildcard dims: the checks that stay at run time
# ---------------------------------------------------------------------------

WILDCARD_MISFITS = [
    ("add", lambda x, y: x + y, [(sf.float32, (None,)), (sf.float32, (3,))],
     [f32(4), f32(3)]),
    ("matmul", sf.matmul, [(sf.float32, (2, None)), (sf.float32, (3, 2))],
     [f32(2, 4), f32(3, 2)]),
    # Inner dims 1 and 3: an outer product must not broadcast them.
    ("matmul-transposed", op("matmul", {"transpose_b": True}),
     [(sf.float32, (3, None)), (sf.float32, (2, None))], [f32(3, 1), f32(2, 3)]),
    ("reshape", lambda x: sf.reshape(x, (2, 3)), [(sf.float32, (None,))], [f32(5)]),
    ("broadcast_to", lambda x: sf.broadcast_to(x, (2, 3)), [(sf.float32, (None,))],
     [f32(4)]),
]


@pytest.mark.parametrize(
    "name, fn, signature, args", WILDCARD_MISFITS,
    ids=[w[0] for w in WILDCARD_MISFITS],
)
def test_wildcard_misfit_raises_kernel_error(name, fn, signature, args):
    op_name = name.split("-")[0]
    with pytest.raises(KernelError, match=rf"^node \d+ \({op_name}\): "):
        sf.stage(fn, signature=signature)(*args)


def test_wildcard_misfit_names_node_and_op():
    staged = sf.stage(lambda x, y: x * y + y,
                      signature=[(sf.float32, (None,)), (sf.float32, (None,))])
    assert staged(f32(3), f32(3)).shape == (3,)
    with pytest.raises(KernelError, match=r"^node 0 \(mul\): "):
        staged(f32(4), f32(3))


def test_cond_predicate_size_checked_at_run_time():
    def branch(p, x):
        return sf.cond(p, lambda v: v * 2.0, lambda v: v, [x])

    staged = sf.stage(branch, signature=[(sf.boolean, (None,)), (sf.float32, ())])
    assert float(staged(sf.constant([True]), sf.constant(3.0))) == 6.0
    assert float(staged(sf.constant([False]), sf.constant(3.0))) == 3.0
    with pytest.raises(KernelError):
        staged(sf.constant([True, False, False]), sf.constant(3.0))


def test_while_predicate_size_checked_at_run_time():
    def count_down(x):
        return sf.while_loop(lambda v: sf.greater(v, 0.0), lambda v: v - 1.0, [x])

    staged = sf.stage(count_down, signature=[(sf.float32, (None,))])
    assert staged(sf.constant([3.0])).numpy().tolist() == [0.0]
    with pytest.raises(KernelError):
        staged(sf.constant([3.0, 1.0]))


# ---------------------------------------------------------------------------
# One spec matcher
# ---------------------------------------------------------------------------


def test_variable_binding_checks_rank_under_wildcards():
    b = GraphBuilder()
    vref = b.add_placeholder("v", sf.float32, (None, 3), is_variable_ref=True)
    (y,) = b.add_node("read_variable", [vref], {}, None, [(sf.float32, (None, 3))])
    gf = b.finalize("read", [y], ["y"])
    assert sf.execute(gf, [], [sf.Variable(np.ones((2, 3), np.float32))])[0].shape == (2, 3)
    for bad in (np.ones(4, np.float32), np.ones((2, 4), np.float32), np.ones((2, 3))):
        with pytest.raises(InputMismatch):
            sf.execute(gf, [], [sf.Variable(bad)])


# ---------------------------------------------------------------------------
# Per-context eager op counts
# ---------------------------------------------------------------------------


def test_eager_counts_from_threads_sum_exactly():
    stats = sf.get_runtime().stats
    stats.reset()
    n_threads, per_thread = 8, 200
    start = threading.Barrier(n_threads)

    def work():
        x = f32(2)
        start.wait()
        for _ in range(per_thread):
            sf.add(x, x)

    threads = [threading.Thread(target=work) for _ in range(n_threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    snap = stats.snapshot()
    assert snap["eager_op_counts"] == {"add": n_threads * per_thread}
    assert snap["eager_dispatches"] == n_threads * per_thread


def test_reset_clears_eager_counts():
    stats = sf.get_runtime().stats
    x = f32(2)
    sf.mul(x, x)
    sf.neg(x)
    assert stats.snapshot()["eager_dispatches"] >= 2
    stats.reset()
    snap = stats.snapshot()
    assert snap["eager_dispatches"] == 0 and snap["eager_op_counts"] == {}
    sf.neg(x)
    assert stats.snapshot()["eager_op_counts"] == {"neg": 1}


def test_rejected_op_is_not_counted():
    stats = sf.get_runtime().stats
    stats.reset()
    with pytest.raises(AttrMismatch):
        sfops.dispatch("reshape", [f32(2)], {})
    with pytest.raises(KernelError):
        sf.reshape(f32(2), (3,))
    assert stats.snapshot()["eager_dispatches"] == 0


# ---------------------------------------------------------------------------
# The folded eager dispatch frame keeps every check.
# ---------------------------------------------------------------------------


def _counted_neg():
    """Register ``counted_neg``, a ``neg`` whose ``infer`` counts its calls."""
    calls = []

    def infer(attrs, in_specs, env=None):
        calls.append(len(in_specs))
        return sfops.get_op_def("neg").infer(attrs, in_specs, env)

    sfops.register_op(sfops.OpDef(
        name="counted_neg", input_arity=1, attr_schema={}, output_arity=1,
        stateful=False, compute=sfops.get_op_def("neg").compute, infer=infer,
    ))
    return calls


def test_infer_runs_once_per_eager_dispatch_and_recorded_node():
    calls = _counted_neg()
    x = f32(3)
    for n in range(1, 4):
        sf.dispatch("counted_neg", [x])
        assert len(calls) == n
    with sf.Tape() as tape:
        tape.watch(x)
        sf.dispatch("counted_neg", [x])
    assert len(calls) == 4
    twice = sf.stage(lambda t: sf.dispatch(
        "counted_neg", [sf.dispatch("counted_neg", [t])[0]])[0])
    np.testing.assert_array_equal(twice(x).numpy(), x.numpy())
    assert len(calls) == 6  # one per recorded node
    twice(x)
    assert len(calls) == 6  # a warm staged call records nothing


def _leaked_symbolic():
    leaked = []

    def keep(t):
        leaked.append(t * 2.0)
        return t

    sf.stage(keep)(f32(2))
    return leaked[0]


# (id, op, inputs maker, attrs, expected error class or None to succeed).
DISPATCH_CASES = [
    ("unknown-op", "no_such_op", lambda: [f32(2)], None, sf.errors.UnknownOp),
    ("arity", "mul", lambda: [f32(2)], None, sf.errors.ArityMismatch),
    ("keepdims-int", "reduce_sum", lambda: [f32(2)], {"keepdims": 1}, AttrMismatch),
    ("unexpected-attr", "mul", lambda: [f32(2), f32(2)], {"axes": None}, AttrMismatch),
    ("missing-required-attr", "reshape", lambda: [f32(2)], {}, AttrMismatch),
    ("shape-of-strings", "reshape", lambda: [f32(2)], {"shape": ("a",)}, AttrMismatch),
    ("axes-of-strings", "reduce_sum", lambda: [f32(2)], {"axes": ("a",)}, AttrMismatch),
    ("np-bool-attr", "reduce_sum", lambda: [f32(2, 3)],
     {"axes": (1,), "keepdims": np.bool_(True)}, None),
    ("leaked-symbolic", "neg", lambda: [_leaked_symbolic()], None,
     sf.errors.SymbolicTensor),
    ("non-tensor-input", "add", lambda: [f32(2), [1.0, 2.0]], None, KernelError),
]


@pytest.mark.parametrize(
    "op, make_inputs, attrs, error", [c[1:] for c in DISPATCH_CASES],
    ids=[c[0] for c in DISPATCH_CASES],
)
def test_dispatch_rejection_table(op, make_inputs, attrs, error):
    inputs = make_inputs()
    if error is None:
        (out,) = sf.dispatch(op, inputs, attrs)
        assert out.shape == (2, 1)  # keepdims was read as True
        return
    with pytest.raises(error) as info:
        sf.dispatch(op, inputs, attrs)
    if op == "add":
        assert "input 1" in str(info.value)


def test_canonical_attrs_keep_python_values():
    reduce_sum = sfops.get_op_def("reduce_sum")
    attrs = sfops.canonicalize_attrs(reduce_sum, {"axes": None, "keepdims": False})
    assert attrs == {"axes": None, "keepdims": False}
    assert attrs["keepdims"] is False
    for value in (False, True):
        canon = sfops.canonicalize_attrs(reduce_sum, {"keepdims": np.bool_(value)})
        assert canon["keepdims"] is value


@pytest.mark.parametrize("values, error", [
    ([1.0, 1.0], None),
    ([1.0], sf.errors.ArityMismatch),
    ([1.0, "a"], KernelError),
], ids=["fits", "short", "non-tensor"])
@pytest.mark.parametrize("staged", [False, True], ids=["eager", "staged"])
def test_generator_inputs_work_or_raise_stageflow_error(values, error, staged):
    def run(x):
        return sf.dispatch("add", (x if v == 1.0 else v for v in values))[0]

    fn = sf.stage(run) if staged else run
    if error is None:
        np.testing.assert_array_equal(fn(f32(2)).numpy(), [2.0, 2.0])
    else:
        with pytest.raises(error):
            fn(f32(2))
        assert issubclass(error, StageflowError)


def _pred():
    return sf.constant(True)


_X2 = Placeholder("x", sf.float32, (2,))


def _add_node_list_attrs(attrs=("axes",), op="reduce_sum"):
    b = GraphBuilder()
    x = b.add_placeholder("x", sf.float32, (3,))
    b.add_node(op, [x], list(attrs), None, None)


def _negate_graph():
    b = GraphBuilder()
    x = b.add_placeholder("x", sf.float32, (2,))
    (y,) = b.add_node("neg", [x], {}, None, [(sf.float32, (2,))])
    return b.finalize("negate", [y], ["y"])


# Public calls given a wrong kind of argument: each raises a StageflowError,
# and the eager control-flow forms raise what the staged forms raise.
API_MISUSE = [
    ("constant-str-dtype", lambda: sf.constant(1.0, "float32"), ShapeMismatch),
    ("tensor_from_host-str-dtype",
     lambda: sf.tensor_from_host([1.0], (1,), "float32"), ShapeMismatch),
    ("stage-str-dim",
     lambda: sf.stage(lambda x: x, signature=[(sf.float32, ("a",))]),
     sf.errors.SignatureMismatch),
    ("stage-bad-entry", lambda: sf.stage(lambda x: x, signature=[sf.float32]),
     sf.errors.SignatureMismatch),
    ("stage-signature-not-a-list", lambda: sf.stage(lambda x: x, signature=3),
     sf.errors.SignatureMismatch),
    ("cond-eager", lambda: sf.cond(_pred(), 3, 4, []), sf.errors.StagingError),
    ("cond-staged", lambda: sf.stage(lambda: sf.cond(_pred(), 3, 4, []))(),
     sf.errors.StagingError),
    ("cond-operands-eager",
     lambda: sf.cond(_pred(), lambda: 1, lambda: 2, 3.0), sf.errors.StagingError),
    ("while-eager",
     lambda: sf.while_loop(lambda v: v, lambda v: v, 3.0), sf.errors.StagingError),
    ("while-staged",
     lambda: sf.stage(lambda: sf.while_loop(lambda v: v, lambda v: v, 3.0))(),
     sf.errors.StagingError),
    ("while-body-eager",
     lambda: sf.while_loop(lambda v: sf.greater(v, 0.0), 2, [1.0]),
     sf.errors.StagingError),
    ("dispatch-inputs-none", lambda: sf.dispatch("add", None), KernelError),
    ("dispatch-attrs-list", lambda: sf.dispatch("reduce_sum", [f32(3)], ["axes"]),
     AttrMismatch),
    ("dispatch-attrs-int", lambda: sf.dispatch("reduce_sum", [f32(3)], 3), AttrMismatch),
    ("dispatch-attrs-str", lambda: sf.dispatch("reduce_sum", [f32(3)], "axes"),
     AttrMismatch),
    ("add_node-attrs-list", _add_node_list_attrs, AttrMismatch),
    # Falsy attrs that are not a dict are not "no attrs".
    ("dispatch-attrs-empty-list", lambda: sf.dispatch("neg", [f32(3)], []), AttrMismatch),
    ("dispatch-attrs-zero", lambda: sf.dispatch("neg", [f32(3)], 0), AttrMismatch),
    ("dispatch-attrs-empty-str", lambda: sf.dispatch("neg", [f32(3)], ""), AttrMismatch),
    ("add_node-attrs-empty-list", lambda: _add_node_list_attrs((), "neg"), AttrMismatch),
    ("dispatch-cond-no-inputs", lambda: sf.dispatch("cond", [], {
        "then_branch": _negate_graph(), "else_branch": _negate_graph(), "n_operands": 0,
        "n_then_captured": 0, "n_else_captured": 0}), KernelError),
    ("staged-call-leaked-symbolic",
     lambda: sf.stage(lambda x: x * 2.0)(_leaked_symbolic()), InputMismatch),
    ("reshape-shape-none", lambda: sf.reshape(f32(2), None), AttrMismatch),
    ("broadcast_to-shape-none", lambda: sf.broadcast_to(f32(2), None), AttrMismatch),
    ("random_normal-shape-none", lambda: sf.random_normal(None), AttrMismatch),
    ("constant-ragged", lambda: sf.constant([[1.0], [1.0, 2.0]]),
     sf.errors.LengthMismatch),
    ("add-ragged", lambda: sf.add(f32(2), [[1.0], [1.0, 2.0]]),
     sf.errors.LengthMismatch),
    ("execute-not-a-graph", lambda: sf.execute(None, []), InputMismatch),
    ("execute-inputs-none", lambda: sf.execute(_negate_graph(), None), InputMismatch),
    ("host_call-not-a-callback", lambda: sf.host_call(3, [f32(2)]),
     sf.errors.CallbackError),
    ("register_callback-str-dim",
     lambda: sf.register_callback(lambda x: x, [(sf.float32, ("a",))]),
     sf.errors.SignatureViolation),
    ("register_callback-signature-not-a-list",
     lambda: sf.register_callback(lambda x: x, 3), sf.errors.SignatureViolation),
    ("restore-not-a-checkpoint", lambda: sf.restore(sf.Variable([1.0]), None),
     sf.errors.StorageError),
    ("tensor-neither-concrete-nor-symbolic", lambda: sf.Tensor(sf.float32, (), None),
     sf.errors.SymbolicTensor),
    ("graph_function-one-tuple-ref",
     lambda: sf.GraphFunction("g", [_X2], [Node("neg", ((0,),), {}, None, None)], []),
     CorruptGraph),
    ("graph_function-nodes-none", lambda: sf.GraphFunction("g", [_X2], None, []),
     CorruptGraph),
    ("graph_function-output-not-a-ref",
     lambda: sf.GraphFunction("g", [_X2], [], [("o", 3)]), CorruptGraph),
]


@pytest.mark.parametrize("make, error", [c[1:] for c in API_MISUSE],
                         ids=[c[0] for c in API_MISUSE])
def test_api_misuse_raises_stageflow_error(make, error):
    with pytest.raises(error):
        make()
    assert issubclass(error, StageflowError)

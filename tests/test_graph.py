import threading

import numpy as np
import pytest

import stageflow as sf
from stageflow.devices import DeviceName
from stageflow.errors import (
    CorruptGraph,
    FormatVersionMismatch,
    InputMismatch,
    KernelError,
    MissingFunction,
    NotSerializable,
)
from stageflow.executor import _plan_for
from stageflow.graph import (
    GraphBuilder,
    GraphFunction,
    Node,
    _rebuild,
    constant_fold,
    node_is_stateful,
    optimize,
    prune,
)
from stageflow.kernels import KERNELS, _div_np, _exp_np, _log_np, _relu_np, _softplus_np, _step_positive_np
from stageflow.runtime import RuntimeOptions, init_runtime
from stageflow.serial import deserialize, serialize

from helpers import leapfrog, random_graph, skip_node_check


def _simple_graph(extra_dead=False):
    """y = x*x, optionally plus an unused exp(x) node."""
    b = GraphBuilder()
    x = b.add_placeholder("x", sf.float32, (2,))
    (y,) = b.add_node("mul", [x, x], {}, None, [(sf.float32, (2,))])
    if extra_dead:
        b.add_node("exp", [x], {}, None, [(sf.float32, (2,))])
    return b.finalize("square", [y], ["y"])


class TestPrune:
    def test_dead_node_removed(self):
        gf = _simple_graph(extra_dead=True)
        pruned = prune(gf)
        assert len(gf.nodes) - len(pruned.nodes) == 1
        assert "exp" not in pruned.op_counts()

    def test_stateful_node_retained(self):
        v = sf.Variable([0.0, 0.0])
        b = GraphBuilder()
        x = b.add_placeholder("x", sf.float32, (2,))
        s = b.add_placeholder("state", sf.float32, (2,), is_variable_ref=True)
        (y,) = b.add_node("mul", [x, x], {}, None, [(sf.float32, (2,))])
        b.add_node("assign_variable", [s, y], {}, None, [])
        (dead,) = b.add_node("exp", [x], {}, None, [(sf.float32, (2,))])
        gf = b.finalize("writer", [y], ["y"])
        pruned = prune(gf)
        assert "assign_variable" in pruned.op_counts()
        assert "exp" not in pruned.op_counts()
        out = sf.execute(pruned, [sf.constant([2.0, 3.0])], captured=[v])
        np.testing.assert_array_equal(out[0].numpy(), [4.0, 9.0])
        np.testing.assert_array_equal(v.numpy(), [4.0, 9.0])

    def test_keeps_what_outputs_and_stateful_nodes_reach(self):
        def reference_keep(gf):
            n_in = len(gf.inputs)
            todo = [vid - n_in for _, (vid, _) in gf.outputs if vid >= n_in]
            todo += [i for i, n in enumerate(gf.nodes)
                     if node_is_stateful(n, gf.library)]
            keep = set()
            while todo:
                i = todo.pop()
                if i not in keep:
                    keep.add(i)
                    todo += [v - n_in for v, _ in gf.nodes[i].inputs if v >= n_in]
            return sorted(keep)

        graphs = []
        for seed in range(30):
            var = sf.Variable(np.zeros((2, 2))) if seed % 2 else None
            graphs.append(random_graph(seed, max_nodes=20, with_dead=4,
                                       stateful_var=var)[0])
        # a value that only a stateful node reads
        b = GraphBuilder()
        x = b.add_placeholder("x", sf.float32, (2,))
        s = b.add_placeholder("state", sf.float32, (2,), is_variable_ref=True)
        (e,) = b.add_node("exp", [x], {}, None, [(sf.float32, (2,))])
        b.add_node("neg", [e], {}, None, [(sf.float32, (2,))])
        (y,) = b.add_node("mul", [x, x], {}, None, [(sf.float32, (2,))])
        b.add_node("assign_add_variable", [s, e], {}, None, [])
        graphs.append(b.finalize("side_effect", [y], ["y"]))
        for gf in graphs:
            want = _rebuild(gf, reference_keep(gf), {})
            assert prune(gf).structurally_equal(want), gf.name
        assert prune(graphs[-1]).op_counts() == {
            "exp": 1, "mul": 1, "assign_add_variable": 1,
        }

    def test_idempotent(self):
        gf = prune(_simple_graph(extra_dead=True))
        again = prune(gf)
        assert gf.structurally_equal(again)


class TestConstantFold:
    def test_add_of_constants_folds(self):
        b = GraphBuilder()
        x = b.add_placeholder("x", sf.float32, (2, 2))
        (c1,) = b.add_node(
            "constant", [], {"value": sf.constant([[1.0, 1.0], [1.0, 1.0]])},
            None, [(sf.float32, (2, 2))])
        (c2,) = b.add_node(
            "constant", [], {"value": sf.constant([[2.0, 2.0], [2.0, 2.0]])},
            None, [(sf.float32, (2, 2))])
        (s,) = b.add_node("add", [c1, c2], {}, None, [(sf.float32, (2, 2))])
        (y,) = b.add_node("matmul", [s, x], {}, None, [(sf.float32, (2, 2))])
        gf = b.finalize("f", [y], ["y"])

        folded = optimize(gf)
        assert folded.op_counts() == {"constant": 1, "matmul": 1}
        const = [n for n in folded.nodes if n.op == "constant"][0]
        np.testing.assert_array_equal(const.attrs["value"].numpy(),
                                      [[3.0, 3.0], [3.0, 3.0]])
        x_val = sf.constant(np.eye(2, dtype=np.float32))
        np.testing.assert_array_equal(
            sf.execute(folded, [x_val])[0].numpy(),
            sf.execute(gf, [x_val])[0].numpy(),
        )

    def test_random_normal_never_folds(self):
        b = GraphBuilder()
        (r,) = b.add_node(
            "random_normal", [], {"shape": (2,), "dtype": sf.float32}, None,
            [(sf.float32, (2,))])
        (y,) = b.add_node("relu", [r], {}, None, [(sf.float32, (2,))])
        gf = b.finalize("noisy", [y], ["y"])
        folded = constant_fold(gf)
        assert "random_normal" in folded.op_counts()

    def test_fully_constant_function_folds(self):
        b = GraphBuilder()
        (e,) = b.add_node("eye", [], {"size": 3, "dtype": sf.float32}, None,
                          [(sf.float32, (3, 3))])
        diag = sf.constant(np.diag([-1.0, 1.0, 2.0]).astype(np.float32))
        (d,) = b.add_node("constant", [], {"value": diag}, None,
                          [(sf.float32, (3, 3))])
        (m,) = b.add_node("matmul", [e, d], {}, None, [(sf.float32, (3, 3))])
        (y,) = b.add_node("relu", [m], {}, None, [(sf.float32, (3, 3))])
        gf = b.finalize("fig", [y], ["y"])
        baseline = sf.execute(gf, [])[0].numpy()
        folded = optimize(gf)
        assert folded.op_counts() == {"constant": 1}
        np.testing.assert_array_equal(sf.execute(folded, [])[0].numpy(), baseline)


class TestExecute:
    def test_pruned_matches_unpruned(self):
        gf = _simple_graph(extra_dead=True)
        x = sf.constant([3.0, -1.0])
        a = sf.execute(gf, [x])[0].numpy()
        b = sf.execute(prune(gf), [x])[0].numpy()
        assert a.tobytes() == b.tobytes()

    def test_long_chain_iterative(self):
        b = GraphBuilder()
        x = b.add_placeholder("x", sf.float64, ())
        ref = x
        for _ in range(1000):
            (ref,) = b.add_node("add", [ref, ref], {}, None, [(sf.float64, ())])
        gf = b.finalize("chain", [ref], ["y"])
        out = sf.execute(gf, [sf.tensor_from_host([1.0], (), sf.float64)])
        assert float(out[0]) == float(2.0**1000)

    def test_input_mismatch(self):
        gf = _simple_graph()
        with pytest.raises(InputMismatch):
            sf.execute(gf, [sf.constant([1.0, 2.0, 3.0])])
        with pytest.raises(InputMismatch):
            sf.execute(gf, [])

    def test_missing_function(self):
        # The node check resolves the callee when the node is added.
        b = GraphBuilder()
        x = b.add_placeholder("x", sf.float32, ())
        with pytest.raises(MissingFunction):
            b.add_node("call_function", [x], {"function": "ghost"}, None,
                       [(sf.float32, ())])
        assert b.nodes == []

    def test_workers_do_not_change_results(self):
        rng = np.random.default_rng(0)
        gf, inputs, _ = random_graph(17, max_nodes=30)
        one = sf.execute(gf, inputs, workers=1)[0].numpy()
        many = sf.execute(gf, inputs, workers=8)[0].numpy()
        assert one.tobytes() == many.tobytes()

    def test_wide_graph_parallel_equivalence(self):
        b = GraphBuilder()
        x = b.add_placeholder("x", sf.float64, (64,))
        branches = []
        for _ in range(16):
            (r,) = b.add_node("softplus", [x], {}, None, [(sf.float64, (64,))])
            (r,) = b.add_node("exp", [r], {}, None, [(sf.float64, (64,))])
            branches.append(r)
        acc = branches[0]
        for r in branches[1:]:
            (acc,) = b.add_node("add", [acc, r], {}, None, [(sf.float64, (64,))])
        gf = b.finalize("wide", [acc], ["y"])
        x_val = sf.constant(np.linspace(-1, 1, 64))
        seq = sf.execute(gf, [x_val], workers=1)[0].numpy()
        par = sf.execute(gf, [x_val], workers=4)[0].numpy()
        assert seq.tobytes() == par.tobytes()


def _exec_threads():
    return [t for t in threading.enumerate() if t.name.startswith("stageflow-exec")]


def _wide_graph(width=16):
    b = GraphBuilder()
    x = b.add_placeholder("x", sf.float64, (64,))
    branches = []
    for _ in range(width):
        (r,) = b.add_node("softplus", [x], {}, None, [(sf.float64, (64,))])
        (r,) = b.add_node("exp", [r], {}, None, [(sf.float64, (64,))])
        branches.append(r)
    acc = branches[0]
    for r in branches[1:]:
        (acc,) = b.add_node("add", [acc, r], {}, None, [(sf.float64, (64,))])
    return b.finalize("wide", [acc], ["y"])


class TestInlineExecution:
    """Graphs run on the calling thread whatever the worker setting."""

    @pytest.fixture(autouse=True)
    def four_workers(self):
        init_runtime(RuntimeOptions(executor_workers=4))
        assert _exec_threads() == []

    def test_wide_graph_starts_no_worker_thread(self):
        x_val = sf.constant(np.linspace(-1, 1, 64))
        (y,) = sf.execute(_wide_graph(), [x_val], workers=4)
        want = sum(np.exp(np.logaddexp(0.0, np.linspace(-1, 1, 64))) for _ in range(16))
        np.testing.assert_allclose(y.numpy(), want, rtol=1e-12)
        assert _exec_threads() == []

    def test_staged_leapfrog_starts_no_worker_thread(self):
        def force(q):
            with sf.Tape() as tape:
                tape.watch(q)
                u = sf.mul(sf.reduce_sum(sf.mul(q, q)), 0.5)
            return tape.gradient(u, q)

        def trajectory(q, p):
            for _ in range(3):
                p = sf.sub(p, sf.mul(force(q), 0.05))
                q = sf.add(q, sf.mul(p, 0.1))
                p = sf.sub(p, sf.mul(force(q), 0.05))
            return q, p

        rng = np.random.default_rng(0)
        q0 = sf.constant(rng.standard_normal((8, 2)).astype(np.float32))
        p0 = sf.constant(rng.standard_normal((8, 2)).astype(np.float32))
        eager = trajectory(q0, p0)
        staged = sf.stage(trajectory)
        for _ in range(2):
            got = staged(q0, p0)
        for e, g in zip(eager, got):
            assert e.numpy().tobytes() == g.numpy().tobytes()
        assert _exec_threads() == []


class TestOptimizerProperties:
    def test_random_graphs_sound(self):
        for seed in range(40):
            gf, inputs, _ = random_graph(seed, max_nodes=25)
            baseline = sf.execute(gf, inputs)[0].numpy()
            opt = prune(constant_fold(gf))
            out = sf.execute(opt, inputs)[0].numpy()
            assert baseline.tobytes() == out.tobytes(), seed
            assert len(opt.nodes) <= len(gf.nodes)

    def test_dead_injection_fully_removed(self):
        for seed in range(10):
            clean, inputs, _ = random_graph(seed, max_nodes=20, with_dead=0)
            dirty, _, _ = random_graph(seed, max_nodes=20, with_dead=5)
            assert len(dirty.nodes) == len(clean.nodes) + 5
            assert len(optimize(dirty).nodes) == len(optimize(clean).nodes)

    def test_prune_fold_commute_on_stateless(self):
        for seed in range(10):
            gf, inputs, _ = random_graph(seed, max_nodes=20, with_dead=3)
            a = prune(constant_fold(gf))
            bq = constant_fold(prune(gf))
            x = sf.execute(a, inputs)[0].numpy()
            y = sf.execute(bq, inputs)[0].numpy()
            assert x.tobytes() == y.tobytes()
            assert len(a.nodes) == len(bq.nodes)


class TestSerialization:
    def test_round_trip_nested(self):
        inner = sf.stage(lambda a: sf.relu(a), name="inner_fn")

        @sf.stage
        def outer(a, b):
            return inner(sf.matmul(a, b))

        e = sf.eye(3)
        d = sf.constant(np.diag([-1.0, 1.0, 2.0]).astype(np.float32))
        outer(e, d)
        gf = outer.get_concrete(outer.trace_key_for(e, d)).graph
        restored = deserialize(serialize(gf))
        assert gf.structurally_equal(restored)
        assert list(restored.library) == list(gf.library)
        a = sf.execute(gf, [e, d])[0].numpy()
        bq = sf.execute(restored, [e, d])[0].numpy()
        assert a.tobytes() == bq.tobytes()

    def test_stateful_graph_round_trip_execution(self):
        v = sf.Variable(0.0)

        @sf.stage
        def bump():
            v.assign_add(1.0)
            return v.read_value()

        bump()
        gf = bump.get_concrete(bump.trace_key_for()).graph
        restored = deserialize(serialize(gf))
        out = sf.execute(restored, [], captured=[v])
        assert float(out[0]) == 2.0
        assert float(v.read_value()) == 2.0

    def test_host_call_not_serializable(self):
        cb = sf.register_callback(lambda x: sf.neg(x), [(sf.float32, ())])

        @sf.stage
        def f(x):
            (y,) = sf.host_call(cb, [x])
            return y

        x = sf.constant(1.0)
        f(x)
        gf = f.get_concrete(f.trace_key_for(x)).graph
        assert not gf.serializable
        with pytest.raises(NotSerializable):
            serialize(gf)

    def test_nested_host_call_poisons_library(self):
        cb = sf.register_callback(lambda x: sf.neg(x), [(sf.float32, ())])
        inner = sf.stage(lambda x: sf.host_call(cb, [x])[0], name="escapee")

        @sf.stage
        def outer(x):
            return sf.add(inner(x), 1.0)

        x = sf.constant(1.0)
        outer(x)
        gf = outer.get_concrete(outer.trace_key_for(x)).graph
        assert not gf.serializable
        with pytest.raises(NotSerializable):
            serialize(gf)

    def test_version_mismatch(self):
        gf = _simple_graph()
        blob = bytearray(serialize(gf))
        blob[4] = 99  # bump the little-endian version field
        with pytest.raises(FormatVersionMismatch):
            deserialize(bytes(blob))

    def test_corrupt_blob(self):
        gf = _simple_graph()
        blob = serialize(gf)
        with pytest.raises(CorruptGraph):
            deserialize(b"XXXX" + blob[4:])
        with pytest.raises(CorruptGraph):
            deserialize(blob[: len(blob) // 2])

    @pytest.mark.parametrize("op, extra", [
        ("read_variable", 0), ("assign_variable", 1), ("assign_add_variable", 1),
    ])
    def test_variable_op_on_plain_placeholder_rejected(self, op, extra, monkeypatch):
        def build():
            b = GraphBuilder()
            x = b.add_placeholder("x", sf.float32, (2,))
            outs = [(sf.float32, (2,))] if op == "read_variable" else []
            b.add_node(op, [x] * (1 + extra), {}, None, outs)
            return b.finalize("bad", [x], ["x"])

        with pytest.raises(CorruptGraph):
            build()
        # A blob that skipped the node check when written fails when decoded.
        skip_node_check(monkeypatch)
        blob = serialize(build())
        monkeypatch.undo()
        with pytest.raises(CorruptGraph):
            deserialize(blob)

    def test_optimizer_outputs_round_trip(self):
        for seed in range(10):
            gf, inputs, _ = random_graph(seed, max_nodes=20, with_dead=2)
            opt = optimize(gf)
            assert opt.structurally_equal(deserialize(serialize(opt)))


def _eager_replay(gf, inputs):
    """The outputs of ``gf`` with every node run through eager dispatch."""
    from stageflow.ops import dispatch

    n_in = len(gf.inputs)
    values = {(i, 0): x for i, x in enumerate(inputs)}
    for j, node in enumerate(gf.nodes):
        if node.op == "constant":
            outs = [node.attrs["value"]]
        else:
            outs = dispatch(node.op, [values[r] for r in node.inputs], node.attrs)
        for k, out in enumerate(outs):
            values[(n_in + j, k)] = out
    return [values[ref] for _, ref in gf.outputs]


def _assert_edge_tensor(t, dtype):
    arr = t.raw()
    assert type(arr) is np.ndarray  # a 0-d result too, never a numpy scalar
    assert arr.flags.c_contiguous and not arr.flags.writeable
    assert t.dtype is dtype and arr.dtype == dtype.np_dtype
    assert t.shape == arr.shape


# The attr-free elementwise ops: (arity, dtypes their infer rule accepts).
_FLOATS = (sf.float32, sf.float64)
_ARRAY_OPS = {
    "add": (2, _FLOATS + (sf.int32,)),
    "sub": (2, _FLOATS + (sf.int32,)),
    "mul": (2, _FLOATS + (sf.int32,)),
    "div": (2, _FLOATS),
    "greater": (2, _FLOATS + (sf.int32,)),
    "neg": (1, _FLOATS + (sf.int32,)),
    "exp": (1, _FLOATS),
    "log": (1, _FLOATS),
    "softplus": (1, _FLOATS),
    "relu": (1, _FLOATS),
    "step_positive": (1, _FLOATS),
}

# Equal shapes, a broadcast, and 0-d operands (numpy returns a scalar).
_OPERAND_SHAPES = {
    1: [((4, 8),), ((),)],
    2: [((4, 8), (4, 8)), ((4, 8), (8,)), ((), (3,))],
}


def _elementwise_operand(rng, shape, dtype):
    """Random values of ``shape`` with the edge cases of elementwise math
    (signed zeros, infs, NaN, overflow and underflow) mixed in."""
    size = int(np.prod(shape))
    if dtype is sf.int32:
        special = np.array([0, -1, 2**31 - 1, -2**31], np.int64)
        values = rng.integers(-2**31, 2**31, size=size)
    else:
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-30, -1e30, 89.0, 710.0])
        values = rng.standard_normal(size) * 3
    values[: min(size, len(special))] = special[:size]
    return rng.permutation(values).astype(dtype.np_dtype).reshape(shape)


class TestRawArrayPlans:
    """Plans run each op's compute on raw arrays; Tensors only at the edges."""

    def test_random_graphs_bit_equal_to_eager_replay(self):
        for seed in range(40):
            gf, inputs, _ = random_graph(seed, max_nodes=25)
            got = sf.execute(gf, inputs)
            want = _eager_replay(gf, inputs)
            for (_, (vid, k)), g, w in zip(gf.outputs, got, want):
                spec = gf.nodes[vid - len(gf.inputs)].out_specs[k]
                _assert_edge_tensor(g, spec[0])
                assert g.raw().tobytes() == w.raw().tobytes(), seed

    def test_every_compute_matches_eager_at_the_edges(self):
        def f(x, n, w):
            t = sf.ops.dispatch("transpose", [x])[0]
            total = sf.reduce_sum(x)  # 0-d
            return [
                sf.matmul(t, sf.exp(x)),  # a matmul of a transposed operand
                # Summing a strided view rounds differently from summing the
                # C-contiguous copy eager makes.
                sf.reduce_sum(sf.ops.dispatch("transpose", [w])[0], axes=(1,)),
                total,
                sf.reduce_mean(sf.softplus(x), axes=(0,), keepdims=True),
                sf.reshape(sf.relu(sf.neg(x)), (2, 3)),
                sf.broadcast_to(sf.reduce_sum(x, axes=(1,)), (2, 3)),
                sf.greater(total, sf.log(sf.exp(x))),
                sf.div(sf.sub(x, 1.0), sf.add(x, 2.0)),
                sf.reduce_sum(n),  # int32, 0-d
                sf.ops.dispatch("step_positive", [x])[0],
                sf.ops.dispatch("identity", [n])[0],
            ]

        x = sf.constant(np.linspace(-1.5, 2.0, 6, dtype=np.float32).reshape(3, 2))
        n = sf.constant(np.array([[1, -2], [3, 4]], dtype=np.int32))
        w = sf.constant(np.random.default_rng(0).standard_normal((300, 2)).astype(np.float32))
        eager = f(x, n, w)
        staged = sf.stage(f)(x, n, w)
        for e, s in zip(eager, staged):
            _assert_edge_tensor(s, e.dtype)
            assert s.shape == e.shape
            assert s.raw().tobytes() == e.raw().tobytes()

    def test_int32_sum_wraps_around_as_eager(self):
        def f(x):
            return sf.greater(sf.reduce_sum(x),
                              sf.reduce_sum(sf.reshape(x, (3, 1)), axes=(1,)))

        x = sf.constant(np.array([2**30] * 3, dtype=np.int32))
        eager = f(x).numpy().tolist()
        assert sf.stage(f)(x).numpy().tolist() == eager == [False, False, False]

    def test_input_output_is_the_same_object(self):
        b = GraphBuilder()
        x = b.add_placeholder("x", sf.float32, (2,))
        (y,) = b.add_node("identity", [x], {}, None, [(sf.float32, (2,))])
        gf = b.finalize("passthrough", [x, y, y], ["x", "y", "y_again"])
        xv = sf.constant([1.0, 2.0])
        out = sf.execute(gf, [xv])
        assert out[0] is xv
        assert out[1] is not xv and out[1] is out[2]
        assert out[1].raw().tobytes() == xv.raw().tobytes()

    def test_variable_for_a_tensor_placeholder_is_rejected(self):
        # numpy would run a compute on a Variable object, through its Python
        # operators; only variable-reference placeholders take variables.
        b = GraphBuilder()
        x = b.add_placeholder("x", sf.float32, (2,))
        (y,) = b.add_node("neg", [x], {}, None, [(sf.float32, (2,))])
        gf = b.finalize("negate", [y], ["y"])
        with pytest.raises(InputMismatch, match="expects a tensor, got Variable"):
            sf.execute(gf, [sf.Variable([1.0, 2.0])])

    def test_array_steps_are_the_attr_free_elementwise_ops(self):
        # Their compute is their array function itself, in the registry too.
        assert {op: KERNELS[op] for op in _ARRAY_OPS} == {
            "add": np.add, "sub": np.subtract, "mul": np.multiply, "div": _div_np,
            "greater": np.greater, "neg": np.negative, "exp": _exp_np,
            "log": _log_np, "softplus": _softplus_np, "relu": _relu_np,
            "step_positive": _step_positive_np,
        }
        assert all(sf.ops.get_op_def(op).compute is KERNELS[op] for op in _ARRAY_OPS)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_step_positive_bytes_match_a_cast_bool_gate(self, dtype):
        edges = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 1e-30, -1e-30, 2.0],
                         dtype=dtype)
        for x in (edges, edges.reshape(3, 3), np.array(np.inf, dtype), np.array(-0.0, dtype)):
            got = np.asarray(_step_positive_np(x))
            want = np.asarray(np.greater(x, 0).astype(x.dtype))
            assert got.dtype == want.dtype and got.shape == want.shape == x.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("op", sorted(_ARRAY_OPS))
    def test_direct_array_steps_bit_equal_to_eager_replay(self, op):
        arity, dtypes = _ARRAY_OPS[op]
        rng = np.random.default_rng(sorted(_ARRAY_OPS).index(op))
        for dtype in dtypes:
            for shapes in _OPERAND_SHAPES[arity]:
                arrays = [_elementwise_operand(rng, shape, dtype) for shape in shapes]
                b = GraphBuilder()
                refs = [b.add_placeholder(f"x{i}", dtype, arr.shape)
                        for i, arr in enumerate(arrays)]
                out_shape = np.broadcast_shapes(*[arr.shape for arr in arrays])
                out_dtype = sf.boolean if op == "greater" else dtype
                (y,) = b.add_node(op, refs, {}, None, [(out_dtype, out_shape)])
                gf = b.finalize(op, [y], ["y"])
                (step,) = _plan_for(gf).steps
                assert step[1] is KERNELS[op]  # no compute wrapper
                inputs = [sf.constant(arr) for arr in arrays]
                with np.errstate(all="ignore"):
                    (got,) = sf.execute(gf, inputs)
                    (want,) = _eager_replay(gf, inputs)
                _assert_edge_tensor(got, out_dtype)
                assert got.shape == want.shape == out_shape
                assert got.raw().tobytes() == want.raw().tobytes(), (dtype, shapes)

    @pytest.mark.parametrize("op", sorted(op for op, (n, _) in _ARRAY_OPS.items() if n == 2))
    def test_failing_direct_step_raises_kernel_error(self, op):
        b = GraphBuilder()
        x = b.add_placeholder("x", sf.float32, (None,))
        y = b.add_placeholder("y", sf.float32, (None,))
        (n,) = b.add_node("neg", [x], {}, None, [(sf.float32, (None,))])
        out_dtype = sf.boolean if op == "greater" else sf.float32
        (z,) = b.add_node(op, [n, y], {}, None, [(out_dtype, (None,))])
        gf = b.finalize("misfit", [z], ["z"])
        with pytest.raises(KernelError, match=rf"^node 1 \({op}\): ") as info:
            sf.execute(gf, [sf.constant(np.ones(4, np.float32)),
                            sf.constant(np.ones(3, np.float32))])
        assert isinstance(info.value.__cause__, ValueError)  # numpy's

    def test_folding_runs_the_computes(self):
        b = GraphBuilder()
        big = sf.constant(np.array([2**30] * 3, dtype=np.int32))
        (c,) = b.add_node("constant", [], {"value": big}, None, [(sf.int32, (3,))])
        (s,) = b.add_node("reduce_sum", [c], {}, None, [(sf.int32, ())])
        gf = b.finalize("folded", [s], ["s"])
        (node,) = optimize(gf).nodes
        value = node.attrs["value"]
        _assert_edge_tensor(value, sf.int32)
        assert value.raw().tobytes() == sf.reduce_sum(big).raw().tobytes()


def _with_duplicates(gf, rng):
    """``gf`` with a second copy of about half its nodes (and of its last
    node) spliced in after the first. Later nodes read either copy of a
    value, and every copy of an output value is an output. A constant's copy
    holds an equal but distinct tensor."""
    n_in = len(gf.inputs)
    copies = {}  # ref in gf -> its refs in the new graph
    nodes = []

    def pick(ref):
        options = copies.get(ref, [ref])  # placeholders keep their ids
        return options[int(rng.integers(len(options)))]

    for j, node in enumerate(gf.nodes):
        n_copies = 2 if rng.random() < 0.5 or j == len(gf.nodes) - 1 else 1
        for _ in range(n_copies):
            attrs = node.attrs
            if node.op == "constant":
                attrs = {"value": sf.constant(node.attrs["value"].numpy().copy())}
            vid = n_in + len(nodes)
            nodes.append(Node(node.op, tuple(pick(r) for r in node.inputs), attrs,
                              node.device, node.out_specs))
            for k in range(len(node.out_specs)):
                copies.setdefault((n_in + j, k), []).append((vid, k))
    outputs = [(f"{name}_{i}", ref)
               for name, out in gf.outputs
               for i, ref in enumerate(copies.get(out, [out]))]
    return GraphFunction(gf.name + "_dup", gf.inputs, nodes, outputs)


def _steps(gf):
    return len(_plan_for(gf).steps)


class TestValueNumbering:
    """A plan runs each distinct pure computation once; the graph keeps
    every node."""

    def test_duplicated_random_graphs_bit_equal_to_eager_replay(self):
        rng = np.random.default_rng(11)
        for seed in range(40):
            gf, inputs, _ = random_graph(seed, max_nodes=25)
            dup = _with_duplicates(gf, rng)
            got = sf.execute(dup, inputs)
            want = _eager_replay(dup, inputs)
            assert len(got) == len(want) == len(dup.outputs) > len(gf.outputs)
            for g, w in zip(got, want):
                _assert_edge_tensor(g, sf.float64)
                assert g.raw().tobytes() == w.raw().tobytes(), seed
            computes = [n for n in dup.nodes if n.op != "constant"]
            assert _steps(dup) <= _steps(gf) < len(computes), seed

    def test_random_normal_nodes_never_merge(self):
        b = GraphBuilder()
        attrs = {"shape": (4,), "dtype": sf.float64}
        (r1,) = b.add_node("random_normal", [], attrs, None, [(sf.float64, (4,))])
        (r2,) = b.add_node("random_normal", [], attrs, None, [(sf.float64, (4,))])
        (n1,) = b.add_node("neg", [r1], {}, None, [(sf.float64, (4,))])
        (n2,) = b.add_node("neg", [r2], {}, None, [(sf.float64, (4,))])
        gf = b.finalize("two_draws", [n1, n2], ["a", "b"])
        a, c = sf.execute(gf, [])
        assert a.numpy().tobytes() != c.numpy().tobytes()
        assert _steps(gf) == 4

    def test_reads_around_an_assign_never_merge(self):
        b = GraphBuilder()
        v = b.add_placeholder("v", sf.float32, (2,), is_variable_ref=True)
        (r1,) = b.add_node("read_variable", [v], {}, None, [(sf.float32, (2,))])
        (n1,) = b.add_node("neg", [r1], {}, None, [(sf.float32, (2,))])
        b.add_node("assign_variable", [v, n1], {}, None, [])
        (r2,) = b.add_node("read_variable", [v], {}, None, [(sf.float32, (2,))])
        (n2,) = b.add_node("neg", [r2], {}, None, [(sf.float32, (2,))])
        gf = b.finalize("read_assign_read", [n1, n2], ["before", "after"])
        before, after = sf.execute(gf, [], [sf.Variable([1.0, 2.0])])
        assert before.numpy().tolist() == [-1.0, -2.0]
        assert after.numpy().tolist() == [1.0, 2.0]
        assert _steps(gf) == 5

    def test_signed_zeros_stay_apart(self):
        b = GraphBuilder()
        refs = []
        for value in (0.0, -0.0, 0.0, -0.0):
            (c,) = b.add_node("constant", [], {"value": sf.constant(value)}, None,
                              [(sf.float32, ())])
            (n,) = b.add_node("neg", [c], {}, None, [(sf.float32, ())])
            refs += [c, n]
        gf = b.finalize("zeros", refs, [f"o{i}" for i in range(len(refs))])
        got = [float(t) for t in sf.execute(gf, [])]
        assert [str(v) for v in got] == ["0.0", "-0.0", "-0.0", "0.0"] * 2
        assert _steps(gf) == 2

    def test_failing_duplicate_names_the_first_occurrence(self):
        b = GraphBuilder()
        x = b.add_placeholder("x", sf.float32, (None,))
        y = b.add_placeholder("y", sf.float32, (None,))
        spec = [(sf.float32, (None,))]
        (n0,) = b.add_node("neg", [x], {}, None, spec)
        (m0,) = b.add_node("mul", [n0, y], {}, None, spec)
        (n1,) = b.add_node("neg", [x], {}, None, spec)
        (m1,) = b.add_node("mul", [n1, y], {}, None, spec)
        gf = b.finalize("misfit", [m0, m1], ["a", "b"])
        assert _steps(gf) == 2
        with pytest.raises(KernelError, match=r"^node 1 \(mul\): "):
            sf.execute(gf, [sf.constant(np.ones(4, np.float32)),
                            sf.constant(np.ones(3, np.float32))])

    def test_a_node_pinned_elsewhere_is_not_merged(self, accel_runtime):
        b = GraphBuilder()
        x = b.add_placeholder("x", sf.float32, ())
        accel = DeviceName.parse("/job:local/task:0/device:ACCEL:0")
        (m0,) = b.add_node("mul", [x, x], {}, None, [(sf.float32, ())])
        (m1,) = b.add_node("mul", [x, x], {}, accel, [(sf.float32, ())])
        gf = b.finalize("two_devices", [m0, m1], ["cpu", "accel"])
        cpu, acc = sf.execute(gf, [sf.constant(3.0)])
        assert float(cpu) == float(acc) == 9.0
        assert cpu.device != acc.device and acc.device == accel
        assert _steps(gf) == 2

    def test_list_shape_is_canonical_shares_one_step_and_serializes(self):
        # The node check canonicalizes a list shape to a tuple, which a
        # value number holds and the wire encodes.
        b = GraphBuilder()
        x = b.add_placeholder("x", sf.float32, (6,))
        refs = [b.add_node("reshape", [x], {"shape": [3, 2]}, None,
                           [(sf.float32, (3, 2))])[0] for _ in range(2)]
        gf = b.finalize("list_shape", refs, ["a", "b"])
        assert [n.attrs for n in gf.nodes] == [{"shape": (3, 2)}] * 2
        a, c = sf.execute(gf, [sf.constant(np.arange(6, dtype=np.float32))])
        assert a.shape == c.shape == (3, 2) and a is c  # one slot, one tensor
        assert _steps(gf) == 1
        assert gf.structurally_equal(deserialize(serialize(gf)))

    def test_staged_leapfrog_runs_at_most_75_steps(self):
        rng = np.random.default_rng(0)
        q0 = sf.constant(rng.standard_normal((32, 2)).astype(np.float32))
        p0 = sf.constant(rng.standard_normal((32, 2)).astype(np.float32))
        eager = leapfrog(10)
        staged = sf.stage(eager)
        for e, s in zip(eager(q0, p0), staged(q0, p0)):
            assert e.numpy().tobytes() == s.numpy().tobytes()
        (cf,) = staged.cached_functions()
        assert len(cf.graph.nodes) == 170  # the graph keeps every node
        assert _steps(cf.graph) <= 75

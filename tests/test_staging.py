import sys
import threading

import numpy as np
import pytest

import stageflow as sf
from stageflow.errors import (
    KernelError,
    MissingConcreteFunction,
    NotDifferentiable,
    SignatureMismatch,
    StagingError,
    UnencodableArgument,
    VariableCreationError,
)
from stageflow.serial import serialize
from stageflow.staging import infer_trace_key


class TestBasics:
    def test_staged_call_matches_eager(self):
        def select(vector):
            a = sf.constant([[1.0, 0.0]])
            return sf.matmul(a, vector)

        x = sf.constant([[2.0], [-2.0]])
        staged = sf.stage(select)
        np.testing.assert_array_equal(staged(x).numpy(), select(x).numpy())
        np.testing.assert_array_equal(staged(x).numpy(), [[2.0]])

    def test_empty_cache_before_first_call(self):
        pf = sf.stage(lambda x: x)
        assert pf.cache_size == 0
        with pytest.raises(MissingConcreteFunction):
            pf.get_concrete(sf.TraceKey(("anything",)))

    def test_non_tensor_return_rejected(self):
        pf = sf.stage(lambda x: "nope")
        with pytest.raises(StagingError):
            pf(sf.constant(1.0))


class TestTraceCache:
    def test_same_shape_hits_new_shape_misses(self):
        pf = sf.stage(lambda x: sf.reduce_sum(x))
        a = sf.constant(np.zeros((3, 5), dtype=np.float32))
        b = sf.constant(np.ones((3, 5), dtype=np.float32))
        c = sf.constant(np.ones((4, 5), dtype=np.float32))
        pf(a)
        assert pf.cache_size == 1 and pf.trace_count == 1
        pf(b)  # same key: different payload, equal dtype/shape
        assert pf.cache_size == 1 and pf.trace_count == 1
        pf(c)
        assert pf.cache_size == 2 and pf.trace_count == 2

    def test_value_keying_of_plain_arguments(self):
        key_t = infer_trace_key([sf.constant(1.0), True])
        key_f = infer_trace_key([sf.constant(1.0), False])
        assert key_t != key_f

    def test_payload_independent_keys(self):
        a = sf.constant([1.0, 2.0])
        b = sf.constant([9.0, -9.0])
        assert infer_trace_key([a]) == infer_trace_key([b])

    def test_tensor_variable_and_tuple_keys_differ(self):
        t = sf.constant(np.zeros(2, np.float32))
        v = sf.Variable(t)
        keys = [
            infer_trace_key(args) for args in (
                [t], [v], [(t.dtype.value, t.shape)], [("tensor", "float32", (2,))],
                [[t]], [(t,)], [t, t],
            )
        ]
        assert len(set(keys)) == len(keys)
        assert infer_trace_key([t]) == infer_trace_key([sf.constant([1.0, 2.0])])

    def test_device_scope_in_key(self, accel_runtime):
        x = sf.constant(1.0)
        plain = infer_trace_key([x])
        with sf.device_scope("/job:local/task:0/device:ACCEL:0"):
            scoped = infer_trace_key([x])
        assert plain != scoped

    def test_unencodable_argument(self):
        with pytest.raises(UnencodableArgument):
            infer_trace_key([object()])

    def test_dropout_boolean_specialization(self):
        def lossy_matmul(w, x, training=True):
            outputs = sf.matmul(w, x)
            if training:
                outputs = sf.dropout(outputs, 0.2)
            return outputs

        pf = sf.stage(lossy_matmul)
        w = sf.random_normal((3, 5))
        x = sf.random_normal((5, 1))
        pf(w, x, training=True)
        pf(w, x, training=False)
        assert pf.cache_size == 2
        ops_by_variant = [
            "dropout" in cf.graph.op_counts() for cf in pf.cached_functions()
        ]
        assert sorted(ops_by_variant) == [False, True]

    def test_host_rng_freezes_into_graph(self):
        def add_noise():
            base = sf.eye(5)
            noise = sf.constant(
                np.random.default_rng().standard_normal((5, 5)).astype(np.float32)
            )
            return sf.add(base, noise)

        staged = sf.stage(add_noise)
        first = staged().numpy()
        for _ in range(3):
            np.testing.assert_array_equal(staged().numpy(), first)
        # while the eager function keeps changing
        assert not np.array_equal(add_noise().numpy(), add_noise().numpy())

    def test_concurrent_same_key_traces_once(self):
        pf = sf.stage(lambda x: sf.mul(x, x))
        x = sf.constant(2.0)
        errors = []

        def call():
            try:
                assert float(pf(x)) == 4.0
            except Exception as e:  # pragma: no cover
                errors.append(e)

        threads = [threading.Thread(target=call) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert pf.cache_size == 1 and pf.trace_count == 1


def _positional(a, b, /, c, scale=2.0):
    return sf.mul(sf.add(a, b), c)


class TestBindFastPath:
    """A call with one positional argument per plain parameter binds from
    the cached names; every other call binds through ``inspect``."""

    def test_same_entries_and_keys_as_inspect(self):
        fast = sf.stage(_positional)
        slow = sf.stage(_positional)
        slow._plain_names = None  # force the inspect path
        x, y = sf.constant([1.0, 2.0]), sf.constant(np.ones((2, 2)))
        for args in [(x, x, x, 3.0), (x, y, True, None), (y, 1, "s", x)]:
            assert fast._bind(args, {}) == slow._bind(args, {})
            assert fast.trace_key_for(*args) == slow.trace_key_for(*args)
        # Fewer arguments (a default applies) or a keyword take inspect.
        assert fast._bind((x, x, x), {}) == slow._bind((x, x, x), {})
        assert fast._bind((x, x), {"c": x}) == slow._bind((x, x), {"c": x})

    @pytest.mark.parametrize(
        "args, kwargs, message",
        [
            ((1,), {}, "missing a required argument: 'b'"),
            ((1, 2, 3), {}, "too many positional arguments"),
            ((1,), {"c": 1}, "missing a required argument: 'b'"),
            ((1, 2), {"a": 1}, "multiple values for argument 'a'"),
        ],
    )
    def test_wrong_arity_raises_staging_error(self, args, kwargs, message):
        pf = sf.stage(lambda a, b: sf.add(a, b))
        with pytest.raises(StagingError, match=f"^staged_lambda: {message}$"):
            pf(*args, **kwargs)


class TestPinnedSignature:
    def test_wildcard_batch_single_function(self):
        pf = sf.stage(
            lambda x: sf.reduce_sum(x, axes=(1,)),
            signature=[(sf.float32, (None, 5))],
        )
        a = pf(sf.constant(np.ones((2, 5), dtype=np.float32)))
        b = pf(sf.constant(np.ones((7, 5), dtype=np.float32)))
        assert a.shape == (2,) and b.shape == (7,)
        assert pf.cache_size == 1 and pf.trace_count == 1

    def test_signature_violation(self):
        pf = sf.stage(lambda x: x, signature=[(sf.float32, (None, 5))])
        with pytest.raises(SignatureMismatch):
            pf(sf.constant(np.ones((2, 4), dtype=np.float32)))
        with pytest.raises(SignatureMismatch):
            pf(sf.constant(np.ones((2, 5), dtype=np.float64)))
        with pytest.raises(SignatureMismatch):
            pf(3.0)


class TestCapture:
    def test_capture_deduplicated(self):
        outside = sf.constant([1.0, 2.0])

        @sf.stage
        def f(x):
            return sf.add(sf.add(x, outside), outside)

        x = sf.constant([0.5, 0.5])
        f(x)
        graph = f.get_concrete(f.trace_key_for(x)).graph
        # one arg placeholder + exactly one capture despite two uses
        assert len(graph.inputs) == 2

    def test_tensor_made_in_trace_is_embedded_as_constant(self):
        @sf.stage
        def f(x):
            c = sf.constant([2.0, 3.0])
            with sf.escape_trace():
                d = sf.add(sf.constant(1.0), sf.constant(1.0))
            return sf.mul(sf.mul(x, c), d)

        x = sf.constant([1.0, 1.0])
        np.testing.assert_array_equal(f(x).numpy(), [4.0, 6.0])
        graph = f.get_concrete(f.trace_key_for(x)).graph
        assert len(graph.inputs) == 1
        assert graph.op_counts()["constant"] == 2

    def test_closed_over_tensor_is_captured(self):
        outside = sf.constant([2.0, 3.0])

        @sf.stage
        def f(x):
            return sf.mul(x, outside)

        x = sf.constant([1.0, 1.0])
        np.testing.assert_array_equal(f(x).numpy(), [2.0, 3.0])
        graph = f.get_concrete(f.trace_key_for(x)).graph
        assert [ph.name for ph in graph.inputs] == ["x", "capture_0"]
        assert "constant" not in graph.op_counts()

    def test_tensor_made_on_another_thread_during_trace_is_captured(self):
        made = {}

        def make():
            made["t"] = sf.constant([2.0, 3.0])

        @sf.stage
        def f(x):
            worker = threading.Thread(target=make)
            worker.start()
            worker.join(timeout=10)
            assert not worker.is_alive()
            return sf.mul(x, made["t"])

        x = sf.constant([1.0, 1.0])
        np.testing.assert_array_equal(f(x).numpy(), [2.0, 3.0])
        graph = f.get_concrete(f.trace_key_for(x)).graph
        assert [ph.name for ph in graph.inputs] == ["x", "capture_0"]
        assert "constant" not in graph.op_counts()

    def test_failed_trace_closes_its_count(self):
        from stageflow import tensor

        @sf.stage
        def bad(x):
            raise ValueError("boom")

        with pytest.raises(StagingError):
            bad(sf.constant(1.0))
        assert tensor._open_traces == 0
        assert sf.constant(1.0)._born_trace is None

    def test_concurrent_traces_classify_and_close(self):
        from stageflow import tensor

        n, rounds = 8, 20
        errors = []

        def work(k):
            try:
                for r in range(rounds):
                    f = sf.stage(lambda x: sf.mul(x, sf.constant(float(k + r))))
                    x = sf.constant(2.0)
                    assert float(f(x)) == 2.0 * (k + r)
                    graph = f.get_concrete(f.trace_key_for(x)).graph
                    assert len(graph.inputs) == 1
            except Exception as e:  # reported below; a thread cannot raise
                errors.append(e)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work, args=(k,)) for k in range(n)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert errors == []
        assert tensor._open_traces == 0

    def test_variable_captured_by_reference(self):
        v = sf.Variable([1.0, 1.0])

        @sf.stage
        def read():
            return v.read_value()

        np.testing.assert_array_equal(read().numpy(), [1.0, 1.0])
        v.assign([5.0, 6.0])
        np.testing.assert_array_equal(read().numpy(), [5.0, 6.0])

    def test_mutate_listing(self):
        v = sf.Variable(0.0)

        @sf.stage
        def mutate():
            v.assign_add(1.0)
            return v.read_value()

        mutate()
        assert float(v.read_value()) == 1.0
        v.assign_add(1.0)
        assert float(v.read_value()) == 2.0
        mutate()
        assert float(v.read_value()) == 3.0

    def test_dead_variable(self):
        v = sf.Variable(1.0)

        @sf.stage
        def read():
            return v.read_value()

        read()
        del v
        import gc

        gc.collect()
        with pytest.raises(sf.errors.DeadVariable):
            read()


class TestStateContract:
    def test_lazy_creation_double_traces(self):
        state = {"v": None}

        def f(x):
            if state["v"] is None:
                state["v"] = sf.Variable(10.0)
            return sf.add(x, state["v"].read_value())

        pf = sf.stage(f)
        assert float(pf(sf.constant(1.0))) == 11.0
        assert pf.trace_count == 2  # create-trace, then the recorded trace
        assert float(pf(sf.constant(2.0))) == 12.0
        assert pf.trace_count == 2
        assert len(list(pf.variables_created)) == 1

    def test_creating_every_call_fails(self):
        def f(x):
            v = sf.Variable(1.0)
            return sf.add(x, v.read_value())

        pf = sf.stage(f)
        with pytest.raises(VariableCreationError):
            pf(sf.constant(1.0))

    def test_creation_on_later_trace_fails(self):
        state = {"v": None}

        def f(x):
            if state["v"] is None or x.shape != (2,):
                state["v"] = sf.Variable(np.zeros(x.shape, dtype=np.float32))
            return sf.add(x, state["v"].read_value())

        pf = sf.stage(f)
        pf(sf.constant(np.zeros(2, dtype=np.float32)))
        with pytest.raises(VariableCreationError):
            pf(sf.constant(np.zeros(3, dtype=np.float32)))

    def test_no_creation_single_trace(self):
        pf = sf.stage(lambda x: sf.neg(x))
        pf(sf.constant(1.0))
        assert pf.trace_count == 1


class TestComposition:
    def test_nested_call_node(self):
        inner = sf.stage(lambda a: sf.relu(a), name="inner_relu")

        @sf.stage
        def outer(a, b):
            return inner(sf.matmul(a, b))

        e = sf.eye(3)
        d = sf.constant(np.diag([-1.0, 1.0, 2.0]).astype(np.float32))
        result = outer(e, d)
        np.testing.assert_array_equal(
            result.numpy(), np.diag([0.0, 1.0, 2.0]).astype(np.float32)
        )
        graph = outer.get_concrete(outer.trace_key_for(e, d)).graph
        call_nodes = [n for n in graph.nodes if n.op == "call_function"]
        assert len(call_nodes) == 1
        callee = call_nodes[0].attrs["function"]
        assert callee in graph.library
        assert "relu" in graph.library[callee].op_counts()

    def test_host_loops_unroll(self):
        n = 11

        @sf.stage
        def f(x):
            for _ in range(n):
                x = sf.add(x, x)
            return x

        x = sf.constant(1.0)
        f(x)
        graph = f.get_concrete(f.trace_key_for(x)).graph
        assert graph.op_counts()["add"] == n

    def test_retrace_serializes_identically(self):
        def f(x):
            inner = sf.stage(lambda a: sf.softplus(a), name="sp")
            return sf.add(inner(x), sf.constant(1.0))

        x = sf.constant([1.0, 2.0])
        pf1, pf2 = sf.stage(f), sf.stage(f)
        pf1(x)
        pf2(x)
        g1 = pf1.get_concrete(pf1.trace_key_for(x)).graph
        g2 = pf2.get_concrete(pf2.trace_key_for(x)).graph
        assert serialize(g1) == serialize(g2)


class TestControlFlow:
    def test_cond_eager_and_staged(self):
        def run(x):
            return sf.cond(
                sf.greater(x, 0.0),
                lambda v: sf.mul(v, 2.0),
                lambda v: sf.neg(v),
                [x],
            )

        assert float(run(sf.constant(3.0))) == 6.0
        assert float(run(sf.constant(-3.0))) == 3.0
        staged = sf.stage(run)
        assert float(staged(sf.constant(3.0))) == 6.0
        assert float(staged(sf.constant(-3.0))) == 3.0

    def test_while_loop_eager_and_staged(self):
        def sum_to(n):
            i, acc = n, sf.constant(0, dtype=sf.int32)
            i, acc = sf.while_loop(
                lambda i, acc: sf.greater(i, 0),
                lambda i, acc: (sf.sub(i, 1), sf.add(acc, i)),
                [i, acc],
            )
            return acc

        n = sf.constant(6, dtype=sf.int32)
        assert int(sum_to(n).item()) == 21
        staged = sf.stage(sum_to)
        assert int(staged(n).item()) == 21
        graph = staged.get_concrete(staged.trace_key_for(n)).graph
        assert "while_loop" in graph.op_counts()


def _square_if_positive(v):
    return sf.cond(sf.greater(v, 0.0), lambda a: a * a, lambda a: a, [v])


def _double_below_ten(v):
    return sf.while_loop(lambda a: sf.greater(10.0, a), lambda a: a * 2.0, [v])


def _python_if(v):
    return v * v if float(v) > 0.0 else v


def _python_while(v):
    while float(v) < 10.0:
        v = v * 2.0
    return v


def _eager_gradient(f, x):
    with sf.Tape() as t:
        t.watch(x)
        y = f(x)
    return t.gradient(y, x)


class TestHostControlFlow:
    """Outside a trace ``cond`` and ``while_loop`` are Python control flow
    over eager ops; inside one they are graph nodes without a gradient."""

    def test_eager_cond_sees_a_rebound_capture(self):
        c = sf.constant(1.0)

        def f(v):
            return v * c + v

        x, p = sf.constant(2.0), sf.constant(True)
        assert float(sf.cond(p, f, f, [x])) == 4.0
        c = sf.constant(2.0)
        assert float(f(x)) == 6.0
        assert float(sf.cond(p, f, f, [x])) == 6.0

    @pytest.mark.parametrize("f, python, x0, want", [
        (_square_if_positive, _python_if, 3.0, 6.0),
        (_square_if_positive, _python_if, -3.0, 1.0),
        (_double_below_ten, _python_while, 3.0, 4.0),
    ])
    def test_eager_gradient_equals_python_control_flow(self, f, python, x0, want):
        x = sf.constant(x0)
        got = _eager_gradient(f, x).numpy()
        assert got.tobytes() == _eager_gradient(python, x).numpy().tobytes()
        assert float(got) == want

    @pytest.mark.parametrize("f", [_square_if_positive, _double_below_ten])
    def test_staged_gradient_of_a_taped_call_raises(self, f):
        staged = sf.stage(f)
        x = sf.constant(3.0)
        assert float(staged(x)) == float(f(x))
        with pytest.raises(NotDifferentiable, match=r"node \d+ \((cond|while_loop)\)"):
            _eager_gradient(staged, x)

    @pytest.mark.parametrize("f", [_square_if_positive, _double_below_ten])
    def test_staged_gradient_inside_the_function_raises(self, f):
        with pytest.raises(NotDifferentiable, match="no gradient rule"):
            sf.stage(lambda v: _eager_gradient(f, v))(sf.constant(3.0))

    def test_taped_staged_call_with_a_boolean_output(self):
        # greater has no gradient rule and no float output: no gradient
        # reaches it, so the loss next to it differentiates.
        inner = sf.stage(lambda v: (sf.reduce_sum(v * v), sf.greater(v, 0.0)))
        outer = sf.stage(lambda v: inner(v)[0])
        x = sf.constant([1.0, -2.0])
        assert _eager_gradient(lambda v: inner(v)[0], x).numpy().tolist() == [2.0, -4.0]
        assert _eager_gradient(outer, x).numpy().tolist() == [2.0, -4.0]

    @pytest.mark.parametrize("f", [_square_if_positive, _double_below_ten])
    def test_staged_loss_next_to_a_control_flow_output(self, f):
        staged = sf.stage(lambda v: (v * 3.0, f(v)))
        x = sf.constant(3.0)
        with sf.Tape(persistent=True) as t:
            t.watch(x)
            loss, metric = staged(x)
        assert float(t.gradient(loss, x)) == 3.0
        with pytest.raises(NotDifferentiable, match=r"node \d+ \((cond|while_loop)\)"):
            t.gradient(metric, x)

    @pytest.mark.parametrize("f", [_square_if_positive, _double_below_ten])
    def test_nested_staged_loss_next_to_a_control_flow_output(self, f):
        inner = sf.stage(lambda v: (v * 3.0, f(v)))
        # A control-flow result fed to a callee whose other output is the loss.
        mixer = sf.stage(lambda u, v: (v * 3.0, u * 2.0))
        for outer in (
            sf.stage(lambda v: inner(v)[0]),
            sf.stage(lambda v: mixer(f(v), v)[0]),
        ):
            x = sf.constant(3.0)
            assert float(_eager_gradient(outer, x)) == 3.0
        with pytest.raises(NotDifferentiable, match=r"\((cond|while_loop)\)"):
            _eager_gradient(sf.stage(lambda v: inner(v)[1]), x)
        with pytest.raises(NotDifferentiable, match=r"\((cond|while_loop)\)"):
            _eager_gradient(sf.stage(lambda v: mixer(f(v), v)[1]), x)

    @pytest.mark.parametrize("f", [_square_if_positive, _double_below_ten])
    def test_staged_control_flow_off_the_sources_is_fine(self, f):
        # As eagerly: a cond or loop that no watched input reaches is a
        # constant to the tape, in the function and in a callee.
        x, c = sf.constant(3.0), sf.constant(2.0)
        staged = sf.stage(lambda v, u: f(u) * v)
        assert float(_eager_gradient(lambda v: staged(v, c), x)) == float(f(c))
        inner = sf.stage(lambda u, v: f(u) * v)
        outer = sf.stage(lambda v: inner(sf.constant(2.0), v))
        assert float(_eager_gradient(outer, x)) == float(f(c))

    def test_eager_cond_runs_only_its_branch_ops(self):
        x = sf.constant(3.0)
        stats = sf.get_runtime().stats
        stats.reset()
        _square_if_positive(x)
        assert stats.snapshot()["eager_op_counts"] == {"greater": 1, "mul": 1}
        assert stats.snapshot()["traces"] == 0

    @pytest.mark.parametrize("mode", [lambda f: f, sf.stage])
    def test_branch_returning_a_non_tensor_raises(self, mode):
        def f(v):
            return sf.cond(sf.greater(v, 0.0), lambda a: 1.0, lambda a: 2.0, [v])

        with pytest.raises(StagingError, match="returned a float"):
            mode(f)(sf.constant(3.0))

    @pytest.mark.parametrize("mode", [lambda f: f, sf.stage])
    def test_loop_body_must_keep_arity_and_dtypes(self, mode):
        def f(v):
            return sf.while_loop(lambda a: sf.greater(a, 0.0), lambda a: (a, a), [v])

        with pytest.raises(StagingError, match="one value per loop variable"):
            mode(f)(sf.constant(3.0))

    @pytest.mark.parametrize("mode", [lambda f: f, sf.stage])
    def test_loop_body_must_keep_the_known_dims(self, mode):
        # The body turns a float32[3] loop variable into a float32[].
        def f(v):
            return sf.while_loop(lambda a: sf.greater(100.0, sf.reduce_sum(a)),
                                 lambda a: sf.reduce_sum(a) * 2.0, [v])

        with pytest.raises(StagingError, match="with matching specs"):
            mode(f)(sf.constant(np.ones(3, np.float32)))

    @pytest.mark.parametrize("mode", [lambda f: f, sf.stage])
    def test_loop_condition_must_return_one_value(self, mode):
        def f(v):
            return sf.while_loop(lambda a: (a > 0.0, a > 1.0), lambda a: a - 1.0, [v])

        with pytest.raises(KernelError, match="must return one value, got 2"):
            mode(f)(sf.constant(3.0))

    def test_traced_branches_are_traced_afresh(self):
        c = sf.constant(1.0)

        def f(v):
            return v * c + v

        def run(v):
            return sf.cond(sf.greater(v, 0.0), f, f, [v])

        x = sf.constant(2.0)
        assert float(sf.stage(run)(x)) == 4.0
        c = sf.constant(2.0)
        assert float(sf.stage(run)(x)) == 6.0

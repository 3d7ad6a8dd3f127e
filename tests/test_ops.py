import warnings

import numpy as np
import pytest

import stageflow as sf
from stageflow import ops as sfops
from stageflow.errors import (
    ArityMismatch,
    AttrMismatch,
    DuplicateOp,
    InvalidOpDef,
    KernelError,
    NarrowingOverflow,
    UnknownOp,
)
from stageflow.kernels import KERNELS, INFERENCE, _wrap
from stageflow.executor import _plan_for
from stageflow.ops import OpDef, get_op_def, register_op

from helpers import random_pure_function


REQUIRED_OPS = [
    "constant", "identity", "add", "sub", "mul", "div", "neg", "exp", "log",
    "matmul", "relu", "softplus", "reduce_sum", "reduce_mean", "reshape",
    "eye", "random_normal", "dropout", "read_variable", "assign_variable",
    "assign_add_variable", "call_function", "host_call", "cond", "while_loop",
]


class TestRegistry:
    def test_builtin_table_complete(self):
        names = {d.name for d in sf.kernel_table()}
        for op in REQUIRED_OPS:
            assert op in names, op

    def test_statefulness_flags(self):
        for name in ("random_normal", "dropout", "read_variable",
                     "assign_variable", "assign_add_variable", "host_call"):
            assert get_op_def(name).stateful, name
        for name in ("add", "matmul", "constant", "reduce_sum"):
            assert not get_op_def(name).stateful, name

    def test_every_differentiable_op_has_gradient(self):
        for d in sf.kernel_table():
            assert d.differentiable == (d.gradient is not None)

    def test_register_custom_op(self):
        def kernel(attrs, inputs, env):
            return [_wrap(np.negative(inputs[0].raw()), env.device)]

        register_op(OpDef(
            name="custom_negate", input_arity=1, attr_schema={},
            output_arity=1, stateful=False, kernel=kernel,
            infer=INFERENCE["neg"],
        ))
        out = sfops.dispatch("custom_negate", [sf.constant(2.0)])
        assert float(out[0]) == -2.0

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateOp):
            register_op(OpDef(
                name="add", input_arity=2, attr_schema={}, output_arity=1,
                stateful=False, compute=KERNELS["add"], infer=INFERENCE["add"],
            ))

    def test_unknown_op(self):
        with pytest.raises(UnknownOp):
            sfops.dispatch("no_such_op", [])


def _custom_op(name, **entry):
    """Register ``name``, a one-input float op with ``neg``'s rule."""
    register_op(OpDef(
        name=name, input_arity=1, attr_schema={}, output_arity=1,
        stateful=False, infer=INFERENCE["neg"], **entry,
    ))
    return lambda x: sfops.dispatch(name, [x])[0]


def _counting(fn, calls):
    """``fn`` recording the types of the arguments of each call."""
    def counted(*args, **kwargs):
        calls.append([type(a) for a in args])
        return fn(*args, **kwargs)

    return counted


class TestOneExecutionEntry:
    """Each op has one entry in ``kernels.KERNELS``, as its ``compute`` or its
    ``kernel``; eager dispatch, plans and constant folding all call it."""

    @pytest.mark.parametrize("entry", [
        {},
        {"compute": np.negative, "kernel": KERNELS["constant"]},
    ], ids=["neither", "both"])
    def test_register_op_requires_exactly_one_entry(self, entry):
        with pytest.raises(InvalidOpDef, match="exactly one of compute and kernel"):
            _custom_op("bad_entry", **entry)
        with pytest.raises(UnknownOp):
            get_op_def("bad_entry")

    def test_register_op_rejects_a_compute_with_two_outputs(self):
        with pytest.raises(InvalidOpDef, match="output arity 2"):
            register_op(OpDef(
                name="split", input_arity=1, attr_schema={}, output_arity=2,
                stateful=False, infer=INFERENCE["dropout"], compute=np.negative,
            ))

    def test_an_attr_of_unknown_kind_is_rejected_at_definition(self):
        with pytest.raises(InvalidOpDef, match="attr of unknown kind 'blob'"):
            OpDef(name="blobby", input_arity=1, attr_schema={"b": ("blob", False)},
                  output_arity=1, stateful=False, infer=INFERENCE["neg"], compute=np.negative)

    def test_builtin_ops_have_one_entry(self):
        for d in sf.kernel_table():
            entry = d.kernel if d.compute is None else d.compute
            assert (d.compute is None) != (d.kernel is None), d.name
            assert entry is KERNELS[d.name], d.name

    @pytest.mark.parametrize("kind", ["compute", "kernel"])
    def test_custom_op_graph_round_trips(self, kind):
        if kind == "compute":
            negate = _custom_op("custom_negate", compute=np.negative)
        else:
            negate = _custom_op("custom_negate", kernel=lambda attrs, inputs, env: [
                _wrap(np.negative(inputs[0].raw()), env.device)])
        staged = sf.stage(lambda x: sf.add(negate(x), 1.0))
        x = sf.constant([1.5, -2.0])
        want = staged(x).numpy()
        gf = staged.cached_functions()[0].graph
        restored = sf.deserialize(sf.serialize(gf))
        assert restored.op_counts() == gf.op_counts()
        assert restored.output_specs == gf.output_specs
        (got,) = sf.execute(restored, [x])
        assert got.numpy().tobytes() == want.tobytes()

    def test_a_wrapped_entry_runs_in_every_mode(self, monkeypatch):
        # Replace an entry before the runtime starts, as a profiler would:
        # eager dispatch, a plan step and constant folding each call it.
        calls = []
        counted = _counting(KERNELS["mul"], calls)
        monkeypatch.setitem(KERNELS, "mul", counted)
        sf.init_runtime(sf.RuntimeOptions())
        x = sf.constant([1.5, -2.0])
        np.testing.assert_array_equal(sf.mul(x, x).numpy(), [2.25, 4.0])
        assert calls == [[np.ndarray, np.ndarray]]

        square = sf.stage(lambda t: sf.mul(t, t))
        square(x)
        square(x)
        assert len(calls) == 3
        steps = _plan_for(square.cached_functions()[0].graph).steps
        assert [step[1] for step in steps] == [counted]

        calls.clear()
        folded = sf.stage(lambda: sf.mul(sf.constant([2.0]), sf.constant([3.0])))
        np.testing.assert_array_equal(folded().numpy(), [6.0])
        assert calls == [[np.ndarray, np.ndarray]]
        assert "mul" not in folded.cached_functions()[0].graph.op_counts()

    def test_custom_compute_is_a_plan_step_and_folds(self):
        calls = []
        counted = _counting(np.negative, calls)
        negate = _custom_op("custom_negate", compute=counted)
        staged = sf.stage(negate)
        np.testing.assert_array_equal(staged(sf.constant([1.0, -2.0])).numpy(),
                                      [-1.0, 2.0])
        (step,) = _plan_for(staged.cached_functions()[0].graph).steps
        assert step[:2] == (1, counted)
        assert calls == [[np.ndarray]]

        calls.clear()
        folded = sf.stage(lambda: negate(sf.constant([4.0])))
        np.testing.assert_array_equal(folded().numpy(), [-4.0])
        assert calls == [[np.ndarray]]
        assert folded.cached_functions()[0].graph.op_counts() == {"constant": 1}

    def test_custom_compute_takes_any_number_of_inputs(self):
        register_op(OpDef(
            name="fma", input_arity=3, attr_schema={}, output_arity=1,
            stateful=False, infer=lambda attrs, specs, env=None: [specs[0]],
            compute=lambda a, b, c: a * b + c,
        ))
        fma = lambda x, y, z: sfops.dispatch("fma", [x, y, z])[0]
        args = [sf.constant([1.5, -2.0]), sf.constant([2.0, 3.0]), sf.constant([0.5, 1.0])]
        staged = sf.stage(fma)
        want = fma(*args).numpy()
        np.testing.assert_array_equal(want, [3.5, -5.0])
        assert staged(*args).numpy().tobytes() == want.tobytes()
        (step,) = _plan_for(staged.cached_functions()[0].graph).steps
        assert step[0] == 3


class TestEagerDispatch:
    def test_matmul_listing(self):
        a = sf.constant([[1.0, 0.0]])
        x = sf.constant([[2.0], [-2.0]])
        out = sfops.dispatch("matmul", [a, x])[0]
        np.testing.assert_array_equal(out.numpy(), [[2.0]])

    def test_add_listing(self):
        c = sf.add(sf.constant(1.0), sf.constant(2.0))
        assert float(c) == 3.0

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            sfops.dispatch("add", [sf.constant(1.0)])

    def test_attr_mismatch(self):
        with pytest.raises(AttrMismatch):
            sfops.dispatch("reshape", [sf.constant(1.0)], {"bogus": 1})
        with pytest.raises(AttrMismatch):
            sfops.dispatch("reshape", [sf.constant(1.0)], {})  # missing shape

    def test_mixed_dtypes_rejected(self):
        a = sf.constant(1.0)
        b = sf.tensor_from_host([2.0], (), sf.float64)
        with pytest.raises(KernelError):
            sfops.dispatch("add", [a, b])

    def test_no_bool_math(self):
        t = sf.constant([True, False])
        with pytest.raises(KernelError):
            sf.add(t, t)

    def test_deterministic_stateless_dispatch(self):
        a = sf.constant(np.linspace(-1, 1, 12).reshape(3, 4).astype(np.float32))
        r1 = sf.softplus(a).numpy()
        r2 = sf.softplus(a).numpy()
        assert r1.tobytes() == r2.tobytes()

    def test_dropout_mask_semantics(self):
        x = sf.constant(np.ones((100,), dtype=np.float32))
        out, mask = sfops.dispatch("dropout", [x], {"rate": 0.5})
        m = mask.numpy()
        assert set(np.unique(m)).issubset({0.0, 2.0})
        np.testing.assert_array_equal(out.numpy(), m)  # x was all ones

    def test_operators_on_tensors(self):
        x = sf.constant([1.0, 2.0])
        np.testing.assert_allclose(((x + 1.0) * 2.0 - x / x).numpy(), [3.0, 5.0])


class TestGraphModeDispatch:
    def test_single_op_eager_equals_staged(self):
        ops_with_args = [
            ("add", 2, None), ("sub", 2, None), ("mul", 2, None),
            ("div", 2, None), ("neg", 1, None), ("exp", 1, None),
            ("softplus", 1, None), ("relu", 1, None), ("identity", 1, None),
            ("reduce_sum", 1, {"axes": None, "keepdims": False}),
        ]
        rng = np.random.default_rng(7)
        for op, arity, attrs in ops_with_args:
            args = [
                sf.constant(rng.uniform(0.5, 1.5, size=(2, 3)).astype(np.float32))
                for _ in range(arity)
            ]
            eager = sfops.dispatch(op, args, attrs)[0].numpy()

            pf = sf.stage(lambda *xs: sfops.dispatch(op, list(xs), attrs)[0])
            staged = pf(*args).numpy()
            assert eager.tobytes() == staged.tobytes(), op

    def test_graph_building_never_runs_stateful_kernels(self):
        v = sf.Variable(0.0)

        @sf.stage
        def writes():
            v.assign_add(1.0)
            return v.read_value()

        key = writes.trace_key_for()
        writes._concrete_for([])  # force the trace without executing
        assert float(v.read_value()) == 0.0  # tracing must not mutate
        writes()
        assert float(v.read_value()) == 1.0

    def test_trace_records_node(self):
        @sf.stage
        def f(a, b):
            return sf.matmul(a, b)

        a = sf.constant(np.eye(2, dtype=np.float32))
        f(a, a)
        graph = f.get_concrete(f.trace_key_for(a, a)).graph
        assert [n.op for n in graph.nodes] == ["matmul"]


class TestRandomizedEquivalence:
    def test_eager_equals_staged_on_random_programs(self):
        for seed in range(12):
            fn, inputs = random_pure_function(seed)
            eager = fn(*inputs)
            staged = sf.stage(fn)(*inputs)
            assert eager.dtype is staged.dtype
            assert eager.shape == staged.shape
            assert eager.raw().tobytes() == staged.raw().tobytes(), seed


class TestScalarCoercion:
    """A plain value next to a tensor takes its dtype, and must fit it."""

    def test_float_scalar_is_bit_identical_zero_d(self):
        for dtype, np_dtype in ((sf.float32, np.float32), (sf.float64, np.float64)):
            x = sf.constant(np.array([0.3, -1.7], dtype=np_dtype))
            np.testing.assert_array_equal(
                (x * 0.1).numpy(), x.numpy() * np_dtype(0.1)
            )
            c = sfops._as_operand(0.1, like=x)
            assert c.dtype is dtype and c.shape == ()
            assert c.raw().item() == np_dtype(0.1)
            assert not c.raw().flags.writeable

    @pytest.mark.parametrize("make", [
        lambda t: t * 0.5,
        lambda t: 0.5 * t,
        lambda t: t + 0.7,
        lambda t: sf.mul(t, 0.5),
        lambda t: sf.add(0.7, t),
    ])
    def test_non_integral_value_for_int32_raises(self, make):
        with pytest.raises(NarrowingOverflow):
            make(sf.constant([1, 2, 3]))

    def test_out_of_range_value_for_int32_raises(self):
        t = sf.constant([1, 2, 3])
        for value in (2**40, -(2**31) - 1, 2**70):
            with pytest.raises(NarrowingOverflow):
                t + value

    def test_integral_values_still_coerce(self):
        t = sf.constant([1, 2, 3])
        np.testing.assert_array_equal((t * 2.0).numpy(), [2, 4, 6])
        np.testing.assert_array_equal((t + (2**31 - 4)).numpy(),
                                      [2**31 - 3, 2**31 - 2, 2**31 - 1])

    def test_variable_assign_checks_the_original_values(self):
        v = sf.Variable(sf.constant([1, 2]))
        with pytest.raises(NarrowingOverflow):
            v.assign([0.5, 1.5])
        with pytest.raises(NarrowingOverflow):
            v.assign_add([2**40, 0])
        np.testing.assert_array_equal(v.numpy(), [1, 2])
        v.assign([3.0, 4.0])
        np.testing.assert_array_equal(v.numpy(), [3, 4])

    @pytest.mark.parametrize("staged", [False, True], ids=["eager", "staged"])
    @pytest.mark.parametrize("make", [
        lambda x, v: x * None,
        lambda x, v: x + "1",
        lambda x, v: x + 1j,
        lambda x, v: sf.add(x, [None, 1.0]),
        lambda x, v: sf.mul(np.array(["a", "b"]), x),
        lambda x, v: v.assign([None, 1.0]),
        lambda x, v: v.assign_add(1j),
        lambda x, v: x + sf.constant(None),
        lambda x, v: x + sf.constant("a"),
        lambda x, v: x + sf.constant(1j, sf.float32),
        lambda x, v: x + sf.tensor_from_host([None, 1.0], (2,), sf.float32),
    ], ids=[
        "mul-none", "add-string", "add-complex", "add-list-with-none",
        "mul-string-array", "assign-list-with-none", "assign_add-complex",
        "constant-none", "constant-string", "constant-complex-as-float32",
        "tensor_from_host-none",
    ])
    def test_non_numeric_host_value_raises(self, make, staged):
        x = sf.constant([1.0, 2.0])
        v = sf.Variable([5.0, 6.0])
        fn = sf.stage(make) if staged else make
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no ComplexWarning on the way
            with pytest.raises(NarrowingOverflow):
                fn(x, v)
        np.testing.assert_array_equal(v.numpy(), [5.0, 6.0])

    def test_bool_host_values_still_coerce(self):
        x = sf.constant([1.0, 2.0])
        np.testing.assert_array_equal((x + True).numpy(), [2.0, 3.0])
        np.testing.assert_array_equal(sf.add(x, [True, False]).numpy(), [2.0, 2.0])


class TestReduceMean:
    @pytest.mark.parametrize("shape, axes, out", [
        ((0, 3), (0,), [np.nan] * 3),
        ((3, 0), (1,), [np.nan] * 3),
        ((0, 3), (1,), []),
        ((0, 3), None, np.nan),
    ])
    def test_empty_axis_is_nan_without_warnings(self, shape, axes, out):
        x = sf.constant(np.zeros(shape, np.float32))
        staged = sf.stage(lambda t: sf.reduce_mean(t, axes=axes))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = [sf.reduce_mean(x, axes=axes), staged(x)]
        for r in results:
            assert r.dtype is sf.float32
            np.testing.assert_array_equal(r.numpy(), np.float32(out))

    def test_non_empty_matches_numpy_bit_exactly(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((5, 7, 3)).astype(np.float32)
        x = sf.constant(a)
        for axes in (None, (0,), (1,), (2,), (0, 2)):
            for keepdims in (False, True):
                got = sf.reduce_mean(x, axes=axes, keepdims=keepdims).numpy()
                want = np.mean(a, axis=axes, keepdims=keepdims)
                assert got.tobytes() == np.asarray(want, np.float32).tobytes()

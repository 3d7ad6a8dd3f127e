"""Warm calls do no work that is the same on every call: no stageflow frame
runs an import statement, and call metadata is computed once per graph and
handed out as copies."""
import builtins
import gc
import sys

import numpy as np
import pytest

import stageflow as sf
from stageflow import executor
from stageflow.dtypes import matches_spec
from stageflow.errors import DeadVariable, StageflowError
from stageflow.ops import get_op_def
from stageflow.tape import REPLAY_AFTER

from helpers import build_mlp, leapfrog

ACCEL0 = "/job:local/task:0/device:ACCEL:0"


def _stageflow_imports(fn):
    """The modules imported by import statements in stageflow frames while
    ``fn`` runs."""
    seen = []
    real_import = builtins.__import__

    def counting_import(name, *args, **kwargs):
        if sys._getframe(1).f_globals.get("__name__", "").startswith("stageflow"):
            seen.append(name)
        return real_import(name, *args, **kwargs)

    builtins.__import__ = counting_import
    try:
        fn()
    finally:
        builtins.__import__ = real_import
    return seen


def _eager_mul():
    x = sf.constant(np.ones((3, 2), np.float32))
    return lambda: sf.mul(x, x)


def _eager_variable_ops():
    v = sf.Variable(np.ones((3, 2), np.float32))
    one = sf.constant(np.ones((3, 2), np.float32))

    def run():
        v.read_value()
        v.assign_add(one)

    return run


def _eager_leapfrog():
    rng = np.random.default_rng(4)
    q, p = (sf.constant(rng.standard_normal((32, 2)).astype(np.float32))
            for _ in range(2))
    trajectory = leapfrog(3)  # unstaged: each force is a nested eager tape
    # Past REPLAY_AFTER force calls (6 a run), so the counted run's forces
    # replay their cached backward plan.
    for _ in range(REPLAY_AFTER // 6 + 1):
        trajectory(q, p)
    assert sf.get_runtime().stats.snapshot()["tape_replays"] > 0
    return lambda: trajectory(q, p)


def _staged_leapfrog():
    rng = np.random.default_rng(5)
    q, p = (sf.constant(rng.standard_normal((32, 2)).astype(np.float32))
            for _ in range(2))
    trajectory = sf.stage(leapfrog(10))
    return lambda: trajectory(q, p)


def _taped_staged_mlp():
    rng = np.random.default_rng(6)
    params, forward = build_mlp(rng)
    loss = sf.stage(lambda x: sf.reduce_sum(forward(x)))
    x = sf.constant(rng.standard_normal((8, 16)).astype(np.float32))

    def run():
        with sf.Tape() as tape:
            y = loss(x)
        tape.gradient(y, list(params.values()))

    return run


def _eager_cond():
    x = sf.constant(np.ones((3, 2), np.float32))
    p = sf.constant(True)
    return lambda: sf.cond(p, lambda v: v * 2.0, lambda v: -v, [x])


def _eager_while_loop():
    x = sf.constant(3.0)
    return lambda: sf.while_loop(lambda v: sf.greater(v, 0.0), lambda v: v - 1.0, [x])


@pytest.mark.parametrize("make", [
    _eager_mul, _eager_variable_ops, _eager_leapfrog, _staged_leapfrog,
    _taped_staged_mlp, _eager_cond, _eager_while_loop,
])
def test_warm_hot_path_runs_no_import(make):
    run = make()
    run()  # the first call traces, derives and plans
    assert _stageflow_imports(run) == []


def _new_taped_mlp():
    rng = np.random.default_rng(7)
    params, forward = build_mlp(rng)
    x = sf.constant(rng.standard_normal((8, 16)).astype(np.float32))

    def run():
        loss = sf.stage(lambda a: sf.reduce_sum(forward(a)))
        with sf.Tape() as tape:
            y = loss(x)
        tape.gradient(y, list(params.values()))

    return run


def _new_taped_leapfrog():
    rng = np.random.default_rng(8)
    q, p = (sf.constant(rng.standard_normal((32, 2)).astype(np.float32))
            for _ in range(2))

    def run():
        trajectory = sf.stage(leapfrog(3))
        with sf.Tape() as tape:
            tape.watch(q)
            q1, p1 = trajectory(q, p)
            total = sf.add(sf.reduce_sum(q1), sf.reduce_sum(p1))
        tape.gradient(total, q)

    return run


@pytest.mark.parametrize("make", [_new_taped_mlp, _new_taped_leapfrog])
def test_new_graph_path_runs_no_import(make):
    # Each call stages a new function: trace, optimize, derive and plan all
    # run inside the counted call.
    run = make()
    run()
    assert _stageflow_imports(run) == []


def _warm_copy_to():
    x = sf.constant(np.ones((3, 2), np.float32))
    return lambda: sf.copy_to(x, ACCEL0)


def _device_scope():
    def run():
        with sf.device_scope(ACCEL0):
            pass
        sf.list_devices()

    return run


def _warm_host_call():
    cb = sf.register_callback(lambda a: a, [(sf.float32, (2,))])
    x = sf.constant(np.ones(2, np.float32))
    return lambda: sf.host_call(cb, [x])


def _warm_host_call_gradient():
    # The staged backward runs the callback's VJP under a tape.
    cb = sf.register_callback(lambda a: sf.mul(a, a), [(sf.float32, (2,))])
    f = sf.stage(lambda a: sf.reduce_sum(sf.host_call(cb, [a])[0]))
    x = sf.constant(np.array([1.0, 2.0], np.float32))

    def run():
        with sf.Tape() as tape:
            tape.watch(x)
            y = f(x)
        assert tape.gradient(y, x).numpy().tolist() == [2.0, 4.0]

    return run


@pytest.mark.parametrize("make", [
    _warm_copy_to, _device_scope, _warm_host_call, _warm_host_call_gradient,
])
@pytest.mark.usefixtures("accel_runtime")
def test_device_helpers_and_host_call_run_no_import(make):
    run = make()
    run()
    assert _stageflow_imports(run) == []


def test_import_counter_sees_a_stageflow_import():
    # The guard itself: a function-local import in a stageflow module counts.
    namespace = {"__name__": "stageflow.probe"}
    exec("def probe():\n    from stageflow import errors\n", namespace)
    assert _stageflow_imports(namespace["probe"]) == ["stageflow"]


class TestCachedCallMetadata:
    def _graph(self):
        f = sf.stage(lambda x: (x * 2.0, sf.reduce_sum(x)))
        x = sf.constant(np.ones((2, 3), np.float32))
        f(x)
        (cf,) = f.cached_functions()
        return f, x, cf.graph

    def test_mutating_output_specs_does_not_change_the_graph(self):
        f, x, gf = self._graph()
        want = [(sf.float32, (2, 3)), (sf.float32, ())]
        specs = gf.output_specs
        assert specs == want
        specs[0] = (sf.int32, (7,))
        specs.append((sf.float64, ()))
        assert gf.output_specs == want
        first, total = f(x)
        assert first.shape == (2, 3) and total.shape == ()

    def test_mutating_call_function_infer_does_not_change_the_graph(self):
        f, x, gf = self._graph()
        want = [(sf.float32, (2, 3)), (sf.float32, ())]
        in_specs = [(sf.float32, (2, 3))]
        infer = get_op_def("call_function").infer
        inferred = infer({"function": gf}, in_specs)
        assert inferred == want
        inferred.clear()
        assert infer({"function": gf}, in_specs) == want
        assert gf.output_specs == want
        first, total = f(x)
        assert first.shape == (2, 3) and total.shape == ()

    def test_trace_key_equality_hash_and_repr(self):
        a, b = sf.TraceKey(("a",)), sf.TraceKey(("a",))
        assert a is not b
        assert a == b and hash(a) == hash(b)
        assert {a: 1}[b] == 1
        assert a != sf.TraceKey(("b",)) and a != ("a",)
        assert repr(a) == "TraceKey('a',)"
        assert a.encoding == ("a",)

    def test_int32_outputs_skip_the_taped_path(self):
        f = sf.stage(lambda n: sf.reduce_sum(n))
        n = sf.constant(np.array([1, 2, 3], np.int32))
        with sf.Tape() as tape:
            tape.watch(n)
            total = f(n)
        assert total.numpy().tolist() == 6
        (cf,) = f.cached_functions()
        assert cf.differentiable is False
        assert cf.graph._fwd_bwd is None  # no forward variant was derived
        assert tape.entries == []

    def test_float_outputs_take_the_taped_path(self):
        f = sf.stage(lambda x: sf.reduce_sum(x * x))
        x = sf.constant([1.0, 2.0])
        with sf.Tape() as tape:
            tape.watch(x)
            y = f(x)
        (cf,) = f.cached_functions()
        assert cf.differentiable is True
        assert [e.op for e in tape.entries] == ["call_function"]
        assert tape.gradient(y, x).numpy().tolist() == [2.0, 4.0]


class TestStagedCallContract:
    """Outside a trace a staged call dispatches no op: it places its inputs
    as an op would, runs its graph through ``execute_graph``, whose binding
    is its one input check, and counts as one ``staged_calls``."""

    def _counting_binds(self, monkeypatch):
        binds = []
        bind = executor._bind_inputs

        def counting(gf, values):
            binds.append(gf.name)
            return bind(gf, values)

        monkeypatch.setattr(executor, "_bind_inputs", counting)
        return binds

    def _delta(self, run):
        stats = sf.get_runtime().stats
        before = stats.snapshot()
        run()
        after = stats.snapshot()
        return {k: after[k] - before[k] for k in ("eager_dispatches", "staged_calls")}

    def test_a_warm_call_binds_once_and_dispatches_nothing(self, monkeypatch):
        f = sf.stage(lambda a, b: sf.add(a, b))
        q, p = sf.constant(np.ones((32, 2), np.float32)), sf.constant(np.ones((32, 2), np.float32))
        f(q, p)
        binds = self._counting_binds(monkeypatch)
        assert self._delta(lambda: f(q, p)) == {"eager_dispatches": 0, "staged_calls": 1}
        assert len(binds) == 1
        assert "call_function" not in sf.get_runtime().stats.snapshot()["eager_op_counts"]

    def test_a_taped_call_and_its_gradient_bind_twice(self, monkeypatch):
        f = sf.stage(lambda a: sf.reduce_sum(sf.mul(a, a)))
        x = sf.constant(np.array([1.0, 2.0], np.float32))

        def taped():
            with sf.Tape() as tape:
                tape.watch(x)
                y = f(x)
            return tape.gradient(y, x)

        taped()
        binds = self._counting_binds(monkeypatch)
        assert self._delta(taped) == {"eager_dispatches": 0, "staged_calls": 2}
        assert len(binds) == 2  # the forward variant, then the staged backward
        assert taped().numpy().tolist() == [2.0, 4.0]

    def test_a_call_in_a_trace_records_a_call_function_node(self):
        inner = sf.stage(lambda a: sf.mul(a, a))
        outer = sf.stage(lambda a: inner(a) + 1.0)
        x = sf.constant(np.array([3.0], np.float32))
        assert self._delta(lambda: outer(x)) == {"eager_dispatches": 0, "staged_calls": 1}
        (cf,) = outer.cached_functions()
        assert "call_function" in [n.op for n in cf.graph.nodes]

    def test_a_wrong_shaped_cotangent_reaching_a_staged_backward_raises(self):
        f = sf.stage(lambda a: sf.mul(a, 2.0))
        x = sf.constant(np.ones(3, np.float32))
        with sf.Tape() as tape:
            tape.watch(x)
            y = f(x)
        with pytest.raises(StageflowError):
            tape.vjp([y], [sf.constant(np.ones(4, np.float32))], [x])

    def test_a_dead_captured_variable_raises(self):
        v = sf.Variable(np.ones(2, np.float32))
        holder = [v]
        f = sf.stage(lambda a: sf.add(a, holder[0].read_value()))
        x = sf.constant(np.ones(2, np.float32))
        assert f(x).numpy().tolist() == [2.0, 2.0]
        del v, holder[:]
        gc.collect()
        with pytest.raises(DeadVariable):
            f(x)

    @pytest.mark.usefixtures("accel_runtime")
    def test_a_call_under_a_device_scope_places_its_inputs(self):
        f = sf.stage(lambda a, b: sf.add(a, b))
        x, y = sf.constant(np.ones(2, np.float32)), sf.constant(np.ones(2, np.float32))
        stats = sf.get_runtime().stats
        with sf.device_scope(ACCEL0):
            f(x, y)
            before = stats.snapshot()
            out = f(x, y)
            after = stats.snapshot()
        assert out.device.render() == ACCEL0
        assert after["transparent_copies"] - before["transparent_copies"] == 2
        assert after["staged_calls"] - before["staged_calls"] == 1


@pytest.mark.parametrize("dtype, shape, spec_dtype, spec_shape, fits", [
    (sf.float32, (2, 3), sf.float32, (2, 3), True),
    (sf.float32, (2, 3), sf.float32, (None, 3), True),
    (sf.float32, (), sf.float32, (), True),
    (sf.float32, (2, 3), sf.float32, [2, 3], True),
    (sf.float32, (2, 3), sf.float32, (2, 4), False),
    (sf.float32, (2, 3), sf.float32, (2, 3, 1), False),
    (sf.float32, (2, 3), sf.float32, (None,), False),
    (sf.float32, (2, 3), sf.float64, (2, 3), False),
])
def test_matches_spec(dtype, shape, spec_dtype, spec_shape, fits):
    assert matches_spec(dtype, shape, spec_dtype, spec_shape) is fits

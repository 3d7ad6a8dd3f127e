import numpy as np
import pytest

import stageflow as sf
from stageflow import gradients as gradients_module
from stageflow import tape as tape_module
from stageflow.backprop import backward_for, get_forward_backward
from stageflow.executor import _plan_for
from stageflow.kernels import INFERENCE, KERNELS
from stageflow.ops import OpDef, register_op
from stageflow.runtime import current_context
from stageflow.errors import (
    ConsumedTape,
    InactiveTape,
    NonNestedEnd,
    NotDifferentiable,
    NonScalarTarget,
    UnwatchedSource,
)

from helpers import (
    FD_OPS,
    build_mlp,
    central_diff,
    fd_loss_fn,
    leapfrog,
    max_rel_err,
    random_pure_function,
    sample_fd_case,
    tape_grads,
)


class TestLifecycle:
    def test_strict_nesting_ok(self):
        t1, t2 = sf.Tape(), sf.Tape()
        t1.begin()
        t2.begin()
        t2.end()
        t1.end()

    def test_non_nested_end(self):
        t1, t2 = sf.Tape(), sf.Tape()
        t1.begin()
        t2.begin()
        with pytest.raises(NonNestedEnd):
            t1.end()
        t2.end()
        t1.end()

    def test_no_tape_records_nothing(self):
        x = sf.constant(2.0)
        y = sf.mul(x, x)
        assert float(y) == 4.0  # nothing raised, nothing recorded anywhere

    def test_watch_after_end(self):
        t = sf.Tape()
        t.begin()
        t.end()
        with pytest.raises(InactiveTape):
            t.watch(sf.constant(1.0))

    def test_entries_queryable_after_end(self):
        x = sf.constant(3.0)
        with sf.Tape() as t:
            t.watch(x)
            sf.mul(x, x)
        assert [e.op for e in t.entries] == ["mul"]


class TestGradient:
    def test_listing_square(self):
        x = sf.constant(3.0)
        with sf.Tape() as t:
            t.watch(x)
            y = x * x
        assert float(t.gradient(y, x)) == 6.0

    def test_nested_second_derivative(self):
        x = sf.constant(3.0)
        with sf.Tape() as t1:
            with sf.Tape() as t2:
                t1.watch(x)
                t2.watch(x)
                y = x * x
            dy_dx = t2.gradient(y, x)
        assert float(dy_dx) == 6.0
        assert float(t1.gradient(dy_dx, x)) == 2.0

    def test_variable_auto_watch(self):
        x = sf.Variable(3.0)
        with sf.Tape() as t1:
            with sf.Tape() as t2:
                y = x * x
            dy_dx = t2.gradient(y, x)
        assert float(dy_dx) == 6.0
        assert float(t1.gradient(dy_dx, x)) == 2.0

    def test_unconnected_returns_zeros(self):
        x = sf.constant([1.0, 2.0])
        z = sf.constant(5.0)
        with sf.Tape() as t:
            t.watch(x)
            t.watch(z)
            y = sf.reduce_sum(x)
        g = t.gradient(y, z)
        assert g.shape == () and float(g) == 0.0

    @pytest.mark.parametrize("staged", [False, True], ids=["eager", "staged"])
    def test_target_computed_after_the_block_is_unconnected(self, staged):
        times_three = lambda v: v * 3.0  # noqa: E731
        if staged:
            times_three = sf.stage(times_three)
        x = sf.constant(2.0)
        with sf.Tape() as t:
            t.watch(x)
        y = times_three(x)  # the tape has stopped: nothing is recorded
        assert float(y) == 6.0 and t.entries == []
        g = t.gradient(y, x)
        assert g.shape == () and g.dtype is sf.float32 and float(g) == 0.0

    def test_non_scalar_target(self):
        x = sf.constant([1.0, 2.0])
        with sf.Tape() as t:
            t.watch(x)
            y = sf.mul(x, x)
        with pytest.raises(NonScalarTarget):
            t.gradient(y, x)

    def test_unwatched_source(self):
        x = sf.constant(1.0)
        with sf.Tape() as t:
            y = sf.mul(x, x)
        with pytest.raises(UnwatchedSource):
            t.gradient(y, x)

    def test_integer_source_rejected(self):
        x = sf.constant(3, dtype=sf.int32)
        with sf.Tape() as t:
            t.watch(x)
            y = sf.mul(sf.constant(1.0), sf.constant(1.0))
        with pytest.raises(UnwatchedSource):
            t.gradient(y, x)

    def test_consumed_tape(self):
        x = sf.constant(2.0)
        with sf.Tape() as t:
            t.watch(x)
            y = x * x
        t.gradient(y, x)
        with pytest.raises(ConsumedTape):
            t.gradient(y, x)

    def test_persistent_tape_reusable(self):
        x = sf.constant(2.0)
        with sf.Tape(persistent=True) as t:
            t.watch(x)
            y = x * x
            z = y * x
        assert float(t.gradient(y, x)) == 4.0
        assert float(t.gradient(z, x)) == 12.0

    def test_relu_gradient_zero_at_kink(self):
        x = sf.constant(0.0)
        with sf.Tape() as t:
            t.watch(x)
            y = sf.relu(x)
        assert float(t.gradient(y, x)) == 0.0

    def test_gradient_linearity_over_independent_subgraphs(self):
        rng = np.random.default_rng(3)
        a = sf.constant(rng.uniform(0.5, 1.5, 4).astype(np.float64))
        b = sf.constant(rng.uniform(0.5, 1.5, 4).astype(np.float64))
        with sf.Tape(persistent=True) as t:
            t.watch(a)
            t.watch(b)
            ya = sf.reduce_sum(sf.exp(a))
            yb = sf.reduce_sum(sf.mul(b, b))
            y = sf.add(ya, yb)
        ga_joint, gb_joint = (g.numpy() for g in t.gradient(y, [a, b]))
        ga = t.gradient(ya, a).numpy()
        gb = t.gradient(yb, b).numpy()
        np.testing.assert_array_equal(ga_joint, ga)
        np.testing.assert_array_equal(gb_joint, gb)

    def test_dropout_gradient_uses_mask(self):
        x = sf.constant(np.full(64, 2.0, dtype=np.float32))
        with sf.Tape() as t:
            t.watch(x)
            out, mask = sf.dispatch("dropout", [x], {"rate": 0.5})
            y = sf.reduce_sum(out)
        g = t.gradient(y, x)
        np.testing.assert_array_equal(g.numpy(), mask.numpy())


class TestFiniteDifferences:
    @pytest.mark.parametrize("op_name", sorted(FD_OPS))
    def test_float64_gradients(self, op_name):
        spec = FD_OPS[op_name]
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(5):
            arrays, weights = sample_fd_case(op_name, spec, rng, sf.float64)
            grads = tape_grads(op_name, spec, arrays, weights)
            loss = fd_loss_fn(op_name, spec, weights)
            for i in range(len(arrays)):
                fd = central_diff(loss, arrays, i, h=1e-3)
                worst = max(worst, max_rel_err(grads[i], fd, floor=1e-6))
        assert worst < 1e-6, f"{op_name}: {worst}"

    @pytest.mark.parametrize("op_name", ["mul", "matmul", "softplus", "relu"])
    def test_float32_gradients(self, op_name):
        spec = FD_OPS[op_name]
        rng = np.random.default_rng(5)
        for _ in range(5):
            arrays, weights = sample_fd_case(op_name, spec, rng, sf.float32)
            grads = tape_grads(op_name, spec, arrays, weights)
            loss = fd_loss_fn(op_name, spec, weights)
            for i in range(len(arrays)):
                fd = central_diff(loss, arrays, i, h=1e-3)
                assert max_rel_err(grads[i], fd, floor=1e-3) < 1e-3


class TestPolynomialExactness:
    @pytest.mark.parametrize("x0", [-2.0, -1.0, 0.0, 1.0, 2.0])
    def test_cubic_second_derivative_exact(self, x0):
        # p(x) = 2x^3 - 3x^2 + 4x - 1 in float64 at integer points.
        x = sf.tensor_from_host([x0], (), sf.float64)

        def p(v):
            c2 = sf.tensor_from_host([2.0], (), sf.float64)
            c3 = sf.tensor_from_host([3.0], (), sf.float64)
            c4 = sf.tensor_from_host([4.0], (), sf.float64)
            c1 = sf.tensor_from_host([1.0], (), sf.float64)
            return sf.sub(
                sf.add(
                    sf.sub(sf.mul(c2, sf.mul(v, sf.mul(v, v))),
                           sf.mul(c3, sf.mul(v, v))),
                    sf.mul(c4, v),
                ),
                c1,
            )

        with sf.Tape() as outer:
            outer.watch(x)
            with sf.Tape() as inner:
                inner.watch(x)
                y = p(x)
            dy = inner.gradient(y, x)
        d2y = outer.gradient(dy, x)
        assert float(dy) == 6.0 * x0**2 - 6.0 * x0 + 4.0
        assert float(d2y) == 12.0 * x0 - 6.0


class TestStagedGradients:
    def test_staged_square_matches_eager(self):
        pf = sf.stage(lambda v: sf.mul(v, v))
        x = sf.constant(3.0)
        with sf.Tape() as t:
            t.watch(x)
            y = pf(x)
        assert float(t.gradient(y, x)) == 6.0

    def test_untaped_staged_call_records_nothing(self):
        pf = sf.stage(lambda v: sf.mul(v, v))
        x = sf.constant(3.0)
        pf(x)  # warm
        with sf.Tape() as t:
            pf(x)  # watches nothing
        assert t.entries == []

    def test_staged_vs_unstaged_mlp_gradients(self):
        rng = np.random.default_rng(0)
        params, forward = build_mlp(rng)
        x = sf.constant(rng.standard_normal((4, 16)).astype(np.float32))

        def loss_fn(v):
            out = forward(v)
            return sf.reduce_mean(sf.mul(out, out))

        order = [params[k] for k in ("w1", "b1", "w2", "b2")]
        with sf.Tape() as t:
            loss = loss_fn(x)
        eager_grads = [g.numpy() for g in t.gradient(loss, order)]

        staged = sf.stage(loss_fn)
        with sf.Tape() as t2:
            loss_s = staged(x)
        staged_grads = [g.numpy() for g in t2.gradient(loss_s, order)]

        assert abs(float(loss) - float(loss_s)) < 1e-6
        for ge, gs in zip(eager_grads, staged_grads):
            np.testing.assert_allclose(gs, ge, rtol=1e-6, atol=1e-6)

    def test_staged_backward_is_staged(self):
        pf = sf.stage(lambda v: sf.reduce_sum(sf.mul(v, v)))
        x = sf.constant(np.ones(8, dtype=np.float32))
        with sf.Tape() as t:
            t.watch(x)
            y = pf(x)
        stats = sf.get_runtime().stats
        before = stats.snapshot()
        g = t.gradient(y, x)
        after = stats.snapshot()
        delta = {
            k: after["eager_op_counts"].get(k, 0) - before["eager_op_counts"].get(k, 0)
            for k in set(after["eager_op_counts"]) | set(before["eager_op_counts"])
        }
        delta = {k: v for k, v in delta.items() if v}
        assert delta == {}  # the backward is one staged call, not an eager op
        assert after["staged_calls"] - before["staged_calls"] == 1
        np.testing.assert_array_equal(g.numpy(), 2.0 * np.ones(8, dtype=np.float32))

    def test_derived_traces_counts_each_derivation_once(self):
        stats = sf.get_runtime().stats
        x = sf.constant(np.ones(4, dtype=np.float32))
        n = 3
        for k in range(n):
            pf = sf.stage(lambda v, k=k: sf.reduce_sum(sf.mul(v, float(k + 1))))
            with sf.Tape() as t:
                t.watch(x)
                y = pf(x)
            t.gradient(y, x)
        # a second taped call of a derived function derives nothing new
        with sf.Tape() as t:
            t.watch(x)
            pf(x)
        assert stats.snapshot()["derived_traces"] == n


def _identity(v):
    return v


def _twice(v):
    return v, v


def _self_and_square(v):
    return v, v * v


def _one_square_twice(v):
    y = v * v
    return y, y


def _two_equal_squares(v):
    return v * v, v * v  # one value after value numbering


class TestStagedAliasedOutputs:
    """A staged call whose outputs alias its inputs or each other gets the
    gradient eager gets, bit for bit."""

    @pytest.mark.parametrize(
        "fn, want",
        [
            (_identity, [1.0, 1.0]),
            (_twice, [4.0, 4.0]),
            (_self_and_square, [7.0, 13.0]),
            (_one_square_twice, [8.0, 16.0]),
            (_two_equal_squares, [8.0, 16.0]),
        ],
    )
    def test_matches_eager(self, fn, want):
        x = sf.constant([1.0, 2.0])

        def grad(f):
            with sf.Tape() as t:
                t.watch(x)
                out = f(x)
                if isinstance(out, tuple):
                    a, b = out
                    loss = sf.add(sf.reduce_sum(a), sf.mul(sf.reduce_sum(b), 3.0))
                else:
                    loss = sf.reduce_sum(out)
            return t.gradient(loss, x).numpy()

        eager, staged = grad(fn), grad(sf.stage(fn))
        assert eager.tolist() == want
        assert staged.tobytes() == eager.tobytes()


def _trajectory(n_steps, step):
    """Leapfrog steps with the force taken by a nested tape."""
    half = step / 2.0

    def force(q):
        with sf.Tape() as tape:
            tape.watch(q)
            u = sf.mul(sf.reduce_sum(sf.mul(q, q)), 0.5)
        return tape.gradient(u, q)

    def trajectory(q, p):
        for _ in range(n_steps):
            p = sf.sub(p, sf.mul(force(q), half))
            q = sf.add(q, sf.mul(p, step))
            p = sf.sub(p, sf.mul(force(q), half))
        return q, p

    return trajectory


def _mlp_loss_fn(rng):
    params, forward = build_mlp(rng)

    def loss_fn(x, y):
        err = sf.sub(forward(x), y)
        return sf.reduce_mean(sf.mul(err, err))

    return [params[k] for k in ("w1", "b1", "w2", "b2")], loss_fn


class TestBackwardTowardSources:
    """The eager backward pass computes only gradients that reach a source.

    The pinned values below are what the tape gave before it learned to
    skip unneeded gradients; they must not move by a bit.
    """

    def test_leapfrog_eager_matches_staged_bit_exactly(self):
        rng = np.random.default_rng(5)
        q0 = sf.constant(rng.standard_normal((8, 2)).astype(np.float32))
        p0 = sf.constant(rng.standard_normal((8, 2)).astype(np.float32))
        eager = _trajectory(4, 0.1)
        staged = sf.stage(eager)

        def grads(fn):
            with sf.Tape() as t:
                t.watch(q0)
                t.watch(p0)
                q, p = fn(q0, p0)
                loss = sf.reduce_sum(sf.add(sf.mul(q, q), p))
            return [q.numpy(), p.numpy()] + [g.numpy() for g in t.gradient(loss, [q0, p0])]

        for e, s in zip(grads(eager), grads(staged)):
            np.testing.assert_array_equal(e, s)

    def test_mlp_eager_matches_staged_bit_exactly(self):
        rng = np.random.default_rng(0)
        params, loss_fn = _mlp_loss_fn(rng)
        x = sf.constant(rng.standard_normal((8, 16)).astype(np.float32))
        y = sf.constant(rng.standard_normal((8, 1)).astype(np.float32))

        def grads(fn):
            with sf.Tape() as t:
                loss = fn(x, y)
            return [loss.numpy()] + [g.numpy() for g in t.gradient(loss, params)]

        for e, s in zip(grads(loss_fn), grads(sf.stage(loss_fn))):
            np.testing.assert_array_equal(e, s)

    def test_mlp_step_skips_input_gradients(self):
        # The x-side matmul of the first layer's gradient and the negation
        # for the target y have no source to reach. The matmul gradients
        # read transposed operands by attr and dispatch no transpose.
        rng = np.random.default_rng(1)
        params, loss_fn = _mlp_loss_fn(rng)
        x = sf.constant(rng.standard_normal((8, 16)).astype(np.float32))
        y = sf.constant(rng.standard_normal((8, 1)).astype(np.float32))
        stats = sf.get_runtime().stats
        stats.reset()
        with sf.Tape() as t:
            loss = loss_fn(x, y)
        t.gradient(loss, params)
        counts = stats.snapshot()["eager_op_counts"]
        assert counts["matmul"] == 5
        assert counts.get("transpose", 0) == 0
        assert "neg" not in counts

    def test_constant_operand_gets_no_gradient_op(self):
        x = sf.constant(np.array([1.0, 2.0], np.float32))
        with sf.Tape() as t:
            t.watch(x)
            y = sf.reduce_sum(sf.mul(x, 0.5))
        stats = sf.get_runtime().stats
        stats.reset()
        assert t.gradient(y, x).numpy().tolist() == [0.5, 0.5]
        # one mul for the gradient of x; none for the constant 0.5
        assert stats.snapshot()["eager_op_counts"].get("mul") == 1

    def test_second_order_values_unchanged(self):
        x = sf.constant(np.array([0.3, -1.7, 2.5], np.float32))
        c = sf.constant(np.array([1.1, 0.7, -0.4], np.float32))
        with sf.Tape() as t1:
            t1.watch(x)
            with sf.Tape() as t2:
                t2.watch(x)
                y = sf.reduce_sum(sf.mul(sf.mul(sf.mul(x, x), x), c))
            d1 = t2.gradient(y, x)
            s = sf.reduce_sum(sf.mul(d1, d1))
        d2 = t1.gradient(s, x)
        assert d1.numpy().tolist() == [0.2970000207424164, 6.069000720977783, -7.5]
        assert d2.numpy().tolist() == [1.1761201620101929, -86.66533660888672, 90.0]

    def test_persistent_tape_values_unchanged(self):
        a = sf.constant(np.array([[0.5, -1.25], [2.0, 0.75]], np.float32))
        b = sf.constant(np.array([[1.5], [-0.5]], np.float32))
        with sf.Tape(persistent=True) as t:
            t.watch(a)
            h = sf.matmul(a, b)
            z = sf.reduce_sum(sf.mul(sf.sub(h, 1.0), sf.div(h, 3.0)))
            w = sf.reduce_sum(sf.exp(sf.mul(a, 0.5)))
        gz = [[0.8750000596046448, -0.2916666865348816], [2.125, -0.7083333730697632]]
        gw = [[0.6420127749443054, 0.2676306962966919],
              [1.3591409921646118, 0.7274956703186035]]
        assert t.gradient(z, a).numpy().tolist() == gz
        assert t.gradient(w, a).numpy().tolist() == gw
        assert t.gradient(z, a).numpy().tolist() == gz  # reusable, same bits

    def test_host_call_vjp_values_unchanged(self):
        cb = sf.register_callback(lambda u, v: sf.mul(sf.mul(u, u), v),
                                  [(sf.float32, (3,))])
        f = sf.stage(lambda u, v: sf.reduce_sum(sf.host_call(cb, [u, v])[0]))
        u = sf.constant(np.array([0.1, 2.0, -3.0], np.float32))
        v = sf.constant(np.array([1.5, 0.25, -2.0], np.float32))
        with sf.Tape() as t:
            t.watch(u)
            t.watch(v)
            r = f(u, v)
        gu, gv = t.gradient(r, [u, v])
        assert float(r) == -16.985000610351562
        assert gu.numpy().tolist() == [0.30000001192092896, 1.0, 12.0]
        assert gv.numpy().tolist() == [0.010000000707805157, 4.0, 9.0]

    def test_source_watched_after_first_use(self):
        x = sf.constant(np.array([1.5, -2.0], np.float32))
        k = sf.constant(np.array([3.0, 0.5], np.float32))
        with sf.Tape() as t:
            t.watch(k)
            y1 = sf.mul(x, k)  # recorded (k is watched) before x is
            t.watch(x)
            total = sf.reduce_sum(sf.add(y1, sf.mul(x, x)))
        gx, gk = t.gradient(total, [x, k])
        assert gx.numpy().tolist() == [6.0, -3.5]
        assert gk.numpy().tolist() == [1.5, -2.0]

    def test_use_before_any_watch_is_not_recorded(self):
        x = sf.constant(np.array([1.5, -2.0], np.float32))
        with sf.Tape() as t:
            y1 = sf.mul(x, x)  # nothing watched yet: not on the tape
            t.watch(x)
            total = sf.reduce_sum(sf.add(y1, sf.mul(x, 2.0)))
        assert t.gradient(total, x).numpy().tolist() == [2.0, 2.0]


class TestStagedBackwardMask:
    """A staged call's backward computes only the gradients of the inputs
    that reach a source of the gradient call, from one derivation."""

    def test_source_watched_after_first_use(self):
        # The mask comes from the gradient call, not the forward call: x is
        # watched only after the first staged call has taken it.
        x = sf.constant(np.array([1.5, -2.0], np.float32))
        k = sf.constant(np.array([3.0, 0.5], np.float32))
        mul = sf.stage(lambda a, b: sf.mul(a, b))
        with sf.Tape() as t:
            t.watch(k)
            y1 = mul(x, k)
            t.watch(x)
            total = sf.reduce_sum(sf.add(y1, mul(x, x)))
        gx, gk = t.gradient(total, [x, k])
        assert gx.numpy().tolist() == [6.0, -3.5]
        assert gk.numpy().tolist() == [1.5, -2.0]

    def test_mask_changes_between_calls(self):
        a = sf.constant(np.array([0.3, -1.2, 2.0], np.float32))
        b = sf.constant(np.array([1.5, 0.25, -0.75], np.float32))

        def fn(u, v):
            return sf.reduce_sum(sf.mul(sf.mul(u, v), sf.exp(u)))

        staged = sf.stage(fn)

        def grads(f, sources):
            with sf.Tape() as t:
                t.watch(a)
                t.watch(b)
                r = f(a, b)
            return [r.numpy()] + [g.numpy() for g in t.gradient(r, sources)]

        stats = sf.get_runtime().stats
        stats.reset()
        for sources in ([a], [b], [a, b]):
            for e, s in zip(grads(fn, sources), grads(staged, sources)):
                assert e.tobytes() == s.tobytes()
        # one derivation serves every mask
        assert stats.snapshot()["derived_traces"] == 1
        graph = staged.cached_functions()[0].graph
        assert sorted(graph._bwd_by_mask) == [(False, True), (True, False)]
        assert backward_for(graph, (True, False)) is graph._bwd_by_mask[(True, False)]
        assert backward_for(graph, (True, True)) is get_forward_backward(graph)[1]

    def test_mlp_backward_skips_input_gradients(self):
        rng = np.random.default_rng(1)
        params, loss_fn = _mlp_loss_fn(rng)
        staged = sf.stage(loss_fn)
        x = sf.constant(rng.standard_normal((8, 16)).astype(np.float32))
        y = sf.constant(rng.standard_normal((8, 1)).astype(np.float32))
        with sf.Tape() as t:
            loss = staged(x, y)
        t.gradient(loss, params)
        graph = staged.cached_functions()[0].graph
        # x and y, then the captured w1, b1, w2, b2
        wanted = tuple(ph.is_variable_ref for ph in graph.inputs if ph.dtype.is_float)
        assert wanted == (False, False, True, True, True, True)
        assert list(graph._bwd_by_mask) == [wanted]
        full = get_forward_backward(graph)[1].graph.op_counts()
        masked = backward_for(graph, wanted).graph.op_counts()
        assert (full["matmul"], full.get("transpose", 0), full["neg"]) == (4, 0, 1)
        assert (masked["matmul"], masked.get("transpose", 0)) == (3, 0)
        assert "neg" not in masked

    def test_pruned_backward_still_runs_host_call(self):
        calls = []

        def cube(v):
            calls.append(v)
            return sf.mul(sf.mul(v, v), v)

        cb = sf.register_callback(cube, [(sf.float32, (2,))])
        f = sf.stage(lambda u, v: sf.add(sf.reduce_sum(sf.mul(u, u)),
                                         sf.reduce_sum(sf.host_call(cb, [v])[0])))
        a = sf.constant(np.array([0.5, -1.5], np.float32))
        b = sf.constant(np.array([2.0, 3.0], np.float32))
        with sf.Tape() as t:
            t.watch(a)
            t.watch(b)
            r = f(a, b)
        del calls[:]
        assert t.gradient(r, a).numpy().tolist() == [1.0, -3.0]
        # b's gradient is not wanted, but the host call is stateful: it runs
        bwd = backward_for(f.cached_functions()[0].graph, (True, False)).graph
        assert [name for name, _ in bwd.outputs] == ["grad_u"]
        assert "host_call" in bwd.op_counts()
        assert len(calls) == 1


def _nested_second_order(f, x, other=(), outer=sf.reduce_sum):
    """d/dx of outer(g), where g = d f(x, *other) / dx, by nested tapes."""
    with sf.Tape() as t1:
        t1.watch(x)
        with sf.Tape() as t2:
            t2.watch(x)
            y = f(x, *other)
        g = t2.gradient(y, x)
        s = outer(g)
    return t1.gradient(s, x)


class TestStagedSecondOrder:
    """A second-order gradient through a staged call whose backward reads
    saved intermediates raises instead of treating them as constants."""

    def test_cube_raises(self):
        cube = lambda v: sf.reduce_sum(v * v * v)  # noqa: E731
        x = sf.constant([1.0, 2.0])
        assert _nested_second_order(cube, x).numpy().tolist() == [6.0, 12.0]
        with pytest.raises(NotDifferentiable):
            _nested_second_order(sf.stage(cube), x)

    def test_saved_exp_raises(self):
        fn = lambda u, v: sf.reduce_sum(u * v * sf.exp(u))  # noqa: E731
        a = sf.constant(np.array([0.3, -1.2, 2.0], np.float32))
        b = sf.constant(np.array([1.5, 0.25, -0.75], np.float32))
        sum_sq = lambda g: sf.reduce_sum(g * g)  # noqa: E731
        eager = _nested_second_order(fn, a, (b,), sum_sq).numpy()
        np.testing.assert_allclose(eager, [24.5, -0.0018, 737.1], rtol=1e-2)
        with pytest.raises(NotDifferentiable):
            _nested_second_order(sf.stage(fn), a, (b,), sum_sq)

    def test_square_saves_only_its_input_and_stays_right(self):
        square = lambda v: sf.reduce_sum(v * v)  # noqa: E731
        x = sf.constant([1.0, 2.0])
        staged = _nested_second_order(sf.stage(square), x)
        assert staged.numpy().tolist() == [2.0, 2.0]

    @pytest.mark.parametrize("persistent", [False, True])
    def test_first_order_unchanged(self, persistent):
        cube = lambda v: sf.reduce_sum(v * v * v)  # noqa: E731
        f = sf.stage(cube)
        x = sf.constant([1.0, 2.0])
        with sf.Tape(persistent=persistent) as t:
            t.watch(x)
            y = f(x)
            inside = t.gradient(y, x)  # the tape records its own backward
        with sf.Tape() as t:
            t.watch(x)
            y = f(x)
        after = t.gradient(y, x)
        with sf.Tape() as t:
            t.watch(x)
            y = cube(x)
        eager = t.gradient(y, x)
        assert inside.numpy().tobytes() == after.numpy().tobytes() == eager.numpy().tobytes()
        assert after.numpy().tolist() == [3.0, 12.0]

    def test_first_order_under_another_tape_for_logging(self):
        # An outer tape watches x while an inner tape takes a gradient that
        # is only logged; the outer loss does not depend on it.
        cube = lambda v: sf.reduce_sum(v * v * v)  # noqa: E731
        x = sf.constant([1.0, 2.0])

        def run(f):
            with sf.Tape() as t1:
                t1.watch(x)
                with sf.Tape() as t2:
                    t2.watch(x)
                    y = f(x)
                g = t2.gradient(y, x)
                norm = sf.reduce_sum(g * g)
                loss = y * 2.0
            return g, norm, t1.gradient(loss, x)

        eager = run(cube)
        staged = run(sf.stage(cube))
        for e, s in zip(eager, staged):
            assert e.numpy().tobytes() == s.numpy().tobytes()
        assert staged[2].numpy().tolist() == [6.0, 24.0]

    def test_second_order_on_one_persistent_tape_raises(self):
        cube = lambda v: sf.reduce_sum(v * v * v)  # noqa: E731
        x = sf.constant([1.0, 2.0])

        def run(f):
            with sf.Tape(persistent=True) as t:
                t.watch(x)
                g = t.gradient(f(x), x)
                s = sf.reduce_sum(g)
            return t.gradient(s, x)

        assert run(cube).numpy().tolist() == [6.0, 12.0]
        with pytest.raises(NotDifferentiable):
            run(sf.stage(cube))


# The eager/staged tolerance of the benchmark's gate, for results whose
# staged derivation may sum in another order than eager's tape.
TOL_MODES = 1e-6
_TRANSPOSES = [(False, False), (False, True), (True, False), (True, True)]


def _transpose_attrs(ta, tb):
    """Only True attrs, as the gradient rule sets them."""
    return {k: True for k, on in (("transpose_a", ta), ("transpose_b", tb)) if on}


def _matmul_t(a, b, ta, tb):
    return sf.dispatch("matmul", [a, b], _transpose_attrs(ta, tb))[0]


def _operands(rng, m, k, n, ta, tb, dtype=np.float64):
    """Stored operands of ``op(A) @ op(B)`` for an (m, k) @ (k, n) product."""
    a = rng.uniform(-1.0, 1.0, (k, m) if ta else (m, k)).astype(dtype)
    b = rng.uniform(-1.0, 1.0, (n, k) if tb else (k, n)).astype(dtype)
    return a, b


class TestTransposedMatmul:
    """``matmul`` with ``transpose_a``/``transpose_b``: the gradient rule's
    four cases, eager against staged, the compute's contract and its exact
    inner-dim-1 product."""

    @pytest.mark.parametrize("ta, tb", _TRANSPOSES)
    @pytest.mark.parametrize("k", [1, 3])
    def test_gradients_match_central_differences(self, ta, tb, k):
        rng = np.random.default_rng(31)
        arrays = list(_operands(rng, 2, k, 4, ta, tb))
        weights = rng.uniform(0.5, 1.5, (2, 4))

        def loss(arrs):
            out = _matmul_t(sf.constant(arrs[0]), sf.constant(arrs[1]), ta, tb)
            return float(np.sum(out.numpy() * weights))

        a, b = (sf.constant(x) for x in arrays)
        with sf.Tape() as t:
            t.watch(a)
            t.watch(b)
            y = sf.reduce_sum(sf.mul(_matmul_t(a, b, ta, tb), sf.constant(weights)))
        grads = t.gradient(y, [a, b])
        for i, g in enumerate(grads):
            assert g.shape == arrays[i].shape
            fd = central_diff(loss, arrays, i, h=1e-3)
            assert max_rel_err(g.numpy(), fd, floor=1e-6) < 1e-6, (i, ta, tb)

    @pytest.mark.parametrize("ta, tb", _TRANSPOSES)
    @pytest.mark.parametrize("k", [1, 5])
    def test_eager_matches_staged_bit_exactly(self, ta, tb, k):
        rng = np.random.default_rng(32)
        a, b = (sf.constant(x) for x in _operands(rng, 6, k, 3, ta, tb, np.float32))

        def fn(u, v):
            return sf.reduce_sum(sf.softplus(_matmul_t(u, v, ta, tb)))

        def run(f):
            with sf.Tape() as t:
                t.watch(a)
                t.watch(b)
                y = f(a, b)
            return [y] + t.gradient(y, [a, b])

        stats = sf.get_runtime().stats
        stats.reset()
        eager = run(fn)
        assert stats.snapshot()["eager_op_counts"].get("transpose", 0) == 0
        staged_fn = sf.stage(fn)
        staged = run(staged_fn)
        for e, s in zip(eager, staged):
            assert e.numpy().tobytes() == s.numpy().tobytes()
        bwd = get_forward_backward(staged_fn.cached_functions()[0].graph)[1].graph
        assert "transpose" not in bwd.op_counts()

    @pytest.mark.parametrize("ta, tb", _TRANSPOSES)
    def test_second_order_eager_matches_staged(self, ta, tb):
        rng = np.random.default_rng(33)
        a, b = (sf.constant(x) for x in _operands(rng, 3, 4, 2, ta, tb))

        def second_order(u, v):
            with sf.Tape() as t1:
                t1.watch(u)
                with sf.Tape() as t2:
                    t2.watch(u)
                    t2.watch(v)
                    y = sf.reduce_sum(sf.softplus(_matmul_t(u, v, ta, tb)))
                gu, gv = t2.gradient(y, [u, v])
                s = sf.add(sf.reduce_sum(sf.mul(gu, gu)), sf.reduce_sum(gv))
            return t1.gradient(s, u)

        eager = second_order(a, b).numpy()
        staged = sf.stage(second_order)(a, b).numpy()
        assert eager.shape == a.shape and np.any(eager != 0.0)
        assert max_rel_err(staged, eager, floor=1e-12) <= TOL_MODES

    @pytest.mark.parametrize("ta, tb", _TRANSPOSES)
    @pytest.mark.parametrize("k", [1, 4])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_compute_returns_op_dtype_c_contiguous(self, ta, tb, k, dtype):
        rng = np.random.default_rng(34)
        a, b = _operands(rng, 5, k, 3, ta, tb, dtype)
        attrs = {"transpose_a": ta, "transpose_b": tb}
        out = KERNELS["matmul"](a, b, **attrs)
        assert out.dtype == dtype and out.shape == (5, 3)
        assert out.flags.c_contiguous
        want = np.matmul(a.T if ta else a, b.T if tb else b)
        assert out.tobytes() == want.tobytes()

    @pytest.mark.parametrize("ta, tb", _TRANSPOSES)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_inner_dim_one_is_byte_equal_to_numpy_matmul(self, ta, tb, dtype):
        # -1 * 0 is -0.0 as a product but 0.0 from matmul; inf * 0 is NaN.
        # One NaN operand: which of two different NaNs a product keeps is
        # left open by IEEE 754, and BLAS tiles differ on it.
        specials = np.array([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan,
                             2.5, -3e-39, 1e30], dtype=dtype)
        rng = np.random.default_rng(35)
        for _ in range(20):
            m, n = (int(d) for d in rng.integers(1, 12, size=2))
            a = rng.choice(specials, (1, m) if ta else (m, 1))
            b = rng.choice(specials, (n, 1) if tb else (1, n))
            with np.errstate(invalid="ignore", over="ignore"):
                got = KERNELS["matmul"](a, b, **_transpose_attrs(ta, tb))
                want = np.matmul(a.T if ta else a, b.T if tb else b)
            assert got.dtype == dtype and got.flags.c_contiguous
            assert got.tobytes() == want.tobytes()

    def test_value_numbering_keeps_transposes_apart(self):
        def fn(u, v):
            return (sf.matmul(u, v), _matmul_t(u, v, False, True),
                    _matmul_t(u, v, False, True))

        rng = np.random.default_rng(36)
        a, b = (sf.constant(rng.standard_normal((3, 3))) for _ in range(2))
        staged = sf.stage(fn)
        plain, t1, t2 = staged(a, b)
        graph = staged.cached_functions()[0].graph
        assert graph.op_counts()["matmul"] == 3
        assert len(_plan_for(graph).steps) == 2
        a_np, b_np = a.numpy(), b.numpy()
        assert plain.numpy().tobytes() == np.matmul(a_np, b_np).tobytes()
        assert t1.numpy().tobytes() == t2.numpy().tobytes()
        assert t1.numpy().tobytes() == np.matmul(a_np, b_np.T).tobytes()


    def test_value_numbering_treats_a_default_attr_as_absent(self):
        def fn(u, v):
            return (sf.matmul(u, v),
                    sf.dispatch("matmul", [u, v], {"transpose_a": False})[0],
                    sf.reduce_sum(u),
                    sf.reduce_sum(u, axes=None, keepdims=False))

        rng = np.random.default_rng(37)
        a, b = (sf.constant(rng.standard_normal((3, 3))) for _ in range(2))
        staged = sf.stage(fn)
        m1, m2, s1, s2 = staged(a, b)
        graph = staged.cached_functions()[0].graph
        assert graph.op_counts() == {"matmul": 2, "reduce_sum": 2}
        # The nodes keep their attrs; the plan runs one step for each pair.
        assert graph.nodes[1].attrs == {"transpose_a": False}
        assert len(_plan_for(graph).steps) == 2
        assert m1 is m2 and s1 is s2
        assert m1.numpy().tobytes() == np.matmul(a.numpy(), b.numpy()).tobytes()


def _register_ruleless_negate():
    """``-x`` as a custom op that has no gradient rule."""
    register_op(OpDef(
        name="ruleless_negate", input_arity=1, attr_schema={}, output_arity=1,
        stateful=False, compute=KERNELS["neg"], infer=INFERENCE["neg"],
    ))
    return lambda v: sf.dispatch("ruleless_negate", [v])[0]


class TestNoGradientRule:
    """A gradient that reaches the float output of an op without a gradient
    rule raises; it does not come back as zero."""

    def test_eager_gradient_through_a_ruleless_op_raises(self):
        negate = _register_ruleless_negate()
        x = sf.constant([1.0, 2.0])
        with sf.Tape() as t:
            t.watch(x)
            y = sf.reduce_sum(negate(x) * x)
        with pytest.raises(NotDifferentiable, match="ruleless_negate has no gradient rule"):
            t.gradient(y, x)

    def test_eager_ruleless_op_off_the_gradient_path_is_fine(self):
        negate = _register_ruleless_negate()
        x = sf.constant([1.0, 2.0])
        with sf.Tape() as t:
            t.watch(x)
            negate(x)
            y = sf.reduce_sum(x * x)
        assert t.gradient(y, x).numpy().tolist() == [2.0, 4.0]

    def test_staged_derivation_names_the_ruleless_node(self):
        negate = _register_ruleless_negate()
        f = sf.stage(lambda v: sf.reduce_sum(negate(v) * v))
        x = sf.constant([1.0, 2.0])
        with sf.Tape() as t:
            t.watch(x)
            y = f(x)
        with pytest.raises(NotDifferentiable, match=r"node 0 \(ruleless_negate\)"):
            t.gradient(y, x)

    @pytest.mark.parametrize("mode", [lambda f: f, sf.stage])
    def test_a_dispatched_call_function_raises(self, mode):
        # Only a staged call brings its own entry; a call dispatched by hand
        # is an op without a gradient rule.
        double = sf.stage(lambda v: v * 2.0)
        x = sf.constant([1.0, 2.0, 3.0])
        double(x)
        gf = double.get_concrete(double.trace_key_for(x)).graph

        def f(v):
            with sf.Tape() as t:
                t.watch(v)
                y = sf.reduce_sum(sf.dispatch("call_function", [v], {"function": gf})[0])
            return t.gradient(y, v)

        with pytest.raises(NotDifferentiable, match="call_function has no gradient rule"):
            mode(f)(x)

    @pytest.mark.parametrize("mode", [lambda f: f, sf.stage])
    def test_relu_second_derivative(self, mode):
        # relu's gradient dispatches step_positive, whose rule is zero.
        def first(v):
            with sf.Tape() as t:
                t.watch(v)
                y = sf.reduce_sum(sf.relu(v) * sf.relu(v))
            return t.gradient(y, v)

        x = sf.constant([1.0, -2.0])
        with sf.Tape() as t:
            t.watch(x)
            s = sf.reduce_sum(mode(first)(x))
        assert t.gradient(s, x).numpy().tolist() == [2.0, 0.0]


# ---------------------------------------------------------------------------
# Replayed backward plans
# ---------------------------------------------------------------------------


@pytest.fixture
def replay_at_once(monkeypatch):
    """Replay from a fingerprint's first sighting; returns a function that
    switches replay off (op by op) or back on."""
    monkeypatch.setattr(tape_module, "REPLAY_AFTER", 1)

    def set_replay(on: bool):
        monkeypatch.setattr(tape_module, "REPLAY_AFTER", 1 if on else 10**9)

    return set_replay


def _counts():
    snap = sf.get_runtime().stats.snapshot()
    return snap["tape_plans"], snap["tape_replays"]


def _bits(values):
    return [(v.dtype, v.shape, v.numpy().tobytes()) for v in values]


class TestReplayBitsEqualOpByOp:
    """A replayed backward gives the op-by-op backward's bits."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_pure_functions(self, seed, replay_at_once):
        fn, inputs = random_pure_function(seed)

        def grads():
            with sf.Tape() as t:
                for x in inputs:
                    t.watch(x)
                y = sf.reduce_sum(fn(*inputs))
            return _bits(t.gradient(y, inputs))

        replay_at_once(False)
        want = grads()
        replay_at_once(True)
        assert grads() == want  # builds the plan and runs it
        assert grads() == want  # a hit
        assert _counts() == (1, 2)

    def test_leapfrog_force(self, replay_at_once):
        rng = np.random.default_rng(11)
        q, p = (sf.constant(rng.standard_normal((32, 2)).astype(np.float32))
                for _ in range(2))
        trajectory = leapfrog(5)
        replay_at_once(False)
        want = _bits(trajectory(q, p))
        stats = sf.get_runtime().stats
        stats.reset()
        replay_at_once(True)
        assert _bits(trajectory(q, p)) == want
        assert _counts() == (1, 10)
        # A replayed force dispatches none of its 6 backward ops: per step,
        # two forces' 3 forward ops and the 6 update ops remain.
        assert stats.snapshot()["eager_dispatches"] == 5 * (2 * 3 + 6)

    def test_mlp_step(self, replay_at_once):
        rng = np.random.default_rng(12)
        params, loss_fn = _mlp_loss_fn(rng)
        x = sf.constant(rng.standard_normal((8, 16)).astype(np.float32))
        y = sf.constant(rng.standard_normal((8, 1)).astype(np.float32))

        def step():
            with sf.Tape() as t:
                loss = loss_fn(x, y)
            return _bits([loss] + t.gradient(loss, params))

        replay_at_once(False)
        want = step()
        replay_at_once(True)
        assert step() == want
        assert step() == want
        assert _counts() == (1, 2)

    def test_threshold_counts_sightings(self, monkeypatch):
        monkeypatch.setattr(tape_module, "REPLAY_AFTER", 3)
        x = sf.constant([1.0, 2.0])
        for k in range(4):
            with sf.Tape() as t:
                t.watch(x)
                y = sf.reduce_sum(x * x)
            assert t.gradient(y, x).numpy().tolist() == [2.0, 4.0]
            assert _counts() == ((0, 0) if k < 2 else (1, k - 1))

    def test_gate_builds_no_key_before_the_threshold(self, monkeypatch):
        # Building an exact key for every gradient made retrace's eager
        # steps slower; the fingerprint gate keeps it to repeated tapes.
        monkeypatch.setattr(tape_module, "REPLAY_AFTER", 3)
        built = []
        structure = tape_module._structure
        monkeypatch.setattr(tape_module, "_structure",
                            lambda *args: built.append(1) or structure(*args))
        x = sf.constant([1.0, 2.0])
        for k in range(5):
            with sf.Tape() as t:
                t.watch(x)
                y = sf.reduce_sum(x * x)
            assert t.gradient(y, x).numpy().tolist() == [2.0, 4.0]
            assert len(built) == max(0, k - 1)  # none in the first 2 sightings


def _force_tape(q):
    with sf.Tape() as t:
        t.watch(q)
        u = sf.mul(sf.reduce_sum(sf.mul(q, q)), 0.5)
    return t, u


class TestReplayContract:
    """A replay makes no seed and checks no input: the seed of ``gradient``
    is a plan constant, and the key proves every plan input."""

    def test_force_hit_makes_no_seed(self, replay_at_once, monkeypatch):
        q = sf.constant(np.random.default_rng(15).standard_normal((32, 2)).astype(np.float32))
        seeds = []
        ones_for = gradients_module.ones_for

        def counting(spec):
            seeds.append(spec)
            return ones_for(spec)

        monkeypatch.setattr(gradients_module, "ones_for", counting)
        monkeypatch.setattr(tape_module, "ones_for", counting)

        def force():
            t, u = _force_tape(q)
            return _bits([t.gradient(u, q)])

        replay_at_once(False)
        want = force()
        assert len(seeds) == 1  # op by op makes one
        replay_at_once(True)
        assert force() == want  # builds the plan: its seed is made in the trace
        del seeds[:]
        assert force() == want  # a hit
        assert seeds == []
        assert _counts() == (1, 2)

    def test_force_plan_reads_q_and_the_scalar(self, replay_at_once):
        q = sf.constant(np.random.default_rng(16).standard_normal((32, 2)).astype(np.float32))
        t, u = _force_tape(q)
        half = t.entries[-1].saved_inputs[1]
        _, values = tape_module._structure(t.entries, u, None, [q])
        t.gradient(u, q)
        (graph, inputs, _), = current_context().tape_plans.values()
        assert float(half) == 0.5
        assert sorted(id(values[n]) for n in inputs) == sorted([id(q), id(half)])
        assert sorted((p.dtype.value, p.shape) for p in graph.inputs) == [
            ("float32", ()), ("float32", (32, 2))]
        seed, = [n.attrs["value"] for n in graph.nodes if n.op == "constant"]
        assert (seed.dtype, seed.shape, float(seed)) == (sf.float32, (), 1.0)

    def test_vjp_keeps_its_cotangents_as_plan_inputs(self, replay_at_once):
        x = sf.constant(np.array([0.5, -1.5, 2.0], np.float32))

        def vjp(ct):
            with sf.Tape() as t:
                t.watch(x)
                y = sf.mul(sf.exp(x), x)
            return _bits(t.vjp([y], [sf.constant(np.array(ct, np.float32))], [x]))

        cts = ([1.0, 2.0, 3.0], [-0.5, 0.25, 4.0])
        replay_at_once(False)
        want = [vjp(ct) for ct in cts]
        replay_at_once(True)
        assert [vjp(ct) for ct in cts] == want  # builds the plan, then a hit
        assert _counts() == (1, 2)
        (graph, inputs, _), = current_context().tape_plans.values()
        assert len(inputs) == 3  # the cotangent, x and exp(x)
        assert all(n.op != "constant" for n in graph.nodes)

    def test_a_plan_keeps_the_seed_chain_unfolded(self, replay_at_once):
        # Folded, reduce_mean's scaled and broadcast seed would be a
        # 4,000,000-byte constant, held as long as the plan is cached.
        x = sf.constant(np.ones((1000, 1000), np.float32))

        def grad():
            with sf.Tape() as t:
                t.watch(x)
                y = sf.reduce_mean(sf.mul(x, 3.0))
            return t.gradient(y, x)

        replay_at_once(False)
        want = _bits([grad()])
        replay_at_once(True)
        assert _bits([grad()]) == want and _bits([grad()]) == want
        assert _counts() == (1, 2)
        (graph, _, _), = current_context().tape_plans.values()
        sizes = [n.attrs["value"].raw().nbytes for n in graph.nodes if n.op == "constant"]
        assert sizes and max(sizes) <= 4

    def test_unconnected_targets_of_two_dtypes(self, replay_at_once):
        x32 = sf.constant(np.array([1.0, 2.0], np.float32))
        x64 = sf.constant(np.array([3.0], np.float64))
        with sf.Tape(persistent=True) as t:
            t.watch(x32)
            t.watch(x64)
            sf.mul(x32, x32)
            sf.mul(x64, x64)
        targets = [sf.reduce_sum(x32), sf.reduce_sum(x64)]  # after the tape
        for _ in range(2):
            for target in targets:
                g32, g64 = t.gradient(target, [x32, x64])
                assert (g32.dtype, g32.numpy().tolist()) == (sf.float32, [0.0, 0.0])
                assert (g64.dtype, g64.numpy().tolist()) == (sf.float64, [0.0])
        assert _counts() == (2, 4)  # one key per target dtype


class TestReplayKey:
    """Each part of the exact key keeps apart two backward passes that a
    plan for the other would get wrong."""

    def test_two_targets_on_a_persistent_tape(self, replay_at_once):
        a = sf.constant(np.array([[0.5, -1.25], [2.0, 0.75]], np.float32))
        b = sf.constant(np.array([[1.5], [-0.5]], np.float32))
        with sf.Tape(persistent=True) as t:
            t.watch(a)
            h = sf.matmul(a, b)
            z = sf.reduce_sum(sf.mul(sf.sub(h, 1.0), sf.div(h, 3.0)))
            w = sf.reduce_sum(sf.exp(sf.mul(a, 0.5)))
        gz = [[0.8750000596046448, -0.2916666865348816], [2.125, -0.7083333730697632]]
        gw = [[0.6420127749443054, 0.2676306962966919],
              [1.3591409921646118, 0.7274956703186035]]
        assert t.gradient(z, a).numpy().tolist() == gz
        assert t.gradient(w, a).numpy().tolist() == gw
        assert t.gradient(z, a).numpy().tolist() == gz
        assert _counts() == (2, 3)

    def test_target_is_the_source_or_unconnected(self, replay_at_once):
        x = sf.constant(3.0)

        def grad(target_is_source):
            with sf.Tape() as t:
                t.watch(x)
                sf.mul(x, x)
            target = x if target_is_source else sf.mul(x, 2.0)  # after the tape
            return float(t.gradient(target, x))

        assert [grad(True), grad(False), grad(True), grad(False)] == [1.0, 0.0, 1.0, 0.0]
        assert _counts() == (2, 4)

    def test_same_ops_different_shape(self, replay_at_once):
        x = sf.constant([1.0, 2.0])

        def grad(c):
            with sf.Tape() as t:
                t.watch(x)
                y = sf.reduce_sum(sf.mul(x, c))
            return t.gradient(y, x).numpy().tolist()

        # The first saved input is x either way; c's shape differs.
        assert grad(sf.constant([3.0])) == [3.0, 3.0]
        assert grad(sf.constant([3.0, 4.0])) == [3.0, 4.0]
        assert grad(sf.constant([5.0])) == [5.0, 5.0]
        assert _counts() == (2, 3)

    def test_same_ops_different_wiring(self, replay_at_once):
        x = sf.constant([1.0, 2.0])
        y = sf.constant([3.0, 4.0])

        def grad(other):
            with sf.Tape() as t:
                t.watch(x)
                total = sf.reduce_sum(sf.mul(x, other))
            return t.gradient(total, x).numpy().tolist()

        assert grad(x) == [2.0, 4.0]
        assert grad(y) == [3.0, 4.0]
        assert grad(x) == [2.0, 4.0]
        assert _counts() == (2, 3)

    def test_same_ops_different_attrs(self, replay_at_once):
        a = sf.constant(np.array([[1.0, 2.0], [3.0, 4.0]], np.float32))
        b = sf.constant(np.array([[0.5, -1.0], [2.0, 0.25]], np.float32))
        w = sf.constant(np.array([[1.0, 10.0], [100.0, 1000.0]], np.float32))

        def grad(transpose_a):
            attrs = {"transpose_a": True} if transpose_a else {}
            with sf.Tape() as t:
                t.watch(a)
                total = sf.reduce_sum(sf.mul(sf.dispatch("matmul", [a, b], attrs)[0], w))
            return t.gradient(total, a).numpy().tolist()

        replay_at_once(False)
        want = [grad(False), grad(True)]
        replay_at_once(True)
        assert [grad(False), grad(True), grad(False), grad(True)] == want * 2
        assert _counts() == (2, 4)


def _register_numpy_rule_op():
    """``2x`` as a custom op whose gradient rule reads ``.numpy()``: it
    works op by op and refuses a negative input."""
    def rule(ctx):
        if (ctx.input(0).numpy() < 0).any():
            raise NotDifferentiable("numpy_double: negative input")
        return [sf.mul(ctx.out_grad(), 2.0)]

    register_op(OpDef(
        name="numpy_double", input_arity=1, attr_schema={}, output_arity=1,
        stateful=False,
        compute=lambda x: KERNELS["add"](x, x),
        infer=INFERENCE["neg"], gradient=rule,
    ))
    return lambda v: sf.dispatch("numpy_double", [v])[0]


class TestReplayFallsBack:
    """Where a plan could be wrong, the backward runs op by op."""

    def test_active_tape_records_the_backward(self, replay_at_once):
        x = sf.constant(np.array([0.5, -1.5], np.float32))
        for _ in range(2):
            with sf.Tape() as outer:
                outer.watch(x)
                with sf.Tape() as inner:
                    inner.watch(x)
                    y = sf.reduce_sum(sf.mul(sf.mul(x, x), x))
                d1 = inner.gradient(y, x)  # outer records this backward
                s = sf.reduce_sum(d1)
            assert d1.numpy().tolist() == [0.75, 6.75]
            assert outer.gradient(s, x).numpy().tolist() == [3.0, -9.0]
        # Only the outer gradients, run while no tape is active, replay.
        assert _counts() == (1, 2)

    def test_open_trace_records_the_backward(self, replay_at_once):
        def grad(v):
            with sf.Tape() as t:
                t.watch(v)
                y = sf.reduce_sum(v * v)
            return t.gradient(y, v)

        f = sf.stage(grad)
        x = sf.constant([1.0, 2.0])
        assert f(x).numpy().tolist() == [2.0, 4.0]
        assert f(x).numpy().tolist() == [2.0, 4.0]
        assert _counts() == (0, 0)
        assert "mul" in f.cached_functions()[0].graph.op_counts()

    def test_staged_call_entry(self, replay_at_once):
        f = sf.stage(lambda v: sf.reduce_sum(v * v))
        x = sf.constant([1.0, 2.0])
        for _ in range(2):
            with sf.Tape() as t:
                t.watch(x)
                y = f(x)
            assert t.gradient(y, x).numpy().tolist() == [2.0, 4.0]
        assert _counts() == (0, 0)

    def test_host_call_entry(self, replay_at_once):
        cb = sf.register_callback(lambda u: sf.mul(u, u), [(sf.float32, (2,))])
        f = sf.stage(lambda v: sf.reduce_sum(sf.host_call(cb, [v])[0]))
        x = sf.constant([1.0, 2.0])
        for _ in range(2):
            with sf.Tape() as t:
                t.watch(x)
                y = f(x)
            assert t.gradient(y, x).numpy().tolist() == [2.0, 4.0]
        # The staged call's entry runs op by op. Its backward runs the
        # callback's VJP, a tape of one mul outside any trace: that replays.
        assert _counts() == (1, 2)
        (key,) = current_context().tape_plans
        assert [step[0] for step in key.encoding[0]] == ["mul"]

    def test_ruleless_entry(self, replay_at_once):
        negate = _register_ruleless_negate()
        x = sf.constant([1.0, 2.0])
        for _ in range(2):
            with sf.Tape() as t:
                t.watch(x)
                y = sf.reduce_sum(negate(x) * x)
            with pytest.raises(NotDifferentiable, match="ruleless_negate"):
                t.gradient(y, x)
        assert _counts() == (0, 0)

    def test_several_devices(self, replay_at_once, accel_runtime):
        x = sf.constant([1.0, 2.0])
        for _ in range(2):
            with sf.Tape() as t:
                t.watch(x)
                y = sf.reduce_sum(x * x)
            assert t.gradient(y, x).numpy().tolist() == [2.0, 4.0]
        assert accel_runtime.stats.snapshot()["tape_plans"] == 0

    def test_device_scope(self, replay_at_once):
        x = sf.constant([1.0, 2.0])
        for _ in range(2):
            with sf.Tape() as t:
                t.watch(x)
                y = sf.reduce_sum(x * x)
            with sf.device_scope(sf.list_devices()[0]):
                assert t.gradient(y, x).numpy().tolist() == [2.0, 4.0]
        assert _counts() == (0, 0)

    def test_rule_reading_numpy_keeps_its_error_and_stays_op_by_op(self, replay_at_once):
        double = _register_numpy_rule_op()

        def grad(values):
            x = sf.constant(values)
            with sf.Tape() as t:
                t.watch(x)
                y = sf.reduce_sum(double(x) * x)
            return t.gradient(y, x).numpy().tolist()

        assert grad([1.0, 2.0]) == [4.0, 8.0]  # the trace raised; op by op
        with pytest.raises(NotDifferentiable, match="negative input"):
            grad([-1.0, 2.0])
        assert grad([3.0, 2.0]) == [12.0, 8.0]
        assert _counts() == (0, 0)
        assert list(current_context().tape_plans.values()) == [None]


class TestReplayCache:
    def test_least_recently_used_plan_is_evicted(self, replay_at_once, monkeypatch):
        monkeypatch.setattr(tape_module, "_MAX_PLANS", 2)
        x = sf.constant([1.0, 2.0])

        def grad(n_muls):
            with sf.Tape() as t:
                t.watch(x)
                y = x
                for _ in range(n_muls):
                    y = y * x
                total = sf.reduce_sum(y)
            return t.gradient(total, x).numpy().tolist()

        assert grad(1) == [2.0, 4.0]
        assert grad(2) == [3.0, 12.0]
        assert grad(1) == [2.0, 4.0]  # a hit: 1 is now the most recent
        assert grad(3) == [4.0, 32.0]  # evicts 2
        assert _counts() == (3, 4)
        assert len(current_context().tape_plans) == 2
        assert grad(1) == [2.0, 4.0]
        assert _counts() == (3, 5)
        assert grad(2) == [3.0, 12.0]  # rebuilt
        assert _counts() == (4, 6)

    def test_plans_hold_no_tensor_or_variable(self, replay_at_once):
        import gc
        import weakref

        rng = np.random.default_rng(14)
        params, loss_fn = _mlp_loss_fn(rng)
        x = sf.constant(rng.standard_normal((8, 16)).astype(np.float32))
        y = sf.constant(rng.standard_normal((8, 1)).astype(np.float32))
        with sf.Tape() as t:
            loss = loss_fn(x, y)
        t.gradient(loss, params)
        (key, plan), = current_context().tape_plans.items()

        def leaves(v):
            if isinstance(v, tuple):
                for e in v:
                    yield from leaves(e)
            else:
                yield v

        assert {type(v) for v in leaves(key.encoding)} <= {str, int, bool, type(None), type}
        graph, inputs, outputs = plan
        assert {type(v) for v in inputs + outputs} == {int}
        assert all(n.op != "constant" or n.attrs["value"] not in (x, y)
                   for n in graph.nodes)
        refs = [weakref.ref(v) for v in params]
        del params, loss_fn, t, loss
        gc.collect()
        assert [r() for r in refs] == [None] * 4

    def test_reset_clears_the_counters(self, replay_at_once):
        x = sf.constant([1.0, 2.0])
        with sf.Tape() as t:
            t.watch(x)
            y = sf.reduce_sum(x * x)
        t.gradient(y, x)
        assert _counts() == (1, 1)
        sf.get_runtime().stats.reset()
        assert _counts() == (0, 0)

    def test_replays_from_four_threads(self, replay_at_once):
        import sys
        import threading

        rng = np.random.default_rng(13)
        starts = [
            tuple(sf.constant(rng.standard_normal((8, 2)).astype(np.float32))
                  for _ in range(2))
            for _ in range(4)
        ]
        trajectory = leapfrog(4)
        replay_at_once(False)
        want = [_bits(trajectory(q, p)) for q, p in starts]
        replay_at_once(True)
        got = [None] * 4
        errors = []

        def work(i):
            try:
                for _ in range(3):
                    got[i] = _bits(trajectory(*starts[i]))
            except Exception as e:  # pragma: no cover - reported below
                errors.append(e)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert errors == []
        assert got == want
        # One plan per thread; every force of every run replays.
        assert _counts() == (4, 4 * 3 * 8)

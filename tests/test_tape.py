import numpy as np
import pytest

import stageflow as sf
from stageflow.errors import (
    ConsumedTape,
    InactiveTape,
    NonNestedEnd,
    NonScalarTarget,
    UnwatchedSource,
)

from helpers import (
    FD_OPS,
    build_mlp,
    central_diff,
    fd_loss_fn,
    max_rel_err,
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
        assert delta == {"call_function": 1}
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

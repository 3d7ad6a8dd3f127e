import sys
import threading
import time

import numpy as np
import pytest

import stageflow as sf
from stageflow.errors import CallbackError, SignatureViolation
from stageflow.runtime import RuntimeOptions, init_runtime


def _square_cb():
    return sf.register_callback(lambda x: sf.mul(x, x), [(sf.float32, ())])


class TestEagerTransparency:
    def test_plain_call_semantics(self):
        cb = _square_cb()
        x = sf.constant(4.0)
        (y,) = sf.host_call(cb, [x])
        assert float(y) == 16.0

    def test_eager_gradient_flows_through(self):
        cb = _square_cb()
        x = sf.constant(3.0)
        with sf.Tape() as t:
            t.watch(x)
            (y,) = sf.host_call(cb, [x])
        assert float(t.gradient(y, x)) == 6.0

    def test_callback_error(self):
        def boom(x):
            raise RuntimeError("nope")

        cb = sf.register_callback(boom, [(sf.float32, ())])
        with pytest.raises(CallbackError):
            sf.host_call(cb, [sf.constant(1.0)])

    def test_signature_violation(self):
        cb = sf.register_callback(
            lambda x: sf.constant([1.0, 2.0]), [(sf.float32, ())]
        )
        with pytest.raises(SignatureViolation):
            sf.host_call(cb, [sf.constant(1.0)])


class TestStagedHostCalls:
    def test_recursive_host_function_matches_eager(self):
        def host_len(x):
            # data-dependent recursion on the tensor's value
            def rec(v):
                if v <= 1.0:
                    return 0
                if int(v) % 2 == 0:
                    return 1 + rec(v // 2)
                return 1 + rec(3 * v + 1)

            return sf.constant(float(rec(float(x.item()))))

        cb = sf.register_callback(host_len, [(sf.float32, ())])

        def f(x):
            (steps,) = sf.host_call(cb, [x])
            return sf.add(steps, 1.0)

        x = sf.constant(6.0)
        eager = float(f(x))
        staged = float(sf.stage(f)(x))
        assert eager == staged == 9.0  # 6→3→10→5→16→8→4→2→1 is 8 steps

    def test_staged_values_and_gradients_match_eager(self):
        cb = _square_cb()

        def f(x):
            (y,) = sf.host_call(cb, [x])
            return sf.mul(y, 2.0)

        x = sf.constant(3.0)
        with sf.Tape() as t:
            t.watch(x)
            eager_y = f(x)
        eager_g = float(t.gradient(eager_y, x))

        staged = sf.stage(f)
        with sf.Tape() as t2:
            t2.watch(x)
            staged_y = staged(x)
        staged_g = float(t2.gradient(staged_y, x))
        assert abs(float(eager_y) - float(staged_y)) < 1e-6
        assert abs(eager_g - staged_g) < 1e-6
        assert eager_g == 12.0

    def test_a_tape_inside_a_staged_function_differentiates_a_host_call(self):
        # The callback has not run when the trace records the call, so none
        # of its ops reach the tape: the call goes on with its derived VJP.
        cb = sf.register_callback(lambda a: a * a, [(sf.float32, (3,))])

        def f(x):
            with sf.Tape() as t:
                t.watch(x)
                y = sf.reduce_sum(sf.host_call(cb, [x])[0])
            return t.gradient(y, x)

        x = sf.constant(np.arange(3, dtype=np.float32))
        assert f(x).numpy().tolist() == [0.0, 2.0, 4.0]
        assert sf.stage(f)(x).numpy().tolist() == [0.0, 2.0, 4.0]

    def test_staged_host_call_runs_imperatively(self):
        calls = []

        def spy(x):
            calls.append(float(x.item()))
            return sf.neg(x)

        cb = sf.register_callback(spy, [(sf.float32, ())])
        pf = sf.stage(lambda x: sf.host_call(cb, [x])[0])
        pf(sf.constant(1.0))
        pf(sf.constant(2.0))
        assert calls == [1.0, 2.0]  # never at trace time, once per execution


class TestBackwardRegistry:
    def test_concurrent_derivations_share_one_callback(self):
        from stageflow.escape import backward_callback_for

        cb = _square_cb()
        specs = ((sf.float32, ()),)
        n = 8
        start = threading.Barrier(n)
        ids = []

        def derive():
            start.wait(timeout=10)
            ids.append(backward_callback_for(cb.id, specs))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=derive) for _ in range(n)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert len(ids) == n and len(set(ids)) == 1


class TestEscapeTrace:
    def test_escape_creates_concrete_values(self):
        seen = {}

        @sf.stage
        def f(x):
            with sf.escape_trace():
                c = sf.add(sf.constant(2.0), sf.constant(3.0))
                seen["concrete"] = not c.is_symbolic
                seen["value"] = float(c)
            return sf.add(x, c)

        out = f(sf.constant(1.0))
        assert seen == {"concrete": True, "value": 5.0}
        assert float(out) == 6.0
        graph = f.cached_functions()[0].graph
        # the escaped add ran eagerly: the graph holds only constant + add
        assert graph.op_counts()["add"] == 1

    def test_noop_outside_trace(self):
        with sf.escape_trace():
            c = sf.add(sf.constant(1.0), sf.constant(1.0))
        assert float(c) == 2.0

    def test_trace_node_count_unchanged_by_escaped_ops(self):
        counts = {}

        @sf.stage
        def f(x):
            from stageflow.runtime import current_context

            ts = current_context().traces[-1]
            before = len(ts.builder.nodes)
            with sf.escape_trace():
                sf.mul(sf.constant(2.0), sf.constant(2.0))
            counts["delta"] = len(ts.builder.nodes) - before
            return x

        f(sf.constant(1.0))
        assert counts["delta"] == 0


class TestCallbackSerialization:
    def _timing_callback(self):
        active = {"now": 0, "max": 0}
        lock = threading.Lock()

        def cb(x):
            with lock:
                active["now"] += 1
                active["max"] = max(active["max"], active["now"])
            time.sleep(0.02)
            with lock:
                active["now"] -= 1
            return sf.neg(x)

        return cb, active

    def _run_concurrent_host_calls(self, registered):
        threads = [
            threading.Thread(
                target=lambda: sf.host_call(registered, [sf.constant(1.0)])
            )
            for _ in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    def test_single_slot_by_default(self):
        init_runtime(RuntimeOptions(serialize_host_callbacks=True))
        fn, active = self._timing_callback()
        registered = sf.register_callback(fn, [(sf.float32, ())])
        self._run_concurrent_host_calls(registered)
        assert active["max"] == 1

    def test_serialization_configurable_off(self):
        init_runtime(RuntimeOptions(serialize_host_callbacks=False))
        fn, active = self._timing_callback()
        registered = sf.register_callback(fn, [(sf.float32, ())])
        self._run_concurrent_host_calls(registered)
        assert active["max"] > 1

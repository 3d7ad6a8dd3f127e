import numpy as np
import pytest

import stageflow as sf
from stageflow.devices import ACCEL, DeviceName
from stageflow.errors import CorruptGraph, UnknownDevice
from stageflow.graph import GraphBuilder
from stageflow.runtime import RuntimeOptions, init_runtime

ACCEL0 = "/job:local/task:0/device:ACCEL:0"
CPU0 = "/job:local/task:0/device:CPU:0"


class TestNames:
    def test_render_parse_round_trip(self):
        name = DeviceName(job="training", task=2, kind="ACCEL", index=0)
        assert name.render() == "/job:training/task:2/device:ACCEL:0"
        assert DeviceName.parse(name.render()) == name

    def test_paper_example_parses(self):
        n = DeviceName.parse("/job:training/task:2/device:GPU:0")
        assert (n.job, n.task, n.kind, n.index) == ("training", 2, "GPU", 0)

    def test_equal_names_hash_equal(self):
        a = DeviceName(kind="ACCEL", index=1)
        b = DeviceName.parse(a.render())
        assert a == b and a is not b
        assert hash(a) == hash(b)
        assert {a: 1}[b] == 1
        assert a != DeviceName(kind="ACCEL", index=2)

    def test_malformed(self):
        with pytest.raises(UnknownDevice):
            DeviceName.parse("cpu:0")

    def test_non_string_name_is_unknown_device(self):
        with pytest.raises(UnknownDevice, match="malformed device name 5"):
            sf.copy_to(sf.constant(1.0), 5)

    def test_default_device_list(self):
        assert [d.render() for d in sf.list_devices()] == [CPU0]

    def test_accel_listed_stable_order(self, accel_runtime):
        names = [d.render() for d in sf.list_devices()]
        assert names == [CPU0, ACCEL0]
        assert [DeviceName.parse(n) for n in names] == [
            d for d in sf.list_devices()
        ]


class TestScopes:
    def test_listing_add_across_devices(self, accel_runtime):
        a = sf.constant(1.0)
        b = sf.constant(2.0)
        before = accel_runtime.stats.snapshot()["transparent_copies"]
        with sf.device_scope(ACCEL0):
            c = sf.add(a, b)
        after = accel_runtime.stats.snapshot()["transparent_copies"]
        assert float(c) == 3.0
        assert c.device.render() == ACCEL0
        assert after - before == 2

    def test_nested_innermost_wins(self, accel_runtime):
        with sf.device_scope(ACCEL0):
            with sf.device_scope(CPU0):
                c = sf.add(sf.constant(1.0), sf.constant(1.0))
        assert c.device.render() == CPU0

    def test_scope_exit_restores(self, accel_runtime):
        with sf.device_scope(ACCEL0):
            pass
        c = sf.add(sf.constant(1.0), sf.constant(1.0))
        assert c.device.render() == CPU0

    def test_unknown_device(self):
        with pytest.raises(UnknownDevice):
            with sf.device_scope("/job:local/task:0/device:ACCEL:0"):
                pass

    def test_malformed_scope_name_is_unknown_device(self):
        with pytest.raises(UnknownDevice, match="malformed device name 'CPU:0'"):
            with sf.device_scope("CPU:0"):
                pass

    def test_malformed_copy_target_is_unknown_device(self):
        with pytest.raises(UnknownDevice, match="malformed device name 'gpu'"):
            sf.copy_to(sf.constant(1.0), "gpu")

    def test_malformed_device_in_graph_bytes_is_corrupt_graph(self, accel_runtime):
        b = GraphBuilder()
        x = b.add_placeholder("x", sf.float32, ())
        (m,) = b.add_node("mul", [x, x], {}, DeviceName.parse(ACCEL0),
                          [(sf.float32, ())])
        blob = sf.serialize(b.finalize("pinned", [m], ["m"]))
        assert blob.count(ACCEL0.encode()) == 1
        bad = blob.replace(ACCEL0.encode(), ACCEL0.replace("ACCEL:", "ACCEL_").encode())
        with pytest.raises(CorruptGraph, match="malformed device name"):
            sf.deserialize(bad)


class TestPlacementRules:
    def test_no_scope_follows_first_input(self, accel_runtime):
        a = sf.copy_to(sf.constant(1.0), ACCEL0)
        b = sf.copy_to(sf.constant(2.0), ACCEL0)
        before = accel_runtime.stats.snapshot()["transparent_copies"]
        c = sf.add(a, b)
        after = accel_runtime.stats.snapshot()["transparent_copies"]
        assert c.device.render() == ACCEL0
        assert after == before  # zero transparent copies

    def test_mixed_inputs_copied_to_scope(self, accel_runtime):
        a = sf.copy_to(sf.constant(1.0), ACCEL0)
        b = sf.constant(2.0)
        before = accel_runtime.stats.snapshot()["transparent_copies"]
        with sf.device_scope(CPU0):
            c = sf.add(a, b)
        after = accel_runtime.stats.snapshot()["transparent_copies"]
        assert c.device.render() == CPU0
        assert after - before == 1

    def test_no_tensor_inputs_defaults_to_cpu(self, accel_runtime):
        e = sf.eye(2)
        assert e.device.render() == CPU0


class TestCopies:
    def test_copy_to_accel(self, accel_runtime):
        t = sf.constant([1.0, 2.0])
        c = sf.copy_to(t, ACCEL0)
        assert c.device.render() == ACCEL0
        assert t.device.render() == CPU0
        np.testing.assert_array_equal(c.numpy(), t.numpy())

    def test_copy_to_same_device_identity(self):
        t = sf.constant([1.0])
        assert sf.copy_to(t, CPU0) is t

    def test_copy_then_to_host(self, accel_runtime):
        t = sf.constant([[1.5, -2.5]])
        data, shape, dtype = sf.to_host(sf.copy_to(t, ACCEL0))
        assert (data, shape, dtype) == ([1.5, -2.5], (1, 2), sf.float32)

    def test_copy_unknown_device(self):
        with pytest.raises(UnknownDevice):
            sf.copy_to(sf.constant(1.0), "/job:local/task:0/device:ACCEL:3")


class TestGraphPlacement:
    def test_node_override_beats_caller_scope(self, accel_runtime):
        def f(x):
            with sf.device_scope(CPU0):
                pinned = sf.mul(x, x)  # recorded with an explicit device
            return sf.add(pinned, 1.0)

        pf = sf.stage(f)
        x = sf.constant(3.0)
        with sf.device_scope(ACCEL0):
            out = pf(x)
        assert float(out) == 10.0
        graph = pf.cached_functions()[0].graph
        muls = [n for n in graph.nodes if n.op == "mul"]
        assert muls[0].device is not None and muls[0].device.render() == CPU0
        adds = [n for n in graph.nodes if n.op == "add"]
        assert adds[0].device is None  # follows the call-site scope

    def test_value_device_independence(self, accel_runtime):
        x = sf.constant(np.linspace(-1, 1, 8).astype(np.float32))
        eager_cpu = sf.softplus(x)
        with sf.device_scope(ACCEL0):
            eager_accel = sf.softplus(x)
        assert eager_cpu.numpy().tobytes() == eager_accel.numpy().tobytes()

    def test_executor_copies_counted_in_graphs(self, accel_runtime):
        b = GraphBuilder()
        x = b.add_placeholder("x", sf.float32, ())
        accel = DeviceName.parse(ACCEL0)
        (m,) = b.add_node("mul", [x, x], {}, accel, [(sf.float32, ())])
        (y,) = b.add_node("add", [m, x], {}, None, [(sf.float32, ())])
        gf = b.finalize("mixed", [y], ["y"])
        before = accel_runtime.stats.snapshot()["transparent_copies"]
        out = sf.execute(gf, [sf.constant(3.0)])
        after = accel_runtime.stats.snapshot()["transparent_copies"]
        assert float(out[0]) == 12.0
        # x copied to ACCEL for the pinned mul, its result copied back for add
        assert after - before == 2

    def test_pinned_node_in_staged_call_counts_eager_copies(self, accel_runtime):
        def f(x):
            with sf.device_scope(CPU0):
                pinned = sf.mul(x, x)
            return sf.add(pinned, 1.0)

        pf = sf.stage(f)
        x = sf.constant(3.0)
        with sf.device_scope(ACCEL0):
            pf(x)
            before = accel_runtime.stats.snapshot()["transparent_copies"]
            out = pf(x)
            after = accel_runtime.stats.snapshot()["transparent_copies"]
        assert float(out) == 10.0 and out.device.render() == ACCEL0
        # x to ACCEL for the call, back to CPU for the pinned mul; the mul's
        # result and the constant 1.0 (made on CPU) to ACCEL for the add.
        assert after - before == 4

    def test_tensor_nodes_in_graphs_count_eager_copies(self, accel_runtime):
        v = sf.Variable([1.0, 2.0])

        def g(x):
            with sf.device_scope(ACCEL0):
                r = v.read_value() * x
            v.assign(r)
            return r + x, x

        pg = sf.stage(g)
        x = sf.constant([2.0, 3.0])
        pg(x)
        before = accel_runtime.stats.snapshot()["transparent_copies"]
        r, same = pg(x)
        after = accel_runtime.stats.snapshot()["transparent_copies"]
        np.testing.assert_array_equal(r.numpy(), [6.0, 21.0])
        assert r.device.render() == CPU0 and same is x
        # Variable read and x to ACCEL for the pinned mul; its result back
        # to CPU, once for assign and once for the add.
        assert after - before == 4

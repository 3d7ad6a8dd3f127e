import gc

import numpy as np
import pytest

import stageflow as sf
from stageflow.errors import DeadVariable, ShapeMismatch, StagingError


class TestVariableBasics:
    def test_create_read_gradient(self):
        v = sf.Variable(3.0)
        assert float(v.read_value()) == 3.0
        with sf.Tape() as t:
            y = v * v
        assert float(t.gradient(y, v)) == 6.0

    def test_distinct_identities_and_storage(self):
        init = sf.constant([1.0, 2.0])
        a = sf.Variable(init)
        b = sf.Variable(init)
        assert a is not b and a.uid != b.uid
        a.assign([9.0, 9.0])
        np.testing.assert_array_equal(b.numpy(), [1.0, 2.0])

    def test_initializer_copied(self):
        src = np.zeros(2, dtype=np.float32)
        v = sf.Variable(src)
        src[0] = 77.0
        assert v.numpy()[0] == 0.0

    def test_write_then_read(self):
        v = sf.Variable(np.zeros((2, 2), dtype=np.float32))
        x = sf.constant(np.arange(4, dtype=np.float32).reshape(2, 2))
        v.assign(x)
        np.testing.assert_array_equal(v.read_value().numpy(), x.numpy())

    def test_read_returns_snapshot(self):
        v = sf.Variable([1.0, 1.0])
        snap = v.read_value()
        v.assign_add([1.0, 1.0])
        np.testing.assert_array_equal(snap.numpy(), [1.0, 1.0])
        snap = v.read_value()
        v.assign([5.0, 6.0])
        np.testing.assert_array_equal(snap.numpy(), [2.0, 2.0])
        np.testing.assert_array_equal(v.read_value().numpy(), [5.0, 6.0])

    def test_snapshots_share_storage_and_are_read_only(self):
        v = sf.Variable(np.ones((4, 4), np.float32))
        a, b = v.read_value().raw(), v.read_value().raw()
        assert np.shares_memory(a, b)
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0, 0] = 2.0

    def test_numpy_is_a_writable_copy(self):
        v = sf.Variable([1.0, 2.0])
        host = v.numpy()
        assert host.flags.writeable
        host[0] = 9.0
        assert v.numpy().tolist() == [1.0, 2.0]
        assert not np.shares_memory(host, v.read_value().raw())

    def test_shape_mismatch(self):
        v = sf.Variable([1.0, 2.0])
        with pytest.raises(ShapeMismatch):
            v.assign([1.0, 2.0, 3.0])
        with pytest.raises(ShapeMismatch):
            v.assign(sf.tensor_from_host([1.0, 2.0], (2,), sf.float64))

    def test_symbolic_initializer_rejected(self):
        @sf.stage
        def f(x):
            sf.Variable(x)
            return x

        with pytest.raises(StagingError):
            f(sf.constant(1.0))

    def test_escape_allows_initialization_during_trace(self):
        created = {}

        def f():
            if "v" not in created:
                with sf.escape_trace():
                    # runs eagerly mid-trace, so the initializer is concrete
                    init = sf.add(sf.constant(2.0), sf.constant(2.0))
                    created["v"] = sf.Variable(init)
            return created["v"].read_value()

        pf = sf.stage(f)
        assert float(pf()) == 4.0
        assert float(pf()) == 4.0


class TestDeadVariables:
    def test_staged_reference_to_dead_variable(self):
        v = sf.Variable(1.0)

        @sf.stage
        def use():
            return sf.add(v.read_value(), 1.0)

        assert float(use()) == 2.0
        del v
        gc.collect()
        with pytest.raises(DeadVariable):
            use()

    def test_interleaving_assignments(self):
        v = sf.Variable(0.0)

        @sf.stage
        def staged_add():
            v.assign_add(1.0)
            return v.read_value()

        values = [float(staged_add())]
        v.assign_add(1.0)
        values.append(float(v.read_value()))
        values.append(float(staged_add()))
        assert values == [1.0, 2.0, 3.0]


class TestTrackable:
    def test_attribute_edges(self):
        class Box(sf.Trackable):
            pass

        b = Box()
        b.v = sf.Variable(1.0)
        b.blob = np.arange(3)
        b.other = "not tracked"
        b.sub = Box()
        assert set(b.tracked_children()) == {"v", "blob", "sub"}

    def test_reassignment_replaces_edge(self):
        class Box(sf.Trackable):
            pass

        b = Box()
        b.v = sf.Variable(1.0)
        new = sf.Variable(2.0)
        b.v = new
        assert b.tracked_children()["v"] is new
        b.v = 42  # non-trackable assignment drops the edge
        assert "v" not in b.tracked_children()

    def test_delete_removes_edge(self):
        class Box(sf.Trackable):
            pass

        b = Box()
        b.v = sf.Variable(1.0)
        del b.v
        assert b.tracked_children() == {}

    def test_sequence_iterator(self):
        it = sf.SequenceIterator("abcd")
        assert next(it) == "a"
        assert next(it) == "b"
        assert it.position == 2
        assert list(it) == ["c", "d"]
        with pytest.raises(StopIteration):
            next(it)

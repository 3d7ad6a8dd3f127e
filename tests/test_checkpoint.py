import numpy as np
import pytest

import stageflow as sf
from stageflow.checkpoint import CheckpointNode
from stageflow.errors import StorageError


class Dense(sf.Trackable):
    def __init__(self, n_in, n_out, with_bias=True):
        super().__init__()
        self.kernel = sf.Variable(np.zeros((n_in, n_out), dtype=np.float32))
        if with_bias:
            self.bias = sf.Variable(np.zeros(n_out, dtype=np.float32))


class Net(sf.Trackable):
    """v plus a dense sub-layer; `flip` permutes attribute creation order."""

    def __init__(self, flip=False, with_bias=True):
        super().__init__()
        if flip:
            self.out = Dense(3, 1, with_bias)
            self.v = sf.Variable(1.0)
        else:
            self.v = sf.Variable(1.0)
            self.out = Dense(3, 1, with_bias)


def _populate(net):
    net.v.assign(42.0)
    net.out.kernel.assign(np.arange(3, dtype=np.float32).reshape(3, 1))
    net.out.bias.assign([7.0])


class TestSaveFormat:
    def test_model_skeleton_paths(self):
        net = Net()
        ck = sf.build_checkpoint(net)
        assert [n.path for n in ck.nodes] == ["", "out", "v", "out/bias",
                                              "out/kernel"]
        assert set(ck.payloads) == {"v", "out/bias", "out/kernel"}

    def test_empty_root(self):
        class Empty(sf.Trackable):
            pass

        ck = sf.build_checkpoint(Empty())
        assert len(ck.nodes) == 1 and ck.payloads == {}

    def test_deterministic_bytes(self):
        a, b = Net(), Net(flip=True)
        _populate(a)
        _populate(b)
        assert a is not b
        assert sf.build_checkpoint(a).to_bytes() == sf.build_checkpoint(b).to_bytes()

    def test_cycle_safe(self):
        class Box(sf.Trackable):
            pass

        a, b = Box(), Box()
        a.peer = b
        b.peer = a
        a.v = sf.Variable(5.0)
        ck = sf.build_checkpoint(a)
        assert len(ck.nodes) == 3

    def test_file_round_trip(self, tmp_path):
        net = Net()
        _populate(net)
        path = str(tmp_path / "net.ck")
        sf.save(net, path)
        loaded = sf.load_checkpoint(path)
        fresh = Net()
        report = sf.restore(fresh, loaded)
        assert not report.conflicts and not report.unmatched_in_memory
        assert float(fresh.v.read_value()) == 42.0

    def test_unwritable_path(self):
        with pytest.raises(StorageError):
            sf.save(Net(), "/nonexistent-dir/x.ck")

    def test_hand_built_checkpoint_round_trips(self):
        # Payload paths need not be node paths: every string the sections
        # use must still land in the string table.
        ck = sf.Checkpoint(
            [CheckpointNode(edges=(("v", 1),), payload_kind=0, path=""),
             CheckpointNode(edges=(), payload_kind=1, path="v")],
            {"v": sf.constant([1.0, 2.0]), "extra/blob": b"\x00state"},
        )
        back = sf.Checkpoint.from_bytes(ck.to_bytes())
        assert back.nodes == ck.nodes
        assert back.payloads["extra/blob"] == b"\x00state"
        np.testing.assert_array_equal(back.payloads["v"].numpy(), [1.0, 2.0])
        assert back.to_bytes() == ck.to_bytes()

    def test_dangling_edge_is_storage_error(self):
        ck = sf.Checkpoint(
            [CheckpointNode(edges=(("v", 5),), payload_kind=0, path="")], {}
        )
        with pytest.raises(StorageError):
            sf.Checkpoint.from_bytes(ck.to_bytes())
        with pytest.raises(StorageError):
            sf.Checkpoint.from_bytes(sf.Checkpoint([], {}).to_bytes())

    def test_corrupt_file(self, tmp_path):
        p = tmp_path / "bad.ck"
        p.write_bytes(b"garbage")
        with pytest.raises(StorageError):
            sf.load_checkpoint(str(p))


class TestRestoreMatching:
    def test_round_trip_identical_structure(self):
        net = Net()
        _populate(net)
        ck = sf.save(net)
        fresh = Net()
        report = sf.restore(fresh, ck)
        assert sorted(report.matched) == ["", "out", "out/bias", "out/kernel", "v"]
        assert report.unmatched_in_checkpoint == []
        assert report.unmatched_in_memory == []
        np.testing.assert_array_equal(
            fresh.out.kernel.numpy(), [[0.0], [1.0], [2.0]]
        )
        np.testing.assert_array_equal(fresh.out.bias.numpy(), [7.0])

    def test_creation_order_independence(self):
        net = Net(flip=False)
        _populate(net)
        ck = sf.save(net)
        flipped = Net(flip=True)
        report = sf.restore(flipped, ck)
        assert float(flipped.v.read_value()) == 42.0
        np.testing.assert_array_equal(
            flipped.out.kernel.numpy(), [[0.0], [1.0], [2.0]]
        )
        straight = Net(flip=False)
        report2 = sf.restore(straight, sf.save(net))
        assert sorted(report.matched) == sorted(report2.matched)
        assert report.unmatched_in_checkpoint == report2.unmatched_in_checkpoint

    def test_missing_edge_reported_rest_restored(self):
        donor = Net(with_bias=False)
        donor.v.assign(9.0)
        donor.out.kernel.assign(np.ones((3, 1), dtype=np.float32))
        ck = sf.save(donor)
        target = Net(with_bias=True)
        report = sf.restore(target, ck)
        assert report.unmatched_in_memory == ["out/bias"]
        assert report.unmatched_in_checkpoint == []
        assert float(target.v.read_value()) == 9.0
        np.testing.assert_array_equal(target.out.kernel.numpy(),
                                      np.ones((3, 1), dtype=np.float32))

    def test_extra_checkpoint_edge_reported(self):
        donor = Net(with_bias=True)
        _populate(donor)
        ck = sf.save(donor)
        target = Net(with_bias=False)
        report = sf.restore(target, ck)
        assert report.unmatched_in_checkpoint == ["out/bias"]

    def test_blob_round_trips_byte_exact(self):
        class Holder(sf.Trackable):
            pass

        h = Holder()
        h.stats = np.linspace(0, 1, 7)[::2].copy()  # non-trivial dtype/strides
        ck = sf.save(h)
        h2 = Holder()
        h2.stats = np.zeros(4)
        report = sf.restore(h2, ck)
        assert not report.conflicts
        assert h2.stats.tobytes() == h.stats.tobytes()
        assert h2.stats.dtype == h.stats.dtype

    def test_dtype_conflict_reported_not_raised(self):
        class Box(sf.Trackable):
            pass

        donor = Box()
        donor.v = sf.Variable([1.0, 2.0])
        donor.w = sf.Variable(5.0)
        ck = sf.save(donor)
        target = Box()
        target.v = sf.Variable(np.zeros(3, dtype=np.float32))  # wrong shape
        target.w = sf.Variable(0.0)
        report = sf.restore(target, ck)
        assert len(report.conflicts) == 1 and report.conflicts[0][0] == "v"
        assert float(target.w.read_value()) == 5.0  # rest still restored

    def test_iterator_position_round_trip(self):
        it = sf.SequenceIterator([10, 20, 30, 40])
        next(it)
        next(it)
        ck = sf.save(it)
        it2 = sf.SequenceIterator([10, 20, 30, 40])
        sf.restore(it2, ck)
        assert it2.position == 2 and next(it2) == 30

    def test_locality(self):
        net = Net()
        _populate(net)
        ck = sf.save(net)

        class Wrapper(sf.Trackable):
            pass

        # Embedding the same subtree in a larger program must not change how
        # the subtree itself matches.
        lone = Net()
        report_lone = sf.restore(lone, ck)

        host = Wrapper()
        host.model = Net()
        host.unrelated = sf.Variable([1.0, 2.0, 3.0])
        report_sub = sf.restore(host.model, ck)
        assert sorted(report_lone.matched) == sorted(report_sub.matched)
        assert report_lone.unmatched_in_checkpoint == report_sub.unmatched_in_checkpoint
        assert float(host.model.v.read_value()) == 42.0


class TestRestoreIsStateful:
    def test_restore_uses_assign_ops(self):
        net = Net()
        _populate(net)
        ck = sf.save(net)
        fresh = Net()
        stats = sf.get_runtime().stats
        before = stats.snapshot()["eager_op_counts"].get("assign_variable", 0)
        sf.restore(fresh, ck)
        after = stats.snapshot()["eager_op_counts"].get("assign_variable", 0)
        assert after - before == 3  # v, kernel, bias

"""SGF1 and SCK1 bytes are pinned, and mutated bytes fail only with
StageflowError subclasses."""
import functools
import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import stageflow as sf
from stageflow.errors import CorruptGraph, StageflowError, StorageError
from stageflow.graph import GraphBuilder

from helpers import skip_node_check

# 1-4 single-byte overwrites at positions given as fractions of the blob.
mutations = st.lists(
    st.tuples(st.floats(0.0, 1.0, exclude_max=True), st.integers(0, 255)),
    min_size=1, max_size=4,
)

_settings = settings(
    max_examples=300, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _mutate(blob: bytes, edits) -> bytes:
    b = bytearray(blob)
    for frac, value in edits:
        b[int(frac * len(b))] = value
    return bytes(b)


@functools.lru_cache(maxsize=None)
def _graph_blob() -> bytes:
    inner = sf.stage(lambda a: sf.relu(a), name="inner_fn")

    @sf.stage
    def outer(a, b):
        return sf.reduce_sum(inner(sf.add(sf.matmul(a, b), 0.5)))

    e = sf.eye(2)
    outer(e, e)
    return sf.serialize(outer.get_concrete(outer.trace_key_for(e, e)).graph)


class _Model(sf.Trackable):
    def __init__(self):
        super().__init__()
        self.w = sf.Variable(np.arange(6, dtype=np.float32).reshape(2, 3))
        self.step = sf.Variable(sf.constant(7))
        self.table = np.array([1.5, -2.0])
        self.data = sf.SequenceIterator([1, 2, 3])


class TestGoldenBytes:
    """The container layouts are a compatibility contract: any change to the
    bytes written for the same graph or object state must be deliberate."""

    def test_sgf1_bytes(self):
        blob = _graph_blob()
        assert len(blob) == 525
        assert hashlib.sha256(blob).hexdigest() == (
            "b56bbdfcbb629f5381fb2c01df9faf408af9866415ab55db53b2005985208fa8"
        )

    def test_sck1_bytes(self):
        blob = sf.save(_Model()).to_bytes()
        assert len(blob) == 383
        assert hashlib.sha256(blob).hexdigest() == (
            "4595d8a01b1136ad05ddac29d1bf885e1f72bf310eb185b603607d47611611f4"
        )


_PADDING = [b"\x00", b"xx", b"garbage", b"\x00" * 4]


def _pad_section(blob: bytes, index: int, pad: bytes = b"\x00\x00") -> bytes:
    """``blob`` with section ``index`` (0 is the string table) padded by
    ``pad``, and its length prefix fixed up to cover the padding."""
    pos = 8  # magic, version
    for _ in range(index):
        pos += 4 + int.from_bytes(blob[pos:pos + 4], "little")
    n = int.from_bytes(blob[pos:pos + 4], "little")
    end = pos + 4 + n
    return (blob[:pos] + (n + len(pad)).to_bytes(4, "little")
            + blob[pos + 4:end] + pad + blob[end:])


def _sections(blob: bytes):
    """The header and the length-prefixed section bodies of a container."""
    pos, bodies = 8, []
    while pos < len(blob):
        n = int.from_bytes(blob[pos:pos + 4], "little")
        bodies.append(blob[pos + 4:pos + 4 + n])
        pos += 4 + n
    return blob[:8], bodies


def _with_node_table(blob: bytes, table: bytes) -> bytes:
    """``blob`` with its node table (section 2) replaced by ``table``."""
    head, bodies = _sections(blob)
    bodies[2] = table
    return head + b"".join(len(b).to_bytes(4, "little") + b for b in bodies)


def _square_blob() -> bytes:
    """One placeholder x and one node mul(x, x): its node table is count 1,
    then op id u32, ref count u32 (2), two refs (u32 id, u16 index), attr
    count u32 (0) and device id u32 (0)."""
    b = GraphBuilder()
    x = b.add_placeholder("x", sf.float32, (2,))
    (y,) = b.add_node("mul", [x, x], {}, None, [(sf.float32, (2,))])
    return sf.serialize(b.finalize("square", [y], ["y"]))


def _u32(v: int) -> bytes:
    return v.to_bytes(4, "little")


class TestNodeTableChecks:
    """Each check of the SGF1 node table raises CorruptGraph with its own
    message."""

    def test_well_formed_table_decodes(self):
        blob = _square_blob()
        table = _sections(blob)[1][2]
        assert len(table) == 4 + 4 + 4 + 2 * 6 + 4 + 4
        assert sf.deserialize(_with_node_table(blob, table)).op_counts() == {"mul": 1}

    @pytest.mark.parametrize("cut", [12, 15, 18, 22])
    def test_truncated_inside_a_ref_list(self, cut):
        blob = _square_blob()
        table = _sections(blob)[1][2][:cut]
        with pytest.raises(CorruptGraph, match="^truncated container$"):
            sf.deserialize(_with_node_table(blob, table))

    def test_huge_ref_count_is_truncated(self):
        blob = _square_blob()
        table = bytearray(_sections(blob)[1][2])
        table[8:12] = _u32(0xFFFFFFFF)
        with pytest.raises(CorruptGraph, match="^truncated container$"):
            sf.deserialize(_with_node_table(blob, bytes(table)))

    def test_op_name_string_id_out_of_range(self):
        blob = _square_blob()
        table = bytearray(_sections(blob)[1][2])
        table[4:8] = _u32(999)
        with pytest.raises(CorruptGraph, match="^string id 999 out of range$"):
            sf.deserialize(_with_node_table(blob, bytes(table)))

    @pytest.mark.parametrize("ref", [(1, 0), (7, 0), (0, 1)])
    def test_input_ref_to_a_later_value(self, ref):
        # Value 1 is the node itself; a placeholder has one output.
        blob = _square_blob()
        table = bytearray(_sections(blob)[1][2])
        table[18:24] = _u32(ref[0]) + ref[1].to_bytes(2, "little")
        with pytest.raises(
            CorruptGraph, match="^node 0 references a missing or later value$"
        ):
            sf.deserialize(_with_node_table(blob, bytes(table)))

    def test_bad_node_device(self):
        # Point the device id at the op name: "mul" is no device name.
        blob = _square_blob()
        table = bytearray(_sections(blob)[1][2])
        table[-4:] = table[4:8]
        with pytest.raises(
            CorruptGraph, match="^node 0: malformed device name 'mul'$"
        ):
            sf.deserialize(_with_node_table(blob, bytes(table)))


class TestWireFuzz:
    @pytest.mark.parametrize("pad", _PADDING + [None])
    def test_padded_sgf1_is_corrupt_graph(self, pad):
        blob = _graph_blob()
        with pytest.raises(CorruptGraph, match="after the last section"):
            sf.deserialize(blob + (blob if pad is None else pad))

    @pytest.mark.parametrize("pad", _PADDING + [None])
    def test_padded_sck1_is_storage_error(self, pad):
        blob = sf.save(_Model()).to_bytes()
        with pytest.raises(StorageError, match="after the last section"):
            sf.Checkpoint.from_bytes(blob + (blob if pad is None else pad))

    @pytest.mark.parametrize("section", range(5))
    def test_padded_sgf1_section_is_corrupt_graph(self, section):
        # The string table, then the input, node, output and library tables.
        blob = _pad_section(_graph_blob(), section)
        with pytest.raises(CorruptGraph, match="2 bytes after the "):
            sf.deserialize(blob)

    @pytest.mark.parametrize("section", range(3))
    def test_padded_sck1_section_is_storage_error(self, section):
        # The string table, then the skeleton and the payloads.
        blob = _pad_section(sf.save(_Model()).to_bytes(), section)
        with pytest.raises(StorageError, match="2 bytes after the "):
            sf.Checkpoint.from_bytes(blob)

    @pytest.mark.parametrize(
        "payload",
        [np.int64(-1).tobytes(), np.int64(-9).tobytes(), np.int64(4).tobytes(),
         np.int32(1).tobytes(), np.int64(1).tobytes() + b"\x00", b""],
    )
    def test_bad_iterator_cursor_is_a_conflict(self, payload):
        ckpt = sf.save(_Model())
        ckpt.payloads["data"] = payload
        ckpt = sf.Checkpoint.from_bytes(ckpt.to_bytes())
        model = _Model()
        report = sf.restore(model, ckpt)
        assert [path for path, _ in report.conflicts] == ["data"]
        assert list(model.data) == [1, 2, 3]

    @pytest.mark.parametrize("cursor, rest", [(0, [1, 2, 3]), (2, [3]), (3, [])])
    def test_iterator_cursor_in_range_restores(self, cursor, rest):
        ckpt = sf.save(_Model())
        ckpt.payloads["data"] = np.int64(cursor).tobytes()
        model = _Model()
        assert sf.restore(model, ckpt).conflicts == []
        assert list(model.data) == rest

    def test_bad_utf8_is_corrupt_graph(self):
        blob = _graph_blob()
        # Magic, version, section length, string count, then string 0 (the
        # empty string, length only); string 1's bytes start at byte 24.
        with pytest.raises(CorruptGraph):
            sf.deserialize(blob[:24] + b"\xff" + blob[25:])

    @pytest.mark.parametrize("attrs, match", [
        ({"bogus": 7}, "unexpected attr 'bogus'"),
        ({"transpose_a": 1}, "transpose_a must be a bool"),
    ])
    def test_attrs_outside_the_op_schema_are_corrupt_graph(self, attrs, match,
                                                           monkeypatch):
        # A writer that skips the node check encodes any attrs; decoding
        # checks them against the op's schema.
        skip_node_check(monkeypatch)
        b = GraphBuilder()
        x = b.add_placeholder("x", sf.float32, (2, 2))
        (y,) = b.add_node("matmul", [x, x], attrs, None, [(sf.float32, (2, 2))])
        blob = sf.serialize(b.finalize("hostile", [y], ["y"]))
        monkeypatch.undo()
        with pytest.raises(CorruptGraph, match=rf"^node 0: matmul.*{match}"):
            sf.deserialize(blob)

    def test_transposed_matmul_round_trips(self):
        b = GraphBuilder()
        x = b.add_placeholder("x", sf.float32, (2, 3))
        (y,) = b.add_node("matmul", [x, x], {"transpose_a": True}, None,
                          [(sf.float32, (3, 3))])
        blob = sf.serialize(b.finalize("gram", [y], ["y"]))
        gf = sf.deserialize(blob)
        assert gf.nodes[0].attrs == {"transpose_a": True}
        assert sf.serialize(gf) == blob
        arr = np.arange(6, dtype=np.float32).reshape(2, 3)
        (out,) = sf.execute(gf, [sf.constant(arr)])
        assert out.numpy().tobytes() == (arr.T @ arr).tobytes()

    @_settings
    @given(edits=mutations)
    def test_sgf1_mutations(self, edits):
        blob = _graph_blob()
        try:
            sf.deserialize(_mutate(blob, edits))
        except StageflowError:
            pass

    @_settings
    @given(edits=mutations)
    def test_sck1_mutations(self, edits):
        blob = sf.save(_Model()).to_bytes()
        try:
            ckpt = sf.Checkpoint.from_bytes(_mutate(blob, edits))
        except StageflowError:
            return
        # Whatever decodes must restore without leaking a foreign error;
        # bad state is reported as a conflict or raised as StageflowError.
        try:
            sf.restore(_Model(), ckpt)
        except StageflowError:
            pass

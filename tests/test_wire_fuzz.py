"""Mutated SGF1 and SCK1 bytes fail only with StageflowError subclasses."""
import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import stageflow as sf
from stageflow.errors import CorruptGraph, StageflowError

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


class TestWireFuzz:
    def test_bad_utf8_is_corrupt_graph(self):
        blob = _graph_blob()
        # Magic, version, section length, string count, then string 0 (the
        # empty string, length only); string 1's bytes start at byte 24.
        with pytest.raises(CorruptGraph):
            sf.deserialize(blob[:24] + b"\xff" + blob[25:])

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
            sf.Checkpoint.from_bytes(_mutate(blob, edits))
        except StageflowError:
            pass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stageflow as sf
from stageflow.errors import (
    BroadcastIncompatible,
    LengthMismatch,
    NarrowingOverflow,
    ShapeMismatch,
    SymbolicTensor,
)


class TestFromHost:
    def test_paper_constant(self):
        t = sf.tensor_from_host([2.0, -2.0], (2, 1), sf.float32)
        assert t.shape == (2, 1)
        np.testing.assert_array_equal(t.numpy(), [[2.0], [-2.0]])

    def test_empty(self):
        t = sf.tensor_from_host([], (0,), sf.float32)
        assert t.size == 0
        assert t.numpy().shape == (0,)

    def test_scalar_identity(self):
        t = sf.tensor_from_host([7], (), sf.int32)
        assert t.shape == ()
        assert t.item() == 7

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            sf.tensor_from_host([1.0, 2.0, 3.0], (2,), sf.float32)

    def test_int32_overflow(self):
        with pytest.raises(NarrowingOverflow):
            sf.tensor_from_host([2**31], (1,), sf.int32)

    def test_int32_fractional(self):
        with pytest.raises(NarrowingOverflow):
            sf.tensor_from_host([1.5], (1,), sf.int32)

    @pytest.mark.parametrize("shape", [(-1,), ("a",), (None,), 5])
    def test_bad_shape_is_shape_mismatch(self, shape):
        with pytest.raises(ShapeMismatch):
            sf.tensor_from_host([1.0], shape, sf.float32)

    def test_constant_of_a_tensor_keeps_its_dtype(self):
        t = sf.constant(1.0)
        assert sf.constant(t, sf.float32) is t
        with pytest.raises(ShapeMismatch, match="float32, not int32"):
            sf.constant(t, sf.int32)

    def test_no_aliasing(self):
        src = np.ones(3, dtype=np.float32)
        t = sf.tensor_from_host(src, (3,), sf.float32)
        src[0] = 99.0
        assert t.numpy()[0] == 1.0

    def test_buffers_are_read_only(self):
        t = sf.constant([1.0, 2.0])
        with pytest.raises(ValueError):
            t.raw()[0] = 5.0


class TestToHost:
    def test_paper_value(self):
        t = sf.constant([[2.0]])
        data, shape, dtype = sf.to_host(t)
        assert (data, shape, dtype) == ([2.0], (1, 1), sf.float32)

    @pytest.mark.parametrize("dtype", [sf.float32, sf.float64, sf.int32, sf.boolean])
    def test_round_trip_all_dtypes(self, dtype):
        if dtype is sf.boolean:
            data = [True, False, True, True]
        elif dtype is sf.int32:
            data = [1, -5, 7, 0]
        else:
            data = [1.25, -0.5, 3.0, 0.125]
        t = sf.tensor_from_host(data, (2, 2), dtype)
        back, shape, dt = sf.to_host(t)
        assert back == data and shape == (2, 2) and dt is dtype

    def test_symbolic_rejected(self):
        captured = {}

        @sf.stage
        def f(x):
            with pytest.raises(SymbolicTensor):
                sf.to_host(x)
            captured["ran"] = True
            return x

        f(sf.constant(1.0))
        assert captured["ran"]

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=32),
            min_size=1,
            max_size=12,
        )
    )
    def test_round_trip_property(self, values):
        t = sf.tensor_from_host(values, (len(values),), sf.float32)
        back, shape, dtype = sf.to_host(t)
        assert shape == (len(values),) and dtype is sf.float32
        np.testing.assert_array_equal(
            np.asarray(back, dtype=np.float32), np.asarray(values, dtype=np.float32)
        )


class TestBroadcast:
    @pytest.mark.parametrize(
        "a,b,want",
        [
            ((3, 1), (1, 4), (3, 4)),
            ((5,), (), (5,)),
            ((2, 1, 4), (3, 1), (2, 3, 4)),
            ((), (), ()),
        ],
    )
    def test_cases(self, a, b, want):
        assert sf.broadcast_shapes(a, b) == want

    def test_incompatible(self):
        with pytest.raises(BroadcastIncompatible):
            sf.broadcast_shapes((2, 3), (4, 3))

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.sampled_from([1, 2, 3, 5]), max_size=3),
        st.lists(st.sampled_from([1, 2, 3, 5]), max_size=3),
    )
    def test_commutative_with_scalar_identity(self, a, b):
        a, b = tuple(a), tuple(b)
        try:
            left = sf.broadcast_shapes(a, b)
        except BroadcastIncompatible:
            with pytest.raises(BroadcastIncompatible):
                sf.broadcast_shapes(b, a)
            return
        assert left == sf.broadcast_shapes(b, a)
        assert sf.broadcast_shapes(a, ()) == a

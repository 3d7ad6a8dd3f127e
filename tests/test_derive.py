"""Staged derivation runs only toward float inputs: no gradient toward a
constant is recorded, the forward variant saves only what the needed
gradients read, and the gradients stay bit-identical to eager."""
import numpy as np
import pytest

import stageflow as sf
from stageflow import staging
from stageflow.backprop import get_forward_backward

from helpers import leapfrog
from test_optimize import _mlp_variant


def _taped_graph(fn, *args):
    """Call staged ``fn`` under a tape watching ``args``; returns its graph."""
    pf = sf.stage(fn)
    with sf.Tape() as tape:
        for a in args:
            tape.watch(a)
        pf(*args)
    return pf.get_concrete(pf.trace_key_for(*args)).graph


def _f32(rng, *shape):
    return sf.constant(rng.standard_normal(shape).astype(np.float32))


def _graphs():
    rng = np.random.default_rng(21)
    q, p = _f32(rng, 16, 2), _f32(rng, 16, 2)
    graphs = [
        _taped_graph(lambda a, b: a - b * 0.5, q, p),
        _taped_graph(lambda a: sf.reduce_sum(sf.exp(a) * 2.0 + 1.0), q),
        _taped_graph(leapfrog(10), q, p),
    ]
    for width, depth in ((16, 1), (32, 3)):
        pf = sf.stage(_mlp_variant(width, depth, rng)[0])
        x, y = _f32(rng, 8, 16), _f32(rng, 8, 1)
        with sf.Tape():  # the variables auto-watch
            pf(x, y)
        graphs.append(pf.get_concrete(pf.trace_key_for(x, y)).graph)
    return graphs


def test_every_saved_value_is_read_by_the_backward():
    for gf in _graphs():
        bwd = get_forward_backward(gf)[1].graph
        read = {vid for node in bwd.nodes for vid, _ in node.inputs}
        for vid, ph in enumerate(bwd.inputs):
            if ph.name.startswith("saved_"):
                assert vid in read, (gf.name, ph.name)


def test_no_gradient_toward_a_constant_is_recorded(monkeypatch):
    recorded = {}
    optimize = staging.optimize

    def spy(gf):
        recorded[gf.name] = gf.op_counts()
        return optimize(gf)

    monkeypatch.setattr(staging, "optimize", spy)
    rng = np.random.default_rng(22)
    p, q = _f32(rng, 3), _f32(rng, 3)
    gf = _taped_graph(lambda a, b: a - b * 0.5, p, q)
    # d/dp is the upstream gradient and d/dq is -g * 0.5. The gradient
    # toward the constant 0.5 would add a mul and a reduce_sum.
    assert recorded["staged_lambda_bwd"] == {"neg": 1, "mul": 1}
    _, _, saved_desc, _ = get_forward_backward(gf)
    assert saved_desc == [("extra", 0)]  # the constant; neither input


def _eager_and_staged(fn, run):
    return run(fn), run(sf.stage(fn))


@pytest.mark.parametrize("dim, steps", [(2, 1), (4, 2), (8, 3), (2, 10)])
def test_leapfrog_gradients_bit_identical_to_eager(dim, steps):
    rng = np.random.default_rng(dim * 10 + steps)
    q0, p0 = _f32(rng, 12, dim), _f32(rng, 12, dim)

    def run(fn):
        with sf.Tape() as tape:
            tape.watch(q0)
            q, p = fn(q0, p0)
            target = sf.add(sf.reduce_sum(q), sf.reduce_sum(p))
        return [q, p, tape.gradient(target, q0)]

    eager, staged = _eager_and_staged(leapfrog(steps), run)
    for e, s in zip(eager, staged):
        assert e.numpy().tobytes() == s.numpy().tobytes()


@pytest.mark.parametrize("width, depth", [(16, 1), (32, 2), (64, 3)])
def test_mlp_gradients_bit_identical_to_eager(width, depth):
    rng = np.random.default_rng(width + depth)
    loss, params = _mlp_variant(width, depth, rng)
    x, y = _f32(rng, 20, 16), _f32(rng, 20, 1)

    def run(fn):
        with sf.Tape() as tape:
            value = fn(x, y)
        return [value] + tape.gradient(value, params)

    eager, staged = _eager_and_staged(loss, run)
    for e, s in zip(eager, staged):
        assert e.numpy().tobytes() == s.numpy().tobytes()

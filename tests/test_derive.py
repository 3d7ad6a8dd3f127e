"""Staged derivation runs only toward float inputs: no gradient toward a
constant is recorded, the forward variant saves only what the needed
gradients read, and the gradients stay bit-identical to eager."""
import hashlib

import numpy as np
import pytest

import stageflow as sf
from stageflow import staging
from stageflow.backprop import backward_for, get_forward_backward

from helpers import leapfrog
from test_optimize import _mlp_variant, _pinned_graphs


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


def test_derived_graphs_serialize_to_pinned_bytes():
    # Every forward variant, full backward and single-input masked backward
    # of the graphs above and of the optimizer's pinned graphs.
    digest, count = hashlib.sha256(), 0
    for gf in _graphs() + _pinned_graphs():
        fwd, bwd_cf, _, float_pos = get_forward_backward(gf)
        derived = [fwd, bwd_cf.graph] + [
            backward_for(gf, tuple(j == i for j in range(len(float_pos)))).graph
            for i in range(len(float_pos))
        ]
        for g in derived:
            blob = sf.serialize(g)
            digest.update(len(blob).to_bytes(4, "little"))
            digest.update(blob)
            count += 1
    assert count == 287
    assert digest.hexdigest() == (
        "1c8bdeb33815c5034ada0b9d7961a0bda3b1c292f3d981265fcc74d0a79ac7d2"
    )


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


def test_a_nested_call_runs_its_callees_masked_backward():
    # ``b`` is a constant in ``outer``, so the call node's backward asks the
    # callee only for d/da: two muls (d/db would add two more).
    inner = sf.stage(lambda a, b: sf.reduce_sum(sf.exp(a) * sf.exp(b)))

    def outer(x):
        return inner(x, sf.constant(np.array([0.5, -1.0, 2.0], np.float32)))

    x = sf.constant(np.array([0.25, 1.5, -0.75], np.float32))
    bwd = get_forward_backward(_taped_graph(outer, x))[1].graph
    (call,) = [n for n in bwd.nodes if n.op == "call_function"]
    assert bwd.library[call.attrs["function"]].op_counts()["mul"] == 2

    def run(fn):
        with sf.Tape() as tape:
            tape.watch(x)
            y = fn(x)
        return tape.gradient(y, x).numpy().tobytes()

    eager, staged = _eager_and_staged(outer, run)
    assert staged == eager


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

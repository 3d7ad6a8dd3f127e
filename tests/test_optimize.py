"""The optimizer's output is pinned: ``optimize`` is ``prune`` then
``constant_fold``, gives the same graph as folding first, and hands back a
graph it does not change as the same object. A new graph is built once per
pass and derived graph, and the counts are pinned."""
import hashlib

import numpy as np
import pytest

import stageflow as sf
from stageflow.graph import GraphFunction, constant_fold, optimize, prune

from helpers import build_mlp, leapfrog, random_graph


def _mlp_variant(width, depth, rng):
    """An MLP loss of ``depth`` hidden layers of ``width`` units and its
    variables, as the benchmark's retrace variants build them."""
    dims = [16] + [width] * depth + [1]
    layers = [
        (sf.Variable(rng.standard_normal((a, b)).astype(np.float32)),
         sf.Variable(rng.standard_normal(b).astype(np.float32)))
        for a, b in zip(dims[:-1], dims[1:])
    ]

    def loss(x, y):
        h = x
        for k, (w, b) in enumerate(layers):
            h = sf.add(sf.matmul(h, w.read_value()), b.read_value())
            if k < len(layers) - 1:
                h = sf.relu(h)
        err = sf.sub(h, y)
        return sf.reduce_mean(sf.mul(err, err))

    return loss, [v for layer in layers for v in layer]


def _traced_graph(pf, args):
    pf(*args)
    return pf.get_concrete(pf.trace_key_for(*args)).graph


def _pinned_graphs():
    """The optimized forward graphs of the staged leapfrog and of MLP and
    leapfrog retrace variants, in a fixed order."""
    rng = np.random.default_rng(14)

    def f32(*shape):
        return sf.constant(rng.standard_normal(shape).astype(np.float32))

    graphs = [_traced_graph(sf.stage(leapfrog(10)), (f32(32, 2), f32(32, 2)))]
    for width in (16, 32, 64):
        for depth in (1, 2, 3):
            pf = sf.stage(_mlp_variant(width, depth, rng)[0])
            for batch in (4, 28):
                graphs.append(_traced_graph(pf, (f32(batch, 16), f32(batch, 1))))
    for dim in (2, 4, 8):
        for steps in (1, 2, 3):
            pf = sf.stage(leapfrog(steps))
            for batch in (4, 28):
                graphs.append(_traced_graph(pf, (f32(batch, dim), f32(batch, dim))))
    return graphs


class TestPinnedOutput:
    def test_optimized_forward_graphs_serialize_to_pinned_bytes(self):
        graphs = _pinned_graphs()
        assert len(graphs) == 37
        assert [len(g.nodes) for g in graphs[:3]] == [170, 12, 12]
        digest = hashlib.sha256()
        for g in graphs:
            blob = sf.serialize(g)
            digest.update(len(blob).to_bytes(4, "little"))
            digest.update(blob)
        assert digest.hexdigest() == (
            "5c0fdec143bbd77ee3fbb06308e1c9bf1a31436ee543f5c532478528b7b63837"
        )


class TestPruneThenFold:
    @pytest.mark.parametrize("with_dead", [0, 4])
    def test_equals_fold_then_prune_on_random_graphs(self, with_dead):
        for seed in range(60):
            gf, _, _ = random_graph(seed, max_nodes=25, with_dead=with_dead)
            assert optimize(gf).structurally_equal(prune(constant_fold(gf))), seed

    @pytest.mark.parametrize("with_dead", [0, 4])
    def test_equals_prune_then_fold_on_random_graphs(self, with_dead):
        for seed in range(60):
            gf, _, _ = random_graph(seed, max_nodes=25, with_dead=with_dead)
            assert optimize(gf).structurally_equal(constant_fold(prune(gf))), seed

    def test_equals_fold_then_prune_with_a_stateful_node(self):
        for seed in range(20):
            v = sf.Variable(np.zeros((2, 2)))
            gf, _, _ = random_graph(seed, max_nodes=20, with_dead=3, stateful_var=v)
            assert optimize(gf).structurally_equal(prune(constant_fold(gf))), seed

    def test_unchanged_graph_is_the_same_object(self):
        for seed in range(20):
            gf, _, _ = random_graph(seed, max_nodes=25, with_dead=3)
            opt = optimize(gf)
            assert optimize(opt) is opt
            assert prune(opt) is opt
            assert constant_fold(opt) is opt

    def test_staged_graph_is_a_fixed_point(self):
        rng = np.random.default_rng(3)
        _, forward = build_mlp(rng)
        x = sf.constant(rng.standard_normal((4, 16)).astype(np.float32))
        gf = _traced_graph(sf.stage(lambda a: sf.reduce_sum(forward(a))), (x,))
        assert optimize(gf) is gf


@pytest.fixture
def constructions(monkeypatch):
    """The number of GraphFunctions built so far, as a one-item list."""
    count = [0]
    init = GraphFunction.__init__

    def counting(self, *args, **kwargs):
        count[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(GraphFunction, "__init__", counting)
    return count


class TestConstructions:
    def test_optimize_that_prunes_and_folds_builds_one_graph(self, constructions):
        checked = 0
        for seed in range(30):
            gf, _, _ = random_graph(seed, max_nodes=25, with_dead=3)
            pruned = prune(gf)
            if pruned is gf or constant_fold(pruned) is pruned:
                continue
            before = constructions[0]
            optimize(gf)
            assert constructions[0] - before == 1, seed
            checked += 1
        assert checked >= 10

    def test_new_taped_staged_mlp_call_builds_four_graphs(self, constructions):
        # The traced forward and backward (neither optimize changes them),
        # the forward variant, and the backward of the variables' gradients.
        rng = np.random.default_rng(0)
        params, forward = build_mlp(rng)
        loss = sf.stage(lambda x: sf.reduce_sum(sf.mul(forward(x), forward(x))))
        x = sf.constant(rng.standard_normal((4, 16)).astype(np.float32))
        with sf.Tape() as tape:
            y = loss(x)
        tape.gradient(y, list(params.values()))
        assert constructions[0] == 4

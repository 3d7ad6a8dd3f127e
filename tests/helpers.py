"""Shared test machinery: oracles and random-program generators.

The finite-difference oracle and the random pure-function / random-graph
generators live here so the unit tests and the acceptance suite drive the
same machinery at different scales.
"""
from __future__ import annotations

import numpy as np

import stageflow as sf
from stageflow import graph, ops as sfops
from stageflow.graph import GraphBuilder, GraphFunction
from stageflow.dtypes import DType


def skip_node_check(monkeypatch):
    """Make ``GraphBuilder.add_node`` append nodes as given, unchecked, as a
    writer of hostile graphs would, until ``monkeypatch.undo()``."""
    monkeypatch.setattr(graph, "checked_node", lambda k, op, inputs, attrs, device, specs,
                        scope: (op, tuple(inputs), attrs, device, tuple(specs)))


# ---------------------------------------------------------------------------
# Finite-difference gradient oracle
# ---------------------------------------------------------------------------


def central_diff(loss_fn, arrays, wrt, h):
    """Central finite differences of a scalar loss w.r.t. arrays[wrt].

    ``loss_fn`` maps a list of numpy arrays to a python float and is
    evaluated through the same eager kernels the tape differentiates, which
    keeps the oracle independent of the tape while sharing the arithmetic.
    """
    work = [a.copy() for a in arrays]
    grad = np.zeros(work[wrt].shape, dtype=np.float64)
    flat = work[wrt].reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        lp = loss_fn(work)
        flat[i] = orig - h
        lm = loss_fn(work)
        flat[i] = orig
        gflat[i] = (lp - lm) / (2.0 * h)
    return grad


def max_rel_err(got, want, floor):
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(want), np.abs(got)), floor)
    return float(np.max(np.abs(got - want) / denom)) if got.size else 0.0


# Differentiable deterministic ops with samplers that stay away from
# non-smooth or ill-conditioned inputs (relu kink, log/div near zero).
def _sample(rng, shape, lo, hi):
    return rng.uniform(lo, hi, size=shape)


FD_OPS = {
    "identity": dict(arity=1, shapes=[(3,)], lo=-2.0, hi=2.0),
    "add": dict(arity=2, shapes=[(2, 3), (2, 3)], lo=-2.0, hi=2.0),
    "sub": dict(arity=2, shapes=[(2, 3), (1, 3)], lo=-2.0, hi=2.0),
    "mul": dict(arity=2, shapes=[(2, 3), (2, 3)], lo=-2.0, hi=2.0),
    "div": dict(arity=2, shapes=[(2, 3), (2, 3)], lo=1.0, hi=2.0),
    "neg": dict(arity=1, shapes=[(4,)], lo=-2.0, hi=2.0),
    "exp": dict(arity=1, shapes=[(4,)], lo=-1.0, hi=1.0),
    "log": dict(arity=1, shapes=[(4,)], lo=1.0, hi=2.0),
    "softplus": dict(arity=1, shapes=[(4,)], lo=-2.0, hi=2.0),
    "relu": dict(arity=1, shapes=[(4,)], lo=0.05, hi=2.0, mirror=True),
    "matmul": dict(arity=2, shapes=[(2, 3), (3, 2)], lo=0.2, hi=1.0),
    "transpose": dict(arity=1, shapes=[(2, 3)], lo=-2.0, hi=2.0),
    "reshape": dict(arity=1, shapes=[(2, 3)], lo=-2.0, hi=2.0,
                    attrs={"shape": (3, 2)}),
    "broadcast_to": dict(arity=1, shapes=[(1, 3)], lo=-2.0, hi=2.0,
                         attrs={"shape": (4, 3)}),
    "reduce_sum": dict(arity=1, shapes=[(2, 3)], lo=-2.0, hi=2.0,
                       attrs={"axes": (1,), "keepdims": False}),
    "reduce_mean": dict(arity=1, shapes=[(3, 2)], lo=-2.0, hi=2.0,
                        attrs={"axes": None, "keepdims": False}),
}


def sample_fd_case(op_name, spec, rng, dtype: DType):
    np_dt = dtype.np_dtype
    arrays = []
    for shape in spec["shapes"]:
        a = _sample(rng, shape, spec["lo"], spec["hi"])
        if spec.get("mirror"):
            a *= rng.choice([-1.0, 1.0], size=a.shape)
        arrays.append(a.astype(np_dt))
    out_probe = sfops.dispatch(
        op_name,
        [sf.constant(a) for a in arrays],
        spec.get("attrs"),
    )[0]
    weights = _sample(rng, out_probe.shape, 0.5, 1.5).astype(np_dt)
    return arrays, weights


def fd_loss_fn(op_name, spec, weights):
    # The op under test runs at its own dtype; the probe loss accumulates at
    # float64 on the host so the finite-difference oracle is not polluted by
    # reduction rounding.
    attrs = spec.get("attrs")
    weights64 = np.asarray(weights, dtype=np.float64)

    def loss(arrays):
        tensors = [sf.constant(a) for a in arrays]
        out = sfops.dispatch(op_name, tensors, attrs)[0]
        return float(np.sum(out.numpy().astype(np.float64) * weights64))

    return loss


def tape_grads(op_name, spec, arrays, weights):
    attrs = spec.get("attrs")
    tensors = [sf.constant(a) for a in arrays]
    with sf.Tape() as t:
        for x in tensors:
            t.watch(x)
        out = sfops.dispatch(op_name, tensors, attrs)[0]
        loss = sf.reduce_sum(sf.mul(out, sf.constant(weights)))
    return [g.numpy() for g in t.gradient(loss, tensors)]


# ---------------------------------------------------------------------------
# Random pure host functions (eager vs staged equivalence)
# ---------------------------------------------------------------------------

_UNARY = ("neg", "relu", "softplus", "identity", "exp")
_BINARY = ("add", "sub", "mul")


def random_pure_function(seed, max_depth=8, max_dim=16):
    """A random composition of stateless ops plus matching sample inputs.

    Returns (host_fn, inputs). The host function replays a recorded recipe,
    so tracing it and running it eagerly execute identical op sequences.
    """
    rng = np.random.default_rng(seed)
    dtype = sf.float32 if rng.integers(2) else sf.float64
    n_inputs = int(rng.integers(1, 4))
    shapes = []
    for _ in range(n_inputs):
        kind = rng.integers(3)
        if kind == 0:
            shapes.append(())
        elif kind == 1:
            shapes.append((int(rng.integers(1, max_dim + 1)),))
        else:
            shapes.append(
                (int(rng.integers(1, max_dim + 1)), int(rng.integers(1, max_dim + 1)))
            )
    inputs = [
        sf.constant(rng.uniform(-1.5, 1.5, size=s).astype(dtype.np_dtype))
        for s in shapes
    ]

    recipe = []  # (op, operand pool indices, attrs)
    pool_shapes = list(shapes)
    depth = int(rng.integers(1, max_depth + 1))
    for _ in range(depth):
        choice = rng.integers(4)
        if choice == 0:  # unary elementwise
            i = int(rng.integers(len(pool_shapes)))
            op = _UNARY[int(rng.integers(len(_UNARY)))]
            recipe.append((op, (i,), None))
            pool_shapes.append(pool_shapes[i])
        elif choice == 1:  # binary broadcastable (same value is always safe)
            i = int(rng.integers(len(pool_shapes)))
            j = _find_broadcastable(pool_shapes, i, rng)
            op = _BINARY[int(rng.integers(len(_BINARY)))]
            recipe.append((op, (i, j), None))
            pool_shapes.append(
                tuple(sf.broadcast_shapes(pool_shapes[i], pool_shapes[j]))
            )
        elif choice == 2:  # reduction
            i = int(rng.integers(len(pool_shapes)))
            recipe.append(("reduce_sum", (i,), {"axes": None, "keepdims": False}))
            pool_shapes.append(())
        else:  # matmul if a compatible pair exists, else reshape to flat
            pair = _find_matmul_pair(pool_shapes, rng)
            if pair is not None:
                i, j = pair
                recipe.append(("matmul", (i, j), None))
                pool_shapes.append((pool_shapes[i][0], pool_shapes[j][1]))
            else:
                i = int(rng.integers(len(pool_shapes)))
                n = int(np.prod(pool_shapes[i], dtype=np.int64))
                recipe.append(("reshape", (i,), {"shape": (n,)}))
                pool_shapes.append((n,))

    def host_fn(*args):
        pool = list(args)
        for op, idxs, attrs in recipe:
            pool.append(sfops.dispatch(op, [pool[k] for k in idxs], attrs)[0])
        return pool[-1]

    return host_fn, inputs


def _find_broadcastable(pool_shapes, i, rng):
    order = rng.permutation(len(pool_shapes))
    for j in order:
        try:
            sf.broadcast_shapes(pool_shapes[i], pool_shapes[int(j)])
            return int(j)
        except sf.errors.BroadcastIncompatible:
            continue
    return i


def _find_matmul_pair(pool_shapes, rng):
    mats = [k for k, s in enumerate(pool_shapes) if len(s) == 2]
    rng.shuffle(mats)
    for i in mats:
        for j in mats:
            if pool_shapes[i][1] == pool_shapes[j][0]:
                return i, j
    return None


# ---------------------------------------------------------------------------
# Random stateless graphs built directly on the builder (optimizer tests)
# ---------------------------------------------------------------------------


def random_graph(seed, max_nodes=40, with_dead=0, stateful_var=None):
    """A random stateless GraphFunction plus matching concrete inputs.

    ``with_dead`` appends that many unused stateless nodes; passing a
    Variable adds one assign_variable node (stateful, output-free).
    Returns (graph, inputs, captured) where captured holds the variable.
    """
    rng = np.random.default_rng(seed)
    b = GraphBuilder()
    n_inputs = int(rng.integers(1, 3))
    shape = (2, 2)
    refs = []
    specs = []
    for i in range(n_inputs):
        refs.append(b.add_placeholder(f"x{i}", sf.float64, shape))
        specs.append((sf.float64, shape))
    inputs = [
        sf.constant(rng.uniform(-1.0, 1.0, size=shape)) for _ in range(n_inputs)
    ]
    # seed constants so folding has something to chew on
    for _ in range(int(rng.integers(1, 3))):
        value = sf.constant(rng.uniform(-1.0, 1.0, size=shape))
        (r,) = b.add_node("constant", [], {"value": value}, None,
                          [(sf.float64, shape)])
        refs.append(r)
        specs.append((sf.float64, shape))

    def add_random_node():
        op = ("add", "sub", "mul", "relu", "neg", "matmul", "identity")[
            int(rng.integers(7))
        ]
        if op in ("add", "sub", "mul", "matmul"):
            i, j = int(rng.integers(len(refs))), int(rng.integers(len(refs)))
            (r,) = b.add_node(op, [refs[i], refs[j]], {}, None,
                              [(sf.float64, shape)])
        else:
            i = int(rng.integers(len(refs)))
            (r,) = b.add_node(op, [refs[i]], {}, None, [(sf.float64, shape)])
        refs.append(r)
        specs.append((sf.float64, shape))

    # Body size must not depend on with_dead so the dead-injected graph is
    # the clean graph plus exactly `with_dead` extra nodes.
    body = int(rng.integers(3, max_nodes - 1))
    for _ in range(body):
        add_random_node()
    out_ref = refs[-1]

    for _ in range(with_dead):
        add_random_node()
    # outputs reference only the pre-dead value
    captured = []
    if stateful_var is not None:
        vref = b.add_placeholder("state", stateful_var.dtype,
                                 stateful_var.shape, is_variable_ref=True)
        b.add_node("assign_variable", [vref, out_ref], {}, None, [])
        captured.append(stateful_var)
    gf = b.finalize(f"random_{seed}", [out_ref], ["out"])
    return gf, inputs, captured


def build_mlp(rng, in_dim=16, hidden=32, out_dim=1):
    params = {
        "w1": sf.Variable(rng.standard_normal((in_dim, hidden)).astype(np.float32) * 0.3),
        "b1": sf.Variable(np.zeros(hidden, dtype=np.float32)),
        "w2": sf.Variable(rng.standard_normal((hidden, out_dim)).astype(np.float32) * 0.3),
        "b2": sf.Variable(np.zeros(out_dim, dtype=np.float32)),
    }

    def forward(x):
        h = sf.relu(sf.add(sf.matmul(x, params["w1"].read_value()),
                           params["b1"].read_value()))
        return sf.add(sf.matmul(h, params["w2"].read_value()),
                      params["b2"].read_value())

    return params, forward


def leapfrog(n_steps, step=0.1):
    """A leapfrog integrator of ``n_steps`` steps, the force by a nested tape."""
    half = step / 2.0

    def force(q):
        with sf.Tape() as tape:
            tape.watch(q)
            u = sf.mul(sf.reduce_sum(sf.mul(q, q)), 0.5)
        return tape.gradient(u, q)

    def trajectory(q, p):
        for _ in range(n_steps):
            p = sf.sub(p, sf.mul(force(q), half))
            q = sf.add(q, sf.mul(p, step))
            p = sf.sub(p, sf.mul(force(q), half))
        return q, p

    return trajectory

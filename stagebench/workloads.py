"""The benchmark's workloads, written against the public stageflow API.

Each workload makes its host inputs from the seed when constructed, and
its runtime objects (one model per mode, from the same inputs) in
``build``. The harness then drives four calls:

* ``pre(mode, i)``: untimed; inputs for step ``i`` plus host copies of
  everything the numpy reference needs;
* ``step(mode, i, pre)``: timed; one step in that mode;
* ``host(mode, i, pre, out)``: untimed; the step's outputs as numpy arrays,
  plus any problems found by checks that need no reference;
* ``reference(pre)``: bare numpy, from the same inputs.

Why these three (the paper's two claims, plus the staging machinery):

* ``mlp_train``: kernels and the executor's scheduling of a wide backward
  graph dominate; staging should gain little. A checkpoint round trip
  every ``CKPT_EVERY`` steps reads the variables beside the training reads.
* ``leapfrog``: the paper's L2HMC regime. Per-op overhead dominates and
  kernels are tiny, so staging should pay off.
* ``retrace``: a seeded stream of calls to MLP and leapfrog variants, a
  stated share of them new, so tracing, optimization, derivation, plan
  compilation and graph serialization run inside the timed steps.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

import stageflow as sf
from stageflow import ops

from . import reference as ref

MODES = ("eager", "staged")

# Relative tolerances. Float32 math against a float64 reference; and eager
# against staged, which run the same kernels in the same order.
TOL_REFERENCE = 1e-4
TOL_MODES = 1e-6


def f32(arr) -> sf.Tensor:
    arr = np.asarray(arr, dtype=np.float32)
    return sf.tensor_from_host(arr.reshape(-1), arr.shape, sf.float32)


class Workload:
    name = ""
    SEGMENT_PAIRS = 0  # pairs run on one runtime before the next fresh one

    def build(self) -> None:
        """Create the runtime objects; needs a live runtime."""

    def pre(self, mode: str, i: int):
        raise NotImplementedError

    def step(self, mode: str, i: int, pre):
        raise NotImplementedError

    def host(self, mode: str, i: int, pre, out) -> Tuple[Dict[str, np.ndarray], List[str]]:
        raise NotImplementedError

    def reference(self, pre) -> Dict[str, np.ndarray]:
        raise NotImplementedError

    def examples(self, i: int) -> int:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# mlp_train
# ---------------------------------------------------------------------------


class MLP(sf.Trackable):
    """2-layer regression MLP; its variables are checkpoint edges."""

    def __init__(self, w1, b1, w2, b2):
        super().__init__()
        self.w1 = sf.Variable(f32(w1))
        self.b1 = sf.Variable(f32(b1))
        self.w2 = sf.Variable(f32(w2))
        self.b2 = sf.Variable(f32(b2))

    @property
    def params(self) -> List[sf.Variable]:
        return [self.w1, self.b1, self.w2, self.b2]


class MLPTrain(Workload):
    name = "mlp_train"
    BATCH, IN, HIDDEN, OUT = 512, 128, 256, 1
    LR = 0.01
    N_BATCHES = 8
    CKPT_EVERY = 8
    SEGMENT_PAIRS = 96
    GRAD_NAMES = ("dw1", "db1", "dw2", "db2")

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.data = []
        for _ in range(self.N_BATCHES):
            x = (rng.standard_normal((self.BATCH, self.IN)) * 0.5).astype(np.float32)
            y = rng.standard_normal((self.BATCH, self.OUT)).astype(np.float32)
            self.data.append((x, y))
        self.init = (
            rng.standard_normal((self.IN, self.HIDDEN)) * 0.05,
            np.zeros(self.HIDDEN),
            rng.standard_normal((self.HIDDEN, self.OUT)) * 0.05,
            np.zeros(self.OUT),
        )

    def build(self):
        self.tensors = [(f32(x), f32(y)) for x, y in self.data]
        zeros = tuple(np.zeros_like(a) for a in self.init)
        self.models = {m: MLP(*self.init) for m in MODES}
        self.twins = {m: MLP(*zeros) for m in MODES}
        self.forward_loss = {}
        self.apply_updates = {}
        for mode in MODES:
            fwd, upd = self._functions(self.models[mode])
            if mode == "staged":
                fwd, upd = sf.stage(fwd), sf.stage(upd)
            self.forward_loss[mode] = fwd
            self.apply_updates[mode] = upd

    def _functions(self, model: MLP):
        def forward_loss(x, y):
            h = ops.relu(ops.add(ops.matmul(x, model.w1.read_value()),
                                 model.b1.read_value()))
            pred = ops.add(ops.matmul(h, model.w2.read_value()),
                           model.b2.read_value())
            err = ops.sub(pred, y)
            return ops.reduce_mean(ops.mul(err, err))

        def apply_updates(g1, g2, g3, g4):
            for v, g in zip(model.params, (g1, g2, g3, g4)):
                v.assign_add(ops.mul(g, -self.LR))

        return forward_loss, apply_updates

    def examples(self, i: int) -> int:
        return self.BATCH

    def pre(self, mode, i):
        x, y = self.data[i % self.N_BATCHES]
        xt, yt = self.tensors[i % self.N_BATCHES]
        return x, y, xt, yt, [v.numpy() for v in self.models[mode].params]

    def step(self, mode, i, pre):
        _, _, x, y, _ = pre
        model = self.models[mode]
        with sf.Tape() as tape:
            loss = self.forward_loss[mode](x, y)
        grads = tape.gradient(loss, model.params)
        self.apply_updates[mode](*grads)
        report = None
        if i % self.CKPT_EVERY == self.CKPT_EVERY - 1:
            blob = sf.save(model).to_bytes()
            report = sf.restore(self.twins[mode], sf.Checkpoint.from_bytes(blob))
        return loss, grads, report

    def host(self, mode, i, pre, out):
        loss, grads, report = out
        got = {"loss": loss.numpy()}
        got.update((n, g.numpy()) for n, g in zip(self.GRAD_NAMES, grads))
        problems = []
        after = [v.numpy() for v in self.models[mode].params]
        for name, before, g, now in zip(self.GRAD_NAMES, pre[4], grads, after):
            want = before + g.numpy() * np.float32(-self.LR)
            err = ref.max_rel_err(now, want)
            if not err <= TOL_MODES:
                problems.append(f"update of {name[1:]}: rel err {err:.2e}")
        if report is not None:
            if report.unmatched_in_checkpoint or report.unmatched_in_memory or report.conflicts:
                problems.append(f"checkpoint restore did not match: {report}")
            twin = [v.numpy() for v in self.twins[mode].params]
            if not all(np.array_equal(a, b) for a, b in zip(twin, after)):
                problems.append("restored twin differs from the saved model")
        return got, problems

    def reference(self, pre):
        x, y, _, _, (w1, b1, w2, b2) = pre
        loss, grads = ref.mlp_loss_and_grads(x, y, [(w1, b1), (w2, b2)])
        out = {"loss": np.asarray(loss)}
        out.update(zip(self.GRAD_NAMES, grads))
        return out


# ---------------------------------------------------------------------------
# leapfrog
# ---------------------------------------------------------------------------


def make_trajectory(n_steps: int, step: float):
    half = step / 2.0

    def force(q):
        # dU/dq for U(q) = sum(q^2) / 2, taken by a nested tape.
        with sf.Tape() as tape:
            tape.watch(q)
            u = ops.mul(ops.reduce_sum(ops.mul(q, q)), 0.5)
        return tape.gradient(u, q)

    def trajectory(q, p):
        for _ in range(n_steps):
            p = ops.sub(p, ops.mul(force(q), half))
            q = ops.add(q, ops.mul(p, step))
            p = ops.sub(p, ops.mul(force(q), half))
        return q, p

    return trajectory


class Leapfrog(Workload):
    name = "leapfrog"
    BATCH, DIM, N_STEPS, STEP = 32, 2, 10, 0.1
    SEGMENT_PAIRS = 100

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.q0 = rng.standard_normal((self.BATCH, self.DIM))
        self.p0 = rng.standard_normal((self.BATCH, self.DIM))

    def build(self):
        self.state = {m: (f32(self.q0), f32(self.p0)) for m in MODES}
        trajectory = make_trajectory(self.N_STEPS, self.STEP)
        self.trajectory = {"eager": trajectory, "staged": sf.stage(trajectory)}

    def examples(self, i: int) -> int:
        return self.BATCH

    def pre(self, mode, i):
        q, p = self.state[mode]
        return q.numpy(), p.numpy()

    def step(self, mode, i, pre):
        q, p = self.trajectory[mode](*self.state[mode])
        self.state[mode] = (q, p)
        return q, p

    def host(self, mode, i, pre, out):
        return {"q": out[0].numpy(), "p": out[1].numpy()}, []

    def reference(self, pre):
        q, p = ref.leapfrog(pre[0], pre[1], self.N_STEPS, self.STEP)
        return {"q": q, "p": p}


# ---------------------------------------------------------------------------
# retrace
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VariantSpec:
    kind: str  # "mlp" or "leapfrog"
    width: int  # hidden width, or the leapfrog state dimension
    depth: int  # hidden layers, or leapfrog steps
    seed: int


@dataclass(frozen=True)
class Call:
    variant: int
    batch: int
    new: bool  # the (function, input shape) pair was not seen before


class CallStream:
    """A seeded, endless stream of calls; the same seed gives the same calls.

    Calls visit the cells of ``GRID`` in rounds, each round a seeded
    permutation of the cells (the first starts with ``FIRST``, so set-up
    times compare across seeds); every 18 calls so hit every cell once. A
    call brings a (function, batch) pair not seen before when its cell has
    none yet, and otherwise on every ``NEW_EVERY``-th call: a new function
    of the cell or a new batch size for one of its functions, by a seeded
    coin. Every other call repeats a seen pair of its cell, chosen
    uniformly, so it hits the trace cache. The share of new calls is thus
    fixed by position, not drawn: of the first 108 calls, 18 + 22 are new.
    """

    NEW_EVERY = 4
    GRID = tuple(
        [("mlp", w, d) for w in (16, 32, 64) for d in (1, 2, 3)]
        + [("leapfrog", w, d) for w in (2, 4, 8) for d in (1, 2, 3)]
    )
    FIRST = ("mlp", 32, 2)
    BATCHES = tuple(range(4, 65, 4))

    def __init__(self, seed: int):
        self._rng = np.random.default_rng([seed, 0])
        self.variants: List[VariantSpec] = []
        rest = [c for c in self.GRID if c != self.FIRST]
        self._cells: List[Tuple[str, int, int]] = [self.FIRST] + [
            rest[j] for j in self._rng.permutation(len(rest))
        ]
        self._by_cell: Dict[Tuple[str, int, int], List[int]] = {}
        self._unseen: List[List[int]] = []  # per variant, batches left, in order
        self._seen: List[List[int]] = []  # per variant, batches called
        self.calls: List[Call] = []

    def call(self, i: int) -> Call:
        while len(self.calls) <= i:
            self.calls.append(self._next())
        return self.calls[i]

    def _next(self) -> Call:
        rng = self._rng
        if not self._cells:
            self._cells = [self.GRID[j] for j in rng.permutation(len(self.GRID))]
        cell = self._cells.pop(0)
        fns = self._by_cell.setdefault(cell, [])
        seen = [(v, b) for v in fns for b in self._seen[v]]
        if seen and len(self.calls) % self.NEW_EVERY:
            v, b = seen[int(rng.integers(len(seen)))]
            return Call(v, b, False)
        open_fns = [v for v in fns if self._unseen[v]]
        if open_fns and rng.random() < 0.5:
            v = open_fns[int(rng.integers(len(open_fns)))]
        else:
            kind, width, depth = cell
            self.variants.append(VariantSpec(kind, width, depth, int(rng.integers(2**31))))
            self._unseen.append([int(b) for b in rng.permutation(self.BATCHES)])
            self._seen.append([])
            v = len(self.variants) - 1
            fns.append(v)
        b = self._unseen[v].pop()
        self._seen[v].append(b)
        return Call(v, b, True)


class MLPVariant:
    IN = 16

    def __init__(self, spec: VariantSpec):
        rng = np.random.default_rng(spec.seed)
        dims = [self.IN] + [spec.width] * spec.depth + [1]
        self.layers = [
            (sf.Variable(f32(rng.standard_normal((a, b)) / np.sqrt(a))),
             sf.Variable(f32(rng.standard_normal(b) * 0.1)))
            for a, b in zip(dims[:-1], dims[1:])
        ]
        self.params = [v for layer in self.layers for v in layer]
        self.eager = self.loss
        self.staged = sf.stage(self.loss)

    def loss(self, x, y):
        h = x
        for k, (w, b) in enumerate(self.layers):
            h = ops.add(ops.matmul(h, w.read_value()), b.read_value())
            if k < len(self.layers) - 1:
                h = ops.relu(h)
        err = ops.sub(h, y)
        return ops.reduce_mean(ops.mul(err, err))

    def inputs(self, rng, batch):
        return (rng.standard_normal((batch, self.IN)).astype(np.float32),
                rng.standard_normal((batch, 1)).astype(np.float32))

    def run(self, fn, args):
        with sf.Tape() as tape:
            loss = fn(*args)
        return [loss] + tape.gradient(loss, self.params)

    def names(self):
        return ["loss"] + [f"d{n}{k}" for k in range(len(self.layers)) for n in "wb"]

    def reference(self, host_args, host_params):
        pairs = list(zip(host_params[::2], host_params[1::2]))
        loss, grads = ref.mlp_loss_and_grads(host_args[0], host_args[1], pairs)
        return [np.asarray(loss)] + grads


class LeapfrogVariant:
    STEP = 0.1

    def __init__(self, spec: VariantSpec):
        self.dim, self.n_steps = spec.width, spec.depth
        self.params: List[sf.Variable] = []
        self.eager = make_trajectory(self.n_steps, self.STEP)
        self.staged = sf.stage(self.eager)

    def inputs(self, rng, batch):
        return (rng.standard_normal((batch, self.dim)).astype(np.float32),
                rng.standard_normal((batch, self.dim)).astype(np.float32))

    def run(self, fn, args):
        q0 = args[0]
        with sf.Tape() as tape:
            tape.watch(q0)
            q, p = fn(*args)
            target = ops.add(ops.reduce_sum(q), ops.reduce_sum(p))
        return [q, p, tape.gradient(target, q0)]

    def names(self):
        return ["q", "p", "dq0"]

    def reference(self, host_args, host_params):
        q, p = ref.leapfrog(host_args[0], host_args[1], self.n_steps, self.STEP)
        grad = ref.leapfrog_sum_grad(self.n_steps, self.STEP)
        return [q, p, np.full(host_args[0].shape, grad)]


class Retrace(Workload):
    name = "retrace"
    SEGMENT_PAIRS = 108  # six rounds of the grid; 40 of the calls are new

    def __init__(self, seed: int):
        self.seed = seed
        self.stream = CallStream(seed)
        self.variants: List[object] = []
        self._pre_cache: Optional[Tuple[int, tuple]] = None

    def _variant(self, v: int):
        while len(self.variants) <= v:
            spec = self.stream.variants[len(self.variants)]
            cls = MLPVariant if spec.kind == "mlp" else LeapfrogVariant
            self.variants.append(cls(spec))
        return self.variants[v]

    def examples(self, i: int) -> int:
        return self.stream.call(i).batch

    def pre(self, mode, i):
        # Both modes of a pair get the same call and the same inputs.
        if self._pre_cache is None or self._pre_cache[0] != i:
            call = self.stream.call(i)
            variant = self._variant(call.variant)
            host_args = variant.inputs(np.random.default_rng([self.seed, 1, i]), call.batch)
            args = tuple(f32(a) for a in host_args)
            host_params = [v.numpy() for v in variant.params]
            self._pre_cache = (i, (variant, host_args, args, host_params))
        return self._pre_cache[1]

    def step(self, mode, i, pre):
        variant, _, args, _ = pre
        if mode == "eager":
            return variant.run(variant.eager, args), None
        pf = variant.staged
        cached = pf.cache_size
        outs = variant.run(pf, args)
        loaded_outs = None
        if pf.cache_size != cached:
            # A new graph: round-trip it through the wire format and run the
            # loaded copy on the same inputs.
            cf = pf.get_concrete(pf.trace_key_for(*args))
            loaded = sf.deserialize(sf.serialize(cf.graph))
            loaded_outs = sf.execute(loaded, list(args), captured=cf.materialize_captured())
        return outs, loaded_outs

    def host(self, mode, i, pre, out):
        variant = pre[0]
        outs, loaded_outs = out
        got = {n: t.numpy() for n, t in zip(variant.names(), outs)}
        problems = []
        if loaded_outs is not None:
            n_fwd = len(loaded_outs)
            for name, t, live in zip(variant.names()[:n_fwd], loaded_outs, outs):
                if not np.array_equal(t.numpy(), live.numpy()):
                    problems.append(f"deserialized graph output {name} differs")
        return got, problems

    def reference(self, pre):
        variant, host_args, _, host_params = pre
        return dict(zip(variant.names(), variant.reference(host_args, host_params)))


WORKLOADS = {cls.name: cls for cls in (MLPTrain, Leapfrog, Retrace)}

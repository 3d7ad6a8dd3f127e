"""Benchmark harness: eager vs staged at desk scale.

Three workloads:

* ``mlp_train``: one regression train step of a 2-layer MLP (matmul/relu,
  mean-squared loss, tape gradients, assign_add updates). Staged mode stages
  the forward/loss function and the update application as two functions.
* ``leapfrog``: ten position/momentum steps of a symplectic integrator over
  a 2-d quadratic log-density (step size 0.1), with the force computed by a
  gradient tape each step. Staged mode stages the whole trajectory.
* ``microop_loop``: a chain of 1000 scalar adds; pure dispatch overhead.

Before any timing, both modes run with the same seed and their per-iteration
results must agree (1e-6 for trajectories, 1e-5 elsewhere); a mismatch
raises NumericalDivergence and no throughput is reported. Staged trace and
optimization time lands in the warmup/setup phase and is reported
separately, never inside steady-state throughput. Minor page faults are
counted around the timed loops (``getrusage``), where ``resource`` exists,
and so are tape backwards replayed from a plan (``RuntimeStats.tape_replays``)
and staged function calls (``RuntimeStats.staged_calls``).
"""
from __future__ import annotations

import csv
import statistics
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

try:
    import resource
except ImportError:  # not on Windows
    resource = None

from . import ops
from .errors import ConfigError, NumericalDivergence, StorageError
from .runtime import get_runtime
from .staging import stage
from .state import Variable
from .tape import Tape
from .tensor import Tensor, tensor_from_host
from .dtypes import float32

WORKLOADS = ("mlp_train", "leapfrog", "microop_loop")
MODES = ("eager", "staged")


@dataclass(frozen=True)
class BenchConfig:
    workload: str
    mode: str
    batch_size: int = 8
    iterations: int = 10
    warmup: int = 2
    repeats: int = 3
    seed: int = 0

    def validate(self) -> None:
        if self.workload not in WORKLOADS:
            raise ConfigError(
                f"unknown workload {self.workload!r}; choose from {WORKLOADS}"
            )
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}; choose from {MODES}")
        if self.iterations < 1:
            raise ConfigError("iterations must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch size must be >= 1")
        if self.warmup < 0 or self.repeats < 1:
            raise ConfigError("warmup must be >= 0 and repeats >= 1")


@dataclass
class BenchReport:
    config: BenchConfig
    wall_times: List[float]
    examples_per_sec_runs: List[float]
    examples_per_sec: float
    stddev: float
    trace_count: int
    cache_size: int
    copies: int
    setup_time: float  # tracing + first-run optimization, excluded from timing
    # Over the timed iterations of all repeats; None without ``resource``.
    minor_faults_per_iteration: Optional[float] = None
    tape_replays_per_iteration: float = 0.0  # over the timed iterations
    staged_calls_per_iteration: float = 0.0  # over the timed iterations


class _Workload:
    """One benchmark instance: deterministic state from a seed."""

    gate_tol = 1e-5

    def __init__(self, cfg: BenchConfig, mode: str):
        self.cfg = cfg
        self.mode = mode
        self.staged_functions: List = []

    def run_iteration(self):
        raise NotImplementedError

    def cache_size(self) -> int:
        return sum(pf.cache_size for pf in self.staged_functions)


def _f32(arr) -> Tensor:
    arr = np.asarray(arr, dtype=np.float32)
    return tensor_from_host(arr.reshape(-1), arr.shape, float32)


class _MLPTrain(_Workload):
    IN, HIDDEN, OUT = 128, 256, 1
    LR = 1e-3

    def __init__(self, cfg, mode):
        super().__init__(cfg, mode)
        rng = np.random.default_rng(cfg.seed)
        b = cfg.batch_size
        self.x = _f32(rng.standard_normal((b, self.IN)) * 0.5)
        self.y = _f32(rng.standard_normal((b, self.OUT)))
        self.w1 = Variable(_f32(rng.standard_normal((self.IN, self.HIDDEN)) * 0.05))
        self.b1 = Variable(_f32(np.zeros(self.HIDDEN)))
        self.w2 = Variable(_f32(rng.standard_normal((self.HIDDEN, self.OUT)) * 0.05))
        self.b2 = Variable(_f32(np.zeros(self.OUT)))
        self.params = [self.w1, self.b1, self.w2, self.b2]

        def forward_loss(x, y):
            h = ops.relu(ops.add(ops.matmul(x, self.w1.read_value()),
                                 self.b1.read_value()))
            pred = ops.add(ops.matmul(h, self.w2.read_value()),
                           self.b2.read_value())
            err = ops.sub(pred, y)
            return ops.reduce_mean(ops.mul(err, err))

        def apply_updates(g1, g2, g3, g4):
            for v, g in zip(self.params, (g1, g2, g3, g4)):
                v.assign_add(ops.mul(g, -self.LR))

        if mode == "staged":
            self.forward_loss = stage(forward_loss)
            self.apply_updates = stage(apply_updates)
            self.staged_functions = [self.forward_loss, self.apply_updates]
        else:
            self.forward_loss = forward_loss
            self.apply_updates = apply_updates

    def run_iteration(self):
        with Tape() as t:
            loss = self.forward_loss(self.x, self.y)
        grads = t.gradient(loss, self.params)
        self.apply_updates(*grads)
        return float(loss)


class _Leapfrog(_Workload):
    STEP = 0.1
    N_STEPS = 10
    gate_tol = 1e-6

    def __init__(self, cfg, mode):
        super().__init__(cfg, mode)
        rng = np.random.default_rng(cfg.seed)
        b = cfg.batch_size
        self.q = _f32(rng.standard_normal((b, 2)))
        self.p = _f32(rng.standard_normal((b, 2)))
        half = self.STEP / 2.0

        def force(q):
            # Potential of a standard 2-d Gaussian: U(q) = sum(q^2) / 2,
            # summed over the batch; its gradient is q itself.
            with Tape() as t:
                t.watch(q)
                u = ops.mul(ops.reduce_sum(ops.mul(q, q)), 0.5)
            return t.gradient(u, q)

        def trajectory(q, p):
            for _ in range(self.N_STEPS):
                p = ops.sub(p, ops.mul(force(q), half))
                q = ops.add(q, ops.mul(p, self.STEP))
                p = ops.sub(p, ops.mul(force(q), half))
            return q, p

        if mode == "staged":
            self.trajectory = stage(trajectory)
            self.staged_functions = [self.trajectory]
        else:
            self.trajectory = trajectory

    def run_iteration(self):
        self.q, self.p = self.trajectory(self.q, self.p)
        return np.concatenate([self.q.numpy().ravel(), self.p.numpy().ravel()])


class _MicroOpLoop(_Workload):
    N_OPS = 1000

    def __init__(self, cfg, mode):
        super().__init__(cfg, mode)
        self.x = _f32(0.0)

        def chain(x):
            for _ in range(self.N_OPS):
                x = ops.add(x, 1.0)
            return x

        if mode == "staged":
            self.chain = stage(chain)
            self.staged_functions = [self.chain]
        else:
            self.chain = chain

    def run_iteration(self):
        self.x = self.chain(self.x)
        return float(self.x)


_WORKLOAD_CLASSES: Dict[str, type] = {
    "mlp_train": _MLPTrain,
    "leapfrog": _Leapfrog,
    "microop_loop": _MicroOpLoop,
}


def _fresh(cfg: BenchConfig, mode: str) -> _Workload:
    get_runtime().reseed(cfg.seed)
    return _WORKLOAD_CLASSES[cfg.workload](cfg, mode)


def _gate(cfg: BenchConfig) -> None:
    """Both modes must produce equal per-iteration results, same seed."""
    eager = _fresh(cfg, "eager")
    staged = _fresh(cfg, "staged")
    tol = eager.gate_tol
    for i in range(cfg.iterations):
        ve = np.asarray(eager.run_iteration())
        vs = np.asarray(staged.run_iteration())
        diff = float(np.max(np.abs(ve - vs))) if ve.size else 0.0
        if not np.isfinite(diff) or diff > tol:
            raise NumericalDivergence(
                f"{cfg.workload}: eager and staged diverge at iteration {i} "
                f"(max abs diff {diff:.3e} > {tol:g})"
            )


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt if resource else 0


def run_benchmark(cfg: BenchConfig) -> BenchReport:
    cfg.validate()
    _gate(cfg)

    rt = get_runtime()
    stats0 = rt.stats.snapshot()
    wall_times: List[float] = []
    runs: List[float] = []
    setup_time = 0.0
    cache_size = 0
    faults = replays = calls = 0
    for _ in range(cfg.repeats):
        t_setup = time.perf_counter()
        wl = _fresh(cfg, cfg.mode)
        for _ in range(cfg.warmup):
            wl.run_iteration()
        setup_time += time.perf_counter() - t_setup
        r0 = rt.stats.tape_replays
        c0 = rt.stats.snapshot()["staged_calls"]
        f0 = _minor_faults()
        t0 = time.perf_counter()
        for _ in range(cfg.iterations):
            wl.run_iteration()
        elapsed = time.perf_counter() - t0
        faults += _minor_faults() - f0
        replays += rt.stats.tape_replays - r0
        calls += rt.stats.snapshot()["staged_calls"] - c0
        wall_times.append(elapsed)
        runs.append(cfg.batch_size * cfg.iterations / elapsed)
        cache_size = wl.cache_size()
    stats1 = rt.stats.snapshot()
    mean = statistics.fmean(runs)
    stddev = statistics.pstdev(runs) if len(runs) > 1 else 0.0
    return BenchReport(
        config=cfg,
        wall_times=wall_times,
        examples_per_sec_runs=runs,
        examples_per_sec=mean,
        stddev=stddev,
        trace_count=stats1["traces"] - stats0["traces"],
        cache_size=cache_size,
        copies=stats1["transparent_copies"] - stats0["transparent_copies"],
        setup_time=setup_time,
        minor_faults_per_iteration=(
            faults / (cfg.repeats * cfg.iterations) if resource else None
        ),
        tape_replays_per_iteration=replays / (cfg.repeats * cfg.iterations),
        staged_calls_per_iteration=calls / (cfg.repeats * cfg.iterations),
    )


CSV_HEADER = "workload,mode,batch,iters,examples_per_sec,stddev,trace_count,copies"


def emit_csv(report: BenchReport, path: str) -> None:
    """One row per repeat plus a mean row; UTF-8, LF line endings."""
    cfg = report.config
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            writer = csv.writer(f, lineterminator="\n")
            writer.writerow(CSV_HEADER.split(","))
            for eps in report.examples_per_sec_runs:
                writer.writerow(
                    [cfg.workload, cfg.mode, cfg.batch_size, cfg.iterations,
                     f"{eps:.3f}", "0.000", report.trace_count, report.copies]
                )
            writer.writerow(
                [cfg.workload, cfg.mode, cfg.batch_size, cfg.iterations,
                 f"{report.examples_per_sec:.3f}", f"{report.stddev:.3f}",
                 report.trace_count, report.copies]
            )
    except OSError as e:
        raise StorageError(f"cannot write report to {path}: {e}") from e

"""Process-global runtime and per-thread execution contexts.

The runtime owns everything immutable-after-startup (device list, op
registry, options) plus the shared services: instrumentation counters, the
RNG stream behind stateful random ops, and the host-callback lock. Graphs
execute on the calling thread; the runtime starts no threads of its own.

Each thread of execution owns one ExecutionContext: its stack of open
traces, its stack of active gradient tapes, its device-scope stack, its
eager op and staged call counts and its cache of tape backward plans.

Building the first Runtime also changes the process's malloc policy once,
on glibc only (see ``retain_freed_heap``): blocks up to ``HEAP_RETAIN_BYTES``
come from the heap, and up to that much freed memory stays at the top of
the heap instead of going back to the OS. Without it, each step frees its
activation and gradient arrays, glibc trims them off the heap, and the next
step faults every page of them in again.
"""
from __future__ import annotations

import ctypes
import os
import threading
from collections import Counter, OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

import numpy as np

from .devices import Device, default_devices


@dataclass(frozen=True)
class RuntimeOptions:
    accelerators: int = 0
    # Size of ``Runtime.pool``; None = one per CPU. Graph execution never
    # uses the pool, so this does not change how graphs run.
    executor_workers: Optional[int] = None
    seed: int = 0
    serialize_host_callbacks: bool = True

    @property
    def workers(self) -> int:
        if self.executor_workers is not None:
            return max(1, self.executor_workers)
        return max(1, os.cpu_count() or 1)


# glibc's ``mallopt`` parameters (malloc.h).
_M_TOP_PAD = -2
_M_MMAP_THRESHOLD = -3

HEAP_RETAIN_BYTES = 16 << 20
"""Freed heap glibc keeps at its top, and the largest block it takes from
the heap instead of ``mmap``.

Minor page faults per warm batch-512 ``mlp_train`` step of ``stageflow
bench``, counted with ``getrusage`` (glibc 2.36, Python 3.11, numpy 2.4):
354 to 610 with glibc's defaults, by what the process allocated before, as
each step's 512 KiB arrays are trimmed off the heap when freed and faulted
in again when next allocated; under 1 in both modes at 16 MiB. Both
parameters are set because setting either one freezes glibc's adaptive
mmap threshold where it stands: with ``M_TOP_PAD`` alone, made before the
threshold had risen, those arrays stayed on ``mmap`` and faulted 778 times
per eager step.
"""

_heap_retained: Optional[bool] = None  # decided by the first Runtime


def retain_freed_heap() -> bool:
    """Apply the ``HEAP_RETAIN_BYTES`` policy once per process, on glibc;
    return whether it is in effect. No other allocator takes these
    parameters, so elsewhere it does nothing."""
    global _heap_retained
    if _heap_retained is None:
        try:
            glibc = bool(os.confstr("CS_GNU_LIBC_VERSION"))
        except (AttributeError, ValueError, OSError):
            glibc = False
        if glibc:
            mallopt = ctypes.CDLL(None).mallopt
            mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
            mallopt.restype = ctypes.c_int
            glibc = (mallopt(_M_MMAP_THRESHOLD, HEAP_RETAIN_BYTES) == 1
                     and mallopt(_M_TOP_PAD, HEAP_RETAIN_BYTES) == 1)
        _heap_retained = glibc
    return _heap_retained


class ThreadCounts:
    """One thread's eager op counts and staged call count; only that
    thread writes them."""

    __slots__ = ("ops", "staged_calls")

    def __init__(self):
        self.ops: Dict[str, int] = {}
        self.staged_calls = 0


class RuntimeStats:
    """Instrumentation counters; cheap enough to leave always on.

    Eager ops are counted per op name, and staged calls (a staged function
    run outside a trace, which dispatches no op of its own) in one number,
    both in one ``ThreadCounts`` per execution context, which only that
    context's thread writes (no lock per op or call); ``snapshot`` sums
    them, the counts of threads that have ended included. ``tape_plans`` counts
    the tape backward plans built and ``tape_replays`` the backward passes
    run from one; a replayed backward dispatches no eager op.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._counts: List[ThreadCounts] = []
        self.reset()

    def reset(self) -> None:
        with self._lock:
            for counts in self._counts:
                counts.ops.clear()
                counts.staged_calls = 0
            self.transparent_copies = 0
            self.traces = 0
            self.derived_traces = 0
            self.tape_plans = 0
            self.tape_replays = 0

    def register_counts(self, counts: ThreadCounts) -> None:
        with self._lock:
            self._counts.append(counts)

    def count_copy(self, n: int = 1) -> None:
        with self._lock:
            self.transparent_copies += n

    def count_trace(self) -> None:
        with self._lock:
            self.traces += 1

    def count_derived_trace(self) -> None:
        with self._lock:
            self.derived_traces += 1

    def count_tape_plan(self) -> None:
        with self._lock:
            self.tape_plans += 1

    def count_tape_replay(self) -> None:
        with self._lock:
            self.tape_replays += 1

    def snapshot(self) -> dict:
        with self._lock:
            merged: Counter = Counter()
            for counts in self._counts:
                merged.update(counts.ops.copy())
            return {
                "eager_dispatches": sum(merged.values()),
                "eager_op_counts": dict(merged),
                "staged_calls": sum(counts.staged_calls for counts in self._counts),
                "transparent_copies": self.transparent_copies,
                "traces": self.traces,
                "derived_traces": self.derived_traces,
                "tape_plans": self.tape_plans,
                "tape_replays": self.tape_replays,
            }


class ExecutionContext:
    """Per-thread mode, tape, and placement state, for one runtime."""

    __slots__ = ("runtime", "traces", "tapes", "device_scopes", "escape_depth",
                 "counts", "op_counts", "tape_plans", "tape_sightings")

    def __init__(self, runtime: "Runtime"):
        self.runtime = runtime
        self.traces: List[Any] = []  # stack of staging.TraceState
        self.tapes: List[Any] = []  # stack of tape.Tape, innermost last
        self.device_scopes: List[Any] = []
        self.escape_depth = 0
        self.counts = ThreadCounts()
        self.op_counts = self.counts.ops  # eager ops run on this thread
        runtime.stats.register_counts(self.counts)
        # tape.py's backward plans, least recently used first, and how often
        # each tape fingerprint was seen.
        self.tape_plans: "OrderedDict[Any, Any]" = OrderedDict()
        self.tape_sightings: Dict[tuple, int] = {}

    @property
    def tracing(self) -> bool:
        """True when dispatches should record graph nodes."""
        return bool(self.traces) and self.escape_depth == 0

    def scope_device(self):
        return self.device_scopes[-1] if self.device_scopes else None


class Runtime:
    def __init__(self, options: Optional[RuntimeOptions] = None):
        retain_freed_heap()
        self.options = options or RuntimeOptions()
        self.devices: List[Device] = default_devices(self.options.accelerators)
        self.stats = RuntimeStats()
        self._rng_lock = threading.Lock()
        self._rng = np.random.default_rng(self.options.seed)
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pool_lock = threading.Lock()
        # RLock: a callback may itself contain host calls.
        self.host_callback_lock = threading.RLock()
        from .kernels import KernelEnv
        from .ops import build_registry

        self.registry = build_registry()
        # One kernel environment per device, shared by the eager Tensor
        # kernels run there (an op with a compute needs none): eager kernels
        # see no library, and no kernel mutates its env.
        self.eager_envs = {d.name: KernelEnv(device=d.name) for d in self.devices}

    def reseed(self, seed: int) -> None:
        with self._rng_lock:
            self._rng = np.random.default_rng(seed)

    def draw(self, fn) -> np.ndarray:
        """Run ``fn(rng)`` under the RNG lock; the only way to consume RNG."""
        with self._rng_lock:
            return fn(self._rng)

    @property
    def pool(self) -> ThreadPoolExecutor:
        """A lazily made pool of ``options.workers`` threads.

        No stageflow code submits work to it; it starts no thread until a
        caller does.
        """
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.options.workers,
                    thread_name_prefix="stageflow-exec",
                )
            return self._pool

    def shutdown(self) -> None:
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None


_runtime_lock = threading.Lock()
_runtime: Optional[Runtime] = None

_local = threading.local()


def get_runtime() -> Runtime:
    global _runtime
    rt = _runtime  # lock-free fast path; assignment is atomic
    if rt is None:
        with _runtime_lock:
            if _runtime is None:
                _runtime = Runtime()
            rt = _runtime
    return rt


def init_runtime(options: Optional[RuntimeOptions] = None) -> Runtime:
    """Replace the global runtime (fresh devices, registry, counters, RNG).

    Open traces, tapes, and device scopes on the calling thread are
    discarded; other threads' contexts reset lazily on next use.
    """
    global _runtime
    with _runtime_lock:
        if _runtime is not None:
            _runtime.shutdown()
        _runtime = Runtime(options)
    _local.context = ExecutionContext(_runtime)
    return _runtime


def current_context() -> ExecutionContext:
    """This thread's context for the live runtime (``ctx.runtime``)."""
    rt = _runtime or get_runtime()
    ctx = getattr(_local, "context", None)
    if ctx is None or ctx.runtime is not rt:
        ctx = _local.context = ExecutionContext(rt)
    return ctx

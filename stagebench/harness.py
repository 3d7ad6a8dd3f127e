"""The closed loop: one client, one step at a time, both modes per pair.

Pair ``i`` runs step ``i`` in both modes on the same seeded inputs, eager
first on even pairs and staged first on odd ones, so neither mode always
runs on a cache the other just warmed. Each step is timed alone. Checking
happens outside the timed region: every step is compared with the numpy
reference run from the same inputs, and the staged result with the eager
one. A step that raises or disagrees counts as failed.
"""
from __future__ import annotations

import contextlib
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import stageflow as sf

from .reference import compare
from .workloads import MODES, TOL_MODES, TOL_REFERENCE, Workload


@dataclass
class Stats:
    times: Dict[str, List[float]] = field(default_factory=lambda: {m: [] for m in MODES})
    examples: Dict[str, int] = field(default_factory=lambda: {m: 0 for m in MODES})
    reference_times: List[float] = field(default_factory=list)
    # (host probe seconds, step seconds by mode, examples) of each pair run_loop times
    pairs: List[Tuple[float, Dict[str, float], int]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    messages: List[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(message)


_PROBE_DATA = np.ones(64, dtype=np.float32)


def host_probe() -> float:
    """Seconds for a fixed bit of interpreter and small-numpy work that
    calls no stageflow code, best of three rounds (the first warms the
    caches the last step left cold). It reads how fast the host runs this
    process at the moment, whatever the program under test does."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        x = _PROBE_DATA
        for _ in range(40):
            x = np.add(x, _PROBE_DATA)
            _ = {k: k for k in range(8)}
        best = min(best, time.perf_counter() - t0)
    return best


def _no_span(name: str):
    return contextlib.nullcontext()


def run_pair(
    wl: Workload, i: int, stats: Stats, span=_no_span, timed: bool = True
) -> Dict[str, float]:
    """Run and check pair ``i``; returns the step time of each mode that ran.

    With ``timed`` false the step times are not added to ``stats`` (the
    checks still count).
    """
    order = MODES if i % 2 == 0 else MODES[::-1]
    durations: Dict[str, float] = {}
    results = {}
    for mode in order:
        stats.attempted += 1
        pre = wl.pre(mode, i)
        try:
            with span("bench.step." + mode):
                t0 = time.perf_counter()
                out = wl.step(mode, i, pre)
                dt = time.perf_counter() - t0
            got, problems = wl.host(mode, i, pre, out)
        except Exception:  # a failed step is counted; the run goes on
            stats.fail(f"{wl.name} pair {i} {mode} raised:\n{traceback.format_exc()}")
            continue
        durations[mode] = dt
        if timed:
            stats.times[mode].append(dt)
            stats.examples[mode] += wl.examples(i)
        r0 = time.perf_counter()
        want = wl.reference(pre)
        stats.reference_times.append(time.perf_counter() - r0)
        problems += compare(got, want, TOL_REFERENCE)
        if problems:
            stats.fail(f"{wl.name} pair {i} {mode} vs numpy: {'; '.join(problems)}")
        else:
            results[mode] = got
    if len(results) == 2:
        problems = compare(results["staged"], results["eager"], TOL_MODES)
        if problems:
            stats.fail(f"{wl.name} pair {i} staged vs eager: {'; '.join(problems)}")
    return durations


def setup(
    cls, seed: int, stats: Stats, span=_no_span, on_runtime: Optional[Callable] = None
):
    """Fresh default runtime, fresh workload, first pair.

    Returns the workload and the set-up time: runtime start and model
    construction plus the first step of each mode (tracing, optimization
    and gradient derivation happen there). Making the seeded host inputs
    and checking are not counted, and the first pair's steps are not added
    to the step times.
    """
    wl = cls(seed)
    t0 = time.perf_counter()
    rt = sf.init_runtime(sf.RuntimeOptions())
    if on_runtime is not None:
        on_runtime(rt)
    wl.build()
    built = time.perf_counter() - t0
    durations = run_pair(wl, 0, stats, span, timed=False)
    return wl, built + sum(durations.values())


def run_loop(wl: Workload, stats: Stats, pairs: int, span=_no_span) -> None:
    """Pairs 1 to ``pairs`` (pair 0 runs in ``setup``), each after a host probe."""
    for i in range(1, pairs + 1):
        probe = host_probe()
        durations = run_pair(wl, i, stats, span)
        stats.pairs.append((probe, durations, wl.examples(i)))


def percentile_ms(values: List[float], q: float) -> float:
    return float(np.percentile(values, q)) * 1e3 if values else 0.0


def report_failures(stats: Stats) -> None:
    for msg in stats.messages:
        print(msg, file=sys.stderr)
    if stats.failed > len(stats.messages):
        print(f"... {stats.failed - len(stats.messages)} more failures", file=sys.stderr)

"""stagebench: eager and staged step latency of stageflow, end to end and
layer by layer.

Run from the root of a checkout (stageflow is imported from ``src/`` there):

    python3 stagebench/run.py --workload leapfrog --seed 1 --seconds 10 --trace 0
    python3 stagebench/run.py --workload all --seconds 10

``--trace 0`` measures the end-to-end metrics with tracing off, over
segments of a fixed number of pairs (a fresh runtime each) for
``--seconds``; step-time percentiles and examples/s are over the timed
steps of the run's quiet stretches, those where a fixed host probe timed
before each pair ran near its fastest, and ``setup_s`` is the median over
the segments.
``--trace 1`` runs one segment with every layer's entry point wrapped in
spans, between untraced rounds of the same segment that together take
``--seconds`` (for the tracing overhead and the numpy floor), and reports
the per-layer metrics. It also writes a Chrome Trace Event file (open it
in Perfetto) and a text table of self time per layer into ``--out``. The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs each workload in its own process, one after another,
and prints every metric by name with its unit.

Each workload runs with the default ``RuntimeOptions()``: the executor's
worker pool is on with one worker per CPU.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("mlp_train", "leapfrog", "retrace")

END_TO_END = [
    ("eager_step_ms_p50", "ms"),
    ("staged_step_ms_p50", "ms"),
    ("eager_step_ms_p90", "ms"),
    ("staged_step_ms_p90", "ms"),
    ("eager_examples_per_s", "1/s"),
    ("staged_examples_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_ratio", "ratio"),
]


def _import_stageflow():
    """Import stageflow from this checkout's ``src``, or exit 2."""
    if not (SRC / "stageflow" / "__init__.py").is_file():
        print(f"stagebench: no stageflow sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    import stageflow

    if Path(stageflow.__file__).resolve().parent != SRC / "stageflow":
        print(f"stagebench: imported stageflow from {stageflow.__file__}", file=sys.stderr)
        sys.exit(2)


def environment() -> dict:
    import ctypes
    import glob
    import platform

    import numpy as np
    import stageflow as sf

    blas = {}
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for key, sym, restype in (
            ("openblas_threads", "scipy_openblas_get_num_threads64_", ctypes.c_int),
            ("openblas_config", "scipy_openblas_get_config64_", ctypes.c_char_p),
        ):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = restype
                value = fn()
                blas[key] = value.decode() if isinstance(value, bytes) else value
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **blas,
        "runtime_options": {"executor_workers": sf.RuntimeOptions().executor_workers,
                            "workers": sf.RuntimeOptions().workers},
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def segment_seed(seed: int, k: int) -> int:
    import numpy as np

    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def measure(name: str, seed: int, seconds: float):
    """Untraced closed loop for ``seconds``, as a sequence of segments.

    A segment is a fresh runtime and a fresh workload, with inputs from a
    seed derived from ``seed`` and the segment number, running the
    workload's ``SEGMENT_PAIRS`` pairs. Segments start until ``seconds``
    have passed (at least one runs). Each segment so does the same amount
    of seeded work however fast the machine is, and set-up is sampled once
    per segment. Returns one ``(Stats, setup seconds)`` per segment.
    """
    from stagebench import harness
    from stagebench.workloads import WORKLOADS

    cls = WORKLOADS[name]
    segments = []
    deadline = time.perf_counter() + seconds
    while not segments or time.perf_counter() < deadline:
        stats = harness.Stats()
        wl, setup_s = harness.setup(cls, segment_seed(seed, len(segments)), stats)
        harness.run_loop(wl, stats, pairs=cls.SEGMENT_PAIRS - 1)
        segments.append((stats, setup_s))
        # Free this segment's objects before the next one is built, so that
        # peak memory is one segment's, not two, whenever the collector runs.
        del wl
        gc.collect()
    return segments


# Pairs per stretch that the host probe judges, and how much slower than
# the run's fast stretches (the 5th percentile) a quiet stretch may probe.
QUIET_BLOCK = 10
QUIET_SLACK = 1.25


def quiet_pairs(segments) -> list:
    """The timed pairs of the run's quiet stretches.

    On a shared host, other work can slow this process 1.5-2.5x for 0.1-3 s
    at a time (seen on a 2-vCPU VM), and the share of a run it covers
    changes from run to run, so a median over all steps jumps between the
    host's two speeds. A
    stretch of ``QUIET_BLOCK`` pairs of a segment is quiet when the median
    of its host probes is within ``QUIET_SLACK`` of the run's fast
    stretches. The probe runs no program code, so which steps count does
    not depend on how fast the program is.
    """
    blocks = []
    for stats, _ in segments:
        for k in range(0, len(stats.pairs), QUIET_BLOCK):
            block = stats.pairs[k:k + QUIET_BLOCK]
            blocks.append((statistics.median(probe for probe, _, _ in block), block))
    limit = QUIET_SLACK * float(np.percentile([probe for probe, _ in blocks], 5))
    return [pair for probe, block in blocks if probe <= limit for pair in block]


def run_untraced(name: str, seed: int, seconds: float) -> dict:
    """End-to-end metrics. Step-time percentiles and examples/s are taken
    over every timed step of the run's quiet stretches, pooled across its
    segments; ``setup_s`` is the median of the segments' set-up times."""
    from stagebench import harness
    from stagebench.workloads import MODES

    segments = measure(name, seed, seconds)
    for stats, _ in segments:
        harness.report_failures(stats)
    quiet = quiet_pairs(segments)
    total = sum(len(stats.pairs) for stats, _ in segments)
    print(f"stagebench: {len(quiet)} of {total} timed pairs ran in quiet stretches",
          file=sys.stderr)
    values = {}
    for mode in MODES:
        times = [durations[mode] for _, durations, _ in quiet if mode in durations]
        examples = sum(n for _, durations, n in quiet if mode in durations)
        values[f"{mode}_step_ms_p50"] = harness.percentile_ms(times, 50)
        values[f"{mode}_step_ms_p90"] = harness.percentile_ms(times, 90)
        # 0 only if every step of the mode failed, which ``correct`` shows.
        values[f"{mode}_examples_per_s"] = examples / sum(times) if times else 0.0
    values["setup_s"] = statistics.median(setup_s for _, setup_s in segments)
    attempted = sum(stats.attempted for stats, _ in segments)
    failed = sum(stats.failed for stats, _ in segments)
    values["pass_ratio"] = 1.0 - failed / attempted
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: _metric(values[key], unit) for key, unit in END_TO_END},
    }


def run_traced(name: str, seed: int, seconds: float, out_dir: Path) -> dict:
    """Per-layer metrics from one traced segment (the workload's
    ``SEGMENT_PAIRS`` pairs on a fresh runtime, inputs from ``seed``).

    Untraced rounds of the same pairs (same seed, fresh runtime each) run
    for about ``seconds/2`` before the traced round and as long after it;
    they give the numpy floor and the untraced side of the tracing
    overhead, on the very same calls and around the same time.
    """
    import stageflow as sf

    from stagebench import harness, layers, spans
    from stagebench.workloads import WORKLOADS

    cls = WORKLOADS[name]
    pairs = cls.SEGMENT_PAIRS - 1  # pair 0 runs in set-up
    plain = harness.Stats()

    def plain_rounds(duration: float) -> None:
        deadline = time.perf_counter() + duration
        while True:
            wl, _ = harness.setup(cls, seed, plain)
            harness.run_loop(wl, plain, pairs=pairs)
            if time.perf_counter() >= deadline:
                break

    plain_rounds(seconds / 2)
    rec = spans.Recorder()
    traced = harness.Stats()
    uninstall = layers.install(rec)
    try:
        with rec.span("bench.setup"):
            wl, _ = harness.setup(
                cls, seed, traced, span=rec.span,
                on_runtime=lambda rt: layers.attach_pool(rec, rt),
            )
        harness.run_loop(wl, traced, pairs=pairs, span=rec.span)
        counts = sf.get_runtime().stats.snapshot()
    finally:
        uninstall()
    plain_rounds(seconds / 2)
    harness.report_failures(plain)
    harness.report_failures(traced)

    an = layers.Analysis(rec)
    values = layers.layer_metrics(an, counts)
    values["floor.numpy_step_ms_p50"] = statistics.median(plain.reference_times) * 1e3

    def p50_sum(stats):
        return sum(harness.percentile_ms(stats.times[m], 50) for m in ("eager", "staged"))

    values["tracing_overhead_ratio"] = p50_sum(traced) / p50_sum(plain)

    out_dir.mkdir(parents=True, exist_ok=True)
    stem = out_dir / f"{name}-seed{seed}"
    trace = spans.chrome_trace(rec.spans, an.self, name)
    Path(f"{stem}.trace.json").write_text(json.dumps(trace), encoding="utf-8")
    table = spans.self_time_table(
        an.layer_table(),
        ("setup_ms", "eager_ms/step", "staged_ms/step", "outside_ms"),
        f"self time by layer, {name} seed {seed}, {pairs} traced pairs",
    )
    notes = [f"counter mismatch: {line}" for line in layers.counter_mismatches(values)]
    notes.append("unmeasured (not exercised): " + ", ".join(layers.UNMEASURED))
    text = "\n".join([table] + notes)
    Path(f"{stem}.layers.txt").write_text(text + "\n", encoding="utf-8")
    print(text)
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: _metric(float(values[k]), unit) for k, unit in layers.METRICS},
    }


def run_all(args) -> int:
    """Each workload in its own process, one at a time; prints every metric."""
    print(json.dumps({"environment": environment()}))
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", str(args.out)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        if lines[:-1]:
            print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        print(f"== {name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for key, metric in result["metrics"].items():
            print(f"{name:>10}  {key:<32} {metric['value']:>14.6g} {metric['unit']}")
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))
    return status


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("the seed must be 0 or more")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=_seed, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=Path(".stagebench"),
                        help="directory for the trace files (default: .stagebench)")
    args = parser.parse_args(argv)
    _import_stageflow()
    if args.workload == "all":
        return run_all(args)
    if args.trace:
        result = run_traced(args.workload, args.seed, args.seconds, args.out)
    else:
        result = run_untraced(args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

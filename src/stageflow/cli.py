"""Command-line entry point.

``stageflow bench`` runs one benchmark configuration and prints a summary;
``--out`` additionally writes the CSV report. Exit codes: 0 on success, 2
when the eager/staged equivalence gate fails, 1 on any other error.
"""
from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .bench import MODES, WORKLOADS, BenchConfig, emit_csv, run_benchmark
from .errors import NumericalDivergence, StageflowError
from .runtime import RuntimeOptions, init_runtime


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stageflow",
        description="Imperative tensor runtime with opt-in staging.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    bench = sub.add_parser("bench", help="run an eager-vs-staged benchmark")
    bench.add_argument("--workload", choices=WORKLOADS, required=True)
    bench.add_argument("--mode", choices=MODES, required=True)
    bench.add_argument("--batch", type=int, default=8)
    bench.add_argument("--iters", type=int, default=10)
    bench.add_argument("--warmup", type=int, default=2)
    bench.add_argument("--repeats", type=int, default=3)
    bench.add_argument(
        "--workers", type=int, default=None,
        help="accepted for compatibility; graphs always run on the calling thread",
    )
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--out", default=None, help="write the CSV report here")
    return parser


def _run_bench(args) -> int:
    init_runtime(RuntimeOptions(executor_workers=args.workers, seed=args.seed))
    cfg = BenchConfig(
        workload=args.workload,
        mode=args.mode,
        batch_size=args.batch,
        iterations=args.iters,
        warmup=args.warmup,
        repeats=args.repeats,
        seed=args.seed,
    )
    report = run_benchmark(cfg)
    print(
        f"{cfg.workload} [{cfg.mode}] batch={cfg.batch_size} "
        f"iters={cfg.iterations}: {report.examples_per_sec:.1f} examples/s "
        f"(stddev {report.stddev:.1f}, {report.trace_count} traces, "
        f"{report.copies} copies, setup {report.setup_time * 1e3:.1f} ms)"
    )
    print(f"tape replays per iteration: {report.tape_replays_per_iteration:.1f}")
    print(f"staged calls per iteration: {report.staged_calls_per_iteration:.1f}")
    faults = report.minor_faults_per_iteration
    print("minor faults per iteration: "
          + ("unavailable" if faults is None else f"{faults:.1f}"))
    if args.out:
        emit_csv(report, args.out)
        print(f"report written to {args.out}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "bench":
            return _run_bench(args)
        return 1
    except NumericalDivergence as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except StageflowError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

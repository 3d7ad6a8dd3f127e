"""Per-layer tracing: span wrappers on stageflow's entry points, and the
per-layer metrics computed from the spans.

``install`` rebinds each entry point to a span-recording wrapper, in every
stageflow module that imported it by name, and returns a function that
puts the originals back. Kernels are wrapped in ``kernels.KERNELS``, which
the op registry reads when a runtime starts, so install before
``init_runtime``; then call ``attach_pool`` on the new runtime so that
kernels run by executor workers keep the graph execution as their parent.

Layers not exercised by any workload, and so not measured: ``escape``
(host callbacks), ``devices`` (one CPU device, no copies) and ``cli``.
"""
from __future__ import annotations

import sys
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from stageflow import backprop, checkpoint, executor, graph, kernels, ops, serial
from stageflow import staging, tape
from stageflow.runtime import current_context

from .spans import NAME, PARENT, SID, T0, T1, Recorder, root_of, self_times

UNMEASURED = ("escape", "devices", "cli")

# Kernels that only run a nested graph or a host callback; their work shows
# up as executor (or escape) spans instead.
_CONTROL_KERNELS = ("call_function", "cond", "while_loop", "host_call")

# (name, unit) of every per-layer metric, in report order.
METRICS: List[Tuple[str, str]] = [
    ("ops.dispatch_us_p50", "us"),
    ("ops.coerce_us_p50", "us"),
    ("ops.eager_ops_per_step", "count"),
    ("tape.record_us_p50", "us"),
    ("tape.gradient_ms_p50", "ms"),
    ("kernels.us_per_call_p50", "us"),
    ("kernels.share_of_step", "ratio"),
    ("kernels.calls_per_step", "count"),
    ("executor.us_per_node", "us"),
    ("executor.sched_us_per_node", "us"),
    ("executor.plan_ms_p50", "ms"),
    ("staging.call_us_p50", "us"),
    ("staging.cache_hit_ratio", "ratio"),
    ("staging.traces", "count"),
    ("staging.trace_ms_per_node", "ms"),
    ("graph.optimize_ms_p50", "ms"),
    ("graph.nodes_recorded", "count"),
    ("graph.nodes_after_optimize", "count"),
    ("graph.constant_nodes", "count"),
    ("backprop.derive_ms_p50", "ms"),
    ("backprop.derivations", "count"),
    ("serial.serialize_mb_s", "MB/s"),
    ("serial.deserialize_mb_s", "MB/s"),
    ("serial.bytes_per_graph", "B"),
    ("checkpoint.save_mb_s", "MB/s"),
    ("checkpoint.restore_mb_s", "MB/s"),
    ("checkpoint.bytes", "B"),
    ("runtime.eager_dispatches", "count"),
    ("runtime.traces", "count"),
    ("runtime.derived_traces", "count"),
    ("runtime.transparent_copies", "count"),
    ("bench.eager_dispatches", "count"),
    ("bench.traces", "count"),
    ("bench.transparent_copies", "count"),
    ("counters.mismatches", "count"),
    ("trace.self_sum_over_wall", "ratio"),
    ("floor.numpy_step_ms_p50", "ms"),
    ("tracing_overhead_ratio", "ratio"),
]

# (runtime counter, the benchmark's own count of the same thing).
COUNTER_PAIRS = (
    ("runtime.eager_dispatches", "bench.eager_dispatches"),
    ("runtime.traces", "bench.traces"),
    ("runtime.derived_traces", "backprop.derivations"),
    ("runtime.transparent_copies", "bench.transparent_copies"),
)
KNOWN_DEFECTS = {
    "runtime.derived_traces": "backprop._build counts each derivation twice",
}


# ---------------------------------------------------------------------------
# Installing the wrappers
# ---------------------------------------------------------------------------


def _dispatch_name() -> str:
    return "ops.record" if current_context().tracing else "ops.dispatch"


def _placement_copies(args, result) -> dict:
    inputs, moved = args[1], result[1]
    return {"copies": len({id(m) for x, m in zip(inputs, moved) if m is not x})}


def _optimize_counts(args, result) -> dict:
    return {
        "nodes_in": len(args[0].nodes),
        "nodes_out": len(result.nodes),
        "constants": sum(1 for n in result.nodes if n.op == "constant"),
    }


def _result_bytes(args, result) -> dict:
    return {"bytes": len(result)}


def _arg_bytes(args, result) -> dict:
    return {"bytes": len(args[0])}


def install(rec: Recorder) -> Callable[[], None]:
    """Wrap stageflow's layer entry points; returns the undo function."""
    undo: List[Tuple[object, str, object]] = []

    def rebind_everywhere(module, attr, name, measure=None):
        original = getattr(module, attr)
        wrapped = rec.wrap(name, original, measure)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").split(".")[0] != "stageflow":
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, key, original))
                    setattr(mod, key, wrapped)

    def rebind_method(cls, attr, name):
        original = cls.__dict__[attr]
        undo.append((cls, attr, original))
        setattr(cls, attr, rec.wrap(name, original))

    rebind_everywhere(ops, "dispatch", _dispatch_name)
    rebind_everywhere(ops, "_as_operand", "ops.coerce")
    rebind_everywhere(ops, "resolve_placement", "ops.placement", _placement_copies)
    rebind_method(tape.Tape, "_maybe_record", "tape.record")
    rebind_method(tape.Tape, "_record_custom", "tape.record")
    rebind_method(tape.Tape, "gradient", "tape.gradient")
    rebind_method(staging.PolymorphicFunction, "__call__", "staging.call")
    rebind_method(staging.PolymorphicFunction, "_run_trace", "staging.trace")
    rebind_everywhere(graph, "optimize", "graph.optimize", _optimize_counts)
    rebind_everywhere(executor, "execute_graph", "executor.execute")
    rebind_everywhere(executor, "_Plan", "executor.plan")
    rebind_everywhere(backprop, "_build", "backprop.derive")
    rebind_everywhere(serial, "serialize", "serial.serialize", _result_bytes)
    rebind_everywhere(serial, "deserialize", "serial.deserialize", _arg_bytes)
    rebind_everywhere(checkpoint, "save", "checkpoint.save")
    rebind_everywhere(checkpoint, "_encode", "checkpoint.encode", _result_bytes)
    rebind_everywhere(checkpoint, "_decode", "checkpoint.decode", _arg_bytes)
    rebind_everywhere(checkpoint, "restore", "checkpoint.restore")
    table = kernels.KERNELS
    for op, fn in list(table.items()):
        if op not in _CONTROL_KERNELS:
            undo.append((table, op, fn))
            table[op] = rec.wrap("kernels." + op, fn)

    def uninstall() -> None:
        for owner, key, original in reversed(undo):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    return uninstall


def attach_pool(rec: Recorder, rt) -> None:
    """Make tasks the runtime's executor pool runs inherit the parent span."""
    pool = rt.pool
    pool.submit = rec.wrap_submit(pool.submit)


# ---------------------------------------------------------------------------
# Metrics from spans
# ---------------------------------------------------------------------------


def _p50(values: Sequence[float]) -> float:
    return float(np.median(values)) if len(values) else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Analysis:
    """Spans of one traced phase, indexed for the per-layer metrics."""

    def __init__(self, rec: Recorder):
        self.spans = rec.spans
        self.info = rec.info
        self.self = self_times(self.spans)
        self.by_id = {s[SID]: s for s in self.spans}
        self.root = root_of(self.spans)
        self.root_name = {sid: self.by_id[r][NAME] for sid, r in self.root.items()}
        self.steps = {
            mode: [s for s in self.spans if s[NAME] == "bench.step." + mode and s[PARENT] == 0]
            for mode in ("eager", "staged")
        }

    def named(self, name: str, where: str = "all") -> list:
        """Spans called ``name`` (or starting with it, if it ends in '.')."""
        if name.endswith("."):
            match = [s for s in self.spans if s[NAME].startswith(name)]
        else:
            match = [s for s in self.spans if s[NAME] == name]
        if where == "steps":
            return [s for s in match if self.root_name[s[SID]].startswith("bench.step.")]
        if where in ("eager", "staged"):
            return [s for s in match if self.root_name[s[SID]] == "bench.step." + where]
        return match

    def selfs(self, spans) -> List[float]:
        return [self.self[s[SID]] for s in spans]

    @staticmethod
    def durs(spans) -> List[float]:
        return [s[T1] - s[T0] for s in spans]

    def info_sum(self, spans, key: str) -> float:
        return sum(self.info.get(s[SID], {}).get(key, 0) for s in spans)

    def self_sum_over_wall(self) -> float:
        """Largest (sum of self times under a step) / (step wall time)."""
        totals: Dict[int, float] = {}
        for s in self.spans:
            if self.root_name[s[SID]].startswith("bench.step."):
                r = self.root[s[SID]]
                totals[r] = totals.get(r, 0.0) + self.self[s[SID]]
        return max(
            (t / (self.by_id[r][T1] - self.by_id[r][T0]) for r, t in totals.items()),
            default=0.0,
        )

    def layer_table(self) -> Dict[str, Dict[str, float]]:
        """Self ms by layer: setup total, per eager step, per staged step."""
        n = {m: max(len(v), 1) for m, v in self.steps.items()}
        rows: Dict[str, Dict[str, float]] = {}
        for s in self.spans:
            root = self.root_name[s[SID]]
            if root == "bench.setup":
                col, div = "setup_ms", 1
            elif root == "bench.step.eager":
                col, div = "eager_ms/step", n["eager"]
            elif root == "bench.step.staged":
                col, div = "staged_ms/step", n["staged"]
            else:
                col, div = "outside_ms", 1
            layer = s[NAME].split(".", 1)[0]
            if layer == "bench":
                layer = "host (workload code)"
            row = rows.setdefault(layer, {})
            row[col] = row.get(col, 0.0) + self.self[s[SID]] * 1e3 / div
        return rows


def layer_metrics(an: Analysis, counts: dict) -> Dict[str, float]:
    """Every per-layer metric except the two the harness supplies."""
    m: Dict[str, float] = {}
    n_eager, n_staged = len(an.steps["eager"]), len(an.steps["staged"])
    step_wall = sum(an.durs(an.steps["eager"] + an.steps["staged"]))

    eager_dispatch = an.named("ops.dispatch", "eager")
    m["ops.dispatch_us_p50"] = _p50(an.selfs(eager_dispatch)) * 1e6
    m["ops.coerce_us_p50"] = _p50(an.selfs(an.named("ops.coerce", "steps"))) * 1e6
    m["ops.eager_ops_per_step"] = _ratio(len(eager_dispatch), n_eager)
    m["tape.record_us_p50"] = _p50(an.selfs(an.named("tape.record", "steps"))) * 1e6
    m["tape.gradient_ms_p50"] = _p50(an.durs(an.named("tape.gradient", "steps"))) * 1e3

    kern = an.named("kernels.", "steps")
    m["kernels.us_per_call_p50"] = _p50(an.selfs(kern)) * 1e6
    m["kernels.share_of_step"] = _ratio(sum(an.selfs(kern)), step_wall)
    m["kernels.calls_per_step"] = _ratio(len(kern), n_eager + n_staged)

    execs = an.named("executor.execute", "steps")
    exec_ids = {s[SID] for s in execs}
    nodes = [s for s in kern if s[PARENT] in exec_ids]
    exec_self = sum(an.selfs(execs))
    m["executor.us_per_node"] = _ratio(exec_self + sum(an.selfs(nodes)), len(nodes)) * 1e6
    m["executor.sched_us_per_node"] = _ratio(exec_self, len(nodes)) * 1e6
    m["executor.plan_ms_p50"] = _p50(an.durs(an.named("executor.plan"))) * 1e3

    calls = an.named("staging.call", "steps")
    traces = an.named("staging.trace")
    missed = set()
    for t in traces:
        sid = t[PARENT]
        while sid in an.by_id and an.by_id[sid][NAME] != "staging.call":
            sid = an.by_id[sid][PARENT]
        missed.add(sid)
    hits = [s for s in calls if s[SID] not in missed]
    m["staging.call_us_p50"] = _p50(an.selfs(hits)) * 1e6
    m["staging.cache_hit_ratio"] = _ratio(len(hits), len(calls))
    m["staging.traces"] = len(traces)

    optimizes = an.named("graph.optimize")
    trace_ids = {t[SID] for t in traces}
    in_trace = [o for o in optimizes if o[PARENT] in trace_ids]
    trace_time = sum(an.durs(traces)) - sum(an.durs(in_trace))
    m["staging.trace_ms_per_node"] = _ratio(trace_time, an.info_sum(in_trace, "nodes_in")) * 1e3
    m["graph.optimize_ms_p50"] = _p50(an.durs(optimizes)) * 1e3
    m["graph.nodes_recorded"] = an.info_sum(optimizes, "nodes_in")
    m["graph.nodes_after_optimize"] = an.info_sum(optimizes, "nodes_out")
    m["graph.constant_nodes"] = an.info_sum(optimizes, "constants")

    derives = an.named("backprop.derive")
    m["backprop.derive_ms_p50"] = _p50(an.durs(derives)) * 1e3
    m["backprop.derivations"] = len(derives)

    for op, key in (("serialize", "serialize_mb_s"), ("deserialize", "deserialize_mb_s")):
        spans = an.named("serial." + op)
        m["serial." + key] = _ratio(an.info_sum(spans, "bytes"), sum(an.durs(spans))) / 1e6
    ser = an.named("serial.serialize")
    m["serial.bytes_per_graph"] = _ratio(an.info_sum(ser, "bytes"), len(ser))

    enc, dec = an.named("checkpoint.encode"), an.named("checkpoint.decode")
    save_s = sum(an.durs(an.named("checkpoint.save") + enc))
    restore_s = sum(an.durs(an.named("checkpoint.restore") + dec))
    m["checkpoint.save_mb_s"] = _ratio(an.info_sum(enc, "bytes"), save_s) / 1e6
    m["checkpoint.restore_mb_s"] = _ratio(an.info_sum(dec, "bytes"), restore_s) / 1e6
    m["checkpoint.bytes"] = _ratio(an.info_sum(enc, "bytes"), len(enc))

    for key in ("eager_dispatches", "traces", "derived_traces", "transparent_copies"):
        m["runtime." + key] = counts[key]
    m["bench.eager_dispatches"] = len(an.named("ops.dispatch"))
    m["bench.traces"] = len(traces)
    m["bench.transparent_copies"] = an.info_sum(an.named("ops.placement"), "copies")
    m["counters.mismatches"] = len(counter_mismatches(m))
    m["trace.self_sum_over_wall"] = an.self_sum_over_wall()
    return m


def counter_mismatches(m: Dict[str, float]) -> List[str]:
    """One line per runtime counter that disagrees with the benchmark's count."""
    lines = []
    for runtime_key, bench_key in COUNTER_PAIRS:
        if m[runtime_key] != m[bench_key]:
            why = KNOWN_DEFECTS.get(runtime_key)
            note = f"known defect: {why}" if why else "unexplained"
            lines.append(
                f"{runtime_key}={m[runtime_key]:g} but {bench_key}={m[bench_key]:g} ({note})"
            )
    return lines

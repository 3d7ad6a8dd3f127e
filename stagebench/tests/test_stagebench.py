"""Tests of the benchmark's own code: run them with
``python3 -m pytest -q stagebench/tests`` from the repository root."""
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import stageflow as sf
from stageflow import ops

from stagebench import harness, layers, run, spans
from stagebench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_each_workload_passes_its_checks(name):
    stats = harness.Stats()
    wl, setup_s = harness.setup(WORKLOADS[name], 3, stats)
    harness.run_loop(wl, stats, pairs=12)
    assert stats.failed == 0, stats.messages
    assert stats.attempted == 26
    assert setup_s > 0
    assert all(len(t) == 12 for t in stats.times.values())  # pair 0 is set-up


def test_retrace_stream_brings_new_graphs_and_repeats():
    stats = harness.Stats()
    wl, _ = harness.setup(WORKLOADS["retrace"], 5, stats)
    harness.run_loop(wl, stats, pairs=60)
    assert stats.failed == 0, stats.messages
    calls = wl.stream.calls[:61]
    assert sum(c.new for c in calls) == 18 + 11
    assert len({c.variant for c in calls}) > 18


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stream_mix_is_fixed_by_position(seed):
    from stagebench.workloads import CallStream

    stream = CallStream(seed)
    n = WORKLOADS["retrace"].SEGMENT_PAIRS
    calls = [stream.call(i) for i in range(n)]
    assert sum(c.new for c in calls) == 40
    cells = [stream.variants[c.variant] for c in calls]
    per_cell = {}
    for spec in cells:
        key = (spec.kind, spec.width, spec.depth)
        per_cell[key] = per_cell.get(key, 0) + 1
    assert set(per_cell.values()) == {n // len(CallStream.GRID)}
    assert (cells[0].kind, cells[0].width, cells[0].depth) == CallStream.FIRST


def test_stream_is_a_function_of_the_seed():
    a, b, c = (WORKLOADS["retrace"](s).stream for s in (7, 7, 8))
    assert [a.call(i) for i in range(50)] == [b.call(i) for i in range(50)]
    assert [a.call(i) for i in range(50)] != [c.call(i) for i in range(50)]


def test_perturbed_step_counts_as_failed():
    stats = harness.Stats()
    wl, _ = harness.setup(WORKLOADS["leapfrog"], 1, stats)
    step = wl.step

    def perturbed(mode, i, pre):
        q, p = step(mode, i, pre)
        if mode == "staged" and i % 2 == 1:
            q = ops.add(q, 1e-2)
        return q, p

    wl.step = perturbed
    harness.run_loop(wl, stats, pairs=6)
    assert stats.attempted == 14
    assert stats.failed == 3
    assert all("staged vs numpy" in m for m in stats.messages)


def test_raising_step_counts_as_failed_and_run_goes_on():
    stats = harness.Stats()
    wl, _ = harness.setup(WORKLOADS["mlp_train"], 1, stats)
    step = wl.step

    def flaky(mode, i, pre):
        if mode == "eager" and i == 3:  # the last pair, so no step after it is out of step
            raise sf.errors.KernelError("injected")
        return step(mode, i, pre)

    wl.step = flaky
    harness.run_loop(wl, stats, pairs=3)
    assert stats.attempted == 8
    assert stats.failed == 1
    assert "injected" in stats.messages[0]
    assert len(stats.times["eager"]) == 2 and len(stats.times["staged"]) == 3


def test_step_metrics_count_only_quiet_stretches(monkeypatch):
    def segment(stretches, setup_s):
        stats = harness.Stats()
        for probe, step_s in stretches:  # one stretch of 10 pairs each
            stats.pairs += [(probe, {"eager": step_s, "staged": step_s}, 2)] * 10
        stats.attempted = 2 * len(stats.pairs)
        return stats, setup_s

    segments = [
        segment([(1e-4, 0.001), (1e-4, 0.003)], 0.1),
        segment([(2e-4, 0.009)], 0.3),  # the host probe ran 2x slower here
    ]
    monkeypatch.setattr(run, "measure", lambda *args: segments)
    result = run.run_untraced("leapfrog", 0, 0.0)
    metrics = result["metrics"]
    assert metrics["eager_step_ms_p50"]["value"] == pytest.approx(2.0)
    assert metrics["staged_step_ms_p90"]["value"] == pytest.approx(3.0)
    assert metrics["staged_examples_per_s"]["value"] == pytest.approx(40 / 0.04)
    assert metrics["setup_s"]["value"] == pytest.approx(0.2)
    assert result["attempted"] == 60 and metrics["pass_ratio"]["value"] == 1.0


def _span(sid, parent, t0, t1, tid=1, name="x"):
    return (sid, parent, name, tid, t0, t1)


def test_self_time_of_nested_spans():
    s = [
        _span(1, 0, 0.0, 10.0),
        _span(2, 1, 1.0, 4.0),
        _span(3, 2, 2.0, 3.0),
        _span(4, 1, 5.0, 9.0),
    ]
    got = spans.self_times(s)
    assert got == pytest.approx({1: 3.0, 2: 2.0, 3: 1.0, 4: 4.0})


def test_self_time_splits_overlap_across_threads():
    # 4 runs on a worker thread while 5 runs on the calling thread; both
    # are children of 1, and 6-8 is shared between them.
    s = [
        _span(1, 0, 0.0, 10.0),
        _span(2, 1, 1.0, 4.0),
        _span(3, 2, 2.0, 3.0),
        _span(4, 1, 5.0, 9.0, tid=2),
        _span(5, 1, 6.0, 8.0),
    ]
    got = spans.self_times(s)
    assert got == pytest.approx({1: 3.0, 2: 2.0, 3: 1.0, 4: 3.0, 5: 1.0})
    assert sum(got.values()) == pytest.approx(10.0)
    assert spans.root_of(s) == {1: 1, 2: 1, 3: 1, 4: 1, 5: 1}


def test_recorder_nests_and_carries_parent_into_pool_tasks():
    from concurrent.futures import ThreadPoolExecutor

    rec = spans.Recorder()
    inner = rec.wrap("inner", lambda: None)
    with ThreadPoolExecutor(1) as pool:
        submit = rec.wrap_submit(pool.submit)
        with rec.span("outer") as outer:
            inner()
            submit(inner).result()
    by_name = {}
    for s in rec.spans:
        by_name.setdefault(s[spans.NAME], []).append(s)
    assert [s[spans.PARENT] for s in by_name["inner"]] == [outer, outer]
    assert len({s[spans.TID] for s in by_name["inner"]}) == 2


def test_traced_run_reports_every_layer_metric_and_restores_entry_points():
    originals = (ops.dispatch, sf.serialize, sf.kernels.KERNELS["matmul"])
    rec = spans.Recorder()
    uninstall = layers.install(rec)
    try:
        stats = harness.Stats()
        with rec.span("bench.setup"):
            wl, _ = harness.setup(
                WORKLOADS["mlp_train"], 1, stats, span=rec.span,
                on_runtime=lambda rt: layers.attach_pool(rec, rt),
            )
        harness.run_loop(wl, stats, pairs=10, span=rec.span)
        counts = sf.get_runtime().stats.snapshot()
    finally:
        uninstall()
    assert (ops.dispatch, sf.serialize, sf.kernels.KERNELS["matmul"]) == originals
    assert stats.failed == 0, stats.messages
    values = layers.layer_metrics(layers.Analysis(rec), counts)
    supplied = {"floor.numpy_step_ms_p50", "tracing_overhead_ratio"}
    assert set(values) == {n for n, _ in layers.METRICS} - supplied
    assert values["trace.self_sum_over_wall"] <= 1.0 + 1e-9
    assert values["checkpoint.bytes"] > 0
    assert values["backprop.derivations"] == 1
    assert values["bench.eager_dispatches"] == values["runtime.eager_dispatches"]


def test_metric_names_units_and_benchmark_json_agree():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    per_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert e2e == run.END_TO_END
    assert per_layer == layers.METRICS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    names = [n for n, _ in e2e + per_layer]
    assert len(names) == len(set(names))
    for name, unit in e2e + per_layer:
        assert NAME_RE.fullmatch(name), name
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit), (name, unit)


def _run_bench(cwd, *args):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, "stagebench/run.py", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=170,
    )


def test_cli_prints_one_result_line():
    proc = _run_bench(ROOT, "--workload", "leapfrog", "--seed", "2",
                      "--seconds", "0.3", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == run.END_TO_END


def test_cli_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "stagebench", tmp_path / "stagebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_bench(tmp_path, "--workload", "leapfrog", "--seed", "1",
                      "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "{" not in proc.stdout

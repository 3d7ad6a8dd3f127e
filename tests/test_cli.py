import csv

import pytest

from stageflow import bench, cli
from stageflow.bench import CSV_HEADER, BenchConfig
from stageflow.errors import ConfigError, NumericalDivergence, StorageError


class TestBenchConfig:
    @pytest.mark.parametrize("overrides", [
        {"workload": "nope"},
        {"mode": "lazy"},
        {"iterations": 0},
        {"batch_size": 0},
        {"warmup": -1},
        {"repeats": 0},
    ])
    def test_validate_rejects(self, overrides):
        fields = {"workload": "microop_loop", "mode": "eager", **overrides}
        with pytest.raises(ConfigError):
            BenchConfig(**fields).validate()

    def test_validate_accepts_defaults(self):
        BenchConfig(workload="leapfrog", mode="staged").validate()


def _bench_args(*extra):
    return ["bench", "--workload", "leapfrog", "--mode", "eager",
            "--batch", "1", "--iters", "1", "--warmup", "0", "--repeats", "1",
            *extra]


class TestMain:
    def test_divergence_exits_2(self, monkeypatch, capsys):
        def diverge(cfg):
            raise NumericalDivergence("forced")

        monkeypatch.setattr(cli, "run_benchmark", diverge)
        assert cli.main(_bench_args()) == 2
        assert "forced" in capsys.readouterr().err

    def test_other_stageflow_error_exits_1(self, monkeypatch, capsys):
        def fail(cfg):
            raise StorageError("disk gone")

        monkeypatch.setattr(cli, "run_benchmark", fail)
        assert cli.main(_bench_args()) == 1
        assert "disk gone" in capsys.readouterr().err

    def test_success_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        assert cli.main(_bench_args("--workers", "3", "--out", str(out))) == 0
        assert "leapfrog [eager]" in capsys.readouterr().out
        rows = list(csv.reader(out.read_text(encoding="utf-8").splitlines()))
        assert rows[0] == CSV_HEADER.split(",")
        assert len(rows) == 3  # one repeat row plus the mean row
        assert rows[1][:4] == ["leapfrog", "eager", "1", "1"]
        assert float(rows[2][4]) > 0

    def test_prints_minor_faults_per_iteration(self, capsys):
        assert cli.main(_bench_args()) == 0
        line = capsys.readouterr().out.splitlines()[-1]
        assert line.startswith("minor faults per iteration: ")
        assert float(line.rsplit(" ", 1)[1]) >= 0

    def test_minor_faults_unavailable_without_resource(self, monkeypatch, capsys):
        monkeypatch.setattr(bench, "resource", None)
        assert cli.main(_bench_args()) == 0
        assert capsys.readouterr().out.splitlines()[-1] == (
            "minor faults per iteration: unavailable")


@pytest.mark.parametrize("mode, replays", [("eager", "20.0"), ("staged", "0.0")])
def test_leapfrog_reports_tape_replays_per_iteration(mode, replays, capsys):
    # Eager leapfrog replays each of its 20 force backwards per iteration;
    # staged runs them inside its graph.
    args = ["bench", "--workload", "leapfrog", "--mode", mode, "--batch", "1",
            "--iters", "2", "--warmup", "1", "--repeats", "2"]
    assert cli.main(args) == 0
    assert f"tape replays per iteration: {replays}" in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("mode, calls", [("eager", "0.0"), ("staged", "1.0")])
def test_leapfrog_reports_staged_calls_per_iteration(mode, calls, capsys):
    # Staged leapfrog is one staged call of the whole trajectory; its forces
    # are traced into that graph. Eager leapfrog stages nothing.
    args = ["bench", "--workload", "leapfrog", "--mode", mode, "--batch", "1",
            "--iters", "2", "--warmup", "1", "--repeats", "2"]
    assert cli.main(args) == 0
    lines = capsys.readouterr().out.splitlines()
    at = lines.index(f"staged calls per iteration: {calls}")
    assert lines[at - 1].startswith("tape replays per iteration: ")


def test_report_counts_minor_faults_over_the_timed_iterations(monkeypatch):
    counts = iter(range(0, 1000, 7))  # each reading is 7 faults after the last
    monkeypatch.setattr(bench, "_minor_faults", lambda: next(counts))
    report = bench.run_benchmark(BenchConfig("microop_loop", "eager", iterations=2,
                                             warmup=0, repeats=3))
    assert report.minor_faults_per_iteration == 7 * 3 / (3 * 2)

"""Unit tests for the perf-regression gate itself.

The gate protects every other benchmark; an always-green checker would
silently disarm CI, so its pass/fail/missing behaviours are pinned
here (fast, no perf marker — these run in the tier-1 suite).
"""

from __future__ import annotations

import json

import pytest

from check_regression import check, load_measurements, main


def write_metrics(directory, name, **metrics):
    path = directory / f"BENCH_{name}.json"
    path.write_text(json.dumps({"benchmark": name, "metrics": metrics}))
    return path


@pytest.fixture()
def baselines():
    return {
        "tolerance": 0.30,
        "benchmarks": {
            "alpha": {"speedup": 10.0},
            "beta": {"speedup": 5.0},
        },
    }


class TestCheck:
    def test_all_within_tolerance_passes(self, tmp_path, baselines, capsys):
        write_metrics(tmp_path, "alpha", speedup=9.0)
        write_metrics(tmp_path, "beta", speedup=4.0)
        failures = check(baselines, load_measurements(tmp_path))
        assert failures == []
        out = capsys.readouterr().out
        assert out.count("ok") == 2

    def test_regression_beyond_tolerance_fails(self, tmp_path, baselines, capsys):
        write_metrics(tmp_path, "alpha", speedup=6.9)  # 31% below 10.0
        write_metrics(tmp_path, "beta", speedup=5.0)
        failures = check(baselines, load_measurements(tmp_path))
        assert len(failures) == 1
        assert "alpha.speedup" in failures[0] and "31%" in failures[0]
        assert "FAIL" in capsys.readouterr().out

    def test_exactly_at_the_allowed_floor_passes(self, tmp_path, baselines):
        write_metrics(tmp_path, "alpha", speedup=7.0)  # exactly 30% below
        write_metrics(tmp_path, "beta", speedup=3.5)
        assert check(baselines, load_measurements(tmp_path)) == []

    def test_missing_measurement_fails_by_default(self, tmp_path, baselines):
        write_metrics(tmp_path, "alpha", speedup=10.0)
        failures = check(baselines, load_measurements(tmp_path))
        assert len(failures) == 1 and "beta.speedup" in failures[0]
        assert "no measurement" in failures[0]

    def test_allow_missing_downgrades_to_report(self, tmp_path, baselines):
        write_metrics(tmp_path, "alpha", speedup=10.0)
        failures = check(
            baselines, load_measurements(tmp_path), allow_missing=True
        )
        assert failures == []

    def test_tolerance_override(self, tmp_path, baselines):
        write_metrics(tmp_path, "alpha", speedup=6.0)
        write_metrics(tmp_path, "beta", speedup=3.0)
        assert check(baselines, load_measurements(tmp_path), tolerance=0.5) == []
        assert len(check(baselines, load_measurements(tmp_path), tolerance=0.1)) == 2

    def test_unbaselined_measurements_are_reported_not_failed(
        self, tmp_path, baselines, capsys
    ):
        write_metrics(tmp_path, "alpha", speedup=10.0)
        write_metrics(tmp_path, "beta", speedup=5.0)
        write_metrics(tmp_path, "gamma", speedup=1.0)
        assert check(baselines, load_measurements(tmp_path)) == []
        assert "unbaselined measurements present: gamma" in capsys.readouterr().out


class TestLoadMeasurements:
    def test_ignores_garbage_files_with_a_warning(self, tmp_path, capsys):
        write_metrics(tmp_path, "alpha", speedup=2.0)
        (tmp_path / "BENCH_broken.json").write_text("{nope")
        measurements = load_measurements(tmp_path)
        assert measurements == {"alpha": {"speedup": 2.0}}
        assert "ignoring unreadable metrics" in capsys.readouterr().out

    def test_only_bench_prefixed_files_count(self, tmp_path):
        write_metrics(tmp_path, "alpha", speedup=2.0)
        (tmp_path / "notes.json").write_text("{}")
        assert set(load_measurements(tmp_path)) == {"alpha"}


class TestMain:
    def run_main(self, tmp_path, baselines, **metrics_by_name):
        baseline_path = tmp_path / "baselines.json"
        baseline_path.write_text(json.dumps(baselines))
        output = tmp_path / "output"
        output.mkdir()
        for name, metrics in metrics_by_name.items():
            write_metrics(output, name, **metrics)
        return main(["--output-dir", str(output), "--baselines", str(baseline_path)])

    def test_exit_zero_when_clean(self, tmp_path, baselines, capsys):
        rc = self.run_main(
            tmp_path, baselines,
            alpha={"speedup": 12.0}, beta={"speedup": 6.0},
        )
        assert rc == 0
        assert "no perf regressions" in capsys.readouterr().out

    def test_exit_one_on_regression(self, tmp_path, baselines, capsys):
        rc = self.run_main(
            tmp_path, baselines,
            alpha={"speedup": 1.0}, beta={"speedup": 6.0},
        )
        assert rc == 1
        assert "perf regressions detected" in capsys.readouterr().out

    def test_exit_two_without_output_dir(self, tmp_path, baselines, capsys):
        baseline_path = tmp_path / "baselines.json"
        baseline_path.write_text(json.dumps(baselines))
        rc = main([
            "--output-dir", str(tmp_path / "missing"),
            "--baselines", str(baseline_path),
        ])
        assert rc == 2
        assert "run the perf benchmarks first" in capsys.readouterr().out

    def test_committed_baselines_parse_and_cover_every_perf_benchmark(self):
        from pathlib import Path

        doc = json.loads((Path(__file__).parent / "baselines.json").read_text())
        assert 0.0 < doc["tolerance"] < 1.0
        assert set(doc["benchmarks"]) == {
            "vectorized_sweep",
            "service_throughput",
            "planner_cache",
            "fastpath",
            "apps_fastpath",
            "wire_protocol",
            "cluster_scaleout",
            "chaos",
        }
        for metrics in doc["benchmarks"].values():
            for metric, value in metrics.items():
                # speedup floors promise a win (> 1); other gated
                # ratios (e.g. chaos degraded-throughput) only promise
                # a positive fraction of a reference
                assert value > (1.0 if metric == "speedup" else 0.0)

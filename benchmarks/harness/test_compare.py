"""The comparison gate on synthetic run sets.

A 20% slowdown of one end-to-end metric or of one per-layer metric must
be flagged; two sets drawn from the same distribution must pass.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

import compare

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def run_set(seed: int, *, scale: dict[str, float] | None = None, noise: float = 0.01,
            workload: str = "serve_cold_binary", n: int = 10) -> list[dict]:
    """``n`` synthetic results around fixed medians, with relative noise."""
    rng = np.random.default_rng(seed)
    base = {
        "metrics": {"ops_per_s": 20000.0, "latency_p50_us": 6000.0, "setup_s": 0.8,
                    "rss_mb": 60.0},
        "layers": {"batch.resolve_us_per_query": 30.0, "wire.decode_us_per_frame": 4.0,
                   "registry.memo_hit_ratio": 0.01},
    }
    runs = []
    for k in range(n):
        record = {"workload": workload, "seed": k, "failed": 0}
        for kind, values in base.items():
            record[kind] = {
                name: value * (scale or {}).get(name, 1.0) * (1 + noise * rng.standard_normal())
                for name, value in values.items()
            }
        runs.append(record)
    return runs


def verdicts(rows: list[compare.Row]) -> dict[str, str]:
    return {row.metric: row.verdict for row in rows}


def test_same_distribution_passes():
    rows = compare.compare(run_set(1), run_set(2), BENCHMARK)
    assert {row.verdict for row in rows} <= {"no-worse", "same"}
    assert len(rows) == 7


@pytest.mark.parametrize("seed", range(10))
def test_noisy_sets_of_one_distribution_are_never_flagged(seed):
    rows = compare.compare(run_set(2 * seed, noise=0.1), run_set(2 * seed + 1, noise=0.1),
                           BENCHMARK)
    assert not [row for row in rows if row.verdict in compare.FLAGGED]


@pytest.mark.parametrize("metric", ["ops_per_s", "latency_p50_us", "setup_s", "rss_mb"])
def test_twenty_percent_end_to_end_slowdown_is_flagged(metric):
    slower = 0.8 if metric == "ops_per_s" else 1.2
    rows = compare.compare(run_set(1), run_set(2, scale={metric: slower}), BENCHMARK)
    found = verdicts(rows)
    assert [m for m, v in found.items() if v in compare.FLAGGED] == [metric]


def test_slowdown_beyond_the_bound_is_a_regression():
    rows = compare.compare(run_set(1), run_set(2, scale={"ops_per_s": 0.8}), BENCHMARK)
    assert verdicts(rows)["ops_per_s"] == "regression"


def test_clear_slowdown_inside_the_bound_is_flagged_as_worse():
    rows = compare.compare(run_set(1), run_set(2, scale={"ops_per_s": 0.95}), BENCHMARK)
    assert verdicts(rows)["ops_per_s"] == "worse"


def test_twenty_percent_slowdown_of_one_layer_is_flagged():
    change = run_set(2, scale={"batch.resolve_us_per_query": 1.2})
    found = verdicts(compare.compare(run_set(1), change, BENCHMARK))
    assert found["batch.resolve_us_per_query"] == "worse"
    assert [m for m, v in found.items() if v in compare.FLAGGED] == ["batch.resolve_us_per_query"]


def test_gain_needs_nine_of_ten_wins_and_a_gap_beyond_the_iqr():
    faster = run_set(2, scale={"ops_per_s": 1.2, "batch.resolve_us_per_query": 0.8})
    found = verdicts(compare.compare(run_set(1), faster, BENCHMARK))
    assert found["ops_per_s"] == "gain"
    assert found["batch.resolve_us_per_query"] == "gain"
    # a shift inside the noise is no gain
    tiny = run_set(2, scale={"ops_per_s": 1.002})
    assert verdicts(compare.compare(run_set(1), tiny, BENCHMARK))["ops_per_s"] != "gain"


def test_spread_wider_than_the_bound_is_unresolved():
    rows = compare.compare(run_set(1, noise=0.3), run_set(2, noise=0.3), BENCHMARK)
    assert verdicts(rows)["ops_per_s"] == "unresolved"


def test_more_failures_are_flagged_and_the_cli_exits_nonzero(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for directory, runs in ((parent, run_set(1)), (change, run_set(2))):
        directory.mkdir()
        for run in runs:
            (directory / f"w.seed{run['seed']}.json").write_text(json.dumps(run))
    assert compare.main(["--parent", str(parent), "--change", str(change)]) == 0
    broken = json.loads((change / "w.seed0.json").read_text())
    broken["failed"] = 3
    (change / "w.seed0.json").write_text(json.dumps(broken))
    assert compare.main(["--parent", str(parent), "--change", str(change)]) == 1

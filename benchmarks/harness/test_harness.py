"""Smoke, determinism and answer-checker tests of the benchmark harness.

Every workload runs at toy scale through the real runner: the same
server and worker subprocesses, wrappers and checks as a full run, on
inputs small enough for the tier-1 suite.
"""

from __future__ import annotations

import itertools
import json
import os
import re
import shutil
import struct
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import inputs
import run
import serving
import speed

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9_.-]+")
#: measured window of a toy serving run, seconds
WINDOW = 0.25


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One traced toy run per workload (which includes its untraced run),
    two at a time, each worker thread (and so each run it pins) on a CPU
    of its own where there are two."""
    run.bootstrap()
    cpus = itertools.cycle(sorted(os.sched_getaffinity(0)))

    def own_cpu() -> None:
        os.sched_setaffinity(0, {next(cpus)})

    def one(workload: str) -> dict:
        workdir = tmp_path_factory.mktemp(workload)
        return run.run_workload(workload, 3, WINDOW, True, inputs.TOY, workdir)

    with ThreadPoolExecutor(max_workers=2, initializer=own_cpu) as pool:
        return dict(zip(inputs.WORKLOADS, pool.map(one, inputs.WORKLOADS)))


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_every_declared_metric_is_emitted_with_its_unit(traced, workload):
    declared = run.declared()
    result = traced[workload]
    assert result["failed"] == 0, result["failures"]
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        line = run.contract_line([result], trace)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        units = {name: metric["unit"] for name, metric in line["metrics"].items()}
        assert units == declared[kind]
        for metric in line["metrics"].values():
            assert isinstance(metric["value"], (int, float))
    assert set(result["metrics"]) == set(declared["end_to_end"])
    assert set(result["layers"]) == set(declared["per_layer"])


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_self_times_and_other_sum_to_the_traced_wall(traced, workload):
    result = traced[workload]
    assert result["self_frac"], "the traced run recorded no spans"
    total = sum(result["self_frac"].values()) + result["layers"]["trace.other_frac"]
    assert total == pytest.approx(1.0, abs=0.01)


def test_names_are_well_formed_and_unique():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(inputs.WORKLOADS)
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for kind in ("end_to_end", "per_layer") for m in doc[kind]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
COUNTS = ("vectorized.grid_calls_per_kq", "engine.boots", "engine.events_per_exchange")


@pytest.mark.parametrize("workload", inputs.INPROC_WORKLOADS)
def test_same_seed_gives_the_same_inputs_and_counts(traced, workload, tmp_path):
    again = run.run_workload(workload, 3, WINDOW, True, inputs.TOY, tmp_path)
    first = traced[workload]
    assert again["digest"] == first["digest"]
    assert again["n_ops"] == first["n_ops"]
    assert {k: again["layers"][k] for k in COUNTS} == {k: first["layers"][k] for k in COUNTS}


@pytest.mark.parametrize("workload", inputs.SERVE_WORKLOADS)
def test_serving_inputs_depend_on_the_seed_only(workload):
    assert inputs.serve_digest(workload, 1) == inputs.serve_digest(workload, 1)
    assert inputs.serve_digest(workload, 1) != inputs.serve_digest(workload, 2)


@pytest.mark.parametrize("workload", ["plan_stream", "chaos"])
def test_inproc_inputs_depend_on_the_seed_only(workload):
    digest = inputs.inproc_digest
    assert digest(workload, 1, inputs.FULL) == digest(workload, 1, inputs.FULL)
    assert digest(workload, 1, inputs.FULL) != digest(workload, 2, inputs.FULL)


def test_reproduce_interleaves_every_paper_point_once():
    run.bootstrap()
    from repro.analysis.figures import FIGURE_SPECS

    configs = inputs.reproduce_configs(inputs.FULL)
    assert len(configs) == 79
    assert [c[0] for c in configs[:6]] == [4, 5, 6, 4, 5, 6]
    for figure, sizes in inputs.FULL["reproduce"]["figures"]:
        points = {(tuple(c[2]), c[3]) for c in configs if c[0] == figure}
        assert points == {(p, m) for p in FIGURE_SPECS[figure].partitions for m in sizes}


def test_hot_json_and_binary_streams_are_the_same_queries():
    for block in (0, 3):
        d1, m1 = inputs.query_block("serve_hot_binary", 7, block)
        d2, m2 = inputs.query_block("serve_hot_json", 7, block)
        assert np.array_equal(d1, d2) and np.array_equal(m1, m2)
    _, m = inputs.query_block("serve_cold_binary", 7, 0)
    assert len(np.unique(m)) == m.size
    assert (m[:, 0::2] < inputs.SHARD_BOUND).all() and (m[:, 1::2] >= inputs.SHARD_BOUND).all()


# ----------------------------------------------------------------------
# the answer checker
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def shard_dir(tmp_path_factory):
    run.bootstrap()
    from repro.service.registry import OptimizerRegistry

    directory = tmp_path_factory.mktemp("shards")
    OptimizerRegistry().save_shards(directory, presets=[inputs.PRESET])
    return directory


QUERIES = [(5, 40.0), (7, 100.5), (8, 1234.25)]


def answers(shard_dir):
    from repro.service import wire
    from repro.service.registry import OptimizerRegistry

    results = OptimizerRegistry.from_shards(shard_dir).resolve(
        [(inputs.PRESET, d, m) for d, m in QUERIES]
    )
    line = json.dumps({"ok": True, "results": [
        {"partition": list(r.partition), "time_us": r.time_us} for r in results
    ]}).encode()
    return wire.encode_results(results), line


def test_checker_accepts_correct_answers(shard_dir):
    payload, line = answers(shard_dir)
    expected = serving.resolver(shard_dir)
    assert serving.check_answers([(QUERIES, payload)], expected, json_wire=False) == (0, [])
    assert serving.check_answers([(QUERIES, line)], expected, json_wire=True) == (0, [])


def test_checker_counts_a_corrupted_frame(shard_dir):
    payload, _ = answers(shard_dir)
    expected = serving.resolver(shard_dir)
    for corrupt in (payload[:-1], payload[:10], struct.pack("<I", 2) + payload[4:]):
        failed, messages = serving.check_answers([(QUERIES, corrupt)], expected, False)
        assert failed == len(QUERIES) and messages


def test_checker_counts_a_wrong_time(shard_dir):
    payload, line = answers(shard_dir)
    expected = serving.resolver(shard_dir)
    times = np.frombuffer(payload, "<f8", len(QUERIES), 4).copy()
    times[1] = np.nextafter(times[1], np.inf)
    wrong = payload[:4] + times.tobytes() + payload[4 + 8 * len(QUERIES):]
    assert serving.check_answers([(QUERIES, wrong)], expected, False)[0] == 1
    doc = json.loads(line)
    doc["results"][2]["time_us"] *= 1.001
    assert serving.check_answers([(QUERIES, json.dumps(doc).encode())], expected, True)[0] == 1


def test_a_wrong_answer_fails_the_run_and_the_exit_status(tmp_path, monkeypatch, capsys):
    decode = serving.decode_result

    def off_by_one_ulp(payload):
        return [(part, float(np.nextafter(t, np.inf))) for part, t in decode(payload)]

    monkeypatch.setattr(serving, "decode_result", off_by_one_ulp)
    run.bootstrap()
    result = run.run_workload("serve_hot_binary", 3, WINDOW, False, inputs.TOY, tmp_path)
    assert result["failed"] > 0
    assert run.report([result], {}, trace=False) == 1
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert line["correct"] is False and line["failed"] == result["failed"]


def test_a_client_bound_run_fails(tmp_path, monkeypatch):
    monkeypatch.setattr(serving, "CLIENT_BOUND_FRAC", 0.0)
    run.bootstrap()
    result = run.run_workload("serve_hot_binary", 3, WINDOW, False, inputs.TOY, tmp_path)
    assert result["failed"] == result["attempted"]
    assert any("client-bound" in failure for failure in result["failures"])


# ----------------------------------------------------------------------
# reference time
# ----------------------------------------------------------------------
def test_reference_clock_weights_wall_time_by_the_probed_speed():
    ref = speed.REFERENCE_PROBE_S
    # full speed for 10 s, then half speed; one probe hit by an interrupt
    samples = [(t, ref) for t in range(10)] + [(t, 2 * ref) for t in range(10, 20)]
    samples[4] = (4, 10 * ref)
    clock = speed.ReferenceClock(samples)
    assert clock.seconds(0, 5) == pytest.approx(5.0)
    assert clock.seconds(12, 19) == pytest.approx(3.5)
    # held beyond the last sample
    assert clock.seconds(19, 29) == pytest.approx(5.0)


def test_without_the_program_the_benchmark_refuses_to_run(tmp_path):
    """In a directory holding only BENCHMARK.json and the harness, the
    benchmark exits non-zero without printing a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        Path(__file__).resolve().parent, tmp_path / "benchmarks" / "harness",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "benchmarks/harness/run.py", "--workload", "plan_stream",
         "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

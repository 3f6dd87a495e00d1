"""Tests for the command-line interface."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.service.registry import RegistryStats


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_machine(self):
        with pytest.raises(SystemExit):
            main(["--machine", "cray", "demo"])

    def test_figure_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "7"])


class TestCommands:
    def test_report(self, capsys):
        assert main(["report"]) == 0
        out = capsys.readouterr().out
        assert "comparisons agree" in out
        assert "p(20)" in out

    def test_figure(self, capsys):
        assert main(["figure", "5"]) == 0
        out = capsys.readouterr().out
        assert "Figure 5" in out
        assert "hull of optimality" in out

    def test_hull(self, capsys):
        assert main(["hull", "6"]) == 0
        out = capsys.readouterr().out
        assert "{2,2,2}" in out and "{6}" in out

    def test_simulate_with_partition(self, capsys):
        assert main(["simulate", "4", "24", "2", "2"]) == 0
        out = capsys.readouterr().out
        assert "byte-verified" in out
        assert "{2,2}" in out

    def test_simulate_optimizer_default(self, capsys):
        assert main(["simulate", "4", "24"]) == 0
        out = capsys.readouterr().out
        assert "partition {" in out

    def test_simulate_rejects_bad_partition(self):
        with pytest.raises(ValueError):
            main(["simulate", "4", "24", "3", "2"])

    @pytest.mark.parametrize("size, pattern", [("nan", "scatter"), ("inf", "broadcast")])
    def test_plan_rejects_non_finite_block_size(self, size, pattern, capsys):
        with pytest.raises(ValueError, match="finite"):
            main(["plan", "7", size, "--pattern", pattern])
        assert "chosen" not in capsys.readouterr().out

    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "best partition" in out

    def test_hypothetical_machine(self, capsys):
        assert main(["--machine", "hypothetical", "hull", "6"]) == 0
        out = capsys.readouterr().out
        assert "hypothetical" in out


class TestSweepCommand:
    def test_sweep(self, capsys):
        assert main(["sweep", "--dims", "5", "--sizes", "8", "40"]) == 0
        out = capsys.readouterr().out
        assert "d\\m(B)" in out
        assert "{2,3}" in out


class TestHullPersistence:
    def test_save_and_load_roundtrip(self, tmp_path, capsys):
        path = str(tmp_path / "d5.json")
        assert main(["hull", "5", "--save", path]) == 0
        first = capsys.readouterr().out
        assert "stored optimizer table" in first
        assert main(["hull", "5", "--load", path]) == 0
        second = capsys.readouterr().out
        assert "{2,3}" in second and "{5}" in second

    def test_load_wrong_dimension_rejected(self, tmp_path, capsys):
        path = str(tmp_path / "d5.json")
        main(["hull", "5", "--save", path])
        capsys.readouterr()
        with pytest.raises(SystemExit, match="d=5"):
            main(["hull", "6", "--load", path])

    def test_load_wrong_machine_rejected(self, tmp_path, capsys):
        path = str(tmp_path / "d5.json")
        main(["hull", "5", "--save", path])
        capsys.readouterr()
        with pytest.raises(ValueError, match="different constants"):
            main(["--machine", "hypothetical", "hull", "5", "--load", path])


class TestJsonOutput:
    def test_hull_json(self, capsys):
        import json

        assert main(["hull", "5", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["d"] == 5 and doc["machine"] == "iPSC-860"
        assert doc["hull"] == [[3, 2], [5]]
        assert doc["ranges"][0]["lo"] == 0.0
        assert doc["ranges"][-1]["hi"] == 400.0

    def test_hull_text_unchanged_by_flag_absence(self, capsys):
        assert main(["hull", "5"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("hull of optimality")
        assert "{" in out and "bytes" in out

    def test_sweep_json(self, capsys):
        import json

        assert main(["sweep", "--dims", "5", "--sizes", "8", "40", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["machine"] == "iPSC-860"
        assert [c["partition"] for c in doc["cells"]] == [[3, 2], [3, 2]]
        assert all(c["gain_over_classics"] >= 1.0 for c in doc["cells"])

    def test_query_json(self, capsys):
        import json

        assert main(["query", "7", "40", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["partition"] == [4, 3]
        assert doc["source"] == "grid"


class TestServiceCommands:
    def test_shards_then_query(self, tmp_path, capsys):
        shard_dir = str(tmp_path / "shards")
        assert main(["shards", shard_dir]) == 0
        out = capsys.readouterr().out
        assert "ipsc860.shard" in out
        assert main(["query", "7", "40", "--shards", shard_dir]) == 0
        out = capsys.readouterr().out
        assert "{3,4}" in out and "certified pool envelope" in out

    def test_shards_all_machines(self, tmp_path, capsys):
        shard_dir = str(tmp_path / "shards")
        assert main(["shards", shard_dir, "--all-machines"]) == 0
        out = capsys.readouterr().out
        assert "hypothetical.shard" in out and "ipsc860.shard" in out

    def test_query_text(self, capsys):
        assert main(["query", "7", "40"]) == 0
        out = capsys.readouterr().out
        assert "optimal partition for d=7" in out
        assert "{3,4}" in out

    def test_query_missing_shard_dir(self, tmp_path):
        with pytest.raises(SystemExit, match="does not exist"):
            main(["query", "7", "40", "--shards", str(tmp_path / "nope")])

    def test_serve_session(self, tmp_path, capsys, monkeypatch):
        import io
        import json
        import sys as _sys

        shard_dir = str(tmp_path / "shards")
        assert main(["shards", shard_dir, "--all-machines"]) == 0
        capsys.readouterr()
        requests = "\n".join(
            [
                '{"d": 7, "m": 40, "id": 1}',
                '{"preset": "hypothetical", "d": 6, "m": 24, "id": 2}',
                '{"d": 7, "m": 40, "id": 3}',
                '{"op": "stats"}',
            ]
        ) + "\n"
        monkeypatch.setattr(_sys, "stdin", io.StringIO(requests))
        assert main(["serve", "--shards", shard_dir]) == 0
        captured = capsys.readouterr()
        lines = [json.loads(line) for line in captured.out.splitlines()]
        assert lines[0]["partition"] == [4, 3] and lines[0]["id"] == 1
        assert lines[1]["partition"] == [3, 3]
        assert lines[2]["source"] == "memo"
        assert lines[3]["stats"]["memo_hits"] == 1
        assert list(lines[3]["stats"]) == list(RegistryStats().as_dict()) == [
            "queries", "memo_hits", "memo_misses", "memo_hit_rate", "coalesced",
            "grid_calls", "grid_cells",
        ]
        assert captured.err == "served 3 queries: 1 memo hits (33.3%), 2 grid calls\n"

    def test_serve_shard_dir_without_default_preset(self, tmp_path, capsys, monkeypatch):
        import io
        import json
        import sys as _sys

        shard_dir = str(tmp_path / "shards")
        assert main(
            ["--machine", "hypothetical", "shards", shard_dir]
        ) == 0
        capsys.readouterr()
        requests = (
            '{"preset": "hypothetical", "d": 5, "m": 40}\n'
            '{"d": 5, "m": 40}\n'
        )
        monkeypatch.setattr(_sys, "stdin", io.StringIO(requests))
        # the default --machine (ipsc860) is absent from the shard dir:
        # the server must still start and answer preset-named requests
        assert main(["serve", "--shards", shard_dir]) == 0
        captured = capsys.readouterr()
        lines = [json.loads(line) for line in captured.out.splitlines()]
        assert lines[0]["ok"] and lines[0]["preset"] == "hypothetical"
        assert not lines[1]["ok"] and "no default" in lines[1]["error"]
        assert "requests must name a preset" in captured.err

    def test_serve_without_shards(self, capsys, monkeypatch):
        import io
        import json
        import sys as _sys

        monkeypatch.setattr(_sys, "stdin", io.StringIO('{"d": 5, "m": 40}\n'))
        assert main(["serve"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["partition"] == [3, 2]


class TestSocketServeCommand:
    """The async transport behind ``repro serve --socket`` and the
    connected one-shot ``repro query --connect``."""

    # a leaked client socket or a returning deprecation fails the class
    pytestmark = [
        pytest.mark.filterwarnings("error::ResourceWarning"),
        pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning"),
        pytest.mark.filterwarnings("error::DeprecationWarning"),
    ]

    def test_socket_serve_warm_query_shutdown(self, tmp_path, capsys):
        import json
        import threading
        import time

        from repro.service.client import ServerClient

        log = tmp_path / "warm.jsonl"
        log.write_text('{"d": 7, "m": 40}\n{"queries": [{"d": 5, "m": 8}]}\n')
        sock = tmp_path / "server.sock"
        spec = f"unix:{sock}"
        outcome: dict = {}

        def run_serve():
            outcome["rc"] = main(["serve", "--socket", spec, "--warm", str(log)])

        thread = threading.Thread(target=run_serve, daemon=True)
        thread.start()
        deadline = time.monotonic() + 10
        while not sock.exists():
            assert time.monotonic() < deadline, "server socket never appeared"
            time.sleep(0.02)

        err_parts = []

        # a connected one-shot query, answered from the warmed memo
        assert main(["query", "7", "40", "--connect", spec, "--json"]) == 0
        captured = capsys.readouterr()
        err_parts.append(captured.err)
        doc = json.loads(captured.out)
        assert doc["partition"] == [4, 3] and doc["source"] == "memo"

        assert main(["query", "5", "8", "--connect", spec]) == 0
        captured = capsys.readouterr()
        err_parts.append(captured.err)
        assert "{2,3}" in captured.out and f"optimizer server at {spec}" in captured.out

        with ServerClient(spec) as client:
            client.shutdown()
        thread.join(10)
        assert not thread.is_alive() and outcome["rc"] == 0
        err = "".join(err_parts) + capsys.readouterr().err
        assert "warm-up: warmed 2 unique queries" in err
        assert f"serving optimizer queries on {spec}" in err
        # the exit summary reports served traffic, not the warm-up
        assert "served 2 queries over 3 connections" in err
        assert "2 memo hits (100.0%)" in err

    def test_connect_refused_is_a_clean_exit(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot reach optimizer server"):
            main(["query", "7", "40", "--connect", f"unix:{tmp_path / 'nope.sock'}"])

    def test_connect_excludes_shards(self, tmp_path):
        with pytest.raises(SystemExit, match="mutually exclusive"):
            main([
                "query", "7", "40",
                "--connect", "127.0.0.1:1", "--shards", str(tmp_path),
            ])

    def test_connect_server_error_is_a_clean_exit(self, tmp_path):
        import threading
        import time

        sock = tmp_path / "server.sock"
        spec = f"unix:{sock}"
        thread = threading.Thread(
            target=lambda: main(["serve", "--socket", spec]), daemon=True
        )
        thread.start()
        deadline = time.monotonic() + 10
        while not sock.exists():
            assert time.monotonic() < deadline
            time.sleep(0.02)
        try:
            with pytest.raises(SystemExit, match="server error: "):
                # d=0 is rejected by the server, in-band, as on stdio
                main(["query", "0", "40", "--connect", spec])
        finally:
            from repro.service.client import ServerClient

            with ServerClient(spec) as client:
                client.shutdown()
            thread.join(10)

    def test_batch_flags_require_socket(self):
        with pytest.raises(SystemExit, match="only apply to --socket"):
            main(["serve", "--max-batch", "16"])

    def test_bad_socket_address_rejected(self):
        with pytest.raises(SystemExit, match="not 'HOST:PORT'"):
            main(["serve", "--socket", "localhost"])


class TestPlanCommand:
    def test_plan_model_policy(self, capsys):
        assert main(["plan", "7", "40"]) == 0
        out = capsys.readouterr().out
        assert "plan for complete exchange" in out
        assert "{3,4}" in out and "<-- chosen" in out
        assert "standard" in out and "single-phase" in out and "naive" in out

    def test_plan_fixed_policy(self, capsys):
        assert main(["plan", "7", "40", "--policy", "fixed"]) == 0
        out = capsys.readouterr().out
        assert "policy: fixed" in out
        assert "single-phase {7}" in out

    def test_plan_service_policy(self, capsys):
        assert main(["plan", "7", "40", "--policy", "service"]) == 0
        out = capsys.readouterr().out
        assert "policy: service:ipsc860" in out
        assert "{3,4}" in out

    def test_plan_service_with_shards(self, tmp_path, capsys):
        shard_dir = str(tmp_path / "shards")
        assert main(["shards", shard_dir]) == 0
        capsys.readouterr()
        assert main(["plan", "7", "40", "--policy", "service", "--shards", shard_dir]) == 0
        out = capsys.readouterr().out
        assert "{3,4}" in out

    def test_plan_json(self, capsys):
        import json

        assert main(["plan", "7", "40", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["algorithm"] == "multiphase"
        assert doc["partition"] == [4, 3]
        by_name = {c["algorithm"]: c for c in doc["candidates"]}
        assert set(by_name) >= {"standard", "single-phase", "naive"}
        # candidate partitions are machine-readable lists, not strings
        assert by_name["standard"]["partition"] == [1] * 7
        assert by_name["single-phase"]["partition"] == [7]
        assert by_name["naive"]["partition"] is None
        assert by_name["naive"]["predicted_us"] is None

    def test_plan_shards_require_service_policy(self, tmp_path):
        with pytest.raises(SystemExit, match="only applies to --policy service"):
            main(["plan", "7", "40", "--shards", str(tmp_path)])

    def test_plan_pattern(self, capsys):
        assert main(["plan", "5", "40", "--pattern", "scatter"]) == 0
        out = capsys.readouterr().out
        assert "plan for scatter" in out
        assert "halving" in out and "direct" in out

    def test_plan_pattern_json(self, capsys):
        import json

        assert main(["plan", "5", "40", "--pattern", "allgather", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["algorithm"] == "doubling"
        assert len(doc["candidates"]) == 2


class TestAppsCommand:
    def test_apps_model_policy(self, capsys):
        assert main(["apps", "--policy", "model"]) == 0
        out = capsys.readouterr().out
        assert "apps verified (payload-checked): transpose, fft2d, lookup, adi" in out
        assert "max rel. error" in out

    def test_apps_subset_fixed_policy(self, capsys):
        assert main(["apps", "--policy", "fixed", "--apps", "transpose"]) == 0
        out = capsys.readouterr().out
        assert "policy 'fixed'" in out
        assert "transpose" in out and "adi" not in out

    def test_apps_unknown_app(self):
        with pytest.raises(SystemExit, match="unknown app"):
            main(["apps", "--apps", "raytracer"])

    def test_apps_event_engine(self, capsys):
        assert main(["apps", "--policy", "fixed", "--apps", "transpose",
                     "--engine", "event"]) == 0
        out = capsys.readouterr().out
        assert "[event engine]" in out


class TestValidateCommand:
    def test_validate_defaults_to_fast_engine(self, capsys):
        assert main(["validate", "--policy", "model",
                     "--apps", "transpose", "fft2d"]) == 0
        out = capsys.readouterr().out
        assert "[fast engine]" in out
        assert "planner validation under policy 'model'" in out
        assert "transpose" in out and "fft2d" in out

    def test_validate_engines_agree(self, capsys):
        assert main(["validate", "--policy", "model", "--apps", "lookup"]) == 0
        fast_out = capsys.readouterr().out
        assert main(["validate", "--policy", "model", "--apps", "lookup",
                     "--engine", "event"]) == 0
        event_out = capsys.readouterr().out
        # identical report apart from the engine tag and the boot audit
        # (float-identical simulated times is the fast path's contract)
        normalize = re.compile(r"event-engine boots: \d+")
        assert normalize.sub(
            "boots", fast_out.replace("[fast engine]", "[event engine]")
        ) == normalize.sub("boots", event_out)
        assert "event-engine boots: 0" in fast_out
        assert "event-engine boots: 0" not in event_out

    def test_validate_contention_policy(self, capsys):
        assert main(["validate", "--policy", "contention",
                     "--apps", "transpose"]) == 0
        out = capsys.readouterr().out
        assert "policy 'contention'" in out

    def test_validate_rejects_bad_engine(self):
        with pytest.raises(SystemExit):
            main(["validate", "--engine", "warp"])


class TestPlanContentionPolicy:
    def test_naive_baseline_is_priced(self, capsys):
        assert main(["plan", "6", "16", "--policy", "contention"]) == 0
        out = capsys.readouterr().out
        assert "policy: contention" in out
        naive_line = next(
            line for line in out.splitlines() if line.strip().startswith("naive")
        )
        assert "no analytic model" not in naive_line
        assert "us" in naive_line

    def test_naive_price_in_json(self, capsys):
        import json

        assert main(["plan", "6", "16", "--policy", "contention", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        by_name = {c["algorithm"]: c for c in doc["candidates"]}
        assert by_name["naive"]["predicted_us"] is not None
        assert by_name["naive"]["predicted_us"] > doc["predicted_us"]


class TestReviewRegressions:
    def test_hull_json_after_load_has_unknown_bound(self, tmp_path, capsys):
        import json

        path = str(tmp_path / "d5.json")
        assert main(["hull", "5", "--save", path]) == 0
        capsys.readouterr()
        assert main(["hull", "5", "--load", path, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        # the stored document does not record the sweep bound
        assert doc["m_max"] is None
        assert doc["ranges"][-1]["hi"] is None
        assert doc["ranges"][0]["hi"] == doc["boundaries"][0]

    def test_query_answers_from_a_calibration_shard(self, tmp_path, capsys):
        shard_dir = str(tmp_path / "shards")
        assert main(["shards", shard_dir]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit):
            main(["shards", shard_dir, "--dims", "5"])  # a shard stores no tables
        capsys.readouterr()
        assert main(["query", "7", "40", "--shards", shard_dir]) == 0
        out = capsys.readouterr().out
        assert "{3,4}" in out and "certified pool envelope" in out and "(grid)" in out
        assert main(["query", "7", "0", "--shards", shard_dir]) == 0
        assert "exact full-pool scoring" in capsys.readouterr().out

    def test_query_answers_a_dim_missing_from_the_shards(self, capsys):
        # shards that stored tables for d 5 and 7 answer d 6 from its envelope
        shard_dir = str(Path(__file__).resolve().parent / "service" / "data")
        assert main(["query", "6", "40", "--shards", shard_dir]) == 0
        out = capsys.readouterr().out
        assert "{3,3}" in out and "certified pool envelope" in out and "(grid)" in out
        assert main(["query", "6", "0", "--shards", shard_dir]) == 0
        assert "exact full-pool scoring" in capsys.readouterr().out

    def test_truncated_shard_is_a_clean_error(self, tmp_path):
        shard_dir = tmp_path / "shards"
        shard_dir.mkdir()
        (shard_dir / "ipsc860.shard").write_bytes(b"RPROSHRD\x02\x00")
        with pytest.raises(SystemExit, match="truncated"):
            main(["query", "7", "40", "--shards", str(shard_dir)])

    def test_hull_json_merges_adjacent_duplicate_segments(self, tmp_path, capsys):
        import json
        from dataclasses import asdict

        from repro.model.params import ipsc860

        doc = {
            "format_version": 1,
            "d": 7,
            "params": asdict(ipsc860()),
            "boundaries": [10.0, 50.0],
            "segments": [[4, 3], [4, 3], [7]],
        }
        path = tmp_path / "dup.json"
        path.write_text(json.dumps(doc))
        assert main(["hull", "7", "--load", str(path), "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["ranges"] == [
            {"partition": [4, 3], "lo": 0.0, "hi": 50.0},
            {"partition": [7], "lo": 50.0, "hi": None},
        ]

    def test_hull_text_merges_adjacent_duplicate_segments(self, tmp_path, capsys):
        import json
        from dataclasses import asdict

        from repro.model.params import ipsc860

        doc = {
            "format_version": 1,
            "d": 7,
            "params": asdict(ipsc860()),
            "boundaries": [10.0, 50.0],
            "segments": [[4, 3], [4, 3], [7]],
        }
        path = tmp_path / "dup.json"
        path.write_text(json.dumps(doc))
        assert main(["hull", "7", "--load", str(path)]) == 0
        out = capsys.readouterr().out
        # {3,4} covers 0-50 B (both stored segments), not 0-10 B; the
        # final segment's extent is unrecorded, so it prints open-ended
        assert "stored table:" in out
        assert "{3,4}              0.0 ..    50.0 bytes" in out
        assert "{7}               50.0 ..       ? bytes" in out

    def test_hull_text_widens_to_a_wider_loaded_table(self, tmp_path, capsys):
        import json
        from dataclasses import asdict

        from repro.model.params import ipsc860

        doc = {
            "format_version": 1,
            "d": 7,
            "params": asdict(ipsc860()),
            "boundaries": [10.0, 500.0],
            "segments": [[4, 3], [4, 3], [7]],
        }
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(doc))
        assert main(["hull", "7", "--load", str(path)]) == 0
        out = capsys.readouterr().out
        # the stored sweep reaches 500 B; the default 400 B cap must
        # neither invert the final range ("500.0 .. 400.0") nor cap it
        assert "stored table:" in out
        assert "{3,4}              0.0 ..   500.0 bytes" in out
        assert "{7}              500.0 ..       ? bytes" in out


class TestCheckCommand:
    def test_check_code_is_clean(self, capsys):
        assert main(["check", "--code"]) == 0
        out = capsys.readouterr().out
        assert "0 violation(s)" in out
        assert "code:float-eq" not in out  # certified list only in --json

    def test_check_schedules_small_dims(self, capsys):
        assert main(["check", "--schedules", "--dims", "2", "3"]) == 0
        out = capsys.readouterr().out
        assert "0 violation(s)" in out

    def test_check_json_document(self, capsys):
        assert main(["check", "--code", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert any(c.startswith("code:") for c in doc["certified"])
        assert doc["violations"] == []

    def test_check_flags_violations_nonzero(self, capsys, tmp_path):
        (tmp_path / "bad.py").write_text(
            "import time\nasync def f():\n    time.sleep(1)\n"
        )
        assert main(["check", "--code", "--root", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "async-blocking" in out

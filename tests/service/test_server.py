"""Tests for the JSON-lines serving loop."""

from __future__ import annotations

import io
import json

import pytest

from repro.service.registry import OptimizerRegistry
from repro.service.server import handle_request, serve
from tests.service.protocol_cases import CASE_IDS, CASE_MAX_QUERIES, ERROR_CASES, VALID_LINE


def run_session(lines, registry=None, **kwargs):
    registry = registry if registry is not None else OptimizerRegistry()
    out = io.StringIO()
    stats = serve(registry, io.StringIO("\n".join(lines) + "\n"), out, **kwargs)
    responses = [json.loads(line) for line in out.getvalue().splitlines()]
    return responses, stats


class TestSingleQueries:
    def test_lookup(self):
        responses, _ = run_session(['{"preset": "ipsc860", "d": 7, "m": 40}'])
        (r,) = responses
        assert r["ok"] and r["partition"] == [4, 3] and r["source"] == "grid"

    def test_id_echoed(self):
        responses, _ = run_session(['{"preset": "ipsc860", "d": 7, "m": 40, "id": 17}'])
        assert responses[0]["id"] == 17

    def test_default_preset(self):
        responses, _ = run_session(['{"d": 7, "m": 40}'], default_preset="ipsc860")
        assert responses[0]["ok"] and responses[0]["preset"] == "ipsc860"

    def test_no_default_preset_is_an_error(self):
        responses, _ = run_session(['{"d": 7, "m": 40}'])
        assert not responses[0]["ok"]
        assert "preset" in responses[0]["error"]

    def test_repeat_served_from_memo(self):
        line = '{"preset": "ipsc860", "d": 7, "m": 40}'
        responses, _ = run_session([line, line])
        assert responses[0]["source"] == "grid"
        assert responses[1]["source"] == "memo"
        assert responses[1]["time_us"] == responses[0]["time_us"]


class TestBatchRequests:
    def test_queries_object(self):
        request = json.dumps(
            {"queries": [{"d": 7, "m": 40}, {"d": 5, "m": 40}], "id": 3}
        )
        responses, _ = run_session([request], default_preset="ipsc860")
        (r,) = responses
        assert r["ok"] and r["id"] == 3
        assert [item["partition"] for item in r["results"]] == [[4, 3], [3, 2]]

    def test_bare_array(self):
        request = json.dumps([{"d": 7, "m": 40}, {"d": 7, "m": 40}])
        responses, _ = run_session([request], default_preset="ipsc860")
        assert [item["source"] for item in responses[0]["results"]] == ["grid", "grid"]

    def test_per_query_ids(self):
        request = json.dumps({"queries": [{"d": 7, "m": 40, "id": "q1"}]})
        responses, _ = run_session([request], default_preset="ipsc860")
        assert responses[0]["results"][0]["id"] == "q1"


class TestOps:
    def test_stats(self):
        responses, _ = run_session(
            ['{"preset": "ipsc860", "d": 7, "m": 40}', '{"op": "stats"}']
        )
        stats = responses[1]["stats"]
        assert responses[1]["ok"]
        assert stats["queries"] == 1 and stats["grid_calls"] == 1

    def test_presets(self):
        responses, _ = run_session(['{"op": "presets"}'])
        assert responses[0]["presets"] == ["hypothetical", "ipsc860"]

    def test_unknown_op(self):
        responses, _ = run_session(['{"op": "selfdestruct", "id": 1}'])
        assert not responses[0]["ok"] and responses[0]["id"] == 1


class TestRobustness:
    def test_bad_json_keeps_serving(self):
        responses, _ = run_session(
            ["{not json", '{"preset": "ipsc860", "d": 7, "m": 40}']
        )
        assert not responses[0]["ok"] and "invalid JSON" in responses[0]["error"]
        assert responses[1]["ok"]

    def test_blank_lines_skipped(self):
        responses, _ = run_session(["", '{"preset": "ipsc860", "d": 7, "m": 40}', ""])
        assert len(responses) == 1

    def test_missing_field(self):
        responses, _ = run_session(['{"preset": "ipsc860", "d": 7}'])
        assert not responses[0]["ok"] and "'m'" in responses[0]["error"]

    def test_unknown_field(self):
        responses, _ = run_session(['{"preset": "ipsc860", "d": 7, "m": 1, "x": 2}'])
        assert not responses[0]["ok"] and "unknown query fields" in responses[0]["error"]

    def test_bad_types(self):
        for line in (
            '{"preset": "ipsc860", "d": 7.5, "m": 40}',
            '{"preset": "ipsc860", "d": 7, "m": "wide"}',
            '{"preset": "ipsc860", "d": 7, "m": -1}',
            '{"preset": 7, "d": 7, "m": 40}',
            '"just a string"',
        ):
            responses, _ = run_session([line])
            assert not responses[0]["ok"], line

    def test_unknown_preset(self):
        responses, _ = run_session(['{"preset": "cray", "d": 7, "m": 40}'])
        assert not responses[0]["ok"] and "unknown machine preset" in responses[0]["error"]

    def test_handle_request_direct(self):
        registry = OptimizerRegistry()
        response = json.loads(handle_request(
            {"d": 6, "m": 24}, registry, default_preset="hypothetical"
        ))
        assert response["ok"] and response["partition"] == [3, 3]


class TestThousandQuerySession:
    """The acceptance scenario: a 1k-query JSON-lines batch against a
    prebuilt shard directory, with measured cache-hit statistics."""

    @pytest.fixture(scope="class")
    def shard_dir(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("serve-shards")
        OptimizerRegistry().save_shards(directory, dims=(5, 6, 7))
        return directory

    def test_serves_1k_queries_from_shards(self, shard_dir):
        registry = OptimizerRegistry.from_shards(shard_dir)
        unique = [
            (d, round(0.5 + 399.0 * i / 49, 3)) for d in (5, 6, 7) for i in range(50)
        ]  # 150 distinct (d, m) cells
        lines = [
            json.dumps({"preset": "ipsc860", "d": d, "m": m, "id": i})
            for i, (d, m) in enumerate(unique[i % len(unique)] for i in range(1000))
        ]
        lines.append(json.dumps({"op": "stats"}))
        responses, stats = run_session(lines, registry=registry)

        answers, stats_line = responses[:1000], responses[1000]
        assert all(r["ok"] for r in answers)
        assert [r["id"] for r in answers] == list(range(1000))
        # every table came off disk, none were swept in-process
        assert stats.tables_built == 0
        assert stats.tables_loaded == 3
        # 150 unique cells -> 850 memo hits, measured and reported
        measured = stats_line["stats"]
        assert measured["queries"] == 1000
        assert measured["memo_misses"] == 150
        assert measured["memo_hits"] == 850
        assert measured["memo_hit_rate"] == pytest.approx(0.85)
        # repeats of an already-answered (d, m) really are memo-served
        repeat = [r for r in answers if r["id"] >= 150]
        assert repeat and all(r["source"] == "memo" for r in repeat)


class TestSharedErrorPaths:
    """The transport-independent error table, on the stdio loop.

    The socket transport runs the same table in
    ``test_async_server.py`` — the two suites must never diverge.
    """

    @pytest.mark.parametrize(
        "case_id,line,needle", ERROR_CASES, ids=CASE_IDS
    )
    def test_error_then_keep_serving(self, case_id, line, needle):
        responses, _ = run_session(
            [line, VALID_LINE], max_queries=CASE_MAX_QUERIES
        )
        assert not responses[0]["ok"], case_id
        assert needle in responses[0]["error"], responses[0]["error"]
        # the loop survives every malformed request
        assert responses[1]["ok"] and responses[1]["partition"] == [4, 3]


class TestOversizedBatch:
    def test_default_limit_allows_large_sane_batches(self):
        request = json.dumps(
            {"queries": [{"preset": "ipsc860", "d": 5, "m": float(i)} for i in range(200)]}
        )
        responses, _ = run_session([request])
        assert responses[0]["ok"] and len(responses[0]["results"]) == 200

    def test_oversized_batch_echoes_id_and_leaves_no_stats(self):
        registry = OptimizerRegistry()
        request = json.dumps(
            {"queries": [{"preset": "ipsc860", "d": 5, "m": 1}] * 9, "id": 12}
        )
        responses, stats = run_session([request], registry=registry, max_queries=8)
        assert not responses[0]["ok"] and responses[0]["id"] == 12
        # rejected before admission: nothing was counted or resolved
        assert stats.queries == 0


class TestPresetTypeErrors:
    def test_non_string_preset_names_the_problem(self):
        responses, _ = run_session(['{"preset": 5, "d": 7, "m": 40}'])
        assert not responses[0]["ok"]
        assert "preset must be a string" in responses[0]["error"]


class TestHugeIntegerBlockSize:
    def test_overflowing_m_does_not_kill_the_loop(self):
        huge = '{"preset": "ipsc860", "d": 7, "m": ' + "9" * 400 + "}"
        responses, _ = run_session([huge, '{"preset": "ipsc860", "d": 7, "m": 40}'])
        assert not responses[0]["ok"]
        assert responses[1]["ok"] and responses[1]["partition"] == [4, 3]

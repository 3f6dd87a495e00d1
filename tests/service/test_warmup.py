"""Tests for memo warm-up from a JSON-lines query log."""

from __future__ import annotations

import json

from repro.service import OptimizerRegistry
from repro.service.warmup import load_query_log, warm_registry


def log_lines():
    return [
        '{"preset": "ipsc860", "d": 7, "m": 40}',
        '{"d": 5, "m": 8}',  # needs the default preset
        '{"queries": [{"preset": "ipsc860", "d": 7, "m": 40}, '
        '{"preset": "hypothetical", "d": 6, "m": 24}]}',
        json.dumps([{"preset": "ipsc860", "d": 5, "m": 8.0, "id": 3}]),  # bare array
        "",  # blank lines are not log entries
        '{"op": "stats"}',  # ops carry nothing to warm
        "{nonsense",  # logs are history: bad lines skip, never raise
        '{"preset": "ipsc860", "d": 0, "m": 40}',  # invalid query skips too
        '{"preset": "andromeda", "d": 5, "m": 8}',  # unknown preset skips
    ]


class TestLoadQueryLog:
    def test_parses_dedupes_and_counts(self):
        queries, report = load_query_log(
            log_lines(),
            default_preset="ipsc860",
            known_presets=("ipsc860", "hypothetical"),
        )
        cells = [(q.preset, q.d, q.m) for q in queries]
        assert cells == [
            ("ipsc860", 7, 40.0),
            ("ipsc860", 5, 8.0),
            ("hypothetical", 6, 24.0),
        ]
        assert report.lines == 8  # the blank line is not counted
        assert report.queries == 7  # every query parsed out of a query line
        assert report.unique == 3
        assert report.skipped == 4  # op, bad JSON, d=0, unknown preset
        assert "3 unique" in report.describe()

    def test_a_malformed_query_skips_its_line_a_bad_value_only_itself(self):
        queries, report = load_query_log(
            [
                # two values out of range among valid queries: each skips alone
                '{"queries": [{"d": 5, "m": 8}, {"d": 0, "m": 8}, {"d": 6, "m": -1}, '
                '{"d": 5, "m": 8.0}, {"d": 7, "m": 40}]}',
                '[{"d": 5, "m": 9}, {"d": 5, "m": "wide"}]',  # malformed: whole line
                '{"d": 5, "m": NaN, "id": 3}',
                '{"preset": "cray", "d": 5, "m": 8}',
                '[{"d": 5, "m": 1e999}, {"d": 99, "m": 8}, {"d": 6, "m": 8}]',
                '{"op": "stats"}',
                "not json",
            ],
            default_preset="ipsc860",
            known_presets=("ipsc860", "hypothetical"),
        )
        assert [(q.preset, q.d, q.m) for q in queries] == [
            ("ipsc860", 5, 8.0), ("ipsc860", 7, 40.0), ("ipsc860", 6, 8.0),
        ]
        assert (report.lines, report.queries, report.skipped, report.unique) == (7, 10, 9, 3)

    def test_reads_from_a_file(self, tmp_path):
        path = tmp_path / "queries.jsonl"
        path.write_text("\n".join(log_lines()) + "\n")
        queries, report = load_query_log(path, default_preset="ipsc860")
        assert report.unique == len(queries) == 4  # no preset filter here
        assert any(q.preset == "andromeda" for q in queries)

    def test_no_default_preset_skips_bare_queries(self):
        queries, report = load_query_log(['{"d": 5, "m": 8}'])
        assert queries == [] and report.skipped == 1

    def test_tags_are_dropped(self):
        queries, _ = load_query_log(['{"preset": "ipsc860", "d": 5, "m": 8, "id": 77}'])
        assert queries[0].tag is None


class TestWarmRegistry:
    def test_logged_cells_answer_from_memo(self):
        registry = OptimizerRegistry()
        report = warm_registry(registry, log_lines(), default_preset="ipsc860")
        assert report.unique == 3
        # replaying the logged traffic is now free: all memo hits
        results = registry.resolve(
            [("ipsc860", 7, 40.0), ("ipsc860", 5, 8.0), ("hypothetical", 6, 24.0)]
        )
        assert [r.source for r in results] == ["memo", "memo", "memo"]

    def test_unknown_preset_in_log_never_breaks_warmup(self):
        registry = OptimizerRegistry(presets={"ipsc860": __import__("repro").ipsc860()})
        report = warm_registry(
            registry,
            ['{"preset": "hypothetical", "d": 6, "m": 24}',
             '{"preset": "ipsc860", "d": 5, "m": 8}'],
        )
        assert report.unique == 1 and report.skipped == 1

    def test_empty_log_is_fine(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        registry = OptimizerRegistry()
        report = warm_registry(registry, path)
        assert report.unique == 0 and registry.stats.queries == 0

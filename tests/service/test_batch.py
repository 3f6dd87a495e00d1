"""Tests for batched query resolution."""

from __future__ import annotations

import json
import struct
from pathlib import Path

import pytest

from repro.model.cost import multiphase_time
from repro.model.optimizer import best_partition, hull_of_optimality
from repro.model.params import ipsc860
from repro.service.batch import Query, QueryBatch, resolve_queries
from repro.service.registry import OptimizerRegistry


@pytest.fixture()
def registry():
    return OptimizerRegistry()


class TestResolution:
    def test_results_in_input_order(self, registry):
        batch = QueryBatch(registry)
        batch.add("ipsc860", 7, 40.0)
        batch.add("hypothetical", 6, 24.0)
        batch.add("ipsc860", 5, 40.0)
        results = batch.resolve()
        assert [r.partition for r in results] == [(4, 3), (3, 3), (3, 2)]
        assert [(r.preset, r.d, r.m) for r in results] == [
            ("ipsc860", 7, 40.0),
            ("hypothetical", 6, 24.0),
            ("ipsc860", 5, 40.0),
        ]

    def test_times_bitwise_equal_scalar_model(self, registry):
        queries = [
            ("ipsc860", d, m) for d in (5, 6, 7) for m in (1.0, 24.0, 80.0, 320.0)
        ]
        for result in resolve_queries(registry, queries):
            expected = multiphase_time(
                result.m, result.d, result.partition, registry.params(result.preset)
            )
            assert result.time_us == expected

    def test_partitions_match_optimizer(self, registry):
        """Away from the ~1e-3 B switch-point refinement, the served
        partition is exactly the optimizer's choice."""
        for d in (5, 6, 7):
            for m in (1.0, 24.0, 40.0, 80.0, 160.0, 320.0):
                result = resolve_queries(registry, [("ipsc860", d, m)])[0]
                assert result.partition == best_partition(m, d, ipsc860()).partition

    def test_tags_echoed(self, registry):
        batch = QueryBatch(registry)
        batch.add("ipsc860", 6, 24.0, tag="a")
        batch.add("ipsc860", 6, 24.0, tag="b")
        assert [r.tag for r in batch.resolve()] == ["a", "b"]

    def test_tuple_and_query_inputs(self, registry):
        mixed = [("ipsc860", 6, 24.0), Query("ipsc860", 6, 24)]
        results = resolve_queries(registry, mixed)
        assert results[0].partition == results[1].partition
        assert results[1].m == 24.0

    def test_batch_clears_after_resolve(self, registry):
        batch = QueryBatch(registry)
        batch.add("ipsc860", 6, 24.0)
        assert len(batch) == 1
        batch.resolve()
        assert len(batch) == 0
        assert batch.resolve() == []


class TestCoalescing:
    def test_one_grid_call_per_winning_partition(self, registry):
        # each group's block sizes share a winner here, so each group
        # is priced by exactly one grid call over exactly its cells
        queries = [("ipsc860", 6, m) for m in (1.0, 2.0, 3.0)]
        queries += [("ipsc860", 7, m) for m in (1.0, 2.0)]
        queries += [("hypothetical", 6, 1.0)]
        resolve_queries(registry, queries)
        assert registry.stats.grid_calls == 3
        assert registry.stats.grid_cells == 6  # no cross-product waste

    def test_duplicates_cost_one_cell(self, registry):
        resolve_queries(registry, [("ipsc860", 6, 24.0)] * 10)
        assert registry.stats.grid_calls == 1
        assert registry.stats.coalesced == 9
        # 1 unique m x 1 winning partition
        assert registry.stats.grid_cells == 1

    def test_second_batch_is_all_memo(self, registry):
        queries = [("ipsc860", 6, m) for m in (1.0, 24.0, 80.0)]
        resolve_queries(registry, queries)
        calls_after_first = registry.stats.grid_calls
        results = resolve_queries(registry, queries)
        assert all(r.source == "memo" for r in results)
        assert registry.stats.grid_calls == calls_after_first
        # exactly one cell per unique block size was ever evaluated
        assert registry.stats.grid_cells == 3

    def test_extend(self, registry):
        batch = QueryBatch(registry)
        batch.extend([("ipsc860", 6, 1.0), ("ipsc860", 6, 2.0)])
        assert len(batch) == 2
        assert len(batch.resolve()) == 2

    def test_failed_extend_leaves_batch_unchanged(self, registry):
        batch = QueryBatch(registry)
        with pytest.raises(ValueError):
            batch.extend([("ipsc860", 6, 1.0), ("ipsc860", 0, 2.0)])
        assert len(batch) == 0


class TestCertifiedOrScored:
    """Every miss looks up its certified pool envelope: a certified
    cell prices its winner alone (``"grid"``), any other scores the
    full pool (``"pool"``); both are ``best_partition``'s answer."""

    def test_certified_cell_prices_its_winner(self, registry):
        for m in (40.0, 300.0, 1e250):
            result = resolve_queries(registry, [("ipsc860", 7, m)])[0]
            assert result.source == "grid"
            assert result.partition == best_partition(m, 7, ipsc860()).partition
            assert result.time_us == multiphase_time(m, 7, result.partition, ipsc860())
        assert resolve_queries(registry, [("ipsc860", 7, 300.0)])[0].partition == (7,)

    def test_switch_points_and_zero_score_the_pool(self, registry):
        switches = hull_of_optimality(7, ipsc860()).boundaries
        for m in (0.0, *switches, 1.7e308):
            assert registry.envelope("ipsc860", 7).index(m) == -1
            result = resolve_queries(registry, [("ipsc860", 7, m)])[0]
            choice = best_partition(m, 7, ipsc860())
            assert result.source == "pool"
            assert (result.partition, result.time_us.hex()) == (
                choice.partition, choice.time.hex())

    def test_both_kinds_are_memoized(self, registry):
        cells = [("ipsc860", 7, 300.0), ("ipsc860", 7, 0.0)]
        assert [r.source for r in resolve_queries(registry, cells)] == ["grid", "pool"]
        assert [r.source for r in resolve_queries(registry, cells)] == ["memo", "memo"]

    def test_a_shard_bound_gates_nothing(self, tmp_path):
        # a shard whose header records a 100 B bound, or none at all,
        # answers 300 B from the envelope like any other registry
        raw = (Path(__file__).resolve().parent / "data" / "ipsc860.shard").read_bytes()
        header_end = 24 + struct.unpack("<QQ", raw[8:24])[1]
        header = json.loads(raw[24:header_end])
        tables = raw[header_end + (-header_end) % 8 :]
        for m_max in (100.0, None):
            header["m_max"] = m_max
            encoded = json.dumps(header, sort_keys=True).encode()
            prefix = raw[:16] + struct.pack("<Q", len(encoded))
            padding = b"\0" * ((-(len(prefix) + len(encoded))) % 8)
            (tmp_path / "ipsc860.shard").write_bytes(prefix + encoded + padding + tables)
            serving = OptimizerRegistry.from_shards(tmp_path)
            result = resolve_queries(serving, [("ipsc860", 7, 300.0)])[0]
            assert (result.partition, result.source) == ((7,), "grid")

    def test_serving_never_touches_a_table(self, tmp_path, monkeypatch):
        """Every answer comes from the envelope, served fresh, from new
        shards, or from shards that still store tables up to 400 B."""
        def no_table(self, preset, d):
            raise AssertionError("a served answer read a table")

        monkeypatch.setattr(OptimizerRegistry, "table", no_table)
        cells = [("ipsc860", 7, m) for m in (0.0, 40.0, 300.0, 500.0)]
        OptimizerRegistry().save_shards(tmp_path)
        stored = Path(__file__).resolve().parent / "data"
        answers = [
            [(r.partition, r.time_us.hex(), r.source) for r in resolve_queries(reg, cells)]
            for reg in (OptimizerRegistry(), OptimizerRegistry.from_shards(tmp_path),
                        OptimizerRegistry.from_shards(stored))
        ]
        assert answers[0] == answers[1] == answers[2]
        assert answers[0][2][0] == (7,) and answers[0][2][2] == "grid"


class TestValidation:
    def test_rejects_bad_dimension(self, registry):
        with pytest.raises(ValueError):
            QueryBatch(registry).add("ipsc860", -1, 24.0)

    def test_rejects_bad_block_size(self, registry):
        with pytest.raises(ValueError):
            QueryBatch(registry).add("ipsc860", 6, float("nan"))

    def test_unknown_preset_raises_at_resolve(self, registry):
        batch = QueryBatch(registry)
        batch.add("cray", 6, 24.0)
        with pytest.raises(ValueError, match="unknown machine preset"):
            batch.resolve()

    def test_failed_batch_leaves_no_partial_state(self, registry):
        # presets are validated before any group resolves, so a batch
        # with one bad query neither serves nor memoizes the good ones
        with pytest.raises(ValueError, match="unknown machine preset"):
            resolve_queries(
                registry, [("ipsc860", 6, 24.0), ("cray", 6, 24.0)]
            )
        assert registry.stats.queries == 0
        assert registry.stats.grid_calls == 0
        assert registry.memo_get_many([("ipsc860", 6, 24.0)]) == [None]

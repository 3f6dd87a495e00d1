"""Tests for the optimizer registry: presets, shard files, result memo."""

from __future__ import annotations

from collections import OrderedDict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.optimizer import best_partition, hull_of_optimality
from repro.model.params import hypothetical, ipsc860
from repro.model.store import load_shard
from repro.service.registry import OptimizerRegistry

#: shard files written while a shard still stored optimizer tables
SHARD_DATA = Path(__file__).resolve().parent / "data"


@pytest.fixture()
def registry():
    return OptimizerRegistry()


@pytest.fixture(scope="module")
def shard_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("shards")
    OptimizerRegistry().save_shards(directory)
    return directory


class TestPresets:
    def test_default_presets(self, registry):
        assert registry.preset_names == ("hypothetical", "ipsc860")

    def test_params(self, registry):
        assert registry.params("ipsc860") == ipsc860()

    def test_unknown_preset(self, registry):
        with pytest.raises(ValueError, match="unknown machine preset"):
            registry.params("cray")

    def test_explicit_presets_mapping(self):
        registry = OptimizerRegistry({"only": hypothetical()})
        assert registry.preset_names == ("only",)
        assert registry.params("only") == hypothetical()


class TestTables:
    def test_table_matches_direct_hull(self, registry):
        assert registry.table("ipsc860", 5) == hull_of_optimality(5, ipsc860())

    def test_lookup(self, registry):
        assert registry.lookup("ipsc860", 7, 40.0) == (4, 3)

    def test_every_call_walks_the_envelope(self, registry, monkeypatch):
        """No table cache: each call is a fresh walk of the envelope."""
        import repro.service.registry as registry_module

        walks = []

        def counted(d, params):
            walks.append(d)
            return hull_of_optimality(d, params)

        monkeypatch.setattr(registry_module, "hull_of_optimality", counted)
        assert registry.table("ipsc860", 5) == registry.table("ipsc860", 5)
        assert walks == [5, 5]

    def test_lookups_build_no_table(self, registry, monkeypatch):
        def no_table(self, preset, d):
            raise AssertionError("a lookup read a table")

        monkeypatch.setattr(OptimizerRegistry, "table", no_table)
        for d in (4, 5, 6):
            expected = best_partition(40.0, d, ipsc860()).partition
            assert registry.lookup("ipsc860", d, 40.0) == expected

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError, match="memo_capacity"):
            OptimizerRegistry(memo_capacity=-1)


class TestShardBacking:
    def test_save_shards_layout(self, tmp_path):
        registry = OptimizerRegistry()
        written = registry.save_shards(tmp_path, presets=["ipsc860"])
        assert [p.name for p in written] == ["ipsc860.shard"]
        assert load_shard(written[0]) == (ipsc860(), "ipsc860")

    def test_from_shards_takes_the_presets_from_the_files(self, shard_dir):
        registry = OptimizerRegistry.from_shards(shard_dir)
        assert registry.preset_names == ("hypothetical", "ipsc860")
        assert registry.params("hypothetical") == hypothetical()
        assert registry.lookup("ipsc860", 7, 40.0) == (4, 3)
        assert registry.table("ipsc860", 7).lookup(40.0) == (4, 3)

    def test_table_is_the_hull_of_optimality(self, shard_dir):
        registry = OptimizerRegistry.from_shards(shard_dir)
        for d in range(1, 11):
            assert registry.table("ipsc860", d) == hull_of_optimality(d, ipsc860())

    def test_serves_a_directory_of_shards_that_store_tables(self, tmp_path):
        """A directory written while shards stored tables serves, and
        re-exports as the same calibrations."""
        registry = OptimizerRegistry.from_shards(SHARD_DATA)
        assert registry.preset_names == ("hypothetical", "ipsc860")
        assert registry.params("ipsc860") == ipsc860()
        for path in registry.save_shards(tmp_path):
            assert load_shard(path) == load_shard(SHARD_DATA / path.name)

    def test_missing_dim_falls_back_to_sweep(self):
        """Shards that stored tables for d 5 and 7 only answer every
        other d from its envelope, as a fresh registry does."""
        registry = OptimizerRegistry.from_shards(SHARD_DATA)
        fresh = OptimizerRegistry()
        for d in (4, 6, 8):
            assert registry.table("ipsc860", d) == hull_of_optimality(d, ipsc860())
            assert registry.lookup("ipsc860", d, 40.0) == fresh.lookup("ipsc860", d, 40.0)

    def test_renamed_shard_file_rejected(self, tmp_path):
        OptimizerRegistry().save_shards(tmp_path, presets=["hypothetical"])
        (tmp_path / "hypothetical.shard").rename(tmp_path / "ipsc860.shard")
        with pytest.raises(ValueError, match="renaming a shard"):
            OptimizerRegistry.from_shards(tmp_path)

    @pytest.mark.parametrize("preset", ["hypothetical", "ipsc860"])
    def test_lookup_answers_as_the_resolver(self, registry, preset):
        params = registry.params(preset)
        for m in (0.0, *hull_of_optimality(8, params).boundaries, 40.0, 1e6):
            assert registry.lookup(preset, 8, m) == best_partition(m, 8, params).partition

    def test_conflicting_preset_override_rejected(self, shard_dir):
        bad = ipsc860().with_overrides(latency=1.0)
        with pytest.raises(ValueError, match="different .* calibration"):
            OptimizerRegistry({"ipsc860": bad}, shard_dir=shard_dir)

    def test_empty_shard_dir_rejected(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(ValueError, match="holds no .*\\.shard"):
            OptimizerRegistry.from_shards(tmp_path / "empty")

    def test_missing_dir_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="does not exist"):
            OptimizerRegistry.from_shards(tmp_path / "nope")


class TestMemo:
    def test_memo_hits_on_repeat(self, registry):
        first = registry.resolve([("ipsc860", 6, 24.0)])[0]
        second = registry.resolve([("ipsc860", 6, 24.0)])[0]
        assert first.source == "grid"
        assert second.source == "memo"
        assert second.partition == first.partition
        assert second.time_us == first.time_us
        assert registry.stats.memo_hits == 1
        assert registry.stats.memo_hit_rate == 0.5

    def test_memo_capacity_zero_disables(self):
        registry = OptimizerRegistry(memo_capacity=0)
        registry.resolve([("ipsc860", 6, 24.0)])
        assert registry.resolve([("ipsc860", 6, 24.0)])[0].source == "grid"

    def test_memo_eviction(self):
        registry = OptimizerRegistry(memo_capacity=1)
        registry.resolve([("ipsc860", 6, 24.0)])
        registry.resolve([("ipsc860", 6, 32.0)])  # evicts the 24.0 entry
        assert registry.resolve([("ipsc860", 6, 24.0)])[0].source == "grid"


    @settings(max_examples=200, deadline=None)
    @given(
        capacity=st.integers(0, 6),
        before=st.lists(st.integers(0, 9), max_size=8),
        batch=st.lists(st.tuples(st.integers(0, 9), st.integers()), max_size=10),
        reads=st.lists(st.integers(0, 9), max_size=10),
    )
    def test_batch_calls_match_a_one_at_a_time_lru(self, capacity, before, batch, reads):
        """``memo_put_many`` and ``memo_get_many`` leave the entries and
        order of an LRU that puts and touches one key at a time,
        existing and repeated keys included, evicting as it goes."""
        def key(k):
            return ("ipsc860", 5, float(k))

        lru: OrderedDict = OrderedDict()

        def put(k, value):
            if capacity:
                lru[k] = value
                lru.move_to_end(k)
                while len(lru) > capacity:
                    lru.popitem(last=False)

        def get(k):
            if k in lru:
                lru.move_to_end(k)
            return lru.get(k)

        registry = OptimizerRegistry(memo_capacity=capacity)
        registry.memo_put_many([(key(k), (b"", float(k))) for k in before])
        for k in before:
            put(key(k), (b"", float(k)))
        registry.memo_put_many([(key(k), (b"", value)) for k, value in batch])
        for k, value in batch:
            put(key(k), (b"", value))
        assert list(registry._memo.items()) == list(lru.items())
        assert registry.memo_get_many([key(k) for k in reads]) == [get(key(k)) for k in reads]
        assert list(registry._memo) == list(lru)

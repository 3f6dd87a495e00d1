"""Tests for the sharded optimizer-table registry."""

from __future__ import annotations

from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.optimizer import best_partition, hull_of_optimality
from repro.model.params import hypothetical, ipsc860
from repro.model.store import load_shard, save_shard
from repro.service.registry import DEFAULT_DIMS, OptimizerRegistry


@pytest.fixture()
def registry():
    return OptimizerRegistry()


@pytest.fixture(scope="module")
def shard_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("shards")
    OptimizerRegistry().save_shards(directory, dims=(5, 6, 7))
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

    def test_every_call_walks_the_envelope(self, registry):
        """No table cache: each build is counted, and none is evicted."""
        assert registry.table("ipsc860", 5) == registry.table("ipsc860", 5)
        assert registry.stats.tables_built == 2
        assert registry.stats.tables_evicted == 0

    def test_lookup(self, registry):
        assert registry.lookup("ipsc860", 7, 40.0) == (4, 3)

    def test_lookups_build_no_table(self, registry):
        for d in (4, 5, 6):
            registry.lookup("ipsc860", d, 40.0)
        assert registry.stats.tables_built == registry.stats.tables_loaded == 0

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError, match="memo_capacity"):
            OptimizerRegistry(memo_capacity=-1)


class TestShardBacking:
    def test_save_shards_layout(self, tmp_path):
        registry = OptimizerRegistry()
        written = registry.save_shards(tmp_path, presets=["ipsc860"], dims=(5, 6))
        assert [p.name for p in written] == ["ipsc860.shard"]

    def test_from_shards_serves_without_building(self, shard_dir):
        registry = OptimizerRegistry.from_shards(shard_dir)
        assert registry.preset_names == ("hypothetical", "ipsc860")
        assert registry.lookup("ipsc860", 7, 40.0) == (4, 3)
        assert registry.table("ipsc860", 7).lookup(40.0) == (4, 3)
        assert registry.stats.tables_loaded == 1
        assert registry.stats.tables_built == 0

    def test_shard_tables_equal_fresh_sweeps(self, shard_dir):
        registry = OptimizerRegistry.from_shards(shard_dir)
        for d in (5, 6, 7):
            assert registry.table("ipsc860", d) == hull_of_optimality(d, ipsc860())

    def test_shard_table_is_the_shards_cached_copy(self, shard_dir):
        registry = OptimizerRegistry.from_shards(shard_dir)
        first = registry.table("ipsc860", 5)
        registry.table("ipsc860", 6)
        assert registry.table("ipsc860", 5) is first
        assert registry.stats.tables_loaded == 3
        assert registry.stats.tables_built == 0

    def test_renamed_shard_file_rejected(self, tmp_path):
        OptimizerRegistry().save_shards(tmp_path, presets=["hypothetical"], dims=(5,))
        (tmp_path / "hypothetical.shard").rename(tmp_path / "ipsc860.shard")
        with pytest.raises(ValueError, match="renaming a shard"):
            OptimizerRegistry.from_shards(tmp_path)

    def test_reexported_shard_keeps_the_original_bound(self, tmp_path):
        first = tmp_path / "first"
        second = tmp_path / "second"
        first.mkdir()
        save_shard({7: hull_of_optimality(7, ipsc860(), m_max=50.0)}, ipsc860(),
                   first / "ipsc860.shard", m_max=50.0, preset="ipsc860")
        # the header records the range the tables span: re-exporting
        # must not claim the 0-50 B table out to 400 B
        OptimizerRegistry.from_shards(first).save_shards(second, dims=(7,))
        assert load_shard(second / "ipsc860.shard").m_max == 50.0
        OptimizerRegistry().save_shards(first, presets=["ipsc860"], dims=(7,))
        assert load_shard(first / "ipsc860.shard").m_max == 400.0

    @pytest.mark.parametrize("preset", ["hypothetical", "ipsc860"])
    def test_lookup_answers_as_the_resolver(self, registry, preset):
        params = registry.params(preset)
        for m in (0.0, *hull_of_optimality(8, params).boundaries, 40.0, 1e6):
            assert registry.lookup(preset, 8, m) == best_partition(m, 8, params).partition

    def test_missing_dim_falls_back_to_sweep(self, shard_dir):
        registry = OptimizerRegistry.from_shards(shard_dir)
        registry.table("ipsc860", 4)  # not in the shard (dims 5-7)
        assert registry.stats.tables_built == 1

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


class TestDefaults:
    def test_default_dims_cover_paper_figures(self):
        assert set((5, 6, 7)) <= set(DEFAULT_DIMS)

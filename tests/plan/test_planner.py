"""Tests for the collective planner: cache, log, stats."""

from __future__ import annotations

import pytest

from repro.plan import CollectivePlanner, FixedPolicy, ModelPolicy


class CountingPolicy:
    """Fixed single-phase policy that counts its invocations."""

    def __init__(self):
        self.calls = 0
        self.name = "counting"
        self._inner = FixedPolicy()

    def decide(self, d, m):
        self.calls += 1
        return self._inner.decide(d, m)


class TestPlanCache:
    def test_repeat_decisions_hit_the_cache(self):
        policy = CountingPolicy()
        planner = CollectivePlanner(policy)
        first = planner.decide(5, 40.0)
        second = planner.decide(5, 40.0)
        assert policy.calls == 1
        assert first.source == "policy" and second.source == "cache"
        assert first.partition == second.partition

    def test_distinct_queries_each_reach_the_policy(self):
        policy = CountingPolicy()
        planner = CollectivePlanner(policy)
        for d, m in [(4, 8.0), (4, 16.0), (5, 8.0)]:
            planner.decide(d, m)
        assert policy.calls == 3
        assert planner.stats.policy_calls == 3
        assert planner.stats.cache_hits == 0

    def test_int_and_float_block_sizes_share_a_cell(self):
        policy = CountingPolicy()
        planner = CollectivePlanner(policy)
        planner.decide(4, 8)
        planner.decide(4, 8.0)
        assert policy.calls == 1

    def test_stats_and_hit_rate(self):
        planner = CollectivePlanner(CountingPolicy())
        for _ in range(4):
            planner.decide(3, 2.0)
        stats = planner.stats
        assert stats.decisions == 4
        assert stats.cache_hits == 3
        assert stats.policy_calls == 1
        assert stats.cache_hit_rate == 0.75
        assert stats.as_dict()["cache_hit_rate"] == 0.75

    def test_clear_resets_cache_but_not_stats(self):
        policy = CountingPolicy()
        planner = CollectivePlanner(policy)
        planner.decide(3, 2.0)
        planner.clear()
        assert planner.unique_decisions() == []
        planner.decide(3, 2.0)
        assert policy.calls == 2
        assert planner.stats.decisions == 2


class TestDecisions:
    def test_decisions_in_call_order_including_cache_hits(self, ipsc):
        planner = CollectivePlanner(ModelPolicy(ipsc))
        decisions = [planner.decide(5, 40.0), planner.decide(6, 24.0), planner.decide(5, 40.0)]
        assert [(d.d, d.m) for d in decisions] == [(5, 40.0), (6, 24.0), (5, 40.0)]
        assert [d.source for d in decisions] == ["policy", "policy", "cache"]

    def test_unique_decisions_in_first_seen_order(self, ipsc):
        planner = CollectivePlanner(ModelPolicy(ipsc))
        planner.decide(6, 24.0)
        planner.decide(5, 40.0)
        planner.decide(6, 24.0)
        assert [(d.d, d.m) for d in planner.unique_decisions()] == [(6, 24.0), (5, 40.0)]


class TestValidation:
    def test_rejects_bad_dimension(self):
        planner = CollectivePlanner(FixedPolicy())
        with pytest.raises(ValueError):
            planner.decide(0, 8.0)

    def test_rejects_negative_block_size(self):
        planner = CollectivePlanner(FixedPolicy())
        with pytest.raises(ValueError):
            planner.decide(3, -1.0)

"""The collective planner: policy + per-run plan cache + audit log.

:class:`CollectivePlanner` is what call sites (the communicator, the
apps, the patterns layer) actually hold.  It delegates each new
``(d, m)`` to its policy exactly once, memoizes the decision for the
run, and keeps an ordered log of every decision it handed out — the
raw material for the predicted-vs-simulated validation report.

The cache matters beyond speed: inside a simulated SPMD run every rank
asks the shared planner for the same collective, and the cache is what
guarantees all ranks execute the *same* schedule (rank 0's policy call
decides; ranks 1..n-1 hit the cache).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.plan.decision import PlanDecision
from repro.plan.policies import PlanningPolicy
from repro.util.validation import check_block_size, check_dimension

__all__ = ["CollectivePlanner", "PlannerStats"]


@dataclass
class PlannerStats:
    """Counters for one planner's lifetime."""

    #: decisions handed out (every ``decide`` call)
    decisions: int = 0
    #: decisions served from the per-run plan cache
    cache_hits: int = 0
    #: distinct (d, m) queries that reached the policy
    policy_calls: int = 0

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of decisions served from the cache (0.0 when idle)."""
        return self.cache_hits / self.decisions if self.decisions else 0.0

    def as_dict(self) -> dict:
        return {
            "decisions": self.decisions,
            "cache_hits": self.cache_hits,
            "cache_hit_rate": self.cache_hit_rate,
            "policy_calls": self.policy_calls,
        }


@dataclass
class CollectivePlanner:
    """Algorithm selection for collectives, one policy per planner.

    >>> from repro.model.params import ipsc860
    >>> from repro.plan.policies import ModelPolicy
    >>> planner = CollectivePlanner(ModelPolicy(ipsc860()))
    >>> planner.decide(7, 40).partition
    (4, 3)
    >>> planner.decide(7, 40).source            # repeat: plan cache
    'cache'
    >>> planner.stats.policy_calls
    1
    """

    policy: PlanningPolicy
    stats: PlannerStats = field(default_factory=PlannerStats)
    #: every decision handed out, in call order (cache hits included)
    log: list[PlanDecision] = field(default_factory=list)
    #: (d, m) -> (the policy's decision, the one handed out on hits)
    _cache: dict[tuple[int, float], tuple[PlanDecision, PlanDecision]] = field(
        default_factory=dict
    )

    @property
    def policy_name(self) -> str:
        return self.policy.name

    def decide(self, d: int, m: float) -> PlanDecision:
        """The algorithm this planner selects for a ``(d, m)`` collective."""
        check_dimension(d, minimum=1)
        key = (int(d), check_block_size(m))
        self.stats.decisions += 1
        cached = self._cache.get(key)
        if cached is not None:
            self.stats.cache_hits += 1
            decision = cached[1]
        else:
            self.stats.policy_calls += 1
            decision = self.policy.decide(*key)
            self._cache[key] = (decision, replace(decision, source="cache"))
        self.log.append(decision)
        return decision

    def unique_decisions(self) -> list[PlanDecision]:
        """The distinct decisions taken this run, in first-seen order."""
        return [decision for decision, _ in self._cache.values()]

    def clear(self) -> None:
        """Drop the plan cache and log (a fresh 'run'); stats survive."""
        self._cache.clear()
        self.log.clear()

"""Optimizer-guided collective planning.

The paper's conclusion — no single complete-exchange algorithm wins
everywhere; the right choice depends on ``(d, m)`` — becomes a runtime
subsystem here.  A :class:`~repro.plan.planner.CollectivePlanner`
holds one pluggable policy:

:class:`~repro.plan.policies.FixedPolicy`
    the pre-planner behaviour (a hardcoded partition, or the naive
    rotation baseline), kept as an expressible policy;
:class:`~repro.plan.policies.ModelPolicy`
    inline argmin over the candidate pool via the vectorized cost
    model;
:class:`~repro.plan.policies.ServicePolicy`
    answers from an in-process
    :class:`~repro.service.registry.OptimizerRegistry` (certified
    pool envelopes, result memo, coalesced grid calls);
:class:`~repro.plan.policies.ContentionPolicy`
    the model policy plus a contention-aware price for the naive
    rotation baseline, from the fast-path reservation replay
    (:mod:`repro.sim.fastpath`);
:class:`~repro.plan.policies.TrafficPolicy`
    partition choice for non-uniform loads, priced on the batched
    traffic grid (:mod:`repro.core.traffic`) with a simulator-backed
    prediction from the compiled fast path;
:class:`~repro.plan.policies.AdaptivePolicy`
    model-optimal planning with a drift-triggered slowdown
    calibration: observed completion times that stray past a threshold
    from predictions re-plan the next collective against the machine
    as measured (optionally seeded with a
    :class:`~repro.sim.faults.FaultPlan` priced by
    :func:`~repro.model.cost.degraded_multiphase_time`).

Every layer that performs a collective routes through the planner:
``Communicator.Alltoall`` and the simulated exchange programs, all
four apps, and — via :func:`~repro.plan.patterns.plan_pattern` — the
broadcast/scatter/allgather patterns.  Decisions are cached per run,
logged for the predicted-vs-simulated validation report
(:mod:`repro.analysis.validation`), and recorded in the simulator
trace.
"""

from repro.plan.decision import ALGORITHMS, PlanDecision, algorithm_name, format_partition
from repro.plan.patterns import PATTERNS, PatternDecision, pattern_candidates, plan_pattern
from repro.plan.planner import CollectivePlanner, PlannerStats
from repro.plan.policies import (
    AdaptivePolicy,
    ContentionPolicy,
    FixedPolicy,
    ModelPolicy,
    PlanningPolicy,
    ServicePolicy,
    TrafficPolicy,
    make_policy,
)

__all__ = [
    "ALGORITHMS",
    "AdaptivePolicy",
    "CollectivePlanner",
    "ContentionPolicy",
    "FixedPolicy",
    "ModelPolicy",
    "PATTERNS",
    "PatternDecision",
    "PlanDecision",
    "PlannerStats",
    "PlanningPolicy",
    "ServicePolicy",
    "TrafficPolicy",
    "algorithm_name",
    "format_partition",
    "make_policy",
    "pattern_candidates",
    "plan_pattern",
]

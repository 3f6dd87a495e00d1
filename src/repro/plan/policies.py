"""Pluggable planning policies.

A *policy* answers one question — "which algorithm should this
``(d, m)`` collective run?" — three ways:

* :class:`FixedPolicy` always returns the same configured choice (a
  partition, or the naive rotation baseline) — the hardcoded behaviour
  every call site had before the planner existed, now expressible as a
  policy so baselines stay runnable through the same code path;
* :class:`ModelPolicy` scores the full candidate-partition pool with
  the vectorized cost model and returns the argmin (the §6 optimizer,
  evaluated inline);
* :class:`ServicePolicy` asks an in-process
  :class:`~repro.service.registry.OptimizerRegistry` — certified pool
  envelopes, result memo, batched grid calls — the "stored for
  repeated future use" answer.

* :class:`ContentionPolicy` extends the model policy with a
  *contention-aware price for the naive rotation baseline*: the fast
  path's reservation replay (:func:`repro.sim.fastpath.naive_exchange_time`)
  prices the baseline the analytic model cannot, and the policy picks
  naive on the (pathological) machines where it actually wins.

* :class:`TrafficPolicy` plans for *non-uniform* loads: it prices
  every partition against a skewed traffic matrix with the batched
  §9 traffic-grid kernel
  (:func:`repro.core.traffic.best_partition_for_traffic`) and carries
  a simulator-backed ``predicted_us`` from the compiled fast path, so
  a traffic-planned decision validates with zero error like every
  other fast-path decision.

``ModelPolicy`` and ``ServicePolicy`` agree bitwise on the chosen
partition and predicted time away from table switch points (asserted
across presets and dimensions by the property tests).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable, Protocol, Sequence, runtime_checkable

from repro.model.optimizer import best_partition
from repro.model.params import MachineParams
from repro.plan.decision import PlanDecision, algorithm_name
from repro.util.validation import check_block_size, check_dimension, check_partition

__all__ = [
    "AdaptivePolicy",
    "ContentionPolicy",
    "FixedPolicy",
    "ModelPolicy",
    "PlanningPolicy",
    "ServicePolicy",
    "TrafficPolicy",
    "make_policy",
]


@runtime_checkable
class PlanningPolicy(Protocol):
    """What a planner needs from a policy."""

    name: str

    def decide(self, d: int, m: float) -> PlanDecision:  # pragma: no cover - protocol
        ...


class FixedPolicy:
    """Always the same choice: a fixed partition or the naive baseline.

    ``partition=None`` (the default) selects the single-phase Optimal
    Circuit-Switched algorithm ``(d,)`` — the partition the comm layer
    used to hardcode.  ``naive=True`` selects the rotation-order
    baseline instead.  When ``params`` is given, partition choices are
    priced by the analytic model so validation reports can compare
    prediction against simulation.

    >>> FixedPolicy(naive=True).decide(3, 16.0).algorithm
    'naive'
    >>> FixedPolicy().decide(3, 16.0).partition
    (3,)
    """

    def __init__(
        self,
        partition: Sequence[int] | None = None,
        *,
        naive: bool = False,
        params: MachineParams | None = None,
    ) -> None:
        if naive and partition is not None:
            raise ValueError("the naive baseline has no partition; pass one or the other")
        self.partition = tuple(int(p) for p in partition) if partition is not None else None
        self.naive = naive
        self.params = params
        self.name = "fixed:naive" if naive else "fixed"

    def decide(self, d: int, m: float) -> PlanDecision:
        check_dimension(d, minimum=1)
        m = check_block_size(m)
        if self.naive:
            return PlanDecision(
                d=d, m=m, algorithm="naive", partition=None,
                predicted_us=None, policy=self.name,
            )
        partition = check_partition(self.partition if self.partition is not None else (d,), d)
        predicted = None
        if self.params is not None:
            from repro.model.cost import multiphase_time

            predicted = multiphase_time(m, d, partition, self.params)
        return PlanDecision(
            d=d, m=m, algorithm=algorithm_name(partition), partition=partition,
            predicted_us=predicted, policy=self.name,
        )


class ModelPolicy:
    """Score every candidate partition with the vectorized cost model.

    >>> from repro.model.params import ipsc860
    >>> ModelPolicy(ipsc860()).decide(7, 40.0).partition
    (4, 3)
    """

    def __init__(
        self,
        params: MachineParams,
        *,
        candidates: Iterable[tuple[int, ...]] | None = None,
    ) -> None:
        self.params = params
        self.candidates = tuple(candidates) if candidates is not None else None
        self.name = "model"

    def decide(self, d: int, m: float) -> PlanDecision:
        choice = best_partition(float(m), int(d), self.params, candidates=self.candidates)
        return PlanDecision(
            d=int(d), m=float(choice.m), algorithm=algorithm_name(choice.partition),
            partition=choice.partition, predicted_us=choice.time, policy=self.name,
            ranking=choice.ranking,
        )


class ContentionPolicy:
    """Model-optimal choice, with the naive baseline priced for real.

    The analytic model cannot price the naive rotation baseline — its
    cost is contention, which eq. (3) assumes away.  This policy prices
    it with the fast path's reservation replay (the same greedy
    link/port serialization the event engine applies, collapsed to a
    flat pass) and compares against the model's best partition:

    * on the calibrated machines the planned schedule always wins, and
      the decision carries ``naive_us`` as the quantified margin — the
      "how much does ignoring the network cost" number;
    * on a machine whose pairwise-sync handshake is expensive enough,
      naive genuinely wins, and the policy selects it *with a
      simulator-backed prediction* (``predicted_us`` is set, unlike
      the fixed naive policy's unpriced baseline).

    >>> from repro.model.params import ipsc860
    >>> decision = ContentionPolicy(ipsc860()).decide(7, 40.0)
    >>> decision.partition
    (4, 3)
    >>> decision.naive_us > decision.predicted_us
    True
    """

    def __init__(
        self,
        params: MachineParams,
        *,
        candidates: Iterable[tuple[int, ...]] | None = None,
    ) -> None:
        self.params = params
        self._model = ModelPolicy(params, candidates=candidates)
        self.name = "contention"

    def decide(self, d: int, m: float) -> PlanDecision:
        from repro.sim.fastpath import naive_exchange_time

        planned = self._model.decide(d, m)
        naive_us = naive_exchange_time(planned.d, planned.m, self.params)
        if planned.predicted_us is not None and naive_us < planned.predicted_us:
            return PlanDecision(
                d=planned.d, m=planned.m, algorithm="naive", partition=None,
                predicted_us=naive_us, policy=self.name, source="fastpath",
                ranking=planned.ranking, naive_us=naive_us,
            )
        return replace(planned, policy=self.name, naive_us=naive_us)


class TrafficPolicy:
    """Partition choice for non-uniform traffic, priced on the grid.

    Builds the canonical hotspot matrix for ``(d, m)``
    (:func:`repro.core.traffic.hotspot_traffic` at the configured
    ``skew``), evaluates every partition in one batched grid pass, and
    plans the winner.  Ties break deterministically on the lowest-index
    partition (see :func:`repro.core.traffic.best_partition_for_traffic`).

    ``predicted_us`` is the *compiled fast path's* price of the chosen
    schedule under uniform execution
    (:func:`repro.sim.fastpath.exchange_time`) — the number the event
    engine would measure when the decision replays, so validation rows
    agree exactly on both engines; the skew-aware grid price that
    ranked the partitions is carried as ``traffic_us``.

    >>> from repro.model.params import ipsc860
    >>> decision = TrafficPolicy(ipsc860(), skew=4.0).decide(5, 40.0)
    >>> decision.partition is not None
    True
    """

    def __init__(self, params: MachineParams, *, skew: float = 4.0) -> None:
        if skew < 0:
            raise ValueError(f"skew must be >= 0, got {skew}")
        self.params = params
        self.skew = float(skew)
        self.name = f"traffic:hot{skew:g}"

    def decide(self, d: int, m: float) -> PlanDecision:
        from repro.core.traffic import best_partition_for_traffic, hotspot_traffic
        from repro.sim.fastpath import exchange_time

        check_dimension(d, minimum=1)
        m = check_block_size(m)
        matrix = hotspot_traffic(d, m, self.skew)
        partition, traffic_us = best_partition_for_traffic(matrix, self.params)
        predicted = exchange_time(d, m, partition, self.params)
        return PlanDecision(
            d=d, m=m, algorithm=algorithm_name(partition), partition=partition,
            predicted_us=predicted, policy=self.name, source="fastpath",
            traffic_us=traffic_us,
        )


class AdaptivePolicy:
    """Model-optimal planning that re-plans when reality drifts.

    Starts from the clean model optimum and keeps a running *slowdown
    calibration* ``s``: every candidate is priced with the per-byte
    (τ) and permutation (ρ) constants scaled by ``s`` — the two shares
    degraded links and straggler nodes actually inflate (startup and
    switch time are machine-internal).  After each collective the
    caller feeds the observed completion time to :meth:`observe`; when
    the relative drift ``|observed - predicted| / predicted`` (the
    same quantity :func:`repro.analysis.validation.rel_drift` puts in
    validation rows) exceeds ``threshold``, the calibration absorbs
    the observed ratio and the *next* ``decide`` re-plans against the
    machine as measured, not as specified.

    Why recalibrating τ/ρ changes the plan: a multiphase partition
    trades fewer transmissions against more byte volume and a shuffle
    pass per phase.  As ``s`` grows the byte/shuffle shares dominate
    and the argmin slides toward the single-phase ``(d,)`` schedule —
    minimal bytes, no shuffles — which is exactly the right call on a
    machine whose stragglers tax every permutation pass.

    An optional ``fault_plan`` gives the policy an *a-priori* machine
    model: candidates are then priced with
    :func:`repro.model.cost.degraded_multiphase_time` (the declared
    expected slowdown) instead of the clean model, and drift
    calibration refines from there.

    >>> from repro.model.params import ipsc860
    >>> policy = AdaptivePolicy(ipsc860())
    >>> decision = policy.decide(7, 40.0)
    >>> decision.partition
    (4, 3)
    >>> policy.observe(decision, decision.predicted_us * 1.05)  # within threshold
    False
    >>> policy.observe(decision, decision.predicted_us * 4.0)
    True
    >>> policy.decide(7, 40.0).partition  # re-planned for the slow machine
    (7,)
    """

    #: calibration never collapses below this (a near-zero slowdown
    #: would make every candidate free and the argmin meaningless)
    MIN_SLOWDOWN = 0.05

    def __init__(
        self,
        params: MachineParams,
        *,
        threshold: float = 0.25,
        candidates: Iterable[tuple[int, ...]] | None = None,
        fault_plan=None,
    ) -> None:
        if threshold <= 0:
            raise ValueError(f"drift threshold must be > 0, got {threshold}")
        self.params = params
        self.threshold = float(threshold)
        self.candidates = tuple(candidates) if candidates is not None else None
        self.fault_plan = fault_plan
        #: running slowdown calibration applied to τ and ρ
        self.slowdown = 1.0
        #: number of drift-triggered recalibrations so far
        self.replans = 0
        self.name = "adaptive"

    def _calibrated_params(self) -> MachineParams:
        # exact sentinel: slowdown starts at exactly 1.0 and the branch
        # only skips building an identical params copy
        if self.slowdown == 1.0:  # repro: allow[float-eq]
            return self.params
        return self.params.with_overrides(
            byte_time=self.params.byte_time * self.slowdown,
            permute_time=self.params.permute_time * self.slowdown,
        )

    def decide(self, d: int, m: float) -> PlanDecision:
        check_dimension(d, minimum=1)
        m = check_block_size(m)
        params = self._calibrated_params()
        if self.fault_plan is not None and not self.fault_plan.is_empty:
            from repro.core.partitions import cached_partitions
            from repro.model.cost import degraded_multiphase_time

            pool = self.candidates if self.candidates is not None else cached_partitions(d)
            scored = [
                (degraded_multiphase_time(m, d, p, params, self.fault_plan), p)
                for p in pool
            ]
            predicted, partition = min(scored, key=lambda item: (item[0], item[1]))
            return PlanDecision(
                d=d, m=m, algorithm=algorithm_name(partition), partition=partition,
                predicted_us=predicted, policy=self.name, source="degraded-model",
            )
        choice = best_partition(m, d, params, candidates=self.candidates)
        return PlanDecision(
            d=d, m=float(choice.m), algorithm=algorithm_name(choice.partition),
            partition=choice.partition, predicted_us=choice.time, policy=self.name,
            ranking=choice.ranking,
        )

    def observe(self, decision: PlanDecision, observed_us: float) -> bool:
        """Feed back one observed completion; True if it triggered a
        recalibration (the next ``decide`` may change its answer)."""
        from repro.analysis.validation import rel_drift

        predicted = decision.predicted_us
        drift = rel_drift(predicted, observed_us)
        if drift is None or drift <= self.threshold:
            return False
        self.slowdown = max(self.MIN_SLOWDOWN, self.slowdown * (observed_us / predicted))
        self.replans += 1
        return True


class ServicePolicy:
    """Answer from an in-process optimizer query service.

    Lookups go through :func:`repro.service.batch.resolve_queries`, so
    they ride the registry's certified pool envelopes, result memo,
    and coalesced grid calls; the decision's ``source`` records which
    of those actually served the answer (``service:memo`` /
    ``service:grid`` / ``service:pool``).

    >>> from repro.service import OptimizerRegistry
    >>> policy = ServicePolicy(OptimizerRegistry(), preset="ipsc860")
    >>> policy.decide(7, 40.0).partition
    (4, 3)
    """

    def __init__(self, registry=None, *, preset: str = "ipsc860") -> None:
        from repro.service.registry import OptimizerRegistry

        self.registry = registry if registry is not None else OptimizerRegistry()
        self.registry.params(preset)  # fail fast on unknown presets
        self.preset = preset
        self.name = f"service:{preset}"

    def decide(self, d: int, m: float) -> PlanDecision:
        result = self.registry.resolve([(self.preset, int(d), float(m))])[0]
        return PlanDecision(
            d=result.d, m=result.m, algorithm=algorithm_name(result.partition),
            partition=result.partition, predicted_us=result.time_us, policy=self.name,
            source=f"service:{result.source}",
        )


def make_policy(
    name: str,
    params: MachineParams,
    *,
    preset: str = "ipsc860",
    registry=None,
    partition: Sequence[int] | None = None,
    naive: bool = False,
) -> PlanningPolicy:
    """Build one of the named policies (CLI/bench convenience).

    ``name`` is ``"fixed"``, ``"model"``, ``"service"``,
    ``"contention"``, ``"traffic"``, or ``"adaptive"``; the fixed
    policy honours ``partition``/``naive``, the service policy uses
    ``registry`` (a fresh in-process one when omitted) under
    ``preset``, the traffic policy plans for the default hotspot skew,
    the adaptive policy starts model-optimal with the default drift
    threshold.
    """
    if name == "fixed":
        return FixedPolicy(partition, naive=naive, params=params)
    if name == "model":
        return ModelPolicy(params)
    if name == "service":
        return ServicePolicy(registry, preset=preset)
    if name == "contention":
        return ContentionPolicy(params)
    if name == "traffic":
        return TrafficPolicy(params)
    if name == "adaptive":
        return AdaptivePolicy(params)
    raise ValueError(
        f"unknown policy {name!r}; expected 'fixed', 'model', 'service', "
        f"'contention', 'traffic', or 'adaptive'"
    )

"""Chaos sweeps: policies racing across degraded machines.

The question this module answers is the one the clean reproduction
cannot: *how do the paper's partition choices hold up when the machine
misbehaves?*  A sweep fixes a multi-step exchange workload, degrades
the machine along two axes — transient link-failure rate and straggler
severity — and races planning policies over every cell:

* ``fixed`` freezes the clean model optimum (what every pre-chaos call
  site effectively does);
* ``adaptive`` starts from the same optimum but re-plans when observed
  step times drift past its threshold
  (:class:`repro.plan.policies.AdaptivePolicy`);
* ``model`` re-decides each step without calibration (control).

Each cell's :class:`~repro.sim.faults.FaultPlan` is generated from
``(seed, cell indices)`` — independent of policy, so every policy in a
cell faces the *identical* machine — and each step is byte-verified,
so a completion time is only reported for a workload whose every block
arrived intact (transient outages survived via block-and-retry, never
by dropping data).

``repro chaos`` renders the sweep (text or ``--json``); the same seed
always yields the identical report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.comm.program import exchange_program
from repro.core.blocks import BlockBuffer
from repro.core.schedule import multiphase_schedule
from repro.model.optimizer import best_partition
from repro.model.params import MachineParams, PRESETS
from repro.plan.decision import format_partition
from repro.plan.policies import AdaptivePolicy, FixedPolicy, ModelPolicy, PlanningPolicy
from repro.sim.faults import FaultPlan
from repro.sim.machine import SimulatedHypercube
from repro.sim.trace import Trace
from repro.util.validation import check_block_size, check_dimension

__all__ = [
    "ChaosCell",
    "ChaosReport",
    "SWEEP_POLICIES",
    "WorkloadResult",
    "chaos_sweep",
    "run_degraded_workload",
]

#: policy names a sweep accepts
SWEEP_POLICIES = ("fixed", "adaptive", "model")

#: documented fault-free tolerance: on cells without injected faults
#: the adaptive policy must never complete later than the fixed policy
#: by more than this fraction (it plans the same optimum and observes
#: no drift, so in practice the two are identical; the tolerance
#: absorbs nothing more than float noise)
FAULT_FREE_TOLERANCE = 0.05


@dataclass
class WorkloadResult:
    """One policy's run over the multi-step workload on one machine."""

    policy: str
    step_times_us: list[float]
    partitions: list[tuple[int, ...]]
    n_switches: int
    n_replans: int
    trace: Trace

    @property
    def completion_us(self) -> float:
        return sum(self.step_times_us)

    @property
    def n_retries(self) -> int:
        return len(self.trace.retries)

    @property
    def n_drops(self) -> int:
        return len(self.trace.dropped_messages)


def _sweep_policy(
    name: str,
    params: MachineParams,
    *,
    threshold: float,
    fixed_partition: tuple[int, ...],
) -> PlanningPolicy:
    if name == "fixed":
        return FixedPolicy(fixed_partition, params=params)
    if name == "adaptive":
        return AdaptivePolicy(params, threshold=threshold)
    if name == "model":
        return ModelPolicy(params)
    raise ValueError(f"unknown sweep policy {name!r}; expected one of {SWEEP_POLICIES}")


def run_degraded_workload(
    d: int,
    m: int,
    policy: PlanningPolicy,
    params: MachineParams,
    *,
    n_steps: int,
    fault_plan: FaultPlan | None = None,
    verify: bool = True,
) -> WorkloadResult:
    """Run ``n_steps`` sequential complete exchanges under ``policy``
    on one persistent degraded machine.

    One :class:`~repro.sim.machine.SimulatedHypercube` carries the
    whole workload, so virtual time accumulates across steps and the
    fault plan's absolute outage windows land mid-workload.  Before
    each step the policy decides; after each step the observed time
    feeds back via ``policy.observe`` when the policy supports it
    (drift-triggered re-planning).  With ``verify`` every node's final
    buffer is byte-checked — a lost block fails loudly instead of
    flattering the completion time.
    """
    check_dimension(d, minimum=1)
    m = int(check_block_size(m))
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    machine = SimulatedHypercube(d, params, fault_plan=fault_plan)
    step_times: list[float] = []
    partitions: list[tuple[int, ...]] = []
    n_switches = 0
    n_replans = 0
    for _ in range(n_steps):
        decision = policy.decide(d, float(m))
        if decision.partition is None:
            raise ValueError(
                f"policy {policy.name!r} chose the naive baseline; chaos "
                f"workloads race partition schedules only"
            )
        partition = decision.partition
        steps = multiphase_schedule(d, partition)
        t_begin = machine.engine.now
        run = machine.run(exchange_program, steps=steps, m=m, engine="tags")
        observed = run.time - t_begin
        if verify:
            BlockBuffer.verify_all(run.node_results)
        if partitions and partition != partitions[-1]:
            n_switches += 1
        partitions.append(partition)
        step_times.append(observed)
        observe = getattr(policy, "observe", None)
        if observe is not None and observe(decision, observed):
            n_replans += 1
    return WorkloadResult(
        policy=policy.name,
        step_times_us=step_times,
        partitions=partitions,
        n_switches=n_switches,
        n_replans=n_replans,
        trace=machine.trace,
    )


@dataclass(frozen=True)
class ChaosCell:
    """One (failure rate × straggler severity × policy) measurement."""

    failure_rate: float
    straggler_scale: float
    policy: str
    completion_us: float
    n_steps: int
    n_retries: int
    n_switches: int
    n_replans: int
    n_drops: int
    partitions: tuple[str, ...]

    def as_dict(self) -> dict:
        return {
            "failure_rate": self.failure_rate,
            "straggler_scale": self.straggler_scale,
            "policy": self.policy,
            "completion_us": self.completion_us,
            "n_steps": self.n_steps,
            "n_retries": self.n_retries,
            "n_switches": self.n_switches,
            "n_replans": self.n_replans,
            "n_drops": self.n_drops,
            "partitions": list(self.partitions),
        }


@dataclass
class ChaosReport:
    """A full failure-rate × straggler-severity × policy sweep."""

    d: int
    m: int
    n_steps: int
    seed: int
    threshold: float
    params_name: str
    clean_partition: tuple[int, ...]
    cells: list[ChaosCell] = field(default_factory=list)

    def cell(self, failure_rate: float, straggler_scale: float, policy: str) -> ChaosCell:
        for c in self.cells:
            if (
                c.policy == policy
                and c.failure_rate == failure_rate
                and c.straggler_scale == straggler_scale
            ):
                return c
        raise KeyError(
            f"no cell ({failure_rate}, {straggler_scale}, {policy!r}) in this sweep"
        )

    def as_dict(self) -> dict:
        return {
            "d": self.d,
            "m": self.m,
            "n_steps": self.n_steps,
            "seed": self.seed,
            "threshold": self.threshold,
            "params": self.params_name,
            "clean_partition": list(self.clean_partition),
            "fault_free_tolerance": FAULT_FREE_TOLERANCE,
            "cells": [c.as_dict() for c in self.cells],
        }

    def render(self) -> str:
        lines = [
            f"chaos sweep on {self.params_name}: d={self.d}, m={self.m}, "
            f"{self.n_steps} exchanges/cell, seed={self.seed}, "
            f"clean optimum {format_partition(self.clean_partition)}, "
            f"drift threshold {self.threshold:g}",
            "  fail-rate  straggler  policy    completion(us)  retries  "
            "switches  replans  drops  partitions",
        ]
        for c in self.cells:
            parts = ">".join(dict.fromkeys(c.partitions))
            lines.append(
                f"  {c.failure_rate:9.2f}  {c.straggler_scale:9.2f}  "
                f"{c.policy:8s}  {c.completion_us:14.1f}  {c.n_retries:7d}  "
                f"{c.n_switches:8d}  {c.n_replans:7d}  {c.n_drops:5d}  {parts}"
            )
        lines.append(
            f"  {len(self.cells)} cells; every cell byte-verified "
            f"(zero lost blocks); fault-free adaptive-vs-fixed tolerance "
            f"{FAULT_FREE_TOLERANCE * 100:.0f}%"
        )
        return "\n".join(lines)


def chaos_sweep(
    d: int,
    m: int,
    *,
    n_steps: int = 6,
    seed: int = 0,
    failure_rates: Sequence[float] = (0.0, 0.25),
    straggler_scales: Sequence[float] = (1.0, 4.0),
    policies: Sequence[str] = ("fixed", "adaptive"),
    threshold: float = 0.25,
    straggler_fraction: float = 0.25,
    params: MachineParams | None = None,
    verify: bool = True,
) -> ChaosReport:
    """Sweep failure rate × straggler severity × policy.

    Every cell draws its :class:`~repro.sim.faults.FaultPlan` from
    ``default_rng([seed, rate_index, scale_index])`` — deterministic,
    and independent of which policies run on it, so the race inside a
    cell is on identical machines.  Outage windows are sized from the
    clean model optimum so they land while traffic is actually flowing.
    A straggler scale of 1.0 (or a failure rate of 0.0) injects nothing
    on that axis; the (0.0, 1.0) cell is the fault-free control.
    """
    check_dimension(d, minimum=1)
    m = int(check_block_size(m))
    p = params if params is not None else PRESETS["ipsc860"]()
    for name in policies:
        if name not in SWEEP_POLICIES:
            raise ValueError(
                f"unknown sweep policy {name!r}; expected one of {SWEEP_POLICIES}"
            )
    clean = best_partition(float(m), d, p)
    # the workload's rough clean extent, used to size outage windows so
    # they overlap live traffic rather than landing after completion
    clean_span = clean.time * n_steps
    report = ChaosReport(
        d=d,
        m=m,
        n_steps=n_steps,
        seed=seed,
        threshold=threshold,
        params_name=p.name,
        clean_partition=clean.partition,
    )
    for i, rate in enumerate(failure_rates):
        for j, scale in enumerate(straggler_scales):
            plan = FaultPlan.generate(
                d,
                [seed, i, j],
                link_failure_rate=float(rate),
                horizon_us=clean_span,
                outage_duration_range_us=(0.25 * clean.time, 1.5 * clean.time),
                straggler_fraction=straggler_fraction if scale > 1.0 else 0.0,
                straggler_scale_range=(float(scale), float(scale)),
            )
            for name in policies:
                policy = _sweep_policy(
                    name, p, threshold=threshold, fixed_partition=clean.partition
                )
                result = run_degraded_workload(
                    d, m, policy, p,
                    n_steps=n_steps, fault_plan=plan, verify=verify,
                )
                report.cells.append(
                    ChaosCell(
                        failure_rate=float(rate),
                        straggler_scale=float(scale),
                        policy=name,
                        completion_us=result.completion_us,
                        n_steps=n_steps,
                        n_retries=result.n_retries,
                        n_switches=result.n_switches,
                        n_replans=result.n_replans,
                        n_drops=result.n_drops,
                        partitions=tuple(
                            format_partition(part) for part in result.partitions
                        ),
                    )
                )
    return report

"""Planner validation: predicted vs. simulated time per decision.

Runs the four application workloads (transpose, 2-D FFT, table lookup,
ADI) end-to-end under a chosen planning policy, payload-checking every
result against its numpy reference, then replays each *distinct*
planning decision on the simulated machine and compares the policy's
predicted time against the measured virtual time.  For contention-free
schedules the two must agree almost exactly (the simulator shares the
model's constants); the naive baseline has no analytic model, so its
rows report the simulated time alone.

This closes the loop the planner opens: the optimizer chooses, the
apps run the choice, and this report shows the choice was priced
correctly.  ``repro apps`` / ``repro validate`` render it.

Decisions are replayed on the vectorized fast path by default
(``engine="fast"``, :mod:`repro.sim.fastpath`): float-identical to
the event engine on contention-free schedules, reservation-replay
pricing for the naive baseline, and cheap enough to validate at
sweep scale.  Pass ``engine="event"`` to spot-check against the
coroutine discrete-event engine (authoritative for data movement,
faults, and FORCED semantics).

Beyond the app-driven exchanges the report also covers the other two
decision surfaces a planner owns: the §9 *pattern* selections
(broadcast/scatter/allgather via
:func:`~repro.plan.patterns.plan_pattern`, priced by the compiled
program fast path) and *non-uniform traffic* partition choices
(:class:`~repro.plan.policies.TrafficPolicy` over hotspot matrices).
On ``engine="fast"`` every one of those rows is closed-form; the
report's ``engine_boots`` counts how many times the event engine was
booted while validating — **zero** on the default path, which the apps
benchmark and tests assert.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.comm.program import simulate
from repro.core.programs import pattern_program
from repro.model.params import MachineParams, PRESETS
from repro.plan import (
    CollectivePlanner,
    FixedPolicy,
    PlanDecision,
    PlanningPolicy,
    TrafficPolicy,
    plan_pattern,
)
from repro.plan.decision import format_partition
from repro.plan.patterns import PATTERNS
from repro.sim.fastpath import program_time

__all__ = [
    "APP_WORKLOADS",
    "DEFAULT_PATTERN_CONFIGS",
    "DEFAULT_TRAFFIC_CONFIGS",
    "ENGINES",
    "PlanValidationReport",
    "ValidationRow",
    "rel_drift",
    "validate_policy",
]


def rel_drift(predicted: float | None, simulated: float) -> float | None:
    """Relative drift ``|simulated - predicted| / predicted``.

    The single definition of "how far did reality stray from the
    model": validation rows report it as ``rel_error``, and
    :class:`~repro.plan.policies.AdaptivePolicy` thresholds on it to
    decide when to re-plan.  ``None`` when the decision has no positive
    analytic prediction to drift from.
    """
    if predicted is None or predicted <= 0:
        return None
    return abs(simulated - predicted) / predicted


# ----------------------------------------------------------------------
# app workloads (small, payload-checked against numpy references)
# ----------------------------------------------------------------------
def _workload_transpose(planner: CollectivePlanner) -> None:
    from repro.apps.transpose import distributed_transpose

    rng = np.random.default_rng(101)
    matrix = rng.standard_normal((16, 16))
    got = distributed_transpose(matrix, 8, planner=planner)
    if not np.array_equal(got, matrix.T):
        raise AssertionError("transpose payload check failed")


def _workload_fft2d(planner: CollectivePlanner) -> None:
    from repro.apps.fft2d import distributed_fft2

    rng = np.random.default_rng(202)
    grid = rng.standard_normal((8, 8))
    got = distributed_fft2(grid, 4, planner=planner)
    if not np.allclose(got, np.fft.fft2(grid)):
        raise AssertionError("fft2d payload check failed")


def _workload_lookup(planner: CollectivePlanner) -> None:
    from repro.apps.lookup import DistributedTable, distributed_lookup

    rng = np.random.default_rng(303)
    keys = np.arange(0, 64, 3)
    table = DistributedTable(keys, keys * 1.5, 16, 64)
    queries = [rng.choice(keys, size=4) for _ in range(16)]
    answers = distributed_lookup(table, queries, planner=planner)
    for q, a in zip(queries, answers):
        if not np.array_equal(a, q * 1.5):
            raise AssertionError("lookup payload check failed")


def _workload_adi(planner: CollectivePlanner) -> None:
    from repro.apps.adi import ADIProblem, adi_reference_step, run_adi

    problem = ADIProblem(size=16, dt=2e-4)
    u0 = np.zeros((16, 16))
    u0[6:10, 6:10] = 100.0
    got = run_adi(u0, problem, 8, 2, planner=planner)
    ref = adi_reference_step(adi_reference_step(u0, problem), problem)
    if not np.allclose(got, ref, atol=1e-12):
        raise AssertionError("adi payload check failed")


#: the validated workloads, in report order
APP_WORKLOADS: dict[str, Callable[[CollectivePlanner], None]] = {
    "transpose": _workload_transpose,
    "fft2d": _workload_fft2d,
    "lookup": _workload_lookup,
    "adi": _workload_adi,
}


# ----------------------------------------------------------------------
# the report
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ValidationRow:
    """One planning decision, priced and measured."""

    app: str
    d: int
    m: float
    algorithm: str
    partition: tuple[int, ...] | None
    predicted_us: float | None
    simulated_us: float
    #: ``|simulated - predicted| / predicted`` (``None`` when the
    #: algorithm has no analytic prediction)
    rel_error: float | None


#: the decision-replay engines ``validate_policy`` accepts
ENGINES = ("fast", "event")

#: default ``(d, m)`` grid for the §9 pattern validation rows
DEFAULT_PATTERN_CONFIGS: tuple[tuple[int, float], ...] = ((3, 16.0), (4, 40.0))

#: default ``(d, m, skew)`` grid for the non-uniform traffic rows
DEFAULT_TRAFFIC_CONFIGS: tuple[tuple[int, float, float], ...] = (
    (3, 16.0, 4.0),
    (4, 40.0, 4.0),
)


@dataclass
class PlanValidationReport:
    """Payload-verified app runs plus per-decision timing agreement."""

    policy: str
    params_name: str
    #: which simulator replayed the decisions ("fast" or "event")
    engine: str = "fast"
    rows: list[ValidationRow] = field(default_factory=list)
    verified_apps: list[str] = field(default_factory=list)
    #: plan records of the replayed exchange decisions, one per
    #: exchange-replay row: the event engine's run records it in its
    #: trace; the fast path, which keeps no trace, counts the decision
    #: it prices.  Pattern rows record none.
    n_trace_decisions: int = 0
    #: event-engine boots observed while validating (``Engine.boot_count``
    #: delta) — 0 on ``engine="fast"``: the whole report is closed-form
    engine_boots: int = 0

    @property
    def max_rel_error(self) -> float:
        """Worst relative error over rows that have a prediction."""
        errors = [r.rel_error for r in self.rows if r.rel_error is not None]
        return max(errors, default=0.0)

    def render(self) -> str:
        lines = [
            f"planner validation under policy '{self.policy}' on "
            f"{self.params_name} [{self.engine} engine]:",
            f"  apps verified (payload-checked): {', '.join(self.verified_apps)}",
            "  app        d  m(B)    algorithm     partition  "
            "predicted(us)  simulated(us)  rel.err",
        ]
        for r in self.rows:
            part = format_partition(r.partition) if r.partition is not None else "-"
            predicted = f"{r.predicted_us:13.1f}" if r.predicted_us is not None else " " * 9 + "n/a "
            rel = f"{r.rel_error * 100:6.3f}%" if r.rel_error is not None else "    n/a"
            lines.append(
                f"  {r.app:9s} {r.d:2d} {r.m:5.0f}  {r.algorithm:13s} {part:10s} "
                f"{predicted}  {r.simulated_us:13.1f}  {rel}"
            )
        lines.append(
            f"  {len(self.rows)} decisions replayed on the simulator "
            f"({self.n_trace_decisions} plan records in traces); "
            f"max rel. error {self.max_rel_error * 100:.3f}%; "
            f"event-engine boots: {self.engine_boots}"
        )
        return "\n".join(lines)


class _ReplayPolicy:
    """Re-issue one already-taken decision (for simulation replay)."""

    def __init__(self, decision: PlanDecision) -> None:
        self.decision = decision
        self.name = decision.policy

    def decide(self, d: int, m: float) -> PlanDecision:
        if (d, float(m)) != (self.decision.d, self.decision.m):
            raise ValueError(
                f"replay policy holds a decision for (d={self.decision.d}, "
                f"m={self.decision.m}), asked for (d={d}, m={m})"
            )
        return self.decision


def _append_row(
    report: PlanValidationReport,
    app: str,
    d: int,
    m: float,
    algorithm: str,
    partition: tuple[int, ...] | None,
    predicted: float | None,
    simulated: float,
) -> None:
    rel = rel_drift(predicted, simulated)
    report.rows.append(
        ValidationRow(
            app=app, d=d, m=m, algorithm=algorithm, partition=partition,
            predicted_us=predicted, simulated_us=simulated, rel_error=rel,
        )
    )


def validate_policy(
    policy: PlanningPolicy | None = None,
    *,
    params: MachineParams | None = None,
    apps: Sequence[str] | None = None,
    engine: str = "fast",
    pattern_configs: Sequence[tuple[int, float]] | None = None,
    traffic_configs: Sequence[tuple[int, float, float]] | None = None,
    fault_plan=None,
) -> PlanValidationReport:
    """Run the app workloads under ``policy`` and price every decision.

    ``policy`` defaults to the fixed single-phase policy; ``params``
    (used to *simulate* the decisions) defaults to the iPSC-860
    calibration.  Each app gets a fresh
    :class:`~repro.plan.planner.CollectivePlanner` over the shared
    policy — per-run plan caches, one audit log per app.

    ``engine`` selects the decision-replay simulator: ``"fast"`` (the
    default) prices every decision with the vectorized fast path —
    float-identical to the event engine on contention-free schedules —
    while ``"event"`` replays each decision on the coroutine
    discrete-event machine (the spot-check mode).

    ``pattern_configs`` is a ``(d, m)`` grid of §9 pattern selections
    to validate (each expands to one row per pattern in
    :data:`~repro.plan.patterns.PATTERNS`); ``traffic_configs`` a
    ``(d, m, skew)`` grid of non-uniform traffic partition choices
    (one :class:`~repro.plan.policies.TrafficPolicy` decision each,
    replayed like an app decision).  Both default to small built-in
    grids; pass ``()`` to validate apps only.  The report's
    ``engine_boots`` records how many event engines were booted — 0 on
    ``engine="fast"``.

    A ``fault_plan`` (:class:`repro.sim.faults.FaultPlan`) degrades the
    machine of its own dimension: every decision at ``fault_plan.d``
    replays on it (the others on the clean machine), producing the
    drift rows (``rel_error``) the adaptive policy thresholds on.  Only
    the event engine understands faults, so a non-empty plan requires
    ``engine="event"``.  The event engine moves whole bytes, so under
    ``engine="event"`` every grid ``m`` must be integral (``16.0``
    is); a fractional one raises :class:`ValueError` before any engine
    boots.
    """
    from repro.sim.engine import Engine

    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    if fault_plan is not None and not fault_plan.is_empty and engine != "event":
        raise ValueError(
            "fault plans require engine='event'; the fast path models "
            "the uniform machine only"
        )
    p = params if params is not None else PRESETS["ipsc860"]()
    pol = policy if policy is not None else FixedPolicy(params=p)
    names = list(apps) if apps is not None else list(APP_WORKLOADS)
    patterns_grid = (
        list(pattern_configs) if pattern_configs is not None
        else list(DEFAULT_PATTERN_CONFIGS)
    )
    traffic_grid = (
        list(traffic_configs) if traffic_configs is not None
        else list(DEFAULT_TRAFFIC_CONFIGS)
    )
    if engine == "event":
        # the simulator moves whole bytes: a fractional m would run at
        # int(m) while its row reports m
        for config in (*patterns_grid, *traffic_grid):
            if not float(config[1]).is_integer():
                raise ValueError(
                    f"engine='event' replays whole-byte blocks; got m={config[1]!r} "
                    f"in config {tuple(config)!r}"
                )
    report = PlanValidationReport(policy=pol.name, params_name=p.name, engine=engine)
    boots_before = Engine.boot_count

    def price(pattern: str, algorithm: str, d: int, m: float, partition) -> float:
        return program_time(pattern_program(pattern, algorithm, d, partition=partition), m, p)

    def plan_at(d: int):
        return fault_plan if fault_plan is not None and fault_plan.d == d else None

    def replay_exchange(app: str, decision: PlanDecision) -> None:
        d, m = decision.d, decision.m
        if engine == "fast":
            naive = decision.algorithm == "naive"
            simulated = price(
                "alltoall", "rotation" if naive else "multiphase", d, m, decision.partition
            )
            report.n_trace_decisions += 1
        else:
            # replayed through a planner, so the run's trace records it
            result = simulate(
                "alltoall", "multiphase", d, int(m), p,
                planner=CollectivePlanner(_ReplayPolicy(decision)), fault_plan=plan_at(d),
            )
            simulated = result.time_us
            report.n_trace_decisions += len(result.trace.plan_decisions)
        _append_row(
            report, app, decision.d, decision.m, decision.algorithm,
            decision.partition, decision.predicted_us, simulated,
        )

    for name in names:
        try:
            workload = APP_WORKLOADS[name]
        except KeyError:
            raise ValueError(
                f"unknown app {name!r}; have {sorted(APP_WORKLOADS)}"
            ) from None
        planner = CollectivePlanner(pol)
        workload(planner)
        report.verified_apps.append(name)
        for decision in planner.unique_decisions():
            replay_exchange(name, decision)
    for d, m in patterns_grid:
        for pattern in PATTERNS:
            selection = plan_pattern(pattern, m, d, p)
            if engine == "fast":
                simulated = price(pattern, selection.algorithm, d, m, selection.partition)
            else:
                simulated = simulate(
                    pattern, selection.algorithm, d, int(m), p,
                    partition=selection.partition, fault_plan=plan_at(d),
                ).time_us
            _append_row(
                report, f"pattern:{pattern}", d, float(m), selection.algorithm,
                selection.partition, selection.predicted_us, simulated,
            )
    for d, m, skew in traffic_grid:
        decision = TrafficPolicy(p, skew=skew).decide(d, m)
        replay_exchange(f"traffic:hot{skew:g}", decision)
    report.engine_boots = Engine.boot_count - boots_before
    return report

"""Static verification: prove invariants without running the simulator.

Every other correctness guarantee in this repository is *dynamic* —
contention-freedom is observed by replaying schedules on the event
engine, fast-path agreement is measured, protocol agreement is tested
by running both transports.  This package adds the *static* layer: it
proves the Bokhari schedule invariants (edge/port-disjoint circuits,
legal dimension-ordered e-cube routes, block conservation, fast-path
coefficient fidelity) and the repository's own coding invariants
(no blocking calls in async transports, no event-engine imports
outside sanctioned sites, no bare float equality, seeded randomness,
protocol-constant agreement) ahead of execution, in the model-checking
spirit of proving properties over a transition system rather than
sampling its runs.

Two coordinated analyzers, both behind ``repro check``:

* :mod:`repro.check.schedule` — the domain verifier, certifying every
  compiled ``(d, partition)`` schedule, §9 pattern program, and
  planner-emitted collective, with counterexample extraction;
* :mod:`repro.check.rules` — the AST-based project lint engine with
  per-rule allowlists, fix hints, and inline
  ``# repro: allow[rule-id]`` escape hatches.

Both emit the machine-readable :class:`~repro.check.report.CheckReport`.
"""

from repro.check.report import CheckReport, Violation
from repro.check.rules import RULES, LintRule, run_rules
from repro.check.schedule import (
    check_schedules,
    verify_circuit_steps,
    verify_pattern,
    verify_plan_decision,
    verify_program_coefficients,
    verify_schedule,
)

__all__ = [
    "CheckReport",
    "LintRule",
    "RULES",
    "Violation",
    "check_schedules",
    "run_rules",
    "verify_circuit_steps",
    "verify_pattern",
    "verify_plan_decision",
    "verify_program_coefficients",
    "verify_schedule",
]

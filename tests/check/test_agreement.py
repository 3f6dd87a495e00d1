"""Verifier/engine agreement: static certificates hold dynamically.

The static verifier and the event engine are independent
implementations of the same physics.  A schedule the verifier
certifies contention-free must replay on the event engine with zero
contention wait and with per-step circuit sets that the per-step
oracle also calls clean; conversely the corruptions the verifier
rejects are exactly the ones that would make the engine contend or
lose data.
"""

from __future__ import annotations

import pytest

from repro.check import verify_schedule
from repro.comm.program import simulate_exchange
from repro.hypercube.contention import count_edge_conflicts
from repro.sim.trace import TransmissionRecord

CASES = [
    (3, (3,)),
    (4, (2, 2)),
    (4, (1, 1, 1, 1)),
    (5, (2, 3)),
]


def per_step_circuits(transmissions: list[TransmissionRecord]):
    """Group an exchange trace into per-step circuit sets by tag."""
    by_tag: dict[int, list[tuple[int, int]]] = {}
    for record in transmissions:
        by_tag.setdefault(record.tag, []).append((record.src, record.dst))
    return [by_tag[tag] for tag in sorted(by_tag)]


@pytest.mark.parametrize("d,parts", CASES)
def test_certified_schedules_replay_clean(d, parts, ipsc):
    # the static certificate...
    assert verify_schedule(d, parts) == []
    # ...agrees with the dynamic replay: no circuit ever waited
    result = simulate_exchange(d, 16, parts, ipsc)
    assert result.trace.total_contention_wait == 0.0
    # ...and the replayed per-step circuit sets are oracle-clean too
    steps = per_step_circuits(result.trace.transmissions)
    detail = count_edge_conflicts(steps)
    assert detail.clean, detail.summary()
    assert detail.n_steps == len(steps)


def test_trace_carries_every_exchange_step(ipsc):
    """The tag partition of the trace covers every compiled exchange
    step — the agreement check above is not vacuously grouping."""
    d, parts = 4, (2, 2)
    result = simulate_exchange(d, 16, parts, ipsc)
    steps = per_step_circuits(result.trace.transmissions)
    from repro.core.programs import exchange_rounds

    assert len(steps) == len(exchange_rounds(d, parts))
    # every step is a full pairing of the cube
    assert all(len(circuits) == (1 << d) for circuits in steps)


def test_rejected_corruption_would_contend(ipsc):
    """The duplicated-circuit corruption the verifier rejects is the
    same event the per-step oracle counts as a conflict."""
    from repro.check import verify_circuit_steps
    from repro.hypercube.contention import analyze_contention

    d = 4
    circuits = [(x, x ^ 3) for x in range(1 << d)] + [(0, 3)]
    static = verify_circuit_steps([circuits], d, target="t")
    assert any(v.check == "edge-contention" for v in static)
    dynamic = analyze_contention(circuits)
    assert not dynamic.edge_contention_free
    # the statically named links are exactly the oracle's conflicted ones
    named = {
        v.counterexample["link"]
        for v in static
        if v.check == "edge-contention"
    }
    assert named == {str(link) for link in dynamic.edge_conflicts}

"""Tests for the chaos sweep and drift computation on degraded runs.

Covers the fault-aware analysis layer end to end: the single
:func:`repro.analysis.validation.rel_drift` definition both validation
rows and the adaptive policy threshold on, ``validate_policy`` replays
against a declared-degraded machine, and the full
:func:`repro.analysis.chaos.chaos_sweep` grid — seeded reproducibility,
transient-outage survival with zero lost blocks, and the adaptive
policy's documented guarantees (beats fixed on a straggler cell, never
meaningfully worse on fault-free cells).
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.chaos import (
    FAULT_FREE_TOLERANCE,
    ChaosReport,
    chaos_sweep,
    run_degraded_workload,
)
from repro.analysis.validation import rel_drift, validate_policy
from repro.hypercube.topology import Link
from repro.plan import AdaptivePolicy, FixedPolicy
from repro.sim.fastpath import naive_exchange_time
from repro.sim.faults import FaultPlan, LinkDegradation, Straggler


class TestRelDrift:
    def test_symmetric_about_the_prediction(self):
        assert rel_drift(100.0, 150.0) == 0.5
        assert rel_drift(100.0, 50.0) == 0.5

    def test_zero_when_exact(self):
        assert rel_drift(250.0, 250.0) == 0.0

    def test_no_prediction_no_drift(self):
        assert rel_drift(None, 123.0) is None
        assert rel_drift(0.0, 123.0) is None
        assert rel_drift(-1.0, 123.0) is None

    def test_is_what_the_adaptive_threshold_sees(self, ipsc):
        """The policy re-plans exactly when rel_drift crosses its
        threshold — same function, same value."""
        policy = AdaptivePolicy(ipsc, threshold=0.25)
        decision = policy.decide(7, 40.0)
        at_threshold = decision.predicted_us * (1 + 0.25)
        assert rel_drift(decision.predicted_us, at_threshold) == pytest.approx(0.25)
        assert policy.observe(decision, at_threshold) is False  # <=, not <
        assert policy.observe(decision, at_threshold * 1.10) is True


class TestValidationOnDegradedRuns:
    def _plan(self) -> FaultPlan:
        # every out-link of node 0 pays 2x latency and 2x per-byte time
        cube_links = [Link(0, 1), Link(0, 2), Link(0, 4), Link(1, 0), Link(2, 0), Link(4, 0)]
        return FaultPlan(
            3,
            degradations=tuple(
                LinkDegradation(link, latency_scale=2.0, bandwidth_scale=2.0)
                for link in cube_links
            ),
        )

    def test_degraded_replay_shows_drift(self, ipsc):
        """The same decisions that validate at ~0 error on the clean
        event engine show real positive drift once the machine is
        degraded — and the clean prediction is an underestimate."""
        kwargs = dict(
            params=ipsc, apps=["transpose"], engine="event",
            pattern_configs=(), traffic_configs=(),
        )
        clean = validate_policy(FixedPolicy(params=ipsc), **kwargs)
        degraded = validate_policy(
            FixedPolicy(params=ipsc), fault_plan=self._plan(), **kwargs
        )
        assert degraded.rows and len(degraded.rows) == len(clean.rows)
        for before, after in zip(clean.rows, degraded.rows):
            assert after.rel_error is not None
            assert after.rel_error > before.rel_error
            assert after.simulated_us > after.predicted_us  # slower, never faster

    def test_drift_rows_classify_against_the_policy_threshold(self, ipsc):
        """Validation rows and AdaptivePolicy agree on which degraded
        observations warrant a re-plan."""
        report = validate_policy(
            FixedPolicy(params=ipsc), params=ipsc, apps=["transpose"],
            engine="event", pattern_configs=(), traffic_configs=(),
            fault_plan=self._plan(),
        )
        threshold = 0.01  # tight enough that the 2x-degraded rows all trip it
        policy = AdaptivePolicy(ipsc, threshold=threshold)
        for row in report.rows:
            assert (row.rel_error > threshold) == (
                rel_drift(row.predicted_us, row.simulated_us) > threshold
            )
            assert row.rel_error > threshold  # and they do trip it

    def test_fault_plan_requires_event_engine(self, ipsc):
        with pytest.raises(ValueError, match="engine='event'"):
            validate_policy(params=ipsc, engine="fast", fault_plan=self._plan())

    def test_fault_plan_reaches_the_pattern_grid(self, ipsc):
        """Pattern replays take the degraded machine too."""
        kwargs = dict(
            params=ipsc, apps=[], engine="event", pattern_configs=((3, 16.0),), traffic_configs=(),
        )
        clean = validate_policy(**kwargs)
        degraded = validate_policy(fault_plan=self._plan(), **kwargs)
        assert len(degraded.rows) == len(clean.rows) == 3
        for before, after in zip(clean.rows, degraded.rows):
            assert after.simulated_us > before.simulated_us

    def test_empty_plan_is_the_clean_path(self, ipsc):
        """An empty FaultPlan must change nothing — bit-identical rows
        to running with no plan at all."""
        kwargs = dict(
            params=ipsc, apps=["transpose"], engine="event",
            pattern_configs=(), traffic_configs=(),
        )
        bare = validate_policy(FixedPolicy(params=ipsc), **kwargs)
        empty = validate_policy(
            FixedPolicy(params=ipsc), fault_plan=FaultPlan(3), **kwargs
        )
        assert [r.simulated_us for r in empty.rows] == [
            r.simulated_us for r in bare.rows
        ]


class TestRunDegradedWorkload:
    def test_naive_policy_runs_the_rotation(self, ipsc):
        result = run_degraded_workload(3, 8, FixedPolicy(naive=True), ipsc, n_steps=2)
        assert result.partitions == [(), ()]
        assert result.step_times_us[0] == naive_exchange_time(3, 8, ipsc)

    @pytest.mark.parametrize("m", [2.5, 7.9, True, -1])
    def test_a_block_size_that_is_not_an_int_is_refused(self, ipsc, m):
        """A fractional m is refused, not truncated to the int below."""
        with pytest.raises(ValueError, match=f"m={m!r}"):
            run_degraded_workload(3, m, FixedPolicy(params=ipsc), ipsc, n_steps=1)
        with pytest.raises(ValueError, match=f"m={m!r}"):
            chaos_sweep(3, m)

    def test_step_count_validated(self, ipsc):
        with pytest.raises(ValueError, match="n_steps"):
            run_degraded_workload(3, 8, FixedPolicy(params=ipsc), ipsc, n_steps=0)

    def test_straggler_slows_the_whole_exchange(self, ipsc):
        """One 3x straggler gates the synchronized schedule: the
        degraded workload is strictly slower than the clean one, and
        still byte-verified."""
        clean = run_degraded_workload(
            3, 8, FixedPolicy((2, 1), params=ipsc), ipsc, n_steps=2
        )
        slow = run_degraded_workload(
            3, 8, FixedPolicy((2, 1), params=ipsc), ipsc, n_steps=2,
            fault_plan=FaultPlan(3, stragglers=(Straggler(5, compute_scale=3.0),)),
        )
        assert slow.completion_us > clean.completion_us
        assert slow.n_drops == 0
        assert slow.partitions == [(2, 1), (2, 1)]
        assert slow.n_switches == 0


class TestChaosSweep:
    @pytest.fixture(scope="class")
    def sweep(self, request):
        """One shared small sweep (d=3 grid with a fault-free control,
        a failure-only cell, and a straggler+failure cell)."""
        return chaos_sweep(
            3, 8, n_steps=4, seed=7,
            failure_rates=(0.0, 0.3), straggler_scales=(1.0, 8.0),
            policies=("fixed", "adaptive"),
        )

    def test_same_seed_reproduces_identical_json(self, sweep):
        again = chaos_sweep(
            3, 8, n_steps=4, seed=7,
            failure_rates=(0.0, 0.3), straggler_scales=(1.0, 8.0),
            policies=("fixed", "adaptive"),
        )
        assert json.dumps(sweep.as_dict(), sort_keys=True) == json.dumps(
            again.as_dict(), sort_keys=True
        )

    def test_different_seed_differs(self, sweep):
        other = chaos_sweep(
            3, 8, n_steps=4, seed=8,
            failure_rates=(0.0, 0.3), straggler_scales=(1.0, 8.0),
            policies=("fixed", "adaptive"),
        )
        assert json.dumps(sweep.as_dict()) != json.dumps(other.as_dict())

    def test_every_transient_failure_survived(self, sweep):
        """Faulty cells retried (the outages really landed) and NO cell
        anywhere dropped a block — completion times are for complete,
        byte-verified exchanges only."""
        assert all(c.n_drops == 0 for c in sweep.cells)
        faulty = [c for c in sweep.cells if c.failure_rate > 0]
        assert faulty
        assert any(c.n_retries > 0 for c in faulty)
        fault_free = [c for c in sweep.cells if c.failure_rate == 0]
        assert all(c.n_retries == 0 for c in fault_free)

    def test_adaptive_beats_fixed_on_straggler_cell(self, sweep):
        """The headline guarantee: on the straggler+failure cell the
        drift-triggered re-plan pays off."""
        fixed = sweep.cell(0.3, 8.0, "fixed")
        adaptive = sweep.cell(0.3, 8.0, "adaptive")
        assert adaptive.completion_us < fixed.completion_us
        assert adaptive.n_replans > 0
        assert adaptive.n_switches > 0
        assert fixed.n_switches == 0

    def test_adaptive_within_tolerance_on_fault_free_cell(self, sweep):
        """...and on the fault-free control it never gives that win
        back: same plan, no drift, within the documented tolerance."""
        fixed = sweep.cell(0.0, 1.0, "fixed")
        adaptive = sweep.cell(0.0, 1.0, "adaptive")
        assert adaptive.completion_us <= fixed.completion_us * (
            1 + FAULT_FREE_TOLERANCE
        )
        assert adaptive.n_replans == 0

    def test_identical_machine_per_cell(self, sweep):
        """Policies race on the same machine: the fixed policy's
        partitions never vary, so any completion gap is the plan."""
        for cell in sweep.cells:
            if cell.policy == "fixed":
                assert len(set(cell.partitions)) == 1

    def test_cell_lookup(self, sweep):
        assert sweep.cell(0.0, 1.0, "fixed").policy == "fixed"
        with pytest.raises(KeyError, match="no cell"):
            sweep.cell(0.9, 1.0, "fixed")

    def test_render_mentions_the_guarantees(self, sweep):
        text = sweep.render()
        assert "byte-verified" in text
        assert "drift threshold" in text
        assert f"{len(sweep.cells)} cells" in text

    def test_as_dict_round_trips_through_json(self, sweep):
        blob = json.loads(json.dumps(sweep.as_dict()))
        assert blob["d"] == 3 and blob["seed"] == 7
        assert blob["fault_free_tolerance"] == FAULT_FREE_TOLERANCE
        assert len(blob["cells"]) == len(sweep.cells)
        assert isinstance(ChaosReport(**{
            k: blob[k] for k in ("d", "m", "n_steps", "seed", "threshold")
        } | {"params_name": blob["params"],
             "clean_partition": tuple(blob["clean_partition"])}), ChaosReport)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep policy"):
            chaos_sweep(3, 8, policies=("oracle",))

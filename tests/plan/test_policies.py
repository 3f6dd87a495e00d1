"""Tests for the planning policies: fixed, model, service, adaptive."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.cost import multiphase_time
from repro.model.params import PRESETS
from repro.plan import (
    AdaptivePolicy,
    ContentionPolicy,
    FixedPolicy,
    ModelPolicy,
    ServicePolicy,
    TrafficPolicy,
    algorithm_name,
    make_policy,
)
from repro.service import OptimizerRegistry

#: block sizes off every table switch point (odd values, nothing within
#: 1e-3 of a located boundary) so stored-table answers must equal the
#: inline argmin bit for bit
AGREEMENT_MS = (0.5, 7.0, 23.0, 41.0, 97.0, 211.0, 399.0)


class TestAlgorithmName:
    def test_families(self):
        assert algorithm_name((1, 1, 1, 1)) == "standard"
        assert algorithm_name((6,)) == "single-phase"
        assert algorithm_name((3, 2, 1)) == "multiphase"
        assert algorithm_name(None) == "naive"

    def test_empty_partition_rejected(self):
        with pytest.raises(ValueError, match="empty partition"):
            algorithm_name(())


class TestFixedPolicy:
    def test_default_is_single_phase(self):
        decision = FixedPolicy().decide(5, 40.0)
        assert decision.partition == (5,)
        assert decision.algorithm == "single-phase"
        assert decision.predicted_us is None  # no params, no prediction

    def test_partition_is_priced_with_params(self, ipsc):
        decision = FixedPolicy((3, 2), params=ipsc).decide(5, 40.0)
        assert decision.predicted_us == multiphase_time(40.0, 5, (3, 2), ipsc)

    def test_naive(self):
        decision = FixedPolicy(naive=True).decide(4, 16.0)
        assert decision.algorithm == "naive"
        assert decision.partition is None
        assert decision.predicted_us is None

    def test_naive_with_partition_rejected(self):
        with pytest.raises(ValueError, match="naive baseline has no partition"):
            FixedPolicy((2, 2), naive=True)

    def test_partition_must_match_dimension(self):
        with pytest.raises(ValueError):
            FixedPolicy((3, 2)).decide(4, 16.0)


class TestModelPolicy:
    def test_matches_optimizer(self, ipsc):
        decision = ModelPolicy(ipsc).decide(7, 40.0)
        assert decision.partition == (4, 3)
        assert decision.predicted_us == multiphase_time(40.0, 7, (4, 3), ipsc)
        assert decision.ranking is not None and decision.ranking[0][0] == (4, 3)

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(min_value=1, max_value=8),
        m=st.floats(min_value=0.0, max_value=400.0, allow_nan=False),
    )
    def test_never_predicted_slower_than_fixed_alternatives(self, d, m):
        """The planner's choice is never worse than either classic:
        Standard Exchange ((1,)*d) or single-phase OCS ((d,))."""
        params = PRESETS["ipsc860"]()
        decision = ModelPolicy(params).decide(d, m)
        assert decision.predicted_us <= multiphase_time(m, d, (1,) * d, params)
        assert decision.predicted_us <= multiphase_time(m, d, (d,), params)


class TestServicePolicy:
    def test_default_registry(self):
        decision = ServicePolicy(preset="ipsc860").decide(7, 40.0)
        assert decision.partition == (4, 3)
        assert decision.source == "service:grid"

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="unknown machine preset"):
            ServicePolicy(preset="cray")

    def test_memo_surfaces_in_source(self):
        policy = ServicePolicy(preset="ipsc860")
        policy.decide(6, 24.0)
        assert policy.decide(6, 24.0).source == "service:memo"

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    @pytest.mark.parametrize("d", range(2, 9))
    def test_agrees_bitwise_with_model_policy(self, preset, d):
        """Stored-table answers equal the inline model argmin exactly —
        same partition, bit-identical predicted time — across presets
        and the full dimension range."""
        params = PRESETS[preset]()
        model = ModelPolicy(params)
        service = ServicePolicy(OptimizerRegistry(), preset=preset)
        for m in AGREEMENT_MS:
            got_model = model.decide(d, m)
            got_service = service.decide(d, m)
            assert got_model.partition == got_service.partition, (preset, d, m)
            assert got_model.predicted_us == got_service.predicted_us, (preset, d, m)
            assert got_model.algorithm == got_service.algorithm


class TestContentionPolicy:
    def test_planned_wins_on_calibrated_machine(self, ipsc):
        """On the iPSC-860 the planned schedule always beats naive; the
        decision matches the model policy's and carries the priced
        baseline as the margin."""
        for d, m in ((4, 8.0), (5, 40.0), (7, 40.0)):
            decision = ContentionPolicy(ipsc).decide(d, m)
            model = ModelPolicy(ipsc).decide(d, m)
            assert decision.partition == model.partition
            assert decision.predicted_us == model.predicted_us
            assert decision.policy == "contention"
            assert decision.naive_us is not None
            assert decision.naive_us > decision.predicted_us

    def test_naive_price_matches_event_engine(self, ipsc):
        from repro.comm.program import simulate

        decision = ContentionPolicy(ipsc).decide(4, 16.0)
        event = simulate("alltoall", "rotation", 4, 16, ipsc)
        assert decision.naive_us == event.time_us

    def test_naive_selected_when_it_wins(self, ipsc):
        """A machine with a ruinously expensive pairwise-sync handshake
        makes every scheduled exchange pay λ₀ per step while the naive
        FORCED sends do not — naive genuinely wins, and the policy
        returns it *with* a simulator-backed prediction."""
        pathological = ipsc.with_overrides(
            latency=1.0, sync_latency=50_000.0, pairwise_sync=True,
            hop_time=0.0, byte_time=0.0, permute_time=0.0,
            global_sync_per_dim=0.0,
        )
        decision = ContentionPolicy(pathological).decide(4, 8.0)
        assert decision.algorithm == "naive"
        assert decision.partition is None
        assert decision.predicted_us == decision.naive_us
        assert decision.source == "fastpath"
        # the full planned ranking is still attached for the audit log
        assert decision.ranking
        assert decision.predicted_us < decision.ranking[0][1]

    def test_decision_validates_through_planner(self, ipsc):
        """Contention decisions replay cleanly in the validation path."""
        from repro.analysis.validation import validate_policy

        report = validate_policy(
            ContentionPolicy(ipsc), params=ipsc, apps=["transpose"]
        )
        assert report.rows
        assert report.max_rel_error < 0.01


class TestTrafficPolicy:
    def test_decision_carries_traffic_price(self, ipsc):
        from repro.core.traffic import (
            best_partition_for_traffic,
            hotspot_traffic,
        )
        from repro.sim.fastpath import exchange_time

        decision = TrafficPolicy(ipsc).decide(4, 16.0)
        partition, traffic_us = best_partition_for_traffic(
            hotspot_traffic(4, 16.0), ipsc
        )
        assert decision.partition == partition
        assert decision.traffic_us == traffic_us
        assert decision.predicted_us == exchange_time(4, 16.0, partition, ipsc)
        assert decision.source == "fastpath"

    def test_name_includes_skew(self, ipsc):
        assert TrafficPolicy(ipsc).name == "traffic:hot4"
        assert TrafficPolicy(ipsc, skew=2.5).name == "traffic:hot2.5"

    def test_decision_replays_through_validation(self, ipsc):
        from repro.analysis.validation import validate_policy

        report = validate_policy(
            TrafficPolicy(ipsc), params=ipsc, apps=["transpose"],
            pattern_configs=(), traffic_configs=(),
        )
        assert report.rows
        assert report.max_rel_error < 0.01


class TestAdaptivePolicy:
    def test_starts_at_model_optimum(self, ipsc):
        """With no drift observed, the adaptive policy IS the model
        policy: same partition, bit-identical prediction."""
        adaptive = AdaptivePolicy(ipsc).decide(7, 40.0)
        model = ModelPolicy(ipsc).decide(7, 40.0)
        assert adaptive.partition == model.partition == (4, 3)
        assert adaptive.predicted_us == model.predicted_us

    def test_drift_below_threshold_is_ignored(self, ipsc):
        policy = AdaptivePolicy(ipsc, threshold=0.25)
        decision = policy.decide(7, 40.0)
        assert policy.observe(decision, decision.predicted_us * 1.2) is False
        assert policy.slowdown == 1.0
        assert policy.replans == 0
        assert policy.decide(7, 40.0).partition == (4, 3)

    def test_drift_past_threshold_replans_toward_single_phase(self, ipsc):
        """A 4x-slow machine taxes byte volume and shuffles; the
        recalibrated argmin slides to the no-shuffle (d,) schedule."""
        policy = AdaptivePolicy(ipsc, threshold=0.25)
        decision = policy.decide(7, 40.0)
        assert policy.observe(decision, decision.predicted_us * 4.0) is True
        assert policy.slowdown == pytest.approx(4.0)
        assert policy.replans == 1
        assert policy.decide(7, 40.0).partition == (7,)

    def test_calibration_recovers_when_machine_heals(self, ipsc):
        """Observed times back at the clean prediction pull the
        slowdown back down (ratio-absorbing, not ratcheting)."""
        policy = AdaptivePolicy(ipsc, threshold=0.25)
        first = policy.decide(7, 40.0)
        policy.observe(first, first.predicted_us * 4.0)
        clean_time = first.predicted_us
        healed = policy.decide(7, 40.0)
        policy.observe(healed, clean_time)
        assert policy.slowdown < 4.0
        assert policy.replans == 2

    def test_slowdown_floor(self, ipsc):
        """Absurdly fast observations clamp at MIN_SLOWDOWN instead of
        making every candidate free."""
        policy = AdaptivePolicy(ipsc, threshold=0.25)
        decision = policy.decide(7, 40.0)
        policy.observe(decision, decision.predicted_us * 1e-9)
        assert policy.slowdown == AdaptivePolicy.MIN_SLOWDOWN

    def test_unpredicted_decision_never_triggers(self, ipsc):
        """A naive decision carries no prediction — nothing to drift
        from, so observe is a no-op."""
        policy = AdaptivePolicy(ipsc)
        naive = FixedPolicy(naive=True).decide(4, 16.0)
        assert naive.predicted_us is None
        assert policy.observe(naive, 1e9) is False
        assert policy.replans == 0

    def test_threshold_must_be_positive(self, ipsc):
        with pytest.raises(ValueError, match="threshold"):
            AdaptivePolicy(ipsc, threshold=0.0)

    def test_fault_plan_prices_with_degraded_model(self, ipsc):
        from repro.core.partitions import cached_partitions
        from repro.model.cost import degraded_multiphase_time
        from repro.hypercube.topology import Link
        from repro.sim.faults import FaultPlan, LinkDegradation

        plan = FaultPlan(
            3, degradations=(
                LinkDegradation(Link(0, 1), latency_scale=2.0, bandwidth_scale=3.0),
            ),
        )
        decision = AdaptivePolicy(ipsc, fault_plan=plan).decide(3, 16.0)
        assert decision.source == "degraded-model"
        expected = min(
            (degraded_multiphase_time(16.0, 3, p, ipsc, plan), p)
            for p in cached_partitions(3)
        )
        assert (decision.predicted_us, decision.partition) == expected


class TestMakePolicy:
    def test_names(self, ipsc):
        assert make_policy("fixed", ipsc).name == "fixed"
        assert make_policy("model", ipsc).name == "model"
        assert make_policy("service", ipsc).name == "service:ipsc860"
        assert make_policy("contention", ipsc).name == "contention"
        assert make_policy("adaptive", ipsc).name == "adaptive"

    def test_fixed_options_pass_through(self, ipsc):
        assert make_policy("fixed", ipsc, naive=True).name == "fixed:naive"
        policy = make_policy("fixed", ipsc, partition=(2, 2))
        assert policy.decide(4, 8.0).partition == (2, 2)

    def test_unknown_rejected(self, ipsc):
        with pytest.raises(ValueError, match="unknown policy"):
            make_policy("oracle", ipsc)

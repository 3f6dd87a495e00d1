"""Tests for the planner validation report (predicted vs simulated)."""

from __future__ import annotations

import pytest

from repro.analysis.validation import (
    APP_WORKLOADS,
    DEFAULT_PATTERN_CONFIGS,
    DEFAULT_TRAFFIC_CONFIGS,
    validate_policy,
)
from repro.plan import FixedPolicy, ModelPolicy, ServicePolicy
from repro.plan.patterns import PATTERNS


class TestValidatePolicy:
    def test_default_policy_runs_all_apps(self, ipsc):
        report = validate_policy(params=ipsc)
        assert report.verified_apps == list(APP_WORKLOADS)
        assert report.policy == "fixed"
        assert len(report.rows) >= len(APP_WORKLOADS)

    def test_model_policy_agrees_with_simulation(self, ipsc):
        report = validate_policy(ModelPolicy(ipsc), params=ipsc)
        assert report.rows, "expected at least one decision per app"
        for row in report.rows:
            assert row.predicted_us is not None
            assert row.rel_error is not None
            # contention-free schedules: the simulator *is* the model
            assert row.rel_error < 0.01, row
        assert report.max_rel_error < 0.01

    def test_service_policy_matches_model_policy_rows(self, ipsc):
        model = validate_policy(ModelPolicy(ipsc), params=ipsc)
        service = validate_policy(ServicePolicy(preset="ipsc860"), params=ipsc)
        got_model = [(r.app, r.d, r.m, r.partition, r.predicted_us) for r in model.rows]
        got_service = [(r.app, r.d, r.m, r.partition, r.predicted_us) for r in service.rows]
        assert got_model == got_service

    def test_decisions_recorded_in_simulator_traces(self, ipsc):
        report = validate_policy(ModelPolicy(ipsc), params=ipsc)
        # every exchange replay leaves one plan record in its trace;
        # pattern rows are priced closed-form and leave none
        replayed = [r for r in report.rows if not r.app.startswith("pattern:")]
        assert report.n_trace_decisions == len(replayed)
        assert report.n_trace_decisions < len(report.rows)

    def test_naive_policy_rows_have_no_prediction(self, ipsc):
        report = validate_policy(
            FixedPolicy(naive=True), params=ipsc, apps=["transpose"],
            pattern_configs=(), traffic_configs=(),
        )
        assert report.verified_apps == ["transpose"]
        assert report.rows
        for row in report.rows:
            assert row.algorithm == "naive"
            assert row.predicted_us is None and row.rel_error is None
            assert row.simulated_us > 0
        assert report.max_rel_error == 0.0

    def test_subset_and_unknown_app(self, ipsc):
        report = validate_policy(params=ipsc, apps=["adi"])
        assert report.verified_apps == ["adi"]
        with pytest.raises(ValueError, match="unknown app"):
            validate_policy(params=ipsc, apps=["raytracer"])

    def test_render_mentions_every_app_and_errors(self, ipsc):
        report = validate_policy(ModelPolicy(ipsc), params=ipsc)
        text = report.render()
        for app in APP_WORKLOADS:
            assert app in text
        assert "payload-checked" in text
        assert "max rel. error" in text
        assert "plan records in traces" in text
        assert "[fast engine]" in text
        assert "event-engine boots: 0" in text


class TestPatternAndTrafficRows:
    """The report covers the other two planner decision surfaces: §9
    pattern selections and non-uniform traffic partition choices."""

    def test_pattern_rows_present_by_default(self, ipsc):
        report = validate_policy(ModelPolicy(ipsc), params=ipsc)
        pattern_rows = [r for r in report.rows if r.app.startswith("pattern:")]
        assert len(pattern_rows) == len(DEFAULT_PATTERN_CONFIGS) * len(PATTERNS)
        for row in pattern_rows:
            assert row.rel_error == 0.0, row
            assert row.predicted_us == row.simulated_us

    def test_traffic_rows_present_by_default(self, ipsc):
        report = validate_policy(ModelPolicy(ipsc), params=ipsc)
        traffic_rows = [r for r in report.rows if r.app.startswith("traffic:")]
        assert len(traffic_rows) == len(DEFAULT_TRAFFIC_CONFIGS)
        for row in traffic_rows:
            assert row.partition is not None
            assert row.rel_error == 0.0, row

    def test_configs_can_be_disabled(self, ipsc):
        report = validate_policy(
            ModelPolicy(ipsc), params=ipsc,
            pattern_configs=(), traffic_configs=(),
        )
        assert all(
            not r.app.startswith(("pattern:", "traffic:")) for r in report.rows
        )
        assert report.n_trace_decisions == len(report.rows)

    def test_custom_pattern_grid(self, ipsc):
        report = validate_policy(
            ModelPolicy(ipsc), params=ipsc, apps=[],
            pattern_configs=[(5, 24.0)], traffic_configs=(),
        )
        assert len(report.rows) == len(PATTERNS)
        assert {r.d for r in report.rows} == {5}

    def test_fast_path_boots_zero_event_engines(self, ipsc):
        report = validate_policy(ModelPolicy(ipsc), params=ipsc)
        assert report.engine == "fast"
        assert report.engine_boots == 0

    def test_event_engine_boots_are_counted(self, ipsc):
        report = validate_policy(
            ModelPolicy(ipsc), params=ipsc, apps=["transpose"], engine="event"
        )
        assert report.engine_boots >= len(report.rows)


class TestReplayEngines:
    """The fast path is the default replay engine; the event engine
    stays available (and agreeing) behind ``engine="event"``."""

    def test_default_engine_is_fast(self, ipsc):
        report = validate_policy(ModelPolicy(ipsc), params=ipsc, apps=["transpose"])
        assert report.engine == "fast"

    def test_fast_rows_equal_event_rows(self, ipsc):
        """Same decisions, float-identical simulated times (the
        contention-free agreement guarantee end to end) — including the
        pattern and traffic rows."""
        fast = validate_policy(ModelPolicy(ipsc), params=ipsc)
        event = validate_policy(ModelPolicy(ipsc), params=ipsc, engine="event")
        assert [r.simulated_us for r in fast.rows] == [
            r.simulated_us for r in event.rows
        ]
        assert [(r.app, r.d, r.m, r.partition) for r in fast.rows] == [
            (r.app, r.d, r.m, r.partition) for r in event.rows
        ]
        assert event.engine == "event"
        assert "[event engine]" in event.render()
        assert event.engine_boots > 0

    def test_naive_rows_agree_across_engines(self, ipsc):
        """The contended baseline replays identically: the fast path's
        reservation replay mirrors the event engine's serialization."""
        fast = validate_policy(
            FixedPolicy(naive=True), params=ipsc, apps=["transpose"]
        )
        event = validate_policy(
            FixedPolicy(naive=True), params=ipsc, apps=["transpose"], engine="event"
        )
        assert [r.simulated_us for r in fast.rows] == [
            r.simulated_us for r in event.rows
        ]

    def test_trace_decisions_counted_in_fast_mode(self, ipsc):
        report = validate_policy(
            ModelPolicy(ipsc), params=ipsc, apps=["fft2d"],
            pattern_configs=(), traffic_configs=(),
        )
        assert report.n_trace_decisions == len(report.rows)

    @pytest.mark.parametrize("grids", [
        {"pattern_configs": [(3, 2.5)], "traffic_configs": ()},
        {"pattern_configs": (), "traffic_configs": [(3, 16.5, 4.0)]},
    ], ids=["pattern", "traffic"])
    def test_event_engine_refuses_fractional_m(self, ipsc, grids):
        """The event engine moves whole bytes: a fractional ``m`` would
        replay at ``int(m)`` while its row reports ``m``, so it is
        refused before any engine boots."""
        from repro.sim.engine import Engine

        boots = Engine.boot_count
        with pytest.raises(ValueError, match=r"m=(2\.5|16\.5)"):
            validate_policy(params=ipsc, apps=[], engine="event", **grids)
        assert Engine.boot_count == boots

    def test_event_engine_runs_integral_float_m(self, ipsc):
        report = validate_policy(
            params=ipsc, apps=[], engine="event",
            pattern_configs=[(3, 16.0)], traffic_configs=(),
        )
        fast = validate_policy(
            params=ipsc, apps=[], pattern_configs=[(3, 16.0)], traffic_configs=(),
        )
        assert report.engine_boots > 0
        assert [r.simulated_us for r in report.rows] == [r.simulated_us for r in fast.rows]

    def test_fast_path_keeps_fractional_m(self, ipsc):
        report = validate_policy(
            params=ipsc, apps=[], pattern_configs=[(3, 2.5)], traffic_configs=(),
        )
        assert {r.m for r in report.rows} == {2.5}

    def test_unknown_engine_rejected(self, ipsc):
        with pytest.raises(ValueError, match="unknown engine"):
            validate_policy(params=ipsc, engine="warp")

"""Tests for the sensitivity/ablation studies."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.params import PRESETS
from repro.model.sensitivity import (
    free_permutation_study,
    hull_under,
    latency_sweep,
    sync_overhead_study,
)
from tests.model.envelope_oracle import close_to_crossing, crossing, exact_envelope, exact_line


class TestFreePermutation:
    @pytest.mark.parametrize("d", [5, 6, 7])
    def test_multiphase_survives_free_shuffles(self, d):
        base, free = free_permutation_study(d)
        # multiphase partitions still populate the small-block end
        assert len(free.hull[0]) > 1
        # and the single-phase takeover point moves right (or stays)
        assert free.single_phase_threshold >= base.single_phase_threshold

    def test_paper_robustness_claim_d7(self):
        """'valid even if the cost of permutation is zero': at the
        Figure 6 headline point the multiphase partition still wins."""
        from repro.model.optimizer import best_partition
        from repro.model.params import ipsc860

        free = ipsc860().with_overrides(permute_time=0.0)
        assert len(best_partition(40.0, 7, free).partition) > 1


class TestSyncOverheads:
    @pytest.mark.parametrize("d", [5, 6])
    def test_removing_sync_restores_standard_exchange(self, d):
        base, nosync = sync_overhead_study(d)
        # with sync overheads, SE never appears on the iPSC hull
        assert (1,) * d not in base.hull
        # without them, SE owns the smallest blocks (the §4.3 regime)
        assert nosync.hull[0] == (1,) * d

    def test_sync_free_machine_equals_paper_43_structure(self):
        _, nosync = sync_overhead_study(6)
        # the hull must still end with the single-phase algorithm
        assert nosync.hull[-1] == (6,)


class TestLatencySweep:
    def test_crossover_monotone_in_latency(self):
        sweep = latency_sweep(6)
        values = [c for _, c in sweep]
        assert values == sorted(values)
        assert all(c > 0 for c in values)

    def test_paper_point_in_sweep(self):
        """At the measured λ = 95 µs the crossover is in the tens of
        bytes — consistent with Figures 4-6."""
        sweep = dict(latency_sweep(6))
        assert 0 < sweep[95.0] < 200


def assert_exact_hull(shift, d, m_max):
    """A study's hull against the brute-force envelope oracle."""
    segments, switches = exact_envelope(d, shift.params, m_max)
    assert shift.hull == hull_partitions(segments)
    assert len(shift.boundaries) == len(switches)
    for i, got in enumerate(shift.boundaries):
        assert close_to_crossing(got, d, *segments[i:i + 2], shift.params)


def hull_partitions(segments):
    return tuple(p for i, p in enumerate(segments) if i == 0 or segments[i - 1] != p)


class TestAgainstTheOracle:
    """Every study's hulls are the exact line envelope of their
    calibration, and every crossover the exact SE/OCS intersection,
    across every preset and d in {2..8}."""

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    @pytest.mark.parametrize("d", range(2, 9))
    def test_free_permutation(self, d, preset):
        for shift in free_permutation_study(d, m_max=60.0, base=PRESETS[preset]()):
            assert_exact_hull(shift, d, 60.0)

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    @pytest.mark.parametrize("d", range(2, 9))
    def test_sync_overheads(self, d, preset):
        for shift in sync_overhead_study(d, m_max=60.0, base=PRESETS[preset]()):
            assert_exact_hull(shift, d, 60.0)

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    @pytest.mark.parametrize("d", range(2, 9))
    def test_latency_sweep(self, d, preset):
        base = PRESETS[preset]()
        latencies = (10.0, 95.0, 400.0)
        try:
            sweep = latency_sweep(d, latencies, base=base)
        except ValueError:
            sweep = None
        crossings = []
        for lam in latencies:
            params = base.with_overrides(latency=lam)
            exact = crossing(exact_line(d, (1,) * d, params), exact_line(d, (d,), params))
            crossings.append(exact if exact is not None and 0 <= exact <= 4096 else None)
        if sweep is None:
            assert None in crossings
            return
        for (lam, got), exact in zip(sweep, crossings):
            params = base.with_overrides(latency=lam)
            assert close_to_crossing(got, d, (1,) * d, (d,), params), (lam, got, exact)

    @settings(deadline=None, max_examples=25)
    @given(
        d=st.integers(min_value=2, max_value=8),
        preset=st.sampled_from(sorted(PRESETS)),
        latency=st.floats(min_value=0.0, max_value=500.0),
        permute=st.floats(min_value=0.0, max_value=3.0),
    )
    def test_hull_under_property(self, d, preset, latency, permute):
        """Arbitrary calibration variations: the hull is the exact
        envelope, switch points included."""
        params = PRESETS[preset]().with_overrides(latency=latency, permute_time=permute)
        assert_exact_hull(hull_under("varied", params, d, m_max=30.0), d, 30.0)

    @settings(deadline=None, max_examples=40)
    @given(
        d=st.integers(min_value=2, max_value=8),
        preset=st.sampled_from(sorted(PRESETS)),
        lats=st.lists(
            st.floats(min_value=0.5, max_value=600.0), min_size=1, max_size=4
        ),
    )
    def test_latency_sweep_property(self, d, preset, lats):
        """Random latency ladders: each crossover is the exact SE/OCS
        intersection up to rounding, and the sweep raises exactly when
        one exact crossing falls outside [0, 4096]."""
        base = PRESETS[preset]()
        latencies = tuple(sorted(set(lats)))
        exact = [
            crossing(exact_line(d, (1,) * d, p), exact_line(d, (d,), p))
            for p in (base.with_overrides(latency=lam) for lam in latencies)
        ]
        if any(x is None or not 0 <= x <= 4096 for x in exact):
            with pytest.raises(ValueError):
                latency_sweep(d, latencies, base=base)
            return
        sweep = latency_sweep(d, latencies, base=base)
        assert [lam for lam, _ in sweep] == list(latencies)
        for lam, got in sweep:
            params = base.with_overrides(latency=lam)
            assert close_to_crossing(got, d, (1,) * d, (d,), params), (lam, got)


class TestHullUnder:
    def test_label_carried(self, ipsc):
        shift = hull_under("base", ipsc, 5)
        assert shift.label == "base"
        assert shift.hull == ((3, 2), (5,))

    def test_single_phase_threshold(self, ipsc):
        shift = hull_under("base", ipsc, 5)
        assert shift.single_phase_threshold == pytest.approx(100.3, abs=1.0)

    def test_threshold_infinite_when_single_phase_never_wins(self, ipsc):
        # make startups free: many-phase partitions win everywhere
        cheap = ipsc.with_overrides(latency=0.0, sync_latency=0.0)
        shift = hull_under("free startup", cheap, 5, m_max=100.0)
        if len(shift.hull[-1]) > 1:
            assert shift.single_phase_threshold == float("inf")
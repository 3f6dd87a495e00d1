"""Tests for the SE/OCS crossover analysis (paper §4.3)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.partitions import cached_partitions
from repro.model.crossover import crossover_block_size, empirical_crossover, standard_wins
from repro.model.cost import optimal_time, standard_time
from repro.model.params import PRESETS, ipsc860
from tests.model.envelope_oracle import close_to_crossing, crossing, exact_line, order_flips_at


class TestClosedForm:
    def test_paper_value(self, hypo):
        """'the Standard Exchange algorithm is better for blocks of
        size less than 30' (d=6, τ=ρ=1, λ=200, δ=20)."""
        m_star = crossover_block_size(6, hypo)
        assert 29.0 < m_star < 30.0

    def test_threshold_separates_regimes(self, hypo):
        m_star = crossover_block_size(6, hypo)
        assert standard_wins(m_star - 1.0, 6, hypo)
        assert not standard_wins(m_star + 1.0, 6, hypo)

    @given(st.integers(min_value=2, max_value=10))
    def test_equality_at_threshold(self, d):
        from repro.model.params import hypothetical

        h = hypothetical()
        m_star = crossover_block_size(d, h)
        assert standard_time(m_star, d, h) == pytest.approx(optimal_time(m_star, d, h))

    def test_rejects_d1(self, hypo):
        with pytest.raises(ValueError):
            crossover_block_size(1, hypo)

    def test_ipsc_crossover_positive(self, ipsc):
        """On the real machine's raw constants the crossover exists and
        sits in the tens of bytes."""
        for d in (5, 6, 7):
            m_star = crossover_block_size(d, ipsc)
            assert 0 < m_star < 400


class TestEmpirical:
    def test_matches_closed_form_without_overheads(self, hypo):
        analytic = crossover_block_size(6, hypo)
        numeric = empirical_crossover(6, hypo)
        assert numeric == pytest.approx(analytic, abs=1e-3)

    def test_full_model_crossover_on_ipsc(self, ipsc):
        """Including §7 overheads the SE/OCS switch still exists; the
        figures put it in the low hundreds of bytes at most."""
        for d in (5, 6, 7):
            m_star = empirical_crossover(d, ipsc)
            assert m_star is not None
            assert 0 < m_star < 400

    def test_custom_partitions(self, ipsc):
        """Crossover between {3,2} and {5} on d=5 is the Figure 4 hull
        boundary (~100 bytes)."""
        m_star = empirical_crossover(5, ipsc, partition_a=(3, 2), partition_b=(5,))
        assert m_star == pytest.approx(100.3, abs=1.0)

    def test_none_when_no_crossover(self, ipsc):
        # identical partitions never cross
        assert empirical_crossover(5, ipsc, partition_a=(3, 2), partition_b=(2, 3)) is None

    @settings(deadline=None)
    @given(st.integers(min_value=2, max_value=7))
    def test_crossover_separates_the_regimes(self, d):
        from repro.model.cost import multiphase_time
        from repro.model.params import ipsc860

        p = ipsc860()
        m_star = empirical_crossover(d, p)
        if m_star is None:
            return
        before = multiphase_time(max(m_star - 0.5, 0.0), d, (1,) * d, p) - multiphase_time(
            max(m_star - 0.5, 0.0), d, (d,), p
        )
        after = multiphase_time(m_star + 0.5, d, (1,) * d, p) - multiphase_time(
            m_star + 0.5, d, (d,), p
        )
        assert before <= 0 <= after or before >= 0 >= after


def check_crossover(d, pa, pb, params, m_max=4096.0):
    """``empirical_crossover`` against the exact oracle: ``None``
    exactly when the exact lines are parallel or meet outside ``[0,
    m_max]``; otherwise a float where the scalar model's order of the
    two flips, at the exact crossing up to float rounding."""
    got = empirical_crossover(d, params, partition_a=pa, partition_b=pb, m_max=m_max)
    a, b = exact_line(d, pa, params), exact_line(d, pb, params)
    exact = crossing(a, b)
    if exact is None or not 0 <= exact <= m_max:
        assert got is None, (d, pa, pb, got)
        return
    steep, flat = (pa, pb) if a[0] > b[0] else (pb, pa)
    assert got is not None, (d, pa, pb, float(exact))
    assert order_flips_at(d, steep, flat, params, got), (d, pa, pb, got)
    assert close_to_crossing(got, d, pa, pb, params), (d, pa, pb, got, float(exact))


class TestAgainstTheOracle:
    """One intersection of two lines, refined to the kernel's flip: an
    exact-arithmetic oracle checks every answer."""

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    @pytest.mark.parametrize("d", range(2, 9))
    def test_default_pair(self, d, preset):
        check_crossover(d, (1,) * d, (d,), PRESETS[preset]())

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_every_pair_of_a_6_cube(self, preset):
        pool = cached_partitions(6)
        for pa in pool:
            for pb in pool:
                check_crossover(6, pa, pb, PRESETS[preset](), m_max=400.0)

    def test_identical_and_reordered_pairs_are_none(self, ipsc):
        assert empirical_crossover(6, ipsc, partition_a=(3, 3), partition_b=(3, 3)) is None
        assert empirical_crossover(6, ipsc, partition_a=(4, 2), partition_b=(2, 4)) is None

    def test_outside_the_range_is_none(self, ipsc):
        m_star = empirical_crossover(6, ipsc)
        assert m_star is not None
        assert empirical_crossover(6, ipsc, m_max=m_star * 0.5) is None
        assert empirical_crossover(6, ipsc, m_max=2 * m_star) == m_star

    @settings(deadline=None, max_examples=60)
    @given(
        d=st.integers(min_value=2, max_value=10),
        latency=st.floats(min_value=0.0, max_value=1000.0),
        permute=st.floats(min_value=0.0, max_value=3.0),
        data=st.data(),
    )
    def test_random_pairs_and_calibrations(self, d, latency, permute, data):
        params = ipsc860().with_overrides(latency=latency, permute_time=permute)
        pool = sorted(cached_partitions(d))
        pa, pb = data.draw(st.sampled_from(pool)), data.draw(st.sampled_from(pool))
        check_crossover(d, pa, pb, params)

"""Exact fast-path/event-engine agreement for compiled programs.

The contract of the program compiler is not "close": every compiled
§9 pattern program and every vectorized traffic price must equal the
event engine's measured virtual time with ``==`` — same floats, no
tolerance.  This suite sweeps the deterministic presets across the
full dimension range of the paper's tables and then lets hypothesis
pick machine constants from an exactly-representable grid, so float
association cannot hide a modelling discrepancy.

Run explicitly in CI (see ``.github/workflows/ci.yml``).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.programs import pattern_program
from repro.model.params import MachineParams, hypothetical, ipsc860
from repro.patterns import simulate_pattern
from repro.sim.fastpath import program_time

#: every compiled pattern variant and the event-engine run that checks it
PATTERN_VARIANTS = (
    ("broadcast", "binomial"),
    ("broadcast", "direct"),
    ("scatter", "halving"),
    ("scatter", "direct"),
    ("allgather", "doubling"),
    ("allgather", "exchange"),
)

PRESETS = {"ipsc860": ipsc860, "hypothetical": hypothetical}


def _simulate_event(pattern: str, algorithm: str, d: int, m: int, params) -> float:
    return simulate_pattern(pattern, algorithm, d, m, params)[0]


class TestDeterministicSweep:
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    @pytest.mark.parametrize("pattern,algorithm", PATTERN_VARIANTS)
    @pytest.mark.parametrize("d", range(2, 9))
    def test_compiled_price_equals_event_engine(self, preset, pattern, algorithm, d):
        params = PRESETS[preset]()
        m = 16 if d <= 6 else 4  # keep the 128/256-node event runs cheap
        fast = program_time(pattern_program(pattern, algorithm, d), m, params)
        event = _simulate_event(pattern, algorithm, d, m, params)
        assert fast == event, (preset, pattern, algorithm, d, m)

    @pytest.mark.parametrize("pattern,algorithm", PATTERN_VARIANTS)
    def test_degenerate_shapes_agree(self, ipsc, pattern, algorithm):
        """d=1 (single link) and m=1 (single-byte blocks) still agree;
        the zero-byte price is well-defined and non-negative."""
        for d, m in ((1, 1), (2, 1), (3, 1)):
            fast = program_time(pattern_program(pattern, algorithm, d), m, ipsc)
            event = _simulate_event(pattern, algorithm, d, m, ipsc)
            assert fast == event, (pattern, algorithm, d, m)
        assert program_time(pattern_program(pattern, algorithm, 3), 0, ipsc) >= 0.0


#: machine constants drawn from a dyadic grid (multiples of 1/4 with
#: modest magnitude) — exactly representable, so sums associate freely
#: and `==` tests the model, not float rounding
_GRID = st.integers(min_value=0, max_value=400).map(lambda k: k / 4.0)


@st.composite
def grid_params(draw) -> MachineParams:
    return MachineParams(
        name="hypothesis",
        latency=draw(_GRID),
        byte_time=draw(_GRID),
        hop_time=draw(_GRID),
        permute_time=draw(_GRID),
        sync_latency=draw(_GRID),
        pairwise_sync=draw(st.booleans()),
        global_sync_per_dim=draw(_GRID),
    )


class TestRandomizedMachines:
    @settings(max_examples=25, deadline=None)
    @given(
        params=grid_params(),
        d=st.integers(min_value=1, max_value=4),
        m=st.integers(min_value=0, max_value=64),
        variant=st.sampled_from(PATTERN_VARIANTS),
    )
    def test_agreement_holds_off_the_presets(self, params, d, m, variant):
        pattern, algorithm = variant
        fast = program_time(pattern_program(pattern, algorithm, d), m, params)
        event = _simulate_event(pattern, algorithm, d, m, params)
        assert fast == event, (params, pattern, algorithm, d, m)

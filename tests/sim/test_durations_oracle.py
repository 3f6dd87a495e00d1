"""The fused pricing pass equals the per-kind oracle, float for float.

:meth:`repro.sim.fastpath.CompiledProgram.durations` and ``totals``
must give, compared with ``float.hex``, exactly what
:mod:`tests.sim.durations_oracle` gives: for every non-contended
``PATTERN_TABLE`` row at d 1..10 on every preset, for the exchange of
every composition at d 1..8, and on hypothesis-drawn machines, with
block sizes priced one at a time and as one batch.  Alternating
machines on one compiled program must not mix up their numbers, and
bad block sizes keep their error texts.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.partitions import compositions
from repro.core.programs import PATTERN_TABLE, pattern_program
from repro.model.params import PRESETS
from repro.sim.fastpath import compile_program, compile_schedule
from tests.sim.durations_oracle import oracle_durations, oracle_totals
from tests.sim.test_fastpath import params_strategy

MS = [0, 0.25, 1, 7.5, 40, 400, 4096, 1e6]
PRESET_PARAMS = [make() for make in PRESETS.values()]
LOCKSTEP_ROWS = sorted(key for key, row in PATTERN_TABLE.items() if row.schedule != "rotation")


def hexes(values: np.ndarray) -> tuple[tuple[int, ...], list[str]]:
    return values.shape, [float(x).hex() for x in values.ravel().tolist()]


def assert_matches_oracle(compiled, params) -> None:
    for m in MS:
        assert hexes(compiled.durations([m], params)) == hexes(
            oracle_durations(compiled, [m], params)
        ), m
        assert hexes(compiled.totals([m], params)) == hexes(
            oracle_totals(compiled, [m], params)
        ), m
    assert hexes(compiled.durations(MS, params)) == hexes(oracle_durations(compiled, MS, params))
    assert hexes(compiled.totals(MS, params)) == hexes(oracle_totals(compiled, MS, params))


def test_rows_cover_every_lockstep_algorithm():
    assert len(LOCKSTEP_ROWS) == len(PATTERN_TABLE) - 1 == 7


@pytest.mark.parametrize("params", PRESET_PARAMS, ids=lambda p: p.name)
@pytest.mark.parametrize("pattern, algorithm", LOCKSTEP_ROWS)
def test_pattern_rows_equal_oracle(pattern, algorithm, params):
    for d in range(1, 11):
        assert_matches_oracle(compile_program(pattern_program(pattern, algorithm, d)), params)


@pytest.mark.parametrize("d", range(1, 9))
def test_every_exchange_schedule_equals_oracle(d):
    for partition in compositions(d):
        for params in PRESET_PARAMS:
            assert_matches_oracle(compile_schedule(d, partition), params)


@settings(deadline=None, max_examples=40)
@given(
    params=params_strategy(),
    key=st.sampled_from(LOCKSTEP_ROWS),
    d=st.integers(min_value=1, max_value=6),
)
def test_drawn_machines_equal_oracle(params, key, d):
    assert_matches_oracle(compile_program(pattern_program(*key, d)), params)


def test_alternating_machines_keep_their_own_numbers():
    compiled = compile_schedule(6, (3, 2, 1))
    first, second = PRESET_PARAMS[:2]
    expected = {p.name: hexes(oracle_durations(compiled, MS, p)) for p in (first, second)}
    assert expected[first.name] != expected[second.name]
    for params in (first, second, first, first, second, first):
        assert hexes(compiled.durations(MS, params)) == expected[params.name]


@pytest.mark.parametrize("params", PRESET_PARAMS, ids=lambda p: p.name)
def test_negative_zero_block_size_keeps_its_signs(params):
    """``-0.0`` passes the block-size check; a shuffle row then costs
    ``-0.0`` in the oracle, which the fused pass's unused ``-0.0``
    terms keep (a ``+0.0`` term would turn it into ``0.0``)."""
    compiled = compile_schedule(4, (2, 2))
    durations = compiled.durations([-0.0], params)
    assert hexes(durations) == hexes(oracle_durations(compiled, [-0.0], params))
    assert "-0x0.0p+0" in hexes(durations)[1]


@pytest.mark.parametrize(
    "ms, message",
    [
        ([8, float("nan")], "block sizes must be finite and >= 0, got nan"),
        ([float("inf")], "block sizes must be finite and >= 0, got inf"),
        ([8, -1], "block sizes must be finite and >= 0, got -1.0"),
        ([[8, 16]], r"ms must be one-dimensional, got shape \(1, 2\)"),
    ],
)
def test_bad_block_sizes_keep_their_errors(ms, message):
    compiled = compile_schedule(4, (2, 2))
    params = PRESET_PARAMS[0]
    with pytest.raises(ValueError, match=f"^{message}$"):
        oracle_durations(compiled, ms, params)
    for price in (compiled.durations, compiled.totals):
        with pytest.raises(ValueError, match=f"^{message}$"):
            price(ms, params)

"""The exchange's rounds equal the step-list oracle, tags included.

:func:`repro.core.programs.exchange_rounds` and
:func:`repro.core.variants.ordered_rounds` must give, for every
composition of ``d`` (not just the canonical partitions) at d 1..8 and
every offset ordering, exactly the rounds of
:mod:`tests.core.exchange_oracle`'s step list.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.partitions import compositions
from repro.core.programs import PATTERN_TABLE, exchange_rounds, pattern_rounds
from repro.core.variants import ORDERINGS, ordered_rounds
from tests.core.exchange_oracle import oracle_rounds

CASES = [(d, partition) for d in range(1, 9) for partition in compositions(d)]


def test_cases_cover_every_composition():
    assert len(CASES) == sum(2 ** (d - 1) for d in range(1, 9)) == 255


@pytest.mark.parametrize("d", range(1, 9))
def test_exchange_rounds_equal_oracle(d):
    row = PATTERN_TABLE["alltoall", "multiphase"]
    for partition in compositions(d):
        expected = oracle_rounds(d, partition)
        assert exchange_rounds(d, partition) == expected, partition
        assert exchange_rounds(d, list(partition)) == expected, partition
        assert pattern_rounds(row, d, 0, partition=partition) == expected, partition


@pytest.mark.parametrize("ordering", ORDERINGS)
@pytest.mark.parametrize("d", range(1, 9))
def test_ordered_rounds_equal_oracle(d, ordering):
    for partition in compositions(d):
        assert ordered_rounds(d, partition, ordering) == oracle_rounds(
            d, partition, ordering
        ), partition


def test_index_ordering_is_the_builder():
    for d, partition in CASES:
        assert ordered_rounds(d, partition, "index") == exchange_rounds(d, partition)


class TestComparisonHasTeeth:
    """The round equality above sees a renumbered tag and masks swapped
    across phases."""

    def test_renumbered_tag_fails(self):
        rounds = list(exchange_rounds(5, (3, 2)))
        rounds[4] = dataclasses.replace(rounds[4], tag=rounds[4].tag + 1)
        assert tuple(rounds) != oracle_rounds(5, (3, 2))

    def test_masks_swapped_across_phases_fail(self):
        rounds = list(ordered_rounds(5, (3, 2), "gray"))
        first, last = rounds[0], rounds[-1]
        assert first.phase != last.phase
        rounds[0] = dataclasses.replace(first, mask=last.mask)
        rounds[-1] = dataclasses.replace(last, mask=first.mask)
        assert tuple(rounds) != oracle_rounds(5, (3, 2), "gray")

    def test_unknown_ordering_is_refused(self):
        with pytest.raises(ValueError, match="ordering"):
            ordered_rounds(3, (2, 1), "random")

"""The ``pattern_program`` memo: shared programs, unchanged contents.

``pattern_program`` memoizes on its normalized key ``(pattern,
algorithm, d, partition, root)``.  These tests pin that a memoized
program equals the hand-written oracle chain of
:mod:`tests.core.pattern_oracle`, that a repeat call hands back the
very same object, that list and tuple partitions share one entry, that
bad arguments raise on every call (so an error is never cached), and
that the memo stays within its bound.
"""

from __future__ import annotations

import pytest

from repro.core import programs
from repro.core.partitions import compositions
from repro.core.programs import pattern_program
from tests.core.pattern_oracle import (
    ROOTED_ORACLES,
    allgather_doubling_steps,
    allgather_exchange_steps,
    multiphase_exchange_steps,
)

MEMO = programs._pattern_program
BOUND = MEMO.cache_parameters()["maxsize"]

#: every root below 2**8; at larger cubes a spread of roots
ROOTS_CAP = 8


def roots(d: int) -> list[int]:
    n = 1 << d
    if d <= ROOTS_CAP:
        return list(range(n))
    return sorted({0, 1, n // 2, n - 2, n - 1})


def assert_memoized(program, expected, again):
    assert program == expected
    assert again is program
    assert MEMO.cache_info().currsize <= BOUND


@pytest.mark.parametrize("d", range(1, 11))
@pytest.mark.parametrize("pattern, algorithm", sorted(ROOTED_ORACLES))
def test_rooted_programs_match_their_builders(pattern, algorithm, d):
    oracle = ROOTED_ORACLES[(pattern, algorithm)]
    for root in roots(d):
        assert_memoized(
            pattern_program(pattern, algorithm, d, root=root),
            oracle(d, root),
            pattern_program(pattern, algorithm, d, root=root),
        )
    assert pattern_program(pattern, algorithm, d) is pattern_program(
        pattern, algorithm, d, root=0
    )


@pytest.mark.parametrize("d", range(1, 11))
def test_allgather_doubling_matches_its_builder(d):
    assert_memoized(
        pattern_program("allgather", "doubling", d),
        allgather_doubling_steps(d),
        pattern_program("allgather", "doubling", d),
    )


@pytest.mark.parametrize("d", range(1, 11))
def test_allgather_exchange_matches_its_builder(d):
    for parts in compositions(d):
        program = pattern_program("allgather", "exchange", d, partition=parts)
        assert_memoized(
            program,
            allgather_exchange_steps(d, parts),
            pattern_program("allgather", "exchange", d, partition=parts),
        )
        hits = MEMO.cache_info().hits
        assert pattern_program("allgather", "exchange", d, partition=list(parts)) is program
        assert MEMO.cache_info().hits == hits + 1
    # no partition means the single-phase schedule, under one entry
    assert pattern_program("allgather", "exchange", d) is pattern_program(
        "allgather", "exchange", d, partition=(d,)
    )


@pytest.mark.parametrize("d", range(1, 11))
def test_exchange_matches_its_builder(d):
    """The chain derived from the exchange's rounds is the paper's."""
    for parts in compositions(d):
        assert_memoized(
            pattern_program("alltoall", "multiphase", d, partition=parts),
            multiphase_exchange_steps(d, parts),
            pattern_program("alltoall", "multiphase", d, partition=list(parts)),
        )
    assert pattern_program("alltoall", "multiphase", d) is pattern_program(
        "alltoall", "multiphase", d, partition=(d,)
    )


def test_partition_order_is_kept():
    forward = pattern_program("allgather", "exchange", 5, partition=(3, 2))
    backward = pattern_program("allgather", "exchange", 5, partition=[2, 3])
    assert forward.partition == (3, 2)
    assert backward.partition == (2, 3)
    assert forward is not backward


BAD_ARGUMENTS = [
    (("reduce", "binomial", 3), {}, ValueError, "no program"),
    (("broadcast", "telepathy", 3), {}, ValueError, "no program"),
    (("allgather", "halving", 3), {}, ValueError, "no program"),
    (("broadcast", "binomial", 0), {}, ValueError, "dimension"),
    (("scatter", "direct", 3.0), {}, TypeError, "dimension"),
    (("broadcast", "direct", True), {}, TypeError, "dimension"),
    (("broadcast", "binomial", 3), {"partition": (3,)}, ValueError, "partition"),
    (("broadcast", "direct", 3), {"partition": [1, 2]}, ValueError, "partition"),
    (("scatter", "halving", 3), {"partition": (3,)}, ValueError, "partition"),
    (("scatter", "direct", 3), {"partition": (2, 1)}, ValueError, "partition"),
    (("allgather", "doubling", 3), {"partition": (3,)}, ValueError, "partition"),
    (("allgather", "doubling", 3), {"root": 1}, ValueError, "root"),
    (("allgather", "exchange", 3), {"root": 5}, ValueError, "root"),
    (("broadcast", "binomial", 3), {"root": 8}, ValueError, "node label"),
    (("scatter", "halving", 3), {"root": -1}, ValueError, "node label"),
    (("scatter", "direct", 3), {"root": True}, TypeError, "node label"),
    (("allgather", "exchange", 3), {"partition": (2, 2)}, ValueError, "sums to"),
    (("allgather", "exchange", 3), {"partition": (3, 0)}, ValueError, "positive"),
    (("allgather", "exchange", 3), {"partition": ()}, ValueError, "at least one"),
    (("alltoall", "multiphase", 3), {"root": 1}, ValueError, "root"),
    (("alltoall", "multiphase", 3), {"partition": (1, 1)}, ValueError, "sums to"),
]


@pytest.mark.parametrize("args, kwargs, error, match", BAD_ARGUMENTS)
def test_bad_arguments_raise_on_every_call(args, kwargs, error, match):
    before = MEMO.cache_info()
    for _ in range(3):
        with pytest.raises(error, match=match):
            pattern_program(*args, **kwargs)
    after = MEMO.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)


def test_memo_is_bounded_like_the_compile_cache():
    from repro.sim.fastpath import _compile_program

    assert BOUND == _compile_program.cache_parameters()["maxsize"] == 512

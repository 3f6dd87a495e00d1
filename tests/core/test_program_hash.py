"""``CommProgram``'s cached hash: computed once, never carried along.

The hash of a program is worked out on first use and kept on the
instance.  It must agree with equality across separate builds, copies
and pickle round trips, stay out of pickled state (a ``str`` hash
differs between processes), follow ``dataclasses.replace``, and leave
the dataclass surface (``repr``, ``fields``) as it was.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle

import pytest

from repro.core import programs
from repro.core.programs import BarrierStep, CommProgram, SendStep, pattern_program


def fresh(pattern: str, algorithm: str, d: int, **kwargs) -> CommProgram:
    """A program built anew, bypassing the ``pattern_program`` memo."""
    kwargs.setdefault("root", 0)
    kwargs.setdefault("partition", None)
    return programs._pattern_program.__wrapped__(pattern, algorithm, d, **kwargs)


CASES = [
    ("broadcast", "direct", 6, {}),
    ("scatter", "halving", 5, {"root": 3}),
    ("alltoall", "multiphase", 6, {"partition": (3, 2, 1)}),
    ("alltoall", "rotation", 4, {}),
]


@pytest.mark.parametrize("pattern, algorithm, d, kwargs", CASES)
def test_separate_builds_hash_and_compare_equal(pattern, algorithm, d, kwargs):
    first, second = fresh(pattern, algorithm, d, **kwargs), fresh(pattern, algorithm, d, **kwargs)
    assert first is not second
    assert first == second
    assert hash(first) == hash(second) == hash(first)
    assert pattern_program(pattern, algorithm, d, **kwargs) == first


@pytest.mark.parametrize("pattern, algorithm, d, kwargs", CASES)
@pytest.mark.parametrize(
    "clone",
    [copy.copy, copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_clones_equal_a_fresh_build(pattern, algorithm, d, kwargs, clone):
    program = fresh(pattern, algorithm, d, **kwargs)
    hash(program)
    cloned = clone(program)
    assert "_hash" not in vars(cloned)
    assert cloned == fresh(pattern, algorithm, d, **kwargs)
    assert hash(cloned) == hash(fresh(pattern, algorithm, d, **kwargs)) == hash(program)


def test_pickled_state_holds_no_cached_hash():
    program = fresh("broadcast", "binomial", 4)
    hash(program)
    assert "_hash" in vars(program)
    assert "_hash" not in program.__getstate__()
    assert b"_hash" not in pickle.dumps(program)


def test_replace_gets_a_fresh_hash():
    program = fresh("broadcast", "binomial", 3)
    hash(program)
    shorter = dataclasses.replace(program, steps=program.steps[:-1])
    assert "_hash" not in vars(shorter)
    rebuilt = CommProgram(name=program.name, d=program.d, steps=program.steps[:-1])
    assert shorter == rebuilt
    assert hash(shorter) == hash(rebuilt)


def test_dataclass_surface_unchanged():
    assert [f.name for f in dataclasses.fields(CommProgram)] == [
        "name", "d", "steps", "contended", "partition", "rounds",
    ]
    program = CommProgram("p", 1, (BarrierStep(), SendStep(src=0, dst=1, bytes_per_m=1)))
    hash(program)
    assert repr(program) == (
        "CommProgram(name='p', d=1, steps=(BarrierStep(), SendStep(src=0, dst=1, "
        "bytes_per_m=1)), contended=False, partition=None, rounds=())"
    )

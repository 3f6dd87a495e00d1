"""Edge cases shared across the pattern collectives."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.programs import PATTERN_TABLE
from repro.patterns import allgather, broadcast, scatter, simulate_pattern
from repro.plan import CollectivePlanner, ModelPolicy
from repro.util.bitops import popcount
from tests.core.test_program_memo import BAD_ARGUMENTS

#: every declared (pattern, algorithm)
VARIANTS = sorted(PATTERN_TABLE)


class TestDegenerateCube:
    """d = 0: a single node; every collective is a local no-op."""

    def test_broadcast_single_node(self):
        out = broadcast(np.array([5], dtype=np.uint8), root=0, d=0)
        assert len(out) == 1 and out[0][0] == 5

    def test_scatter_single_node(self):
        out = scatter(np.array([[1, 2]], dtype=np.uint8), root=0, d=0)
        assert np.array_equal(out[0], [1, 2])

    def test_allgather_single_node(self):
        out = allgather(np.array([[9]], dtype=np.uint8), 0)
        assert np.array_equal(out[0], [[9]])


class TestZeroByteMessages:
    """The paper measures down to m = 0; collectives must too."""

    @pytest.mark.parametrize("pattern, algorithm", VARIANTS)
    def test_empty_blocks_still_pay_startups(self, ipsc, pattern, algorithm):
        t, _ = simulate_pattern(pattern, algorithm, 3, 0, ipsc)
        assert t > 0


class TestTraceShape:
    def test_broadcast_message_count(self, ipsc):
        """A binomial broadcast uses exactly n - 1 messages."""
        _, run = simulate_pattern("broadcast", "binomial", 4, 8, ipsc)
        assert run.trace.n_transmissions == 15

    def test_scatter_message_count(self, ipsc):
        """Recursive halving also uses exactly n - 1 messages."""
        _, run = simulate_pattern("scatter", "halving", 4, 8, ipsc)
        assert run.trace.n_transmissions == 15

    @pytest.mark.parametrize("pattern", ["broadcast", "scatter"])
    def test_direct_variants_are_root_circuits_of_m_bytes(self, ipsc, pattern):
        """n - 1 transmissions, every one from the root carrying m bytes,
        in ascending destination order."""
        m, root = 8, 5
        _, run = simulate_pattern(pattern, "direct", 3, m, ipsc, root=root)
        records = run.trace.transmissions
        assert len(records) == 7
        assert {(r.src, r.nbytes) for r in records} == {(root, m)}
        assert [r.dst for r in records] == [x for x in range(8) if x != root]

    def test_allgather_exchange_count(self, ipsc):
        """d synchronized exchanges per node: d * n trace records
        (each exchange logs both directions)."""
        _, run = simulate_pattern("allgather", "doubling", 4, 8, ipsc)
        assert run.trace.n_transmissions == 4 * 16

    def test_allgather_volume_doubling(self, ipsc):
        """Per-step payloads follow m, 2m, 4m, ... per node."""
        m = 8
        _, run = simulate_pattern("allgather", "doubling", 3, m, ipsc)
        sizes = sorted({t.nbytes for t in run.trace.transmissions})
        assert sizes == [m, 2 * m, 4 * m]

    @pytest.mark.parametrize("pattern, algorithm", VARIANTS)
    def test_nonzero_root_moves_the_same_bytes(self, ipsc, pattern, algorithm):
        """At a non-zero root a rooted variant's trace is the root-0
        trace relabelled by ``x ^ root``; an unrooted variant's is
        unchanged."""
        d, m = 3, 8
        root = 6 if PATTERN_TABLE[(pattern, algorithm)].semantics.rooted else 0
        _, base = simulate_pattern(pattern, algorithm, d, m, ipsc)
        t, run = simulate_pattern(pattern, algorithm, d, m, ipsc, root=root)

        def shape(records, relabel):
            return sorted(
                (relabel(r.src), relabel(r.dst), r.nbytes, popcount(r.src ^ r.dst))
                for r in records
            )

        assert t == pytest.approx(base.time)
        assert shape(run.trace.transmissions, lambda x: x ^ root) == shape(
            base.trace.transmissions, lambda x: x
        )


class TestArgumentChecks:
    @pytest.mark.parametrize("pattern, algorithm", [
        ("broadcast", "binomial"), ("scatter", "halving"), ("allgather", "doubling"),
    ])
    @pytest.mark.parametrize("m", [-3, -1, 2.0, 1.5, True, "8", None])
    def test_m_must_be_a_non_negative_int(self, ipsc, pattern, algorithm, m):
        with pytest.raises(ValueError, match="m="):
            simulate_pattern(pattern, algorithm, 3, m, ipsc)

    def test_numpy_integer_m_is_accepted(self, ipsc):
        t, _ = simulate_pattern("broadcast", "binomial", 3, np.int64(4), ipsc)
        assert t == simulate_pattern("broadcast", "binomial", 3, 4, ipsc)[0]

    @pytest.mark.parametrize("args, kwargs, error, match", BAD_ARGUMENTS + [
        (("allgather", "doubling", 3), {"planner": "p"}, ValueError, "planner"),
        (("broadcast", "auto", 3), {"planner": "p"}, ValueError, "planner"),
        (("scatter", "direct", 3), {"planner": "p"}, ValueError, "planner"),
        (("allgather", "exchange", 3), {"planner": "p", "partition": (3,)},
         ValueError, "planner"),
        (("allgather", "auto", 3), {"partition": (2, 1)}, ValueError, "partition"),
    ])
    def test_arguments_are_checked_like_pattern_program(
        self, ipsc, args, kwargs, error, match
    ):
        pattern, algorithm, d = args
        with pytest.raises(error, match=match):
            simulate_pattern(pattern, algorithm, d, 16, ipsc, **kwargs)

    def test_planner_runs_the_exchange_it_decides(self, ipsc):
        planner = CollectivePlanner(ModelPolicy(ipsc))
        _, run = simulate_pattern("allgather", "auto", 3, 16, ipsc, planner=planner)
        assert planner.stats.decisions >= 1
        assert run.time > 0

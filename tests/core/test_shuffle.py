"""Tests for shuffles and the contiguous layout engine, including the
exact Figure 3 tableau of the paper."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.exchange import run_exchange
from repro.core.programs import Round
from repro.core.shuffle import (
    LayoutBuffer,
    apply_shuffle,
    shuffle_gather_indices,
    shuffle_permutation,
)
from repro.hypercube.subcube import BitGroup
from repro.util.bitops import rotate_bits_left


class TestShufflePermutation:
    def test_single_shuffle_d3(self):
        """One elementary shuffle on 8 blocks: position q -> rotl(q, 1)."""
        assert shuffle_permutation(3, 1).tolist() == [0, 2, 4, 6, 1, 3, 5, 7]

    def test_gather_is_inverse(self):
        for d in range(1, 7):
            for times in range(d + 1):
                perm = shuffle_permutation(d, times)
                gather = shuffle_gather_indices(d, times)
                n = 1 << d
                # new[perm[q]] = old[q]  and  new[j] = old[gather[j]]
                assert np.array_equal(perm[gather], np.arange(n))
                assert np.array_equal(gather[perm], np.arange(n))

    @given(st.integers(1, 8), st.integers(0, 16))
    def test_is_bijection(self, d, times):
        perm = shuffle_permutation(d, times)
        assert sorted(perm.tolist()) == list(range(1 << d))

    @given(st.integers(1, 8))
    def test_full_rotation_is_identity(self, d):
        assert np.array_equal(shuffle_permutation(d, d), np.arange(1 << d))

    @given(st.integers(1, 7), st.integers(0, 7), st.integers(0, 7))
    def test_composition(self, d, a, b):
        pa = shuffle_permutation(d, a)
        pb = shuffle_permutation(d, b)
        pab = shuffle_permutation(d, a + b)
        composed = np.empty_like(pa)
        composed[:] = pb[pa]
        assert np.array_equal(composed, pab)

    def test_rejects_zero_dimension(self):
        with pytest.raises(ValueError):
            shuffle_permutation(0, 1)


class TestApplyShuffle:
    def test_moves_rows(self):
        blocks = np.arange(8, dtype=np.int64).reshape(8, 1)
        out = apply_shuffle(blocks, 1, 3)
        # row q lands at rotl(q,1,3)
        for q in range(8):
            assert out[rotate_bits_left(q, 1, 3), 0] == q

    def test_shape_check(self):
        with pytest.raises(ValueError):
            apply_shuffle(np.zeros((7, 2)), 1, 3)

    @given(st.integers(1, 6), st.integers(0, 6))
    def test_inverse_via_remaining_rotation(self, d, times):
        rng = np.random.default_rng(42)
        blocks = rng.integers(0, 255, size=(1 << d, 3), dtype=np.uint8)
        once = apply_shuffle(blocks, times, d)
        back = apply_shuffle(once, d - (times % d) if times % d else 0, d)
        assert np.array_equal(back, blocks)


class TestFigure3:
    """Byte-level reproduction of the paper's Figure 3: a multiphase
    exchange on a d=3 cube with partition {2, 1}.

    The figure gives, for every node, the (origin:dest) tableau at four
    instants: initial, after the partial exchange on bits 2-1, after
    the 2-shuffle, and after the partial exchange on bit 0 (the final
    1-shuffle completes the origin-sorted state).
    """

    def _tableau(self, buffers):
        return [
            [(int(o), int(t)) for o, t in zip(buf.origins, buf.dests)] for buf in buffers
        ]

    def _run_until(self, n_exchange_steps: int, shuffles: int):
        """Replay the {2,1} exchange's rounds round by round on layout
        buffers, stopping once both quotas are filled."""
        import dataclasses

        from repro.core.programs import PATTERN_TABLE, pattern_rounds, replay_pattern

        row = PATTERN_TABLE[("alltoall", "multiphase")]
        rounds = pattern_rounds(row, 3, 0, partition=(2, 1))
        buffers = [LayoutBuffer(node, 3, 1) for node in range(8)]
        done_x, done_s = 0, 0
        for index, rnd in enumerate(rounds):
            if done_x == n_exchange_steps:
                break
            # one round at a time, its phase's closing shuffle held back
            replay_pattern([dataclasses.replace(rnd, times=0)], buffers)
            done_x += 1
            if index + 1 == len(rounds) or rounds[index + 1].phase != rnd.phase:
                if done_s == shuffles:
                    break
                for buf in buffers:
                    buf.shuffle(rnd.times)
                done_s += 1
        assert (done_x, done_s) == (n_exchange_steps, shuffles)
        return buffers

    def test_initial_tableau(self):
        buffers = [LayoutBuffer(node, 3, 1) for node in range(8)]
        tableau = self._tableau(buffers)
        for node in range(8):
            assert tableau[node] == [(node, t) for t in range(8)]

    def test_after_first_partial_exchange(self):
        """Figure 3, top-right: node 0 holds 0:0 0:1 2:0 2:1 4:0 4:1 6:0 6:1."""
        buffers = self._run_until(n_exchange_steps=3, shuffles=0)
        tableau = self._tableau(buffers)
        assert tableau[0] == [(0, 0), (0, 1), (2, 0), (2, 1), (4, 0), (4, 1), (6, 0), (6, 1)]
        assert tableau[1] == [(1, 0), (1, 1), (3, 0), (3, 1), (5, 0), (5, 1), (7, 0), (7, 1)]
        # node 7 column of the figure reads 7:6 7:7 then partners'
        assert tableau[7] == [(1, 6), (1, 7), (3, 6), (3, 7), (5, 6), (5, 7), (7, 6), (7, 7)]

    def test_after_two_shuffle(self):
        """Figure 3, bottom-left: node 0 holds 0:0 2:0 4:0 6:0 0:1 2:1 4:1 6:1."""
        buffers = self._run_until(n_exchange_steps=3, shuffles=1)
        tableau = self._tableau(buffers)
        assert tableau[0] == [(0, 0), (2, 0), (4, 0), (6, 0), (0, 1), (2, 1), (4, 1), (6, 1)]
        # phase-2 invariant holds everywhere: top bit of index == dest
        # bit 0, so every node's run for its bit-0 partner is contiguous
        phase2 = Round(mask=1, sources=7, reach=~1, tag=5, pairwise=True)
        for buf in buffers:
            assert buf.send(phase2, buf.node ^ 1).dests.tolist() == [buf.node ^ 1] * 4

    def test_after_second_partial_exchange(self):
        """Figure 3, bottom-right: node 0 holds 0:0 2:0 4:0 6:0 1:0 3:0 5:0 7:0."""
        buffers = self._run_until(n_exchange_steps=4, shuffles=1)
        tableau = self._tableau(buffers)
        assert tableau[0] == [(0, 0), (2, 0), (4, 0), (6, 0), (1, 0), (3, 0), (5, 0), (7, 0)]

    def test_final_one_shuffle_sorts_by_origin(self):
        buffers = self._run_until(n_exchange_steps=4, shuffles=2)
        tableau = self._tableau(buffers)
        for node in range(8):
            assert tableau[node] == [(o, node) for o in range(8)]
            buffers[node].verify_final()


class TestLayoutBuffer:
    def test_run_slice(self):
        buf = LayoutBuffer(0, 3, 2)
        group = BitGroup(lo=1, width=2)
        assert buf.run_slice(group, 0) == slice(0, 2)
        assert buf.run_slice(group, 3) == slice(6, 8)
        with pytest.raises(ValueError):
            buf.run_slice(group, 4)

    def test_put_run_shape_check(self):
        buf = LayoutBuffer(0, 3, 2)
        group = BitGroup(lo=0, width=3)
        with pytest.raises(ValueError):
            buf.put_run(group, 0, np.zeros(2, np.int64), np.zeros(2, np.int64),
                        np.zeros((2, 2), np.uint8))

    def test_phase_invariant_violation_detected(self):
        buf = LayoutBuffer(0, 3, 2)
        buf.shuffle(1)  # initial layout shuffled is wrong for phase on top bits
        with pytest.raises(AssertionError, match="layout invariant"):
            buf.send(TestLayoutHoldings.ROUND, 2)

    def test_verify_final_detects_corruption(self):
        out = run_exchange(3, 4, (2, 1), engine="layout")
        buf = out.buffers[0]
        buf.payload[3, 0] ^= 1
        with pytest.raises(AssertionError, match="corrupted"):
            buf.verify_final()

    def test_from_rows_layout(self):
        rows = np.arange(8, dtype=np.uint8).reshape(4, 2)
        buf = LayoutBuffer.from_rows(2, 2, rows)
        assert buf.m == 2
        assert np.array_equal(buf.payload, rows)
        assert buf.dests.tolist() == [0, 1, 2, 3]


class TestLayoutHoldings:
    """LayoutBuffer as replay_pattern holdings: contiguous runs."""

    # the first round of the {2, 1} exchange: bits 2..1, offset 1
    ROUND = Round(mask=0b010, sources=7, reach=~0b110, tag=1, pairwise=True)

    def test_send_takes_the_partner_run_and_receive_refills_it(self):
        a, b = LayoutBuffer(0, 3, 1), LayoutBuffer(2, 3, 1)
        to_b, to_a = a.send(self.ROUND, 2), b.send(self.ROUND, 0)
        assert to_b.dests.tolist() == [2, 3] and len(to_b) == 2
        assert a.receive(to_a) == () and b.receive(to_b) == ()
        assert a.origins.tolist() == [0, 0, 2, 2, 0, 0, 0, 0]
        assert a.dests.tolist() == [0, 1, 0, 1, 4, 5, 6, 7]

    def test_send_refuses_a_split_bit_group(self):
        split = Round(mask=0b001, sources=7, reach=~0b101, tag=0, pairwise=True)
        with pytest.raises(ValueError, match="contiguous"):
            LayoutBuffer(0, 3, 1).send(split, 1)

    def test_receive_refuses_a_wrong_sized_run(self):
        a, b = LayoutBuffer(0, 3, 1), LayoutBuffer(1, 3, 2)
        a.send(self.ROUND, 2)
        with pytest.raises(ValueError, match="superblock"):
            a.receive(b.send(self.ROUND, 3))

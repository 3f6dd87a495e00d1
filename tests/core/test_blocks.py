"""Tests for the tagged block buffer and payload pattern."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.blocks import BlockBuffer, BlockSet, payload_pattern, payload_rows
from repro.core.partitions import compositions, partitions
from repro.core.programs import PATTERN_TABLE, Round, exchange_rounds, pattern_rounds
from repro.core.variants import ORDERINGS, ordered_rounds
from repro.hypercube.subcube import BitGroup

SRC = str(Path(__file__).resolve().parents[2] / "src")


def tag_slots(buf, dst, reach):
    """The tag rule, the oracle of the fixed-slot coordinate rule: the
    slots (ascending) of the blocks bound for ``dst``'s downstream
    ``{dst ^ r : r a submask of reach}``, found by scanning the tags
    (:meth:`repro.core.programs.Round.take`'s rule)."""
    bits = ~reach
    return ((buf.dests & bits) == (dst & bits)).nonzero()[0]


class TestPayloadPattern:
    def test_deterministic(self):
        a = payload_pattern(3, 5, 16, 3)
        b = payload_pattern(3, 5, 16, 3)
        assert np.array_equal(a, b)

    def test_distinguishes_tags(self):
        assert not np.array_equal(payload_pattern(1, 2, 16, 3), payload_pattern(2, 1, 16, 3))

    def test_zero_length(self):
        assert payload_pattern(0, 0, 0, 3).shape == (0,)

    def test_rejects_negative_size(self):
        with pytest.raises(ValueError):
            payload_pattern(0, 0, -1, 3)

    @given(st.integers(0, 7), st.integers(0, 7), st.integers(0, 64))
    def test_dtype_and_range(self, origin, dest, m):
        p = payload_pattern(origin, dest, m, 3)
        assert p.dtype == np.uint8
        assert p.shape == (m,)
        if m:
            assert p.max() < 251


class TestPayloadRows:
    @pytest.mark.parametrize("m", [0, 1, 7, 400])
    @pytest.mark.parametrize("d", range(8))
    def test_equals_stacked_payload_pattern(self, d, m):
        n = 1 << d
        if d <= 4:
            origins, dests = np.divmod(np.arange(n * n), n)
        else:
            rng = np.random.default_rng(d)
            origins = np.concatenate([[0, n - 1, 0, n - 1], rng.integers(0, n, 200)])
            dests = np.concatenate([[0, n - 1, n - 1, 0], rng.integers(0, n, 200)])
        rows = payload_rows(origins, dests, m, d)
        expected = np.stack(
            [payload_pattern(int(o), int(t), m, d) for o, t in zip(origins, dests)]
        )
        assert rows.dtype == np.uint8
        assert rows.shape == (len(origins), m)
        assert np.array_equal(rows, expected)

    def test_rejects_negative_size(self):
        with pytest.raises(ValueError):
            payload_rows(np.zeros(1, np.int64), np.zeros(1, np.int64), -1, 3)


class TestBlockSet:
    def test_consistency_enforced(self):
        with pytest.raises(ValueError):
            BlockSet(np.zeros(2, np.int64), np.zeros(3, np.int64), np.zeros((2, 4), np.uint8))

    def test_nbytes(self):
        bs = BlockSet(np.zeros(3, np.int64), np.zeros(3, np.int64), np.zeros((3, 5), np.uint8))
        assert bs.nbytes == 15
        assert bs.n_blocks == 3

    def test_sorted_by_dest(self):
        bs = BlockSet(
            np.array([1, 0, 1]),
            np.array([2, 1, 1]),
            np.arange(12, dtype=np.uint8).reshape(3, 4),
        )
        out = bs.sorted_by_dest()
        assert out.dests.tolist() == [1, 1, 2]
        assert out.origins.tolist() == [0, 1, 1]


class TestBlockBuffer:
    def test_initial_state(self):
        buf = BlockBuffer.initial(node=2, d=3, m=4)
        assert buf.n_blocks == 8
        assert sorted(buf.dests.tolist()) == list(range(8))
        assert (buf.origins == 2).all()
        assert buf.total_bytes == 32

    def test_initial_zero_block_size(self):
        buf = BlockBuffer.initial(node=0, d=2, m=0)
        assert buf.total_bytes == 0
        assert buf.n_blocks == 4

    def test_send_takes_a_group_coordinate(self):
        buf = BlockBuffer.initial(node=0, d=3, m=2)
        group = BitGroup(lo=1, width=2)  # bits 2,1
        rnd = Round(mask=0b010, sources=7, reach=~group.mask, tag=0, pairwise=True)
        # dests with bits 2,1 == 01 are {2, 3}
        assert tag_slots(buf, 0b010, ~group.mask).tolist() == [2, 3]
        taken = buf.send(rnd, 0b010)
        assert taken.dests.tolist() == [2, 3]
        # effective block size = m * 2**(d - d_i)
        assert taken.nbytes == 2 * (1 << (3 - 2))

    def test_take_copies_and_keeps_the_slots(self):
        buf = BlockBuffer.initial(node=0, d=3, m=2)
        slots = tag_slots(buf, 4, ~BitGroup(lo=2, width=1).mask)
        assert slots.tolist() == [4, 5, 6, 7]
        taken = buf.take(slots)
        taken.payload[:] = 0
        assert buf.n_blocks == 8
        assert buf.is_complete_exchange_result() is False
        assert np.array_equal(buf.payload[4], payload_pattern(0, 4, 2, 3))

    def test_put_rejects_wrong_width(self):
        buf = BlockBuffer.initial(node=0, d=2, m=4)
        bad = BlockSet(np.zeros(1, np.int64), np.zeros(1, np.int64), np.zeros((1, 3), np.uint8))
        with pytest.raises(ValueError, match="width"):
            buf.put(np.array([1]), bad)

    def test_put_rejects_count_mismatch(self):
        buf = BlockBuffer.initial(node=0, d=2, m=4)
        taken = buf.take(tag_slots(buf, 2, ~BitGroup(lo=1, width=1).mask))
        with pytest.raises(ValueError, match="2 blocks for 1 slots"):
            buf.put(np.array([3]), taken)

    def test_take_put_roundtrip(self):
        buf = BlockBuffer.initial(node=1, d=3, m=4)
        before = buf.payload.copy()
        slots = tag_slots(buf, 5, 0)
        buf.put(slots, buf.take(slots))
        assert buf.n_blocks == 8
        assert buf.dests.tolist() == list(range(8))
        assert np.array_equal(buf.payload, before)

    def test_rotation_round_sends_one_destination(self):
        """A rotation round reaches every bit above the destination's,
        so it sends exactly slot ``dst``, the block for ``dst``."""
        buf = BlockBuffer.initial(node=2, d=3, m=1)
        rotation = pattern_rounds(PATTERN_TABLE["alltoall", "rotation"], 3, 0)
        assert [tag_slots(buf, dst, rotation[0].reach).tolist() for dst in range(8)] == [
            [j] for j in range(8)
        ]
        assert [buf.send(rotation[0], dst).dests.tolist() for dst in range(8)] == [
            [j] for j in range(8)
        ]

    def test_receives_refill_the_sends_in_order(self):
        """Sends may run ahead of receives: each receive refills the
        slots of the oldest send not yet answered."""
        buf = BlockBuffer.initial(node=0, d=2, m=1)
        rotation = pattern_rounds(PATTERN_TABLE["alltoall", "rotation"], 2, 0)
        sent = [buf.send(rnd, rnd.sends_to(0)) for rnd in rotation]
        for rnd, blocks in zip(rotation, sent):
            blocks.dests[:] = 0  # as if from the partner: bound for node 0
            buf.receive(blocks)
        assert buf.dests.tolist() == [0, 0, 0, 0]
        assert buf.origins.tolist() == [0, 0, 0, 0]
        assert buf.payload[1:, 0].tolist() == [
            payload_pattern(0, j, 1, 2)[0] for j in (1, 2, 3)
        ]

    def test_keys_are_origin_times_n_plus_dest(self):
        buf = BlockBuffer.initial(node=2, d=2, m=1)
        assert buf.keys() == [8, 9, 10, 11]


    def test_from_rows(self):
        rows = np.arange(16, dtype=np.uint8).reshape(4, 4)
        buf = BlockBuffer.from_rows(1, 2, rows)
        assert buf.m == 4
        assert np.array_equal(buf.payload, rows)
        # mutating the source must not affect the buffer
        rows[0, 0] = 99
        assert buf.payload[0, 0] == 0

    def test_from_rows_shape_check(self):
        with pytest.raises(ValueError):
            BlockBuffer.from_rows(0, 2, np.zeros((3, 4), np.uint8))


class TestHoldings:
    """BlockBuffer as replay_pattern holdings: fixed slots."""

    ROUND = Round(mask=0b10, sources=7, reach=~0b110, tag=0, pairwise=True)

    def test_send_vacates_and_receive_refills(self):
        a, b = BlockBuffer.initial(0, 3, 2), BlockBuffer.initial(2, 3, 2)
        to_b, to_a = a.send(self.ROUND, 2), b.send(self.ROUND, 0)
        # the blocks bound for the partner's coordinate on bits 2..1
        assert to_b.dests.tolist() == [2, 3] and to_a.dests.tolist() == [0, 1]
        assert a.receive(to_a) == () and b.receive(to_b) == ()
        assert a.dests.tolist() == [0, 1, 0, 1, 4, 5, 6, 7]
        assert a.origins.tolist() == [0, 0, 2, 2, 0, 0, 0, 0]
        assert a.n_blocks == 8

    def test_receive_rejects_a_count_mismatch(self):
        a, b = BlockBuffer.initial(0, 3, 2), BlockBuffer.initial(1, 3, 2)
        a.send(self.ROUND, 2)
        with pytest.raises(ValueError, match="4 blocks for 2 slots"):
            a.receive(b.take(np.arange(4)))

    def test_receive_rejects_a_width_mismatch(self):
        a, b = BlockBuffer.initial(0, 3, 2), BlockBuffer.initial(2, 3, 3)
        a.send(self.ROUND, 2)
        with pytest.raises(ValueError, match="width"):
            a.receive(b.send(self.ROUND, 0))

    def test_shuffle_moves_nothing(self):
        buf = BlockBuffer.initial(1, 3, 2)
        buf.shuffle(2)
        assert buf.dests.tolist() == list(range(8))


class TestVerification:
    def _final_buffer(self, node: int, d: int, m: int) -> BlockBuffer:
        """Manually assemble a correct post-exchange buffer."""
        n = 1 << d
        origins = np.arange(n, dtype=np.int64)
        dests = np.full(n, node, dtype=np.int64)
        payload = np.stack([payload_pattern(o, node, m, d) for o in range(n)])
        return BlockBuffer(node, d, m, BlockSet(origins, dests, payload))

    def test_accepts_correct_result(self):
        buf = self._final_buffer(3, 3, 8)
        buf.verify_complete_exchange_result()
        assert buf.is_complete_exchange_result()

    def test_detects_wrong_destination(self):
        buf = self._final_buffer(3, 3, 8)
        buf.dests[2] = 5
        with pytest.raises(AssertionError, match="foreign destinations"):
            buf.verify_complete_exchange_result()

    def test_detects_duplicate_origin(self):
        buf = self._final_buffer(3, 3, 8)
        buf.origins[1] = buf.origins[0]
        with pytest.raises(AssertionError, match="permutation"):
            buf.verify_complete_exchange_result()

    def test_detects_corrupted_payload(self):
        buf = self._final_buffer(3, 3, 8)
        buf.payload[4, 2] ^= 0xFF
        with pytest.raises(AssertionError, match="corrupted"):
            buf.verify_complete_exchange_result()
        # but passes when payload checking is off
        buf.verify_complete_exchange_result(check_payload=False)

    def test_detects_wrong_count(self):
        full = self._final_buffer(0, 2, 2)
        buf = BlockBuffer(0, 2, 2, full.take(np.arange(3)))
        with pytest.raises(AssertionError, match="holds"):
            buf.verify_complete_exchange_result()

    def test_reports_first_corrupted_row(self):
        buf = self._final_buffer(3, 3, 8)
        buf.payload[5, 0] ^= 1
        buf.payload[2, 7] ^= 1
        with pytest.raises(AssertionError, match="payload of block from 2 corrupted"):
            buf.verify_complete_exchange_result()

    def test_result_rows_ordering(self):
        buf = self._final_buffer(2, 2, 4)
        rows = buf.result_rows()
        assert rows.shape == (4, 4)
        for origin in range(4):
            assert np.array_equal(rows[origin], payload_pattern(origin, 2, 4, 2))

    def test_initial_state_is_not_a_result(self):
        buf = BlockBuffer.initial(node=1, d=2, m=2)
        assert not buf.is_complete_exchange_result()


def _slot_exchange(d, m, partition, tamper=None):
    """Lockstep multiphase exchange of pattern payloads on the slot API.

    ``tamper(k, node, slots, incoming)`` sees every put of exchange round
    ``k`` and returns the ``(slots, incoming)`` to put instead, or
    ``None`` to drop the put.
    """
    n = 1 << d
    bufs = [BlockBuffer.initial(x, d, m) for x in range(n)]
    for k, rnd in enumerate(exchange_rounds(d, partition)):
        shift = rnd.mask
        slots = [tag_slots(bufs[x], x ^ shift, rnd.reach) for x in range(n)]
        taken = [bufs[x].take(slots[x]) for x in range(n)]
        for x in range(n):
            put = (slots[x], taken[x ^ shift])
            if tamper is not None:
                put = tamper(k, x, *put)
            if put is not None:
                bufs[x].put(*put)
    return bufs


def _failing_nodes(bufs):
    return [buf.node for buf in bufs if not buf.is_complete_exchange_result()]


def _first_message(bufs, *, check_payload=True):
    """The message the one-buffer-at-a-time check raises first."""
    for buf in bufs:
        try:
            buf.verify_complete_exchange_result(check_payload=check_payload)
        except AssertionError as exc:
            return str(exc)
    return None


def _corrupt(bufs, kind, node):
    if kind == "dest":
        bufs[node].dests[1] ^= 1
    elif kind == "origin":
        bufs[node].origins[1] = bufs[node].origins[0]
    else:
        bufs[node].payload[2, 3] ^= 0xFF


class TestVerifyAll:
    """Many nodes per pass, the message of the first failing rank."""

    D, M, PARTITION = 4, 8, (2, 2)

    @pytest.fixture(params=[1, 16 * 24 * 3, 1 << 20], ids=["per-node", "chunks-of-3", "one-pass"])
    def chunk_bytes(self, request, monkeypatch):
        from repro.core import blocks

        monkeypatch.setattr(blocks, "_VERIFY_CHUNK_BYTES", request.param)

    def test_accepts_every_final_buffer(self, chunk_bytes):
        BlockBuffer.verify_all(_slot_exchange(self.D, self.M, self.PARTITION))
        BlockBuffer.verify_all(_slot_exchange(self.D, 0, self.PARTITION))
        BlockBuffer.verify_all([])

    @pytest.mark.parametrize("kind", ["dest", "origin", "payload"])
    @pytest.mark.parametrize("nodes", [(0,), (7,), (15,), (4, 5), (11, 2)])
    def test_raises_the_first_failing_rank(self, chunk_bytes, kind, nodes):
        bufs = _slot_exchange(self.D, self.M, self.PARTITION)
        for node in nodes:
            _corrupt(bufs, kind, node)
        expected = _first_message(bufs)
        assert f"node {min(nodes)}:" in expected
        with pytest.raises(AssertionError) as excinfo:
            BlockBuffer.verify_all(bufs)
        assert str(excinfo.value) == expected

    def test_mixed_faults_keep_rank_order(self, chunk_bytes):
        bufs = _slot_exchange(self.D, self.M, self.PARTITION)
        _corrupt(bufs, "payload", 3)
        _corrupt(bufs, "dest", 9)
        with pytest.raises(AssertionError, match="node 3: payload of block from"):
            BlockBuffer.verify_all(bufs)
        # without the payload check only node 9 fails
        with pytest.raises(AssertionError, match="node 9: 1 blocks with foreign"):
            BlockBuffer.verify_all(bufs, check_payload=False)

    def test_payload_check_can_be_skipped(self, chunk_bytes):
        bufs = _slot_exchange(self.D, self.M, self.PARTITION)
        _corrupt(bufs, "payload", 6)
        BlockBuffer.verify_all(bufs, check_payload=False)

    def test_unequal_buffers_are_checked_one_at_a_time(self, chunk_bytes):
        bufs = _slot_exchange(self.D, self.M, self.PARTITION)
        bufs[5] = BlockBuffer(5, self.D, self.M, bufs[5].take(np.arange(15)))
        _corrupt(bufs, "payload", 8)
        with pytest.raises(AssertionError, match="node 5: holds 15 blocks, expected 16"):
            BlockBuffer.verify_all(bufs)


class TestSlotNegativeControls:
    """Each way of misusing take/put must fail verification."""

    D, M, PARTITION = 3, 8, (2, 1)

    def test_clean_exchange_verifies(self):
        assert _failing_nodes(_slot_exchange(self.D, self.M, self.PARTITION)) == []

    def test_dropped_put_fails(self):
        def drop(k, node, slots, incoming):
            return None if (k, node) == (1, 5) else (slots, incoming)

        bufs = _slot_exchange(self.D, self.M, self.PARTITION, drop)
        assert 5 in _failing_nodes(bufs)
        with pytest.raises(AssertionError, match="foreign destinations"):
            bufs[5].verify_complete_exchange_result()

    def test_put_into_wrong_slots_fails(self):
        def misplace(k, node, slots, incoming):
            if (k, node) == (0, 2):
                slots = (slots + 1) % (1 << self.D)
            return slots, incoming

        assert _failing_nodes(_slot_exchange(self.D, self.M, self.PARTITION, misplace))

    def test_swapped_payload_row_fails(self):
        def swap(k, node, slots, incoming):
            # the last exchange step, so node 6 keeps the swapped rows
            if (k, node) == (3, 6):
                payload = incoming.payload[::-1].copy()
                incoming = BlockSet(incoming.origins, incoming.dests, payload)
            return slots, incoming

        bufs = _slot_exchange(self.D, self.M, self.PARTITION, swap)
        assert _failing_nodes(bufs) == [6]
        with pytest.raises(AssertionError, match="corrupted"):
            bufs[6].verify_complete_exchange_result()
        # the tags are right: only the payload check sees the swap
        bufs[6].verify_complete_exchange_result(check_payload=False)

    def test_count_mismatch_in_put_fails(self):
        def short(k, node, slots, incoming):
            return slots[:-1], incoming

        with pytest.raises(ValueError, match="blocks for"):
            _slot_exchange(self.D, self.M, self.PARTITION, short)


def _phase_orders(d):
    """Every ordered partition of ``d`` up to d = 6; the partitions of 7."""
    return list(compositions(d) if d <= 6 else partitions(d))


def _check_slot_rule(bufs, rounds):
    """Drive ``bufs`` (one per rank) through ``rounds`` with
    :meth:`BlockBuffer.send`, asserting at every round and rank that
    the slots it vacates, found by the partner's coordinate, are the
    ones the tag rule finds."""
    n = len(bufs)
    for index, rnd in enumerate(rounds):
        sent = []
        for x in range(n):
            partner = rnd.sends_to(x)
            by_tags = tag_slots(bufs[x], partner, rnd.reach)
            sent.append(bufs[x].send(rnd, partner))
            # not a bare assert: this file also runs under python -O
            np.testing.assert_array_equal(
                bufs[x]._vacated[-1], by_tags, err_msg=f"round {index} {rnd} rank {x}"
            )
        for x in range(n):
            bufs[x].receive(sent[rnd.receives_from(x)])
    return bufs


def _rounds(d, partition, ordering="index"):
    return ordered_rounds(d, partition, ordering)


class TestCoordinateSlots:
    """The partner-coordinate slot rule of :meth:`BlockBuffer.send`
    equals the tag rule at every round of every phase order and offset
    ordering."""

    def test_rows_of_a_group(self):
        # group bits 2..1 of a 4-cube: coordinate c holds the slots
        # whose bits 2..1 read c
        rnd = Round(mask=0b010, sources=15, reach=~0b110, tag=0, pairwise=True)
        held = [BlockBuffer.initial(0, 4, 1).send(rnd, c << 1).dests for c in range(4)]
        np.testing.assert_array_equal(
            held, [[0, 1, 8, 9], [2, 3, 10, 11], [4, 5, 12, 13], [6, 7, 14, 15]]
        )

    def test_a_group_that_is_not_contiguous_is_rejected(self):
        rnd = Round(mask=0b101, sources=7, reach=~0b101, tag=0, pairwise=True)
        with pytest.raises(ValueError, match="contiguous"):
            BlockBuffer.initial(0, 3, 1).send(rnd, 5)

    @pytest.mark.parametrize("d", range(1, 8))
    def test_equals_the_tag_rule_on_pattern_buffers(self, d):
        for partition in _phase_orders(d):
            bufs = [BlockBuffer.initial(x, d, 2) for x in range(1 << d)]
            BlockBuffer.verify_all(_check_slot_rule(bufs, _rounds(d, partition)))

    @pytest.mark.parametrize("ordering", ORDERINGS)
    @pytest.mark.parametrize("d", range(1, 7))
    def test_equals_the_tag_rule_in_every_ordering(self, d, ordering):
        for partition in partitions(d):
            bufs = [BlockBuffer.initial(x, d, 2) for x in range(1 << d)]
            BlockBuffer.verify_all(_check_slot_rule(bufs, _rounds(d, partition, ordering)))

    @pytest.mark.parametrize("d", range(1, 7))
    def test_equals_the_tag_rule_on_every_rotation_round(self, d):
        rotation = pattern_rounds(PATTERN_TABLE["alltoall", "rotation"], d, 0)
        bufs = [BlockBuffer.initial(x, d, 2) for x in range(1 << d)]
        BlockBuffer.verify_all(_check_slot_rule(bufs, rotation))

    @pytest.mark.parametrize("d", range(1, 6))
    def test_equals_the_tag_rule_on_user_rows(self, d):
        n = 1 << d
        rng = np.random.default_rng(d)
        send = rng.integers(0, 256, size=(n, n, 3), dtype=np.uint8)
        for partition in _phase_orders(d):
            bufs = [BlockBuffer.from_rows(x, d, send[x]) for x in range(n)]
            _check_slot_rule(bufs, _rounds(d, partition))
            for x, buf in enumerate(bufs):
                np.testing.assert_array_equal(buf.result_rows(), send[:, x], err_msg=f"{partition}")

    def test_rows_keyed_by_offset_fail_verification(self, monkeypatch):
        """Mutant: slots looked up by the round's offset instead of the
        partner's coordinate misroute blocks, and the final check names
        foreign destinations."""
        from repro.comm import simulate_exchange
        from repro.model.params import ipsc860

        send = BlockBuffer.send

        def keyed_by_offset(self, rnd, dst):
            # the coordinate of dst ^ node is the offset's
            return send(self, rnd, dst ^ self.node)

        assert simulate_exchange(4, 8, (2, 2), ipsc860()).run is not None
        monkeypatch.setattr(BlockBuffer, "send", keyed_by_offset)
        with pytest.raises(AssertionError, match="foreign destinations"):
            simulate_exchange(4, 8, (2, 2), ipsc860())


OPTIMIZED_CHECKS = """
import numpy as np
from repro.core.blocks import BlockBuffer
from repro.core.exchange import run_exchange
from repro.core.programs import Round
from repro.core.shuffle import LayoutBuffer
from repro.core.verify import assert_exchange_correct

def must_fail(label, check, match):
    try:
        check()
    except AssertionError as exc:
        if match not in str(exc):
            raise SystemExit(f"{label}: wrong message {exc}")
    else:
        raise SystemExit(f"{label}: verification passed under -O")

start = BlockBuffer.initial(1, 3, 8)
start.payload[2, 3] ^= 1
must_fail("pre-exchange buffer", start.verify_complete_exchange_result, "foreign")
if start.is_complete_exchange_result():
    raise SystemExit("pre-exchange buffer: is_complete_exchange_result() is True")

tags = run_exchange(3, 8, (2, 1)).buffers[4]
tags.payload[5, 0] ^= 1
must_fail("tag buffer", tags.verify_complete_exchange_result, "corrupted")

layout = run_exchange(3, 8, (2, 1), engine="layout").buffers[4]
layout.payload[5, 0] ^= 1
must_fail("layout buffer", layout.verify_final, "corrupted")

shuffled = LayoutBuffer(0, 3, 2)
shuffled.shuffle(1)
first_round = Round(mask=2, sources=7, reach=~6, tag=1, pairwise=True)
must_fail("layout invariant", lambda: shuffled.send(first_round, 2), "layout invariant")

send = [np.arange(8, dtype=np.uint8).reshape(2, 4) + x for x in range(2)]
must_fail("user rows", lambda: assert_exchange_correct(send, send), "incorrect")
print("ok")
"""


def test_verification_survives_python_optimize():
    """``python -O`` strips ``assert``; the byte checks must not be asserts."""
    result = subprocess.run(
        [sys.executable, "-O", "-c", textwrap.dedent(OPTIMIZED_CHECKS)],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr + result.stdout
    assert result.stdout.strip() == "ok"

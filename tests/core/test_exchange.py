"""Integration tests for the abstract exchange executor."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.exchange import run_exchange, run_exchange_on_rows
from repro.core.partitions import compositions, partitions
from repro.core.verify import alltoall_reference, assert_exchange_correct


def all_cases(max_d: int):
    for d in range(1, max_d + 1):
        for partition in partitions(d):
            yield d, partition


class TestCorrectnessExhaustive:
    @pytest.mark.parametrize("d,partition", list(all_cases(5)))
    def test_tags_engine(self, d, partition):
        outcome = run_exchange(d, 8, partition, engine="tags")
        outcome.verify()

    @pytest.mark.parametrize("d,partition", list(all_cases(5)))
    def test_layout_engine(self, d, partition):
        outcome = run_exchange(d, 8, partition, engine="layout")
        outcome.verify()

    @pytest.mark.parametrize("engine", ["tags", "layout"])
    def test_d6_representatives(self, engine):
        for partition in ((6,), (3, 3), (2, 2, 2), (1,) * 6, (4, 2)):
            run_exchange(6, 4, partition, engine=engine).verify()


class TestEngineAgreement:
    @pytest.mark.parametrize("d,partition", list(all_cases(4)))
    def test_engines_produce_identical_results(self, d, partition):
        a = run_exchange(d, 8, partition, engine="tags")
        b = run_exchange(d, 8, partition, engine="layout")
        for node in range(1 << d):
            assert np.array_equal(a.result_rows(node), b.result_rows(node))


class TestStepAccounting:
    def test_exchange_step_counts(self):
        assert run_exchange(4, 4, (4,)).n_exchange_steps == 15
        assert run_exchange(4, 4, (1, 1, 1, 1)).n_exchange_steps == 4
        assert run_exchange(4, 4, (2, 2)).n_exchange_steps == 6

    def test_bytes_sent_per_node(self):
        d, m = 4, 8
        # single phase: (2**d - 1) blocks of m bytes
        assert run_exchange(d, m, (d,)).bytes_sent_per_node == ((1 << d) - 1) * m
        # all-ones: d transmissions of m * 2**(d-1)
        assert run_exchange(d, m, (1,) * d).bytes_sent_per_node == d * m * (1 << (d - 1))



class TestEdgeCases:
    def test_zero_byte_blocks(self):
        for engine in ("tags", "layout"):
            run_exchange(3, 0, (2, 1), engine=engine).verify()

    def test_one_byte_blocks(self):
        run_exchange(4, 1, (2, 2)).verify()

    def test_d1(self):
        run_exchange(1, 16, (1,)).verify()

    def test_default_partition_is_single_phase(self):
        outcome = run_exchange(3, 4)
        assert outcome.n_exchange_steps == 7

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="engine"):
            run_exchange(3, 4, (3,), engine="quantum")

    def test_bad_partition_rejected(self):
        with pytest.raises(ValueError):
            run_exchange(3, 4, (2, 2))

    @pytest.mark.parametrize("m", [2.5, -1, True, "8"])
    def test_bad_block_size_rejected_up_front(self, m):
        with pytest.raises(ValueError, match="m must be a non-negative int"):
            run_exchange(3, m, (2, 1))

    def test_numpy_block_size_accepted(self):
        run_exchange(3, np.int64(4), (2, 1)).verify()

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8])
    def test_numpy_partition_parts(self, dtype):
        outcome = run_exchange(3, 4, np.array([2, 1], dtype=dtype))
        outcome.verify()
        assert outcome.n_exchange_steps == 4


class TestOrderIndependence:
    """The paper: 'the sequence of dimensions is unimportant, as long
    as the shuffles are carried out correctly'."""

    @pytest.mark.parametrize("d", [3, 4])
    def test_every_composition_correct(self, d):
        for comp in compositions(d):
            for engine in ("tags", "layout"):
                run_exchange(d, 4, comp, engine=engine).verify()

    def test_reversed_partition_same_result(self):
        a = run_exchange(5, 8, (3, 2))
        b = run_exchange(5, 8, (2, 3))
        for node in range(32):
            assert np.array_equal(a.result_rows(node), b.result_rows(node))


class TestUserData:
    def _random_rows(self, n, m, seed=0):
        rng = np.random.default_rng(seed)
        return [rng.integers(0, 256, size=(n, m), dtype=np.uint8) for _ in range(n)]

    @pytest.mark.parametrize("engine", ["tags", "layout"])
    @pytest.mark.parametrize("partition", [(3,), (2, 1), (1, 1, 1)])
    def test_matches_reference(self, engine, partition):
        send = self._random_rows(8, 12)
        recv = run_exchange_on_rows(send, partition, engine=engine)
        assert_exchange_correct(send, recv)
        reference = alltoall_reference(send)
        for x in range(8):
            assert np.array_equal(recv[x], reference[x])

    def test_single_node(self):
        send = self._random_rows(1, 5)
        recv = run_exchange_on_rows(send)
        assert np.array_equal(recv[0], send[0])

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            run_exchange_on_rows(self._random_rows(3, 4) )

    def test_rejects_ragged_blocks(self):
        send = self._random_rows(4, 4)
        send[2] = np.zeros((4, 5), dtype=np.uint8)
        with pytest.raises(ValueError, match="block size"):
            run_exchange_on_rows(send)

    def test_rejects_wrong_row_count(self):
        send = self._random_rows(4, 4)
        send[1] = np.zeros((3, 4), dtype=np.uint8)
        with pytest.raises(ValueError):
            run_exchange_on_rows(send)


class TestUserRowValidation:
    """Rows must already be bytes: a cast would wrap or truncate them."""

    def test_out_of_range_integers_rejected(self):
        rows = np.arange(12).reshape(2, 2, 3) + 250
        with pytest.raises(ValueError, match="node 1: .*dtype int64"):
            run_exchange_on_rows(rows, (1,))

    def test_negative_integers_rejected(self):
        rows = np.zeros((2, 2, 3), dtype=np.int16)
        rows[0, 1, 2] = -1
        with pytest.raises(ValueError, match="node 0: .*dtype int16"):
            run_exchange_on_rows(rows, (1,))

    def test_floats_rejected(self):
        rows = np.full((2, 2, 3), -1.7)
        with pytest.raises(ValueError, match="node 0: .*dtype float64"):
            run_exchange_on_rows(rows, (1,))

    def test_in_range_integers_exchanged_exactly(self):
        rows = (np.arange(24).reshape(2, 2, 6) * 10).astype(np.int64)
        recv = run_exchange_on_rows(rows, (1,))
        for x in range(2):
            for j in range(2):
                assert recv[x][j].tolist() == rows[j][x].tolist()

    def test_lists_of_small_ints_accepted(self):
        rows = [[[1, 2], [3, 4]], [[5, 6], [7, 255]]]
        recv = run_exchange_on_rows(rows, (1,))
        assert recv[1].tolist() == [[3, 4], [7, 255]]

"""Unit tests for argument validation helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.util.validation import (
    MAX_DIMENSION,
    check_block_size,
    check_byte_rows,
    check_dimension,
    check_message_size,
    check_node,
    check_partition,
)


class TestCheckDimension:
    def test_accepts_valid(self):
        assert check_dimension(0) == 0
        assert check_dimension(7) == 7
        assert check_dimension(MAX_DIMENSION) == MAX_DIMENSION

    def test_minimum(self):
        assert check_dimension(1, minimum=1) == 1
        with pytest.raises(ValueError):
            check_dimension(0, minimum=1)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_dimension(-1)

    def test_rejects_oversized_dimension(self):
        # catches the classic d-vs-n argument swap
        with pytest.raises(ValueError, match="node count"):
            check_dimension(64)

    def test_rejects_non_int(self):
        with pytest.raises(TypeError):
            check_dimension(3.0)
        with pytest.raises(TypeError):
            check_dimension(True)


class TestCheckNode:
    def test_accepts_range(self):
        assert check_node(0, 3) == 0
        assert check_node(7, 3) == 7

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            check_node(8, 3)
        with pytest.raises(ValueError):
            check_node(-1, 3)

    def test_rejects_non_int(self):
        with pytest.raises(TypeError):
            check_node(1.5, 3)
        with pytest.raises(TypeError):
            check_node(False, 3)

    @pytest.mark.parametrize("label", [np.int64(5), np.int32(5), np.uint8(5)])
    def test_accepts_numpy_integers_as_plain_int(self, label):
        node = check_node(label, 3)
        assert node == 5
        assert type(node) is int

    def test_numpy_labels_still_range_checked(self):
        with pytest.raises(ValueError):
            check_node(np.int64(8), 3)
        with pytest.raises(ValueError):
            check_node(np.int32(-1), 3)
        with pytest.raises(ValueError):
            check_node(np.uint8(200), 3)
        with pytest.raises(TypeError):
            check_node(np.bool_(True), 3)
        with pytest.raises(TypeError):
            check_node(True, 3)
        with pytest.raises(TypeError):
            check_node(np.float64(1.0), 3)


class TestCheckBlockSize:
    def test_accepts_numbers(self):
        assert check_block_size(0) == 0.0
        assert check_block_size(24) == 24.0
        assert check_block_size(2.5) == 2.5

    def test_zero_policy(self):
        with pytest.raises(ValueError):
            check_block_size(0, allow_zero=False)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_block_size(-1)

    def test_rejects_non_number(self):
        with pytest.raises(TypeError):
            check_block_size("24")
        with pytest.raises(TypeError):
            check_block_size(True)

    @pytest.mark.parametrize("m", [float("nan"), float("inf"), -float("inf"),
                                   np.float64("nan")])
    def test_rejects_non_finite(self, m):
        with pytest.raises(ValueError, match="finite and >= 0"):
            check_block_size(m)

    def test_accepts_numpy_numbers(self):
        assert check_block_size(np.int64(40)) == 40.0
        assert check_block_size(np.float32(2.5)) == 2.5
        assert type(check_block_size(np.int64(40))) is float


class TestCheckMessageSize:
    def test_accepts_non_negative_ints(self):
        assert check_message_size(0) == 0
        assert check_message_size(40) == 40
        assert check_message_size(np.int64(4)) == 4

    @pytest.mark.parametrize("m", [40.0, 2.5, True, -3, "8", None])
    def test_rejects_the_rest_naming_m(self, m):
        with pytest.raises(ValueError, match="m="):
            check_message_size(m)


class TestCheckPartition:
    def test_accepts_and_preserves_order(self):
        assert check_partition((2, 1), 3) == (2, 1)
        assert check_partition([1, 2], 3) == (1, 2)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            check_partition((), 3)

    def test_rejects_wrong_sum(self):
        with pytest.raises(ValueError, match="sums to"):
            check_partition((2, 2), 3)

    def test_rejects_nonpositive_parts(self):
        with pytest.raises(ValueError):
            check_partition((3, 0), 3)
        with pytest.raises(ValueError):
            check_partition((4, -1), 3)

    def test_rejects_non_int_parts(self):
        with pytest.raises(TypeError):
            check_partition((1.5, 1.5), 3)

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8])
    def test_numpy_parts_become_plain_ints(self, dtype):
        parts = check_partition(np.array([2, 1], dtype=dtype), 3)
        assert parts == (2, 1)
        assert all(type(part) is int for part in parts)
        assert check_partition((dtype(2), 1), 3) == (2, 1)

    def test_rejects_bool_parts(self):
        with pytest.raises(TypeError, match="bool"):
            check_partition((True, True, 1), 3)
        with pytest.raises(TypeError, match="bool"):
            check_partition((np.bool_(True), 2), 3)

    def test_numpy_partition_prices_and_simulates(self, ipsc):
        from repro.comm.program import simulate_exchange
        from repro.sim.fastpath import exchange_time

        parts = np.array([2, 1])
        assert exchange_time(3, 8.0, parts, ipsc) == exchange_time(3, 8.0, (2, 1), ipsc)
        assert simulate_exchange(3, 8, parts, ipsc).partition == (2, 1)


class TestCheckByteRows:
    def test_uint8_passes_through(self):
        rows = np.arange(6, dtype=np.uint8).reshape(2, 3)
        assert check_byte_rows(rows, 0) is rows

    @pytest.mark.parametrize("dtype", [np.int64, np.int8, np.uint16])
    def test_integers_in_byte_range_pass(self, dtype):
        rows = np.array([[0, 1], [127, 100]], dtype=dtype)
        out = check_byte_rows(rows, 3)
        assert out.dtype == np.uint8
        assert out.tolist() == rows.tolist()

    @pytest.mark.parametrize("values,dtype", [
        ([[256]], np.int64),
        ([[-1]], np.int64),
        ([[0.0]], np.float64),
        ([[1.0]], np.float32),
        ([[True]], np.bool_),
    ])
    def test_everything_else_raises_naming_node_and_dtype(self, values, dtype):
        rows = np.array(values, dtype=dtype)
        with pytest.raises(ValueError, match=f"node 5: .*{np.dtype(dtype)}"):
            check_byte_rows(rows, 5)

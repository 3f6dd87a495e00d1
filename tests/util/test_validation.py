"""Unit tests for argument validation helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.util.validation import (
    MAX_DIMENSION,
    check_block_size,
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

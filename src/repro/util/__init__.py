"""Shared low-level utilities.

This subpackage holds helpers with no dependency on the rest of
:mod:`repro`: bit manipulation (:mod:`repro.util.bitops`) and argument
validation (:mod:`repro.util.validation`).
"""

from repro.util.bitops import (
    bit,
    bit_complement,
    bit_field,
    bit_reverse,
    bits_of,
    clear_bit,
    flip_bit,
    from_bits,
    gray_code,
    inverse_gray_code,
    is_power_of_two,
    log2_exact,
    lowest_set_bit,
    popcount,
    rotate_bits_left,
    rotate_bits_right,
    set_bit,
)
from repro.util.validation import (
    check_block_size,
    check_dimension,
    check_message_size,
    check_node,
    check_partition,
)

__all__ = [
    "bit",
    "bit_complement",
    "bit_field",
    "bit_reverse",
    "bits_of",
    "clear_bit",
    "flip_bit",
    "from_bits",
    "gray_code",
    "inverse_gray_code",
    "is_power_of_two",
    "log2_exact",
    "lowest_set_bit",
    "popcount",
    "rotate_bits_left",
    "rotate_bits_right",
    "set_bit",
    "check_block_size",
    "check_dimension",
    "check_message_size",
    "check_node",
    "check_partition",
]

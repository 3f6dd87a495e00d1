"""Per-kind step durations: the test-side oracle of the fused pass.

:meth:`repro.sim.fastpath.CompiledProgram.durations` prices every step
in one affine pass over per-step columns gathered once per machine.
This module keeps the older construction beside it: one boolean mask
per step kind, each kind's rows filled from the machine's constants in
the event engine's order of operations.  The tests pin the fused pass
to it float for float.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.model.params import MachineParams
from repro.sim.fastpath import (
    KIND_BARRIER,
    KIND_EXCHANGE,
    KIND_SEND,
    KIND_SHUFFLE,
    CompiledProgram,
)


def _step_durations(
    d: int,
    kinds: np.ndarray,
    bytes_per_m: np.ndarray,
    hops: np.ndarray,
    ms: Sequence[float],
    params: MachineParams,
) -> np.ndarray:
    """Per-step durations for each block size: shape ``(S, M)``.

    Arithmetic mirrors the event engine term for term and in the same
    order (latency + ``τ·nbytes`` first, hop term added last), so
    integral block sizes reproduce its float results exactly.  Pairwise
    rows use the §7.4 effective constants (``λ_x``, ``δ_x``); one-way
    FORCED rows the plain ones (``λ``, ``δ``); barriers cost ``γ·d``;
    shuffles ``ρ`` per byte.
    """
    ms_arr = np.asarray(ms, dtype=np.float64)
    if ms_arr.ndim != 1:
        raise ValueError(f"ms must be one-dimensional, got shape {ms_arr.shape}")
    # a Python pass, not numpy reductions: pricing mostly asks for one
    # size, where this is several times cheaper (NaN fails the test too)
    for m in ms_arr.tolist():
        if not 0 <= m < math.inf:
            raise ValueError(f"block sizes must be finite and >= 0, got {m}")
    out = np.zeros((len(kinds), ms_arr.size), dtype=np.float64)
    barrier = kinds == KIND_BARRIER
    out[barrier, :] = params.global_sync_time(d)
    exchange = kinds == KIND_EXCHANGE
    if exchange.any():
        nbytes = bytes_per_m[exchange][:, None] * ms_arr[None, :]
        hop_terms = params.exchange_hop_time * hops[exchange].astype(np.float64)
        out[exchange, :] = (
            params.exchange_latency + params.byte_time * nbytes + hop_terms[:, None]
        )
    send = kinds == KIND_SEND
    if send.any():
        nbytes = bytes_per_m[send][:, None] * ms_arr[None, :]
        hop_terms = params.hop_time * hops[send].astype(np.float64)
        out[send, :] = (
            params.latency + params.byte_time * nbytes + hop_terms[:, None]
        )
    shuffle = kinds == KIND_SHUFFLE
    if shuffle.any():
        full_buffer = bytes_per_m[shuffle][:, None] * ms_arr[None, :]
        out[shuffle, :] = params.permute_time * full_buffer
    return out


def oracle_durations(
    compiled: CompiledProgram, ms: Sequence[float], params: MachineParams
) -> np.ndarray:
    """``compiled``'s per-step durations, shape ``(S, M)``, kind by kind."""
    return _step_durations(
        compiled.d, compiled.kinds, compiled.bytes_per_m, compiled.hops, ms, params
    )


def oracle_totals(
    compiled: CompiledProgram, ms: Sequence[float], params: MachineParams
) -> np.ndarray:
    """``compiled``'s total time per block size (engine-order ``cumsum``)."""
    durations = oracle_durations(compiled, ms, params)
    if durations.shape[0] == 0:
        return np.zeros(durations.shape[1], dtype=np.float64)
    return durations.cumsum(axis=0)[-1]

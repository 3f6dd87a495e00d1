"""The paper's analytic run-time model (eqs. (1), (2), (3)).

All times in microseconds, block size ``m`` in bytes, cube dimension
``d``.  The model is continuous in ``m`` so it can sweep the paper's
0–400 byte range.

Equation (1), Standard Exchange::

    t_s(m, d) = d * (λ + (τ + 2ρ) * m * 2**(d-1) + δ)

Equation (2), Optimal Circuit-Switched::

    t_o(m, d) = (2**d - 1) * (λ + τ*m + δ * d*2**(d-1) / (2**d - 1))

Equation (3) generalizes to one *partial exchange* of a multiphase
schedule on the calibrated machine; reconstructed here (see DESIGN.md
§3 and §7) as::

    t_phase(m, d_i, d) = (2**d_i - 1) * (λ_x + τ * m * 2**(d - d_i))
                       + δ_x * d_i * 2**(d_i - 1)
                       + ρ * m * 2**d        (if k > 1; fused shuffle)
                       + γ * d               (global synchronization)

with λ_x/δ_x the effective pairwise-exchange constants (λ+λ₀ and 2δ
when the machine uses the zero-byte sync handshake).  Summed over the
partition this reproduces the paper's published numbers: eq. (1) and
the §4.3/§5.1 worked examples exactly, and Figure 6's quoted times
(0.037 s / 0.037 s / 0.016 s at m=40, d=7) to the stated precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.model.params import MachineParams
from repro.util.validation import check_block_size, check_dimension, check_partition

__all__ = [
    "PhaseCost",
    "degraded_multiphase_time",
    "multiphase_time",
    "optimal_time",
    "phase_cost",
    "standard_time",
    "total_distance",
]


def total_distance(di: int) -> int:
    """Sum of pair distances over a ``d_i``-dimensional pairwise
    schedule: ``Σ_{j=1}^{2**d_i - 1} popcount(j) = d_i * 2**(d_i - 1)``.

    This is the aggregate distance-impact driver in eq. (2): the
    average path length ``d·2**(d-1) / (2**d - 1)`` times the number of
    transmissions.
    """
    if di < 0:
        raise ValueError(f"dimension must be >= 0, got {di}")
    if di == 0:
        return 0
    return di << (di - 1)


def standard_time(m: float, d: int, params: MachineParams) -> float:
    """Equation (1): Standard Exchange on the *generic* model.

    Uses the raw λ and δ (no pairwise-sync or global-sync overheads);
    this is the paper's theoretical expression used for the
    hypothetical machine.  For calibrated-machine predictions use
    ``multiphase_time(m, d, (1,)*d, params)``, which includes the
    implementation overheads of §7.
    """
    m = check_block_size(m)
    check_dimension(d, minimum=1)
    lam, tau, delta, rho = params.latency, params.byte_time, params.hop_time, params.permute_time
    half = 1 << (d - 1)
    return d * (lam + (tau + 2.0 * rho) * m * half + delta)


def optimal_time(m: float, d: int, params: MachineParams) -> float:
    """Equation (2): Optimal Circuit-Switched on the generic model.

    ``(2**d - 1)`` transmissions of one block; the distance term totals
    ``δ * d * 2**(d-1)`` over the schedule.
    """
    m = check_block_size(m)
    check_dimension(d, minimum=1)
    lam, tau, delta = params.latency, params.byte_time, params.hop_time
    n_tx = (1 << d) - 1
    return n_tx * (lam + tau * m) + delta * total_distance(d)


@dataclass(frozen=True)
class PhaseCost:
    """Cost breakdown of one partial exchange (eq. (3) terms)."""

    phase_dim: int
    effective_block: float
    transmission: float
    distance: float
    shuffle: float
    global_sync: float

    @property
    def total(self) -> float:
        return self.transmission + self.distance + self.shuffle + self.global_sync


def phase_cost(
    m: float,
    di: int,
    d: int,
    params: MachineParams,
    *,
    n_phases: int,
) -> PhaseCost:
    """Equation (3): one partial exchange of dimension ``d_i`` in a
    ``k = n_phases``-phase schedule on a ``d``-cube.

    The shuffle pass is omitted for single-phase schedules (the
    rotation by ``d`` is the identity, §7.4).
    """
    m = check_block_size(m)
    check_dimension(d, minimum=1)
    if not 1 <= di <= d:
        raise ValueError(f"phase dimension {di} out of range 1..{d}")
    if n_phases < 1:
        raise ValueError(f"n_phases must be >= 1, got {n_phases}")
    effective = m * (1 << (d - di))
    n_tx = (1 << di) - 1
    # a zero rate prices +0.0, also where m·2**(d-d_i) overflowed to inf
    moved = params.byte_time * effective if params.byte_time else 0.0
    transmission = n_tx * (params.exchange_latency + moved)
    distance = params.exchange_hop_time * total_distance(di)
    shuffle = params.shuffle_time(m * (1 << d)) if n_phases > 1 else 0.0
    gsync = params.global_sync_time(d)
    return PhaseCost(
        phase_dim=di,
        effective_block=effective,
        transmission=transmission,
        distance=distance,
        shuffle=shuffle,
        global_sync=gsync,
    )


def multiphase_time(
    m: float,
    d: int,
    partition: Sequence[int],
    params: MachineParams,
) -> float:
    """Predicted total time of the multiphase exchange for ``partition``.

    Degeneracies (proved in the tests): with synchronization overheads
    disabled, ``multiphase_time(m, d, (1,)*d)`` equals eq. (1) and
    ``multiphase_time(m, d, (d,))`` equals eq. (2).

    >>> from repro.model.params import hypothetical
    >>> multiphase_time(24, 6, (1,) * 6, hypothetical())
    15144.0
    >>> multiphase_time(24, 6, (2, 4), hypothetical())
    9984.0
    """
    parts = check_partition(partition, d)
    k = len(parts)
    return sum(phase_cost(m, di, d, params, n_phases=k).total for di in parts)


def degraded_multiphase_time(
    m: float,
    d: int,
    partition: Sequence[int],
    params: MachineParams,
    fault_plan=None,
) -> float:
    """Eq. (3) with per-phase penalty terms for a degraded machine.

    Prices the *expected* slowdown a :class:`repro.sim.faults.FaultPlan`
    inflicts on each partial exchange, without running the simulator:

    * the startup (λ_x) share of every transmission scales by the
      plan's mean latency scale, the per-byte (τ) share by its mean
      bandwidth scale — an exchange meets a uniformly random set of
      links over the schedule, so the link-population mean is the
      expected per-transfer factor;
    * the shuffle pass scales by the *worst* straggler's compute scale:
      phases are barrier-synchronized, so every phase waits for the
      slowest node's permutation;
    * each transmission adds the plan's expected outage stall
      (scheduled downtime spread over the link population, halved for
      the uniform arrival inside a window).

    With ``fault_plan=None`` (or an empty plan) this returns exactly
    ``multiphase_time(m, d, partition, params)`` — the fault-free model
    is the degenerate case, which the zero-overhead benchmark pins.
    """
    parts = check_partition(partition, d)
    if fault_plan is None or fault_plan.is_empty:
        return multiphase_time(m, d, parts, params)
    lat_scale = fault_plan.mean_latency_scale()
    bw_scale = fault_plan.mean_bandwidth_scale()
    compute_scale = fault_plan.max_compute_scale()
    stall = fault_plan.expected_stall_us()
    k = len(parts)
    total = 0.0
    for di in parts:
        cost = phase_cost(m, di, d, params, n_phases=k)
        n_tx = (1 << di) - 1
        moved = params.byte_time * bw_scale * cost.effective_block if params.byte_time else 0.0
        transmission = n_tx * (params.exchange_latency * lat_scale + moved)
        total += (
            transmission
            + cost.distance
            + cost.shuffle * compute_scale
            + cost.global_sync
            + n_tx * stall
        )
    return total


def phase_breakdown(
    m: float,
    d: int,
    partition: Sequence[int],
    params: MachineParams,
) -> list[PhaseCost]:
    """Per-phase cost decomposition for reporting/debugging."""
    parts = check_partition(partition, d)
    return [phase_cost(m, di, d, params, n_phases=len(parts)) for di in parts]

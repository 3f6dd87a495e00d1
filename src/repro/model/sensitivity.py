"""Sensitivity and ablation studies on the cost model.

The paper makes several robustness claims in passing; this module
turns them into reproducible studies:

* **free permutation** (§7.4): "our overall approach ... is valid even
  if the cost of permutation is zero" — setting ρ = 0 must keep
  multiphase partitions on the hull (it widens their win region);
* **synchronization overheads** (§7.2/§7.3): the pairwise handshake
  and per-phase global sync are what push the all-ones partition off
  the iPSC-860 hull; removing them restores the §4.3 picture where
  Standard Exchange owns the smallest blocks;
* **latency sweep**: the SE/OCS crossover grows with λ — the startup
  cost is the whole reason multiphase exists.  The sweep locates each
  crossover on the *full* calibrated model (sync and shuffle overheads
  included) as the intersection of the two partitions' cost lines,
  not the overhead-free §4.3 closed form.

Every hull is the optimizer's exact line envelope
(:func:`repro.model.optimizer.hull_of_optimality`).  Each study returns
plain data structures the ablation benchmark renders and asserts on.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.model.crossover import empirical_crossover
from repro.model.optimizer import hull_of_optimality
from repro.model.params import MachineParams, ipsc860

__all__ = [
    "HullShift",
    "free_permutation_study",
    "hull_under",
    "latency_sweep",
    "sync_overhead_study",
]


@dataclass(frozen=True)
class HullShift:
    """Hull of optimality under a parameter variation."""

    label: str
    params: MachineParams
    hull: tuple[tuple[int, ...], ...]
    boundaries: tuple[float, ...]

    @property
    def single_phase_threshold(self) -> float:
        """Block size beyond which the single-phase algorithm wins
        (infinity if it never does within the sweep)."""
        if not self.boundaries:
            return 0.0 if len(self.hull) == 1 and len(self.hull[0]) == 1 else float("inf")
        last = self.hull[-1]
        if len(last) == 1:
            return self.boundaries[-1]
        return float("inf")


def hull_under(
    label: str,
    params: MachineParams,
    d: int,
    *,
    m_max: float = 400.0,
) -> HullShift:
    """Hull of optimality for an arbitrary parameter variation."""
    table = hull_of_optimality(d, params, m_max=m_max)
    return HullShift(
        label=label,
        params=params,
        hull=table.hull_partitions,
        boundaries=table.boundaries,
    )


def free_permutation_study(
    d: int,
    *,
    m_max: float = 400.0,
    base: MachineParams | None = None,
) -> tuple[HullShift, HullShift]:
    """Baseline vs ρ = 0 hulls (the §7.4 robustness claim).

    With free shuffles every multiphase overhead except volume
    disappears, so multiphase partitions must still populate the
    small-block end — and their win region can only grow.
    """
    baseline = base if base is not None else ipsc860()
    free = baseline.with_overrides(permute_time=0.0, name=f"{baseline.name} (rho=0)")
    return (
        hull_under("measured rho", baseline, d, m_max=m_max),
        hull_under("rho = 0", free, d, m_max=m_max),
    )


def sync_overhead_study(
    d: int,
    *,
    m_max: float = 400.0,
    base: MachineParams | None = None,
) -> tuple[HullShift, HullShift]:
    """Baseline vs no-synchronization hulls.

    Dropping the pairwise handshake (λ₀, 2δ) and the per-phase global
    sync reproduces the §4.3 regime where the all-ones partition
    (Standard Exchange) owns the smallest block sizes.
    """
    baseline = base if base is not None else ipsc860()
    nosync = baseline.with_overrides(
        pairwise_sync=False,
        sync_latency=0.0,
        global_sync_per_dim=0.0,
        name=f"{baseline.name} (no sync overheads)",
    )
    return (
        hull_under("with sync overheads", baseline, d, m_max=m_max),
        hull_under("without sync overheads", nosync, d, m_max=m_max),
    )


def latency_sweep(
    d: int,
    latencies: tuple[float, ...] = (10.0, 50.0, 95.0, 200.0, 400.0),
    *,
    base: MachineParams | None = None,
) -> list[tuple[float, float]]:
    """SE/OCS crossover block size as a function of startup latency λ.

    Returns ``(λ, crossover_bytes)`` pairs, each where the SE and OCS
    lines of the full calibrated model intersect
    (:func:`repro.model.crossover.empirical_crossover`); the crossover
    must grow monotonically with λ (more startup pain favours the
    d-transmission algorithm for longer).  The overhead-free closed form of §4.3
    remains available as
    :func:`repro.model.crossover.crossover_block_size`.
    """
    baseline = base if base is not None else ipsc860()
    out = []
    for lam in latencies:
        params = baseline.with_overrides(latency=lam)
        cross = empirical_crossover(d, params)
        if cross is None:
            raise ValueError(
                f"no SE/OCS crossover for λ={lam} within the search range"
            )
        out.append((lam, cross))
    return out

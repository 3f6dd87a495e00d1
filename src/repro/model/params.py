"""Machine performance parameters (paper §4.3 and §7.4).

The paper characterizes a circuit-switched hypercube by four constants
plus synchronization costs:

========  =====================================  ==================
symbol    meaning                                units
========  =====================================  ==================
λ         message startup (latency)              µs
τ         transmission rate                      µs per byte
δ         distance impact                        µs per dimension
ρ         data permutation (shuffle) rate        µs per byte
λ₀        startup of a zero-byte sync message    µs
γ         global synchronization cost            µs per dimension
========  =====================================  ==================

A message of ``m`` bytes crossing ``h`` dimensions costs
``λ + τ·m + δ·h``; a shuffle pass over ``b`` bytes costs ``ρ·b``.

Two presets reproduce the paper's numbers:

* :func:`ipsc860` — the measured iPSC-860 constants of §7.4
  (λ=95.0, τ=0.394, δ=10.3, λ₀=82.5, ρ=0.54, γ=150).  Pairwise
  synchronization makes the *effective* per-exchange constants
  λ_eff = λ + λ₀ = 177.5 µs and δ_eff = 2δ = 20.6 µs/dim.
* :func:`hypothetical` — the §4.3 teaching machine
  (τ = ρ = 1, λ = 200, δ = 20, no synchronization overheads).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = [
    "MachineParams",
    "hypothetical",
    "ipsc860",
    "PRESETS",
]

#: iPSC-860 eager/rendezvous boundary for UNFORCED messages (paper §7.1):
#: above this size an UNFORCED message pays a reserve–acknowledge round
#: trip before the data moves.
UNFORCED_EAGER_LIMIT = 100


@dataclass(frozen=True)
class MachineParams:
    """Performance constants of a circuit-switched hypercube.

    All times in microseconds.  ``pairwise_sync`` selects whether
    exchanges are preceded by the zero-byte synchronization handshake
    the iPSC-860 needs for concurrent bidirectional transfers (§7.2);
    ``sync_latency`` is that handshake's λ₀.
    """

    name: str
    #: message startup λ (µs)
    latency: float
    #: per-byte transmission time τ (µs/byte)
    byte_time: float
    #: per-dimension distance impact δ (µs/dimension)
    hop_time: float
    #: per-byte permutation (shuffle) time ρ (µs/byte)
    permute_time: float
    #: zero-byte synchronization message startup λ₀ (µs); only charged
    #: when pairwise_sync is enabled
    sync_latency: float = 0.0
    #: whether pairwise exchanges prepend the zero-byte sync handshake
    pairwise_sync: bool = False
    #: global synchronization cost per cube dimension γ (µs/dimension)
    global_sync_per_dim: float = 0.0
    #: eager limit for UNFORCED messages (bytes)
    unforced_eager_limit: float = UNFORCED_EAGER_LIMIT

    def __post_init__(self) -> None:
        for field_name in ("latency", "byte_time", "hop_time", "permute_time",
                           "sync_latency", "global_sync_per_dim"):
            value = getattr(self, field_name)
            if value < 0:
                raise ValueError(f"{field_name} must be >= 0, got {value}")

    # ------------------------------------------------------------------
    # derived effective constants (paper §7.4)
    # ------------------------------------------------------------------
    @property
    def exchange_latency(self) -> float:
        """Effective startup of one pairwise exchange: λ + λ₀ when the
        sync handshake is used, else λ (the paper's 177.5 µs)."""
        return self.latency + (self.sync_latency if self.pairwise_sync else 0.0)

    @property
    def exchange_hop_time(self) -> float:
        """Effective distance impact per dimension of one pairwise
        exchange: 2δ with the sync handshake (its zero-byte messages
        also cross the distance), else δ (the paper's 20.6 µs)."""
        return self.hop_time * (2.0 if self.pairwise_sync else 1.0)

    def message_time(self, nbytes: float, hops: int) -> float:
        """Time for a single message: ``λ + τ·m + δ·h``."""
        return self.latency + self.byte_time * nbytes + self.hop_time * hops

    def exchange_time(self, nbytes: float, hops: int) -> float:
        """Time for a pairwise synchronized exchange of ``nbytes`` each
        way at distance ``hops``: ``λ_eff + τ·m + δ_eff·h``."""
        return (
            self.exchange_latency
            + self.byte_time * nbytes
            + self.exchange_hop_time * hops
        )

    def shuffle_time(self, nbytes: float) -> float:
        """Time for one fused permutation pass over ``nbytes``: ``ρ·b``,
        ``+0.0`` at ``ρ = 0`` even where ``b`` overflowed to ``inf``."""
        return self.permute_time * nbytes if self.permute_time else 0.0

    def global_sync_time(self, d: int) -> float:
        """Global synchronization on a ``d``-cube: ``γ·d`` (150d
        measured on the iPSC-860)."""
        return self.global_sync_per_dim * d

    def with_overrides(self, **kwargs) -> "MachineParams":
        """A copy with selected fields replaced (for sensitivity
        studies and ablations)."""
        return replace(self, **kwargs)


def ipsc860() -> MachineParams:
    """The measured Intel iPSC-860 of paper §7.4.

    λ = 95.0 µs, τ = 0.394 µs/B, δ = 10.3 µs/dim, λ₀ = 82.5 µs,
    ρ = 0.54 µs/B, global sync 150·d µs, FORCED messages with pairwise
    synchronization (λ_eff = 177.5, δ_eff = 20.6).
    """
    return MachineParams(
        name="iPSC-860",
        latency=95.0,
        byte_time=0.394,
        hop_time=10.3,
        permute_time=0.54,
        sync_latency=82.5,
        pairwise_sync=True,
        global_sync_per_dim=150.0,
    )


def hypothetical() -> MachineParams:
    """The §4.3 hypothetical machine: τ = ρ = 1, λ = 200, δ = 20.

    No pairwise or global synchronization overheads — the paper uses it
    to illustrate the crossover analysis and the §5.1 worked example.
    """
    return MachineParams(
        name="hypothetical-4.3",
        latency=200.0,
        byte_time=1.0,
        hop_time=20.0,
        permute_time=1.0,
    )


#: Named presets for CLI/bench convenience.
PRESETS = {
    "ipsc860": ipsc860,
    "hypothetical": hypothetical,
}

"""Vectorized lockstep fast path for program timing.

Bokhari's exchange schedules are *lockstep*: every node executes the
same step list, each step has the same duration on every node (the
pairwise schedule exchanges equal payloads over equal distances), and
the compiled schedules are edge-contention free — so every circuit is
granted the instant it is requested.  The per-node timeline of a
simulated run is therefore computable in closed form, one cumulative
sum over the step durations, without booting coroutine processes (the
same observation that lets implicit lockstep simulations replace
event-driven ones wholesale).  This module is that closed form,
vectorized with numpy over steps × block sizes.

There is one compiler.  :func:`compile_program` lowers any
contention-free :class:`repro.core.programs.CommProgram` — the
exchange, the §9 pattern programs (broadcast binomial/direct, scatter
halving/direct, allgather doubling/exchange), or any other
barrier/send/pair/shuffle chain — to per-step coefficient arrays
(:class:`CompiledProgram`).  One-way ``SendStep`` rows price with the
plain constants (``λ + τ·nbytes + δ·h``), pairwise ``PairStep`` rows
with the §7.4 effective constants, exactly as
:class:`repro.sim.node.Node` combines them, and ``cumsum`` accumulates
the rows in the engine's dispatch order — so prices agree with the
event engine to **float equality** (``==``, not approx).

There is one pricing pass.  :func:`stack_programs` stacks several
compiled programs of one cube into a :class:`ProgramStack`, each padded
to the longest with ``-0.0`` steps (the exact additive identity), and
:meth:`ProgramStack.totals` prices all of them at once: one
``durations`` evaluation over programs × steps × block sizes and one
``cumsum`` along the steps.  A :class:`CompiledProgram` is the
one-program case of the same pass, so a stack of ``C`` programs costs
a handful of numpy calls, not ``C`` pricing loops; its temporaries are
``C × steps × block sizes`` floats.

* :func:`program_time` / :func:`program_times` /
  :func:`program_timeline` / :func:`batch_program_times` — price any
  program.  A contended program (the naive rotation) is refused by
  the compiler and priced by replaying its sends-first rounds.
* :func:`exchange_time` / :func:`exchange_times` /
  :func:`exchange_timeline` / :func:`batch_exchange_times` — the
  complete exchange by ``(d, partition)``.  They read the exchange's
  program, the ``alltoall/multiphase`` row of
  :data:`repro.core.programs.PATTERN_TABLE`, compiled once per
  ``(d, partition)`` by :func:`compile_schedule`, and agree with
  :func:`repro.comm.program.simulate` to float equality.
* :func:`naive_exchange_time` / :func:`naive_timeline` — the
  *contended* ``alltoall/rotation`` row, priced by the one sends-first
  replay of its rounds on :class:`repro.sim.network.Network`'s
  link/port id table (a flat heap loop — no generators, no payload
  movement, no trace records).  Conflicts serialize exactly as the
  engine serializes them; the agreement tests assert ``==``, and
  consumers may rely on a documented tolerance of 1e-12 relative.
* :func:`naive_contention_summary` — why the naive schedule is slow,
  quantified with the static analyzers
  (:func:`~repro.hypercube.contention.analyze_contention` /
  :func:`~repro.hypercube.contention.count_edge_conflicts`): each
  rotation step is individually link-clean under e-cube, but the union
  of steps is heavily contended, and without pairwise synchronization
  nodes drift until circuits from different steps overlap.

The event engine stays authoritative for everything the closed form
does not model: fault injection, FORCED-drop semantics, byte-verified
data movement, and arbitrary node programs.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar, Sequence

import numpy as np

from repro.core.programs import (
    BarrierStep,
    CommProgram,
    LocalShuffleStep,
    PairStep,
    SendStep,
    pattern_program,
)
from repro.hypercube.contention import (
    ScheduleConflicts,
    analyze_contention,
    count_edge_conflicts,
)
from repro.model.params import MachineParams
from repro.sim.network import _add_ecube_ids
from repro.util.bitops import popcount
from repro.util.validation import check_block_size, check_dimension, check_partition

__all__ = [
    "CompiledProgram",
    "NaiveContentionSummary",
    "NaiveSend",
    "NaiveTimeline",
    "ProgramStack",
    "ProgramTimeline",
    "batch_exchange_times",
    "batch_program_times",
    "compile_program",
    "compile_schedule",
    "contended_timeline",
    "exchange_time",
    "exchange_timeline",
    "exchange_times",
    "naive_contention_summary",
    "naive_exchange_time",
    "naive_timeline",
    "program_time",
    "program_timeline",
    "program_times",
    "stack_programs",
]

#: step-kind codes of a compiled program; ``KIND_PAD`` pads a stack's
#: shorter programs and prices ``-0.0``
KIND_BARRIER, KIND_EXCHANGE, KIND_SHUFFLE, KIND_SEND, KIND_PAD = 0, 1, 2, 3, 4


# ----------------------------------------------------------------------
# the program compiler: any CommProgram, one numpy pass
# ----------------------------------------------------------------------
class _Steps:
    """Step coefficient arrays ``kinds``, ``bytes_per_m`` and ``hops``,
    shaped ``(..., S)``, on the ``d``-cube, and the one pass that
    prices them."""

    kinds: np.ndarray
    bytes_per_m: np.ndarray
    hops: np.ndarray
    #: the last params priced and its step columns (one entry per instance)
    _priced: ClassVar[tuple[MachineParams, tuple[np.ndarray, ...]] | None] = None

    def _columns(self, params: MachineParams) -> tuple[np.ndarray, ...]:
        """Per-step ``(latency, rate, hop term, bytes_per_m)`` columns on
        ``params``; unused terms are ``-0.0``, the exact additive identity."""
        priced = self._priced
        if priced is None or not (priced[0] is params or priced[0] == params):
            per_kind = np.array([  # rows in KIND_* order
                (params.global_sync_time(self.d), -0.0, -0.0),
                (params.exchange_latency, params.byte_time, params.exchange_hop_time),
                (-0.0, params.permute_time, -0.0),
                (params.latency, params.byte_time, params.hop_time),
                (-0.0, -0.0, -0.0),
            ])
            kinds, hops = self.kinds, self.hops
            latency, rate, hop_rate = (per_kind[:, k][kinds][..., None] for k in range(3))
            # byte multipliers stay integers: below 2**53 they convert
            # to float exactly when multiplied
            priced = (params, (latency, rate, hop_rate * hops[..., None], self.bytes_per_m[..., None]))
            object.__setattr__(self, "_priced", priced)
        return priced[1]

    def durations(self, ms: Sequence[float], params: MachineParams) -> np.ndarray:
        """Per-step durations for each block size, shape ``(..., S, M)``:
        one pass of ``(latency + rate·(bytes_per_m·m)) + hop``, the
        engine's order."""
        ms_arr = np.asarray(ms, dtype=np.float64)
        if ms_arr.ndim != 1:
            raise ValueError(f"ms must be one-dimensional, got shape {ms_arr.shape}")
        # a Python pass, not numpy reductions: pricing mostly asks for one
        # size, where this is several times cheaper (NaN fails the test too)
        for m in ms_arr.tolist():
            if not 0 <= m < math.inf:
                raise ValueError(f"block sizes must be finite and >= 0, got {m}")
        latency, rate, hop, bytes_per_m = self._columns(params)
        return latency + rate * (bytes_per_m * ms_arr) + hop

    def totals(self, ms: Sequence[float], params: MachineParams) -> np.ndarray:
        """Total time per block size, shape ``(..., M)``: one
        engine-order ``cumsum`` along the steps."""
        durations = self.durations(ms, params)
        if durations.shape[-2] == 0:
            return np.zeros(durations.shape[:-2] + durations.shape[-1:])
        return durations.cumsum(axis=-2)[..., -1, :]


@dataclass(frozen=True)
class CompiledProgram(_Steps):
    """A :class:`~repro.core.programs.CommProgram` reduced to timing
    coefficients.

    For every step the duration on the calibrated machine is an affine
    function of the block size ``m``:

    * ``BarrierStep`` — ``γ·d`` (the global synchronization);
    * ``PairStep`` — ``λ_x + τ·(bytes_per_m·m) + δ_x·h``, the §7.4
      effective constants;
    * ``SendStep`` — ``λ + τ·(bytes_per_m·m) + δ·h``, the plain
      constants (FORCED one-way traffic pays no pairwise handshake);
    * ``LocalShuffleStep`` — ``ρ·(bytes_per_m·m)``.

    ``kinds`` holds the ``KIND_*`` code of each step, ``bytes_per_m``
    its byte multiplier (0 for barriers) and ``hops`` its circuit
    length, so :meth:`durations` evaluates a whole block-size batch in
    one vectorized pass, shape ``(S, M)``.  ``totals`` accumulates the
    rows with ``cumsum`` in program order, which is the event engine's
    dispatch order along the program's critical-path chain, so the
    result equals the engine's makespan to float equality.  It is the
    one-program case of :meth:`ProgramStack.totals`.
    """

    program: CommProgram
    kinds: np.ndarray
    bytes_per_m: np.ndarray
    hops: np.ndarray

    @property
    def d(self) -> int:
        return self.program.d

    @property
    def n_steps(self) -> int:
        return len(self.program.steps)

    def timeline(self, m: float, params: MachineParams) -> "ProgramTimeline":
        """Per-step start/finish times along the critical-path chain."""
        durations = self.durations([m], params)[:, 0]
        finish = durations.cumsum()
        start = np.concatenate(([0.0], finish[:-1]))
        return ProgramTimeline(
            program=self.program, m=float(m), start=start, finish=finish
        )


@dataclass(frozen=True)
class ProgramStack(_Steps):
    """Compiled programs of one cube, priced together.

    ``kinds``, ``bytes_per_m`` and ``hops`` are ``(C, S)``: program
    ``c``'s steps, then ``KIND_PAD`` steps up to the longest program's
    ``S``.  A pad step prices ``-0.0`` at every ``m >= +0.0`` (``+0.0``
    at ``m = -0.0``, which leaves any total that is not ``-0.0`` alone;
    a program that opens with a barrier never totals ``-0.0``), so
    :meth:`totals`, shape ``(C, M)``, equals each program's own
    :meth:`CompiledProgram.totals` to the last bit.  The padded arrays
    are built when a new params is priced; only its columns are kept.
    """

    programs: tuple[CompiledProgram, ...]

    @property
    def d(self) -> int:
        return self.programs[0].d

    @property
    def kinds(self) -> np.ndarray:
        return _padded([program.kinds for program in self.programs], KIND_PAD)

    @property
    def bytes_per_m(self) -> np.ndarray:
        return _padded([program.bytes_per_m for program in self.programs], 0)

    @property
    def hops(self) -> np.ndarray:
        return _padded([program.hops for program in self.programs], 0)


def _padded(rows: Sequence[np.ndarray], fill: int) -> np.ndarray:
    """``rows`` stacked, each padded with ``fill`` to the longest."""
    out = np.full((len(rows), max(len(row) for row in rows)), fill, dtype=rows[0].dtype)
    for i, row in enumerate(rows):
        out[i, : len(row)] = row
    return out


@dataclass(frozen=True)
class ProgramTimeline:
    """Start/finish instants along a program's critical-path chain.

    For lockstep programs (the exchange, allgather doubling) these
    describe every node simultaneously; for rooted trees
    (broadcast/scatter) they describe the root's chain, whose last
    finish is still the run's exact makespan (forwarding chains end at
    the same float — see :mod:`repro.core.programs`).
    """

    program: CommProgram
    m: float
    start: np.ndarray
    finish: np.ndarray

    @property
    def total(self) -> float:
        """The makespan (equals the event engine's simulated time)."""
        return float(self.finish[-1]) if len(self.finish) else 0.0


def _lower_program(program: CommProgram) -> CompiledProgram:
    """Lower a program's step stream to coefficient arrays, checking
    each step structurally (the one step-to-coefficient lowering)."""
    n = 1 << program.d
    kinds = np.empty(program.n_steps, dtype=np.int8)
    bytes_per_m = np.zeros(program.n_steps, dtype=np.int64)
    hops = np.zeros(program.n_steps, dtype=np.int64)
    for i, step in enumerate(program.steps):
        if isinstance(step, BarrierStep):
            kinds[i] = KIND_BARRIER
        elif isinstance(step, SendStep):
            if not (0 <= step.src < n and 0 <= step.dst < n):
                raise ValueError(
                    f"step {i}: endpoints ({step.src}, {step.dst}) outside "
                    f"the {program.d}-cube"
                )
            if step.src == step.dst:
                raise ValueError(f"step {i}: send from node {step.src} to itself")
            if step.bytes_per_m < 0:
                raise ValueError(f"step {i}: negative byte multiplier")
            kinds[i] = KIND_SEND
            bytes_per_m[i] = step.bytes_per_m
            hops[i] = step.hops
        elif isinstance(step, PairStep):
            if not 1 <= step.shift < n:
                raise ValueError(
                    f"step {i}: pair shift {step.shift} outside 1..{n - 1}"
                )
            if step.bytes_per_m < 0:
                raise ValueError(f"step {i}: negative byte multiplier")
            kinds[i] = KIND_EXCHANGE
            bytes_per_m[i] = step.bytes_per_m
            hops[i] = step.hops
        elif isinstance(step, LocalShuffleStep):
            if step.bytes_per_m < 0:
                raise ValueError(f"step {i}: negative byte multiplier")
            kinds[i] = KIND_SHUFFLE
            bytes_per_m[i] = step.bytes_per_m
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown program step {type(step).__name__}")
    kinds.setflags(write=False)
    bytes_per_m.setflags(write=False)
    hops.setflags(write=False)
    return CompiledProgram(
        program=program, kinds=kinds, bytes_per_m=bytes_per_m, hops=hops
    )


@lru_cache(maxsize=512)
def _compile_program(program: CommProgram) -> CompiledProgram:
    """The memo behind :func:`compile_program`, keyed by the program's
    content: bounded at 512 compiled programs, least recently used
    first out."""
    return _lower_program(program)


def compile_program(program: CommProgram) -> CompiledProgram:
    """Compile (and memoize) the timing coefficients of a program.

    Accepts any contention-free :class:`~repro.core.programs.CommProgram`
    — the exchange, every §9 pattern program, or a hand-built chain —
    after validating each step structurally (endpoints inside the cube,
    no self-sends, shifts in range).  Contended programs (the naive
    rotation) have no lockstep closed form and are refused; price them
    with :func:`program_time` or :func:`batch_program_times`, which
    replay their rounds.

    >>> from repro.core.programs import pattern_program
    >>> compile_program(pattern_program("broadcast", "binomial", 3)).n_steps
    4
    """
    if program.contended:
        raise ValueError(
            f"program {program.name!r} is contended: its cost is link/port "
            f"serialization, not a lockstep chain; use program_time or "
            f"batch_program_times, which replay its rounds"
        )
    check_dimension(program.d, minimum=1)
    return _compile_program(program)


def stack_programs(programs: Sequence[CommProgram]) -> ProgramStack:
    """Compile ``programs`` (at least one, all on one cube) and stack
    them for one pricing pass.

    >>> from repro.core.programs import pattern_program
    >>> from repro.model.params import ipsc860
    >>> stack = stack_programs([pattern_program("scatter", a, 4) for a in ("halving", "direct")])
    >>> stack.kinds.shape
    (2, 16)
    >>> stack.totals([40.0], ipsc860())[:, 0].tolist() == [
    ...     program_time(p.program, 40.0, ipsc860()) for p in stack.programs]
    True
    """
    compiled = tuple(compile_program(program) for program in programs)
    if not compiled:
        raise ValueError("no programs to stack")
    dims = {program.d for program in compiled}
    if len(dims) > 1:
        raise ValueError(f"stacked programs must share one cube, got d in {sorted(dims)}")
    return ProgramStack(programs=compiled)


def program_times(
    program: CommProgram, ms: Sequence[float], params: MachineParams
) -> np.ndarray:
    """Program times for a batch of block sizes: one numpy pass, or one
    sends-first replay per size for a contended program."""
    if program.contended:
        return np.array([_sends_first_replay(program, m, params, collect=False)[0] for m in ms])
    return compile_program(program).totals(ms, params)


def program_time(program: CommProgram, m: float, params: MachineParams) -> float:
    """Total time of one program: closed form, or the sends-first
    replay of a contended program's rounds.

    Equals the event engine's measured virtual time exactly:

    >>> from repro.core.programs import pattern_program
    >>> from repro.model.params import ipsc860
    >>> from repro.comm.program import simulate
    >>> fast = program_time(pattern_program("broadcast", "binomial", 4), 24, ipsc860())
    >>> fast == simulate("broadcast", "binomial", 4, 24, ipsc860()).time_us
    True
    """
    return float(program_times(program, [m], params)[0])


def program_timeline(
    program: CommProgram, m: float, params: MachineParams
) -> ProgramTimeline:
    """Per-step start/finish timeline along the critical-path chain."""
    return compile_program(program).timeline(m, params)


def batch_program_times(
    configs: Sequence[tuple[CommProgram, float]],
    params: MachineParams,
) -> np.ndarray:
    """Program times for a heterogeneous batch of ``(program, m)`` pairs.

    Configurations sharing a program are evaluated in one
    :func:`program_times` call over their block sizes; the result is
    aligned with ``configs``.
    """
    out = np.empty(len(configs), dtype=np.float64)
    groups: dict[CommProgram, list[int]] = {}
    for index, (program, _) in enumerate(configs):
        groups.setdefault(program, []).append(index)
    for program, indices in groups.items():
        out[indices] = program_times(program, [configs[i][1] for i in indices], params)
    return out


# ----------------------------------------------------------------------
# the complete exchange: its program, compiled once per (d, partition)
# ----------------------------------------------------------------------
@lru_cache(maxsize=512)
def _compile_schedule(d: int, partition: tuple[int, ...]) -> CompiledProgram:
    """The memo behind :func:`compile_schedule`: bounded at 512
    ``(d, partition)`` exchanges, least recently used first out."""
    return _lower_program(
        pattern_program("alltoall", "multiphase", d, partition=partition)
    )


def compile_schedule(d: int, partition: Sequence[int] | None = None) -> CompiledProgram:
    """Compile (and memoize) the exchange program of ``(d, partition)``.

    The result is the :class:`CompiledProgram` of the declared
    exchange, ``pattern_program("alltoall", "multiphase", d,
    partition=partition)``; ``partition=None`` selects the single-phase
    ``(d,)`` schedule, like :func:`repro.comm.program.simulate`
    does.

    >>> from repro.core.programs import pattern_program
    >>> program = pattern_program("alltoall", "multiphase", 4, partition=(2, 2))
    >>> compile_schedule(4, (2, 2)).program == program
    True
    """
    check_dimension(d, minimum=1)
    parts = check_partition(partition if partition is not None else (d,), d)
    return _compile_schedule(d, parts)


def exchange_times(
    d: int,
    ms: Sequence[float],
    partition: Sequence[int] | None,
    params: MachineParams,
) -> np.ndarray:
    """Lockstep exchange times for a batch of block sizes on one schedule."""
    return compile_schedule(d, partition).totals(ms, params)


def exchange_time(
    d: int,
    m: float,
    partition: Sequence[int] | None,
    params: MachineParams,
) -> float:
    """Total time of one contention-free exchange, closed form.

    Equals the event engine's measured virtual time exactly:

    >>> from repro.model.params import ipsc860
    >>> from repro.comm.program import simulate
    >>> fast = exchange_time(4, 24, (2, 2), ipsc860())
    >>> fast == simulate("alltoall", "multiphase", 4, 24, ipsc860(), partition=(2, 2)).time_us
    True
    """
    return float(exchange_times(d, [m], partition, params)[0])


def exchange_timeline(
    d: int,
    m: float,
    partition: Sequence[int] | None,
    params: MachineParams,
) -> ProgramTimeline:
    """Per-step start/finish timeline of one contention-free exchange."""
    return compile_schedule(d, partition).timeline(m, params)


def batch_exchange_times(
    configs: Sequence[tuple[int, float, Sequence[int] | None]],
    params: MachineParams,
) -> np.ndarray:
    """Exchange times for a heterogeneous batch of configurations.

    ``configs`` holds ``(d, m, partition)`` triples; ``partition`` of
    ``None`` selects the *naive rotation baseline* (priced with the
    contention-aware replay), anything else the lockstep closed form.
    Configurations sharing a ``(d, partition)`` schedule are evaluated
    in one vectorized pass; the result is aligned with ``configs``.
    """
    out = np.empty(len(configs), dtype=np.float64)
    groups: dict[tuple[int, tuple[int, ...]], list[int]] = {}
    for index, (d, m, partition) in enumerate(configs):
        if partition is None:
            out[index] = naive_exchange_time(d, m, params)
            continue
        check_dimension(d, minimum=1)
        parts = check_partition(partition, d)
        groups.setdefault((d, parts), []).append(index)
    for (d, parts), indices in groups.items():
        ms = [configs[i][1] for i in indices]
        out[indices] = compile_schedule(d, parts).totals(ms, params)
    return out


# ----------------------------------------------------------------------
# contended programs: the sends-first replay of their rounds
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class NaiveSend:
    """One FORCED send of a sends-first replay, as granted.

    ``step`` is its round's tag (the rotation offset).  ``t_issue`` is
    when the node asked for the circuit, ``t_start`` when every link and
    both endpoint ports were free (the difference is serialization wait
    — the §2 edge-contention penalty in action), ``t_end`` when the
    transfer left the wire.
    """

    src: int
    dst: int
    step: int
    hops: int
    t_issue: float
    t_start: float
    t_end: float

    @property
    def wait(self) -> float:
        """Serialization wait before the circuit was granted."""
        return self.t_start - self.t_issue


@dataclass(frozen=True)
class NaiveTimeline:
    """A contended program (the naive rotation), priced send by send."""

    d: int
    m: float
    total: float
    sends: tuple[NaiveSend, ...]

    @property
    def total_wait(self) -> float:
        """Aggregate serialization wait over all sends (µs)."""
        return sum(send.wait for send in self.sends)

    @property
    def contended_sends(self) -> int:
        """Sends that had to wait for a link or port to free up."""
        return sum(1 for send in self.sends if send.wait > 0.0)


def _sends_first_replay(
    program: CommProgram, m: float, params: MachineParams, *, collect: bool
) -> tuple[float, tuple[NaiveSend, ...]]:
    """Replay the reservations of a contended program's rounds.

    Mirrors the event engine exactly: after the initial barrier every
    node issues one FORCED send per round, in round order, each
    greedily reserving its e-cube links and both endpoint ports (link
    ``src·d + dim``, port ``d·2**d + v``, as ``Network`` numbers them)
    at issue time, and ties at equal virtual times resolve in schedule
    order.  Receives consume no virtual time, so the makespan is the
    last grant's completion.
    """
    rounds, d = program.rounds, program.d
    if not rounds:
        raise ValueError(
            f"no contention model for contended program {program.name!r}: "
            f"it has no sends-first rounds to replay"
        )
    check_dimension(d, minimum=1)
    check_block_size(m)
    n = 1 << d
    ports = d * n
    free_at = [0.0] * (ports + n)
    t0 = params.global_sync_time(d)
    heap = [(t0, rank + 1, rank, 0) for rank in range(n)]
    seq = n
    hop_time = params.hop_time
    # a round's send carries the blocks for its receiver's downstream
    transfer = [
        params.latency + params.byte_time * ((1 << popcount(rnd.reach & (n - 1))) * m)
        for rnd in rounds
    ]
    finish = 0.0
    sends: list[NaiveSend] = []
    while heap:
        t_issue, _, rank, index = heapq.heappop(heap)
        rnd = rounds[index]
        dst = rnd.sends_to(rank)
        hops = popcount(rank ^ dst)
        held = [ports + rank, ports + dst]
        _add_ecube_ids(held, d, rank, dst)
        t_start = t_issue
        for i in held:
            if free_at[i] > t_start:
                t_start = free_at[i]
        t_end = t_start + (transfer[index] + hop_time * hops)
        for i in held:
            free_at[i] = t_end
        # the engine schedules the completion relative to the current
        # clock; reproduce that exact float so ordering cannot drift
        fires_at = t_issue + (t_end - t_issue)
        if fires_at > finish:
            finish = fires_at
        if collect:
            sends.append(NaiveSend(rank, dst, rnd.tag, hops, t_issue, t_start, t_end))
        if index + 1 < len(rounds):
            seq += 1
            heapq.heappush(heap, (fires_at, seq, rank, index + 1))
    return finish, tuple(sends)


def contended_timeline(program: CommProgram, m: float, params: MachineParams) -> NaiveTimeline:
    """A contended program's sends-first replay, with every grant."""
    total, sends = _sends_first_replay(program, m, params, collect=True)
    return NaiveTimeline(d=program.d, m=float(m), total=total, sends=sends)


def _rotation(d: int) -> CommProgram:
    return pattern_program("alltoall", "rotation", d)


@lru_cache(maxsize=4096)
def naive_exchange_time(d: int, m: float, params: MachineParams) -> float:
    """Contention-priced time of the naive rotation baseline: the
    ``alltoall/rotation`` row's :func:`program_time`.

    Matches the event engine's run of the row exactly (asserted by the
    agreement tests; documented tolerance 1e-12 relative), at a
    fraction of the cost: the replay prices the edge and port
    serialization without running coroutines or moving bytes.  Its
    memo, keyed by ``(d, m, params)``, is bounded at 4096 prices, least
    recently used first out.

    >>> from repro.comm.program import simulate
    >>> from repro.model.params import ipsc860
    >>> event = simulate("alltoall", "rotation", 4, 16, ipsc860())
    >>> naive_exchange_time(4, 16, ipsc860()) == event.time_us
    True
    """
    return _sends_first_replay(_rotation(d), m, params, collect=False)[0]


def naive_timeline(d: int, m: float, params: MachineParams) -> NaiveTimeline:
    """The naive baseline with its full per-send grant timeline."""
    return contended_timeline(_rotation(d), m, params)


# ----------------------------------------------------------------------
# why naive is slow: static contention profile + measured serialization
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class NaiveContentionSummary:
    """Static and replayed contention diagnostics of the naive schedule.

    ``static_step_conflicts`` counts over-subscribed links when each
    rotation step runs in isolation — it is 0 for every ``d``: the
    rotation steps are individually link-clean under e-cube
    (``static_step_detail`` carries the per-step provenance backing
    that count: which steps, which links).  The harm comes from
    *drift*: unsynchronized nodes fall out of step until circuits from
    different steps coexist; ``overlap_conflict_links`` and
    ``overlap_max_edge_load`` analyze that envelope (the union of all
    steps' circuits), and ``serialization_wait_us`` /
    ``contended_sends`` report what the reservation replay actually
    measured for this ``(d, m)``.
    """

    d: int
    m: float
    total_us: float
    n_sends: int
    serialization_wait_us: float
    contended_sends: int
    static_step_conflicts: int
    overlap_conflict_links: int
    overlap_max_edge_load: int
    static_step_detail: ScheduleConflicts


def naive_contention_summary(
    d: int, m: float, params: MachineParams
) -> NaiveContentionSummary:
    """Price the naive baseline and explain where the time goes."""
    timeline = naive_timeline(d, m, params)
    per_step = [rnd.circuits(0) for rnd in _rotation(d).rounds]
    union_report = analyze_contention(
        circuit for circuits in per_step for circuit in circuits
    )
    step_detail = count_edge_conflicts(per_step)
    return NaiveContentionSummary(
        d=d,
        m=float(m),
        total_us=timeline.total,
        n_sends=len(timeline.sends),
        serialization_wait_us=timeline.total_wait,
        contended_sends=timeline.contended_sends,
        static_step_conflicts=step_detail.total,
        overlap_conflict_links=len(union_report.edge_conflicts),
        overlap_max_edge_load=union_report.max_edge_load,
        static_step_detail=step_detail,
    )

"""Discrete-event simulator of a circuit-switched hypercube.

The substrate substituting for the paper's Intel iPSC-860: coroutine
processes over a deterministic event engine, e-cube circuit reservation
with link-contention serialization, FORCED/UNFORCED message semantics,
pairwise synchronized exchanges, and global synchronization — all
calibrated by :class:`repro.model.params.MachineParams`.
"""

from repro.sim.engine import Delay, Engine, Process, Request, SimulationError
from repro.sim.fastpath import (
    CompiledProgram,
    NaiveContentionSummary,
    NaiveSend,
    NaiveTimeline,
    ProgramStack,
    ProgramTimeline,
    batch_exchange_times,
    batch_program_times,
    compile_program,
    compile_schedule,
    exchange_time,
    exchange_timeline,
    exchange_times,
    naive_contention_summary,
    naive_exchange_time,
    naive_timeline,
    program_time,
    program_timeline,
    program_times,
    stack_programs,
)
from repro.sim.faults import (
    CrossTraffic,
    FaultPlan,
    LinkDegradation,
    LinkOutage,
    Straggler,
)
from repro.sim.machine import RunResult, SimulatedHypercube
from repro.sim.network import Grant, Network
from repro.sim.node import NodeContext
from repro.sim.trace import (
    BarrierRecord,
    RetryRecord,
    ShuffleRecord,
    Trace,
    TransmissionRecord,
)

__all__ = [
    "BarrierRecord",
    "CompiledProgram",
    "CrossTraffic",
    "Delay",
    "Engine",
    "FaultPlan",
    "Grant",
    "LinkDegradation",
    "LinkOutage",
    "NaiveContentionSummary",
    "NaiveSend",
    "NaiveTimeline",
    "Network",
    "NodeContext",
    "Process",
    "ProgramStack",
    "ProgramTimeline",
    "Request",
    "RetryRecord",
    "RunResult",
    "ShuffleRecord",
    "SimulatedHypercube",
    "SimulationError",
    "Straggler",
    "Trace",
    "TransmissionRecord",
    "batch_exchange_times",
    "batch_program_times",
    "compile_program",
    "compile_schedule",
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

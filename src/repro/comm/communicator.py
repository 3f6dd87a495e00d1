"""mpi4py-flavoured communicator over the simulated machine.

Node programs can code against :class:`Communicator` instead of the raw
request API; its methods are generators meant for ``yield from``, with
naming that follows the mpi4py conventions of the session's HPC guides
(capitalized methods move buffers; ``Alltoall`` and ``Alltoallv``-like
entry points accept numpy arrays).

Example node program::

    def program(ctx):
        comm = Communicator(ctx)
        rank = comm.Get_rank()
        recv = yield from comm.Alltoall(send_rows, partition=(2, 1))
        yield from comm.Barrier()
        return recv
"""

from __future__ import annotations

from typing import Any, Generator, Sequence

import numpy as np

from repro.comm.program import exchange_program, naive_program
from repro.core.schedule import multiphase_schedule
from repro.plan.decision import algorithm_name
from repro.sim.node import NodeContext
from repro.sim.trace import PlanRecord
from repro.util.validation import check_byte_rows, check_partition

__all__ = ["Communicator"]


class Communicator:
    """Rank-level communication API bound to one simulated node."""

    def __init__(self, ctx: NodeContext) -> None:
        self.ctx = ctx

    # ------------------------------------------------------------------
    # identity (mpi4py naming)
    # ------------------------------------------------------------------
    def Get_rank(self) -> int:
        return self.ctx.rank

    def Get_size(self) -> int:
        return self.ctx.n

    @property
    def dimension(self) -> int:
        return self.ctx.d

    # ------------------------------------------------------------------
    # point to point
    # ------------------------------------------------------------------
    def Send(self, buf: Any, dest: int, *, nbytes: int | None = None,
             tag: int = 0, forced: bool = True) -> Generator:
        """Blocking send.  ``nbytes`` defaults to ``buf.nbytes`` for
        array-likes."""
        size = nbytes if nbytes is not None else getattr(buf, "nbytes", 0)
        yield self.ctx.send(dest, buf, size, tag=tag, forced=forced)

    def Recv(self, source: int | None = None, *, tag: int = 0) -> Generator:
        """Blocking receive; returns the payload."""
        payload = yield self.ctx.recv(source, tag=tag)
        return payload

    def Post_recv(self, source: int | None = None, *, tag: int = 0) -> Generator:
        """Post a receive without blocking (FORCED discipline, §7.3)."""
        yield self.ctx.post_recv(source, tag=tag)

    def Sendrecv(self, buf: Any, partner: int, *, nbytes: int | None = None,
                 tag: int = 0) -> Generator:
        """Pairwise synchronized exchange; returns the partner's payload."""
        size = nbytes if nbytes is not None else getattr(buf, "nbytes", 0)
        payload = yield self.ctx.exchange(partner, buf, size, tag=tag)
        return payload

    def Barrier(self) -> Generator:
        yield self.ctx.barrier()

    # ------------------------------------------------------------------
    # collective: the paper's complete exchange
    # ------------------------------------------------------------------
    def Alltoall(
        self,
        send_rows: np.ndarray,
        *,
        partition: Sequence[int] | None = None,
        planner: Any | None = None,
        algorithm: str | None = None,
        tag_base: int = 1 << 20,
    ) -> Generator:
        """Complete exchange of ``send_rows`` (``(n, m)`` uint8, row
        ``j`` bound for rank ``j``).

        Returns the ``(n, m)`` receive array ordered by origin.  The
        algorithm is selected one of three ways, in precedence order:

        * ``planner`` — a shared :class:`repro.plan.CollectivePlanner`
          (any object with ``decide(d, m)``) chooses standard vs.
          multiphase vs. naive per ``(d, m)`` at call time; the
          decision is recorded in the simulator trace (once, by rank
          0), and the planner's per-run cache guarantees all ranks
          execute the same schedule;
        * ``algorithm="naive"`` — the rotation-order baseline schedule,
          exposed here so baseline runs need not bypass the comm layer;
        * ``partition`` — an explicit multiphase partition (defaults to
          the single-phase Optimal Circuit-Switched algorithm).

        All ranks must agree on the selection inputs.
        """
        ctx = self.ctx
        d, n = ctx.d, ctx.n
        rows = check_byte_rows(send_rows, ctx.rank)
        if rows.ndim != 2 or rows.shape[0] != n:
            raise ValueError(f"rank {ctx.rank}: expected ({n}, m) send rows, got {rows.shape}")
        m = rows.shape[1]
        if planner is not None:
            if partition is not None or algorithm is not None:
                raise ValueError(
                    "pass either a planner or an explicit partition/algorithm, not both"
                )
            decision = planner.decide(d, m)
            if ctx.rank == 0:
                ctx.machine.trace.record_plan(
                    PlanRecord.from_decision(decision, t_decided=ctx.now)
                )
            algorithm = decision.algorithm
            partition = decision.partition
        if algorithm == "naive":
            if partition is not None:
                raise ValueError("the naive baseline has no partition")
            result = yield from self._naive_alltoall(rows, tag_base=tag_base)
            return result
        if algorithm is not None:
            # a named algorithm determines (or constrains) the partition
            if algorithm == "standard":
                partition = (1,) * d if partition is None else partition
            elif algorithm == "single-phase":
                partition = (d,) if partition is None else partition
            elif algorithm == "multiphase":
                if partition is None:
                    raise ValueError(
                        "algorithm='multiphase' needs an explicit partition "
                        "(or use a planner to choose one)"
                    )
            else:
                raise ValueError(f"unknown algorithm {algorithm!r} for Alltoall")
            if algorithm_name(tuple(partition)) != algorithm:
                raise ValueError(
                    f"partition {tuple(partition)} realizes "
                    f"{algorithm_name(tuple(partition))!r}, not {algorithm!r}"
                )
        parts = check_partition(partition if partition is not None else (d,), d)
        buf = yield from exchange_program(
            ctx, steps=multiphase_schedule(d, parts), rows=rows, tag_base=tag_base
        )
        return buf.result_rows()

    def _naive_alltoall(self, rows: np.ndarray, *, tag_base: int) -> Generator:
        """Rotation-order exchange of user rows — the contended §2
        baseline, reachable as a policy target.  One shared schedule
        implementation: :func:`repro.comm.program.naive_program`."""
        buf = yield from naive_program(self.ctx, rows=rows, tag_base=tag_base)
        return buf.result_rows()

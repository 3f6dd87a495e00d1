"""Other collective patterns on circuit-switched hypercubes (paper §9).

The paper closes by asking how the all-to-all broadcast, one-to-all
personalized, and one-to-all broadcast patterns [Johnsson & Ho] fare
under the same machine model, noting that the complete exchange —
being the densest requirement — upper-bounds them all.  This
subpackage implements the three patterns (data-level, cost model, and
simulated runs), plus circuit-switched variants that exploit long
circuits the way the paper's optimal exchange does, and verifies the
upper-bound relationship.

Each pattern algorithm is declared once, as a row of
:data:`repro.core.programs.PATTERN_TABLE`.  Four consumers derive from
that row: the priced chain :func:`pattern_program` returns (which
:func:`repro.sim.fastpath.compile_program` prices in one numpy pass),
the static certificate of :func:`repro.check.schedule.verify_pattern`,
the data-level :func:`broadcast` / :func:`scatter` / :func:`allgather`,
and :func:`repro.comm.program.simulate`, which runs every row on one
SPMD interpreter on the event engine.
The planner scores candidates on the fast path and the event engine
only runs as a spot-check.
"""

from repro.core.programs import pattern_program
from repro.patterns.allgather import allgather, allgather_time
from repro.patterns.broadcast import broadcast, broadcast_time
from repro.patterns.scatter import scatter, scatter_direct_time, scatter_time

__all__ = [
    "allgather",
    "allgather_time",
    "broadcast",
    "broadcast_time",
    "pattern_program",
    "scatter",
    "scatter_direct_time",
    "scatter_time",
]

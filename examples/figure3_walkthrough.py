#!/usr/bin/env python
"""Walk through the paper's Figure 3 block-by-block.

Shows the complete data movement of a multiphase exchange on a d=3
cube with partition {2,1}: the initial tableau, the partial exchange
on bits 2-1 (superblocks of 2), the 2-shuffle, the partial exchange on
bit 0 (superblocks of 4), and the final 1-shuffle — printing each
node's (origin:dest) column exactly as the figure draws them.

Usage::

    python examples/figure3_walkthrough.py
"""

from __future__ import annotations

from repro.core.programs import PATTERN_TABLE, pattern_rounds
from repro.core.shuffle import LayoutBuffer
from repro.util.bitops import popcount

D, PARTITION = 3, (2, 1)


def tableau(buffers) -> str:
    n = len(buffers)
    header = "  ".join(f"n{node}  " for node in range(n))
    lines = [header]
    for row in range(n):
        cells = [
            f"{int(buf.origins[row])}:{int(buf.dests[row])} "
            for buf in buffers
        ]
        lines.append("  ".join(cells))
    return "\n".join("    " + line for line in lines)


def main() -> None:
    n = 1 << D
    buffers = [LayoutBuffer(node, D, 1) for node in range(n)]
    rounds = pattern_rounds(
        PATTERN_TABLE[("alltoall", "multiphase")], D, 0, partition=PARTITION
    )

    print("Figure 3: multiphase exchange, d=3, partition {2,1}")
    print("columns are nodes; each cell is origin:dest of the block held there")
    print()
    print("initial state (block index == destination):")
    print(tableau(buffers))

    for rnd in rounds:
        phase = [r for r in rounds if r.phase == rnd.phase]
        if rnd is phase[0]:
            bits = ~rnd.reach & (n - 1)
            hi, lo = bits.bit_length() - 1, (bits & -bits).bit_length() - 1
            print(
                f"\n=> partial exchange, bits {hi}..{lo} "
                f"(superblocks of {1 << (D - popcount(bits))} block(s), "
                f"{len(phase)} pairwise exchanges)"
            )
        # every node sends the run bound for its partner, then refills
        # the vacated run with what the partner sent
        moves = [(dst, buffers[src].send(rnd, dst)) for src, dst in rnd.circuits(0)]
        for dst, blocks in moves:
            buffers[dst].receive(blocks)
        if rnd is phase[-1] and rnd.times:
            print("after the partial exchange:")
            print(tableau(buffers))
            for buf in buffers:
                buf.shuffle(rnd.times)
            print(f"\n=> {rnd.times}-shuffle (rotate block-index bits left {rnd.times})")
            print(tableau(buffers))

    for buf in buffers:
        buf.verify_final()
    print("\nfinal state verified: every node holds blocks sorted by origin,")
    print("every payload byte intact — exactly the figure's last tableau.")


if __name__ == "__main__":
    main()

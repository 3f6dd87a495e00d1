"""Tests for the mpi4py-flavoured communicator facade."""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm.communicator import Communicator
from repro.core.verify import assert_exchange_correct
from repro.model.params import ipsc860
from repro.sim.machine import SimulatedHypercube


def make_send_rows(n, m, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 256, size=(n, m), dtype=np.uint8) for _ in range(n)]


class TestIdentity:
    def test_rank_and_size(self):
        machine = SimulatedHypercube(3, ipsc860())

        def program(ctx):
            comm = Communicator(ctx)
            yield ctx.delay(0.0)
            return comm.Get_rank(), comm.Get_size(), comm.dimension

        result = machine.run(program)
        for rank, (r, s, d) in enumerate(result.node_results):
            assert (r, s, d) == (rank, 8, 3)


class TestPointToPoint:
    def test_send_recv_pair(self):
        machine = SimulatedHypercube(1, ipsc860())

        def program(ctx):
            comm = Communicator(ctx)
            if ctx.rank == 0:
                data = np.arange(4, dtype=np.uint8)
                yield from comm.Post_recv(1, tag=2)
                yield from comm.Barrier()
                yield from comm.Send(data, dest=1, tag=1)
                reply = yield from comm.Recv(1, tag=2)
                return reply
            yield from comm.Post_recv(0, tag=1)
            yield from comm.Barrier()
            got = yield from comm.Recv(0, tag=1)
            yield from comm.Send(got * 2, dest=0, tag=2, nbytes=4)
            return None

        result = machine.run(program)
        assert np.array_equal(result.node_results[0], np.array([0, 2, 4, 6], np.uint8))

    def test_sendrecv_exchange(self):
        machine = SimulatedHypercube(2, ipsc860())

        def program(ctx):
            comm = Communicator(ctx)
            partner = ctx.rank ^ 0b11
            data = np.full(8, ctx.rank, dtype=np.uint8)
            got = yield from comm.Sendrecv(data, partner)
            return int(got[0])

        result = machine.run(program)
        assert result.node_results == [3, 2, 1, 0]


class TestAlltoall:
    @pytest.mark.parametrize("partition", [None, (2, 1), (1, 1, 1)])
    def test_alltoall_correct(self, partition):
        n, m = 8, 12
        send = make_send_rows(n, m)
        machine = SimulatedHypercube(3, ipsc860())

        def program(ctx):
            comm = Communicator(ctx)
            recv = yield from comm.Alltoall(send[ctx.rank], partition=partition)
            return recv

        result = machine.run(program)
        assert_exchange_correct(send, result.node_results)

    def test_alltoall_timing_includes_barriers(self):
        from repro.model.cost import multiphase_time

        params = ipsc860()
        n, m = 8, 16
        send = make_send_rows(n, m)
        machine = SimulatedHypercube(3, params)

        def program(ctx):
            comm = Communicator(ctx)
            yield from comm.Alltoall(send[ctx.rank], partition=(2, 1))
            return None

        result = machine.run(program)
        assert result.time == pytest.approx(multiphase_time(m, 3, (2, 1), params))

    def test_alltoall_shape_validation(self):
        machine = SimulatedHypercube(2, ipsc860())

        def program(ctx):
            comm = Communicator(ctx)
            yield from comm.Alltoall(np.zeros((3, 4), dtype=np.uint8))

        with pytest.raises(ValueError, match="send rows"):
            machine.run(program)

    @pytest.mark.parametrize("rows", [
        np.full((4, 4), 256, dtype=np.int64),
        np.full((4, 4), -1.7),
    ])
    def test_alltoall_rejects_rows_that_are_not_bytes(self, rows):
        machine = SimulatedHypercube(2, ipsc860())

        def program(ctx):
            comm = Communicator(ctx)
            yield from comm.Alltoall(rows)

        with pytest.raises(ValueError, match=f"node 0: .*{rows.dtype}"):
            machine.run(program)

    def test_alltoall_accepts_integer_bytes(self):
        machine = SimulatedHypercube(2, ipsc860())
        send = [np.arange(8).reshape(4, 2) + 4 * rank for rank in range(4)]

        def program(ctx):
            comm = Communicator(ctx)
            recv = yield from comm.Alltoall(send[ctx.rank])
            return recv

        result = machine.run(program)
        assert_exchange_correct(
            [rows.astype(np.uint8) for rows in send], result.node_results
        )

    def test_alltoall_rejects_bad_partition(self):
        machine = SimulatedHypercube(2, ipsc860())

        def program(ctx):
            comm = Communicator(ctx)
            yield from comm.Alltoall(np.zeros((4, 4), dtype=np.uint8), partition=(3,))

        with pytest.raises(ValueError):
            machine.run(program)

"""Failure-injection tests: broken links on a fixed-routing machine,
plus the seeded :class:`~repro.sim.faults.FaultPlan` chaos layer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm.program import exchange_program, simulate_exchange
from repro.core.schedule import multiphase_schedule
from repro.hypercube.topology import Hypercube, Link
from repro.model.params import ipsc860
from repro.sim.engine import SimulationError
from repro.sim.faults import (
    CrossTraffic,
    FaultPlan,
    LinkDegradation,
    LinkOutage,
    Straggler,
)
from repro.sim.machine import SimulatedHypercube
from repro.sim.network import Network
from repro.sim.trace import Trace


class TestLinkFailure:
    def test_circuit_through_failed_link_raises(self):
        machine = SimulatedHypercube(3, ipsc860())
        machine.network.fail_link(Link(0, 1))

        def program(ctx):
            if ctx.rank in (0, 1):
                yield ctx.exchange(ctx.rank ^ 1, payload=None, nbytes=8)

        with pytest.raises(SimulationError, match="failed link"):
            machine.run(program)

    def test_unrelated_circuits_unaffected(self):
        machine = SimulatedHypercube(3, ipsc860())
        machine.network.fail_link(Link(0, 1))

        def program(ctx):
            if ctx.rank in (6, 7):
                yield ctx.exchange(ctx.rank ^ 1, payload=ctx.rank, nbytes=8)
                return "done"
            yield ctx.delay(0.0)
            return "idle"

        result = machine.run(program)
        assert result.node_results[6] == "done"

    def test_intermediate_hop_failure_detected(self):
        """The failed link need not touch either endpoint: e-cube from
        2 to 23 rides 3->7."""
        machine = SimulatedHypercube(5, ipsc860())
        machine.network.fail_link(Link(3, 7))

        def program(ctx):
            if ctx.rank == 2:
                yield ctx.send(23, payload=None, nbytes=4, tag=0)
            elif ctx.rank == 23:
                yield ctx.recv(2, tag=0)
            else:
                yield ctx.delay(0.0)

        with pytest.raises(SimulationError, match="3->7"):
            machine.run(program)

    def test_restore_link(self):
        machine = SimulatedHypercube(2, ipsc860())
        machine.network.fail_link(Link(0, 1))
        machine.network.restore_link(Link(0, 1))

        def program(ctx):
            other = ctx.rank ^ 1
            got = yield ctx.exchange(other, payload=ctx.rank, nbytes=4)
            return got

        result = machine.run(program)
        assert result.node_results[0] == 1

    def test_one_directional_failure(self):
        machine = SimulatedHypercube(1, ipsc860())
        machine.network.fail_link(Link(0, 1), both_directions=False)

        def program(ctx):
            # only 1 -> 0 traffic; the 0 -> 1 direction is dead but unused
            if ctx.rank == 1:
                yield ctx.send(0, payload="ok", nbytes=4, tag=0)
            else:
                got = yield ctx.recv(1, tag=0)
                return got

        assert machine.run(program).node_results[0] == "ok"


class TestExchangeUnderFaults:
    def test_whole_exchange_fails_loudly_not_silently(self):
        """A complete exchange over a cube with any dead link must
        raise, never deliver a quietly-wrong result."""
        machine = SimulatedHypercube(3, ipsc860())
        machine.network.fail_link(Link(5, 7))
        steps = multiphase_schedule(3, (2, 1))
        with pytest.raises(SimulationError, match="failed link"):
            machine.run(exchange_program, steps=steps, m=8, engine="tags")

    def test_every_single_link_is_load_bearing(self):
        """For the single-phase exchange on d=2, failing each of the 8
        directed links individually always breaks the run — the
        schedule uses the whole machine."""
        from repro.hypercube.topology import Hypercube

        for link in Hypercube(2).links():
            machine = SimulatedHypercube(2, ipsc860())
            machine.network.fail_link(link, both_directions=False)
            steps = multiphase_schedule(2, (2,))
            with pytest.raises(SimulationError):
                machine.run(exchange_program, steps=steps, m=4, engine="tags")


class TestLinkGuards:
    """fail_link/restore_link must reject links outside the cube
    (Link only checks adjacency, so Link(8, 9) is a valid object — of
    a larger cube — and used to be accepted silently)."""

    def test_fail_link_outside_cube_raises(self):
        machine = SimulatedHypercube(3, ipsc860())
        with pytest.raises(ValueError, match="8->9"):
            machine.network.fail_link(Link(8, 9))

    def test_restore_link_outside_cube_raises(self):
        machine = SimulatedHypercube(2, ipsc860())
        with pytest.raises(ValueError, match="4->5"):
            machine.network.restore_link(Link(4, 5))

    def test_guard_names_the_cube_bounds(self):
        machine = SimulatedHypercube(2, ipsc860())
        with pytest.raises(ValueError, match="2-cube"):
            machine.network.fail_link(Link(4, 6))

    def test_in_cube_links_still_accepted(self):
        machine = SimulatedHypercube(3, ipsc860())
        machine.network.fail_link(Link(6, 7))
        machine.network.restore_link(Link(6, 7))


class TestFaultPlanConstruction:
    def test_empty_plan_is_empty(self):
        plan = FaultPlan(d=3)
        assert plan.is_empty
        assert plan.path_scales([Link(0, 1)]) == (1.0, 1.0)
        assert plan.compute_scale(5) == 1.0
        assert plan.down_until(Link(0, 1), 10.0) is None

    def test_degradation_scales_below_one_rejected(self):
        with pytest.raises(ValueError, match=">= 1.0"):
            LinkDegradation(Link(0, 1), latency_scale=0.5)

    def test_straggler_scale_below_one_rejected(self):
        with pytest.raises(ValueError, match=">= 1.0"):
            Straggler(node=0, compute_scale=0.9)

    def test_outage_window_must_be_ordered(self):
        with pytest.raises(ValueError, match="t_fail < t_heal"):
            LinkOutage(Link(0, 1), t_fail=100.0, t_heal=100.0)

    def test_cross_traffic_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            CrossTraffic(src=2, dst=2, nbytes=8, period_us=10.0)

    def test_plan_rejects_nodes_outside_cube(self):
        with pytest.raises(ValueError):
            FaultPlan(d=2, stragglers=(Straggler(node=4, compute_scale=2.0),))

    def test_machine_rejects_mismatched_plan_dimension(self):
        with pytest.raises(ValueError, match="3-cube"):
            SimulatedHypercube(2, ipsc860(), fault_plan=FaultPlan(d=3))

    def test_backoff_is_capped_exponential(self):
        plan = FaultPlan(d=2, retry_base_us=50.0, retry_cap_us=800.0)
        delays = [plan.backoff_us(a) for a in range(7)]
        assert delays == [50.0, 100.0, 200.0, 400.0, 800.0, 800.0, 800.0]

    def test_path_scales_take_worst_link(self):
        plan = FaultPlan(
            d=2,
            degradations=(
                LinkDegradation(Link(0, 1), 2.0, 1.5),
                LinkDegradation(Link(1, 3), 1.25, 4.0),
            ),
        )
        assert plan.path_scales([Link(0, 1), Link(1, 3)]) == (2.0, 4.0)


def _outage_probes(plan: FaultPlan) -> list[float]:
    """Instants at, inside and just outside every outage window."""
    probes = {0.0, 1e9}
    for o in plan.outages:
        probes |= {o.t_fail, o.t_heal, (o.t_fail + o.t_heal) / 2,
                   float(np.nextafter(o.t_fail, 0.0)), float(np.nextafter(o.t_heal, 0.0))}
    return sorted(probes)


class TestLinkIds:
    """The network's reservation table and the plan's lookups key a
    directed link by its id ``src·d + dim``; each id lookup must equal
    the ``Link`` lookup it replaces."""

    def test_id_order_is_not_link_order(self):
        cube = Hypercube(2)
        assert Link(3, 1) < Link(3, 2)
        assert cube.link_index(Link(3, 1)) == 7 > cube.link_index(Link(3, 2)) == 6
        assert [cube.link_at(i) for i in range(cube.n_links)] == list(cube.links())

    @pytest.mark.parametrize("d", range(1, 5))
    def test_generated_plan_lookups_by_id_equal_link_lookups(self, d):
        plan = FaultPlan.generate(
            d, seed=2024 + d, degraded_link_fraction=0.5, link_failure_rate=0.5,
            horizon_us=2_000.0, outage_duration_range_us=(100.0, 600.0),
        )
        cube = Hypercube(d)
        probes = _outage_probes(plan)
        for link in cube.links():
            link_id = cube.link_index(link)
            assert cube.link_at(link_id) == link
            assert plan.path_scales_by_id([link_id]) == plan.path_scales([link])
            assert plan.path_scales([link]) == plan.link_scales(link)
            for t in probes:
                assert plan.down_until_by_id(link_id, t) == plan.down_until(link, t)
        net = Network(cube, ipsc860(), Trace(), fault_plan=plan)
        for a in cube.nodes():
            for b in cube.nodes():
                links = net.exchange_links(a, b)
                ids = [cube.link_index(link) for link in links]
                # endpoint ports are not links and scale nothing
                assert plan.path_scales_by_id(ids) == plan.path_scales(links | {net.port(a)})

    def test_one_directional_records_keep_their_direction(self):
        """Generated plans hit both directions of a wire alike; records
        on one direction only must not leak onto the other, nor onto a
        link whose id is adjacent."""
        plan = FaultPlan(
            d=2,
            degradations=(LinkDegradation(Link(3, 1), 2.0, 3.0),),
            outages=(LinkOutage(Link(3, 2), 10.0, 20.0),),
        )
        cube = Hypercube(2)
        for link in cube.links():
            link_id = cube.link_index(link)
            scales = (2.0, 3.0) if link == Link(3, 1) else (1.0, 1.0)
            assert plan.path_scales_by_id([link_id]) == plan.link_scales(link) == scales
            heal = 20.0 if link == Link(3, 2) else None
            assert plan.down_until_by_id(link_id, 15.0) == plan.down_until(link, 15.0) == heal
        assert plan.link_scales(Link(4, 5)) == (1.0, 1.0)  # another cube's link
        assert plan.down_until(Link(4, 5), 15.0) is None

    def test_retry_names_the_smallest_down_link(self):
        """With several links of a circuit down, the retry record names
        the smallest ``Link`` in ``(src, dst)`` order, not the smallest
        id."""
        links = (Link(3, 1), Link(3, 2))
        plan = FaultPlan(d=2, outages=tuple(LinkOutage(link, 0.0, 60.0) for link in links))
        net = Network(Hypercube(2), ipsc860(), Trace(), fault_plan=plan)
        ids = sorted(net.cube.link_index(link) for link in links)
        assert net._await_alive(0.0, ids, src=3, dst=0, tag=5) == 150.0
        assert [r.link for r in net.trace.retries] == ["3->1", "3->1"]

    def test_exchange_blocked_on_every_link_names_the_smallest(self):
        cube = Hypercube(3)
        net = Network(cube, ipsc860(), Trace())
        circuit = net.exchange_links(1, 6)
        plan = FaultPlan(d=3, outages=tuple(LinkOutage(link, 0.0, 60.0) for link in circuit))
        net = Network(cube, ipsc860(), Trace(), fault_plan=plan)
        grant = net.start_exchange(0.0, 1, 6, 8, 8, tag=0)
        assert grant.t_start == 150.0
        assert {r.link for r in net.trace.retries} == {str(min(circuit))}


class TestFaultPlanGeneration:
    def test_same_seed_same_plan(self):
        kwargs = dict(
            degraded_link_fraction=0.5,
            straggler_fraction=0.25,
            link_failure_rate=0.3,
            cross_traffic_flows=2,
        )
        a = FaultPlan.generate(4, 42, **kwargs)
        b = FaultPlan.generate(4, 42, **kwargs)
        assert a.as_dict() == b.as_dict()

    def test_different_seed_different_plan(self):
        a = FaultPlan.generate(4, 1, degraded_link_fraction=0.5)
        b = FaultPlan.generate(4, 2, degraded_link_fraction=0.5)
        assert a.as_dict() != b.as_dict()

    def test_degradation_hits_both_directions(self):
        plan = FaultPlan.generate(3, 9, degraded_link_fraction=1.0)
        for record in plan.degradations:
            assert plan.link_scales(record.link.reverse) == (
                record.latency_scale,
                record.bandwidth_scale,
            )

    def test_fraction_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="degraded_link_fraction"):
            FaultPlan.generate(3, 0, degraded_link_fraction=1.5)


class TestDegradedTiming:
    def test_degraded_link_scales_exchange_exactly(self):
        params = ipsc860()
        lat_scale, bw_scale = 2.0, 3.0
        plan = FaultPlan(
            d=1,
            degradations=(
                LinkDegradation(Link(0, 1), lat_scale, bw_scale),
                LinkDegradation(Link(1, 0), lat_scale, bw_scale),
            ),
        )
        machine = SimulatedHypercube(1, params, fault_plan=plan)

        def program(ctx):
            yield ctx.exchange(ctx.rank ^ 1, payload=None, nbytes=32)

        result = machine.run(program)
        expected = (
            params.exchange_latency * lat_scale
            + params.byte_time * bw_scale * 32
            + params.exchange_hop_time
        )
        assert result.time == expected

    def test_straggler_scales_delay_and_shuffle(self):
        params = ipsc860()
        plan = FaultPlan(d=1, stragglers=(Straggler(node=1, compute_scale=3.0),))
        machine = SimulatedHypercube(1, params, fault_plan=plan)

        def program(ctx):
            yield ctx.delay(100.0)
            yield ctx.shuffle(64)

        result = machine.run(program)
        expected = 3.0 * (100.0 + params.shuffle_time(64))
        assert result.time == expected
        fast = [s for s in result.trace.shuffles if s.node == 0]
        assert fast[0].t_end - fast[0].t_start == params.shuffle_time(64)

    def test_empty_plan_matches_no_plan_exactly(self):
        clean = simulate_exchange(3, 16, (2, 1), ipsc860())
        empty = simulate_exchange(3, 16, (2, 1), ipsc860(), fault_plan=FaultPlan(d=3))
        assert empty.time_us == clean.time_us


class TestScheduledOutages:
    def test_outage_survived_by_retry(self):
        """A send into a down window blocks, backs off, and lands after
        the heal — zero drops, every wait in the trace."""
        params = ipsc860()
        plan = FaultPlan(
            d=1,
            outages=(
                LinkOutage(Link(0, 1), t_fail=0.0, t_heal=1000.0),
                LinkOutage(Link(1, 0), t_fail=0.0, t_heal=1000.0),
            ),
        )
        machine = SimulatedHypercube(1, params, fault_plan=plan)

        def program(ctx):
            got = yield ctx.exchange(ctx.rank ^ 1, payload=ctx.rank, nbytes=8)
            return got

        result = machine.run(program)
        # backoffs 50, 100, 200, 400, 800 land the retry at t=1550,
        # the first probe past the heal time
        assert [r.backoff for r in result.trace.retries] == [
            50.0, 100.0, 200.0, 400.0, 800.0,
        ]
        assert result.trace.retries[-1].t_retry == 1550.0
        expected = 1550.0 + params.exchange_latency + params.byte_time * 8 \
            + params.exchange_hop_time
        assert result.time == expected
        assert result.node_results == [1, 0]
        assert len(result.trace.dropped_messages) == 0

    def test_traffic_outside_window_unaffected(self):
        params = ipsc860()
        plan = FaultPlan(
            d=1, outages=(LinkOutage(Link(0, 1), t_fail=5000.0, t_heal=6000.0),)
        )
        machine = SimulatedHypercube(1, params, fault_plan=plan)

        def program(ctx):
            yield ctx.exchange(ctx.rank ^ 1, payload=None, nbytes=8)

        result = machine.run(program)
        assert len(result.trace.retries) == 0
        clean = SimulatedHypercube(1, params).run(program)
        assert result.time == clean.time

    def test_full_exchange_survives_outages_byte_verified(self):
        plan = FaultPlan(
            d=3,
            outages=(
                LinkOutage(Link(0, 4), 0.0, 900.0),
                LinkOutage(Link(4, 0), 0.0, 900.0),
                LinkOutage(Link(2, 3), 200.0, 1500.0),
            ),
        )
        result = simulate_exchange(3, 16, (2, 1), ipsc860(), fault_plan=plan)
        # verify=True ran inside simulate_exchange; the run must also
        # have actually hit the outage (else this test checks nothing)
        assert len(result.trace.retries) > 0
        assert len(result.trace.dropped_messages) == 0

    def test_manual_fail_link_still_raises(self):
        """Manual failures have no heal time: raising (not retrying)
        remains their contract even with a fault plan active."""
        machine = SimulatedHypercube(2, ipsc860(), fault_plan=FaultPlan(d=2))
        machine.network.fail_link(Link(0, 1))

        def program(ctx):
            if ctx.rank in (0, 1):
                yield ctx.exchange(ctx.rank ^ 1, payload=None, nbytes=8)

        with pytest.raises(SimulationError, match="failed link"):
            machine.run(program)


class TestCrossTraffic:
    def test_background_flow_recorded_and_bounded(self):
        params = ipsc860()
        plan = FaultPlan(
            d=2,
            cross_traffic=(
                CrossTraffic(src=0, dst=1, nbytes=64, period_us=200.0, n_messages=3),
            ),
        )
        machine = SimulatedHypercube(2, params, fault_plan=plan)

        def program(ctx):
            if ctx.rank in (2, 3):
                yield ctx.exchange(ctx.rank ^ 1, payload=None, nbytes=8)
            else:
                yield ctx.delay(0.0)

        result = machine.run(program)
        cross = [t for t in result.trace.transmissions if t.kind == "cross"]
        assert len(cross) == 3
        assert all(t.tag == -1 for t in cross)
        # completion is the node programs' end, not the background tail
        assert result.extras["engine_time"] >= result.time

    def test_cross_traffic_contends_for_links(self):
        """A flow hammering the 0->1 wire delays a workload message
        that needs it."""
        params = ipsc860()
        flow = CrossTraffic(src=0, dst=1, nbytes=4096, period_us=1.0, n_messages=1)
        plan = FaultPlan(d=1, cross_traffic=(flow,))

        def program(ctx):
            if ctx.rank == 0:
                yield ctx.delay(1.0)  # let the cross message grab the link
                yield ctx.send(1, payload=None, nbytes=8, tag=0)
            else:
                yield ctx.recv(0, tag=0)

        contended = SimulatedHypercube(1, params, fault_plan=plan).run(program)
        clean = SimulatedHypercube(1, params).run(program)
        assert contended.time > clean.time

    def test_cross_traffic_contends_with_an_exchange(self):
        """A pairwise exchange shares the one reservation table with
        background traffic: a cross message holding the 0->1 wire
        delays the exchange until it leaves."""
        params = ipsc860()
        flow = CrossTraffic(src=0, dst=1, nbytes=4096, period_us=1.0, n_messages=1)
        plan = FaultPlan(d=1, cross_traffic=(flow,))

        def program(ctx):
            yield ctx.delay(1.0)  # let the cross message grab the link
            got = yield ctx.exchange(ctx.rank ^ 1, payload=ctx.rank, nbytes=8)
            return got

        contended = SimulatedHypercube(1, params, fault_plan=plan).run(program)
        clean = SimulatedHypercube(1, params).run(program)
        (cross,) = [t for t in contended.trace.transmissions if t.kind == "cross"]
        exchange = [t for t in contended.trace.transmissions if t.kind == "exchange"]
        assert len(exchange) == 2
        assert cross.t_start == 0.0
        assert all(t.t_request == 1.0 and t.t_start == cross.t_end for t in exchange)
        assert contended.time == cross.t_end + params.exchange_time(8, 1)
        assert contended.time > clean.time
        assert contended.node_results == clean.node_results == [1, 0]

    def test_unsynchronized_message_then_exchange_serialize(self):
        """An UNFORCED message 2 -> 1 holds the e-cube links 2->3 and
        3->1; the 1 <-> 3 exchange needs 3->1, so it waits for the
        message to leave the wire."""
        params = ipsc860()

        def program(ctx):
            if ctx.rank == 2:
                yield ctx.send(1, payload="m", nbytes=4096, tag=7, forced=False)
            elif ctx.rank in (1, 3):
                yield ctx.delay(1.0)
                yield ctx.exchange(ctx.rank ^ 2, payload=ctx.rank, nbytes=8)
                if ctx.rank == 1:
                    return (yield ctx.recv(2, tag=7))
            else:
                yield ctx.delay(0.0)

        result = SimulatedHypercube(2, params).run(program)
        (message,) = [t for t in result.trace.transmissions if t.kind == "unforced"]
        exchange = [t for t in result.trace.transmissions if t.kind == "exchange"]
        assert message.t_start == 0.0
        assert len(exchange) == 2
        assert all(t.t_start == message.t_end > t.t_request == 1.0 for t in exchange)
        assert result.node_results[1] == "m"

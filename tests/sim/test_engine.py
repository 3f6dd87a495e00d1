"""Tests for the discrete-event engine."""

from __future__ import annotations

import pytest

from repro.sim.engine import Delay, Engine, Request, SharedCompletion, SimulationError


class _Park(Request):
    """A wait nothing completes: the test resumes it by hand."""

    __slots__ = ()

    def activate(self, engine, process):
        pass


def _parked(engine, name):
    """A started process parked on a :class:`_Park`; a fail() is caught
    and parks it again, so each fail supersedes the current wait."""

    def proc():
        got = []
        while True:
            try:
                got.append((yield _Park()))
            except SimulationError:
                got.append("failed")
            if len(got) == 2:
                return got

    process = engine.spawn(proc(), name=name)
    process.resume(None)  # start it by hand (its start event goes stale)
    return process


class TestScheduling:
    def test_events_fire_in_time_order(self):
        engine = Engine()
        log = []
        engine.schedule(5.0, lambda: log.append("b"))
        engine.schedule(1.0, lambda: log.append("a"))
        engine.schedule(9.0, lambda: log.append("c"))
        engine.run()
        assert log == ["a", "b", "c"]
        assert engine.now == 9.0

    def test_ties_fire_in_schedule_order(self):
        engine = Engine()
        log = []
        for name in "abc":
            engine.schedule(2.0, lambda n=name: log.append(n))
        engine.run()
        assert log == ["a", "b", "c"]

    def test_rejects_past(self):
        engine = Engine()
        with pytest.raises(ValueError):
            engine.schedule(-1.0, lambda: None)

    def test_at_absolute_time(self):
        engine = Engine()
        seen = []
        engine.at(4.0, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [4.0]

    def test_until_caps_run(self):
        engine = Engine()
        log = []
        engine.schedule(1.0, lambda: log.append(1))
        engine.schedule(10.0, lambda: log.append(10))
        final = engine.run(until=5.0)
        assert log == [1]
        assert final == 5.0

    def test_event_cap(self):
        engine = Engine()

        def reschedule():
            engine.schedule(1.0, reschedule)

        engine.schedule(0.0, reschedule)
        with pytest.raises(SimulationError, match="event cap"):
            engine.run(max_events=100)

    def test_n_events_counted(self):
        engine = Engine()
        for _ in range(5):
            engine.schedule(1.0, lambda: None)
        engine.run()
        assert engine.n_events == 5


class TestProcesses:
    def test_delay_and_result(self):
        engine = Engine()

        def proc():
            yield Delay(3.0)
            yield Delay(4.0)
            return "done"

        process = engine.spawn(proc())
        engine.run()
        assert process.finished
        assert process.result == "done"
        assert process.end_time == 7.0

    def test_multiple_processes_interleave(self):
        engine = Engine()
        log = []

        def proc(name, step):
            for i in range(3):
                yield Delay(step)
                log.append((engine.now, name))

        engine.spawn(proc("fast", 1.0), name="fast")
        engine.spawn(proc("slow", 2.0), name="slow")
        engine.run()
        # at t=2.0 slow's event was scheduled earlier (t=0) than fast's
        # second delay (t=1), so slow wins the tie
        assert log == [
            (1.0, "fast"), (2.0, "slow"), (2.0, "fast"),
            (3.0, "fast"), (4.0, "slow"), (6.0, "slow"),
        ]

    def test_rejects_non_request_yield(self):
        engine = Engine()

        def proc():
            yield 42

        engine.spawn(proc())
        with pytest.raises(SimulationError, match="yielded"):
            engine.run()

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Delay(-1.0)

    def test_deadlock_detection(self):
        from repro.sim.engine import Request

        class Never(Request):
            def activate(self, engine, process):
                pass  # never resumes

        engine = Engine()

        def proc():
            yield Never()

        engine.spawn(proc(), name="stuck")
        with pytest.raises(SimulationError, match="deadlock.*stuck"):
            engine.run()

    def test_determinism(self):
        def run_once():
            engine = Engine()
            log = []

            def proc(name, step):
                for _ in range(4):
                    yield Delay(step)
                    log.append((engine.now, name))

            engine.spawn(proc("a", 1.5))
            engine.spawn(proc("b", 1.5))
            engine.run()
            return log

        assert run_once() == run_once()




class TestRunUntil:
    def test_run_until_preserves_future_events(self):
        """Regression: run(until=...) used to pop-and-drop the first
        event past the deadline; it must stay queued for a later run."""
        engine = Engine()
        log = []
        engine.schedule(5.0, lambda: log.append("later"))
        assert engine.run(until=1.0) == 1.0
        assert log == []
        engine.run()
        assert log == ["later"]

    def test_run_until_keeps_tie_order(self):
        engine = Engine()
        log = []
        for name in "abc":
            engine.schedule(2.0, lambda n=name: log.append(n))
        engine.run(until=1.0)
        engine.run()
        assert log == ["a", "b", "c"]


class TestFail:
    """Process.fail: throwing a fatal condition into a coroutine."""

    def test_uncaught_exception_propagates(self):
        engine = Engine()

        def proc():
            yield Delay(1.0)

        process = engine.spawn(proc(), name="victim")
        engine.run(until=0.5)
        with pytest.raises(SimulationError, match="boom"):
            process.fail(SimulationError("boom"))
        assert not process.finished

    def test_catch_and_return_marks_finished(self):
        """A generator that catches the injected exception and returns
        must end up finished with its result and end time recorded —
        not leak StopIteration out of the engine."""
        engine = Engine()

        def proc():
            try:
                yield Delay(10.0)
            except SimulationError:
                return "cleaned up"

        process = engine.spawn(proc(), name="tidy")
        engine.run(until=3.0)
        process.fail(SimulationError("link down"))
        assert process.finished
        assert process.result == "cleaned up"
        assert process.end_time == 3.0
        # the superseded Delay's event is still queued but inert:
        # draining the heap must not resume the finished process
        engine.run()
        assert process.result == "cleaned up"

    def test_catch_and_return_notifies_engine(self):
        finished = []

        class Recording(Engine):
            def _process_finished(self, process):
                finished.append(process.name)

        engine = Recording()

        def proc():
            try:
                yield Delay(10.0)
            except SimulationError:
                return None

        process = engine.spawn(proc(), name="observed")
        engine.run(until=1.0)
        process.fail(SimulationError("halt"))
        assert finished == ["observed"]

    def test_catch_and_continue_keeps_running(self):
        """A generator that catches the exception and yields a new
        request keeps running on that request — and the superseded
        wait's scheduled completion must not resume it early."""
        engine = Engine()

        def proc():
            try:
                yield Delay(100.0)
            except SimulationError:
                yield Delay(2.0)
            return "recovered"

        process = engine.spawn(proc(), name="phoenix")
        engine.run(until=1.0)
        process.fail(SimulationError("retry"))
        assert not process.finished
        engine.run()
        assert process.finished
        assert process.result == "recovered"
        # recovered at fail time (1.0) + 2.0, NOT at the stale 100.0
        assert process.end_time == 3.0

    def test_fail_scheduled_mid_run(self):
        """fail() fired from inside the event loop: the stale Delay
        completion later in the heap must not crash the run by
        resuming the already-finished process."""
        engine = Engine()

        def proc():
            try:
                yield Delay(10.0)
            except SimulationError:
                return "cleaned"

        process = engine.spawn(proc(), name="tidy")
        engine.schedule(3.0, lambda: process.fail(SimulationError("halt")))
        engine.run()
        assert process.finished
        assert process.result == "cleaned"
        assert process.end_time == 3.0

    def test_fail_after_completion_rejected(self):
        engine = Engine()

        def proc():
            yield Delay(1.0)
            return "ok"

        process = engine.spawn(proc(), name="done")
        engine.run()
        assert process.finished
        with pytest.raises(SimulationError, match="after completion"):
            process.fail(SimulationError("too late"))

    def test_fail_during_machine_request_wait(self):
        """Regression: machine-request completions (shuffle, exchange,
        ...) are scheduled through the epoch guard too, so failing a
        process mid-shuffle must not let the stale completion resume
        the finished process and crash the run."""
        from repro.model.params import ipsc860
        from repro.sim.machine import SimulatedHypercube

        machine = SimulatedHypercube(1, ipsc860())

        def program(ctx):
            try:
                yield ctx.shuffle(100_000)  # long permutation pass
            except SimulationError:
                return "aborted"
            return "done"

        processes = [
            machine.engine.spawn(program(ctx), name=f"node{ctx.rank}")
            for ctx in machine.contexts
        ]
        machine.engine.schedule(
            1.0, lambda: processes[0].fail(SimulationError("injected"))
        )
        machine.engine.run()
        assert processes[0].result == "aborted"
        assert processes[0].end_time == 1.0
        assert processes[1].result == "done"


class TestFailInMachineQueues:
    """fail() while parked in a machine wait registry: the stale
    registry entry must neither crash the run nor resume the
    process's next wait."""

    def _machine(self):
        from repro.model.params import ipsc860
        from repro.sim.machine import SimulatedHypercube

        return SimulatedHypercube(1, ipsc860())

    def test_fail_while_blocked_on_recv(self):
        """A failed-and-returned receiver leaves a stale blocked-recv
        entry; the later delivery must fall through to buffering, not
        resume the finished process."""
        machine = self._machine()

        def receiver(ctx):
            try:
                got = yield ctx.recv(1, tag=0)
            except SimulationError:
                return "aborted"
            return got

        def sender(ctx):
            yield ctx.delay(5.0)
            yield ctx.send(0, payload="hello", nbytes=4, tag=0, forced=False)
            return "sent"

        procs = [
            machine.engine.spawn(receiver(machine.contexts[0]), name="recv0"),
            machine.engine.spawn(sender(machine.contexts[1]), name="send1"),
        ]
        machine.engine.schedule(1.0, lambda: procs[0].fail(SimulationError("cut")))
        machine.engine.run()
        assert procs[0].result == "aborted"
        assert procs[0].end_time == 1.0
        assert procs[1].result == "sent"
        # the message was buffered for nobody, not delivered to a ghost
        assert len(machine.contexts[0].state.buffered) == 1

    def test_fail_while_parked_in_rendezvous(self):
        """A failed exchange waiter's rendezvous entry is stale: the
        arriving partner must not pair with it (and must not resume
        the failed process's NEW wait with the exchange payload)."""
        machine = self._machine()

        def victim(ctx):
            try:
                got = yield ctx.exchange(1, payload="p0", nbytes=4)
            except SimulationError:
                got = yield ctx.delay(50.0)  # new wait; must complete intact
            return ("recovered", got)

        def partner(ctx):
            yield ctx.delay(2.0)
            got = yield ctx.exchange(0, payload="p1", nbytes=4)
            return got

        procs = [
            machine.engine.spawn(victim(machine.contexts[0]), name="victim"),
            machine.engine.spawn(partner(machine.contexts[1]), name="partner"),
        ]
        machine.engine.schedule(1.0, lambda: procs[0].fail(SimulationError("cut")))
        # the partner now waits for an exchange that can never complete
        with pytest.raises(SimulationError, match="deadlock.*partner"):
            machine.engine.run()
        # ...but the victim recovered cleanly: its delay returned the
        # delay's value, not the partner's payload, at the right time
        assert procs[0].result == ("recovered", None)
        assert procs[0].end_time == 51.0

    def test_fail_while_waiting_at_barrier(self):
        """A barrier waiter that fails and leaves no longer counts as
        arrived: the barrier cannot complete (same semantics as a dead
        rendezvous partner), and the survivor is reported as
        deadlocked rather than released without full participation."""
        machine = self._machine()

        def victim(ctx):
            try:
                yield ctx.barrier()
            except SimulationError:
                yield ctx.delay(100.0)
            return "recovered"

        def late(ctx):
            yield ctx.delay(2.0)
            yield ctx.barrier()
            return "released"

        procs = [
            machine.engine.spawn(victim(machine.contexts[0]), name="victim"),
            machine.engine.spawn(late(machine.contexts[1]), name="late"),
        ]
        machine.engine.schedule(1.0, lambda: procs[0].fail(SimulationError("cut")))
        with pytest.raises(SimulationError, match="deadlock.*late"):
            machine.engine.run()
        # the failed waiter itself recovered cleanly in the meantime
        assert procs[0].result == "recovered"
        assert procs[0].end_time == 101.0  # fail at 1.0 + its own 100us delay

    def test_fail_at_barrier_then_reenter(self):
        """A waiter that fails at a barrier, catches, and re-enters
        must not be double-counted: the barrier still waits for the
        other node."""
        machine = self._machine()

        def victim(ctx):
            try:
                yield ctx.barrier()
            except SimulationError:
                yield ctx.barrier()  # try again; stale entry must not count
            return "victim done"

        def late(ctx):
            yield ctx.delay(500.0)
            yield ctx.barrier()
            return "late done"

        procs = [
            machine.engine.spawn(victim(machine.contexts[0]), name="victim"),
            machine.engine.spawn(late(machine.contexts[1]), name="late"),
        ]
        machine.engine.schedule(1.0, lambda: procs[0].fail(SimulationError("cut")))
        machine.engine.run()
        assert procs[0].result == "victim done"
        assert procs[1].result == "late done"
        # release only after the late node really arrived (500 + 150/dim)
        assert procs[0].end_time == 650.0
        assert procs[1].end_time == 650.0
        (record,) = machine.trace.barriers
        assert record.n_participants == 2


class TestSharedCompletionUnderFail:
    """Both exchange partners, and every barrier waiter, are completed
    by one shared event; fail() on some members must leave the others'
    completions intact and drop the event only when all are gone."""

    def _exchange_pair(self, machine):
        def program(ctx):
            try:
                got = yield ctx.exchange(ctx.rank ^ 1, payload=f"p{ctx.rank}", nbytes=4)
            except SimulationError:
                got = yield ctx.delay(50.0)  # new wait; must complete intact
                return ("recovered", got)
            return got

        return [
            machine.engine.spawn(program(ctx), name=f"node{ctx.rank}")
            for ctx in machine.contexts
        ]

    @pytest.mark.parametrize("victim", [0, 1])
    def test_fail_one_exchange_partner_in_flight(self, victim):
        """Rank 1 arrives second, so it is the shared event's first
        member: failing either member must leave the survivor's
        completion at t_end with the partner's payload."""
        from repro.model.params import ipsc860
        from repro.sim.machine import SimulatedHypercube

        params = ipsc860()
        machine = SimulatedHypercube(1, params)
        procs = self._exchange_pair(machine)
        t_end = params.exchange_time(4, 1)
        assert t_end > 1.0
        machine.engine.schedule(1.0, lambda: procs[victim].fail(SimulationError("cut")))
        final = machine.engine.run()
        survivor = procs[1 - victim]
        assert survivor.result == f"p{victim}"
        assert survivor.end_time == t_end
        assert procs[victim].result == ("recovered", None)
        assert procs[victim].end_time == 51.0
        assert final == max(t_end, 51.0)
        # two starts, the fail, one shared completion, the victim's delay
        assert machine.engine.n_events == 5

    def test_fail_both_exchange_partners_drops_the_event(self):
        """With every member cancelled the shared event neither fires
        nor advances the clock, nor counts as dispatched."""
        from repro.model.params import ipsc860
        from repro.sim.machine import SimulatedHypercube

        params = ipsc860()
        machine = SimulatedHypercube(1, params)

        def program(ctx):
            try:
                yield ctx.exchange(ctx.rank ^ 1, payload=None, nbytes=4)
            except SimulationError:
                return "aborted"
            return "exchanged"

        procs = [
            machine.engine.spawn(program(ctx), name=f"node{ctx.rank}")
            for ctx in machine.contexts
        ]
        machine.engine.schedule(1.0, lambda: procs[0].fail(SimulationError("cut")))
        machine.engine.schedule(2.0, lambda: procs[1].fail(SimulationError("cut")))
        final = machine.engine.run()
        assert [p.result for p in procs] == ["aborted", "aborted"]
        assert final == 2.0  # not params.exchange_time(4, 1)
        assert final < params.exchange_time(4, 1)
        assert machine.engine.n_events == 4  # two starts, two fails

    def test_fail_one_barrier_waiter_after_release_scheduled(self):
        """The survivors of a released barrier resume at the release
        instant in arrival order; the failed waiter's new wait runs
        on its own clock."""
        from repro.model.params import ipsc860
        from repro.sim.machine import SimulatedHypercube

        params = ipsc860()
        machine = SimulatedHypercube(2, params)
        arrival_delay = {0: 3.0, 1: 0.5, 2: 2.0, 3: 1.0}  # arrival order 1, 3, 2, 0
        resumed = []

        def program(ctx):
            yield ctx.delay(arrival_delay[ctx.rank])
            try:
                yield ctx.barrier()
            except SimulationError:
                yield ctx.delay(100.0)
                return "recovered"
            resumed.append(ctx.rank)
            return "released"

        procs = [
            machine.engine.spawn(program(ctx), name=f"node{ctx.rank}")
            for ctx in machine.contexts
        ]
        release = 3.0 + params.global_sync_time(2)
        machine.engine.schedule(4.0, lambda: procs[2].fail(SimulationError("cut")))
        final = machine.engine.run()
        assert resumed == [1, 3, 0]
        for rank in (0, 1, 3):
            assert procs[rank].result == "released"
            assert procs[rank].end_time == release
        assert procs[2].result == "recovered"
        assert procs[2].end_time == 104.0
        assert final == max(release, 104.0)
        (record,) = machine.trace.barriers
        assert record.t_first_arrival == 0.5
        assert record.t_release == release
        assert record.n_participants == 4


class TestResumeCallback:
    """A resume callback is one slotted object: it exposes ``cancelled``,
    fires only for the wait it was made for, and a shared completion
    skips and cancels its members one by one."""

    def test_fields_and_slots(self):
        engine = Engine()
        process = _parked(engine, "p")
        callback = process.resume_callback("v")
        assert not hasattr(callback, "__dict__")
        assert (callback.process, callback.value, callback.cancelled) == (process, "v", False)
        assert callback.epoch == process.wait_token()
        assert not hasattr(Delay(1.0), "__dict__")

    def test_fires_for_its_wait_only(self):
        engine = Engine()
        process = _parked(engine, "p")
        callback = process.resume_callback("first")
        callback()
        assert callback.cancelled  # the wait it completed has ended
        callback()  # inert: must not resume the process's next wait
        assert not process.finished
        stale = process.resume_callback("late", token=callback.epoch)
        assert stale.cancelled
        stale()
        process.resume_callback("second")()
        assert process.result == ["first", "second"]

    def test_inert_once_superseded_by_fail(self):
        engine = Engine()
        process = _parked(engine, "p")
        callback = process.resume_callback("lost")
        process.fail(SimulationError("cut"))
        assert callback.cancelled
        callback()
        assert not process.finished
        process.resume_callback("kept")()
        assert process.result == ["failed", "kept"]

    def test_shared_completion_cancels_member_by_member(self):
        engine = Engine()
        first, second = _parked(engine, "a"), _parked(engine, "b")
        event = SharedCompletion([first.resume_callback(1), second.resume_callback(2)])
        first.fail(SimulationError("cut"))
        assert [m.cancelled for m in event.members] == [True, False]
        assert not event.cancelled
        event()
        assert second.finished is False and first.finished is False
        assert [m.cancelled for m in event.members] == [True, True]
        assert event.cancelled
        first.resume_callback(3)()
        second.resume_callback(4)()
        assert (first.result, second.result) == (["failed", 3], [2, 4])

    def test_all_cancelled_shared_completion_is_dropped(self):
        engine = Engine()
        first, second = _parked(engine, "a"), _parked(engine, "b")
        before = engine.n_events
        engine.schedule(5.0, SharedCompletion(
            [first.resume_callback(1), second.resume_callback(2)]
        ))
        first.fail(SimulationError("cut"))
        second.fail(SimulationError("cut"))
        first.resume_callback(None)()
        second.resume_callback(None)()
        assert engine.run() == 0.0  # the stale event neither fired nor moved the clock
        assert engine.n_events == before


class TestStaleEventCancellation:
    def test_stale_events_do_not_inflate_makespan(self):
        """A superseded wait's scheduled completion is dropped from the
        heap entirely: it must not advance virtual time, so run()'s
        returned makespan reflects the real last finish."""
        engine = Engine()

        def proc():
            try:
                yield Delay(100.0)
            except SimulationError:
                yield Delay(2.0)
            return "recovered"

        process = engine.spawn(proc(), name="phoenix")
        engine.schedule(1.0, lambda: process.fail(SimulationError("retry")))
        final = engine.run()
        assert process.end_time == 3.0
        assert final == 3.0  # not 100.0, the abandoned wait's horizon

    def test_machine_run_makespan_after_fail(self):
        """RunResult.time through the machine layer is the real last
        finish, not an abandoned wait's completion time."""
        from repro.model.params import ipsc860
        from repro.sim.machine import SimulatedHypercube

        machine = SimulatedHypercube(1, ipsc860())

        def program(ctx):
            if ctx.rank == 0:
                try:
                    yield ctx.shuffle(1_000_000)  # would take 540000 us
                except SimulationError:
                    return "aborted"
            else:
                yield ctx.delay(5.0)
            return "done"

        procs = [
            machine.engine.spawn(program(ctx), name=f"node{ctx.rank}")
            for ctx in machine.contexts
        ]
        machine.engine.schedule(1.0, lambda: procs[0].fail(SimulationError("cut")))
        final = machine.engine.run()
        assert procs[0].result == "aborted"
        assert final == 5.0


class TestBufferedRecvFailWindow:
    def test_fail_between_match_and_delivery_keeps_message(self):
        """A buffered message matched by recv is popped at delivery
        time: a fail() landing in the zero-delay window between match
        and delivery must leave the message buffered, so a retried
        recv still gets it."""
        from repro.model.params import ipsc860
        from repro.sim.machine import SimulatedHypercube

        machine = SimulatedHypercube(1, ipsc860())

        def receiver(ctx):
            yield ctx.delay(200.0)
            try:
                got = yield ctx.recv(1, tag=0)
            except SimulationError:
                # retry: the matched-but-undelivered message must survive
                got = yield ctx.recv(1, tag=0)
                return ("retried", got)
            return ("direct", got)

        def sender(ctx):
            yield ctx.send(0, payload="hello", nbytes=4, tag=0, forced=False)
            return "sent"

        procs = [
            machine.engine.spawn(receiver(machine.contexts[0]), name="recv0"),
            machine.engine.spawn(sender(machine.contexts[1]), name="send1"),
        ]
        # the nested schedule gives the fail a sequence number after
        # the receiver's delay completion (so the recv has matched the
        # buffered message) but before the zero-delay delivery — i.e.
        # exactly inside the match-to-delivery window
        machine.engine.schedule(
            200.0,
            lambda: machine.engine.schedule(
                0.0, lambda: procs[0].fail(SimulationError("window"))
            ),
        )
        machine.engine.run()
        # the fail really landed inside the window: delivery went
        # through the retry, and the message was not destroyed
        assert procs[0].result == ("retried", "hello")
        assert len(machine.contexts[0].state.buffered) == 0

    def test_two_receivers_one_buffered_message(self):
        """Two processes receiving on the same node with one buffered
        message: the winner gets it, the loser blocks (and unblocks
        when a second message arrives) — no crash."""
        from repro.model.params import ipsc860
        from repro.sim.machine import SimulatedHypercube

        machine = SimulatedHypercube(1, ipsc860())

        def receiver(ctx):
            yield ctx.delay(200.0)
            got = yield ctx.recv(1, tag=0)
            return got

        def sender(ctx):
            yield ctx.send(0, payload="first", nbytes=4, tag=0, forced=False)
            yield ctx.delay(500.0)
            yield ctx.send(0, payload="second", nbytes=4, tag=0, forced=False)
            return "sent"

        procs = [
            machine.engine.spawn(receiver(machine.contexts[0]), name="recvA"),
            machine.engine.spawn(receiver(machine.contexts[0]), name="recvB"),
            machine.engine.spawn(sender(machine.contexts[1]), name="send1"),
        ]
        machine.engine.run()
        assert sorted([procs[0].result, procs[1].result]) == ["first", "second"]


class TestClockMonotonicity:
    def test_run_until_never_rewinds_the_clock(self):
        """run(until=past) must not move virtual time backwards: later
        schedule() calls would otherwise fire in the causal past of
        events that already ran."""
        engine = Engine()
        engine.schedule(15.0, lambda: None)
        engine.schedule(20.0, lambda: None)
        assert engine.run(until=16.0) == 16.0
        assert engine.run(until=12.0) == 16.0  # clamped, not rewound
        assert engine.now == 16.0
        fired = []
        engine.schedule(1.0, lambda: fired.append(engine.now))
        engine.run()
        assert fired == [17.0]

    def test_uncaught_fail_preserves_deadlock_diagnostic(self):
        """An uncaught fail() leaves the process dead but the deadlock
        report must still name the request it was blocked on."""
        engine = Engine()

        def proc():
            yield Delay(5.0)

        engine.spawn(proc(), name="victim")
        victim = engine.processes[0]
        engine.run(until=1.0)
        with pytest.raises(SimulationError, match="boom"):
            victim.fail(SimulationError("boom"))
        with pytest.raises(SimulationError, match="victim \\(waiting on Delay\\)"):
            engine.run()

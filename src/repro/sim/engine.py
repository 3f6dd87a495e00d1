"""Discrete-event engine with coroutine processes.

A minimal, deterministic event core in the SimPy style: *processes*
are Python generators that ``yield`` request objects; the engine
advances virtual time (float microseconds) through a heap of scheduled
callbacks and resumes each process when its current request completes,
sending the request's result back into the generator.

Determinism: events at equal times fire in schedule order (a
monotonically increasing sequence number breaks ties), so simulations
are exactly reproducible — a property the regression tests rely on.

Waits that complete at one instant by construction — both partners of
a pairwise exchange, every waiter released by a barrier — share one
:class:`SharedCompletion` event that resumes them in order.  Separate
events at one time with consecutive sequence numbers would fire back
to back (anything a resume schedules gets a later number), so the
shared event replays exactly the same resumptions with one heap entry.

A resume costs one slotted :class:`_Resume` and a direct
``generator.send``, no closure or lambda: about 24 µs per event, block
movement included, on the ``reproduce`` workload (2-vCPU VM).
"""

from __future__ import annotations

import heapq
import weakref
from typing import Any, Callable, Generator, Iterable

__all__ = ["Engine", "Process", "Request", "SharedCompletion", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised for fatal conditions inside a simulation (e.g. a FORCED
    message arriving with no posted receive under strict semantics, or
    a deadlocked run)."""


class Request:
    """Base class for things a process can ``yield``.

    Subclasses implement :meth:`activate`, wiring themselves into the
    engine/services.  A completion that happens synchronously (inside
    ``activate`` or another event's callback) calls
    ``process.resume(value)`` directly; a completion *scheduled for
    later* must go through ``process.resume_callback(value)`` so that
    a wait superseded in the meantime (see :meth:`Process.fail`) leaves
    the stale event inert instead of resuming the wrong wait.
    """

    __slots__ = ()

    def activate(self, engine: "Engine", process: "Process") -> None:
        raise NotImplementedError


class Delay(Request):
    """Pure passage of virtual time (compute, memory permutation...)."""

    __slots__ = ("duration",)

    def __init__(self, duration: float) -> None:
        if duration < 0:
            raise ValueError(f"delay must be >= 0, got {duration}")
        self.duration = duration

    def activate(self, engine: "Engine", process: "Process") -> None:
        engine.schedule(self.duration, process.resume_callback(None))


class Process:
    """A running generator coroutine.

    The generator yields :class:`Request` objects and receives each
    request's result as the value of the ``yield`` expression.  The
    generator's ``return`` value is captured in :attr:`result`.
    """

    def __init__(self, engine: "Engine", generator: Generator[Request, Any, Any], name: str) -> None:
        #: the owning engine, held weakly: the engine keeps its
        #: processes, and a strong link back would make every finished
        #: run a reference cycle (engine, processes, their results)
        #: that only the cycle collector frees
        self.engine = weakref.proxy(engine)
        self.generator = generator
        self.name = name
        self.finished = False
        self.result: Any = None
        self.end_time: float | None = None
        #: set when the process is waiting on a request (for deadlock
        #: diagnostics)
        self.waiting_on: Request | None = None
        #: bumped on every advance; resume_callback captures it so a
        #: callback for a superseded wait (e.g. after fail()) is inert
        self._epoch = 0
        #: live resume callbacks of the current wait; cancelled on
        #: advance so superseded events neither fire nor advance the
        #: clock (keeping run()'s makespan honest after a fail())
        self._pending: list[_Resume] = []

    def _advance(self, step: Callable[[Any], Request], arg: Any) -> None:
        """Drive the generator one step (``step(arg)``: send or throw)
        and wire up whatever it does next: finish on StopIteration, else
        activate the yielded request."""
        previous_wait = self.waiting_on
        self.waiting_on = None
        self._epoch += 1
        for stale in self._pending:
            stale.cancelled = True
        self._pending.clear()
        try:
            request = step(arg)
        except StopIteration as stop:
            self.finished = True
            self.result = stop.value
            self.end_time = self.engine.now
            self.engine._process_finished(self)
            return
        except BaseException:
            # uncaught fail(): keep the request the process was blocked
            # on so deadlock diagnostics name it, not NoneType
            self.waiting_on = previous_wait
            raise
        if not isinstance(request, Request):
            raise SimulationError(
                f"process {self.name} yielded {type(request).__name__}; expected a Request"
            )
        self.waiting_on = request
        request.activate(self.engine, self)

    def resume(self, value: Any) -> None:
        """Advance the generator with ``value`` and activate its next
        request."""
        if self.finished:
            raise SimulationError(f"process {self.name} resumed after completion")
        self._advance(self.generator.send, value)

    def wait_token(self) -> int:
        """Identifier of the process's current wait.  Services that
        park a process in a queue (rendezvous, blocked receive,
        barrier) snapshot this at registration and later check
        :meth:`wait_is_current` — a process that was failed (and
        caught) while parked must not be resumed by the stale entry."""
        return self._epoch

    def wait_is_current(self, token: int) -> bool:
        """Whether the wait identified by ``token`` is still the one
        the process is blocked on (and the process is still alive)."""
        return not self.finished and self._epoch == token

    def resume_callback(self, value: Any, *, token: int | None = None) -> "_Resume":
        """A deferred :meth:`resume` for :meth:`Engine.schedule` that
        only fires if the wait it belongs to is still current — a wait
        superseded by :meth:`fail` leaves its already-scheduled
        completion event in the heap, and that stale event must not
        resume the process again.  ``token`` defaults to the current
        wait; pass a stored :meth:`wait_token` when the callback is
        created later than the wait it completes (e.g. at barrier
        release).

        The callback carries a ``cancelled`` flag the event loop
        honours: when the wait ends (normally or via fail) its pending
        callbacks are cancelled, so stale events are dropped from the
        heap without firing or advancing virtual time."""
        epoch = self._epoch if token is None else token
        callback = _Resume(self, epoch, value, not self.wait_is_current(epoch))
        if not callback.cancelled:
            self._pending.append(callback)
        return callback

    def fail(self, exc: BaseException) -> None:
        """Throw an exception into the generator (fatal conditions).

        The generator may catch the exception and clean up: if it
        returns, the process is marked finished like any normal
        completion (result and end time recorded); if it yields a new
        request, the process keeps running on that request.  Only an
        exception that escapes the generator propagates to the caller.
        """
        if self.finished:
            raise SimulationError(f"process {self.name} failed after completion")
        self._advance(self.generator.throw, exc)


class _Resume:
    """:meth:`Process.resume_callback`: resumes ``process`` with
    ``value`` if wait ``epoch`` is still current."""

    __slots__ = ("process", "epoch", "value", "cancelled")

    def __init__(self, process: Process, epoch: int, value: Any, cancelled: bool) -> None:
        self.process = process
        self.epoch = epoch
        self.value = value
        self.cancelled = cancelled

    def __call__(self) -> None:
        process = self.process
        if process.wait_is_current(self.epoch):
            process._advance(process.generator.send, self.value)


class SharedCompletion:
    """One event completing several waits at the same instant.

    Fires its :meth:`Process.resume_callback` members in order; each
    member keeps its own token check, so a member whose wait was
    superseded by :meth:`Process.fail` — even by an earlier member's
    resumption — is skipped just before its turn.  The event counts as
    :attr:`cancelled` only once every member is, and the event loop
    then drops it like any stale completion.
    """

    __slots__ = ("members",)

    def __init__(self, members: list[_Resume]) -> None:
        self.members = members

    @property
    def cancelled(self) -> bool:
        for member in self.members:
            if not member.cancelled:
                return False
        return True

    def __call__(self) -> None:
        for member in self.members:
            member()


class Engine:
    """The event loop: a heap of ``(time, seq, callback)`` entries."""

    #: process-wide count of engines ever booted.  The fast path exists
    #: to keep this flat: `validate_policy(engine="fast")` and the apps
    #: benchmark assert a zero delta across their default paths.
    boot_count: int = 0

    def __init__(self) -> None:
        Engine.boot_count += 1
        self.now: float = 0.0
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = 0
        self._processes: list[Process] = []
        self._n_events = 0

    # ------------------------------------------------------------------
    @property
    def n_events(self) -> int:
        """Number of events dispatched so far (for stats and loop caps).

        A :class:`SharedCompletion` counts as one event however many
        processes it resumes; cancelled events are never counted."""
        return self._n_events

    @property
    def processes(self) -> list[Process]:
        return list(self._processes)

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` ``delay`` µs from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        self._seq += 1
        heapq.heappush(self._heap, (self.now + delay, self._seq, callback))

    def at(self, time: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` at absolute virtual time ``time``."""
        self.schedule(time - self.now, callback)

    def spawn(self, generator: Generator[Request, Any, Any], name: str = "proc") -> Process:
        """Register a new process; it starts at the current time."""
        return self.spawn_group([(generator, name)])[0]

    def spawn_group(
        self, named: Iterable[tuple[Generator[Request, Any, Any], str]]
    ) -> list[Process]:
        """Register several ``(generator, name)`` processes that start at
        the current time, in order.

        Separate :meth:`spawn` calls would queue one start each, at this
        instant with consecutive sequence numbers; one
        :class:`SharedCompletion` resumes them in the same order, so the
        run is identical and costs one event instead of one per process.
        """
        processes = [Process(self, generator, name) for generator, name in named]
        self._processes.extend(processes)
        self.schedule(0.0, SharedCompletion([p.resume_callback(None) for p in processes]))
        return processes

    def run(self, *, until: float | None = None, max_events: int = 50_000_000) -> float:
        """Dispatch events until the heap drains (or limits hit).

        Returns the final virtual time.  Raises
        :class:`SimulationError` if processes remain unfinished with an
        empty heap (deadlock) or the event cap is exceeded.
        """
        while self._heap:
            time, seq, callback = heapq.heappop(self._heap)
            if getattr(callback, "cancelled", False):
                continue  # superseded wait: neither fires nor advances time
            if until is not None and time > until:
                # not yet due: put it back (same seq keeps tie order)
                # so a later run() still sees it.  Never rewind the
                # clock — an `until` in the past must not let later
                # schedule() calls fire before already-dispatched events
                heapq.heappush(self._heap, (time, seq, callback))
                self.now = max(self.now, until)
                return self.now
            self.now = time
            self._n_events += 1
            if self._n_events > max_events:
                raise SimulationError(f"event cap {max_events} exceeded at t={self.now}")
            callback()
        stuck = [p for p in self._processes if not p.finished]
        if stuck:
            detail = ", ".join(
                f"{p.name} (waiting on {type(p.waiting_on).__name__})" for p in stuck[:8]
            )
            raise SimulationError(
                f"deadlock: {len(stuck)} processes never finished: {detail}"
            )
        return self.now

    def _process_finished(self, process: Process) -> None:
        """Hook for subclasses/services; default does nothing."""

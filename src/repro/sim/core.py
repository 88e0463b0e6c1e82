"""Simulation environment: clock, event queue and execution loop.

The :class:`Environment` is the only stateful object a simulation needs to
share: it keeps the current simulated time, a queue of scheduled events and
the currently active process.  Everything else (clusters, schedulers,
applications) is expressed in terms of processes and events bound to an
environment.

Fast path
---------
The run loop is the hottest code of the whole project (a full-size figure run
processes hundreds of thousands of events), so :meth:`Environment.run` inlines
the work of :meth:`Environment.step` with every lookup hoisted into a local,
and the environment recycles :class:`~repro.sim.events.Timeout` instances
through a free list (see :meth:`timeout`).  A timeout is recycled — object
*and* callback list — only when its sole executed callback was a process
resumption, i.e. it was produced by the ubiquitous ``yield env.timeout(d)``
pattern, in which no reference to the event survives the resumption.
Timeouts carrying other callbacks, interrupted sleeps or ``run(until=...)``
stop events are never recycled.

Work that needs no generator frame — a timer, a hand-off at the current
instant — is scheduled with :meth:`Environment.schedule_callback`, which
pushes one plain event carrying the callback instead of starting a process
(an ``Initialize`` event, the sleeps, and an end-of-process event).

Pending events are ``(time, priority, insertion_id, event)`` entries in one
binary heap, a plain list ordered with :mod:`heapq`; the insertion id makes
the order total, so equal ``(time, priority)`` events drain first-in
first-out.  A tracer (see :meth:`Environment.set_tracer`) wraps the push and,
for the duration of a :meth:`Environment.run` call, the pop: the loop itself
is the same with or without tracing.
"""

from __future__ import annotations

from functools import partial
from heapq import heappop, heappush
from math import inf
from typing import Any, Callable, Optional, Union

from repro.sim.events import NORMAL, PENDING, URGENT, Event, Timeout
from repro.sim.process import Process, ProcessGenerator

#: The underlying function of ``Process._resume`` bound methods; used to
#: recognise "plain process sleep" timeouts that are safe to recycle.
_PROCESS_RESUME = Process._resume


class EmptySchedule(Exception):
    """Raised by :meth:`Environment.step` when no more events are scheduled."""


class StopSimulation(Exception):
    """Internal exception used to stop :meth:`Environment.run` at an event.

    The exception value carries the value of the event the run stopped at.
    """

    @classmethod
    def callback(cls, event: Event) -> None:
        """Event callback that aborts the run loop when *event* is processed."""
        if event.ok:
            raise cls(event.value)
        # Propagate failures of the "until" event.
        raise event.value


class Environment:
    """Execution environment of a discrete-event simulation.

    Parameters
    ----------
    initial_time:
        Starting value of the simulation clock.  Time is measured in seconds
        throughout this project.

    Examples
    --------
    >>> env = Environment()
    >>> def proc(env):
    ...     yield env.timeout(10)
    ...     return env.now
    >>> p = env.process(proc(env))
    >>> env.run()
    >>> p.value
    10
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now: float = float(initial_time)
        #: The event queue: a binary heap of ``(time, priority, id, event)``.
        self._heap: list = []
        #: ``heappush`` bound to the heap, hoisted for the scheduling hot path.
        self._push = partial(heappush, self._heap)
        self._eid: int = 0
        self._active_process: Optional[Process] = None
        #: Free list of recycled plain-sleep timeouts (see module docstring).
        self._timeout_pool: list[Timeout] = []
        self._events_processed: int = 0
        #: Optional :class:`repro.obs.trace.Tracer`.  ``None`` (the default)
        #: costs exactly one attribute check per :meth:`run` call.
        self._tracer = None

    # -- basic accessors -------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process whose generator is currently executing (if any)."""
        return self._active_process

    @property
    def processed_events(self) -> int:
        """Total number of events this environment has processed so far.

        Maintained by the run loop; the benchmark subsystem divides it by
        wall-clock time to report events/second.
        """
        return self._events_processed

    # -- event factories -------------------------------------------------

    def process(self, generator: ProcessGenerator) -> Process:
        """Create a new :class:`~repro.sim.process.Process` from *generator*."""
        return Process(self, generator)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Return an event that triggers after *delay* time units.

        Served from the environment's timeout free list when possible, so the
        dominant ``yield env.timeout(d)`` pattern allocates no event object
        and no callback list in steady state.  The flip side of recycling:
        do not retain a reference to a plain-sleep timeout past the yield
        that waits on it — once it has resumed its process, the object may be
        reused for a later timeout.  (Timeouts carrying other callbacks,
        ``run(until=...)`` or interrupted sleeps are never recycled.)
        """
        pool = self._timeout_pool
        if pool:
            if delay < 0:
                raise ValueError(f"negative delay {delay}")
            event = pool.pop()
            event._delay = delay
            event._ok = True
            event._value = value
            event.defused = False
            self._eid = eid = self._eid + 1
            self._push((self._now + delay, NORMAL, eid, event))
            return event
        return Timeout(self, delay, value)

    def event(self) -> Event:
        """Return a new, untriggered :class:`~repro.sim.events.Event`."""
        return Event(self)

    # -- scheduling and execution -----------------------------------------

    def schedule(self, event: Event, priority: int = NORMAL, delay: float = 0.0) -> None:
        """Schedule *event* for processing after *delay* time units.

        Events scheduled for the same time are processed in priority order
        (lower first), then in insertion order.
        """
        self._eid = eid = self._eid + 1
        self._push((self._now + delay, priority, eid, event))

    def schedule_callback(
        self,
        callback: Callable[[Event], None],
        delay: float = 0.0,
        priority: int = NORMAL,
        value: Any = None,
    ) -> Event:
        """Call ``callback(event)`` at ``(now + delay, priority)``; return the event.

        The process-free scheduling primitive: a plain, already-triggered
        :class:`~repro.sim.events.Event` carrying *callback* (and *value*,
        for the callback to read) is pushed right away, so it takes exactly
        the ``(time, priority)`` slot — and, scheduled at the same moment,
        the same drain position — as a process ``Initialize`` (``delay=0``,
        ``URGENT``) or a process sleep (``NORMAL``) pushed in its place.
        Unlike a process, it needs no start event and leaves no
        end-of-process event behind.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        event = Event.__new__(Event)
        event.env = self
        event.callbacks = [callback]
        event._ok = True
        event._value = value
        event.defused = False
        self._eid = eid = self._eid + 1
        self._push((self._now + delay, priority, eid, event))
        return event

    def schedule_at(self, event: Event, at: float, priority: int = NORMAL) -> None:
        """Schedule *event* for processing at the absolute time *at*.

        The restore path's scheduling primitive: a checkpoint records
        absolute event times, and ``now + (at - now)`` does not round-trip
        in IEEE floating point, so rehydrated events must be pushed at *at*
        itself to land back on the exact original drain order.
        """
        if at < self._now:
            raise ValueError(
                f"cannot schedule at {at}, earlier than the current time {self._now}"
            )
        self._eid = eid = self._eid + 1
        self._push((at, priority, eid, event))

    def timeout_at(self, at: float, value: Any = None) -> Timeout:
        """An event that triggers at the absolute time *at* (``>= now``).

        The absolute-time counterpart of :meth:`timeout`, sharing its free
        list.  Used when restoring checkpointed state: in-flight work whose
        completion time was recorded absolutely must finish at that exact
        float, not at ``now + delta``.
        """
        if at < self._now:
            raise ValueError(
                f"timeout_at({at}) lies before the current time {self._now}"
            )
        pool = self._timeout_pool
        if pool:
            event = pool.pop()
        else:
            # Build an unscheduled Timeout by hand: the constructor always
            # pushes at ``now + delay``, which is exactly the rounding this
            # method exists to avoid.
            event = Timeout.__new__(Timeout)
            event.env = self
            event.callbacks = []
        event._delay = at - self._now
        event._ok = True
        event._value = value
        event.defused = False
        self._eid = eid = self._eid + 1
        self._push((at, NORMAL, eid, event))
        return event

    def peek(self) -> float:
        """Return the time of the next scheduled event, or ``inf`` if none."""
        heap = self._heap
        return heap[0][0] if heap else inf

    def pending_entries(self):
        """Sorted snapshot of every pending ``(time, priority, id, event)``.

        Checkpoint introspection: the drain order the simulation would
        continue with.  A snapshot — mutating the returned list does not
        touch the queue.
        """
        return sorted(self._heap)

    def kernel_state(self) -> dict:
        """JSON-able fingerprint of the kernel: clock, counters, queue shape.

        Captured into checkpoint envelopes so a restore can verify it
        re-created (or re-reached) exactly the state that was saved.
        """
        return {
            "now": self._now,
            "event_id": self._eid,
            "events_processed": self._events_processed,
            "pending": len(self._heap),
            "timeout_pool": len(self._timeout_pool),
        }

    def set_tracer(self, tracer) -> None:
        """Attach (or with ``None`` detach) a structured-event tracer.

        With a tracer attached, every schedule emits a ``sched`` record
        (via a wrapped ``_push``, so the disabled path keeps the plain
        ``heappush`` binding) and :meth:`run` pops through
        :meth:`_traced_pop`, which emits an ``ev`` record per fired event
        and periodic ``queue`` snapshots.  Trace records carry simulated
        time only — never wall-clock — so same-seed runs produce
        byte-identical traces.
        """
        self._tracer = tracer
        push = partial(heappush, self._heap)
        if tracer is None:
            self._push = push
            return
        write = tracer.write

        def traced_push(item) -> None:
            write(
                {
                    "k": "sched",
                    "t": item[0],
                    "pr": item[1],
                    "id": item[2],
                    "e": type(item[3]).__name__,
                }
            )
            push(item)

        self._push = traced_push

    def step(self) -> None:
        """Process the next scheduled event.

        Raises
        ------
        EmptySchedule
            If no events are scheduled.
        """
        try:
            self._now, _, _, event = heappop(self._heap)
        except IndexError:
            raise EmptySchedule() from None

        callbacks = event.callbacks
        if callbacks is None:  # pragma: no cover - defensive
            return
        event.callbacks = None
        self._events_processed += 1
        for callback in callbacks:
            callback(event)

        if event._ok:
            self._maybe_recycle(event, callbacks)
        elif not event.defused:
            # An event failed and nobody handled it: surface the error so the
            # simulation does not silently swallow programming mistakes.
            exc = event._value
            if isinstance(exc, BaseException):
                raise exc
            raise RuntimeError(f"event {event!r} failed with non-exception {exc!r}")

    def _maybe_recycle(self, event: Event, callbacks: list) -> None:
        """Recycle a processed plain-sleep timeout (see module docstring)."""
        if (
            type(event) is Timeout
            and len(callbacks) == 1
            and getattr(callbacks[0], "__func__", None) is _PROCESS_RESUME
        ):
            callbacks.clear()
            event.callbacks = callbacks  # reuse the emptied list next time
            event._value = PENDING
            self._timeout_pool.append(event)

    def run(self, until: Union[None, float, Event] = None) -> Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            * ``None`` — run until the event queue is exhausted;
            * a number — run until the clock reaches that time (a value equal
              to the current time is tolerated as a no-op, so drivers may
              compute ``until=min(limit, ...)`` without guarding the moment
              the clock reaches the limit);
            * an :class:`~repro.sim.events.Event` — run until that event is
              processed and return its value.

        Returns
        -------
        The value of the *until* event if one was given, otherwise ``None``.
        """
        stop_event: Optional[Event] = None
        if until is not None:
            if isinstance(until, Event):
                stop_event = until
                if stop_event.callbacks is None:
                    # Already processed: nothing to run.
                    return stop_event.value
                stop_event.callbacks.append(StopSimulation.callback)
            else:
                at = float(until)
                if at == self._now:
                    # Nothing can happen between now and now.
                    return None
                if at < self._now:
                    raise ValueError(
                        f"until ({at}) must not be earlier than the current time ({self._now})"
                    )
                stop_event = Event(self)
                stop_event._ok = True
                stop_event._value = None
                stop_event.callbacks.append(StopSimulation.callback)
                # At *at* itself, not ``now + (at - now)``: the difference
                # does not always round-trip, and drivers stop on a grid.
                self.schedule_at(stop_event, at, priority=URGENT)

        # Inlined event loop: identical semantics to repeated ``step()``
        # calls, with every per-event lookup hoisted into a local.
        pool = self._timeout_pool
        if self._tracer is None:
            pop = partial(heappop, self._heap)
        else:
            pop = self._traced_pop()
        pending = PENDING
        timeout_cls = Timeout
        resume_func = _PROCESS_RESUME
        processed = 0
        try:
            while True:
                try:
                    item = pop()
                except IndexError:
                    if stop_event is not None and not stop_event.triggered:
                        raise RuntimeError(
                            f"no scheduled events left but the until event "
                            f"{stop_event!r} was never triggered"
                        ) from None
                    return None
                self._now = item[0]
                event = item[3]
                callbacks = event.callbacks
                if callbacks is None:  # pragma: no cover - defensive
                    continue
                event.callbacks = None
                processed += 1
                for callback in callbacks:
                    callback(event)

                if event._ok:
                    # Recycle plain process sleeps: one executed callback,
                    # and that callback was a ``Process._resume``.
                    if (
                        type(event) is timeout_cls
                        and len(callbacks) == 1
                        and getattr(callbacks[0], "__func__", None) is resume_func
                    ):
                        callbacks.clear()
                        event.callbacks = callbacks
                        event._value = pending
                        pool.append(event)
                elif not event.defused:
                    exc = event._value
                    if isinstance(exc, BaseException):
                        raise exc
                    raise RuntimeError(
                        f"event {event!r} failed with non-exception {exc!r}"
                    )
        except StopSimulation as stop:
            return stop.args[0] if stop.args else None
        finally:
            self._events_processed += processed

    #: Traced runs: a ``queue`` snapshot record every this many events.
    TRACE_QUEUE_SNAPSHOT_EVERY = 4096

    def _traced_pop(self) -> Callable[[], tuple]:
        """A ``heappop`` of the heap that also writes the run's trace records.

        Built once per traced :meth:`run` call, it writes one ``ev`` record
        per popped event and, every :data:`TRACE_QUEUE_SNAPSHOT_EVERY`
        events processed in this call, a ``queue`` snapshot, both before the
        event's callbacks run.  :meth:`run` adds its own count to
        ``_events_processed`` only when it returns, so the snapshot's
        ``processed`` is the count at the start of the call plus the local
        one.
        """
        heap = self._heap
        write = self._tracer.write
        snapshot_every = self.TRACE_QUEUE_SNAPSHOT_EVERY
        processed = 0

        def pop() -> tuple:
            nonlocal processed
            item = heappop(heap)
            event = item[3]
            write({"k": "ev", "t": item[0], "pr": item[1], "e": type(event).__name__})
            if event.callbacks is not None:
                processed += 1
                if not processed % snapshot_every:
                    write(
                        {
                            "k": "queue",
                            "t": item[0],
                            "pending": len(heap),
                            "processed": self._events_processed + processed,
                        }
                    )
            return item

        return pop

"""Event primitives for the discrete-event simulation kernel.

An :class:`Event` is a one-shot synchronisation object.  It starts *pending*,
may later be *triggered* (scheduled with a value or an exception), and is
finally *processed* when the :class:`~repro.sim.core.Environment` pops it from
the event heap and invokes its callbacks.  Processes (see
:mod:`repro.sim.process`) wait on events by yielding them from their
generator.

The module also defines :class:`Timeout` (an event that triggers after a
simulated delay), :class:`Initialize` (the start event of a process) and
:class:`Interrupt` (the exception thrown into a process when it is
interrupted).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.core import Environment


class _Pending:
    """Sentinel type for the value of an event that has not been triggered."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<PENDING>"


#: Unique sentinel used as the value of untriggered events.
PENDING = _Pending()

#: Scheduling priority for urgent events (processed before normal events at
#: the same simulation time).
URGENT = 0

#: Default scheduling priority.
NORMAL = 1


class Interrupt(Exception):
    """Exception thrown into a process when :meth:`Process.interrupt` is called.

    The optional *cause* (accessible via :attr:`cause`) carries arbitrary
    user data describing why the interruption happened, e.g. a shrink request
    from the malleability manager.
    """

    @property
    def cause(self) -> Any:
        """The cause passed to :meth:`Process.interrupt`, or ``None``."""
        return self.args[0] if self.args else None


class Event:
    """A one-shot event that may succeed with a value or fail with an exception.

    Parameters
    ----------
    env:
        The environment the event lives in.

    Notes
    -----
    The lifecycle is ``pending -> triggered -> processed``.  Callbacks (added
    by appending callables to :attr:`callbacks`) are invoked with the event as
    their sole argument when the event is processed.  After processing,
    :attr:`callbacks` is ``None`` and adding further callbacks is an error.

    Events are the single most allocated object of a simulation run, so the
    whole hierarchy declares ``__slots__``; subclasses outside the kernel may
    still add a ``__dict__`` by simply not declaring slots of their own.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: Optional[bool] = None
        #: Set to ``True`` by a handler to indicate that a failure has been
        #: dealt with and must not be re-raised by the environment.
        self.defused = False

    # -- state inspection ------------------------------------------------

    @property
    def triggered(self) -> bool:
        """Whether the event has been scheduled (has a value or exception)."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """Whether the event's callbacks have already been executed."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """``True`` if the event succeeded; only valid once triggered."""
        if self._ok is None:
            raise RuntimeError(f"{self!r} has not yet been triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The value of the event (or its exception if it failed)."""
        if self._value is PENDING:
            raise RuntimeError(f"{self!r} has not yet been triggered")
        return self._value

    # -- triggering ------------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with *value* and schedule it."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        # Inlined ``env.schedule(self)``: triggering is one of the hottest
        # call sites of a run, and the scheduling body is three lines.
        env = self.env
        env._eid = eid = env._eid + 1
        env._push((env._now, NORMAL, eid, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with *exception* and schedule it."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        env = self.env
        env._eid = eid = env._eid + 1
        env._push((env._now, NORMAL, eid, self))
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger this event with the state (ok/value) of another *event*.

        Used as a callback to chain events together.
        """
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = event._ok
        self._value = event._value
        env = self.env
        env._eid = eid = env._eid + 1
        env._push((env._now, NORMAL, eid, self))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = (
            "processed"
            if self.processed
            else "triggered"
            if self.triggered
            else "pending"
        )
        return f"<{type(self).__name__} ({state}) at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers automatically after a simulated *delay*.

    Parameters
    ----------
    env:
        The owning environment.
    delay:
        Non-negative delay in simulated time units (seconds throughout this
        project).
    value:
        Optional value the timeout succeeds with.
    """

    __slots__ = ("_delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        # Timeouts are the most allocated event of a simulation run: the
        # fields are set inline (no ``super().__init__`` / ``env.schedule``
        # call chain), and already-fired plain sleeps are recycled through
        # ``Environment.timeout`` without re-entering this constructor.
        self.env = env
        self.callbacks = []
        self._delay = delay
        self._ok = True
        self._value = value
        self.defused = False
        env._eid = eid = env._eid + 1
        env._push((env._now + delay, NORMAL, eid, self))

    @property
    def delay(self) -> float:
        """The delay this timeout was created with."""
        return self._delay


class Initialize(Event):
    """Internal event used to start a newly created process immediately."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: Any) -> None:
        self.env = env
        self._ok = True
        self._value = None
        self.callbacks = [process._resume_cb]
        self.defused = False
        env._eid = eid = env._eid + 1
        env._push((env._now, URGENT, eid, self))

"""Unit tests of the simulation environment and its run loop."""

from __future__ import annotations

import pytest

from repro.obs.trace import NullSink, Tracer
from repro.sim import EmptySchedule, Environment

#: Run-loop tests that must hold with and without a tracer attached.
with_and_without_tracer = pytest.mark.parametrize(
    "traced", [False, True], ids=["untraced", "traced"]
)


def environment(traced: bool, initial_time: float = 0.0) -> Environment:
    env = Environment(initial_time)
    if traced:
        env.set_tracer(Tracer(NullSink()))
    return env


def test_clock_starts_at_initial_time():
    assert Environment().now == 0.0
    assert Environment(initial_time=42.5).now == 42.5


def test_step_on_empty_schedule_raises():
    with pytest.raises(EmptySchedule):
        Environment().step()


@with_and_without_tracer
def test_run_without_events_returns_immediately(traced):
    env = environment(traced)
    assert env.run() is None
    assert env.now == 0.0


def test_timeout_advances_clock():
    env = Environment()

    def proc(env):
        yield env.timeout(10)
        yield env.timeout(5)
        return env.now

    process = env.process(proc(env))
    env.run()
    assert process.value == 15
    assert env.now == 15


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


@with_and_without_tracer
def test_run_until_time_stops_exactly_there(traced):
    env = environment(traced)
    ticks = []

    def ticker(env):
        while True:
            yield env.timeout(1)
            ticks.append(env.now)

    env.process(ticker(env))
    env.run(until=10)
    assert env.now == 10
    assert ticks[-1] <= 10


def test_run_until_lands_on_the_target_float():
    # ``start + (until - start)`` rounds to a neighbouring float here; the
    # clock must still stop on *until* itself, which is how a run restored
    # mid-simulation joins the completion grid of the uninterrupted run.
    start, until = 1021.8719707135415, 12422.843905644704
    assert start + (until - start) != until
    env = Environment(initial_time=start)
    env.run(until=until)
    assert env.now == until


def test_run_until_past_time_rejected():
    env = Environment(initial_time=5.0)
    with pytest.raises(ValueError):
        env.run(until=4.0)


@with_and_without_tracer
def test_run_until_current_time_is_a_noop(traced):
    """``run(until=now)`` is a tolerated no-op: nothing runs, nothing raises.

    Regression test: this used to raise ``ValueError``, which made drivers
    that compute ``until=min(time_limit, ...)`` blow up exactly when the
    clock had already reached the limit.
    """
    env = environment(traced, initial_time=5.0)
    fired = []

    def proc(env):
        yield env.timeout(1)
        fired.append(env.now)

    env.process(proc(env))
    assert env.run(until=5.0) is None
    assert env.now == 5.0
    assert fired == []  # no event was processed
    env.run()
    assert fired == [6.0]  # the pending timeout still fires on a later run


@with_and_without_tracer
def test_run_until_event_returns_its_value(traced):
    env = environment(traced)

    def proc(env):
        yield env.timeout(3)
        return "payload"

    process = env.process(proc(env))
    assert env.run(until=process) == "payload"
    assert env.now == 3


@with_and_without_tracer
def test_run_until_an_event_that_never_triggers_raises(traced):
    env = environment(traced)
    env.timeout(1)
    with pytest.raises(RuntimeError, match="never triggered"):
        env.run(until=env.event())
    assert env.now == 1


def test_run_until_already_processed_event():
    env = Environment()

    def proc(env):
        yield env.timeout(1)
        return 7

    process = env.process(proc(env))
    env.run()
    assert env.run(until=process) == 7


@with_and_without_tracer
def test_events_at_same_time_processed_in_schedule_order(traced):
    env = environment(traced)
    order = []

    def proc(env, name):
        yield env.timeout(5)
        order.append(name)

    env.process(proc(env, "first"))
    env.process(proc(env, "second"))
    env.process(proc(env, "third"))
    env.run()
    assert order == ["first", "second", "third"]


@with_and_without_tracer
def test_scheduled_callbacks_share_the_slots_of_process_events(traced):
    env = environment(traced)
    order = []

    def proc(env, name):
        order.append(f"{name} starts")
        yield env.timeout(5)
        order.append(f"{name} wakes")

    def record(event):
        order.append(event.value)

    env.process(proc(env, "p"))
    env.schedule_callback(record, value="urgent callback", priority=0)
    env.schedule_callback(record, 5, value="timer")
    env.schedule_callback(record, value="normal callback")
    env.run()
    assert order == [
        "p starts",
        "urgent callback",
        "normal callback",
        "timer",  # pushed before p's first step pushed its sleep
        "p wakes",
    ]
    with pytest.raises(ValueError):
        env.schedule_callback(record, -1)


def test_peek_reports_next_event_time():
    env = Environment()
    env.timeout(7)
    assert env.peek() == 7
    env.timeout(3)
    assert env.peek() == 3


def test_peek_on_empty_queue_is_infinite():
    assert Environment().peek() == float("inf")


@with_and_without_tracer
def test_unhandled_process_failure_propagates_out_of_run(traced):
    env = environment(traced)

    def broken(env):
        yield env.timeout(1)
        raise RuntimeError("boom")

    env.process(broken(env))
    with pytest.raises(RuntimeError, match="boom"):
        env.run()


@with_and_without_tracer
def test_failure_handled_by_waiter_does_not_propagate(traced):
    env = environment(traced)

    def broken(env):
        yield env.timeout(1)
        raise RuntimeError("boom")

    def guard(env, victim):
        try:
            yield victim
        except RuntimeError:
            return "caught"

    victim = env.process(broken(env))
    guard_proc = env.process(guard(env, victim))
    env.run()
    assert guard_proc.value == "caught"


def test_nested_process_waiting():
    env = Environment()

    def inner(env):
        yield env.timeout(4)
        return 11

    def outer(env):
        value = yield env.process(inner(env))
        return value * 2

    process = env.process(outer(env))
    env.run()
    assert process.value == 22
    assert env.now == 4


def test_active_process_visible_during_execution():
    env = Environment()
    seen = []

    def proc(env):
        seen.append(env.active_process)
        yield env.timeout(1)

    process = env.process(proc(env))
    env.run()
    assert seen == [process]
    assert env.active_process is None

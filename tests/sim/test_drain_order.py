"""The kernel's event queue drains in ``(time, priority, insertion_id)`` order.

The contract the whole simulator rests on, checked through
:class:`~repro.sim.core.Environment` against a plain sorted-list reference
on randomized *reactive* schedules: entries pushed up front plus children
pushed when their parent fires, the way simulation callbacks schedule
follow-up events — including zero-delay ``URGENT`` children that tie with,
or sort before, entries still pending.  Times come from a small grid so
that time and priority ties are common.

Every check runs through each of the kernel's three ways to drain the
queue: the untraced :meth:`~repro.sim.core.Environment.run` loop, the same
loop popping through the tracing closure, and repeated
:meth:`~repro.sim.core.Environment.step` calls.
"""

from __future__ import annotations

import random
from bisect import insort
from math import inf

import pytest

from repro.obs.trace import NullSink, Tracer
from repro.sim import Environment, Event
from repro.sim.events import NORMAL, URGENT

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, strategies as st  # noqa: E402

times = st.one_of(
    st.sampled_from([0.0, 1.0, 1.0, 2.5, 2.5, 300.0]),
    st.floats(min_value=0.0, max_value=1e7, allow_nan=False, allow_infinity=False),
)
priorities = st.sampled_from([URGENT, NORMAL, NORMAL])
#: Each entry is pushed through ``schedule`` (True) or ``schedule_callback``.
via_schedule = st.booleans()
children = st.lists(
    st.tuples(st.sampled_from([0.0, 0.0, 0.25, 1000.0]), priorities, via_schedule),
    max_size=3,
)
#: A reactive schedule: ``(time, priority, via_schedule, children)`` per
#: initial entry; each child ``(delay, priority, via_schedule)`` is pushed
#: at its parent's firing time.
schedules = st.lists(st.tuples(times, priorities, via_schedule, children), max_size=40)

#: The ways the kernel drains its queue; each must give the same order.
drain_modes = pytest.mark.parametrize("mode", ["run", "traced-run", "step"])


def environment(mode):
    env = Environment()
    if mode == "traced-run":
        env.set_tracer(Tracer(NullSink()))
    return env


def drain(env, mode):
    if mode == "step":
        while env.peek() < inf:
            env.step()
    else:
        env.run()


def reference_drain(schedule):
    """Drain order and pending set after each pop, from a sorted list."""
    pending = []
    spawns = {}
    eid = 0
    for time, priority, _via, kids in schedule:
        eid += 1
        pending.append((time, priority, eid))
        spawns[eid] = kids
    order, snapshots = [], []
    while pending:
        pending.sort()
        entry = pending.pop(0)
        order.append(entry)
        for delay, priority, _via in spawns.pop(entry[2], ()):
            eid += 1
            pending.append((entry[0] + delay, priority, eid))
        snapshots.append(sorted(pending))
    return order, snapshots


def environment_drain(schedule, mode):
    """Drain *schedule* through an :class:`Environment`; same shape as above."""
    env = environment(mode)
    order, snapshots = [], []

    def push(delay, priority, via, kids):
        def fire(event):
            order.append((env.now, priority, eid))
            for child in kids:
                push(child[0], child[1], child[2], ())
            snapshots.append([entry[:3] for entry in env.pending_entries()])
            assert env.peek() == (snapshots[-1][0][0] if snapshots[-1] else inf)

        if via:
            event = Event(env)
            event._ok = True
            event._value = None
            event.callbacks.append(fire)
            env.schedule(event, priority=priority, delay=delay)
        else:
            env.schedule_callback(fire, delay=delay, priority=priority)
        eid = env._eid

    for time, priority, via, kids in schedule:
        push(time, priority, via, kids)
    drain(env, mode)
    assert env.peek() == inf and env.pending_entries() == []
    return order, snapshots


@drain_modes
@given(schedule=schedules)
def test_drain_order_matches_a_sorted_list_reference(mode, schedule):
    assert environment_drain(schedule, mode) == reference_drain(schedule)


@drain_modes
def test_ties_drain_in_priority_then_insertion_order(mode):
    schedule = [
        (1.0, NORMAL, True, [(0.0, URGENT, False), (0.0, NORMAL, True)]),
        (1.0, URGENT, False, []),
        (1.0, NORMAL, False, []),
        (0.5, NORMAL, True, []),
    ]
    order, _ = environment_drain(schedule, mode)
    assert [entry[2] for entry in order] == [4, 2, 1, 5, 3, 6]


def successor(rng, time):
    """The hold model's next entry after one fired at *time*."""
    if rng.random() < 0.25:
        return time, URGENT
    return time + rng.randrange(100), NORMAL


def reference_hold(pending_size, pops, seed):
    """Hold-model pop order ``(time, priority, id)`` from a sorted list."""
    rng = random.Random(seed)
    pending = []
    for eid in range(1, pending_size + 1):
        insort(pending, (float(rng.randrange(50)), NORMAL, eid))
    eid = pending_size
    order = []
    while pending:
        entry = pending.pop(0)
        order.append(entry)
        if len(order) + pending_size <= pops:
            eid += 1
            insort(pending, (*successor(rng, entry[0]), eid))
    return order


@drain_modes
def test_thousands_of_pending_events_drain_like_a_sorted_list(mode):
    """The hold model far above the property's sizes: 2000 pending, 6000 pops.

    Every fired entry pushes one successor at a random delay (a quarter of
    them at zero delay, ``URGENT``), so the pending set stays at 2000 while
    the clock advances.  Successors are drawn in firing order, so any
    divergence from the reference order also changes every later entry.
    """
    pending_size, pops, seed = 2000, 6000, 7
    rng = random.Random(seed)
    env = environment(mode)
    order = []

    def push(time, priority):
        def fire(event):
            order.append((env.now, priority, eid))
            if len(order) + pending_size <= pops:
                push(*successor(rng, env.now))

        env.schedule_callback(fire, delay=time - env.now, priority=priority)
        eid = env._eid

    for _ in range(pending_size):
        push(float(rng.randrange(50)), NORMAL)
    drain(env, mode)
    assert order == reference_hold(pending_size, pops, seed)
    assert len(order) == pops

"""Host normalisation: a fixed calibration unit timed around and during work.

The benchmark runs on shared hosts whose speed drifts within a second (CPU
steal, a busy sibling hyperthread, frequency changes).  Every measurement is
therefore paired with timings of a fixed, pure-Python calibration unit, and
its duration is rescaled by ``CAL_REF_MS / cal_measured_ms``: work measured
while the host ran at half speed took twice as long, and so did the unit.
The reported numbers are "seconds on the reference host".

The unit is timed right before and right after each timed call or batch
(a bracket of :data:`BRACKET_UNITS` units each), and also *during* the work:
a ``SIGALRM`` every :data:`SAMPLE_EVERY_S` seconds runs one unit, and the
time those samples take is subtracted from the work's duration.  Brackets
alone see the host only before and after; on a host whose speed changes
within a 0.4 s call that left a 13% spread between repeats of one
simulation, and the samples taken during the call cut it to 5%.

The unit imports nothing from ``repro`` (a change to the program must not
move the ruler) and mixes the work the simulator does: heap pushes and
pops, dict updates, ``__slots__`` attribute traffic and small function calls.
"""

from __future__ import annotations

import gc
import heapq
import signal
import statistics
import sys
import time
from typing import Callable, List, Tuple, TypeVar

#: Duration of one calibration unit on the reference host, in milliseconds:
#: normalised numbers read as if every unit had taken this long.  On the
#: reference host, a 2-core x86-64 container running CPython 3.11.7, the
#: unit took 0.44-0.9 ms depending on its neighbours' load.  A constant, so
#: that two commits measured on two days share the same ruler.
CAL_REF_MS = 0.62

#: Loop length of one calibration unit.
CAL_STEPS = 500

#: Units timed back to back before and after each call or batch.
BRACKET_UNITS = 24

#: Interval of the samples taken during the measured work.
SAMPLE_EVERY_S = 0.02

T = TypeVar("T")


class _Entry:
    __slots__ = ("at", "owner", "hops")

    def __init__(self, at: int, owner: int) -> None:
        self.at = at
        self.owner = owner
        self.hops = 0


def _advance(entry: _Entry, table: dict) -> int:
    entry.hops += 1
    table[entry.owner] = table.get(entry.owner, 0) + entry.hops
    return entry.at + (entry.owner & 7) + 1


def calibration_unit(steps: int = CAL_STEPS) -> int:
    """The fixed unit of work; returns a checksum so nothing is elided."""
    heap: list = []
    table: dict = {}
    push = heapq.heappush
    pop = heapq.heappop
    checksum = 0
    for step in range(steps):
        entry = _Entry((step * 7919) % 1013, step % 97)
        push(heap, (entry.at, step, entry))
        if len(heap) > 48:
            at, _, oldest = pop(heap)
            checksum += _advance(oldest, table) - at
    while heap:
        at, _, entry = pop(heap)
        checksum += _advance(entry, table) - at
    return checksum + len(table)


def guard() -> None:
    """Refuse to time anything while a profiler or tracer is active."""
    if sys.getprofile() is not None or sys.gettrace() is not None:
        raise RuntimeError(
            "a profiler or tracer is active (sys.getprofile/sys.gettrace); "
            "host-normalised timings would be meaningless"
        )


def cal_ms(units: int = BRACKET_UNITS) -> float:
    """Milliseconds per calibration unit over *units* back-to-back units."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        for _ in range(units):
            calibration_unit()
        return (time.perf_counter() - started) * 1000.0 / units
    finally:
        if was_enabled:
            gc.enable()


def normalise(raw_seconds: float, cal_measured_ms: float, cal_ref_ms: float = CAL_REF_MS) -> float:
    """*raw_seconds* rescaled to the reference host's speed."""
    if cal_measured_ms <= 0.0:
        raise ValueError("calibration time must be positive")
    return raw_seconds * (cal_ref_ms / cal_measured_ms)


class _Sampler:
    """Times one calibration unit every :data:`SAMPLE_EVERY_S` (``SIGALRM``)."""

    def __init__(self, active: bool) -> None:
        self.active = active
        self.units_ms: List[float] = []
        self.spent = 0.0

    def _tick(self, signum: int, frame: object) -> None:
        clock = time.perf_counter
        started = clock()
        calibration_unit()
        self.units_ms.append((clock() - started) * 1000.0)
        self.spent += clock() - started

    def __enter__(self) -> "_Sampler":
        if self.active:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self.active:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, self._previous)


def timed_batch(
    call: Callable[[int], T], count: int, *, sample: bool = True, drop_disturbed: bool = False
) -> Tuple[List[T], List[float], float]:
    """Run ``call(0) .. call(count - 1)``, timing each call, host-normalised.

    Collects garbage outside the timed window and keeps the collector off
    while the units and the calls run.  With *sample*, units are also timed
    during the calls.  That holds when the work runs in another process too,
    as long as both share one CPU (``run.py`` pins them): the signal wakes
    this process, the unit pre-empts the other one, and the time it took is
    subtracted from the call it delayed.

    A sample costs more than its own time (a signal, context switches, a
    unit's worth of evicted cache).  For calls much shorter than
    :data:`SAMPLE_EVERY_S` that excess would make the sampled calls the
    tail; *drop_disturbed* leaves them out of the returned durations (the
    samples still calibrate the batch).

    Returns ``(results, raw_seconds_per_call, cal_measured_ms)``: the raw
    seconds exclude the samples, and the calibration time is the mean of
    the two brackets and every sample.
    """
    guard()
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    clock = time.perf_counter
    results: List[T] = []
    durations: List[float] = []
    try:
        before = cal_ms()
        with _Sampler(sample) as sampler:
            for index in range(count):
                started = clock()
                spent = sampler.spent
                results.append(call(index))
                elapsed = clock() - started
                if sampler.spent == spent:
                    durations.append(elapsed)
                elif not drop_disturbed:
                    durations.append(elapsed - (sampler.spent - spent))
        after = cal_ms()
    finally:
        if was_enabled:
            gc.enable()
    return results, durations, statistics.fmean([before, after, *sampler.units_ms])


def timed(call: Callable[[], T], *, sample: bool = True) -> Tuple[T, float, float]:
    """:func:`timed_batch` of one call: ``(result, raw_seconds, cal_measured_ms)``."""
    results, durations, cal = timed_batch(lambda _: call(), 1, sample=sample)
    return results[0], durations[0], cal

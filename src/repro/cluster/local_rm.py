"""SGE-like local resource manager.

Each DAS-3 cluster runs the Sun Grid Engine configured for exclusive,
space-shared node allocation.  Local users submit rigid jobs directly to the
SGE instance, *bypassing* KOALA; the paper explicitly calls out that a
multicluster scheduler must be resilient to that background load.

:class:`LocalResourceManager` reproduces the relevant behaviour: a FCFS
queue of rigid local jobs, each holding a fixed number of nodes for a fixed
duration, with optional EASY-style backfilling (disabled by default to match
the plain FCFS configuration used on the testbed).

The manager runs no simulation process.  The dispatcher is woken in two
kernel-callback steps (:meth:`~repro.sim.core.Environment.schedule_callback`)
by a submission or by processors coming free, each running job is a single
timer, and a node failure ends a job through an URGENT callback.  Every
callback takes the ``(time, priority)`` slot of the process event it stands
for (wake-up trigger, wake-up condition, sleep, interrupt), so same-instant
order is that of a dispatcher process waiting on "submitted or released"
and of one process per job.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import count
from typing import Deque, Dict, List, Optional, Tuple

from repro.cluster.allocation import Allocation
from repro.cluster.cluster import Cluster
from repro.sim.core import Environment
from repro.sim.events import URGENT, Event

_local_job_ids = count(1)


@dataclass
class LocalJob:
    """A rigid job submitted directly to a cluster's local resource manager."""

    processors: int
    duration: float
    name: str = ""
    job_id: int = field(default_factory=lambda: next(_local_job_ids))
    submit_time: Optional[float] = None
    start_time: Optional[float] = None
    finish_time: Optional[float] = None

    def __post_init__(self) -> None:
        if self.processors < 1:
            raise ValueError("local jobs need at least one processor")
        if self.duration <= 0:
            raise ValueError("local jobs need a positive duration")
        if not self.name:
            self.name = f"local-{self.job_id}"

    @property
    def finished(self) -> bool:
        """Whether the job has completed."""
        return self.finish_time is not None

    @property
    def wait_time(self) -> float:
        """Queue wait time (valid once the job has started)."""
        if self.submit_time is None or self.start_time is None:
            raise ValueError(f"job {self.name!r} has not started")
        return self.start_time - self.submit_time


class LocalResourceManager:
    """Space-shared FCFS manager for local (background) jobs on one cluster.

    Parameters
    ----------
    env, cluster:
        The simulation environment and the managed cluster.
    backfilling:
        When ``True``, jobs behind a blocked queue head may start if they fit
        in the currently idle processors (aggressive backfilling without
        reservations).  The DAS-3 configuration modelled by default is plain
        FCFS.
    """

    def __init__(self, env: Environment, cluster: Cluster, *, backfilling: bool = False) -> None:
        self.env = env
        self.cluster = cluster
        self.backfilling = backfilling
        self._queue: Deque[LocalJob] = deque()
        self._completion_events: Dict[int, Event] = {}
        self._finished: List[LocalJob] = []
        #: Running jobs keyed by allocation id (for fault injection).
        self._running: Dict[int, Tuple[LocalJob, Allocation]] = {}
        #: Whether the dispatcher waits for a submission or a release (no
        #: dispatch pending), and whether it is registered for the next
        #: release on the cluster.
        self._armed = False
        self._listening = False
        #: Set while the first dispatch runs (see :meth:`_start`).
        self._first = False
        env.schedule_callback(self._first_dispatch, priority=URGENT)

    # -- public interface ------------------------------------------------------

    def submit(self, job: LocalJob) -> Event:
        """Queue *job*; returns an event that succeeds (with the job) at completion."""
        job.submit_time = self.env.now
        done = Event(self.env)
        self._completion_events[job.job_id] = done
        self._queue.append(job)
        self._wake()
        return done

    @property
    def queue_length(self) -> int:
        """Number of local jobs waiting to start."""
        return len(self._queue)

    @property
    def finished_jobs(self) -> List[LocalJob]:
        """Local jobs that have completed, in completion order."""
        return list(self._finished)

    def fail_allocation(self, allocation: Allocation) -> bool:
        """Kill the running local job holding *allocation* (a node failed).

        Local jobs are rigid: losing any node terminates the whole job early.
        Returns ``True`` if a job was killed, ``False`` when the allocation is
        not one of this manager's running jobs.  The processors come back to
        the pool at the failure instant, in an URGENT callback — the fault
        injector marks the dead ones failed *before* calling this, so the
        release cannot be double-promised.
        """
        # Popped immediately: a second failure striking the same job in the
        # same instant (e.g. two trace lines at one timestamp) finds nothing
        # to kill, and the job's timer finds nothing to complete.
        entry = self._running.pop(allocation.allocation_id, None)
        if entry is None:
            return False
        self.env.schedule_callback(self._end, priority=URGENT, value=entry)
        return True

    # -- dispatcher -------------------------------------------------------------

    def _wake(self) -> None:
        """A submission or a release wakes the waiting dispatcher."""
        if self._armed:
            self._armed = False
            self.env.schedule_callback(self._woken)

    def _on_release(self) -> None:
        self._listening = False
        self._wake()

    def _woken(self, event: Event) -> None:
        # Second step of a wake-up: the dispatch runs one event later.
        self.env.schedule_callback(self._dispatch)

    def _first_dispatch(self, event: Event) -> None:
        self._first = True
        self._dispatch(event)
        self._first = False

    def _dispatch(self, event: Event) -> None:
        self._start_eligible_jobs()
        self._armed = True
        if not self._listening:
            self._listening = True
            self.cluster.on_next_release(self._on_release)

    def _start_eligible_jobs(self) -> None:
        started = True
        while started:
            started = False
            if not self._queue:
                return
            head = self._queue[0]
            if head.processors <= self.cluster.idle_processors:
                self._queue.popleft()
                self._start(head)
                started = True
            elif self.backfilling:
                # Start the first later job that fits (no reservation for the
                # head, i.e. aggressive backfilling).
                for job in list(self._queue)[1:]:
                    if job.processors <= self.cluster.idle_processors:
                        self._queue.remove(job)
                        self._start(job)
                        started = True
                        break

    def _start(self, job: LocalJob) -> None:
        allocation = self.cluster.allocate(job.processors, owner=job.name, kind="local")
        job.start_time = self.env.now
        entry = (job, allocation)
        self._running[allocation.allocation_id] = entry
        if self._first:
            # The first dispatch runs in an URGENT event, and URGENT events
            # queued behind it would run before a job process's first step
            # (which starts its sleep): take that step's slot.
            self.env.schedule_callback(self._launch, priority=URGENT, value=entry)
        else:
            # Other dispatches run in NORMAL events: nothing runs between the
            # start and that first step, so the timer is pushed right away,
            # in the drain position the sleep would have had.
            self.env.schedule_callback(self._expire, job.duration, value=entry)

    def _launch(self, event: Event) -> None:
        job, _ = event._value
        self.env.schedule_callback(self._expire, job.duration, value=event._value)

    def _expire(self, event: Event) -> None:
        _, allocation = event._value
        # A job killed by a node failure is no longer running.
        if self._running.pop(allocation.allocation_id, None) is not None:
            self._end(event)

    def _end(self, event: Event) -> None:
        job, allocation = event._value
        if allocation.active:
            allocation.release()
        job.finish_time = self.env.now
        self._finished.append(job)
        done = self._completion_events.pop(job.job_id, None)
        if done is not None and not done.triggered:
            done.succeed(job)

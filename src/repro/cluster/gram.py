"""GRAM-like job submission endpoints.

KOALA starts processes on a cluster through the Globus GRAM service of that
cluster.  GRAM itself cannot manage malleable jobs, so the paper's MRunner
manages every malleable application as *a collection of GRAM jobs of size 1*:
growing submits new size-1 GRAM jobs (each paying the full submission
latency, although these submissions overlap with application execution), and
shrinking releases some of them once the application has given the
processors back.

To cut the cost of turning a new GRAM job into an application process, GRAM
submissions launch an empty *stub*; recruiting the stub into the application
during the process-management phase is much faster than a full submission
because it skips security enforcement and queue management.  The endpoint
therefore exposes two latencies:

* ``submission_latency`` — submit-to-active time of a GRAM job (stub started);
* ``recruit_latency`` — time to turn an active stub into an application
  process.

The gatekeeper admits submissions first come, first served: a counter of
admitted submissions and a FIFO of waiting ones, driven by kernel callbacks
(:meth:`~repro.sim.core.Environment.schedule_callback`), not by a process
per submission.  Each callback takes the ``(time, priority)`` slot of the
process-start, slot-grant, sleep or slot-release event it stands for (a
slot release that cannot admit anybody is left out), so same-instant order
— and the order of draws on the endpoint's random lane — is that of one
process per submission holding a counted slot.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import count
from typing import Deque, List, Optional, Tuple

import numpy as np

from repro.cluster.allocation import Allocation
from repro.cluster.cluster import Cluster
from repro.sim.core import Environment
from repro.sim.events import URGENT, Event

_gram_job_ids = count(1)


class GramSubmissionError(RuntimeError):
    """Raised when a GRAM submission cannot obtain its processors."""

    def __init__(
        self, cluster_name: str, requested: int, idle: int, message: Optional[str] = None
    ) -> None:
        super().__init__(
            message
            or f"GRAM submission of {requested} processor(s) failed on {cluster_name!r}: "
            f"only {idle} idle"
        )
        self.cluster_name = cluster_name
        self.requested = requested
        self.idle = idle


@dataclass
class GramJob:
    """One GRAM job: an allocation plus its lifecycle timestamps."""

    owner: str
    processors: int
    gram_id: int = field(default_factory=lambda: next(_gram_job_ids))
    submitted_at: Optional[float] = None
    active_at: Optional[float] = None
    released_at: Optional[float] = None
    allocation: Optional[Allocation] = None

    @property
    def active(self) -> bool:
        """Whether the job currently holds processors."""
        return self.allocation is not None and self.allocation.active


class GramEndpoint:
    """The GRAM submission interface of one cluster.

    Parameters
    ----------
    env, cluster:
        Simulation environment and the cluster this endpoint submits to.
    submission_latency:
        Mean time between submitting a GRAM job and its stub becoming active
        (seconds).  Includes authentication, queue handling and process
        start-up.
    recruit_latency:
        Mean time to convert an active stub into an application process.
    latency_jitter:
        Relative jitter applied to both latencies when *rng* is given (a
        value of 0.2 means +/-20% uniform).
    rng:
        Optional random generator for latency jitter.
    max_concurrent_submissions:
        How many submissions the GRAM gatekeeper handles simultaneously;
        later ones wait their turn in submission order.  ``None`` means
        unlimited.  The real Globus gatekeeper (security
        handshake, queue interaction) effectively serialises submissions,
        which is the main reason the paper calls the size-1-GRAM-jobs
        strategy poorly reactive: growing a job by many processors takes many
        submission latencies, not one.
    """

    def __init__(
        self,
        env: Environment,
        cluster: Cluster,
        *,
        submission_latency: float = 5.0,
        recruit_latency: float = 0.5,
        latency_jitter: float = 0.2,
        rng: Optional[np.random.Generator] = None,
        max_concurrent_submissions: Optional[int] = None,
    ) -> None:
        if submission_latency < 0 or recruit_latency < 0:
            raise ValueError("latencies must be non-negative")
        if not 0.0 <= latency_jitter < 1.0:
            raise ValueError("latency_jitter must lie in [0, 1)")
        if max_concurrent_submissions is not None and max_concurrent_submissions < 1:
            raise ValueError("max_concurrent_submissions must be >= 1 (or None)")
        self.env = env
        self.cluster = cluster
        self.submission_latency = float(submission_latency)
        self.recruit_latency = float(recruit_latency)
        self.latency_jitter = float(latency_jitter)
        self._rng = rng
        self.max_concurrent_submissions = max_concurrent_submissions
        #: Gatekeeper state: submissions holding a slot, and ``(job, done)``
        #: of those waiting for one, oldest first.
        self._admitted = 0
        self._waiting: Deque[Tuple[GramJob, Event]] = deque()
        #: GRAM jobs currently live at this endpoint.  Refused and released
        #: jobs are pruned immediately — at streaming workload sizes
        #: (hundreds of thousands of jobs) a grows-forever history would
        #: dominate the resident set.
        self.jobs: List[GramJob] = []
        #: Lifetime submission counter (the history the pruned list no
        #: longer provides).
        self.submitted_count: int = 0

    # -- latency model -----------------------------------------------------

    def _jittered(self, latency: float) -> float:
        if self._rng is None or self.latency_jitter == 0.0 or latency == 0.0:
            return latency
        factor = 1.0 + self._rng.uniform(-self.latency_jitter, self.latency_jitter)
        return max(0.0, latency * factor)

    # -- submission --------------------------------------------------------

    def submit(self, owner: str, processors: int = 1) -> Event:
        """Submit a GRAM job of *processors* nodes on behalf of *owner*.

        Returns an event that succeeds with the :class:`GramJob` once the
        job's stub is active (processors held), or fails with
        :class:`GramSubmissionError` if the processors are no longer
        available when the submission reaches the local resource manager.
        """
        if processors < 1:
            raise ValueError("a GRAM job needs at least one processor")
        job = GramJob(owner=owner, processors=int(processors))
        job.submitted_at = self.env.now
        self.jobs.append(job)
        self.submitted_count += 1
        done = Event(self.env)
        self.env.schedule_callback(self._arrive, priority=URGENT, value=(job, done))
        return done

    def _arrive(self, event: Event) -> None:
        """The submission reaches the gatekeeper (a process start's slot)."""
        if self.max_concurrent_submissions is None:
            self._start_latency(event)
            return
        self._waiting.append(event._value)
        self._admit()

    def _admit(self, event: Optional[Event] = None) -> None:
        """Hand free gatekeeper slots to waiting submissions, oldest first.

        Runs when a submission arrives and, as a callback, one event after a
        slot is freed; each admission takes effect one event later (the
        slot-grant's slot), in :meth:`_start_latency`.
        """
        waiting = self._waiting
        while waiting and self._admitted < self.max_concurrent_submissions:
            self._admitted += 1
            self.env.schedule_callback(self._start_latency, value=waiting.popleft())

    def _start_latency(self, event: Event) -> None:
        """Draw the submission latency and start its timer."""
        self.env.schedule_callback(
            self._complete, self._jittered(self.submission_latency), value=event._value
        )

    def _complete(self, event: Event) -> None:
        """The submission reaches the local resource manager."""
        job, done = event._value
        if self.max_concurrent_submissions is not None:
            self._admitted -= 1
            # The freed slot is handed on one event later.  With nobody
            # waiting and no other submission in flight, that event would
            # admit nobody: arrivals take free slots at once and queue only
            # when all are taken, and no slot can free up before it fires.
            if self._waiting or self._admitted:
                self.env.schedule_callback(self._admit)
        allocation = self.cluster.try_allocate(job.processors, owner=job.owner, kind="grid")
        if allocation is None:
            error = GramSubmissionError(
                self.cluster.name, job.processors, self.cluster.idle_processors
            )
            # A refused submission is an expected outcome (the caller decides
            # what to do about it), not a simulation error: pre-defuse so the
            # environment does not abort if the caller has not started
            # waiting on this particular submission yet.
            done.defused = True
            done.fail(error)
            if job in self.jobs:
                self.jobs.remove(job)
            return
        job.allocation = allocation
        job.active_at = self.env.now
        done.succeed(job)

    def recruit(self, job: GramJob) -> Event:
        """Turn the active stub of *job* into an application process.

        Returns an event that succeeds after the (short) recruitment latency.
        Recruiting is how the MRunner hands freshly obtained processors to the
        running application without paying another full GRAM submission.
        """
        if not job.active:
            raise GramSubmissionError(
                self.cluster.name,
                job.processors,
                self.cluster.idle_processors,
                f"cannot recruit GRAM job {job.gram_id} on {self.cluster.name!r}: "
                f"its stub is not active",
            )
        return self.env.timeout(self._jittered(self.recruit_latency), value=job)

    def release(self, job: GramJob) -> None:
        """Release the processors held by *job* (after the application shrank)."""
        if job.allocation is not None and job.allocation.active:
            job.allocation.release()
        job.released_at = self.env.now
        if job in self.jobs:
            self.jobs.remove(job)

    # -- inspection ----------------------------------------------------------

    @property
    def active_jobs(self) -> List[GramJob]:
        """GRAM jobs currently holding processors."""
        return [job for job in self.jobs if job.active]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<GramEndpoint on {self.cluster.name!r} ({len(self.active_jobs)} active jobs)>"

"""Workload submission: replaying a specification against a scheduler.

The :class:`WorkloadSubmitter` is the simulated counterpart of the paper's
single client site: it materialises each :class:`~repro.workloads.spec.JobSpec`
at its submit time and hands it to the scheduler through the runners
framework.  It also keeps the submitted jobs so the metrics layer can join
them with their execution records afterwards.

Submission happens at each spec's *absolute* submit time
(:meth:`~repro.sim.core.Environment.timeout_at`), not after a relative
delay: relative delays accumulate float rounding, whereas absolute times
make the realised submission instants a pure function of the workload —
which is what lets a run restored from a checkpoint (a submitter created
mid-workload via ``start_index``) land every remaining submission on
exactly the instants of the uninterrupted run.
"""

from __future__ import annotations

from itertools import islice
from typing import Dict, List, Optional

from repro.apps.profiles import ProfileRegistry, default_registry
from repro.koala.job import Job
from repro.koala.scheduler import KoalaScheduler
from repro.sim.core import Environment
from repro.sim.events import Event
from repro.workloads.spec import JobSpec, WorkloadSpec


class WorkloadSubmitter:
    """Submits a workload specification to a scheduler at the right times.

    Parameters
    ----------
    env, scheduler:
        Simulation environment and target scheduler.
    workload:
        The workload specification to replay.
    registry:
        Application-profile registry used to materialise job specs.
    start_index:
        Index of the first spec to submit.  A checkpoint records the
        submitter's :attr:`cursor`; the restored run skips everything
        already submitted before the checkpoint.
    retain_jobs:
        Whether to keep every submitted :class:`Job` (and its spec) in
        :attr:`jobs` / :attr:`spec_of`.  Long streaming runs disable this —
        at half a million jobs the retained objects dominate the resident
        set — and rely on streaming metric collection instead.
    """

    def __init__(
        self,
        env: Environment,
        scheduler: KoalaScheduler,
        workload: WorkloadSpec,
        *,
        registry: Optional[ProfileRegistry] = None,
        start_index: int = 0,
        retain_jobs: bool = True,
    ) -> None:
        if start_index < 0:
            raise ValueError("start_index must be non-negative")
        self.env = env
        self.scheduler = scheduler
        self.workload = workload
        self.registry = registry or default_registry()
        self.start_index = int(start_index)
        self.retain_jobs = bool(retain_jobs)
        #: Jobs submitted so far, in submission order (empty when
        #: ``retain_jobs`` is off).
        self.jobs: List[Job] = []
        #: Mapping from job to the spec it was built from.
        self.spec_of: Dict[int, JobSpec] = {}
        self._submitted = 0
        #: Succeeds when the last job of the workload has been submitted.
        self.all_submitted: Event = env.event()
        self._process = env.process(self._submit_loop())

    @property
    def submitted_count(self) -> int:
        """Number of jobs submitted by this submitter."""
        return self._submitted

    @property
    def cursor(self) -> int:
        """Workload index of the next spec to submit (checkpoint capture)."""
        return self.start_index + self._submitted

    def _submit_loop(self):
        for spec in islice(iter(self.workload), self.start_index, None):
            if spec.submit_time > self.env.now:
                yield self.env.timeout_at(spec.submit_time)
            job = spec.build_job(self.registry)
            self._submitted += 1
            if self.retain_jobs:
                self.jobs.append(job)
                self.spec_of[job.job_id] = spec
            self.scheduler.submit(job)
        if not self.all_submitted.triggered:
            self.all_submitted.succeed(self.cursor)

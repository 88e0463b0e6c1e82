"""Tests of the workload submitter (the simulated client site)."""

from __future__ import annotations


from repro.cluster import Multicluster
from repro.koala import JobKind, KoalaScheduler, SchedulerConfig
from repro.sim import RandomStreams
from repro.workloads import JobSpec, WorkloadSpec, WorkloadSubmitter


def build_scheduler(env, nodes=48):
    streams = RandomStreams(seed=17)
    system = Multicluster(env, streams=streams, gram_submission_latency=1.0)
    system.add_cluster("alpha", nodes)
    scheduler = KoalaScheduler(
        env,
        system,
        SchedulerConfig(poll_interval=10.0, adaptation_point_interval=0.0),
        streams=streams,
    )
    return system, scheduler


def small_workload():
    return WorkloadSpec(
        name="tiny",
        jobs=[
            JobSpec(submit_time=0.0, profile_name="ft", name="a"),
            JobSpec(submit_time=30.0, profile_name="gadget2", name="b"),
            JobSpec(submit_time=60.0, profile_name="ft", kind=JobKind.RIGID, name="c"),
        ],
    )


def test_jobs_are_submitted_at_their_specified_times(env):
    system, scheduler = build_scheduler(env)
    submitter = WorkloadSubmitter(env, scheduler, small_workload())
    env.run(until=29.0)
    assert submitter.submitted_count == 1
    env.run(until=61.0)
    assert submitter.submitted_count == 3
    assert submitter.all_submitted.triggered
    submit_times = [job.submit_time for job in submitter.jobs]
    assert submit_times == [0.0, 30.0, 60.0]
    assert [job.name for job in submitter.jobs] == ["a", "b", "c"]


def test_spec_of_links_jobs_back_to_their_specs(env):
    system, scheduler = build_scheduler(env)
    submitter = WorkloadSubmitter(env, scheduler, small_workload())
    env.run(until=100.0)
    for job in submitter.jobs:
        spec = submitter.spec_of[job.job_id]
        assert spec.name == job.name
        assert (job.kind is JobKind.RIGID) == (spec.kind is JobKind.RIGID)


def test_empty_workload_submits_nothing(env):
    system, scheduler = build_scheduler(env)
    submitter = WorkloadSubmitter(env, scheduler, WorkloadSpec(name="empty"))
    env.run(until=10.0)
    assert submitter.submitted_count == 0
    assert submitter.all_submitted.triggered
    assert scheduler.all_done

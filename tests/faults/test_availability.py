"""The cluster-layer availability model: failed processors leave the pool."""

from __future__ import annotations

import pytest

from repro.cluster import Cluster, Multicluster
from repro.cluster.local_rm import LocalJob, LocalResourceManager


def test_mark_failed_shrinks_idle_and_refuses_allocations(env):
    cluster = Cluster(env, "alpha", 8)
    cluster.mark_failed(5)
    assert cluster.failed_processors == 5
    assert cluster.available_processors == 3
    assert cluster.idle_processors == 3
    assert cluster.try_allocate(4, owner="too-big") is None
    allocation = cluster.allocate(3, owner="fits")
    assert cluster.idle_processors == 0
    allocation.release()
    cluster.mark_repaired(5)
    assert cluster.idle_processors == 8


def test_mark_failed_and_repaired_validate_bounds(env):
    cluster = Cluster(env, "alpha", 4)
    with pytest.raises(ValueError):
        cluster.mark_failed(5)
    with pytest.raises(ValueError):
        cluster.mark_failed(-1)
    with pytest.raises(ValueError):
        cluster.mark_repaired(1)
    cluster.mark_failed(2)
    with pytest.raises(ValueError):
        cluster.mark_repaired(3)


def test_idle_clamps_while_victims_are_dismantled(env):
    # Mark-first-release-second: between the two, failed + used exceeds the
    # total and the idle count must clamp at zero, not go negative.
    cluster = Cluster(env, "alpha", 4)
    allocation = cluster.allocate(3, owner="victim")
    cluster.mark_failed(2)
    assert cluster.idle_processors == 0
    allocation.release()
    assert cluster.idle_processors == 2


def test_availability_series_records_every_transition(env):
    cluster = Cluster(env, "alpha", 8)
    env.run(until=cluster.env.timeout(10))
    cluster.mark_failed(3)
    env.run(until=cluster.env.timeout(10))
    cluster.mark_repaired(1)
    assert cluster.availability_series.times == [0.0, 10.0, 20.0]
    assert cluster.availability_series.values == [8.0, 5.0, 6.0]


def test_repair_wakes_release_waiters(env):
    cluster = Cluster(env, "alpha", 2)
    cluster.mark_failed(2)
    woken = []
    event = cluster.when_released()
    event.callbacks.append(lambda e: woken.append(e.value))
    cluster.mark_repaired(2)
    env.run(until=1)
    assert woken == [2]


def test_multicluster_availability_series_sums_clusters(env, streams):
    system = Multicluster(env, streams=streams)
    system.add_cluster("alpha", 10)
    system.add_cluster("beta", 6)
    env.run(until=env.timeout(5))
    system.cluster("alpha").mark_failed(4)
    times, values = system.availability_series()
    assert list(times) == [0.0, 5.0]
    assert list(values) == [16.0, 12.0]
    assert system.available_processors == 12


def test_local_rm_fail_allocation_kills_the_running_job(env):
    cluster = Cluster(env, "alpha", 8)
    manager = LocalResourceManager(env, cluster)
    job = LocalJob(processors=4, duration=1000.0)
    manager.submit(job)
    env.run(until=10)
    assert cluster.used_processors == 4
    [(running_job, allocation)] = list(manager._running.values())
    assert running_job is job

    cluster.mark_failed(4)
    assert manager.fail_allocation(allocation)
    env.run(until=20)
    assert job.finished
    assert job.finish_time < 1000.0
    assert cluster.used_processors == 0
    assert cluster.idle_processors == 4  # the other half survived


def test_local_rm_fail_allocation_ignores_foreign_allocations(env):
    cluster = Cluster(env, "alpha", 8)
    manager = LocalResourceManager(env, cluster)
    foreign = cluster.allocate(2, owner="not-a-local-job")
    assert not manager.fail_allocation(foreign)

"""Unit tests of the GRAM submission endpoint."""

from __future__ import annotations

import pytest

from repro.cluster import Cluster, GramEndpoint, GramSubmissionError
from repro.sim import Environment, RandomStreams


def build(env, nodes=16, latency=5.0, recruit=0.5, rng=None):
    cluster = Cluster(env, "c", nodes)
    endpoint = GramEndpoint(
        env, cluster, submission_latency=latency, recruit_latency=recruit, rng=rng
    )
    return cluster, endpoint


def test_submission_becomes_active_after_latency(env):
    cluster, endpoint = build(env, latency=5.0)

    def driver(env, endpoint):
        job = yield endpoint.submit("job-1", 4)
        return (env.now, job.processors, job.active)

    driver_proc = env.process(driver(env, endpoint))
    env.run()
    assert driver_proc.value == (5.0, 4, True)
    assert cluster.used_processors == 4
    assert len(endpoint.active_jobs) == 1


def test_submission_fails_when_processors_disappear(env):
    cluster, endpoint = build(env, nodes=4, latency=5.0)

    def competitor(env, cluster):
        # Takes the nodes while the GRAM submission is still in flight.
        yield env.timeout(1.0)
        cluster.allocate(3, owner="background", kind="local")

    def driver(env, endpoint):
        try:
            yield endpoint.submit("job-1", 2)
        except GramSubmissionError as error:
            return ("failed", error.requested, env.now)
        return ("ok",)

    env.process(competitor(env, cluster))
    driver_proc = env.process(driver(env, endpoint))
    env.run()
    assert driver_proc.value == ("failed", 2, 5.0)
    assert cluster.grid_processors == 0


def test_release_returns_processors(env):
    cluster, endpoint = build(env)

    def driver(env, endpoint):
        job = yield endpoint.submit("job-1", 6)
        yield env.timeout(10)
        endpoint.release(job)
        return cluster.idle_processors

    driver_proc = env.process(driver(env, endpoint))
    env.run()
    assert driver_proc.value == 16
    assert endpoint.active_jobs == []


def test_recruit_requires_an_active_job_and_is_fast(env):
    cluster, endpoint = build(env, latency=4.0, recruit=0.5)

    def driver(env, endpoint):
        job = yield endpoint.submit("job-1", 1)
        submitted_at = env.now
        yield endpoint.recruit(job)
        return env.now - submitted_at

    driver_proc = env.process(driver(env, endpoint))
    env.run()
    assert driver_proc.value == pytest.approx(0.5)


def test_recruit_of_released_job_rejected(env):
    cluster, endpoint = build(env)

    def driver(env, endpoint):
        job = yield endpoint.submit("job-1", 1)
        endpoint.release(job)
        try:
            endpoint.recruit(job)
        except GramSubmissionError:
            return "rejected"

    driver_proc = env.process(driver(env, endpoint))
    env.run()
    assert driver_proc.value == "rejected"


def test_recruit_error_says_the_stub_is_not_active(env):
    cluster, endpoint = build(env)
    done = endpoint.submit("job-1", 1)
    env.run()
    endpoint.release(done.value)
    with pytest.raises(GramSubmissionError, match="stub is not active") as raised:
        endpoint.recruit(done.value)
    assert "idle" not in str(raised.value)


def test_latency_jitter_stays_within_bounds():
    env = Environment()
    rng = RandomStreams(3)["gram"]
    cluster, endpoint = build(env, latency=10.0, rng=rng)
    endpoint.latency_jitter = 0.2
    times = []

    def driver(env, endpoint, index):
        started = env.now
        yield endpoint.submit(f"job-{index}", 1)
        times.append(env.now - started)

    for index in range(10):
        env.process(driver(env, endpoint, index))
    env.run()
    assert all(8.0 <= t <= 12.0 for t in times)
    assert len(set(times)) > 1  # jitter actually varies


def test_submission_validation(env):
    cluster, endpoint = build(env)
    with pytest.raises(ValueError):
        endpoint.submit("job", 0)
    with pytest.raises(ValueError):
        GramEndpoint(env, cluster, submission_latency=-1)
    with pytest.raises(ValueError):
        GramEndpoint(env, cluster, latency_jitter=1.5)


def test_failed_submission_does_not_crash_unwaited(env):
    """A refused submission must never abort the simulation, even if the
    caller has not started waiting on it yet (pre-defused failure)."""
    cluster, endpoint = build(env, nodes=1, latency=2.0)
    cluster.allocate(1, owner="taken", kind="local")
    endpoint.submit("job-1", 1)  # nobody ever waits on this event
    env.run()  # must not raise
    assert cluster.grid_processors == 0


class ScriptedRng:
    """Stands in for a generator: returns the scripted jitters in order."""

    def __init__(self, values):
        self.values = list(values)

    def uniform(self, low, high):
        return self.values.pop(0)


@pytest.mark.parametrize(
    "limit, active_at",
    [(1, [5.0, 10.0, 15.0, 20.0]), (2, [5.0, 5.0, 10.0, 10.0]), (None, [5.0] * 4)],
)
def test_gatekeeper_admits_submissions_in_fifo_order(env, limit, active_at):
    cluster = Cluster(env, "c", 16)
    endpoint = GramEndpoint(
        env, cluster, submission_latency=5.0, max_concurrent_submissions=limit
    )
    activations = []
    for index in range(4):
        done = endpoint.submit(f"job-{index}")
        done.callbacks.append(lambda event: activations.append((event.value.owner, env.now)))
    env.run()
    assert activations == [(f"job-{index}", at) for index, at in enumerate(active_at)]
    assert cluster.grid_processors == 4


def test_queued_submission_draws_after_the_previous_waiter_recruits(env):
    # One gatekeeper slot: "b" is admitted the instant "a" completes, but it
    # draws its latency only after a's waiter resumed and drew its recruit.
    cluster = Cluster(env, "c", 16)
    endpoint = GramEndpoint(
        env,
        cluster,
        submission_latency=10.0,
        recruit_latency=1.0,
        latency_jitter=0.5,
        rng=ScriptedRng([0.1, 0.2, 0.3]),
        max_concurrent_submissions=1,
    )

    first = endpoint.submit("a")
    second = endpoint.submit("b")

    def recruiter(env):
        job = yield first
        yield endpoint.recruit(job)
        return env.now

    waiter = env.process(recruiter(env))
    env.run()
    assert waiter.value == pytest.approx(10.0 * 1.1 + 1.0 * 1.2)
    assert second.value.active_at == pytest.approx(10.0 * 1.1 + 10.0 * 1.3)


def test_refused_submission_fails_defused_and_leaves_the_job_list(env):
    cluster, endpoint = build(env, nodes=2, latency=2.0)
    cluster.allocate(2, owner="taken", kind="local")
    done = endpoint.submit("job-1", 1)
    env.run()
    assert done.processed and not done.ok and done.defused
    assert isinstance(done.value, GramSubmissionError)
    assert endpoint.jobs == []
    assert endpoint.submitted_count == 1

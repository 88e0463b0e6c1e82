"""Tracing must observe, never perturb: traced == untraced, always.

The property test sweeps seeds and policies and requires the traced run's
metrics to digest identically to the untraced run's — the observability
layer is a pure observer.  Same-seed traces must additionally be
byte-identical files (the foundation of ``repro-cli trace diff``), and the
simulation records of one pinned run are fixed by their sha256.
"""

from __future__ import annotations

import hashlib
import json
from functools import partial
from heapq import heappush

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.setup import ExperimentConfig, run_experiment
from repro.obs.trace import Tracer, load_trace, validate_trace
from repro.sim.core import Environment


def _digest(result) -> str:
    return hashlib.sha256(
        json.dumps(result.metrics.to_dict(), sort_keys=True).encode("utf-8")
    ).hexdigest()


def _config(seed, policy, **overrides):
    return ExperimentConfig(
        name="traced-prop",
        workload="Wm",
        job_count=6,
        seed=seed,
        malleability_policy=policy,
        **overrides,
    )


@settings(
    max_examples=5, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    policy=st.sampled_from(["FPSMA", "EGS", None]),
)
def test_traced_and_untraced_runs_digest_identically(tmp_path_factory, seed, policy):
    target = tmp_path_factory.mktemp("traces") / f"{seed}.jsonl"
    untraced = run_experiment(_config(seed, policy))
    traced = run_experiment(_config(seed, policy, trace=str(target)))
    assert _digest(traced) == _digest(untraced)
    records = load_trace(target)
    assert validate_trace(records) == []
    assert records[-1]["k"] == "run_end"
    assert records[-1]["digest"] == _digest(traced)


def test_same_seed_traces_are_byte_identical(tmp_path):
    paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
    for path in paths:
        run_experiment(_config(3, "FPSMA", trace=str(path)))
    assert paths[0].read_bytes() == paths[1].read_bytes()


#: sha256 of the simulation records (every line but ``header`` and
#: ``run_start``) of the traced 40-job FPSMA run below.  The run makes two
#: ``Environment.run`` calls and its first call emits a ``queue`` snapshot,
#: so the pin covers ``sched``, ``ev``, ``queue``, ``hook`` and ``run_end``.
PINNED_SIMULATION_RECORDS_SHA256 = (
    "1a4e87428b6fdb9cf52602dd1a6b76d183e613817140cde4cd9f1e3fcc5aa8c1"
)


def test_simulation_records_of_a_pinned_run_are_unchanged(tmp_path):
    target = tmp_path / "pinned.jsonl"
    run_experiment(
        ExperimentConfig(
            name="trace-pin",
            workload="Wm",
            job_count=40,
            seed=0,
            malleability_policy="FPSMA",
            trace=str(target),
        )
    )
    lines = target.read_bytes().splitlines(keepends=True)
    kinds = [json.loads(line)["k"] for line in lines]
    simulation = [
        line for line, kind in zip(lines, kinds) if kind not in ("header", "run_start")
    ]
    assert kinds.count("queue") == 1
    assert hashlib.sha256(b"".join(simulation)).hexdigest() == (
        PINNED_SIMULATION_RECORDS_SHA256
    )


class _ListSink:
    def __init__(self):
        self.records = []
        self.write = self.records.append

    def close(self):
        pass


def test_queue_snapshots_count_events_per_run_call():
    """Each ``run()`` call restarts the snapshot cadence; ``processed`` does not."""
    env = Environment()
    env.TRACE_QUEUE_SNAPSHOT_EVERY = 4
    sink = _ListSink()
    env.set_tracer(Tracer(sink))

    def tick(event):
        env.schedule_callback(tick, delay=1.0)

    env.schedule_callback(tick, delay=1.0)
    env.run(until=6.5)  # ticks 1..6 and the stop event: 7 events
    env.run(until=13.5)  # ticks 7..13 and the stop event: 8 events
    snapshots = [
        (record["t"], record["pending"], record["processed"])
        for record in sink.records
        if record["k"] == "queue"
    ]
    assert snapshots == [(4.0, 1, 4), (10.0, 1, 11), (13.5, 1, 15)]
    assert sum(record["k"] == "ev" for record in sink.records) == 15
    assert env.processed_events == 15


def test_different_seed_traces_diverge_in_simulation_records(tmp_path):
    from repro.obs.cli import diff_traces

    paths = {}
    for seed in (0, 1):
        paths[seed] = tmp_path / f"seed{seed}.jsonl"
        run_experiment(_config(seed, "FPSMA", trace=str(paths[seed])))
    divergence = diff_traces(load_trace(paths[0]), load_trace(paths[1]))
    assert divergence is not None
    index, ra, rb = divergence
    assert ra is not None and rb is not None
    # The first divergent record is a simulated one, not metadata.
    assert ra["k"] not in ("header", "run_start")


def test_env_var_activates_tracing(tmp_path, monkeypatch):
    target = tmp_path / "env.jsonl"
    monkeypatch.setenv("REPRO_TRACE", str(target))
    run_experiment(_config(0, "FPSMA"))
    assert target.exists()
    assert validate_trace(load_trace(target)) == []


def test_trace_field_changes_the_cache_key():
    from repro.experiments.engine import config_key

    plain = _config(0, "FPSMA")
    traced = _config(0, "FPSMA", trace="/tmp/t.jsonl")
    assert config_key(plain) != config_key(traced)


def test_tracer_detaches_after_the_run(tmp_path):
    run_experiment(_config(0, "FPSMA", trace=str(tmp_path / "t.jsonl")))
    env = Environment()
    assert env._tracer is None


def _is_raw_push(env) -> bool:
    push = env._push
    return isinstance(push, partial) and push.func is heappush and push.args[0] is env._heap


def test_disabled_tracing_leaves_the_hot_path_untouched():
    """set_tracer(None) must restore the raw ``heappush`` fast path."""
    env = Environment()
    assert env._tracer is None
    assert _is_raw_push(env)
    env.set_tracer(Tracer(_ListSink()))
    assert not _is_raw_push(env)
    env.set_tracer(None)
    assert _is_raw_push(env)

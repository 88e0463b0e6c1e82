"""Property: checkpoint at a random time + restore == straight-through.

The invariant is stated over the paper's central sweep (``figure7``,
malleable jobs under FPSMA) and the churn-replay combination (trace-driven
submissions under node churn) — both outside the native envelope, so the
captures run in replay mode.

For every drawn capture instant the restored run must finish where the
original does.  A streaming run must reproduce the per-job completion
digest and the kernel event count; a non-streaming run must reproduce the
full :class:`~repro.metrics.collector.ExperimentMetrics` and end time of
:func:`~repro.experiments.setup.run_experiment` on the same configuration.
"""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.checkpoint import (
    SimulationRun,
    advance_to_safe_point,
    capture_state,
    restore_run,
    step_until,
)
from repro.experiments.scenarios import get_scenario
from repro.experiments.setup import run_experiment
from repro.metrics.collector import ExperimentMetrics

SCENARIOS = ("figure7", "churn-replay")


def _metrics_digest(metrics: ExperimentMetrics) -> str:
    return hashlib.sha256(
        json.dumps(metrics.to_dict(), sort_keys=True).encode("utf-8")
    ).hexdigest()


def _run_metrics(run: SimulationRun) -> ExperimentMetrics:
    return ExperimentMetrics.from_run(
        run.scheduler, run.multicluster, label=run.config.label, faults=run.injector
    )


@lru_cache(maxsize=None)
def _reference(scenario: str, job_count: int):
    """``(config, run_experiment result)`` of *scenario*'s first config."""
    _label, config = get_scenario(scenario).expand(job_count=job_count)[0]
    return config, run_experiment(config)


def _roundtrip(scenario: str, at: float, *, streaming: bool, job_count: int = 10) -> None:
    config, reference = _reference(scenario, job_count)
    run = SimulationRun.fresh(config, streaming=streaming)
    step_until(run.env, at)
    advance_to_safe_point(run)
    envelope = capture_state(run, mode="replay")
    run.run_to_completion()
    assert run.done

    restored = restore_run(envelope)
    restored.run_to_completion()
    assert restored.done
    assert restored.env.processed_events == run.env.processed_events
    assert restored.env.now == run.env.now
    if streaming:
        assert restored.collector.window.digest == run.collector.window.digest
        assert restored.collector.window.jobs == run.collector.window.jobs
    else:
        assert float.fromhex(envelope["time"]) < reference.simulated_time
        assert _metrics_digest(_run_metrics(restored)) == _metrics_digest(
            reference.metrics
        )
        assert restored.env.now == reference.simulated_time


@pytest.mark.parametrize("scenario", SCENARIOS)
@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(fraction=st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_checkpoint_restore_byte_identical(scenario, fraction):
    _roundtrip(scenario, fraction * 4000.0, streaming=True)


@pytest.mark.parametrize("scenario", SCENARIOS)
@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(fraction=st.floats(min_value=0.0, max_value=0.9, allow_nan=False))
def test_checkpoint_restore_keeps_full_metrics(scenario, fraction):
    # Captures stay before the uninterrupted run's end, so the resumed run
    # still has that run's last completion check ahead of it.
    _config, reference = _reference(scenario, 10)
    _roundtrip(scenario, fraction * reference.simulated_time, streaming=False)


@pytest.mark.parametrize("at", [500.0, 2000.0])
def test_resumed_figure7_run_matches_run_experiment(at):
    """A fixed case: figure7's first config at 20 jobs, captured twice."""
    _roundtrip("figure7", at, streaming=False, job_count=20)

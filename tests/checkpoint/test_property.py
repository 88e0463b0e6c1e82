"""Property: checkpoint at a random time + restore == straight-through.

The ISSUE-mandated invariant, stated over the paper's central sweep
(``figure7``, malleable jobs under FPSMA) and the churn-replay combination
(trace-driven submissions under node churn) — both outside the native
envelope, so the captures run in replay mode.

For every drawn capture instant the restored run must finish with the same
per-job completion digest and the same kernel event count as the original,
whatever phase the simulation was in when the checkpoint hit.
"""

from __future__ import annotations

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

SCENARIOS = ("figure7", "churn-replay")


def _roundtrip(scenario: str, fraction: float) -> None:
    _label, config = get_scenario(scenario).expand(job_count=10)[0]
    run = SimulationRun.fresh(config, retain_jobs=False, collect_windowed=True)
    at = fraction * 4000.0
    step_until(run.env, at)
    advance_to_safe_point(run)
    envelope = capture_state(run, mode="replay")
    run.run_to_completion(drain=True)
    assert run.done

    restored = restore_run(envelope)
    restored.run_to_completion(drain=True)
    assert restored.done
    assert restored.collector.window.digest == run.collector.window.digest
    assert restored.collector.window.jobs == run.collector.window.jobs
    assert restored.env.processed_events == run.env.processed_events
    assert restored.env.now == run.env.now


@pytest.mark.parametrize("scenario", SCENARIOS)
@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(fraction=st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_checkpoint_restore_byte_identical(scenario, fraction):
    _roundtrip(scenario, fraction)

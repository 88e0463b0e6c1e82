"""The resumable-long-run driver of the checkpoint layer.

:func:`run_checkpointed` advances a streaming
:class:`~repro.experiments.setup.SimulationRun` in checkpoint intervals and
persists a checkpoint per boundary.  The run keeps no finished job (its
windowed collector takes every completion), so memory stays flat at
million-job scale.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.checkpoint.capture import (
    advance_to_safe_point,
    capture_state,
    step_until,
)
from repro.checkpoint.envelope import CheckpointStore, save_checkpoint
from repro.experiments.setup import ExperimentConfig, SimulationRun, gc_paused
from repro.workloads.spec import WorkloadSpec


def run_checkpointed(
    config: ExperimentConfig,
    *,
    checkpoint_every: float,
    store: Optional[CheckpointStore] = None,
    path: Optional[Union[str, Path]] = None,
    workload: Optional[WorkloadSpec] = None,
    mode: str = "native",
    run: Optional[SimulationRun] = None,
) -> Dict[str, Any]:
    """Run *config* to completion, checkpointing every *checkpoint_every* s.

    The run streams: every completion goes into a
    :class:`~repro.metrics.windowed.WindowedMetrics` window and nothing of
    the finished job is kept, so the resident set stays flat however long
    the run is.  Checkpoints are persisted to *store* (content-addressed) and/or as
    numbered files derived from *path* (``path``'s stem gains a ``-NNNN``
    index per boundary); with neither, the envelopes are only returned.

    Pass a restored *run* (from :func:`repro.checkpoint.restore.restore_run`)
    to resume a previous invocation; its configuration must match *config*.

    Returns a summary dict: the merged window, completion flags, checkpoint
    keys/paths and the last envelope.
    """
    if checkpoint_every <= 0:
        raise ValueError("checkpoint_every must be positive")
    if run is None:
        run = SimulationRun.fresh(config, workload=workload, streaming=True)
    elif run.collector is None:
        raise ValueError("a resumed run must carry a windowed collector")
    env = run.env
    limit = float(config.time_limit)
    interval = float(checkpoint_every)
    boundary = env.now + interval
    keys: List[str] = []
    paths: List[str] = []
    last_envelope: Optional[Dict[str, Any]] = None
    path = Path(path) if path is not None else None
    file_index = 0
    captured = 0

    with gc_paused():
        while not run.done:
            if env.now >= limit or env.peek() > limit:
                break
            step_until(env, min(boundary, limit))
            if run.done or env.now >= limit:
                break
            advance_to_safe_point(run, limit=limit)
            # The next boundary is one interval past the actual capture
            # instant (the safe point may lie well past the nominal one).
            boundary = env.now + interval
            if run.done:
                break
            last_envelope = capture_state(run, mode=mode)
            captured += 1
            if store is not None:
                keys.append(store.save(last_envelope))
            if path is not None:
                suffix = path.suffix or ".json"
                target = path.with_name(f"{path.stem}-{file_index:04d}{suffix}")
                save_checkpoint(last_envelope, target)
                paths.append(str(target))
                file_index += 1

    return {
        "config": config,
        "window": run.collector.window,
        "all_done": run.done,
        "simulated_time": env.now,
        "events_processed": env.processed_events,
        "checkpoint_keys": keys,
        "checkpoint_paths": paths,
        "checkpoints": captured,
        "last_checkpoint": last_envelope,
        "run": run,
    }

"""Tests of the benchmark itself.

Run from the root of the checkout::

    PYTHONPATH=src python -m pytest perfbench -q

The exact-counter test starts the benchmark's traced mode twice per
workload, so the whole file takes a minute or two.
"""

from __future__ import annotations

import cProfile
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import hostcal
import run
from workloads import histogram_p50, percentile

ROOT = Path(__file__).resolve().parents[1]

#: Counters that must repeat exactly between two runs of one seed.
EXACT_PREFIXES = (
    "sim.events_per_job", "sim.ev.", "malleability.grow_msgs", "malleability.shrink_msgs"
)


def is_exact(name: str) -> bool:
    return name.endswith(".calls_per_job") or name.startswith(EXACT_PREFIXES)


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


def test_normalise_returns_raw_duration_at_reference_speed() -> None:
    assert hostcal.normalise(1.25, hostcal.CAL_REF_MS) == 1.25
    assert hostcal.normalise(1.0, 2 * hostcal.CAL_REF_MS) == 0.5


def test_guard_trips_under_an_active_profiler() -> None:
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        with pytest.raises(RuntimeError, match="profiler"):
            hostcal.guard()
        with pytest.raises(RuntimeError, match="profiler"):
            hostcal.timed(lambda: None)
    finally:
        profiler.disable()
    hostcal.guard()  # quiet again once the profiler is off


def test_calibration_unit_is_deterministic() -> None:
    assert hostcal.calibration_unit(500) == hostcal.calibration_unit(500)


def test_percentile_is_nearest_rank() -> None:
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, 0.9) == 90.0
    assert percentile(values, 0.5) == 50.0
    assert percentile([3.0], 0.9) == 3.0


def test_histogram_median_interpolates_inside_its_bucket() -> None:
    # base 1: bucket 1 = [1, 2), bucket 2 = [2, 4); the median (2 of 4
    # observations) is the end of bucket 1.
    snapshot = {"count": 4, "bucket_base": 1.0, "buckets": [0, 2, 2], "max": 3.0}
    assert histogram_p50(snapshot) == 2.0
    assert histogram_p50({"count": 0}) == 0.0


def test_benchmark_json_matches_the_metrics_the_command_prints() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_refuses_to_run_without_the_program(tmp_path: Path) -> None:
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = bench("--workload", "pra-grow", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_runs_of_one_seed_report_identical_exact_counters(workload: str) -> None:
    reports = []
    for _ in range(2):
        done = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1")
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        digest = next(line.split()[-1] for line in done.stdout.splitlines()
                      if line.strip().startswith("digest"))
        metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
        reports.append((digest, {name: v for name, v in metrics.items() if is_exact(name)}))
    (first_digest, first), (second_digest, second) = reports
    assert first_digest == second_digest
    assert first == second
    assert first["sim.events_per_job"] > 0
    if workload == "rigid-shard":
        assert first["malleability.calls_per_job"] == first["dynaco.calls_per_job"] == 0

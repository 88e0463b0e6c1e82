"""The repository's benchmark: one command, four workloads, host-normalised.

Run from the root of a checkout (it builds nothing; the program is the
``src/`` tree)::

    python3 perfbench/run.py --workload pra-grow --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the separate
per-layer run (cProfile, the program's own tracer, the daemon's ``metrics``
op).  Each workload runs in processes of its own (see ``workloads.py``);
this launcher spawns them, combines what they report, prints every metric
with its unit and sample count, and ends with one JSON line::

    {"correct": true, "attempted": 60, "failed": 0, "metrics": {...}}

The exit code is 0 only when every correctness check passed.  See NOTES.md
for why each workload exists and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

import hostcal
from workloads import EVENT_TYPES, HOOKS, LAYERS, SPANS, Checks, batch_p90, combined_digest, flat

HERE = Path(__file__).resolve().parent
WORKLOADS = ("pra-grow", "pwa-shrink", "rigid-shard", "daemon-mix")
#: Sim workloads run in this many fresh processes, one after the other; each
#: contributes one set-up sample and a share of the timed calls.
SIM_PROCESSES = 3
#: Every run must end within this many seconds, children included.
RUN_LIMIT_S = 170.0

#: End-to-end metrics and their units.
END_TO_END: Dict[str, str] = {
    "sim_jobs_per_s": "jobs/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "fraction",
    "cold_p50_ms": "ms",
    "warm_p50_ms": "ms",
    "store_p50_ms": "ms",
}


def per_layer_units() -> Dict[str, str]:
    """Per-layer metrics and their units, in report order."""
    units: Dict[str, str] = {
        "sim.events_per_job": "events/job",
        **{f"sim.ev.{name}_per_job": "events/job" for name in EVENT_TYPES},
    }
    for layer in LAYERS:
        units[f"{layer}.calls_per_job"] = "calls/job"
        units[f"{layer}.self_share"] = "fraction"
    units.update({f"koala.hook.{hook}_per_job": "hooks/job" for hook in HOOKS})
    units.update({
        "malleability.grow_msgs_per_job": "msgs/job",
        "malleability.shrink_msgs_per_job": "msgs/job",
        "checkpoint.valid_window_ratio": "fraction",
        "experiments.config_key_us": "us",
        "service.payload_p50_ms": "ms",
        "service.store_get_p50_ms": "ms",
        "service.store_put_p50_ms": "ms",
        "service.dispatch_p50_ms": "ms",
        "service.store_hit_ratio": "fraction",
        "service.executions": "count",
    })
    units.update({f"span.{name}_share": "fraction" for name, _, _ in SPANS})
    units.update({
        "setup.import_s": "s",
        "host.cal_ms": "ms",
        "raw_jobs_per_s": "jobs/s",
        "trace.overhead_x": "x",
    })
    return units


class ChildFailed(RuntimeError):
    """A workload process exited abnormally or printed no result."""


def spawn(job: Dict[str, Any], env: Dict[str, str], deadline: float) -> Dict[str, Any]:
    """Run one workload process to completion and return its JSON result.

    The child gets its own process group, so a timeout also stops anything
    it started (the daemon, its worker) before this returns.
    """
    job = dict(job, cal_spawn_ms=hostcal.cal_ms(), spawned_at=time.monotonic())
    process = subprocess.Popen(
        [sys.executable, str(HERE / "workloads.py"), json.dumps(job)],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = process.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise ChildFailed(f"{job['workload']} ({job['mode']}) exceeded the time limit") from None
    lines = stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        raise ChildFailed(f"{job['workload']} ({job['mode']}) exited with {process.returncode}")
    return json.loads(lines[-1])


def sim_end_to_end(results: List[Dict[str, Any]], checks: Checks) -> Tuple[dict, dict, dict]:
    """Combine the sim processes into ``(metrics, sample counts, extras)``."""
    calls = [call for result in results for call in result["calls"]]
    by_label: Dict[str, List[Dict[str, Any]]] = {}
    for call in calls:
        by_label.setdefault(call["label"], []).append(call)
    # Each distinct configuration counts once, at its median time, so a
    # config the run happened to time more often weighs no more.
    jobs = sum(group[0]["jobs"] for group in by_label.values())
    medians = [
        statistics.median(hostcal.normalise(c["raw_s"], c["cal_ms"]) for c in group)
        for group in by_label.values()
    ]
    norm = sum(medians)
    raw = sum(statistics.median(c["raw_s"] for c in group) for group in by_label.values())
    digests: Dict[str, str] = {}
    for label in sorted(by_label):
        seen = {result["digests"][label] for result in results if label in result["digests"]}
        checks.attempt(len(seen) == 1, f"{label}: digest differs between processes")
        digests[label] = min(seen)
    warm_batches = [batch for result in results for batch in result["warm_ms"]]
    warm = flat(warm_batches)
    store = [value for result in results for value in result["store_ms"]]

    metrics = {
        "sim_jobs_per_s": jobs / norm,
        "setup_s": statistics.median(result["setup_s"] for result in results),
        "peak_rss_mb": max(result["peak_rss_mb"] for result in results),
        "cold_p50_ms": statistics.median(medians) * 1000.0,
        "warm_p50_ms": statistics.median(warm),
        "store_p50_ms": statistics.median(store),
    }
    samples = {
        "sim_jobs_per_s": len(calls),
        "setup_s": len(results),
        "peak_rss_mb": len(results),
        "cold_p50_ms": len(calls),
        "warm_p50_ms": len(warm),
        "store_p50_ms": len(store),
    }
    extras = {
        "warm_p90_ms": batch_p90(warm_batches),
        "warm_p90_n": f"{len(warm)} in {len(warm_batches)} batches",
        "host.cal_ms": statistics.median(c["cal_ms"] for c in calls),
        "raw_jobs_per_s": jobs / raw,
        "digest": combined_digest(digests),
    }
    return metrics, samples, extras


def daemon_end_to_end(result: Dict[str, Any]) -> Tuple[dict, dict, dict]:
    """The daemon-mix process's numbers as ``(metrics, sample counts, extras)``."""
    metrics = {
        "sim_jobs_per_s": result["cold_jobs_per_s"],
        "setup_s": statistics.median(result["setups_s"]),
        "peak_rss_mb": result["peak_rss_mb"],
        "cold_p50_ms": statistics.median(result["cold_ms"]),
        "warm_p50_ms": statistics.median(flat(result["warm_ms"])),
        "store_p50_ms": statistics.median(result["store_ms"]),
    }
    samples = {
        "sim_jobs_per_s": len(result["cold_ms"]),
        "setup_s": len(result["setups_s"]),
        "peak_rss_mb": 1,
        "cold_p50_ms": len(result["cold_ms"]),
        "warm_p50_ms": len(flat(result["warm_ms"])),
        "store_p50_ms": len(result["store_ms"]),
    }
    extras = {
        "warm_p90_ms": batch_p90(result["warm_ms"]),
        "warm_p90_n": f"{len(flat(result['warm_ms']))} in {len(result['warm_ms'])} batches",
        "host.cal_ms": result["cal_ms"],
        "raw_jobs_per_s": result["raw_jobs_per_s"],
        "digest": result["workload_digest"],
    }
    return metrics, samples, extras


def merge_checks(checks: Checks, reported: Dict[str, Any]) -> None:
    checks.attempted += reported["attempted"]
    checks.failed += reported["failed"]
    checks.problems.extend(reported["problems"])


def measure(args: argparse.Namespace, root: Path, rundir: Path) -> Tuple[dict, dict, Checks]:
    """Run the workload; ``(metrics with units, printable lines, checks)``."""
    deadline = time.monotonic() + RUN_LIMIT_S
    env = dict(os.environ)
    for name in ("REPRO_TRACE", "REPRO_SERVICE_SOCKET", "REPRO_STORE_BUDGET"):
        env.pop(name, None)
    env.update(
        PYTHONPATH=str(root / "src"),
        PYTHONHASHSEED="0",
        REPRO_CACHE_DIR=str(rundir / "cache"),
        REPRO_LOG_LEVEL="WARNING",
    )
    job = {"workload": args.workload, "seed": args.seed, "rundir": str(rundir)}
    spawn(dict(job, mode="prep"), env, deadline)
    checks = Checks()
    lines: Dict[str, str] = {}

    if args.trace:
        result = spawn(dict(job, mode="traced", budget_s=args.seconds), env, deadline)
        merge_checks(checks, result["checks"])
        units = per_layer_units()
        missing = sorted(set(units) - set(result["metrics"]))
        if missing:
            raise ChildFailed(f"traced run did not report {', '.join(missing)}")
        metrics = {name: (result["metrics"][name], unit) for name, unit in units.items()}
        lines["digest"] = result["workload_digest"]
        return metrics, lines, checks

    if args.workload == "daemon-mix":
        result = spawn(dict(job, mode="timed", budget_s=args.seconds), env, deadline)
        merge_checks(checks, result["checks"])
        values, samples, extras = daemon_end_to_end(result)
    else:
        results = []
        for process in range(SIM_PROCESSES):
            timed_job = dict(job, mode="timed", budget_s=args.seconds / SIM_PROCESSES,
                             process=process, processes=SIM_PROCESSES)
            results.append(spawn(timed_job, env, deadline))
            merge_checks(checks, results[-1]["checks"])
        values, samples, extras = sim_end_to_end(results, checks)
    values["success_rate"] = (checks.attempted - checks.failed) / max(1, checks.attempted)
    samples["success_rate"] = checks.attempted
    metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    for name, (value, unit) in metrics.items():
        lines[name] = f"{value:.6g} {unit} (n={samples[name]})"
    lines["host.cal_ms"] = f"{extras['host.cal_ms']:.6g} ms (reference {hostcal.CAL_REF_MS} ms)"
    lines["raw_jobs_per_s"] = f"{extras['raw_jobs_per_s']:.6g} jobs/s (not normalised)"
    # Printed, not gated: over ten runs its spread reached 9.3%, too wide for
    # a regression bound of at most 25% (see NOTES.md).
    lines["warm_p90_ms"] = f"{extras['warm_p90_ms']:.6g} ms (n={extras['warm_p90_n']}; not gated)"
    lines["digest"] = extras["digest"]
    return metrics, lines, checks


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {root / 'src' / 'repro'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    hostcal.guard()
    # One CPU for this process and everything it starts: the calibration
    # unit then measures the speed of the CPU the measured work runs on
    # (the daemon and its client take turns, they never need two).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    rundir = root / ".perfbench" / f"run-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)  # left by a killed run with our pid
    rundir.mkdir(parents=True)
    try:
        metrics, lines, checks = measure(args, root, rundir)
    except ChildFailed as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
        try:
            rundir.parent.rmdir()
        except OSError:
            pass  # another run is still using it

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    for name, text in lines.items():
        if name not in metrics:
            print(f"  {name:<36} {text}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {lines.get(name, f'{value:.6g} {unit}')}")
    for problem in checks.problems:
        print(f"  FAILED: {problem}")
    correct = checks.failed == 0 and checks.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

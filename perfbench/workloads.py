"""One benchmark workload, run in its own process.

``run.py`` starts this script with one JSON argument describing the job and
reads one JSON object back from the last line of its standard output.  The
script drives the program only through its public entry points:
``run_experiment``, ``shard_replay``, ``ServiceClient`` against a
``repro-cli serve`` subprocess, and ``ResultStore`` /
``protocol.result_payload`` / ``config_key`` for the result-serving path.

Modes (the ``mode`` field of the job):

``prep``    import everything once, so byte-compiled files exist before any
            set-up is timed.
``timed``   the measured run: host-normalised timings and correctness
            checks.
``traced``  the per-layer run: cProfile around the same public calls, the
            program's own JSONL tracer, the daemon's ``metrics`` op.  Never
            the source of an end-to-end number.
"""

from __future__ import annotations

import cProfile
import gc
import hashlib
import importlib
import itertools
import json
import math
import os
import pstats
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import hostcal

#: Jobs per configuration of the Figure 7 / Figure 8 workloads.
PAPER_JOBS = 300
#: Jobs per ``shard_bench_config`` replay, and in its warm-up run.
RIGID_JOBS = 3000
RIGID_WARMUP_JOBS = 1000
#: Distinct configurations per run; their seeds derive from the bench seed.
DISTINCT_CONFIGS = {"pra-grow": 10, "pwa-shrink": 10, "rigid-shard": 2}

#: daemon-mix: seeds per policy of the distinct cold configurations (FPSMA
#: and EGS), jobs per configuration, warm requests per calibrated batch, and
#: how often the daemon is restarted on the same store for the store phase.
DAEMON_SEEDS = 40
DAEMON_JOBS = 40
WARM_BATCH = 48
DAEMON_RESTARTS = 5
#: Share of the run's seconds given to the cold and warm phase.
PHASE_SHARE = 0.7
#: Cold configurations re-run in-process to check the daemon's digests (and,
#: in traced mode, to count the work they did).
DIGEST_SAMPLE = 4

#: Result-serving leg of the sim workloads: calibrated batches x batch size.
SERVE_BATCHES = 3
SERVE_BATCH = 32

#: The layers of the program: the packages under ``repro/``.
LAYERS = (
    "sim", "cluster", "koala", "malleability", "dynaco", "apps",
    "policies", "workloads", "metrics", "checkpoint", "experiments", "service",
)
#: Kernel event types counted from the tracer's ``ev`` records.
EVENT_TYPES = ("Event", "Timeout", "Initialize", "Process", "Condition", "Request", "Release")
#: Scheduler hooks counted from the tracer's ``hook`` records.
HOOKS = ("kis_updated", "processors_freed")
#: ``(name, module, attribute)`` of the entry points whose share of a
#: call's wall time is reported as ``span.<name>_share``.
SPANS = (
    ("build_workload", "repro.experiments.setup", "build_workload"),
    ("build_system", "repro.experiments.setup", "build_system"),
    ("env_run", "repro.sim.core", "Environment.run"),
    ("from_run", "repro.metrics.collector", "ExperimentMetrics.from_run"),
)


def percentile(values: List[float], share: float) -> float:
    """The nearest-rank *share* quantile of *values*."""
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(share * len(ordered))))
    return ordered[rank - 1]


def histogram_p50(snapshot: Dict[str, Any]) -> float:
    """Median of a ``repro.obs.metrics.Histogram`` snapshot, in its unit.

    Bucket *i* > 0 holds ``[base * 2**(i-1), base * 2**i)``; the median is
    placed linearly inside the bucket that holds it.
    """
    count = snapshot.get("count") or 0
    if not count:
        return 0.0
    base = snapshot["bucket_base"]
    target = count / 2.0
    seen = 0
    for index, in_bucket in enumerate(snapshot["buckets"]):
        if in_bucket and seen + in_bucket >= target:
            low = 0.0 if index == 0 else base * 2.0 ** (index - 1)
            high = base * 2.0**index
            return low + (high - low) * (target - seen) / in_bucket
        seen += in_bucket
    return float(snapshot["max"])


def histogram_delta(after: Dict[str, Any], before: Dict[str, Any]) -> Dict[str, Any]:
    """The observations a histogram snapshot gained since an earlier one."""
    buckets = list(after["buckets"])
    for index, in_bucket in enumerate(before["buckets"]):
        buckets[index] -= in_bucket
    return dict(after, count=after["count"] - before["count"], buckets=buckets)


class Checks:
    """Correctness checks: one entry per attempt (a config or a request)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def attempt(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)
        return ok

    def to_dict(self) -> Dict[str, Any]:
        return {"attempted": self.attempted, "failed": self.failed, "problems": self.problems}


def ms(durations: List[float], cal: float) -> List[float]:
    """Raw per-call seconds to host-normalised milliseconds."""
    return [hostcal.normalise(duration, cal) * 1000.0 for duration in durations]


def flat(batches: List[List[float]]) -> List[float]:
    return [value for batch in batches for value in batch]


def batch_p90(batches: List[List[float]]) -> float:
    """The p90 of a latency, robust to bursts of host noise.

    Each calibrated batch gives its own nearest-rank p90; the median over
    batches is reported, so a batch hit by a burst of CPU steal moves it no
    more than any other single batch.
    """
    return statistics.median(percentile(batch, 0.9) for batch in batches)


def combined_digest(digests: Dict[str, str]) -> str:
    """One digest over labelled digests (sorted by label)."""
    digest = hashlib.sha256()
    for label in sorted(digests):
        digest.update(f"{label}={digests[label]};".encode())
    return digest.hexdigest()


# -- the simulated workloads ---------------------------------------------------


def sim_configs(workload: str, seed: int) -> Tuple[list, Any]:
    """``(timed configurations, warm-up configuration)`` of a sim workload."""
    from repro.checkpoint.shard import shard_bench_config
    from repro.experiments.setup import FIGURE8_BACKGROUND_PROFILE, ExperimentConfig

    def make(config_seed: int):
        if workload == "pra-grow":
            return ExperimentConfig(
                name="pra-grow", workload="Wm", job_count=PAPER_JOBS,
                malleability_policy="FPSMA", approach="PRA", placement_policy="WF",
                seed=config_seed,
            )
        if workload == "pwa-shrink":
            return ExperimentConfig(
                name="pwa-shrink", workload="W'm", job_count=PAPER_JOBS,
                malleability_policy="EGS", approach="PWA", placement_policy="WF",
                background_fraction=dict(FIGURE8_BACKGROUND_PROFILE), seed=config_seed,
            )
        return shard_bench_config(RIGID_JOBS, config_seed)

    base = seed * 100
    configs = [make(base + index) for index in range(DISTINCT_CONFIGS[workload])]
    warmup = make(base + 99)
    if workload == "rigid-shard":
        warmup = warmup.with_overrides(job_count=RIGID_WARMUP_JOBS)
    return configs, warmup


def sim_call(workload: str) -> Callable[[Any], Any]:
    """The public call a sim workload times."""
    if workload == "rigid-shard":
        from repro.checkpoint.shard import shard_replay

        return lambda config: shard_replay(config, force_sequential=True)
    from repro.experiments.setup import run_experiment

    return run_experiment


def sim_outcome(workload: str, config: Any, result: Any) -> Tuple[bool, str, int]:
    """``(checks passed, metrics digest, jobs)`` of one sim result.

    Every configuration must finish (``all_done``) with the submitted job
    count; a sharded replay must also keep every window it planned valid.
    """
    if workload == "rigid-shard":
        ok = (
            result.all_done
            and result.metrics.jobs == config.job_count
            and result.valid_windows == len(result.windows)
        )
        return ok, result.metrics.digest, result.metrics.jobs
    from repro.experiments.engine import result_to_record
    from repro.service.protocol import metrics_digest

    ok = result.all_done and len(result.metrics.jobs) == config.job_count
    return ok, metrics_digest(result_to_record(result)), len(result.metrics.jobs)


def warm_up(workload: str, config: Any) -> Any:
    """The untimed warm-up; returns its ``ExperimentResult``."""
    from repro.experiments.setup import run_experiment

    result = run_experiment(config)
    if workload == "rigid-shard":
        sim_call(workload)(config)  # warm the shard path as well
    return result


def serve_samples(
    served: List[Tuple[Any, Any]], store_dir: Path, *, layers: bool = False
) -> Dict[str, List[List[float]]]:
    """Time the result-serving path: batches of normalised ms.

    *served* holds ``(config, ExperimentResult)`` pairs; a batch cycles
    through their records, so no single record's size sets the numbers.
    ``warm``: ``protocol.result_payload`` (concise) + ``protocol.encode`` of
    a record held in memory, as the daemon answers a session hit.
    ``store``: ``ResultStore.get`` and then the same, as it answers a store
    hit.  With *layers*, also the pieces: ``payload``, ``get``, ``put`` and
    ``config_key``, plus the store's ``hit_ratio``.
    """
    from repro.experiments.engine import config_key, result_to_record
    from repro.service import protocol
    from repro.service.store import ResultStore

    configs = [config for config, _ in served]
    records = [result_to_record(result) for _, result in served]
    keys = [config_key(config) for config in configs]
    store = ResultStore(store_dir)
    for key, record in zip(keys, records):
        store.put(key, record)
    n = len(served)
    calls: Dict[str, Callable[[int], object]] = {
        "warm": lambda i: protocol.encode(protocol.result_payload(records[i % n], "concise")),
        "store": lambda i: protocol.encode(
            protocol.result_payload(store.get(keys[i % n]), "concise")
        ),
    }
    if layers:
        calls.update(
            payload=lambda i: protocol.result_payload(records[i % n], "concise"),
            get=lambda i: store.get(keys[i % n]),
            put=lambda i: store.put(keys[i % n], records[i % n]),
            config_key=lambda i: config_key(configs[i % n]),
        )
    samples: Dict[str, List[List[float]]] = {}
    for name, call in calls.items():
        samples[name] = []
        for _ in range(SERVE_BATCHES):
            _, durations, cal = hostcal.timed_batch(call, SERVE_BATCH)
            samples[name].append(ms(durations, cal))
    snapshot = store.metrics.snapshot()
    lookups = snapshot["store.hits"] + snapshot["store.misses"]
    samples["hit_ratio"] = [[snapshot["store.hits"] / lookups if lookups else 0.0]]
    return samples


def sim_timed(job: Dict[str, Any]) -> Dict[str, Any]:
    """The measured sim run: warm up, then time calls until the budget ends."""
    from repro.bench.runner import peak_rss_bytes

    workload, seed = job["workload"], job["seed"]
    configs, warmup = sim_configs(workload, seed)
    call = sim_call(workload)
    warm_result = warm_up(workload, warmup)

    setup_cal = hostcal.cal_ms()
    setup_end = time.monotonic()
    setup_s = hostcal.normalise(
        setup_end - job["spawned_at"], (setup_cal + job["cal_spawn_ms"]) / 2
    )
    deadline = setup_end + job["budget_s"]

    checks = Checks()
    calls: List[Dict[str, Any]] = []
    digests: Dict[str, str] = {}
    first_results: Dict[str, Any] = {}
    # The configurations in turn, each process starting at its own share of
    # the list, so that between them they time every one about equally often.
    start = job["process"] * len(configs) // job["processes"]
    for step in itertools.count():
        config = configs[(start + step) % len(configs)]
        result, raw, cal = hostcal.timed(lambda: call(config))
        ok, digest, jobs = sim_outcome(workload, config, result)
        label = f"{config.label}@{config.seed}"
        ok = ok and digests.setdefault(label, digest) == digest
        checks.attempt(ok, f"{label}: incomplete, invalid windows or digest changed")
        calls.append({"label": label, "jobs": jobs, "raw_s": raw, "cal_ms": cal})
        if workload != "rigid-shard":
            first_results.setdefault(label, (config, result))
        del result
        if time.monotonic() >= deadline:
            break

    # A sharded replay returns windowed metrics, not a result record; the
    # shard workload serves its warm-up run's record.
    served = list(first_results.values()) or [(warmup, warm_result)]
    serve = serve_samples(served, Path(job["rundir"]) / f"store-{os.getpid()}")
    return {
        "setup_s": setup_s,
        "calls": calls,
        "digests": digests,
        "warm_ms": serve["warm"],
        "store_ms": flat(serve["store"]),
        "peak_rss_mb": peak_rss_bytes() / 1e6,
        "checks": checks.to_dict(),
    }


# -- per-layer counting (traced mode) ------------------------------------------


def layer_rollup(profiler: cProfile.Profile, jobs: int) -> Dict[str, float]:
    """Own time and calls per ``repro/<module>`` from a cProfile run.

    Calls are cProfile's ``ncalls`` (every call event).  Its primitive-call
    count and cumulative times are not used: the simulator's processes are
    generators, and resuming them confuses cProfile's call stack, so those
    depend on where profiling started.  Own time and call events do not.
    """
    import repro

    root = str(Path(repro.__file__).parent) + os.sep
    stats = pstats.Stats(profiler).stats  # type: ignore[attr-defined]
    total = sum(entry[2] for entry in stats.values()) or 1.0
    calls: Counter = Counter()
    own: Counter = Counter()
    for (filename, _line, _function), (_cc, ncalls, tottime, _cum, _callers) in stats.items():
        if not filename.startswith(root):
            continue
        layer = filename[len(root):].split(os.sep)[0]
        layer = layer[:-3] if layer.endswith(".py") else layer
        calls[layer] += ncalls
        own[layer] += tottime
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls_per_job"] = calls[layer] / jobs
        metrics[f"{layer}.self_share"] = own[layer] / total
    return metrics


@contextmanager
def spans_recorded(totals: Counter) -> Iterator[None]:
    """Time every call of the :data:`SPANS` entry points into *totals*.

    Each entry point is wrapped where it is defined and in every ``repro``
    module that imported it by name, and restored on exit.
    """
    patches: List[Tuple[Any, str, Any]] = []

    def wrap(name: str, function: Callable) -> Callable:
        def timed_span(*args: Any, **kwargs: Any) -> Any:
            started = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                totals[name] += time.perf_counter() - started

        return timed_span

    try:
        for name, module_name, path in SPANS:
            owner: Any = importlib.import_module(module_name)
            *parents, attribute = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            original = owner.__dict__[attribute]
            if isinstance(original, classmethod):
                replacement: Any = classmethod(wrap(name, original.__func__))
            else:
                replacement = wrap(name, original)
            holders = [owner]
            if not parents:
                holders += [
                    module for module_name_, module in list(sys.modules.items())
                    if module_name_.startswith("repro.") and module is not owner
                    and getattr(module, attribute, None) is original
                ]
            for holder in holders:
                patches.append((holder, attribute, original))
                setattr(holder, attribute, replacement)
        yield
    finally:
        for holder, attribute, original in reversed(patches):
            setattr(holder, attribute, original)


def span_shares(call: Callable[[], Any]) -> Dict[str, float]:
    """Share of one *call*'s wall time spent inside each entry point."""
    totals: Counter = Counter()
    with spans_recorded(totals):
        started = time.perf_counter()
        call()
        total = time.perf_counter() - started
    return {f"span.{name}_share": totals[name] / total for name, _, _ in SPANS}


def profiled(call: Callable[[], Any]) -> Tuple[Any, cProfile.Profile, float, float]:
    """Run *call* under cProfile; ``(result, profiler, raw_s, cal_ms)``."""
    gc.collect()
    gc.disable()
    try:
        before = hostcal.cal_ms()
        profiler = cProfile.Profile()
        started = time.perf_counter()
        profiler.enable()
        try:
            result = call()
        finally:
            profiler.disable()
        raw = time.perf_counter() - started
        after = hostcal.cal_ms()
    finally:
        gc.enable()
    return result, profiler, raw, (before + after) / 2.0


def trace_counts(configs: List[Any], trace_path: Path) -> Tuple[Counter, Counter, List[Any]]:
    """Run *configs* with the program's JSONL tracer; count ``ev``/``hook`` records."""
    from repro.experiments.setup import run_experiment
    from repro.obs.trace import read_trace

    events: Counter = Counter()
    hooks: Counter = Counter()
    results = []
    for config in configs:
        results.append(run_experiment(config.with_overrides(trace=str(trace_path))))
        for record in read_trace(trace_path):
            if record["k"] == "ev":
                events[record["e"]] += 1
            elif record["k"] == "hook":
                hooks[record["e"]] += 1
        trace_path.unlink()
    return events, hooks, results


def counter_metrics(
    jobs: int, events: Counter, hooks: Counter, summaries: List[Dict[str, float]]
) -> Dict[str, float]:
    """Per-job counts of kernel events, hooks and malleability messages."""
    metrics = {f"sim.ev.{name}_per_job": events[name] / jobs for name in EVENT_TYPES}
    for hook in HOOKS:
        metrics[f"koala.hook.{hook}_per_job"] = hooks[hook] / jobs
    for kind in ("grow", "shrink"):
        total = sum(summary.get(f"{kind}_messages", 0.0) for summary in summaries)
        metrics[f"malleability.{kind}_msgs_per_job"] = total / jobs
    return metrics


def service_layer_metrics(serve: Dict[str, List[List[float]]]) -> Dict[str, float]:
    """The in-process result-serving timings as ``service.*`` metrics."""
    return {
        "service.payload_p50_ms": statistics.median(flat(serve["payload"])),
        "service.store_get_p50_ms": statistics.median(flat(serve["get"])),
        "service.store_put_p50_ms": statistics.median(flat(serve["put"])),
        "service.store_hit_ratio": serve["hit_ratio"][0][0],
        "experiments.config_key_us": statistics.median(flat(serve["config_key"])) * 1000.0,
    }


def sim_traced(job: Dict[str, Any]) -> Dict[str, Any]:
    """Per-layer numbers of one sim workload, from its first configuration."""
    from repro.experiments.engine import result_to_record
    from repro.service.protocol import metrics_digest

    workload = job["workload"]
    rundir = Path(job["rundir"])
    configs, warmup = sim_configs(workload, job["seed"])
    config = configs[0]
    call = sim_call(workload)
    warm_result = warm_up(workload, warmup)

    checks = Checks()
    # Unsampled, like the profiled call, so the overhead ratio compares like with like.
    plain, raw, cal = hostcal.timed(lambda: call(config), sample=False)
    result, profiler, profiled_raw, profiled_cal = profiled(lambda: call(config))
    ok_plain, digest, jobs = sim_outcome(workload, config, plain)
    ok_profiled, profiled_digest, _ = sim_outcome(workload, config, result)
    checks.attempt(ok_plain and ok_profiled and digest == profiled_digest, "profiled run differs")

    # A sharded replay cannot carry the tracer; its serial run does the
    # same kernel work.
    events, hooks, traced = trace_counts([config], rundir / f"trace-{os.getpid()}.jsonl")
    if workload == "rigid-shard":
        checks.attempt(traced[0].all_done, "serial traced replay incomplete")
        summaries: List[Dict[str, float]] = []
        windows = len(result.windows)
        valid_ratio = result.valid_windows / windows if windows else 0.0
    else:
        traced_digest = metrics_digest(result_to_record(traced[0]))
        checks.attempt(traced_digest == digest, "traced run differs from untraced")
        summaries = [result.metrics.summary()]
        valid_ratio = 0.0

    served = [(warmup, warm_result)] if workload == "rigid-shard" else [(config, result)]
    serve = serve_samples(served, rundir / f"store-{os.getpid()}", layers=True)
    metrics = layer_rollup(profiler, jobs)
    metrics.update(span_shares(lambda: call(config)))
    metrics.update(counter_metrics(jobs, events, hooks, summaries))
    metrics.update(service_layer_metrics(serve))
    metrics.update({
        "sim.events_per_job": result.events_processed / jobs,
        "checkpoint.valid_window_ratio": valid_ratio,
        "service.dispatch_p50_ms": 0.0,
        "service.executions": 0.0,
        "host.cal_ms": cal,
        "raw_jobs_per_s": jobs / raw,
        "trace.overhead_x": hostcal.normalise(profiled_raw, profiled_cal)
        / hostcal.normalise(raw, cal),
    })
    return {"metrics": metrics, "checks": checks.to_dict(), "workload_digest": digest}


# -- daemon-mix -----------------------------------------------------------------


def daemon_configs(seed: int) -> List[Dict[str, Any]]:
    """The distinct cold configurations: 40-job Wm, FPSMA and EGS x seeds."""
    return [
        {
            "name": "daemon-mix",
            "workload": "Wm",
            "job_count": DAEMON_JOBS,
            "malleability_policy": policy,
            "approach": "PRA",
            "placement_policy": "WF",
            "seed": seed * 100 + index,
        }
        for index in range(DAEMON_SEEDS)
        for policy in ("FPSMA", "EGS")
    ]


class Daemon:
    """One ``repro-cli serve --workers 1`` subprocess and its connection."""

    def __init__(self, rundir: Path, log) -> None:
        from repro.service.client import ServiceClient

        # A relative socket path keeps under the 107-byte limit wherever the
        # checkout lives; daemon and client share the working directory.
        socket_path = os.path.relpath(rundir / "daemon.sock")
        cal_before = hostcal.cal_ms()
        started = time.monotonic()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.experiments.cli", "serve", "--workers", "1",
             "--socket", socket_path, "--store-dir", str(rundir / "store")],
            stdout=log,
            stderr=subprocess.STDOUT,
        )
        try:
            self.client = ServiceClient(socket_path=socket_path, timeout=120.0)
            self.client.wait_until_ready(timeout=120.0, interval=0.002)
            self.client.status()
        except BaseException:
            self.process.kill()
            self.process.wait()
            raise
        ready = time.monotonic()
        self.setup_s = hostcal.normalise(ready - started, (cal_before + hostcal.cal_ms()) / 2)

    def stop(self) -> None:
        try:
            self.client.shutdown()
            self.process.wait(timeout=60)
        finally:
            if self.process.poll() is None:
                self.process.kill()
                self.process.wait()


def request_ok(response: Dict[str, Any], via: str, digest: Optional[str]) -> bool:
    """A reply is correct when ok, answered the expected way, complete."""
    metrics = response.get("metrics") or {}
    return (
        bool(response.get("ok"))
        and response.get("via") == via
        and not response.get("truncated", True)
        and metrics.get("jobs") == DAEMON_JOBS
        and (digest is None or response.get("digest") == digest)
    )


def daemon_run(job: Dict[str, Any], *, traced: bool) -> Dict[str, Any]:
    """Cold, warm and store phases against a fresh store, plus digest checks."""
    from repro.experiments.engine import result_to_record
    from repro.experiments.setup import ExperimentConfig, run_experiment
    from repro.service.protocol import metrics_digest

    rundir = Path(job["rundir"])
    configs = daemon_configs(job["seed"])
    checks = Checks()
    setups: List[float] = []
    cold: List[Tuple[float, float]] = []
    warm_ms: List[List[float]] = []
    store_ms: List[float] = []
    cals: List[float] = []
    warm_cals: List[float] = []
    digests: Dict[str, str] = {}
    snapshots: List[Dict[str, Any]] = []

    with open(rundir / "daemon.log", "ab") as log:
        daemon = Daemon(rundir, log)
        try:
            setups.append(daemon.setup_s)
            offset = 0

            def warm_batch(computed: int) -> None:
                """One calibrated batch of repeats of the first *computed* configs."""
                nonlocal offset
                responses, durations, cal = hostcal.timed_batch(
                    lambda i: daemon.client.run_and_wait(configs[(offset + i) % computed]),
                    WARM_BATCH,
                    drop_disturbed=True,
                )
                for i, response in enumerate(responses):
                    label = labels[(offset + i) % computed]
                    checks.attempt(request_ok(response, "session", digests[label]), f"warm {label}")
                offset += WARM_BATCH
                warm_ms.append(ms(durations, cal))
                warm_cals.append(cal)

            # Cold requests alternate with warm batches, so both sample the
            # host over the whole phase rather than each over its own stretch.
            phase_deadline = time.monotonic() + PHASE_SHARE * job["budget_s"]
            labels: List[str] = []
            for config in configs:
                response, raw, cal = hostcal.timed(lambda: daemon.client.run_and_wait(config))
                label = f"{config['malleability_policy']}@{config['seed']}"
                checks.attempt(request_ok(response, "spawned", None), f"cold {label}")
                digests[label] = response.get("digest", "")
                labels.append(label)
                cold.append((raw, cal))
                cals.append(cal)
                warm_batch(len(labels))
            # The daemon's warm-only dispatch histogram (traced mode) is the
            # difference of the snapshots around these last batches.
            after_cold = daemon.client.metrics()
            while True:
                warm_batch(len(labels))
                if traced or time.monotonic() >= phase_deadline:
                    break
            snapshots.append(daemon.client.metrics())
        finally:
            daemon.stop()

        for _ in range(1 if traced else DAEMON_RESTARTS):
            daemon = Daemon(rundir, log)
            try:
                setups.append(daemon.setup_s)
                responses, durations, cal = hostcal.timed_batch(
                    lambda i: daemon.client.run_and_wait(configs[i]),
                    len(configs),
                    drop_disturbed=True,
                )
                for label, response in zip(labels, responses):
                    checks.attempt(request_ok(response, "store", digests[label]), f"store {label}")
                store_ms.extend(ms(durations, cal))
                cals.append(cal)
                snapshots.append(daemon.client.metrics())
            finally:
                daemon.stop()

    executions = snapshots[0]["service"]["service.executions"]
    checks.attempt(
        executions == len(configs), f"{executions} executions for {len(configs)} configs"
    )

    # The daemon's concise digest must equal an in-process run's.
    sample = [ExperimentConfig.from_fields(config) for config in configs[:DIGEST_SAMPLE]]
    in_process = [run_experiment(config) for config in sample]
    for label, result in zip(labels, in_process):
        checks.attempt(
            metrics_digest(result_to_record(result)) == digests[label],
            f"daemon digest of {label} differs from run_experiment",
        )

    cold_norm = [hostcal.normalise(raw, cal) for raw, cal in cold]
    out: Dict[str, Any] = {
        "checks": checks.to_dict(),
        "workload_digest": combined_digest(digests),
        "setups_s": setups,
        "cold_ms": [seconds * 1000.0 for seconds in cold_norm],
        # Jobs per second of the cold path at its median request, like the
        # sim workloads' per-config medians.
        "cold_jobs_per_s": DAEMON_JOBS / statistics.median(cold_norm),
        "raw_jobs_per_s": DAEMON_JOBS / statistics.median(raw for raw, _ in cold),
        "warm_ms": warm_ms,
        "store_ms": store_ms,
        "cal_ms": statistics.median(cals + warm_cals),
        # The daemons (and their worker processes) have exited and been
        # waited for, so their peak is in this process's children rusage.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024 / 1e6,
    }
    if not traced:
        return out

    # Per-layer numbers: the daemon's metrics op, plus an in-process replay
    # of the sample under cProfile and under the program's tracer.
    hits = sum(snapshot["store"].get("store.hits", 0) for snapshot in snapshots)
    lookups = hits + sum(snapshot["store"].get("store.misses", 0) for snapshot in snapshots)
    # The warm phase's own dispatches: the histogram after it, less the one
    # after the cold phase.
    name = "service.op.run_and_wait.seconds"
    dispatch = histogram_delta(snapshots[0]["service"][name], after_cold["service"][name])
    _, profiler, profiled_raw, profiled_cal = profiled(
        lambda: [run_experiment(config) for config in sample]
    )
    _, plain_raw, plain_cal = hostcal.timed(
        lambda: [run_experiment(config) for config in sample], sample=False
    )
    jobs = DAEMON_JOBS * len(sample)
    events, hooks, _ = trace_counts(sample, rundir / "trace.jsonl")
    serve = serve_samples(list(zip(sample, in_process)), rundir / "serve-store", layers=True)
    metrics = layer_rollup(profiler, jobs)
    metrics.update(span_shares(lambda: [run_experiment(config) for config in sample]))
    metrics.update(counter_metrics(jobs, events, hooks, [r.metrics.summary() for r in in_process]))
    metrics.update(service_layer_metrics(serve))
    metrics.update({
        "sim.events_per_job": sum(r.events_processed for r in in_process) / jobs,
        "checkpoint.valid_window_ratio": 0.0,
        # Timed by the daemon; normalised by the client's calibration of the
        # same phase.
        "service.dispatch_p50_ms": hostcal.normalise(
            histogram_p50(dispatch), statistics.median(warm_cals)
        ) * 1000.0,
        "service.store_hit_ratio": hits / lookups if lookups else 0.0,
        "service.executions": float(executions),
        "host.cal_ms": out["cal_ms"],
        "raw_jobs_per_s": out["raw_jobs_per_s"],
        "trace.overhead_x": hostcal.normalise(profiled_raw, profiled_cal)
        / hostcal.normalise(plain_raw, plain_cal),
    })
    out["metrics"] = metrics
    out["checks"] = checks.to_dict()
    return out


# -- entry point ------------------------------------------------------------------


def main(argv: List[str]) -> int:
    job = json.loads(argv[1])
    started = time.perf_counter()
    import repro.bench.runner  # noqa: F401
    import repro.checkpoint.shard  # noqa: F401
    import repro.service.client  # noqa: F401

    import_s = time.perf_counter() - started
    mode, workload = job["mode"], job["workload"]
    if mode == "prep":
        import repro.experiments.cli  # noqa: F401  (what the daemon imports)

        out: Dict[str, Any] = {}
    elif workload == "daemon-mix":
        out = daemon_run(job, traced=mode == "traced")
    elif mode == "timed":
        out = sim_timed(job)
    else:
        out = sim_traced(job)
    if mode == "traced":
        out["metrics"]["setup.import_s"] = hostcal.normalise(import_s, hostcal.cal_ms())
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

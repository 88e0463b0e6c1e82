"""Microbenchmarks of the discrete-event simulation kernel.

Not a paper figure, but the substrate every experiment stands on: these
benchmarks track the event-processing throughput of the engine, so
performance regressions in the kernel are caught before they show up as
slow experiments.
"""

from __future__ import annotations

import pytest

from repro.sim import Environment

pytestmark = pytest.mark.bench  # deselected by default (see pyproject.toml); run with -m bench


def run_timeout_chain(events: int = 20_000) -> float:
    env = Environment()

    def ticker(env):
        for _ in range(events):
            yield env.timeout(1.0)

    env.process(ticker(env))
    env.run()
    return env.now


def test_bench_engine_timeout_throughput(benchmark):
    final_time = benchmark(run_timeout_chain)
    assert final_time == 20_000


"""Full-digest pins of the configurations that stress same-instant ordering.

The golden snapshots round the headline summary to 6 digits; these tests pin
the complete :func:`repro.service.protocol.metrics_digest` of four small
runs, each chosen for one ordering hazard of the cluster substrate (GRAM
admission, local-RM dispatch, node-failure kills, exact time ties).  Any
change to the order in which same-time events drain, or to the order of the
draws on a random lane, moves at least one of them.

The work-counter test pins the kernel events of the first configuration.
Unlike wall-clock time it has no noise, so an exact pin catches any change
in how much work the substrate makes the kernel do.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.checkpoint.shard import shard_bench_config
from repro.experiments.engine import result_to_record
from repro.experiments.scenarios import get_scenario
from repro.experiments.setup import run_experiment
from repro.obs.trace import read_trace
from repro.service.protocol import metrics_digest


def scenario_config(scenario: str, label: str):
    return dict(get_scenario(scenario).expand(job_count=60))[label]


#: name -> (config factory, full metrics digest).
PINNED = {
    # FPSMA/PRA on Wm with one GRAM submission at a time and latency jitter:
    # queued submissions and recruits draw from the same ``gram:<cluster>``
    # lane, so any reordering of admissions shifts every later latency.
    "pra-queued-gram": (
        lambda: scenario_config("figure7", "FPSMA/Wm"),
        "5d0d1d78a0a481e33db7fba90ae95ed0e2e9b219b1da26668d134baf6b53d7bb",
    ),
    # EGS/PWA on W'm under the Figure 8 background: local-RM dispatcher
    # wakes from submissions and releases, plus backfilling.
    "pwa-background": (
        lambda: scenario_config("figure8", "EGS/W'm"),
        "3c93225ad7e8d5c1b79d1b6b36e2291f0077238978029cbddd689ec18534f5bd",
    ),
    # Node churn: local jobs killed by failures free their processors.
    "fault-kills": (
        lambda: scenario_config("fault-sweep", "FPSMA/mtbf=10800"),
        "dc913826909a2cb96830bbb27cd2abd00788dab3274fb686eae1d14d8d30f1d9",
    ),
    # Zero jitter: many events tie at exactly the same time.
    "rigid-ties": (
        lambda: shard_bench_config(1000, 0),
        "33413918b8bc57671e034e5086ee3f02a4d106564759aa84e2a9c0efbc4a4cd7",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_full_metrics_digest_is_pinned(name: str) -> None:
    make_config, expected = PINNED[name]
    result = run_experiment(make_config())
    assert result.all_done
    assert metrics_digest(result_to_record(result)) == expected


#: Kernel events of the ``pra-queued-gram`` run.
PRA_QUEUED_GRAM_EVENTS = 7167


def test_event_count_of_the_queued_gram_run_is_pinned(tmp_path) -> None:
    make_config, expected = PINNED["pra-queued-gram"]
    trace = tmp_path / "run.jsonl"
    result = run_experiment(make_config().with_overrides(trace=str(trace)))
    assert metrics_digest(result_to_record(result)) == expected
    assert result.events_processed == PRA_QUEUED_GRAM_EVENTS
    fired = Counter(record["e"] for record in read_trace(trace) if record["k"] == "ev")
    assert sum(fired.values()) == result.events_processed
    # The GRAM gatekeeper and the local resource manager schedule plain
    # callback events, not resource requests and releases.
    assert fired["Request"] == fired["Release"] == 0
    assert set(fired) <= {"Event", "Timeout", "Initialize", "Process", "Condition"}

"""Perf smoke benchmark: parallel churn-campaign trajectories.

``run_churn_campaign(workers=N)`` fans the independent (churn level, base
tree) trajectories of a dynamic-workload sweep over the shared
``chunked_pool_map`` process pool.  As in ``test_engine_speed.py``, the
wall-clock assertion is gated on ``cpus >= 2``: N workers time-slicing a
single CPU cannot beat that CPU's sequential throughput, so on 1-CPU hosts
the benchmark only pins record-for-record equality and leaves the measured
ratio in ``BENCH_engine.json`` as trajectory data.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict

import pytest

from benchmarks.conftest import available_cpus, record_bench
from repro.experiments.harness import ChurnCampaignConfig, run_churn_campaign

WORKERS = 4
#: best-of-N wall times, bounding noisy-neighbour spikes on shared hosts.
REPS = 2
REQUIRED_SPEEDUP = 1.5

CONFIG = ChurnCampaignConfig(
    churn_levels=(0.05, 0.1, 0.2, 0.4),
    epochs=10,
    trees_per_level=2,
    size=60,
)


def timed_campaign(workers):
    best = math.inf
    result = None
    for _ in range(REPS):
        start = time.perf_counter()
        result = run_churn_campaign(CONFIG, workers=workers)
        best = min(best, time.perf_counter() - start)
    return best, result


def comparable(record):
    fields = asdict(record)
    fields.pop("runtime")  # wall times differ between runs, outcomes must not
    return {
        key: None if isinstance(value, float) and math.isnan(value) else value
        for key, value in fields.items()
    }


@pytest.mark.bench
def test_parallel_churn_campaign_speed():
    t_sequential, sequential = timed_campaign(None)
    t_parallel, parallel = timed_campaign(WORKERS)

    # Identical records in identical order, whatever the worker count.
    assert [comparable(r) for r in sequential.records] == [
        comparable(r) for r in parallel.records
    ]

    cpus = available_cpus()
    speedup = t_sequential / t_parallel
    entry = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "workload": {
            "kind": "churn_campaign_parallel",
            "churn_levels": list(CONFIG.churn_levels),
            "epochs": CONFIG.epochs,
            "trees_per_level": CONFIG.trees_per_level,
            "tree_size": CONFIG.size,
            "workers": WORKERS,
        },
        "cpus": cpus,
        "seconds": {
            "sequential": round(t_sequential, 4),
            f"workers{WORKERS}": round(t_parallel, 4),
        },
        "speedup": {"parallel_vs_sequential": round(speedup, 3)},
    }
    record_bench(entry)

    if cpus >= 2:
        assert speedup >= REQUIRED_SPEEDUP, (
            f"run_churn_campaign(workers={WORKERS}) is only {speedup:.2f}x "
            f"faster than the sequential sweep (required {REQUIRED_SPEEDUP}x "
            f"on a {cpus}-CPU host); times: {entry['seconds']}"
        )

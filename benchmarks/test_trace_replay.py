"""Perf smoke benchmark: trace ingest + epoch detection at log scale.

The trace pipeline exists to digest *real* request logs, so its smoke
benchmark measures the two things a log pipeline must do fast:

* ``ingest`` -- parse a ~100k-event CSV log into a validated ``Trace``
  (stdlib csv + one vectorised assembly pass).  Floor: 50k events/s even
  on this 1-CPU container, i.e. a day-long 10M-event log ingests in
  a few minutes.
* ``detect`` -- bin the trace and run the greedy changepoint pass plus
  per-client rate estimation.  No floor (it is O(bins) after binning and
  measured for the trajectory only), but it must land the planted
  regime boundaries.

Correctness rides along: the planted three-regime log must come back as
three detected epochs, and replaying the detected epochs through
``solve_sequence`` must give bit-identical per-epoch costs in incremental
and scratch modes -- the trace path feeds the same resolver machinery as
the synthetic trajectories, epoch for epoch.  Every ``repro bench``
run appends an entry to ``BENCH_engine.json`` for the performance
trajectory.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np
import pytest

from benchmarks.conftest import available_cpus, record_bench
from repro.api import solve_sequence
from repro.core.problem import replica_counting_problem
from repro.workloads.dynamic import as_base_problem
from repro.workloads.generator import GeneratorConfig, TreeGenerator
from repro.workloads.traces import detect_epochs, load_trace, sample_trace

TREE_SIZE = 60
LOAD = 0.4
SEED = 4242
#: per-regime surge factors planted in the synthetic log
REGIME_FACTORS = (1.0, 2.0, 0.6)
EPOCH_DURATION = 40.0
#: rates pass through unscaled: three 40-unit regimes on this tree
#: yield a ~100k-event log
RATE_SCALE = 1.0
#: best-of-N wall times, bounding noisy-neighbour spikes on shared hosts.
REPS = 3
REQUIRED_INGEST_RATE = 50_000.0  # events/s


def build_log(path: Path):
    """Write a three-regime CSV log sampled from planted epoch problems."""
    tree = TreeGenerator(SEED).generate(
        GeneratorConfig(size=TREE_SIZE, target_load=LOAD, homogeneous=True)
    )
    base = replica_counting_problem(tree)
    trajectory = [
        as_base_problem(
            tree.with_requests(
                {c: tree.client(c).requests * factor for c in tree.client_ids}
            )
        )
        for factor in REGIME_FACTORS
    ]
    trace = sample_trace(
        trajectory,
        np.random.default_rng(SEED),
        epoch_duration=EPOCH_DURATION,
        rate_scale=RATE_SCALE,
        name="bench-log",
    )
    trace.to_csv(path)
    return base


def best_of(reps, fn):
    """Best wall time over ``reps`` runs; returns (seconds, last result)."""
    best = float("inf")
    result = None
    for _ in range(reps):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


@pytest.mark.bench
def test_trace_ingest_and_replay_speed(tmp_path):
    log = tmp_path / "requests.csv"
    base = build_log(log)

    t_ingest, trace = best_of(REPS, lambda: load_trace(log))
    ingest_rate = trace.events / t_ingest

    t_detect, model = best_of(
        REPS, lambda: detect_epochs(trace, max_epochs=len(REGIME_FACTORS) + 2)
    )

    # The planted regimes must come back out of the detector.
    assert model.epoch_count == len(REGIME_FACTORS), (
        f"expected {len(REGIME_FACTORS)} epochs, detected {model.epoch_count} "
        f"at boundaries {model.boundaries.tolist()}"
    )

    # Replaying the detected epochs feeds the same machinery as synthetic
    # trajectories: incremental and scratch must agree epoch for epoch.
    epochs = model.problems(base, rate_scale=1.0 / RATE_SCALE)
    incremental = solve_sequence(epochs, policy="multiple", mode="incremental")
    scratch = solve_sequence(epochs, policy="multiple", mode="scratch")
    assert incremental.costs == scratch.costs
    assert incremental.solved_epochs == len(REGIME_FACTORS)

    entry = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "workload": {
            "kind": "trace_ingest_replay",
            "tree_size": TREE_SIZE,
            "events": trace.events,
            "clients": len(trace.client_ids),
            "regimes": len(REGIME_FACTORS),
            "format": "csv",
        },
        "cpus": available_cpus(),
        "seconds": {
            "ingest": round(t_ingest, 4),
            "detect": round(t_detect, 4),
        },
        "events_per_second": {
            "ingest": round(ingest_rate, 1),
            "detect": round(trace.events / t_detect, 1),
        },
        "detected_epochs": model.epoch_count,
        "replay_costs": incremental.costs,
    }
    record_bench(entry)

    assert ingest_rate >= REQUIRED_INGEST_RATE, (
        f"CSV ingest ran at {ingest_rate:.0f} events/s on {trace.events} events "
        f"(required {REQUIRED_INGEST_RATE:.0f}); times: {entry['seconds']}"
    )

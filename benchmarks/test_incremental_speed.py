"""Perf smoke benchmark: incremental re-solve vs from-scratch on low churn.

The workload is a low-churn dynamic sequence in the operating regime the
incremental resolver is built for: a 240-node homogeneous tree whose
request rates drift mildly (8% of clients per active epoch) with most
epochs quiet (60%), re-solved over 30 epochs under the Multiple policy.

Two runs are timed on identical epochs:

* ``scratch`` -- ``solve_sequence(..., mode="scratch")``: one full solve
  per epoch (the pre-PR-2 way of following a trajectory);
* ``incremental`` -- the default mode: unchanged epochs are reused, the
  rest re-solved on patched tree indexes.

Both produce bit-identical per-epoch costs (asserted -- the acceptance
criterion of PR 2); the incremental run must be >= 1.5x faster even on this
1-CPU container, since its win is skipped work, not parallelism.  Every
``repro bench`` run appends an entry to ``BENCH_engine.json`` for the
performance trajectory.
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import available_cpus, record_bench
from repro.api import solve_sequence
from repro.core.problem import replica_counting_problem
from repro.workloads.dynamic import rate_churn
from repro.workloads.generator import GeneratorConfig, TreeGenerator

TREE_SIZE = 240
EPOCHS = 30
CHURN = 0.08
QUIET = 0.6
LOAD = 0.5
POLICY = "multiple"
SEED = 777
#: best-of-N wall times, bounding noisy-neighbour spikes on shared hosts.
REPS = 3
REQUIRED_SPEEDUP = 1.5


def build_epochs():
    """Fresh trees every call so index caches never leak between runs."""
    tree = TreeGenerator(SEED).generate(
        GeneratorConfig(size=TREE_SIZE, target_load=LOAD, homogeneous=True)
    )
    base = replica_counting_problem(tree)
    return rate_churn(
        base, EPOCHS, churn=CHURN, magnitude=0.5, quiet_probability=QUIET, seed=SEED
    )


def timed_sequence(mode):
    """Best wall time over REPS runs on freshly generated epochs."""
    best = float("inf")
    result = None
    for _ in range(REPS):
        epochs = build_epochs()
        start = time.perf_counter()
        result = solve_sequence(epochs, policy=POLICY, mode=mode)
        best = min(best, time.perf_counter() - start)
    return best, result


@pytest.mark.bench
def test_incremental_resolve_speed():
    t_scratch, scratch = timed_sequence("scratch")
    t_incremental, incremental = timed_sequence("incremental")

    # Cost-identical on every epoch, whatever the mode (acceptance criterion).
    assert incremental.costs == scratch.costs

    speedup = t_scratch / t_incremental
    strategies = incremental.strategy_counts()
    entry = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "workload": {
            "kind": "incremental_resolve",
            "tree_size": TREE_SIZE,
            "epochs": EPOCHS,
            "churn": CHURN,
            "quiet_probability": QUIET,
            "load": LOAD,
            "policy": POLICY,
        },
        "cpus": available_cpus(),
        "seconds": {
            "scratch": round(t_scratch, 4),
            "incremental": round(t_incremental, 4),
        },
        "speedup": {"incremental_vs_scratch": round(speedup, 3)},
        "strategies": strategies,
        "solved": incremental.solved_epochs,
    }
    record_bench(entry)

    # The win comes from skipped work (epoch reuse + patched indexes), so it
    # must show even on a single CPU.
    assert speedup >= REQUIRED_SPEEDUP, (
        f"incremental re-solve is only {speedup:.2f}x faster than from-scratch "
        f"(required {REQUIRED_SPEEDUP}x on this low-churn sequence); "
        f"times: {entry['seconds']}, strategies: {strategies}"
    )

"""Perf smoke benchmark: sharded vs whole-tree solving at the 20k scale.

The workload is a 20k-client heterogeneous tree from
:func:`~repro.workloads.generator.large_tree` -- the regime the PR-7
sharding layer targets.  Two comparisons run on identical trees:

* **peak memory** -- ``tracemalloc`` peak of one whole-tree
  ``portfolio_solve`` vs one ``solve_sharded`` on a pre-built
  :class:`~repro.core.partition.ShardPlan`.  The sharded path streams:
  one index is built, used and released per region, and the region
  solutions are consumed while stitching, so its recurring per-solve peak
  must come in **under** the whole-tree solve's.  The one-time partition
  cost (session/pool state, amortised over every subsequent epoch) is
  reported in the JSON entry but not part of the asserted solve peak.
* **incremental re-solve latency** -- after a single-client rate change,
  a sharded :class:`~repro.session.PlacementSession` re-solves exactly one
  shard (asserted via the per-region resolver strategies) and must be
  >= 1.5x faster than the whole-tree session's re-solve of the same change.

Every ``repro bench`` run appends an entry to ``BENCH_engine.json`` for
the performance trajectory.
"""

from __future__ import annotations

import time
import tracemalloc

import pytest

from benchmarks.conftest import available_cpus, record_bench
from repro.algorithms.portfolio import portfolio_solve
from repro.algorithms.sharded import solve_sharded
from repro.core.constraints import ConstraintSet
from repro.core.partition import partition_problem
from repro.core.problem import ProblemKind, ReplicaPlacementProblem
from repro.session import PlacementSession
from repro.workloads.generator import large_tree

N_CLIENTS = 20_000
SHARDS = 8
SEED = 77
LOAD = 0.5
#: best-of-N wall times, bounding noisy-neighbour spikes on shared hosts.
REPS = 3
REQUIRED_SPEEDUP = 1.5


def build_problem():
    """A fresh 20k-client heterogeneous instance (no caches shared)."""
    tree = large_tree(N_CLIENTS, target_load=LOAD, seed=SEED, homogeneous=False)
    return ReplicaPlacementProblem(
        tree=tree, kind=ProblemKind.REPLICA_COST, constraints=ConstraintSet.none()
    )


def traced_peak(fn):
    """(peak_bytes, result) of ``fn()`` under tracemalloc."""
    tracemalloc.start()
    result = fn()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak, result


def timed_update(session, client_id, reps=REPS):
    """Best wall time of a single-client rate bump re-solve."""
    best = float("inf")
    result = None
    for _ in range(reps):
        old = session.problem.tree.client(client_id).requests
        start = time.perf_counter()
        result = session.update(requests={client_id: old + 1.0})
        best = min(best, time.perf_counter() - start)
    return best, result


@pytest.mark.bench
def test_shard_scaling():
    # ---- peak memory: one whole-tree solve vs one streamed sharded solve.
    whole_problem = build_problem()
    peak_whole, whole = traced_peak(lambda: portfolio_solve(whole_problem))

    sharded_problem = build_problem()
    partition_peak, plan = traced_peak(
        lambda: partition_problem(sharded_problem, shards=SHARDS)
    )
    peak_sharded, stitched = traced_peak(
        lambda: solve_sharded(sharded_problem, plan=plan)
    )
    # the sharded path never materialises the whole-tree index
    assert sharded_problem.tree._index_cache is None
    cost_whole = whole.cost(whole_problem)
    cost_sharded = stitched.cost(sharded_problem)
    assert cost_sharded <= 2.0 * cost_whole

    # ---- incremental re-solve: one rate change -> one shard re-solved.
    whole_session = PlacementSession(build_problem())
    whole_session.solve()
    sharded_session = PlacementSession(build_problem(), shards=SHARDS)
    sharded_session.solve()
    client_id = sharded_session.shard_plan.shards[0].clients[0]

    t_whole, _ = timed_update(whole_session, client_id)
    t_sharded, sharded_result = timed_update(sharded_session, client_id)
    strategies = sharded_result.solution.metadata["shard_strategies"]
    resolved = [s for s in strategies if s not in ("reused", "empty")]
    assert len(resolved) == 1, strategies

    speedup = t_whole / t_sharded
    entry = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "workload": {
            "kind": "shard_scaling",
            "clients": N_CLIENTS,
            "shards": SHARDS,
            "load": LOAD,
            "policy": "multiple",
        },
        "cpus": available_cpus(),
        "peak_bytes": {
            "whole": peak_whole,
            "sharded": peak_sharded,
            "partition": partition_peak,
        },
        "seconds": {
            "update_whole": round(t_whole, 4),
            "update_sharded": round(t_sharded, 4),
        },
        "speedup": {"sharded_update_vs_whole": round(speedup, 3)},
        "cost_gap": round(cost_sharded / cost_whole, 4),
    }
    record_bench(entry)

    # The streamed sharded solve must beat the whole-tree solve on peak
    # memory: its working set is one shard at a time, not the whole tree.
    assert peak_sharded < peak_whole, (
        f"sharded solve peaked at {peak_sharded / 1e6:.1f} MB, whole-tree at "
        f"{peak_whole / 1e6:.1f} MB"
    )
    # The per-shard incremental re-solve touches one region out of
    # {SHARDS}+1, so the win must show even on a single CPU.
    assert speedup >= REQUIRED_SPEEDUP, (
        f"sharded incremental re-solve is only {speedup:.2f}x faster than the "
        f"whole-tree session (required {REQUIRED_SPEEDUP}x); "
        f"times: {entry['seconds']}"
    )

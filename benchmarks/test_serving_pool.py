"""Perf smoke benchmark: the serving pool (PR 5 acceptance criteria).

Two assertions on the 500-node heterogeneous, QoS-bounded,
bandwidth-constrained instance the session benchmarks use, appending a
trajectory entry to ``BENCH_engine.json``:

* **warm vs cold** -- answering a repeat ``solve`` envelope on a resident
  session (fingerprint-addressed pool hit, per-epoch cache) must beat a
  cold one-shot (fresh server: decode the shipped problem, build the
  session, index the tree, run the portfolio) by ``>= 5x``.  The real
  margin on this 1-CPU container is orders of magnitude -- the floor is
  conservative because the warm path still pays JSON envelope handling.
* **bounded residency** -- pushing ``2 x capacity`` distinct tenants
  through a pool must never leave more than ``capacity`` sessions
  resident, and the survivors must be exactly the most recently used ones.

Both properties are about skipped work and bookkeeping, not parallelism,
so they must show on this 1-CPU container.  Times are best-of-N to bound
noisy-neighbour spikes.
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import record_bench
from repro.core.constraints import ConstraintSet
from repro.core.problem import ProblemKind, ReplicaPlacementProblem
from repro.core.serialization import problem_to_dict
from repro.serving.fingerprint import problem_fingerprint
from repro.serving.pool import SessionPool
from repro.serving.server import ReproServer
from repro.workloads.generator import GeneratorConfig, TreeGenerator

TREE_SIZE = 500
SEED = 42
COLD_REPS = 3
WARM_REPS = 20
REQUIRED_WARM_SPEEDUP = 5.0
POOL_CAPACITY = 4
TENANTS = 2 * POOL_CAPACITY


def make_problem(seed: int = SEED, size: int = TREE_SIZE) -> ReplicaPlacementProblem:
    tree = TreeGenerator(seed).generate(
        GeneratorConfig(
            size=size,
            target_load=0.5,
            homogeneous=False,
            max_children=2,
            qos_hops=(4, 8),
            link_bandwidth=1e6,
        )
    )
    return ReplicaPlacementProblem(
        tree=tree,
        constraints=ConstraintSet.qos_distance(enforce_bandwidth=True),
        kind=ProblemKind.REPLICA_COST,
    )


def best_of(reps: int, fn) -> float:
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.bench
def test_warm_pool_beats_cold_one_shot():
    problem = make_problem()
    payload = problem_to_dict(problem)
    envelope = {"op": "solve", "problem": payload}

    def cold():
        reply = ReproServer(capacity=2).handle(envelope)
        assert reply["type"] == "solve_result" and reply["feasible"]

    cold_time = best_of(COLD_REPS, cold)

    warm_server = ReproServer(capacity=2)
    first = warm_server.handle(envelope)
    assert first["feasible"]
    warm_envelope = {"op": "solve", "fingerprint": first["fingerprint"]}

    def warm():
        reply = warm_server.handle(warm_envelope)
        assert reply["feasible"]

    warm_time = best_of(WARM_REPS, warm)
    # identical payloads: the warm path re-serves the cached result
    assert warm_server.handle(warm_envelope) == first

    speedup = cold_time / warm_time if warm_time > 0 else float("inf")
    record_bench(
        {
            "benchmark": "serving_pool",
            "tree_size": TREE_SIZE,
            "cold_solve_s": round(cold_time, 6),
            "warm_solve_s": round(warm_time, 6),
            "warm_speedup": round(speedup, 2),
            "required_speedup": REQUIRED_WARM_SPEEDUP,
        }
    )
    assert speedup >= REQUIRED_WARM_SPEEDUP, (
        f"warm pool solve only {speedup:.1f}x faster than cold one-shot "
        f"({warm_time:.4f}s vs {cold_time:.4f}s); required "
        f">= {REQUIRED_WARM_SPEEDUP}x"
    )


@pytest.mark.bench
def test_eviction_keeps_residency_bounded():
    pool = SessionPool(capacity=POOL_CAPACITY)
    problems = [make_problem(seed=100 + i, size=60) for i in range(TENANTS)]
    fingerprints = []
    for problem in problems:
        with pool.checkout(problem) as entry:
            # infeasible tenants still occupy (and rotate through) the pool
            entry.session.solve(on_error="none")
            fingerprints.append(entry.fingerprint)
        assert len(pool) <= POOL_CAPACITY
    assert len(pool) == POOL_CAPACITY
    # the survivors are exactly the most recently used tenants, in order
    assert pool.resident_fingerprints() == tuple(fingerprints[-POOL_CAPACITY:])
    stats = pool.stats()
    assert stats.evictions == TENANTS - POOL_CAPACITY
    # lifetime counters remember the evicted tenants' work
    assert stats.solves == TENANTS
    # a returning evicted tenant is a miss (and a fresh solve), not a crash
    with pool.checkout(problems[0]) as entry:
        assert entry.fingerprint == problem_fingerprint(problems[0])

"""Perf smoke benchmark: the compiled native engine vs the dict engine.

Two workloads, both engines, identical results asserted:

* ``campaign_500`` -- the 500-node QoS campaign slice of
  ``test_engine_speed.py`` (16 heterogeneous trees, hop-count QoS, Upwards
  policy), solved on warm per-tree index caches so the timing isolates the
  solve path the engines actually differ on (the index build is shared by
  both and dominated by it otherwise);
* ``big_20k`` -- one heterogeneous tree with ~20k clients under the
  Multiple policy, the scale where per-client Python loops stop being
  noise.

Every ``repro bench`` run appends an entry to ``BENCH_engine.json`` at the
repository root so future PRs have a performance trajectory.  The
acceptance floors of the native engine are **5x over the dict engine** on
the 500-node solve path and **2.3x** on the 20k-client instance (measured
8.2-8.8x and 11.8-12.5x on a 2-vCPU host).  When the kernels cannot be
compiled the native engine *is* the dict engine, so the floors would
measure noise; the entry records the fallback instead and the assertions
are skipped.
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import record_bench
from repro.api import solve, solve_many
from repro.algorithms.common import use_engine
from repro.algorithms.native_state import native_kernels_available
from repro.core.constraints import ConstraintSet
from repro.core.problem import ProblemKind, ReplicaPlacementProblem
from repro.workloads.generator import GeneratorConfig, TreeGenerator

ENGINES = ("dict", "native")

CAMPAIGN_TREE_SIZE = 500
CAMPAIGN_INSTANCES = 16
CAMPAIGN_LOADS = (0.2, 0.4, 0.6, 0.8)
CAMPAIGN_QOS_HOPS = (4, 8)
CAMPAIGN_POLICY = "upwards"

BIG_TREE_SIZE = 28600  # ~20k clients + ~8.6k nodes with leaves attachment
BIG_POLICY = "multiple"

#: best-of-N wall times on warm caches; repetitions bound noisy neighbours.
CAMPAIGN_REPS = 5
BIG_REPS = 3


def campaign_problems():
    problems = []
    seed = 0
    per_load = CAMPAIGN_INSTANCES // len(CAMPAIGN_LOADS)
    for load in CAMPAIGN_LOADS:
        for _ in range(per_load):
            tree = TreeGenerator(seed).generate(
                GeneratorConfig(
                    size=CAMPAIGN_TREE_SIZE,
                    target_load=load,
                    homogeneous=False,
                    client_attachment="uniform",
                    max_children=2,
                    qos_hops=CAMPAIGN_QOS_HOPS,
                )
            )
            problems.append(
                ReplicaPlacementProblem(
                    tree=tree,
                    constraints=ConstraintSet.qos_distance(),
                    kind=ProblemKind.REPLICA_COST,
                )
            )
            seed += 1
    return problems


def big_problem():
    tree = TreeGenerator(42).generate(
        GeneratorConfig(
            size=BIG_TREE_SIZE,
            target_load=0.3,
            homogeneous=False,
            client_attachment="leaves",
            max_children=3,
        )
    )
    return ReplicaPlacementProblem(tree=tree, constraints=ConstraintSet.none())


def costs(problems, solutions):
    return [
        None if solution is None else solution.cost(problem)
        for problem, solution in zip(problems, solutions)
    ]


def timed_campaign(problems, engine):
    """Best warm wall time of the 500-node campaign slice under ``engine``.

    The first (untimed) run builds the per-tree indexes and, for the native
    engine, the flat kernel arrays; the timed repetitions then measure the
    solve path alone, the regime a resident session or server lives in.
    """
    solutions = solve_many(problems, policy=CAMPAIGN_POLICY, engine=engine)
    best = float("inf")
    for _ in range(CAMPAIGN_REPS):
        start = time.perf_counter()
        solutions = solve_many(problems, policy=CAMPAIGN_POLICY, engine=engine)
        best = min(best, time.perf_counter() - start)
    return best, costs(problems, solutions)


def timed_big(problem, engine):
    with use_engine(engine):
        solution = solve(problem, policy=BIG_POLICY)
        best = float("inf")
        for _ in range(BIG_REPS):
            start = time.perf_counter()
            solution = solve(problem, policy=BIG_POLICY)
            best = min(best, time.perf_counter() - start)
    return best, solution.cost(problem)


@pytest.mark.bench
def test_native_kernel_speed():
    native_compiled = native_kernels_available()

    problems = campaign_problems()
    campaign_times = {}
    campaign_costs = {}
    for engine in ENGINES:
        campaign_times[engine], campaign_costs[engine] = timed_campaign(
            problems, engine
        )
    assert campaign_costs["dict"] == campaign_costs["native"]

    big = big_problem()
    big_times = {}
    big_costs = {}
    for engine in ENGINES:
        big_times[engine], big_costs[engine] = timed_big(big, engine)
    assert big_costs["dict"] == big_costs["native"]

    speedups = {
        "campaign_500_native_vs_dict": round(
            campaign_times["dict"] / campaign_times["native"], 3
        ),
        "big_20k_native_vs_dict": round(big_times["dict"] / big_times["native"], 3),
    }
    entry = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "bench": "native_kernels",
        "native_kernels_compiled": native_compiled,
        "workloads": {
            "campaign_500": {
                "instances": CAMPAIGN_INSTANCES,
                "tree_size": CAMPAIGN_TREE_SIZE,
                "loads": list(CAMPAIGN_LOADS),
                "qos_hops": list(CAMPAIGN_QOS_HOPS),
                "policy": CAMPAIGN_POLICY,
            },
            "big_20k": {
                "tree_size": BIG_TREE_SIZE,
                "clients": len(big.tree.client_ids),
                "policy": BIG_POLICY,
            },
        },
        "seconds": {
            "campaign_500": {
                engine: round(campaign_times[engine], 4) for engine in ENGINES
            },
            "big_20k": {engine: round(big_times[engine], 4) for engine in ENGINES},
        },
        "speedup": speedups,
    }
    record_bench(entry)

    if not native_compiled:
        pytest.skip(
            "native kernels unavailable (fallback to dict); timings recorded, "
            "speedup floors not applicable"
        )

    assert speedups["campaign_500_native_vs_dict"] >= 5.0, (
        f"native engine is only "
        f"{speedups['campaign_500_native_vs_dict']:.2f}x faster than dict on "
        f"the 500-node campaign (required 5x); times: {entry['seconds']}"
    )
    assert speedups["big_20k_native_vs_dict"] >= 2.3, (
        f"native engine is only {speedups['big_20k_native_vs_dict']:.2f}x "
        f"faster than dict on the 20k-client instance (required 2.3x); "
        f"times: {entry['seconds']}"
    )

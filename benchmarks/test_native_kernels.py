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
8.3-9.0x and 11.5-13.5x on a 2-vCPU host).  When the kernels cannot be
compiled the platform builds the dict engine for both, so the floors
would measure noise; the entry records the fallback instead and the
assertions are skipped.  The dict samples run with the kernels disabled
(``REPRO_NATIVE_DISABLE=1``), as on a host without a C compiler.
"""

from __future__ import annotations

import time
from functools import partial

import pytest

from benchmarks.conftest import record_bench
from repro.api import solve, solve_many
from repro.algorithms.native_state import native_kernels_available
from repro.core.constraints import ConstraintSet
from repro.core.problem import ProblemKind, ReplicaPlacementProblem
from repro.workloads.generator import GeneratorConfig, TreeGenerator
from tests.conftest import ENGINES, on_engine

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
#: passes per timed sample, the same for both engines, so that every sample
#: holds at least ~100 ms of native work (a campaign pass takes ~8 ms of
#: it, a 20k-client solve ~75 ms, on a 2-vCPU host): a scheduler hiccup of
#: a few milliseconds then cannot move a ratio across its floor.
CAMPAIGN_LOOPS = 14
BIG_LOOPS = 2


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


def best_passes(run, reps, loops):
    """Best per-pass wall time of each engine's workload pass, and its last
    result.

    ``run`` is one pass of the workload, run on each engine under
    :func:`~tests.conftest.on_engine`.  A first, untimed pass on each
    builds the per-tree indexes and, for the native engine, the flat kernel
    arrays, so the samples measure the solve path alone, the regime a
    resident session or server lives in.  Each of the ``reps`` rounds then
    takes one sample of ``loops`` back-to-back passes per engine in turn,
    so a drift in host speed reaches both engines; the kernels load before
    a sample's clock starts.
    """
    results = {}
    for engine in ENGINES:
        with on_engine(engine):
            results[engine] = run()
    best = dict.fromkeys(ENGINES, float("inf"))
    for _ in range(reps):
        for engine in ENGINES:
            with on_engine(engine):
                native_kernels_available()
                start = time.perf_counter()
                for _ in range(loops):
                    results[engine] = run()
                best[engine] = min(best[engine], (time.perf_counter() - start) / loops)
    return best, results


@pytest.mark.bench
def test_native_kernel_speed():
    native_compiled = native_kernels_available()

    problems = campaign_problems()
    campaign_times, solutions = best_passes(
        partial(solve_many, problems, policy=CAMPAIGN_POLICY),
        CAMPAIGN_REPS,
        CAMPAIGN_LOOPS,
    )
    campaign_costs = {engine: costs(problems, solutions[engine]) for engine in ENGINES}
    assert campaign_costs["dict"] == campaign_costs["native"]

    big = big_problem()
    big_times, solutions = best_passes(
        partial(solve, big, policy=BIG_POLICY), BIG_REPS, BIG_LOOPS
    )
    big_costs = {engine: solutions[engine].cost(big) for engine in ENGINES}
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
                "passes_per_sample": CAMPAIGN_LOOPS,
                "tree_size": CAMPAIGN_TREE_SIZE,
                "loads": list(CAMPAIGN_LOADS),
                "qos_hops": list(CAMPAIGN_QOS_HOPS),
                "policy": CAMPAIGN_POLICY,
            },
            "big_20k": {
                "tree_size": BIG_TREE_SIZE,
                "passes_per_sample": BIG_LOOPS,
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

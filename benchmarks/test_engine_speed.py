"""Perf smoke benchmark: native engine + batch solving vs the seed loop.

The workload is a QoS campaign slice in the spirit of paper Section 7: 32
heterogeneous 500-node trees (uniform client attachment, binary internal
fan-out, hop-count QoS bounds) swept over four load values, solved under
the Upwards policy.  Three configurations are timed:

* ``seed_sequential`` -- the pre-batch way of running a campaign: a plain
  sequential loop of :func:`repro.api.solve` on the seed dict engine;
* ``native_sequential`` -- the same loop on the compiled native engine;
* ``batch_workers4`` -- ``solve_many(..., workers=4)`` on the native engine.

All three produce identical results (asserted).  Every ``repro bench``
run appends an entry to ``BENCH_engine.json`` at the repository root so
future PRs have a performance trajectory.

Speedup accounting: on multi-core hosts the batch run must beat the seed
sequential loop by >= 2x (engine gain x process-pool parallelism).  On a
single-CPU host -- as used by some CI containers -- four workers
time-slicing one core cannot beat that core's sequential throughput, so
only the engine gain (minus ~45 ms of pool overhead; the fork-inherited
batch keeps it that low) remains observable; there the assertion enforces a
strict-improvement floor and the JSON entry records the measured ratio for
the trajectory.  The seed loop runs with the kernels disabled
(``REPRO_NATIVE_DISABLE=1``, as on a host without a C compiler; the
variable reaches the pool's workers too).  Without compiled kernels the
platform builds the dict engine for all three, so there is nothing to
compare: the entry is recorded and the floors are skipped.
"""

from __future__ import annotations

import os
import time

import pytest

from benchmarks.conftest import record_bench
from repro.api import solve_many
from repro.algorithms.native_state import native_kernels_available
from repro.core.constraints import ConstraintSet
from repro.core.problem import ProblemKind, ReplicaPlacementProblem
from repro.workloads.generator import GeneratorConfig, TreeGenerator
from tests.conftest import on_engine

TREE_SIZE = 500
INSTANCES = 32
LOADS = (0.2, 0.4, 0.6, 0.8)
QOS_HOPS = (4, 8)
POLICY = "upwards"
#: best-of-N wall times; three repetitions bound noisy-neighbour spikes on
#: shared CI hosts without making the smoke run slow.
REPS = 3


def campaign_problems():
    """Fresh problems every call: index caches must not leak between runs."""
    problems = []
    seed = 0
    per_load = INSTANCES // len(LOADS)
    for load in LOADS:
        for _ in range(per_load):
            tree = TreeGenerator(seed).generate(
                GeneratorConfig(
                    size=TREE_SIZE,
                    target_load=load,
                    homogeneous=False,
                    client_attachment="uniform",
                    max_children=2,
                    qos_hops=QOS_HOPS,
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


def timed_solve(engine, workers):
    """Best solve wall time over REPS runs on freshly generated problems.

    Trees are regenerated (outside the timed region) for every repetition so
    the per-tree index cache never carries over between runs.
    """
    best = float("inf")
    result = None
    for _ in range(REPS):
        problems = campaign_problems()
        with on_engine(engine):
            native_kernels_available()  # load or refuse the kernels off the clock
            start = time.perf_counter()
            solutions = solve_many(problems, policy=POLICY, workers=workers)
            best = min(best, time.perf_counter() - start)
        result = costs(problems, solutions)
    return best, result


def costs(problems, solutions):
    return [
        None if solution is None else solution.cost(problem)
        for problem, solution in zip(problems, solutions)
    ]


def available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        return os.cpu_count() or 1


@pytest.mark.bench
def test_engine_and_batch_speed():
    t_seed, seed_costs = timed_solve("dict", None)
    t_native, native_costs = timed_solve("native", None)
    t_batch, batch_costs = timed_solve("native", 4)

    # Identical outcomes whatever the engine or worker count.
    assert seed_costs == native_costs == batch_costs

    cpus = available_cpus()
    speedup_engine = t_seed / t_native
    speedup_batch = t_seed / t_batch
    entry = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "workload": {
            "instances": INSTANCES,
            "tree_size": TREE_SIZE,
            "loads": list(LOADS),
            "qos_hops": list(QOS_HOPS),
            "policy": POLICY,
            "heterogeneous": True,
        },
        "cpus": cpus,
        "native_kernels_compiled": native_kernels_available(),
        "seconds": {
            "seed_sequential": round(t_seed, 4),
            "native_sequential": round(t_native, 4),
            "batch_workers4": round(t_batch, 4),
        },
        "speedup": {
            "engine": round(speedup_engine, 3),
            "batch_vs_seed": round(speedup_batch, 3),
        },
        "solved": sum(cost is not None for cost in seed_costs),
    }
    record_bench(entry)

    if not entry["native_kernels_compiled"]:
        pytest.skip(
            "native kernels unavailable (fallback to dict); timings recorded, "
            "speedup floors not applicable"
        )
    if cpus >= 2:
        assert speedup_batch >= 2.0, (
            f"solve_many(workers=4) is only {speedup_batch:.2f}x faster than "
            f"the seed sequential loop (required 2x on a {cpus}-CPU host); "
            f"times: {entry['seconds']}"
        )
    else:
        # Four workers time-slicing a single CPU cannot beat that CPU's
        # sequential throughput, and the cost of forking the pool varies
        # with the parent process image, so neither the parallel factor nor
        # the pool overhead is a stable signal here.  Pin the engine factor
        # (the measurable half of the speedup) and leave the recorded batch
        # timing in BENCH_engine.json as trajectory data.
        assert speedup_engine >= 1.3, (
            f"native engine is only {speedup_engine:.2f}x faster than the "
            f"seed engine (required 1.3x); times: {entry['seconds']}"
        )

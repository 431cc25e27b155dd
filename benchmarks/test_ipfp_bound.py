"""Perf smoke benchmark: the IPFP fractional bound vs the exact LP bounds.

The IPFP subsystem exists so per-epoch lower bounds stop paying a simplex
(or worse, a branch-and-bound for the mixed bound) on every epoch of a
churning trajectory.  Two floors are asserted:

* ``cold`` -- on a 500-node heterogeneous Replica Cost instance with
  finite link bandwidths, one cold IPFP solve must run at least 5x
  faster than the cold mixed LP bound, while staying within 10% of the
  mixed LP value (the sandwich ``ipfp <= mixed`` is also re-checked).
* ``churn`` -- over a rate-churn trajectory, re-targeting the resident
  IPFP program epoch by epoch (``with_requests``: shared structure, zero
  re-assembly) must beat re-assembling and re-solving the rational LP
  from scratch every epoch, wall-clock, while every epoch's re-targeted
  value stays bit-identical to its cold IPFP run.

Every ``repro bench`` run appends an entry to ``BENCH_engine.json`` for
the performance trajectory.
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import available_cpus, record_bench
from repro.core.constraints import ConstraintSet
from repro.core.problem import ReplicaPlacementProblem, replica_cost_problem
from repro.lp.bounds import lp_lower_bound, rational_relaxation_bound
from repro.lp.ipfp import ipfp_bound, ipfp_program
from repro.workloads.dynamic import rate_churn
from repro.workloads.generator import GeneratorConfig, TreeGenerator

TREE_SIZE = 500
LOAD = 0.4
SEED = 4242
LINK_BANDWIDTH = 500.0
CHURN_EPOCHS = 8
#: best-of-N wall times, bounding noisy-neighbour spikes on shared hosts.
REPS = 3
REQUIRED_COLD_SPEEDUP = 5.0
MAX_GAP_TO_LP = 0.10


def build_problem() -> ReplicaPlacementProblem:
    tree = TreeGenerator(SEED).generate(
        GeneratorConfig(
            size=TREE_SIZE,
            target_load=LOAD,
            homogeneous=False,
            link_bandwidth=LINK_BANDWIDTH,
        )
    )
    return replica_cost_problem(
        tree, constraints=ConstraintSet(enforce_bandwidth=True)
    )


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
def test_ipfp_bound_speed_and_gap():
    problem = build_problem()

    t_ipfp, cold_ipfp = best_of(REPS, lambda: ipfp_bound(problem))
    # One cold mixed solve is seconds of branch-and-bound at this size;
    # a single rep keeps the benchmark honest *and* finishing.
    t_mixed, mixed = best_of(1, lambda: lp_lower_bound(problem))
    assert cold_ipfp.feasible and mixed.feasible
    assert cold_ipfp.value <= mixed.value + 1e-9
    gap = 1.0 - cold_ipfp.value / mixed.value
    speedup = t_mixed / t_ipfp

    # Churn: re-target the resident IPFP program per epoch vs re-assembling
    # and re-solving the rational LP from scratch every epoch.
    epochs = rate_churn(
        problem, CHURN_EPOCHS, churn=0.2, quiet_probability=0.0, seed=SEED
    )

    def ipfp_trajectory():
        program = ipfp_program(problem)
        return [program.with_requests(epoch).solve().value for epoch in epochs]

    def lp_rebuild_trajectory():
        return [rational_relaxation_bound(epoch).value for epoch in epochs]

    t_retarget, retargeted = best_of(REPS, ipfp_trajectory)
    t_rebuild, rebuilt = best_of(REPS, lp_rebuild_trajectory)

    # Retarget contract: every epoch's warm value == its cold run.
    cold_values = [ipfp_bound(epoch).value for epoch in epochs]
    assert retargeted == cold_values

    # Sandwich per epoch: ipfp never exceeds the rational LP value.
    for warm, exact in zip(retargeted, rebuilt):
        assert warm <= exact + 1e-9

    entry = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "workload": {
            "kind": "ipfp_bound",
            "tree_size": TREE_SIZE,
            "target_load": LOAD,
            "link_bandwidth": LINK_BANDWIDTH,
            "churn_epochs": CHURN_EPOCHS,
        },
        "cpus": available_cpus(),
        "seconds": {
            "ipfp_cold": round(t_ipfp, 5),
            "mixed_cold": round(t_mixed, 4),
            "ipfp_retarget_trajectory": round(t_retarget, 4),
            "lp_rebuild_trajectory": round(t_rebuild, 4),
        },
        "values": {
            "ipfp": cold_ipfp.value,
            "mixed": mixed.value,
            "gap_to_mixed": round(gap, 4),
        },
        "cold_speedup": round(speedup, 1),
        "churn_speedup": round(t_rebuild / t_retarget, 2),
    }
    record_bench(entry)

    assert speedup >= REQUIRED_COLD_SPEEDUP, (
        f"cold IPFP ran only {speedup:.1f}x faster than the mixed LP "
        f"(required {REQUIRED_COLD_SPEEDUP}x); times: {entry['seconds']}"
    )
    assert gap <= MAX_GAP_TO_LP, (
        f"IPFP bound {cold_ipfp.value:g} is {gap:.1%} below the mixed LP "
        f"{mixed.value:g} (allowed {MAX_GAP_TO_LP:.0%})"
    )
    assert t_retarget < t_rebuild, (
        f"re-targeted IPFP trajectory ({t_retarget:.3f}s) did not beat the "
        f"rebuild-per-epoch LP trajectory ({t_rebuild:.3f}s)"
    )

"""Perf smoke benchmark: session cache reuse (PR 4 acceptance criteria).

One workload on a 500-node heterogeneous, QoS-bounded,
bandwidth-constrained instance, appending a trajectory entry to
``BENCH_engine.json``:

* a :class:`~repro.session.PlacementSession` solves the instance once, then
  serves a rate-only epoch stream (``update(requests=...)`` + ``bound()``);
* the baseline re-answers the same queries statelessly: every epoch gets a
  cache-free tree clone and a from-scratch :func:`repro.api.lower_bound`
  (full index DFS + variable layout + program assembly + LP solve).

The reuse is verified twice over:

* **structurally** -- the session's resident program must share its
  sparsity arrays with the pre-update program
  (:meth:`~repro.lp.formulation.LinearProgramData.shares_structure_with`),
  every post-update bound must report strategy ``patched`` (exactly one
  ``built``), the program's variable space must sit on the session's own
  :class:`~repro.core.index.TreeIndex`, and the bounds must equal the
  from-scratch values bit for bit;
* **by wall clock** -- the patched per-epoch bound must beat the
  from-scratch rebuild by ``>= 1.15x`` (real margin on this host is
  ~1.4x: the rational LP solve itself is shared by both paths, so the
  floor is intentionally conservative for 1-CPU container noise), and a
  repeated same-epoch ``bound()`` -- a per-epoch cache hit -- must beat it
  by ``>= 20x`` (real margin is ~1000x).

Both wins come from skipped work (no re-indexing, no re-assembly), not
parallelism, so they must show even on this 1-CPU container.  Times are
best-of-N to bound noisy-neighbour spikes.
"""

from __future__ import annotations

import math
import time

import pytest

from benchmarks.conftest import record_bench
from repro.api import lower_bound
from repro.core.constraints import ConstraintSet
from repro.core.problem import ProblemKind, ReplicaPlacementProblem
from repro.core.serialization import tree_from_dict, tree_to_dict
from repro.session import PlacementSession
from repro.workloads.generator import GeneratorConfig, TreeGenerator

TREE_SIZE = 500
SEED = 42
EPOCHS = 6
#: best-of-N wall times, bounding noisy-neighbour spikes on shared hosts.
REPS = 5
REQUIRED_PATCH_SPEEDUP = 1.15
REQUIRED_CACHE_SPEEDUP = 20.0


def make_tree():
    return TreeGenerator(SEED).generate(
        GeneratorConfig(
            size=TREE_SIZE,
            target_load=0.5,
            homogeneous=False,
            max_children=2,
            qos_hops=(4, 8),
            link_bandwidth=1e6,  # finite: every link contributes a bandwidth row
        )
    )


CONSTRAINTS = ConstraintSet.qos_distance(enforce_bandwidth=True)


def make_problem(tree) -> ReplicaPlacementProblem:
    return ReplicaPlacementProblem(
        tree=tree, constraints=CONSTRAINTS, kind=ProblemKind.REPLICA_COST
    )


@pytest.mark.bench
def test_session_reuse_speed():
    tree = make_tree()
    problem = make_problem(tree)
    # One throwaway solve pays scipy's lazy-import / first-call costs so
    # neither measured path carries them.
    lower_bound(make_problem(tree_from_dict(tree_to_dict(tree))), method="rational")

    # ------------------------------------------------------------------ #
    # the session path: solve once, then serve rate-only epochs
    # ------------------------------------------------------------------ #
    session = PlacementSession(problem)
    solved = session.solve()
    assert solved.feasible
    first_bound = session.bound(method="rational")
    program_before = session.program(method="rational")
    assert program_before is not None
    # solve-then-bound shares the session's TreeIndex: same object, no DFS.
    assert program_before.space.index is session.index

    clients = tree.client_ids
    t_patched = math.inf
    for k in range(EPOCHS):
        client = clients[k]
        new_rate = problem.requests(client) + 1.0 + k
        session.update(requests={client: new_rate}, resolve=False)
        start = time.perf_counter()
        bound = session.bound(method="rational")
        t_patched = min(t_patched, time.perf_counter() - start)
        assert bound.stats.strategy == "patched"
        # The resident program was re-targeted, never re-assembled.
        assert session.program(method="rational").shares_structure_with(
            program_before
        )

    assert session.stats.bound_strategies.get("built") == 1
    assert session.stats.bound_strategies.get("patched") == EPOCHS

    # A repeated same-epoch bound is a pure cache hit.
    t_cached = math.inf
    for _ in range(REPS):
        start = time.perf_counter()
        session.bound(method="rational")
        t_cached = min(t_cached, time.perf_counter() - start)

    # ------------------------------------------------------------------ #
    # the stateless baseline: cache-free clone + from-scratch bound
    # ------------------------------------------------------------------ #
    final_tree = session.tree
    t_fresh = math.inf
    fresh_value = None
    for _ in range(REPS):
        clone = make_problem(tree_from_dict(tree_to_dict(final_tree)))
        start = time.perf_counter()
        fresh_value = lower_bound(clone, method="rational")
        t_fresh = min(t_fresh, time.perf_counter() - start)

    # Patched bounds are the from-scratch bounds, bit for bit.
    assert session.bound(method="rational").value == fresh_value
    assert first_bound.value == lower_bound(
        make_problem(tree_from_dict(tree_to_dict(tree))), method="rational"
    )

    patch_speedup = t_fresh / t_patched
    cache_speedup = t_fresh / t_cached
    record_bench(
        {
            "suite": "session_reuse",
            "tree_size": TREE_SIZE,
            "epochs": EPOCHS,
            "fresh_bound_s": t_fresh,
            "patched_bound_s": t_patched,
            "cached_bound_s": t_cached,
            "patch_speedup": patch_speedup,
            "cache_speedup": cache_speedup,
            "session_stats": {
                "solves": session.stats.solves,
                "bounds": session.stats.bounds,
                "bound_strategies": dict(session.stats.bound_strategies),
            },
        }
    )

    assert patch_speedup >= REQUIRED_PATCH_SPEEDUP, (
        f"patched session bound only {patch_speedup:.2f}x faster than a "
        f"from-scratch rebuild (required {REQUIRED_PATCH_SPEEDUP}x)"
    )
    assert cache_speedup >= REQUIRED_CACHE_SPEEDUP, (
        f"cached same-epoch bound only {cache_speedup:.2f}x faster than a "
        f"from-scratch rebuild (required {REQUIRED_CACHE_SPEEDUP}x)"
    )

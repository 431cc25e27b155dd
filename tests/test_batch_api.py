"""Tests for the batch solving layer (:func:`repro.api.solve_many`).

The contract under test: whatever the worker count, ``solve_many`` returns
exactly what a sequential loop of :func:`repro.api.solve` would return, in
the same order; infeasible instances are mapped to ``None`` by default and
re-raised in input order under ``on_error="raise"``.
"""

from __future__ import annotations

import pytest

from repro.api import solve, solve_many
from repro.core.constraints import ConstraintSet
from repro.core.exceptions import InfeasibleError
from repro.core.problem import ProblemKind, ReplicaPlacementProblem, replica_cost_problem
from repro.workloads.generator import GeneratorConfig, TreeGenerator
from tests.conftest import ENGINES, on_engine


def batch_problems(count=8, *, qos=None):
    problems = []
    for seed in range(count):
        tree = TreeGenerator(seed).generate(
            GeneratorConfig(
                size=30 + 4 * seed,
                target_load=0.3 + 0.05 * seed,
                homogeneous=seed % 2 == 0,
                qos_hops=qos,
            )
        )
        constraints = ConstraintSet.qos_distance() if qos else ConstraintSet.none()
        kind = ProblemKind.REPLICA_COUNTING if seed % 2 == 0 else ProblemKind.REPLICA_COST
        problems.append(
            ReplicaPlacementProblem(tree=tree, constraints=constraints, kind=kind)
        )
    return problems


def sequential_reference(problems, **kwargs):
    results = []
    for problem in problems:
        try:
            results.append(solve(problem, **kwargs))
        except InfeasibleError:
            results.append(None)
    return results


def assert_same_solutions(batch, reference):
    assert len(batch) == len(reference)
    for got, expected in zip(batch, reference):
        assert (got is None) == (expected is None)
        if got is not None:
            assert got.placement.replicas == expected.placement.replicas
            assert got.assignment == expected.assignment
            assert got.algorithm == expected.algorithm


@pytest.mark.parametrize("workers", [None, 1, 4])
def test_solve_many_matches_sequential_loop(workers):
    problems = batch_problems()
    reference = sequential_reference(problems, policy="multiple")
    batch = solve_many(problems, policy="multiple", workers=workers)
    assert_same_solutions(batch, reference)


@pytest.mark.parametrize("workers", [1, 4])
def test_solve_many_with_qos_and_forced_algorithm(workers):
    problems = batch_problems(qos=(2, 5))
    reference = sequential_reference(problems, policy="multiple", algorithm="MG")
    batch = solve_many(problems, policy="multiple", algorithm="MG", workers=workers)
    assert_same_solutions(batch, reference)


def test_solve_many_preserves_order():
    """Order must follow the input, not completion time or chunk layout."""
    problems = batch_problems(9)
    batch = solve_many(problems, policy="multiple", workers=4)
    reference = sequential_reference(problems, policy="multiple")
    for index, (got, expected) in enumerate(zip(batch, reference)):
        if expected is not None:
            assert got is not None, index
            assert got.cost(problems[index]) == expected.cost(problems[index])


def test_solve_many_maps_infeasible_to_none_by_default(chain_tree):
    # chain_tree's single client issues 6 requests; every node has W=4, so
    # the single-server policies are infeasible while Multiple is not.
    problems = [replica_cost_problem(chain_tree)] * 3
    results = solve_many(problems, policy="closest")
    assert results == [None, None, None]
    multiple = solve_many(problems, policy="multiple")
    assert all(solution is not None for solution in multiple)


@pytest.mark.parametrize("workers", [None, 4])
def test_solve_many_on_error_raise(chain_tree, workers):
    solvable = batch_problems(2)
    problems = solvable[:1] + [replica_cost_problem(chain_tree)] + solvable[1:]
    with pytest.raises(InfeasibleError):
        solve_many(problems, policy="closest", on_error="raise", workers=workers)


def test_solve_many_rejects_unknown_on_error(small_problem):
    with pytest.raises(ValueError):
        solve_many([small_problem], on_error="ignore")


def test_solve_many_empty_batch():
    assert solve_many([]) == []


def test_solve_many_accepts_bare_trees():
    trees = [
        TreeGenerator(seed).generate(GeneratorConfig(size=24, target_load=0.4))
        for seed in range(3)
    ]
    results = solve_many(trees, policy="multiple", workers=2)
    assert len(results) == 3
    assert all(solution is not None for solution in results)


@pytest.mark.parametrize("engine", ENGINES)
def test_solve_many_engine_override_is_equivalent(engine):
    # The kernels switch reaches the pool's workers through the environment.
    problems = batch_problems(5)
    reference = sequential_reference(problems, policy="upwards")
    with on_engine(engine):
        batch = solve_many(problems, policy="upwards", workers=2)
    assert_same_solutions(batch, reference)

"""Tests of the optimal Multiple/homogeneous algorithm and the exhaustive baseline."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.algorithms.base import get_heuristic
from repro.algorithms.exhaustive import ExhaustiveSearch, optimal_cost, optimal_solution
from repro.algorithms.multiple_homogeneous import (
    MultipleHomogeneousOptimal,
    optimal_multiple_homogeneous_placement,
)
from repro.algorithms.portfolio import DEFAULT_PORTFOLIO, portfolio_solve
from repro.core.builder import TreeBuilder
from repro.core.costs import request_lower_bound
from repro.core.exceptions import InfeasibleError, TreeStructureError
from repro.core.policies import Policy
from repro.core.problem import (
    ProblemKind,
    ReplicaPlacementProblem,
    replica_cost_problem,
    replica_counting_problem,
)
from repro.workloads import reference_trees
from repro.workloads.generator import GeneratorConfig, TreeGenerator
from tests.conftest import assert_valid, make_random_problem


class TestOptimalMultipleHomogeneous:
    def test_hand_built_example_with_both_passes(self):
        """A Figure 6-style instance (W = 10) mixing saturated and pass-2 replicas."""
        builder = TreeBuilder().add_node("n1", capacity=10)
        builder.add_node("n2", capacity=10, parent="n1")
        builder.add_node("n3", capacity=10, parent="n1")
        builder.add_node("n4", capacity=10, parent="n1")
        builder.add_client("c_n2_a", requests=2, parent="n2")
        builder.add_client("c_n2_b", requests=2, parent="n2")
        builder.add_node("n5", capacity=10, parent="n3")
        builder.add_client("c_n3", requests=1, parent="n3")
        builder.add_node("n6", capacity=10, parent="n5")
        builder.add_client("c_n5", requests=9, parent="n5")
        builder.add_client("c_n6_a", requests=12, parent="n6")
        builder.add_client("c_n6_b", requests=1, parent="n6")
        builder.add_node("n7", capacity=10, parent="n4")
        builder.add_node("n8", capacity=10, parent="n4")
        builder.add_client("c_n7", requests=7, parent="n7")
        builder.add_client("c_n8_a", requests=2, parent="n8")
        builder.add_client("c_n8_b", requests=7, parent="n8")
        tree = builder.build()
        problem = replica_counting_problem(tree)
        solution = MultipleHomogeneousOptimal().solve(problem)
        # Total requests = 43, W = 10 -> the lower bound of 5 replicas is
        # reached (4 saturated nodes from pass 1 plus one pass-2 replica).
        assert solution.replica_count() == 5
        assert solution.replica_count() == request_lower_bound(tree)
        assert_valid(problem, solution)

    def test_matches_exhaustive_on_small_random_instances(self):
        for seed in range(6):
            problem = make_random_problem(seed + 100, size=16, load=0.5)
            greedy = MultipleHomogeneousOptimal().try_solve(problem)
            try:
                brute = optimal_cost(problem, Policy.MULTIPLE)
            except InfeasibleError:
                brute = math.inf
            greedy_cost = greedy.cost(problem) if greedy is not None else math.inf
            assert greedy_cost == pytest.approx(brute)

    def test_matches_ilp_on_small_random_instances(self):
        from repro.lp.exact import exact_cost

        for seed in (3, 7, 11):
            problem = make_random_problem(seed, size=18, load=0.4)
            greedy = MultipleHomogeneousOptimal().solve(problem)
            assert greedy.cost(problem) == pytest.approx(
                exact_cost(problem, Policy.MULTIPLE)
            )

    def test_zero_load_places_no_replica(self):
        tree = (
            TreeBuilder()
            .add_node("r", capacity=10)
            .add_client("c", requests=0, parent="r")
            .build()
        )
        placement = optimal_multiple_homogeneous_placement(
            replica_counting_problem(tree)
        )
        assert placement == set()

    def test_shortcut_adds_root_when_residue_fits(self):
        tree = (
            TreeBuilder()
            .add_node("root", capacity=10)
            .add_node("a", capacity=10, parent="root")
            .add_client("c", requests=4, parent="a")
            .build()
        )
        placement = optimal_multiple_homogeneous_placement(
            replica_counting_problem(tree)
        )
        assert placement == {"root"}

    def test_infeasible_instance_raises(self):
        tree = (
            TreeBuilder()
            .add_node("r", capacity=1)
            .add_client("c", requests=5, parent="r")
            .build()
        )
        with pytest.raises(InfeasibleError):
            optimal_multiple_homogeneous_placement(replica_counting_problem(tree))

    def test_heterogeneous_platform_rejected(self, hetero_problem):
        with pytest.raises(TreeStructureError):
            optimal_multiple_homogeneous_placement(hetero_problem)

    def test_never_below_request_lower_bound(self):
        for seed in range(5):
            problem = make_random_problem(seed + 40, size=50, load=0.5)
            solution = MultipleHomogeneousOptimal().try_solve(problem)
            if solution is None:
                continue
            assert solution.replica_count() >= request_lower_bound(problem.tree)

    def test_figure3_needs_n_plus_one_replicas(self):
        n = 4
        problem = replica_counting_problem(reference_trees.figure3_tree(n))
        solution = MultipleHomogeneousOptimal().solve(problem)
        assert solution.replica_count() == n + 1

    def test_pass2_used_when_saturated_nodes_insufficient(self, chain_tree):
        # chain of capacity 4 with a single 6-request client: pass 1 saturates
        # "low", pass 2 must add a second (non exhausted) replica above it.
        problem = replica_cost_problem(chain_tree)
        solution = MultipleHomogeneousOptimal().solve(problem)
        assert solution.replica_count() == 2


def test_portfolio_beats_members_when_storage_costs_differ():
    """Theorem 1 proves the three-pass algorithm optimal for Replica
    Counting only: on a homogeneous platform whose storage costs differ,
    the fewest replicas can cost more than a heuristic's placement, so the
    portfolio must still run its members and keep the cheapest."""
    worse = []
    for seed in range(60):
        tree = TreeGenerator(seed).generate(GeneratorConfig(size=40, target_load=0.4))
        assert tree.is_homogeneous()
        nodes = list(tree.nodes())
        costs = np.random.default_rng(seed).choice([1.0, 5.0, 20.0], size=len(nodes))
        tree = tree.with_nodes(
            node.with_storage_cost(float(cost)) for node, cost in zip(nodes, costs)
        )
        problem = ReplicaPlacementProblem(tree=tree, kind=ProblemKind.GENERAL)
        members = {
            name: solution.cost(problem)
            for name in DEFAULT_PORTFOLIO[Policy.MULTIPLE]
            if (solution := get_heuristic(name).try_solve(problem)) is not None
        }
        if not members:
            continue
        solution = portfolio_solve(problem, policy=Policy.MULTIPLE)
        assert_valid(problem, solution, Policy.MULTIPLE)
        if solution.cost(problem) > min(members.values()):
            worse.append((seed, solution.cost(problem), members))
    assert worse == []


class TestExhaustive:
    def test_orders_by_cost_and_returns_cheapest(self, hetero_problem):
        solution = optimal_solution(hetero_problem, Policy.MULTIPLE)
        # The a-subtree issues 14 > 10 requests, so {a, b} is infeasible and
        # the cheapest feasible cover is the root alone (cost 100, instead of
        # e.g. {b, root} at 120).
        assert solution.cost(hetero_problem) == 100
        assert set(solution.placement) == {"root"}

    def test_closest_may_cost_more_than_multiple(self):
        problem = replica_counting_problem(reference_trees.figure3_tree(2))
        multiple = optimal_cost(problem, Policy.MULTIPLE)
        closest = optimal_cost(problem, Policy.CLOSEST)
        assert multiple <= closest

    def test_infeasible_raises(self):
        problem = replica_counting_problem(reference_trees.figure1_tree("c"))
        with pytest.raises(InfeasibleError):
            optimal_solution(problem, Policy.UPWARDS)

    def test_node_limit_guard(self):
        problem = make_random_problem(1, size=80, load=0.3)
        with pytest.raises(ValueError):
            optimal_solution(problem, Policy.MULTIPLE, node_limit=10)

    def test_heuristic_interface_wrapper(self, small_counting_problem):
        heuristic = ExhaustiveSearch(policy=Policy.MULTIPLE)
        solution = heuristic.solve(small_counting_problem)
        assert solution.replica_count() == 2
        assert solution.policy is Policy.MULTIPLE

    def test_upwards_exhaustive_uses_exact_packing(self):
        problem = replica_counting_problem(reference_trees.figure1_tree("b"))
        solution = optimal_solution(problem, Policy.UPWARDS)
        assert solution.replica_count() == 2

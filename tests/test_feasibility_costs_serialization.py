"""Unit tests for assignment derivation, cost bounds and JSON serialization."""

from __future__ import annotations

import json
import math

import pytest

from repro.core.builder import TreeBuilder
from repro.core.constraints import ConstraintSet
from repro.core.costs import (
    capacity_cost_lower_bound,
    greedy_cost_lower_bound,
    placement_cost,
    request_lower_bound,
    trivial_lower_bound,
)
from repro.core.exceptions import InfeasibleError, TreeStructureError
from repro.core.feasibility import (
    assignment_for_placement,
    closest_assignment,
    multiple_assignment,
    placement_is_feasible,
    upwards_assignment,
)
from repro.core.policies import Policy
from repro.core.problem import replica_cost_problem, replica_counting_problem
from repro.core.serialization import (
    load_tree,
    save_tree,
    solution_from_dict,
    solution_to_dict,
    tree_from_dict,
    tree_to_dict,
)
from repro.core.validation import validate_solution
from tests.conftest import assert_valid, tree_records


class TestClosestAssignment:
    def test_forced_assignment(self, small_problem):
        sol = closest_assignment(small_problem, ["n1", "root"])
        assert sol.assignment.amount("c1", "n1") == 7
        assert sol.assignment.amount("c3", "root") == 2
        assert_valid(small_problem, sol, policy=Policy.CLOSEST)

    def test_client_without_replica_ancestor_fails(self, small_problem):
        with pytest.raises(InfeasibleError):
            closest_assignment(small_problem, ["n1"])  # c3 uncovered

    def test_capacity_overload_fails(self, small_problem):
        # root alone must absorb 14 > 10 requests
        with pytest.raises(InfeasibleError):
            closest_assignment(small_problem, ["root"])

    def test_qos_violation_fails(self, qos_tree):
        problem = replica_cost_problem(qos_tree, constraints=ConstraintSet.qos_distance())
        with pytest.raises(InfeasibleError):
            closest_assignment(problem, ["root"])


class TestMultipleAssignment:
    def test_split_across_levels(self, chain_tree):
        problem = replica_cost_problem(chain_tree)
        sol = multiple_assignment(problem, ["low", "mid"])
        assert sol.assignment.client_total("c") == 6
        assert sol.assignment.server_load("low") == 4
        assert sol.assignment.server_load("mid") == 2
        assert_valid(problem, sol)

    def test_infeasible_when_capacity_missing(self, chain_tree):
        problem = replica_cost_problem(chain_tree)
        with pytest.raises(InfeasibleError):
            multiple_assignment(problem, ["low"])

    def test_respects_qos(self, qos_tree):
        problem = replica_cost_problem(qos_tree, constraints=ConstraintSet.qos_distance())
        sol = multiple_assignment(problem, ["leaf", "mid", "root"])
        # "near" (qos=1) must be served at "leaf" only.
        assert sol.assignment.servers_of("near") == ("leaf",)
        assert_valid(problem, sol)

    def test_full_placement_feasibility_matches_lp(self, random_homogeneous_problem):
        from repro.lp.bounds import lp_lower_bound

        greedy_feasible = placement_is_feasible(
            random_homogeneous_problem,
            random_homogeneous_problem.tree.node_ids,
            Policy.MULTIPLE,
        )
        lp_feasible = lp_lower_bound(random_homogeneous_problem).feasible
        assert greedy_feasible == lp_feasible


class TestUpwardsAssignment:
    def test_best_fit_assignment(self, small_problem):
        sol = upwards_assignment(small_problem, ["n1", "root"])
        assert_valid(small_problem, sol, policy=Policy.UPWARDS)

    def test_no_eligible_ancestor_fails(self, small_problem):
        with pytest.raises(InfeasibleError):
            upwards_assignment(small_problem, ["n1"])

    def test_exact_mode_finds_packing_best_fit_might_miss(self):
        # Two servers of capacity 10; clients 6, 5, 5, 4. Wholes must pack as
        # {6,4} and {5,5}.
        tree = (
            TreeBuilder()
            .add_node("root", capacity=10)
            .add_node("mid", capacity=10, parent="root")
            .add_client("a", requests=6, parent="mid")
            .add_client("b", requests=5, parent="mid")
            .add_client("c", requests=5, parent="mid")
            .add_client("d", requests=4, parent="mid")
            .build()
        )
        problem = replica_cost_problem(tree)
        sol = upwards_assignment(problem, ["root", "mid"], exact=True)
        assert_valid(problem, sol, policy=Policy.UPWARDS)
        loads = sol.assignment.server_loads()
        assert loads["root"] == 10 and loads["mid"] == 10

    def test_dispatcher(self, small_problem):
        for policy in Policy.ordered():
            sol = assignment_for_placement(small_problem, ["n1", "root"], policy)
            assert validate_solution(small_problem, sol, policy=policy).valid

    def test_placement_is_feasible_false(self, small_problem):
        assert not placement_is_feasible(small_problem, [], Policy.MULTIPLE)
        assert placement_is_feasible(small_problem, ["n1", "root"], Policy.CLOSEST)


class TestCostBounds:
    def test_placement_cost(self, hetero_problem):
        assert placement_cost(hetero_problem, ["a", "b"]) == 30
        from repro.core.solution import Placement

        assert placement_cost(hetero_problem, Placement(["root"])) == 100

    def test_request_lower_bound(self, small_tree):
        assert request_lower_bound(small_tree) == 2  # 12 requests / capacity 10

    def test_request_lower_bound_zero_load(self):
        tree = (
            TreeBuilder()
            .add_node("r", capacity=10)
            .add_client("c", requests=0, parent="r")
            .build()
        )
        assert request_lower_bound(tree) == 0

    def test_request_lower_bound_requires_homogeneous(self, hetero_tree):
        with pytest.raises(TreeStructureError):
            request_lower_bound(hetero_tree)

    def test_capacity_cost_lower_bound(self, small_tree):
        assert capacity_cost_lower_bound(small_tree) == 12

    def test_greedy_cost_lower_bound_prefers_cheap_rate(self, hetero_problem):
        # All nodes have cost == capacity, so the bound equals total requests.
        assert greedy_cost_lower_bound(hetero_problem) == pytest.approx(29)

    def test_greedy_cost_lower_bound_infeasible_is_inf(self):
        tree = (
            TreeBuilder()
            .add_node("r", capacity=1)
            .add_client("c", requests=5, parent="r")
            .build()
        )
        assert math.isinf(greedy_cost_lower_bound(replica_cost_problem(tree)))

    def test_trivial_lower_bound_dispatch(self, small_tree, hetero_tree):
        assert trivial_lower_bound(replica_counting_problem(small_tree)) == 2
        assert trivial_lower_bound(replica_cost_problem(hetero_tree)) == 29


class TestSerialization:
    def test_tree_roundtrip(self, hetero_tree, tmp_path):
        payload = tree_to_dict(hetero_tree)
        rebuilt = tree_from_dict(payload)
        assert rebuilt == hetero_tree
        path = save_tree(hetero_tree, tmp_path / "tree.json")
        assert load_tree(path) == hetero_tree

    def test_decoded_ids_are_one_object_each(self, hetero_tree):
        rebuilt = tree_from_dict(json.loads(json.dumps(tree_to_dict(hetero_tree))))
        assert rebuilt == hetero_tree
        declared = {node.id: node.id for node in rebuilt.nodes()}
        declared.update((client.id, client.id) for client in rebuilt.clients())
        for link in rebuilt.links():
            assert link.child is declared[link.child]
            assert link.parent is declared[link.parent]

    def test_non_string_ids_keep_their_type(self):
        tree = (
            TreeBuilder()
            .add_node(1, capacity=5)
            .add_node(2, parent=1.0, capacity=5)
            .add_client("c", parent=2, requests=1)
            .build()
        )
        payload = tree_to_dict(tree_from_dict(tree_to_dict(tree)))
        assert payload == tree_to_dict(tree)
        assert [type(parent) for parent in payload["links"]["parent"]] == [float, int]
        # and through the record layout
        assert tree_to_dict(tree_from_dict(tree_records(payload))) == payload

    def test_infinite_bounds_encoded_as_null(self, small_tree):
        # every bound infinite: the columns are left out
        payload = tree_to_dict(small_tree)
        assert "qos" not in payload["clients"] and "bandwidth" not in payload["links"]
        tree = (
            TreeBuilder()
            .add_node("root", capacity=10)
            .add_client("c1", requests=2, parent="root", qos=3, bandwidth=4)
            .add_client("c2", requests=2, parent="root")
            .build()
        )
        payload = tree_to_dict(tree)
        assert payload["clients"]["qos"][0] == 3 and payload["clients"]["qos"][1] is None
        assert payload["links"]["bandwidth"][0] == 4 and payload["links"]["bandwidth"][1] is None
        assert tree_from_dict(json.loads(json.dumps(payload))) == tree

    def test_qos_roundtrip(self, qos_tree):
        rebuilt = tree_from_dict(tree_to_dict(qos_tree))
        assert rebuilt.client("near").qos == 1
        assert rebuilt.link("mid").comm_time == 2.0

    def test_solution_roundtrip(self, small_problem):
        sol = closest_assignment(small_problem, ["n1", "root"])
        payload = solution_to_dict(sol)
        rebuilt = solution_from_dict(payload)
        assert rebuilt.placement == sol.placement
        assert rebuilt.assignment == sol.assignment
        assert rebuilt.policy is Policy.CLOSEST

    def test_solution_dict_is_sorted_and_json_safe(self, small_problem):
        import json

        sol = closest_assignment(small_problem, ["n1", "root"])
        text = json.dumps(solution_to_dict(sol))
        assert "n1" in text

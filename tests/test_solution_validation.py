"""Unit tests for solutions (placement/assignment) and constraint validation."""

from __future__ import annotations

import math

import pytest

from repro.core.constraints import ConstraintSet
from repro.core.exceptions import InfeasibleError, PolicyViolationError, TreeStructureError
from repro.core.policies import Policy
from repro.core.problem import ProblemKind, replica_cost_problem
from repro.core.solution import Assignment, Placement, Solution
from repro.core.validation import (
    TOLERANCE,
    ValidationReport,
    closest_server_map,
    validate_solution,
)


def solution_for(small_tree, amounts, replicas, policy=Policy.MULTIPLE):
    return Solution(
        placement=Placement(replicas),
        assignment=Assignment(amounts),
        policy=policy,
        algorithm="test",
    )


class TestPlacement:
    def test_membership_iteration_and_len(self):
        placement = Placement(["a", "b"])
        assert "a" in placement and "c" not in placement
        assert sorted(placement) == ["a", "b"]
        assert len(placement) == 2

    def test_union(self):
        assert sorted(Placement(["a"]) | Placement(["b"])) == ["a", "b"]

    def test_sorted_is_deterministic(self):
        assert Placement(["b", "a"]).sorted() == ("a", "b")

    def test_restricted_to(self, small_tree):
        placement = Placement(["root", "ghost"])
        assert set(placement.restricted_to(small_tree)) == {"root"}


class TestAssignment:
    def test_amounts_and_totals(self):
        assignment = Assignment({("c1", "n1"): 4, ("c1", "root"): 3, ("c2", "n1"): 5})
        assert assignment.amount("c1", "n1") == 4
        assert assignment.amount("c1", "ghost") == 0
        assert assignment.client_total("c1") == 7
        assert assignment.server_load("n1") == 9
        assert assignment.total_assigned() == 12
        assert len(assignment) == 3

    def test_zero_amounts_are_dropped(self):
        assignment = Assignment({("c1", "n1"): 0.0})
        assert len(assignment) == 0

    def test_negative_amounts_rejected(self):
        with pytest.raises(PolicyViolationError):
            Assignment({("c1", "n1"): -1})

    def test_servers_and_clients_lookup(self):
        assignment = Assignment({("c1", "n1"): 4, ("c1", "root"): 3})
        assert set(assignment.servers_of("c1")) == {"n1", "root"}
        assert assignment.clients_of("n1") == ("c1",)
        assert assignment.used_servers() == {"n1", "root"}

    def test_single_server_constructor(self, small_tree):
        assignment = Assignment.single_server({"c1": "n1", "c2": "root"}, small_tree)
        assert assignment.amount("c1", "n1") == 7
        assert assignment.amount("c2", "root") == 3

    def test_link_flows(self, small_tree):
        assignment = Assignment({("c1", "root"): 7, ("c2", "n1"): 5})
        flows = assignment.link_flows(small_tree)
        assert flows[("c1", "n1")] == 7
        assert flows[("n1", "root")] == 7
        assert flows[("c2", "n1")] == 5

    def test_is_integral(self):
        assert Assignment({("c", "n"): 3.0}).is_integral()
        assert not Assignment({("c", "n"): 2.5}).is_integral()

    def test_copy_and_equality(self):
        original = Assignment({("c", "n"): 3.0})
        assert original.copy() == original

    def test_server_loads_mapping(self):
        assignment = Assignment({("c1", "n1"): 4, ("c2", "n1"): 5, ("c1", "root"): 1})
        assert assignment.server_loads() == {"n1": 9.0, "root": 1.0}


class TestSolutionObject:
    def test_cost_and_replica_count(self, small_problem, small_tree):
        sol = solution_for(small_tree, {("c1", "n1"): 7}, ["n1"])
        assert sol.replica_count() == 1
        assert sol.cost(small_problem) == 10  # Replica Cost: s = W

    def test_server_utilisation(self, small_tree):
        sol = solution_for(small_tree, {("c1", "n1"): 7}, ["n1", "root"])
        util = sol.server_utilisation(small_tree)
        assert util["n1"] == pytest.approx(0.7)
        assert util["root"] == 0.0

    def test_with_algorithm_and_summary(self, small_problem, small_tree):
        sol = solution_for(small_tree, {("c1", "n1"): 7}, ["n1"])
        renamed = sol.with_algorithm("other")
        assert renamed.algorithm == "other"
        assert "replicas=1" in renamed.summary(small_problem)


class TestValidation:
    def full_amounts(self):
        return {("c1", "n1"): 7, ("c2", "n1"): 3, ("c3", "root"): 2}

    def test_valid_multiple_solution(self, small_problem, small_tree):
        sol = solution_for(small_tree, self.full_amounts(), ["n1", "root"])
        report = validate_solution(small_problem, sol)
        assert report.valid and not report.violations
        report.raise_if_invalid()  # does not raise

    def test_missing_coverage_detected(self, small_problem, small_tree):
        sol = solution_for(small_tree, {("c1", "n1"): 7}, ["n1"])
        report = validate_solution(small_problem, sol)
        assert not report.valid and "coverage" in report.categories

    def test_capacity_violation_detected(self, small_problem, small_tree):
        amounts = {("c1", "root"): 7, ("c2", "root"): 3, ("c3", "root"): 2}
        sol = solution_for(small_tree, amounts, ["root"])
        report = validate_solution(small_problem, sol)
        assert "capacity" in report.categories

    def test_unplaced_server_detected(self, small_problem, small_tree):
        sol = solution_for(small_tree, self.full_amounts(), ["n1"])  # root missing
        report = validate_solution(small_problem, sol)
        assert "structure" in report.categories

    def test_non_ancestor_server_detected(self, small_problem, small_tree):
        amounts = {("c3", "n1"): 2, ("c1", "n1"): 7, ("c2", "n1"): 5}
        sol = solution_for(small_tree, amounts, ["n1"])
        report = validate_solution(small_problem, sol)
        assert "structure" in report.categories

    def test_single_server_policy_violation(self, small_problem, small_tree):
        amounts = {("c1", "n1"): 4, ("c1", "root"): 3, ("c2", "n1"): 3, ("c3", "root"): 2}
        sol = solution_for(small_tree, amounts, ["n1", "root"], policy=Policy.UPWARDS)
        report = validate_solution(small_problem, sol)
        assert "policy" in report.categories

    def test_closest_must_use_lowest_replica(self, small_problem, small_tree):
        # c1 served at the root although n1 holds a replica: invalid for Closest.
        amounts = {("c1", "root"): 7, ("c2", "n1"): 3, ("c3", "root"): 2}
        sol = solution_for(small_tree, amounts, ["n1", "root"], policy=Policy.CLOSEST)
        report = validate_solution(small_problem, sol)
        assert "policy" in report.categories

    def test_closest_valid_when_lowest_used(self, small_problem, small_tree):
        amounts = {("c1", "n1"): 7, ("c2", "n1"): 3, ("c3", "root"): 2}
        sol = solution_for(small_tree, amounts, ["n1", "root"], policy=Policy.CLOSEST)
        assert validate_solution(small_problem, sol).valid

    def test_qos_violation_detected(self, qos_tree):
        problem = replica_cost_problem(qos_tree, constraints=ConstraintSet.qos_distance())
        amounts = {("near", "root"): 5, ("far", "root"): 5, ("top", "root"): 5}
        sol = solution_for(qos_tree, amounts, ["root"])
        report = validate_solution(problem, sol)
        assert "qos" in report.categories

    def test_bandwidth_violation_detected(self):
        from repro.core.builder import TreeBuilder

        tree = (
            TreeBuilder()
            .add_node("root", capacity=100)
            .add_node("n1", capacity=100, parent="root", bandwidth=3)
            .add_client("c", requests=10, parent="n1")
            .build()
        )
        problem = replica_cost_problem(
            tree, constraints=ConstraintSet(enforce_bandwidth=True)
        )
        sol = solution_for(tree, {("c", "root"): 10}, ["root"])
        report = validate_solution(problem, sol)
        assert "bandwidth" in report.categories

    def test_raise_if_invalid(self, small_problem, small_tree):
        sol = solution_for(small_tree, {}, [])
        report = validate_solution(small_problem, sol)
        with pytest.raises(InfeasibleError):
            report.raise_if_invalid()

    def test_bool_protocol(self, small_problem, small_tree):
        good = solution_for(small_tree, self.full_amounts(), ["n1", "root"])
        assert bool(validate_solution(small_problem, good)) is True

    def test_closest_server_map(self, small_tree):
        servers = closest_server_map(small_tree, ["root"])
        assert servers == {"c1": "root", "c2": "root", "c3": "root"}
        servers = closest_server_map(small_tree, ["n1"])
        assert servers == {"c1": "n1", "c2": "n1"}


# --------------------------------------------------------------------------- #
# bulk checks against the per-pair walk
# --------------------------------------------------------------------------- #
def _reference_report(problem, solution, policy=None, tolerance=TOLERANCE):
    """Every check of :func:`validate_solution`, walked pair by pair: the
    reference its bulk checks must agree with, violation for violation."""
    tree = problem.tree
    policy = policy or solution.policy
    report = ValidationReport()
    placement, assignment = solution.placement, solution.assignment
    for node_id in placement:
        if not tree.is_node(node_id):
            report.record("structure", f"replica placed on unknown node {node_id!r}")
    for (client_id, server_id), _amount in assignment.items():
        if not tree.is_client(client_id):
            report.record("structure", f"assignment references unknown client {client_id!r}")
            continue
        if not tree.is_node(server_id):
            report.record("structure", f"assignment references unknown server {server_id!r}")
            continue
        if server_id not in placement:
            report.record(
                "structure",
                f"client {client_id!r} assigned to {server_id!r} which holds no replica",
            )
        if server_id not in tree.ancestors(client_id):
            report.record(
                "structure",
                f"server {server_id!r} is not an ancestor of client {client_id!r}; "
                "replicas can only serve clients of their own subtree",
            )
    totals = assignment.client_totals()
    rates = {client_id: tree.requests(client_id) for client_id in tree.client_ids}
    for client_id, requests in rates.items():
        assigned = totals.get(client_id, 0.0)
        if abs(assigned - requests) > tolerance:
            report.record(
                "coverage",
                f"client {client_id!r} issues {requests:g} requests but "
                f"{assigned:g} are assigned",
            )
    if policy.single_server:
        servers_by_client = assignment.servers_by_client()
        for client_id, requests in rates.items():
            servers = servers_by_client.get(client_id, ())
            if requests > 0 and len(servers) > 1:
                report.record(
                    "policy",
                    f"{policy.value} is a single-server policy but client "
                    f"{client_id!r} is served by {len(servers)} servers "
                    f"{sorted(map(repr, servers))}",
                )
    if policy is Policy.CLOSEST:
        forced = closest_server_map(tree, placement)
        for client_id, requests in rates.items():
            servers = servers_by_client.get(client_id, ())
            if requests <= 0 or not servers:
                continue
            expected = forced.get(client_id)
            if expected is None:
                report.record(
                    "policy",
                    f"client {client_id!r} has no replica ancestor under the "
                    "Closest policy",
                )
            elif servers[0] != expected:
                report.record(
                    "policy",
                    f"Closest policy forces client {client_id!r} onto "
                    f"{expected!r} (its lowest replica ancestor) but it is "
                    f"served by {servers[0]!r}",
                )
    for server_id, load in assignment.server_loads().items():
        if tree.is_node(server_id) and load > tree.capacity(server_id) + tolerance:
            report.record(
                "capacity",
                f"server {server_id!r} processes {load:g} requests, "
                f"capacity {tree.capacity(server_id):g}",
            )
    if problem.constraints.has_qos:
        for (client_id, server_id), amount in assignment.items():
            if amount <= tolerance or not tree.is_client(client_id):
                continue
            if not tree.is_node(server_id) or server_id not in tree.ancestors(client_id):
                continue
            if not problem.qos_satisfied(client_id, server_id):
                metric = problem.constraints.qos_metric(tree, client_id, server_id)
                report.record(
                    "qos",
                    f"client {client_id!r} served by {server_id!r} at QoS metric "
                    f"{metric:g} > bound {tree.qos(client_id):g}",
                )
    if problem.constraints.enforce_bandwidth:
        for (child, parent), flow in assignment.link_flows(tree).items():
            if flow > tree.bandwidth(child) + tolerance:
                report.record(
                    "bandwidth",
                    f"link {child!r}->{parent!r} carries {flow:g} requests, "
                    f"bandwidth {tree.bandwidth(child):g}",
                )
    return report


def _mutations(tree, solution):
    """Single defects of a valid solution: ``(name, replicas, amounts)``."""
    replicas = set(solution.placement)
    amounts = dict(solution.assignment.items())
    (client, server), amount = next(iter(amounts.items()))

    def moved(target):
        return {(c, target if (c, s) == (client, server) else s): a for (c, s), a in amounts.items()}

    elsewhere = [n for n in tree.node_ids if n not in tree.ancestors(client)]
    yield "valid", replicas, amounts
    yield "over_capacity", replicas, {**amounts, (client, server): amount + tree.capacity(server) + 1}
    yield "under_covered", replicas, {**amounts, (client, server): amount / 2}
    yield "over_covered", replicas, {**amounts, (client, server): amount + 1.0}
    root = tree.root
    if root != server:  # two servers: a policy violation unless Multiple
        split = {**amounts, (client, server): amount / 2, (client, root): amount / 2}
        yield "split", replicas | {root}, split
    yield "non_ancestor", replicas | {elsewhere[0]}, moved(elsewhere[0])
    yield "unknown_client", replicas, {**amounts, ("ghost", server): 1.0}
    yield "unknown_server", replicas | {"ghost"}, moved("ghost")
    yield "unknown_replica", replicas | {"ghost"}, amounts
    yield "no_replica", replicas - {server}, amounts


#: a heuristic that solves every seed below under each policy
_VALIDATED = {
    Policy.CLOSEST: "CTDA",
    Policy.UPWARDS: "UBCF",
    Policy.MULTIPLE: "MG",
}


@pytest.mark.parametrize("policy", list(_VALIDATED))
@pytest.mark.parametrize("constraints", ["none", "qos", "bandwidth"])
@pytest.mark.parametrize("seed", [2, 9, 13])
def test_bulk_checks_match_the_per_pair_walk(policy, constraints, seed):
    from repro.algorithms.base import get_heuristic
    from repro.core.problem import ReplicaPlacementProblem
    from repro.workloads.generator import GeneratorConfig, TreeGenerator

    tree = TreeGenerator(seed).generate(
        GeneratorConfig(
            size=45, target_load=0.3, homogeneous=False, qos_hops=(2, 5), link_bandwidth=40.0
        )
    )
    problem = ReplicaPlacementProblem(tree=tree)
    solution = get_heuristic(_VALIDATED[policy]).try_solve(problem)
    assert solution is not None
    checked = ReplicaPlacementProblem(
        tree=tree,
        constraints={
            "none": ConstraintSet.none(),
            "qos": ConstraintSet.qos_distance(),
            "bandwidth": ConstraintSet(enforce_bandwidth=True),
        }[constraints],
    )

    def outcome(check, mutated):
        # With bandwidth enforced, a pair off its client's root path makes
        # the link flows raise; both sides must raise alike.
        try:
            report = check(checked, mutated)
        except TreeStructureError as error:
            return str(error)
        return report.valid, report.violations, report.categories

    for name, replicas, amounts in _mutations(tree, solution):
        mutated = Solution(Placement(replicas), Assignment(amounts), policy, "mutated")
        found = outcome(validate_solution, mutated)
        assert found == outcome(_reference_report, mutated), name
        if name == "valid" and constraints == "none":
            assert found[0]
        elif name not in ("valid", "split"):
            assert isinstance(found, str) or not found[0], name


# --------------------------------------------------------------------------- #
# Solution.cost reads the columns
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("kind", list(ProblemKind))
def test_cost_is_the_per_node_sum_bit_for_bit(kind):
    from repro.core.builder import TreeBuilder
    from repro.core.problem import ReplicaPlacementProblem

    builder = TreeBuilder().add_node("root", capacity=30, storage_cost=0.1)
    costs = (1 / 3, 0.7, 2.5, 0.1, 1e-3, 7.0)
    for k, cost in enumerate(costs):
        builder.add_node(f"n{k}", capacity=30, storage_cost=cost, parent="root")
        builder.add_client(f"c{k}", requests=5, parent=f"n{k}")
    tree = builder.build()
    problem = ReplicaPlacementProblem(tree=tree, kind=kind)
    for replicas in ([], ["n2"], list(tree.node_ids), ["n5", "root", "n0", "n3"]):
        solution = Solution(Placement(replicas), Assignment(), Policy.MULTIPLE)
        expected = sum(problem.storage_cost(node_id) for node_id in solution.placement)
        cost = solution.cost(problem)
        assert type(cost) is type(expected)
        assert float(cost).hex() == float(expected).hex()
    ghost = Solution(Placement(["n1", "ghost"]), Assignment(), Policy.MULTIPLE)
    with pytest.raises(TreeStructureError) as per_node:
        sum(problem.storage_cost(node_id) for node_id in ghost.placement)
    with pytest.raises(TreeStructureError) as bulk:
        ghost.cost(problem)
    assert str(bulk.value) == str(per_node.value) == "unknown internal node 'ghost'"

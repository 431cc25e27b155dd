"""Objective functions and combinatorial lower bounds.

The objective of the Replica Placement problem is the total storage cost of
the chosen replicas, ``min sum_{s in R} s_s`` (paper Section 2.2.2).  This
module provides:

* :func:`placement_cost` -- the objective value of a placement under a
  problem's cost mode;
* :func:`request_lower_bound` -- the obvious Replica Counting lower bound
  ``ceil(sum_i r_i / W)`` of paper Section 3.4 (homogeneous platforms);
* :func:`capacity_cost_lower_bound` -- its Replica Cost analogue: with
  ``s_j = W_j``, every valid replica set has total capacity at least the
  total number of requests, hence cost at least ``sum_i r_i``;
* :func:`greedy_cost_lower_bound` -- a slightly sharper bound for general
  storage costs, obtained by greedily covering the request volume with the
  best cost-per-capacity nodes (a fractional knapsack argument).

These bounds are *not* tight in general -- Section 3.4 of the paper exhibits
instances whose optimal cost is arbitrarily higher -- but they are cheap and
are used as sanity checks by the tests and as a fallback when the LP-based
lower bound of :mod:`repro.lp` is not available.
"""

from __future__ import annotations

import math
from typing import Iterable

from repro.core.exceptions import TreeStructureError
from repro.core.problem import ProblemKind, ReplicaPlacementProblem
from repro.core.solution import Placement
from repro.core.tree import NodeId, TreeNetwork

__all__ = [
    "placement_cost",
    "request_lower_bound",
    "capacity_cost_lower_bound",
    "greedy_cost_lower_bound",
    "trivial_lower_bound",
]


def placement_cost(problem: ReplicaPlacementProblem, placement) -> float:
    """Total storage cost of ``placement`` under ``problem``'s cost mode.

    ``placement`` may be a :class:`~repro.core.solution.Placement` or any
    iterable of node identifiers.
    """
    if isinstance(placement, Placement):
        nodes: Iterable[NodeId] = placement.replicas
    else:
        nodes = placement
    return sum(problem.storage_costs_of(nodes))


def request_lower_bound(tree: TreeNetwork) -> int:
    """The Replica Counting lower bound ``ceil(sum_i r_i / W)``.

    Only defined on homogeneous platforms (paper Section 3.4).  A zero-load
    tree needs no replica, so the bound is 0 in that case.
    """
    if not tree.is_homogeneous():
        raise TreeStructureError(
            "request_lower_bound is the Replica Counting bound and requires a "
            "homogeneous platform"
        )
    total = tree.total_requests()
    if total <= 0:
        return 0
    capacity = tree.uniform_capacity()
    if capacity <= 0:
        raise TreeStructureError("nodes with zero capacity cannot serve any request")
    return int(math.ceil(total / capacity - 1e-12))


def capacity_cost_lower_bound(tree: TreeNetwork) -> float:
    """Replica Cost lower bound: with ``s_j = W_j`` the cost is at least ``sum r_i``."""
    return tree.total_requests()


def greedy_cost_lower_bound(problem: ReplicaPlacementProblem) -> float:
    """Fractional-knapsack lower bound for arbitrary storage costs.

    Sort nodes by increasing cost-per-capacity and cover the total request
    volume fractionally; the resulting cost can never exceed the cost of any
    valid (integral) replica set, because a valid set must provide at least
    ``sum_i r_i`` units of capacity and pays at least the cheapest possible
    rate for each unit.
    """
    total = problem.tree.total_requests()
    if total <= 0:
        return 0.0
    rated = []
    tree = problem.tree
    for node_id, capacity in zip(tree.node_ids, tree.column("capacity")):
        if capacity <= 0:
            continue
        cost = problem.storage_cost(node_id)
        rated.append((cost / capacity, capacity, cost))
    rated.sort()
    remaining = total
    bound = 0.0
    for rate, capacity, _cost in rated:
        take = min(capacity, remaining)
        bound += rate * take
        remaining -= take
        if remaining <= 1e-12:
            break
    if remaining > 1e-9:
        # Even using every node fractionally the requests cannot be covered:
        # the instance is infeasible and any "lower bound" is +inf.
        return math.inf
    return bound


def trivial_lower_bound(problem: ReplicaPlacementProblem) -> float:
    """Best combinatorial lower bound available without solving an LP.

    * Replica Counting: ``ceil(sum r_i / W)``;
    * Replica Cost: ``sum r_i``;
    * general costs: the fractional-knapsack bound.
    """
    if problem.kind is ProblemKind.REPLICA_COUNTING:
        return float(request_lower_bound(problem.tree))
    if problem.kind is ProblemKind.REPLICA_COST:
        return capacity_cost_lower_bound(problem.tree)
    return greedy_cost_lower_bound(problem)

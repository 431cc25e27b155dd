"""Optimal algorithm for the Multiple policy on homogeneous platforms.

This is the paper's main algorithmic contribution (Section 4.1, Theorem 1):
the *Replica Counting* problem with the Multiple strategy is polynomial, and
the following three-pass greedy builds an optimal replica set.

Pass 1 (Algorithm 1)
    Compute the request *flow* bottom-up; every time the flow reaching a
    node is at least the uniform capacity ``W``, place a replica there (it
    will be fully saturated) and subtract ``W`` from the flow continuing
    upwards.

Shortcut
    After Pass 1, if the residual flow at the root is zero the placement is
    complete; if it is at most ``W`` and the root is still free, a single
    extra replica at the root finishes the job.  Both cases are optimal.

Pass 2 (Algorithm 2)
    Otherwise extra, non-saturated replicas are needed.  While some flow
    still reaches the root, compute the *useful flow*
    ``uflow_j = min(flow_k : k on the path j -> root)`` of every node, place
    a replica on the free node with maximum useful flow, and subtract that
    amount from the flows of the node and all its ancestors.  If no free
    node has positive useful flow the instance is infeasible.

Pass 3 (Algorithm 3)
    Affect requests to the chosen replicas bottom-up.  We reuse the exact
    bottom-up saturating assignment of
    :func:`repro.core.feasibility.multiple_assignment`, which performs the
    same affectation as the paper's Pass 3 (serve requests as low as
    possible, splitting at most one client per server).

The optimality proof (paper Section 4.1.3) shows any optimal solution can be
transformed into the canonical solution this greedy produces.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

from repro.algorithms.base import PlacementHeuristic, register_heuristic
from repro.core.exceptions import InfeasibleError, TreeStructureError
from repro.core.feasibility import multiple_assignment
from repro.core.policies import Policy
from repro.core.problem import ReplicaPlacementProblem
from repro.core.solution import Solution
from repro.core.tree import NodeId

__all__ = ["MultipleHomogeneousOptimal", "optimal_multiple_homogeneous_placement"]

_TOL = 1e-9


def optimal_multiple_homogeneous_placement(problem: ReplicaPlacementProblem) -> set:
    """Return the optimal replica set for Multiple on a homogeneous tree.

    Raises
    ------
    TreeStructureError
        If the platform is heterogeneous.
    InfeasibleError
        If the instance has no solution (total capacity insufficient even
        when every node carries a replica).
    """
    tree = problem.tree
    if not tree.is_homogeneous():
        raise TreeStructureError(
            "the optimal three-pass algorithm only applies to homogeneous platforms"
        )
    capacity = tree.uniform_capacity()
    total_requests = tree.total_requests()
    if total_requests <= _TOL:
        return set()
    if capacity <= 0:
        raise InfeasibleError(
            "nodes have zero capacity; no request can be served", policy=Policy.MULTIPLE
        )

    # ------------------------------------------------------------------ #
    # Pass 1: saturated replicas, bottom-up flow computation.
    # ------------------------------------------------------------------ #
    flow: Dict[NodeId, float] = {}
    replicas: set = set()
    flow.update(zip(tree.client_ids, tree.column("requests")))
    for node_id in tree.post_order_nodes():
        incoming = sum(flow[child] for child in tree.children(node_id))
        if incoming >= capacity - _TOL:
            replicas.add(node_id)
            incoming -= capacity
        flow[node_id] = incoming

    root = tree.root
    root_flow = flow[root]

    # Shortcut: Pass 2 is unnecessary when the root can absorb the residue.
    if root_flow <= _TOL:
        return replicas
    if root_flow <= capacity + _TOL and root not in replicas:
        replicas.add(root)
        return replicas

    # ------------------------------------------------------------------ #
    # Pass 2: extra (non saturated) replicas chosen by maximum useful flow.
    # ------------------------------------------------------------------ #
    while flow[root] > _TOL:
        free_nodes = [nid for nid in tree.node_ids if nid not in replicas]
        if not free_nodes:
            raise InfeasibleError(
                "all nodes already hold a replica but requests remain unserved",
                policy=Policy.MULTIPLE,
            )
        # Useful flow: top-down minimum of flows along the path to the root.
        uflow: Dict[NodeId, float] = {root: flow[root]}
        for node_id in tree.breadth_first_nodes():
            if node_id == root:
                continue
            parent = tree.parent(node_id)
            uflow[node_id] = min(flow[node_id], uflow[parent])

        best_node: Optional[NodeId] = None
        best_value = 0.0
        for node_id in free_nodes:
            value = uflow[node_id]
            if value <= _TOL:
                continue
            better = value > best_value + _TOL
            tie = (
                best_node is not None
                and abs(value - best_value) <= _TOL
                and repr(node_id) < repr(best_node)
            )
            if better or tie:
                best_node, best_value = node_id, value
        if best_node is None or best_value <= _TOL:
            raise InfeasibleError(
                "no free node can absorb the remaining requests "
                f"({flow[root]:g} still reach the root)",
                policy=Policy.MULTIPLE,
            )

        replicas.add(best_node)
        amount = min(best_value, capacity)
        for node_id in (best_node,) + tree.ancestors(best_node):
            flow[node_id] -= amount

    return replicas


@register_heuristic
class MultipleHomogeneousOptimal(PlacementHeuristic):
    """Paper Section 4.1: optimal Multiple placement on homogeneous trees.

    The heuristic interface is shared with the polynomial heuristics so the
    experiment harness can include the optimal algorithm as a baseline on
    homogeneous campaigns.
    """

    name = "MultipleOptimalHomogeneous"
    policy = Policy.MULTIPLE

    def _solve(self, problem: ReplicaPlacementProblem) -> Optional[Solution]:
        replicas = optimal_multiple_homogeneous_placement(problem)
        solution = multiple_assignment(problem, replicas)
        return Solution(
            placement=solution.placement,
            assignment=solution.assignment,
            policy=Policy.MULTIPLE,
            algorithm=self.name,
            metadata={"passes": 3},
        )

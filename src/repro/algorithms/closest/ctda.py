"""Closest Top Down All (CTDA) -- paper Section 6.1, Algorithm 4.

The tree is traversed breadth-first from the root.  Every node that can
process *all* the requests still pending in its subtree is turned into a
replica; its subtree is then never explored again (those requests are
captured, as the Closest policy dictates).  The traversal is repeated until
a full pass adds no replica, because covering a subtree lowers the pending
load (``inreq``) of every ancestor and may make previously overloaded nodes
eligible.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.algorithms.base import PlacementHeuristic, register_heuristic
from repro.algorithms.common import make_state
from repro.core.policies import Policy
from repro.core.problem import ReplicaPlacementProblem
from repro.core.solution import Solution

__all__ = ["ClosestTopDownAll"]


@register_heuristic
class ClosestTopDownAll(PlacementHeuristic):
    """Breadth-first sweeps placing every eligible replica per sweep."""

    name = "CTDA"
    policy = Policy.CLOSEST

    def _solve(self, problem: ReplicaPlacementProblem) -> Optional[Solution]:
        state = make_state(problem)
        tree = problem.tree
        passes = 0

        while True:
            passes += 1
            added = False
            fifo = deque([tree.root])
            while fifo:
                node_id = fifo.popleft()
                if state.is_replica(node_id):
                    # The subtree is fully captured; never look below a replica.
                    continue
                if state.can_cover(node_id):
                    state.place(node_id)
                    state.cover(node_id)
                    added = True
                else:
                    fifo.extend(tree.child_nodes(node_id))
            if not added:
                break

        if not state.all_requests_affected():
            return None
        return state.to_solution(self.policy, self.name, passes=passes)

"""Upwards Big Client First (UBCF) -- paper Section 6.2, Algorithm 9.

Clients are processed in non-increasing order of their request count.  Each
client is affected, whole, to the ancestor with the *minimal residual
capacity* among those that can still host all its requests (a best-fit rule
along the client-to-root path); that ancestor becomes a replica if it was
not one already.  The heuristic fails as soon as a client has no valid
ancestor left.

This is the only heuristic of the paper that reasons client-by-client rather
than node-by-node; the paper observes it finds solutions more often than the
other single-server heuristics.
"""

from __future__ import annotations

from typing import Optional

from repro.algorithms.base import PlacementHeuristic, register_heuristic
from repro.algorithms.common import make_state
from repro.core.policies import Policy
from repro.core.problem import ReplicaPlacementProblem
from repro.core.solution import Solution

__all__ = ["UpwardsBigClientFirst"]


@register_heuristic
class UpwardsBigClientFirst(PlacementHeuristic):
    """Best-fit affectation of whole clients, largest clients first."""

    name = "UBCF"
    policy = Policy.UPWARDS

    def _solve(self, problem: ReplicaPlacementProblem) -> Optional[Solution]:
        state = make_state(problem)
        tree = problem.tree

        clients = sorted(
            (row for row in zip(tree.client_ids, tree.column("requests")) if row[1] > 0),
            key=lambda row: (-row[1], repr(row[0])),
        )
        for client_id, requests in clients:
            # Best fit along the client's eligible ancestor chain (the rule
            # lives on the state so the native engine can walk the chain in
            # C; see RequestState.best_fit_server for the tie-breaking).
            target = state.best_fit_server(client_id, requests)
            if target is None:
                return None
            state.place(target)
            state.assign(client_id, target, requests)

        return state.to_solution(self.policy, self.name)

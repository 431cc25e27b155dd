"""Multiple Greedy (MG) -- paper Section 6.3.

A bottom-up saturating affectation in the spirit of Pass 3 of the optimal
homogeneous algorithm: internal nodes are processed children-first; each
node serves as many still-pending requests of its subtree as its capacity
allows (splitting clients freely) and becomes a replica whenever it serves
at least one request.

Serving requests as low as possible never hurts feasibility (whatever a node
can serve, each of its ancestors could also serve), so MG finds a solution
whenever the instance admits one under the Multiple policy -- the property
the paper relies on for the MixedBest combiner.  Its cost can however be far
from optimal on heterogeneous platforms, since cheap low nodes are greedily
used regardless of the cost structure.

The post-order loop is an engine method,
:meth:`RequestState.greedy_sweep`: the dict engine runs it in Python,
the native engine as one ``sweep_greedy`` kernel call (per-pair QoS
predicates of non-monotone constraint subclasses keep the Python loop).
"""

from __future__ import annotations

from typing import Optional

from repro.algorithms.base import PlacementHeuristic, register_heuristic
from repro.algorithms.common import make_state
from repro.core.policies import Policy
from repro.core.problem import ReplicaPlacementProblem
from repro.core.solution import Solution

__all__ = ["MultipleGreedy"]


@register_heuristic
class MultipleGreedy(PlacementHeuristic):
    """Bottom-up saturating greedy; complete for the Multiple policy."""

    name = "MG"
    policy = Policy.MULTIPLE

    def _solve(self, problem: ReplicaPlacementProblem) -> Optional[Solution]:
        state = make_state(problem)
        state.greedy_sweep()
        if not state.all_requests_affected():
            return None
        return state.to_solution(self.policy, self.name)

"""The per-policy heuristic portfolio behind every full solve.

One epoch solve picks the best answer from a small, fixed portfolio of the
paper's heuristics (plus the provably-optimal algorithm for Multiple on
homogeneous platforms).  The logic used to live inside
:func:`repro.api.solve`; it is a free-standing function so that both the
session layer (:class:`repro.session.PlacementSession`) and the incremental
re-solver (:class:`repro.algorithms.incremental.IncrementalResolver`) can
run it directly without routing through the public API shims -- results are
identical whichever entry point is used.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple, Union

from repro.core.exceptions import InfeasibleError
from repro.core.policies import Policy
from repro.core.problem import ReplicaPlacementProblem
from repro.core.solution import Solution

__all__ = ["DEFAULT_PORTFOLIO", "portfolio_solve"]

#: Heuristics tried (in order) per policy when no explicit algorithm is given.
DEFAULT_PORTFOLIO: Dict[Policy, Tuple[str, ...]] = {
    Policy.CLOSEST: ("CTDA", "CTDLF", "CBU"),
    Policy.UPWARDS: ("UBCF", "UTD"),
    Policy.MULTIPLE: ("MTD", "MBU", "MG"),
}


def portfolio_solve(
    problem: ReplicaPlacementProblem,
    *,
    policy: Union[Policy, str] = Policy.MULTIPLE,
    algorithm: Optional[str] = None,
) -> Solution:
    """Solve one fully-specified instance under ``policy``.

    With an explicit ``algorithm``, that heuristic runs alone (and raises
    whatever it raises on failure).  Otherwise the policy's portfolio runs
    and the cheapest valid solution wins; for Multiple on homogeneous
    platforms the paper's optimal algorithm is tried first and, when it
    succeeds and storage costs are uniform too (Replica Counting, where
    Theorem 1 proves it optimal), returned without consulting the
    heuristics.

    Raises
    ------
    InfeasibleError
        When no algorithm produces a valid solution.
    """
    from repro.algorithms.base import get_heuristic

    policy = Policy.parse(policy)
    if algorithm is not None:
        return get_heuristic(algorithm).solve(problem)

    candidates = list(DEFAULT_PORTFOLIO[policy])
    optimal = False
    if policy is Policy.MULTIPLE and problem.is_homogeneous:
        candidates = ["MultipleOptimalHomogeneous"] + candidates
        # Theorem 1 covers Replica Counting: uniform capacities *and*
        # uniform storage costs.  With mixed storage costs the fewest
        # replicas need not be the cheapest, so the heuristics still run.
        optimal = len(set(problem.storage_costs().values())) <= 1

    best: Optional[Solution] = None
    best_cost = math.inf
    for name in candidates:
        candidate = get_heuristic(name).try_solve(problem)
        if candidate is None:
            continue
        cost = candidate.cost(problem)
        if cost < best_cost:
            best, best_cost = candidate, cost
        if optimal and name == "MultipleOptimalHomogeneous":
            # Provably optimal: no need to try the heuristics.
            break
    if best is None:
        raise InfeasibleError(
            f"no valid solution found under the {policy.value} policy", policy=policy
        )
    return best

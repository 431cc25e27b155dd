"""QoS reachability analysis and per-solution QoS statistics.

The paper's QoS constraint bounds the distance (hop count) or latency
between a client and each of its servers.  These helpers answer the
questions that come up when adding QoS to an instance:

* which servers can serve a client at all (:func:`reachable_servers`);
* how tight a QoS bound the platform could sustain for a client
  (:func:`tightest_feasible_qos`);
* whether an instance is trivially QoS-infeasible before running any solver
  (:func:`qos_feasibility_report`);
* how far from their bounds the clients of a solved instance actually are
  (:func:`qos_statistics`), which the examples use to contrast the Closest
  and Upwards policies (Upwards serves farther away by design).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.constraints import ConstraintSet, QoSMode
from repro.core.problem import ReplicaPlacementProblem
from repro.core.solution import Solution
from repro.core.tree import NodeId, TreeNetwork

__all__ = [
    "reachable_servers",
    "tightest_feasible_qos",
    "qos_feasibility_report",
    "qos_statistics",
    "QoSReport",
]


def reachable_servers(
    tree: TreeNetwork,
    client_id: NodeId,
    bound: Optional[float] = None,
    *,
    mode: QoSMode = QoSMode.DISTANCE,
) -> Tuple[NodeId, ...]:
    """Ancestors of ``client_id`` within the QoS bound, closest first.

    ``bound`` defaults to the client's own declared QoS bound.
    """
    constraints = ConstraintSet(qos_mode=mode)
    if bound is None:
        bound = tree.qos(client_id)
    return tuple(
        ancestor
        for ancestor in tree.ancestors(client_id)
        if constraints.qos_metric(tree, client_id, ancestor) <= bound
    )


def tightest_feasible_qos(
    tree: TreeNetwork, client_id: NodeId, *, mode: QoSMode = QoSMode.DISTANCE
) -> float:
    """Smallest QoS bound for which ``client_id`` still has a possible server.

    This is simply the metric to the client's parent (its closest candidate
    server); requesting anything smaller makes the instance infeasible
    regardless of the placement.
    """
    constraints = ConstraintSet(qos_mode=mode)
    parent = tree.parent(client_id)
    if parent is None:  # pragma: no cover - clients always have parents
        return math.inf
    return constraints.qos_metric(tree, client_id, parent)


@dataclass
class QoSReport:
    """Outcome of :func:`qos_feasibility_report`."""

    feasible: bool
    unreachable_clients: List[NodeId]
    tight_clients: List[NodeId]

    def __bool__(self) -> bool:
        return self.feasible


def qos_feasibility_report(problem: ReplicaPlacementProblem) -> QoSReport:
    """Cheap pre-check of QoS feasibility.

    A client whose QoS bound excludes *every* ancestor can never be served,
    whatever the placement; a client whose bound only admits its parent is
    flagged as *tight* (it pins a replica to that exact node).
    """
    tree = problem.tree
    unreachable: List[NodeId] = []
    tight: List[NodeId] = []
    if not problem.constraints.has_qos:
        return QoSReport(feasible=True, unreachable_clients=[], tight_clients=[])
    for client_id, requests in zip(tree.client_ids, tree.column("requests")):
        if requests <= 0:
            continue
        eligible = problem.eligible_servers(client_id)
        if not eligible:
            unreachable.append(client_id)
        elif len(eligible) == 1:
            tight.append(client_id)
    return QoSReport(
        feasible=not unreachable,
        unreachable_clients=unreachable,
        tight_clients=tight,
    )


def qos_statistics(
    problem: ReplicaPlacementProblem, solution: Solution
) -> Dict[str, float]:
    """Distance/latency statistics of a solved instance.

    Returns the mean and maximum QoS metric over every served request and
    the worst slack (bound minus metric; negative would mean a violation).
    Useful to quantify the price of the Upwards/Multiple policies: they may
    serve requests farther from the clients than Closest does.
    """
    tree = problem.tree
    constraints = problem.constraints
    mode = constraints.qos_mode if constraints.has_qos else QoSMode.DISTANCE
    metric_constraints = ConstraintSet(qos_mode=mode)

    total_weighted = 0.0
    total_requests = 0.0
    worst = 0.0
    worst_slack = math.inf
    for (client_id, server_id), amount in solution.assignment.items():
        metric = metric_constraints.qos_metric(tree, client_id, server_id)
        total_weighted += metric * amount
        total_requests += amount
        worst = max(worst, metric)
        bound = tree.qos(client_id)
        if math.isfinite(bound):
            worst_slack = min(worst_slack, bound - metric)
    mean = total_weighted / total_requests if total_requests > 0 else 0.0
    return {
        "mean_metric": mean,
        "max_metric": worst,
        "worst_slack": worst_slack if math.isfinite(worst_slack) else math.inf,
        "served_requests": total_requests,
    }

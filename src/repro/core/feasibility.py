"""Deriving request assignments from a bare replica placement.

The heuristics of :mod:`repro.algorithms` build an explicit assignment while
they run, but several other parts of the package (the exhaustive optimum
search, the policy-comparison utilities, the analysis module) only
manipulate *placements* -- sets of replica nodes -- and need to answer the
question "does this placement admit a valid assignment under policy P, and
if so produce one?".

The answer has very different complexity per policy:

* **Closest** -- the assignment is forced (every client goes to its lowest
  replica ancestor); feasibility is a deterministic capacity check.
* **Multiple** -- feasibility is a transportation problem on a laminar
  family; *without QoS* a bottom-up saturating greedy decides it exactly
  (serving requests as low as possible can always be exchanged upwards),
  which is what :func:`multiple_assignment` implements.  With QoS the same
  greedy is used with an earliest-deadline-first tie-break (clients with the
  fewest remaining eligible ancestors are served first); it is exact when
  capacities are uniform along each path and a good heuristic otherwise.
* **Upwards** -- deciding feasibility of a placement is NP-hard (it embeds
  bin packing); :func:`upwards_assignment` offers a best-fit-decreasing
  heuristic and an optional exact backtracking search for small instances.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.exceptions import InfeasibleError
from repro.core.policies import Policy
from repro.core.problem import ReplicaPlacementProblem
from repro.core.solution import Assignment, Placement, Solution
from repro.core.tree import NodeId
from repro.core.validation import closest_server_map

__all__ = [
    "closest_assignment",
    "multiple_assignment",
    "upwards_assignment",
    "assignment_for_placement",
    "placement_is_feasible",
]

_TOL = 1e-9


def closest_assignment(
    problem: ReplicaPlacementProblem, placement: Iterable[NodeId]
) -> Solution:
    """Forced assignment of the *Closest* policy for a given placement.

    Raises
    ------
    InfeasibleError
        If some client has no replica ancestor, a QoS bound is violated, a
        server capacity is exceeded, or a link bandwidth is exceeded.
    """
    tree = problem.tree
    placement = Placement(placement)
    servers = closest_server_map(tree, placement)

    amounts: Dict[Tuple[NodeId, NodeId], float] = {}
    loads: Dict[NodeId, float] = {}
    for client_id, requests in zip(tree.client_ids, tree.column("requests")):
        if requests <= 0:
            continue
        server = servers.get(client_id)
        if server is None:
            raise InfeasibleError(
                f"client {client_id!r} has no replica ancestor", policy=Policy.CLOSEST
            )
        if not problem.qos_satisfied(client_id, server):
            raise InfeasibleError(
                f"Closest forces client {client_id!r} onto {server!r}, violating its QoS bound",
                policy=Policy.CLOSEST,
            )
        amounts[(client_id, server)] = requests
        loads[server] = loads.get(server, 0.0) + requests

    for server, load in loads.items():
        if load > problem.capacity(server) + _TOL:
            raise InfeasibleError(
                f"Closest overloads server {server!r} ({load:g} > {problem.capacity(server):g})",
                policy=Policy.CLOSEST,
            )

    assignment = Assignment(amounts)
    _check_bandwidth(problem, assignment)
    return Solution(
        placement=placement,
        assignment=assignment,
        policy=Policy.CLOSEST,
        algorithm="closest-forced-assignment",
    )


def multiple_assignment(
    problem: ReplicaPlacementProblem, placement: Iterable[NodeId]
) -> Solution:
    """Bottom-up saturating assignment for the *Multiple* policy.

    Internal nodes are processed in post-order (children before parents);
    each replica serves as many still-unserved requests from its subtree as
    its capacity allows, preferring clients whose QoS bound leaves the fewest
    eligible ancestors above the current node.  Without QoS this greedy is
    exact: a placement is Multiple-feasible if and only if it succeeds.

    Raises
    ------
    InfeasibleError
        If requests remain unserved after the root has been processed.
    """
    tree = problem.tree
    placement = Placement(placement)
    replicas = set(placement.replicas)

    unserved: Dict[NodeId, float] = {
        cid: rate for cid, rate in zip(tree.client_ids, tree.column("requests")) if rate > 0
    }
    # Eligible ancestors (respecting QoS) of every client, bottom-up.
    eligible: Dict[NodeId, Tuple[NodeId, ...]] = {
        cid: problem.eligible_servers(cid) for cid in unserved
    }

    amounts: Dict[Tuple[NodeId, NodeId], float] = {}
    for node_id in tree.post_order_nodes():
        if node_id not in replicas:
            continue
        capacity = problem.capacity(node_id)
        if capacity <= 0:
            continue
        candidates: List[Tuple[int, NodeId]] = []
        for client_id in tree.subtree_clients(node_id):
            remaining = unserved.get(client_id, 0.0)
            if remaining <= _TOL:
                continue
            chain = eligible[client_id]
            if node_id not in chain:
                continue
            # Number of eligible replica ancestors strictly above this node:
            # the fewer there are, the more urgent it is to serve the client
            # here (earliest-deadline-first).
            position = chain.index(node_id)
            slack = sum(1 for anc in chain[position + 1:] if anc in replicas)
            candidates.append((slack, client_id))
        candidates.sort(key=lambda item: (item[0], repr(item[1])))

        available = capacity
        for _slack, client_id in candidates:
            if available <= _TOL:
                break
            take = min(available, unserved[client_id])
            if take <= _TOL:
                continue
            amounts[(client_id, node_id)] = amounts.get((client_id, node_id), 0.0) + take
            unserved[client_id] -= take
            available -= take

    leftover = {cid: rem for cid, rem in unserved.items() if rem > 1e-6}
    if leftover:
        raise InfeasibleError(
            "placement cannot absorb all requests under the Multiple policy; "
            f"unserved: {sorted((repr(c), round(v, 3)) for c, v in leftover.items())}",
            policy=Policy.MULTIPLE,
        )

    assignment = Assignment(amounts)
    _check_bandwidth(problem, assignment)
    return Solution(
        placement=placement,
        assignment=assignment,
        policy=Policy.MULTIPLE,
        algorithm="multiple-greedy-assignment",
    )


def upwards_assignment(
    problem: ReplicaPlacementProblem,
    placement: Iterable[NodeId],
    *,
    exact: bool = False,
    exact_limit: int = 12,
) -> Solution:
    """Single-server assignment of whole clients to replicas (*Upwards* policy).

    A best-fit-decreasing heuristic is used by default: clients are taken in
    non-increasing request order and assigned to the eligible replica
    ancestor with the smallest residual capacity that still fits them.  When
    ``exact`` is ``True`` and the instance has at most ``exact_limit``
    clients, an exhaustive backtracking search is run instead, so a failure
    proves the placement infeasible.

    Raises
    ------
    InfeasibleError
        When no assignment is found (which, in heuristic mode, does not
        prove infeasibility).
    """
    tree = problem.tree
    placement = Placement(placement)
    replicas = set(placement.replicas)

    clients = [c for c in tree.clients() if c.requests > 0]
    options: Dict[NodeId, Tuple[NodeId, ...]] = {}
    for client in clients:
        elig = tuple(a for a in problem.eligible_servers(client.id) if a in replicas)
        if not elig:
            raise InfeasibleError(
                f"client {client.id!r} has no eligible replica ancestor",
                policy=Policy.UPWARDS,
            )
        options[client.id] = elig

    if exact and len(clients) <= exact_limit:
        servers = _upwards_exact(problem, clients, options)
    else:
        servers = _upwards_best_fit(problem, clients, options)

    if servers is None:
        raise InfeasibleError(
            "no single-server assignment found for the given placement",
            policy=Policy.UPWARDS,
        )

    assignment = Assignment.single_server(servers, tree)
    _check_bandwidth(problem, assignment)
    return Solution(
        placement=placement,
        assignment=assignment,
        policy=Policy.UPWARDS,
        algorithm="upwards-best-fit" if not exact else "upwards-exact",
    )


def _upwards_best_fit(problem, clients, options) -> Optional[Dict[NodeId, NodeId]]:
    residual = {nid: problem.capacity(nid) for nid in problem.tree.node_ids}
    servers: Dict[NodeId, NodeId] = {}
    for client in sorted(clients, key=lambda c: (-c.requests, repr(c.id))):
        best = None
        best_slack = None
        for candidate in options[client.id]:
            slack = residual[candidate] - client.requests
            if slack < -_TOL:
                continue
            if best_slack is None or slack < best_slack:
                best, best_slack = candidate, slack
        if best is None:
            return None
        residual[best] -= client.requests
        servers[client.id] = best
    return servers


def _upwards_exact(problem, clients, options) -> Optional[Dict[NodeId, NodeId]]:
    """Backtracking search over single-server assignments (small instances)."""
    ordered = sorted(clients, key=lambda c: (-c.requests, repr(c.id)))
    residual = {nid: problem.capacity(nid) for nid in problem.tree.node_ids}
    servers: Dict[NodeId, NodeId] = {}

    def backtrack(index: int) -> bool:
        if index == len(ordered):
            return True
        client = ordered[index]
        # Try candidates in increasing residual order to fail fast.
        candidates = sorted(options[client.id], key=lambda nid: residual[nid])
        for candidate in candidates:
            if residual[candidate] + _TOL < client.requests:
                continue
            residual[candidate] -= client.requests
            servers[client.id] = candidate
            if backtrack(index + 1):
                return True
            residual[candidate] += client.requests
            del servers[client.id]
        return False

    return servers if backtrack(0) else None


def assignment_for_placement(
    problem: ReplicaPlacementProblem,
    placement: Iterable[NodeId],
    policy: Policy,
    **kwargs,
) -> Solution:
    """Dispatch to the per-policy assignment builder."""
    policy = Policy.parse(policy)
    if policy is Policy.CLOSEST:
        return closest_assignment(problem, placement)
    if policy is Policy.UPWARDS:
        return upwards_assignment(problem, placement, **kwargs)
    return multiple_assignment(problem, placement)


def placement_is_feasible(
    problem: ReplicaPlacementProblem,
    placement: Iterable[NodeId],
    policy: Policy,
    **kwargs,
) -> bool:
    """``True`` when an assignment could be derived for the placement.

    For the Upwards policy in heuristic mode a ``False`` answer is
    conservative (the placement might still be feasible).
    """
    try:
        assignment_for_placement(problem, placement, policy, **kwargs)
    except InfeasibleError:
        return False
    return True


def _check_bandwidth(problem: ReplicaPlacementProblem, assignment: Assignment) -> None:
    """Raise when the assignment exceeds an enforced link bandwidth."""
    if not problem.constraints.enforce_bandwidth:
        return
    tree = problem.tree
    for (child, _parent), flow in assignment.link_flows(tree).items():
        bandwidth = tree.bandwidth(child)
        if flow > bandwidth + 1e-6:
            raise InfeasibleError(
                f"link {child!r} upwards carries {flow:g} requests, bandwidth {bandwidth:g}"
            )

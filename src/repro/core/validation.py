"""Constraint checking for replica-placement solutions.

:func:`validate_solution` performs the full battery of checks a solution
must satisfy (paper Section 2.2.1 plus the access-policy semantics of
Section 3):

1. **structure** -- assigned servers are internal nodes of the tree, carry a
   replica, and lie on the client-to-root path of the clients they serve;
2. **coverage** -- every client has all of its ``r_i`` requests assigned;
3. **policy** -- single-server policies assign exactly one server per client,
   and *Closest* additionally forces that server to be the lowest replica
   ancestor of the client;
4. **server capacity** -- no replica processes more than ``W_j`` requests;
5. **QoS** -- every (client, server) pair with positive traffic respects the
   client's QoS bound (when the problem enforces QoS);
6. **link capacity** -- the flow through every link stays within its
   bandwidth (when the problem enforces bandwidth).

The result is a :class:`ValidationReport` collecting every violation found
(rather than stopping at the first one), which the tests and the experiment
harness rely on for diagnostics.

Structure, coverage and server capacities are checked in bulk first, over
the tree's columns: the upward check lifts every client ``depth[c] -
depth[s]`` parents, and ``np.bincount`` adds the client totals and server
loads in assignment order, the order of the per-pair sums.  Only a check
that fails in bulk walks the pairs, to name every violation in order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from operator import itemgetter
from typing import List, Optional, Tuple

import numpy as np

from repro.core.exceptions import InfeasibleError
from repro.core.policies import Policy
from repro.core.problem import ReplicaPlacementProblem
from repro.core.solution import Solution
from repro.core.tree import _ABSENT, NodeId, _view

__all__ = ["ValidationReport", "validate_solution", "closest_server_map"]

#: Numerical tolerance used when comparing request amounts and capacities.
TOLERANCE = 1e-6


@dataclass
class ValidationReport:
    """Outcome of :func:`validate_solution`.

    Attributes
    ----------
    valid:
        ``True`` when no violation was found.
    violations:
        Human-readable description of every violation.
    categories:
        The distinct categories of violations found (``"structure"``,
        ``"coverage"``, ``"policy"``, ``"capacity"``, ``"qos"``,
        ``"bandwidth"``).
    """

    valid: bool = True
    violations: List[str] = field(default_factory=list)
    categories: List[str] = field(default_factory=list)

    def record(self, category: str, message: str) -> None:
        """Register a violation."""
        self.valid = False
        self.violations.append(f"[{category}] {message}")
        if category not in self.categories:
            self.categories.append(category)

    def raise_if_invalid(self) -> None:
        """Raise :class:`~repro.core.exceptions.InfeasibleError` when invalid."""
        if not self.valid:
            raise InfeasibleError(
                "solution fails validation:\n  " + "\n  ".join(self.violations)
            )

    def __bool__(self) -> bool:
        return self.valid

    def __repr__(self) -> str:
        status = "valid" if self.valid else f"INVALID ({len(self.violations)} violations)"
        return f"ValidationReport({status})"


def closest_server_map(tree, placement) -> dict:
    """Map every client to its lowest replica ancestor (the *Closest* server).

    Clients with no replica ancestor are absent from the result.
    """
    replicas = set(placement)
    servers = {}
    for client_id in tree.client_ids:
        for ancestor in tree.ancestors(client_id):
            if ancestor in replicas:
                servers[client_id] = ancestor
                break
    return servers


def _upward_columns(tree, amounts: dict):
    """``(client slots, server positions, amounts)`` of an assignment whose
    every pair names a client and one of its ancestors, else ``None``.

    Each client climbs ``depth[c] - depth[s]`` parents on the store's
    columns, one numpy step per level, and must land on its server.
    """
    store, n = tree._store, len(amounts)
    clients = np.fromiter(map(store.pos.get, map(itemgetter(0), amounts), repeat(-1)), np.int64, n)
    servers = np.fromiter(map(store.pos.get, map(itemgetter(1), amounts), repeat(_ABSENT)), np.int64, n)
    if n and (clients.min() < store.n_nodes or servers.max() >= store.n_nodes):
        return None
    parent, depth = _view(store.parent), _view(store.depth)
    lift = depth[clients] - depth[servers]
    at = clients
    for step in range(int(lift.max(initial=0))):
        at = np.where(lift > step, parent[at], at)
    if not np.array_equal(at, servers):
        return None
    return clients - store.n_nodes, servers, np.fromiter(amounts.values(), np.float64, n)


def validate_solution(
    problem: ReplicaPlacementProblem,
    solution: Solution,
    *,
    policy: Optional[Policy] = None,
    tolerance: float = TOLERANCE,
) -> ValidationReport:
    """Check ``solution`` against every constraint of ``problem``.

    Parameters
    ----------
    problem:
        The problem instance (tree, constraints, cost mode).
    solution:
        The candidate solution.
    policy:
        Policy whose semantics must be enforced; defaults to
        ``solution.policy``.
    tolerance:
        Numerical slack for amount comparisons.
    """
    tree = problem.tree
    policy = policy or solution.policy
    report = ValidationReport()
    placement = solution.placement
    assignment = solution.assignment

    # ------------------------------------------------------------------ #
    # 1. structural checks
    # ------------------------------------------------------------------ #
    store = tree._store
    if max(map(store.pos.get, placement, repeat(_ABSENT)), default=0) >= store.n_nodes:
        for node_id in placement:
            if not tree.is_node(node_id):
                report.record("structure", f"replica placed on unknown node {node_id!r}")

    # A sound assignment passes in bulk; only a faulty one is walked pair
    # by pair, to name every defect in order.
    amounts = assignment._amounts
    columns = _upward_columns(tree, amounts)
    sound = columns is not None and placement.replicas.issuperset(
        map(itemgetter(1), amounts)
    )
    for client_id, server_id in () if sound else list(amounts):
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

    # Bulk verdicts of the coverage and capacity checks; a check that fails
    # (or an assignment that is not upward) walks the pairs below.
    covered = within = False
    if columns is not None:
        slots, servers, values = columns
        totals = np.bincount(slots, weights=values, minlength=len(store.ids) - store.n_nodes)
        covered = not (np.abs(totals - _view(tree._requests)) > tolerance).any()
        loads = np.bincount(servers, weights=values, minlength=store.n_nodes)
        within = not (loads > _view(store.capacity) + tolerance).any()

    # ------------------------------------------------------------------ #
    # 2. coverage
    # ------------------------------------------------------------------ #
    # Clients in breadth-first order, with their rates read from the
    # tree's columns.
    client_ids, rates = tree.client_ids, tree.column("requests")
    client_totals = {} if covered else assignment.client_totals()
    for client_id, requests in () if covered else zip(client_ids, rates):
        assigned = client_totals.get(client_id, 0.0)
        if abs(assigned - requests) > tolerance:
            report.record(
                "coverage",
                f"client {client_id!r} issues {requests:g} requests but "
                f"{assigned:g} are assigned",
            )

    # ------------------------------------------------------------------ #
    # 3. access-policy semantics
    # ------------------------------------------------------------------ #
    if policy.single_server:  # Closest included
        servers_by_client = assignment.servers_by_client()
        for client_id, requests in zip(client_ids, rates):
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
        for client_id, requests in zip(client_ids, rates):
            if requests <= 0:
                continue
            servers = servers_by_client.get(client_id, ())
            if not servers:
                continue  # already reported as a coverage violation
            expected = forced.get(client_id)
            actual = servers[0]
            if expected is None:
                report.record(
                    "policy",
                    f"client {client_id!r} has no replica ancestor under the "
                    "Closest policy",
                )
            elif actual != expected:
                report.record(
                    "policy",
                    f"Closest policy forces client {client_id!r} onto "
                    f"{expected!r} (its lowest replica ancestor) but it is "
                    f"served by {actual!r}",
                )

    # ------------------------------------------------------------------ #
    # 4. server capacities
    # ------------------------------------------------------------------ #
    for server_id, load in () if within else assignment.server_loads().items():
        if not tree.is_node(server_id):
            continue  # structural violation already recorded
        capacity = problem.capacity(server_id)
        if load > capacity + tolerance:
            report.record(
                "capacity",
                f"server {server_id!r} processes {load:g} requests, capacity {capacity:g}",
            )

    # ------------------------------------------------------------------ #
    # 5. QoS
    # ------------------------------------------------------------------ #
    if problem.constraints.has_qos:
        for (client_id, server_id), amount in assignment.items():
            if amount <= tolerance:
                continue
            if not tree.is_client(client_id) or not tree.is_node(server_id):
                continue
            if server_id not in tree.ancestors(client_id):
                continue
            if not problem.qos_satisfied(client_id, server_id):
                metric = problem.constraints.qos_metric(tree, client_id, server_id)
                report.record(
                    "qos",
                    f"client {client_id!r} served by {server_id!r} at QoS metric "
                    f"{metric:g} > bound {tree.qos(client_id):g}",
                )

    # ------------------------------------------------------------------ #
    # 6. link capacities
    # ------------------------------------------------------------------ #
    if problem.constraints.enforce_bandwidth:
        flows = assignment.link_flows(tree)
        for (child, parent), flow in flows.items():
            bandwidth = tree.bandwidth(child)
            if flow > bandwidth + tolerance:
                report.record(
                    "bandwidth",
                    f"link {child!r}->{parent!r} carries {flow:g} requests, "
                    f"bandwidth {bandwidth:g}",
                )

    return report

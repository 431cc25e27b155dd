"""Data model of the multi-object Replica Placement problem (Section 8.1).

Compared to the single-object problem:

* there is a set of object types ``k``; client ``i`` issues ``r_i^(k)``
  requests for object ``k`` (possibly zero);
* a node may hold replicas of several objects; serving a request of type
  ``k`` requires a replica of type ``k`` on the serving node;
* the processing capacity ``W_j`` of a node is shared by all the requests it
  serves, whatever their type (the paper's "sum on all the object types");
* the storage cost is paid per (node, object) replica, and may depend on the
  object (e.g. proportional to the object size);
* the objective is the total storage cost over all replicas of all types.

Only the Multiple access policy is modelled for several objects (the paper
notes all three policies extend naturally; Multiple is the one its
experiments would use, and it keeps the feasibility story identical to the
single-object case per object type).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.core.exceptions import ReproError, TreeStructureError
from repro.core.tree import NodeId, TreeNetwork

__all__ = [
    "ObjectType",
    "MultiObjectProblem",
    "MultiObjectSolution",
    "validate_multi_object_solution",
]

_TOL = 1e-6


@dataclass(frozen=True)
class ObjectType:
    """One replicated object type.

    ``size`` scales the storage cost of its replicas: placing a replica of
    object ``k`` on node ``j`` costs ``size_k * s_j`` by default.
    """

    id: str
    size: float = 1.0

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ReproError(f"object {self.id!r} must have a positive size")


class MultiObjectProblem:
    """A multi-object Replica Placement instance.

    Parameters
    ----------
    tree:
        The distribution tree.
    objects:
        The object types.
    requests:
        Mapping ``(client_id, object_id) -> requests per time unit``;
        missing pairs mean zero requests.
    storage_costs:
        Optional mapping ``(node_id, object_id) -> cost`` overriding the
        default ``object.size * node.storage_cost``.
    """

    def __init__(
        self,
        tree: TreeNetwork,
        objects: Iterable[ObjectType],
        requests: Mapping[Tuple[NodeId, str], float],
        *,
        storage_costs: Optional[Mapping[Tuple[NodeId, str], float]] = None,
    ) -> None:
        self.tree = tree
        self.objects: Dict[str, ObjectType] = {}
        for obj in objects:
            if obj.id in self.objects:
                raise ReproError(f"duplicate object type {obj.id!r}")
            self.objects[obj.id] = obj
        if not self.objects:
            raise ReproError("a multi-object instance needs at least one object type")

        self.requests: Dict[Tuple[NodeId, str], float] = {}
        for (client_id, object_id), value in requests.items():
            if not tree.is_client(client_id):
                raise TreeStructureError(f"unknown client {client_id!r} in requests")
            if object_id not in self.objects:
                raise ReproError(f"unknown object type {object_id!r} in requests")
            if value < 0:
                raise ReproError("request rates must be non-negative")
            if value > 0:
                self.requests[(client_id, object_id)] = float(value)
        self._storage_costs = dict(storage_costs or {})

    # ------------------------------------------------------------------ #
    def request(self, client_id: NodeId, object_id: str) -> float:
        """Requests of ``client_id`` for object ``object_id``."""
        return self.requests.get((client_id, object_id), 0.0)

    def client_total(self, client_id: NodeId) -> float:
        """Total requests of a client across all objects."""
        return sum(v for (c, _o), v in self.requests.items() if c == client_id)

    def object_total(self, object_id: str) -> float:
        """Total requests for one object across all clients."""
        return sum(v for (_c, o), v in self.requests.items() if o == object_id)

    def storage_cost(self, node_id: NodeId, object_id: str) -> float:
        """Cost of placing a replica of ``object_id`` on ``node_id``."""
        override = self._storage_costs.get((node_id, object_id))
        if override is not None:
            return override
        return self.objects[object_id].size * self.tree.storage_cost(node_id)

    def capacity(self, node_id: NodeId) -> float:
        """Shared processing capacity of a node."""
        return self.tree.capacity(node_id)

    def load_factor(self) -> float:
        """Total requests (all objects) over total capacity."""
        capacity = self.tree.total_capacity()
        total = sum(self.requests.values())
        return total / capacity if capacity > 0 else float("inf")

    def describe(self) -> str:
        """One-line description."""
        return (
            f"multi-object instance: {len(self.objects)} objects, "
            f"{self.tree.size} tree elements, lambda={self.load_factor():.3f}"
        )


@dataclass
class MultiObjectSolution:
    """Replicas per (node, object) and the associated request assignment."""

    replicas: frozenset  # of (node_id, object_id)
    amounts: Dict[Tuple[NodeId, str, NodeId], float] = field(default_factory=dict)
    algorithm: str = "unknown"

    def cost(self, problem: MultiObjectProblem) -> float:
        """Total storage cost of the placement."""
        return sum(problem.storage_cost(node_id, object_id) for node_id, object_id in self.replicas)

    def replica_count(self) -> int:
        """Number of (node, object) replicas."""
        return len(self.replicas)

    def server_load(self, node_id: NodeId) -> float:
        """Total requests (all objects) served by a node."""
        return sum(
            value for (_c, _o, server), value in self.amounts.items() if server == node_id
        )

    def objects_on(self, node_id: NodeId) -> Tuple[str, ...]:
        """Object types replicated on a node."""
        return tuple(sorted(obj for (node, obj) in self.replicas if node == node_id))


def validate_multi_object_solution(
    problem: MultiObjectProblem, solution: MultiObjectSolution
) -> List[str]:
    """Return the list of constraint violations (empty when valid)."""
    tree = problem.tree
    violations: List[str] = []

    served: Dict[Tuple[NodeId, str], float] = {}
    loads: Dict[NodeId, float] = {}
    for (client_id, object_id, server_id), value in solution.amounts.items():
        if value < -_TOL:
            violations.append(f"negative amount for {(client_id, object_id, server_id)!r}")
        if (server_id, object_id) not in solution.replicas:
            violations.append(
                f"{server_id!r} serves object {object_id!r} without a replica of it"
            )
        if not tree.is_client(client_id) or server_id not in tree.ancestors(client_id):
            violations.append(
                f"server {server_id!r} is not an ancestor of client {client_id!r}"
            )
        served[(client_id, object_id)] = served.get((client_id, object_id), 0.0) + value
        loads[server_id] = loads.get(server_id, 0.0) + value

    for (client_id, object_id), requested in problem.requests.items():
        got = served.get((client_id, object_id), 0.0)
        if abs(got - requested) > _TOL:
            violations.append(
                f"client {client_id!r} object {object_id!r}: assigned {got:g} of {requested:g}"
            )

    for node_id, load in loads.items():
        if load > problem.capacity(node_id) + _TOL:
            violations.append(
                f"node {node_id!r} serves {load:g} requests, capacity {problem.capacity(node_id):g}"
            )
    return violations

"""Placements, request assignments and complete solutions.

A solution to a Replica Placement instance has two layers:

* a :class:`Placement` -- the set ``R`` of internal nodes equipped with a
  replica;
* an :class:`Assignment` -- the quantities ``r_{i,s}``: how many requests of
  client ``i`` are processed by each server ``s`` (the paper's
  ``Servers(i)`` sets with their request split).

:class:`Solution` bundles both with the access policy under which the
assignment was produced and bookkeeping about which algorithm produced it.
Constraint checking lives in :mod:`repro.core.validation`; objective values
in :mod:`repro.core.costs`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

from repro.core.exceptions import PolicyViolationError, TreeStructureError
from repro.core.policies import Policy
from repro.core.problem import ReplicaPlacementProblem
from repro.core.tree import NodeId, TreeNetwork

__all__ = ["Placement", "Assignment", "Solution"]


@dataclass(frozen=True)
class Placement:
    """The set ``R`` of internal nodes holding a replica."""

    replicas: FrozenSet[NodeId]

    def __init__(self, replicas: Iterable[NodeId]):
        object.__setattr__(self, "replicas", frozenset(replicas))

    def __contains__(self, node_id: NodeId) -> bool:
        return node_id in self.replicas

    def __iter__(self):
        return iter(self.replicas)

    def __len__(self) -> int:
        return len(self.replicas)

    def __or__(self, other: "Placement") -> "Placement":
        return Placement(self.replicas | other.replicas)

    def sorted(self) -> Tuple[NodeId, ...]:
        """Replica identifiers in a deterministic (string-sorted) order."""
        return tuple(sorted(self.replicas, key=repr))

    def restricted_to(self, tree: TreeNetwork) -> "Placement":
        """Placement restricted to nodes that exist in ``tree``.

        Used when transplanting a placement onto a re-costed copy of the same
        topology.
        """
        return Placement(r for r in self.replicas if tree.is_node(r))


class Assignment:
    """The request split ``r_{i,s}``: requests of client ``i`` served by ``s``.

    The mapping is stored sparsely: only strictly positive amounts are kept.
    Amounts may be fractional (the LP relaxation produces fractional
    assignments); integral algorithms only ever store integers.
    """

    __slots__ = ("_amounts",)

    def __init__(self, amounts: Optional[Mapping[Tuple[NodeId, NodeId], float]] = None):
        self._amounts: Dict[Tuple[NodeId, NodeId], float] = {}
        if amounts:
            for (client, server), value in amounts.items():
                if value < 0:
                    raise PolicyViolationError(
                        f"negative request amount {value} for client {client!r} "
                        f"on server {server!r}"
                    )
                if value > 0:
                    self._amounts[(client, server)] = float(value)

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def of_positive(cls, amounts: Mapping[Tuple[NodeId, NodeId], float]) -> "Assignment":
        """An assignment over a copy of ``amounts``, whose values the caller
        guarantees are positive floats (a solver state's bookkeeping), so
        they are not re-checked one by one."""
        assignment = cls.__new__(cls)
        assignment._amounts = dict(amounts)
        return assignment

    @classmethod
    def single_server(cls, servers: Mapping[NodeId, NodeId], tree: TreeNetwork) -> "Assignment":
        """Build an assignment from a ``client -> server`` map (single-server policies)."""
        amounts = {}
        for client_id, server_id in servers.items():
            amounts[(client_id, server_id)] = tree.requests(client_id)
        return cls(amounts)

    def copy(self) -> "Assignment":
        """Return an independent copy of this assignment."""
        return Assignment.of_positive(self._amounts)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def amount(self, client_id: NodeId, server_id: NodeId) -> float:
        """Requests of ``client_id`` served by ``server_id`` (0 when unassigned)."""
        return self._amounts.get((client_id, server_id), 0.0)

    def items(self):
        """Iterate over ``((client, server), amount)`` pairs with positive amount."""
        return self._amounts.items()

    def servers_of(self, client_id: NodeId) -> Tuple[NodeId, ...]:
        """The paper's ``Servers(i)``: replicas processing at least one request of ``i``."""
        return tuple(s for (c, s) in self._amounts if c == client_id)

    def clients_of(self, server_id: NodeId) -> Tuple[NodeId, ...]:
        """Clients having at least one request processed by ``server_id``."""
        return tuple(c for (c, s) in self._amounts if s == server_id)

    def client_total(self, client_id: NodeId) -> float:
        """Total requests of ``client_id`` that are assigned to some server."""
        return sum(v for (c, _s), v in self._amounts.items() if c == client_id)

    def client_totals(self) -> Dict[NodeId, float]:
        """Assigned totals of every client with at least one assignment.

        Single pass over the amounts; use this instead of per-client
        :meth:`client_total` calls when walking all clients (validation,
        reporting) to avoid a quadratic scan.
        """
        totals: Dict[NodeId, float] = {}
        for (client, _server), value in self._amounts.items():
            totals[client] = totals.get(client, 0.0) + value
        return totals

    def servers_by_client(self) -> Dict[NodeId, Tuple[NodeId, ...]]:
        """The ``Servers(i)`` tuples of every assigned client, in one pass.

        Per-client server order matches :meth:`servers_of` (assignment
        insertion order).
        """
        servers: Dict[NodeId, List[NodeId]] = {}
        for (client, server) in self._amounts:
            servers.setdefault(client, []).append(server)
        return {client: tuple(entries) for client, entries in servers.items()}

    def server_load(self, server_id: NodeId) -> float:
        """Total requests processed by ``server_id``."""
        return sum(v for (_c, s), v in self._amounts.items() if s == server_id)

    def server_loads(self) -> Dict[NodeId, float]:
        """Mapping of every used server to its total load."""
        loads: Dict[NodeId, float] = {}
        for (_client, server), value in self._amounts.items():
            loads[server] = loads.get(server, 0.0) + value
        return loads

    def used_servers(self) -> FrozenSet[NodeId]:
        """Servers processing at least one request."""
        return frozenset(s for (_c, s) in self._amounts)

    def link_flows(self, tree: TreeNetwork) -> Dict[Tuple[NodeId, NodeId], float]:
        """Flow of requests through every link implied by this assignment.

        A request of client ``i`` served by ancestor ``s`` traverses every
        link on ``path[i -> s]``.
        """
        flows: Dict[Tuple[NodeId, NodeId], float] = {}
        for (client, server), value in self._amounts.items():
            if server == client:
                continue  # an empty path
            chain = tree.ancestors(client)
            if server not in chain:
                raise TreeStructureError(f"{server!r} is not an ancestor of {client!r}")
            hops = chain.index(server) + 1
            for key in zip((client,) + chain[: hops - 1], chain[:hops]):
                flows[key] = flows.get(key, 0.0) + value
        return flows

    def is_integral(self, tolerance: float = 1e-9) -> bool:
        """``True`` when every assigned amount is (numerically) an integer."""
        return all(
            abs(value - round(value)) <= tolerance for value in self._amounts.values()
        )

    def total_assigned(self) -> float:
        """Total number of assigned requests across all clients."""
        return sum(self._amounts.values())

    def __len__(self) -> int:
        return len(self._amounts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Assignment):
            return NotImplemented
        return self._amounts == other._amounts

    def __repr__(self) -> str:
        return f"Assignment({len(self._amounts)} client/server pairs, total={self.total_assigned():g})"


@dataclass(frozen=True)
class Solution:
    """A complete answer to a Replica Placement instance.

    Parameters
    ----------
    placement:
        The replica set ``R``.
    assignment:
        The request split ``r_{i,s}``.
    policy:
        The access policy under which the assignment is claimed to be valid.
    algorithm:
        Name of the algorithm/heuristic that produced the solution.
    metadata:
        Free-form extra information (iterations, solver statistics, ...).
    """

    placement: Placement
    assignment: Assignment
    policy: Policy
    algorithm: str = "unknown"
    metadata: Mapping[str, object] = field(default_factory=dict, compare=False)

    # ------------------------------------------------------------------ #
    def cost(self, problem) -> float:
        """Total storage cost of the placement under ``problem``'s cost mode.

        Summed in the placement's iteration order, so reading a
        :class:`~repro.core.problem.ReplicaPlacementProblem`'s costs from
        the tree's columns adds the same floats as the per-node calls.
        """
        if isinstance(problem, ReplicaPlacementProblem):
            return sum(problem.storage_costs_of(self.placement))
        return sum(problem.storage_cost(node_id) for node_id in self.placement)

    def replica_count(self) -> int:
        """Number of replicas placed."""
        return len(self.placement)

    def server_utilisation(self, tree: TreeNetwork) -> Dict[NodeId, float]:
        """Fraction of each replica's capacity actually used (0 for idle replicas)."""
        loads = self.assignment.server_loads()
        result: Dict[NodeId, float] = {}
        for node_id in self.placement:
            capacity = tree.capacity(node_id)
            load = loads.get(node_id, 0.0)
            result[node_id] = load / capacity if capacity > 0 else math.inf
        return result

    def with_algorithm(self, algorithm: str) -> "Solution":
        """Return a copy of this solution labelled with a different algorithm name."""
        return Solution(
            placement=self.placement,
            assignment=self.assignment,
            policy=self.policy,
            algorithm=algorithm,
            metadata=dict(self.metadata),
        )

    def summary(self, problem) -> str:
        """One-line report used by the CLI and the examples."""
        return (
            f"[{self.algorithm}] policy={self.policy.value} "
            f"replicas={self.replica_count()} cost={self.cost(problem):g}"
        )

    def __repr__(self) -> str:
        return (
            f"Solution(algorithm={self.algorithm!r}, policy={self.policy.value}, "
            f"replicas={sorted(map(repr, self.placement.replicas))})"
        )

"""Problem instances of the Replica Placement optimisation problem.

Paper Section 2.2 defines the general **Replica Placement** problem (server
capacities, QoS and link-capacity constraints, storage-cost objective) and
two simplifications used throughout the complexity study and the
experiments:

* **Replica Cost** -- only server capacities are enforced and the storage
  cost of every node equals its capacity (``s_j = W_j``);
* **Replica Counting** -- the homogeneous special case of Replica Cost in
  which the cost of every node is 1, i.e. the objective is the number of
  replicas.

:class:`ReplicaPlacementProblem` bundles a :class:`~repro.core.tree.TreeNetwork`
with a :class:`~repro.core.constraints.ConstraintSet` and a cost mode; it is
what every solver and heuristic in this package consumes.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.core.constraints import ConstraintSet, QoSMode
from repro.core.exceptions import TreeStructureError
from repro.core.tree import NodeId, TreeNetwork

__all__ = [
    "ProblemKind",
    "ReplicaPlacementProblem",
    "replica_cost_problem",
    "replica_counting_problem",
]


class ProblemKind(enum.Enum):
    """How the storage cost of a node is determined."""

    #: Use each node's declared ``storage_cost`` attribute.
    GENERAL = "general"
    #: The *Replica Cost* problem: ``s_j = W_j``.
    REPLICA_COST = "replica_cost"
    #: The *Replica Counting* problem: ``s_j = 1`` (homogeneous platforms).
    REPLICA_COUNTING = "replica_counting"


@dataclass(frozen=True)
class ReplicaPlacementProblem:
    """A fully-specified instance of the Replica Placement problem.

    Parameters
    ----------
    tree:
        The distribution tree (clients, internal nodes, links).
    constraints:
        Which optional constraints (QoS, bandwidth) are enforced.
    kind:
        The cost mode (:class:`ProblemKind`).
    name:
        Optional label used in experiment reports.
    """

    tree: TreeNetwork
    constraints: ConstraintSet = field(default_factory=ConstraintSet.none)
    kind: ProblemKind = ProblemKind.REPLICA_COST
    name: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind is ProblemKind.REPLICA_COUNTING and not self.tree.is_homogeneous():
            raise TreeStructureError(
                "the Replica Counting problem is only defined for homogeneous "
                "platforms (identical node capacities)"
            )

    # ------------------------------------------------------------------ #
    # costs
    # ------------------------------------------------------------------ #
    def storage_cost(self, node_id: NodeId) -> float:
        """Storage cost ``s_j`` of placing a replica on ``node_id``."""
        if self.kind is ProblemKind.REPLICA_COUNTING:
            self.tree.capacity(node_id)  # unknown ids still raise
            return 1.0
        if self.kind is ProblemKind.REPLICA_COST:
            return self.tree.capacity(node_id)
        return self.tree.storage_cost(node_id)

    def storage_costs_of(self, node_ids: Iterable[NodeId]) -> List[float]:
        """``[storage_cost(n) for n in node_ids]``, read from the tree's
        columns."""
        kind = self.kind
        name = "storage_cost" if kind is ProblemKind.GENERAL else "capacity"
        costs = self.tree.node_values(name, node_ids)
        return [1.0] * len(costs) if kind is ProblemKind.REPLICA_COUNTING else costs

    def storage_costs(self) -> Dict[NodeId, float]:
        """Mapping of every internal node to its storage cost."""
        node_ids = self.tree.node_ids
        return dict(zip(node_ids, self.storage_costs_of(node_ids)))

    def capacity(self, node_id: NodeId) -> float:
        """Processing capacity ``W_j`` of ``node_id``."""
        return self.tree.capacity(node_id)

    def requests(self, client_id: NodeId) -> float:
        """Request rate ``r_i`` of ``client_id``."""
        return self.tree.requests(client_id)

    # ------------------------------------------------------------------ #
    # constraint helpers
    # ------------------------------------------------------------------ #
    def eligible_servers(self, client_id: NodeId):
        """Ancestors of ``client_id`` allowed to serve it under the QoS constraint.

        Ordered bottom-up (closest ancestor first).  Without QoS this is the
        full ancestor chain.  Results are memoised per client: tree and
        constraints are both immutable, and the heuristics query the same
        chains over and over on large instances.
        """
        if not self.constraints.has_qos:
            return self.tree.ancestors(client_id)
        cache = self.__dict__.get("_eligible_servers_cache")
        if cache is None:
            cache = {}
            object.__setattr__(self, "_eligible_servers_cache", cache)
        servers = cache.get(client_id)
        if servers is None:
            servers = cache[client_id] = self._eligible_servers_uncached(client_id)
        return servers

    def _eligible_servers_uncached(self, client_id: NodeId):
        """Compute a client's eligible chain via the indexed QoS thresholds.

        Both built-in QoS metrics are monotone along the client-to-root
        path, so the eligible ancestors are the bottom-up prefix whose depth
        stays above the client's precomputed threshold (one shared pass per
        tree, see :meth:`TreeIndex.qos_depth_thresholds`).  Non-standard
        constraint subclasses keep the seed's per-pair filtering.
        """
        from repro.core.index import TreeIndex, supports_qos_thresholds

        if not supports_qos_thresholds(self.constraints):
            return self.constraints.allowed_servers(self.tree, client_id)
        index = TreeIndex.for_tree(self.tree)
        threshold = index.qos_depth_thresholds(self)[index.client_index(client_id)]
        # The k-th ancestor (bottom-up, from 0) of a client at depth d is
        # d - 1 - k deep, so the ancestors at depth >= threshold are the
        # first d - threshold of the chain.
        chain = self.tree.ancestors(client_id)
        return chain[: len(chain) - threshold]

    def qos_satisfied(self, client_id: NodeId, server_id: NodeId) -> bool:
        """``True`` when serving ``client_id`` from ``server_id`` respects QoS."""
        if not self.constraints.has_qos:
            return True
        bound = self.tree.qos(client_id)
        return self.constraints.qos_metric(self.tree, client_id, server_id) <= bound

    def link_bandwidth(self, child: NodeId) -> float:
        """Bandwidth of the uplink of ``child`` (``inf`` when unenforced)."""
        if not self.constraints.enforce_bandwidth:
            return math.inf
        return self.tree.bandwidth(child)

    # ------------------------------------------------------------------ #
    # descriptive helpers
    # ------------------------------------------------------------------ #
    @property
    def is_homogeneous(self) -> bool:
        """``True`` when the platform has identical node capacities."""
        return self.tree.is_homogeneous()

    @property
    def size(self) -> int:
        """Problem size ``s = |C| + |N|``."""
        return self.tree.size

    def describe(self) -> str:
        """One-line description used by the experiment reporting."""
        label = self.name or "instance"
        return (
            f"{label}: kind={self.kind.value}, s={self.size}, "
            f"lambda={self.tree.load_factor():.3f}, "
            f"{'homogeneous' if self.is_homogeneous else 'heterogeneous'}, "
            f"{self.constraints.describe()}"
        )

    # ------------------------------------------------------------------ #
    def with_constraints(self, constraints: ConstraintSet) -> "ReplicaPlacementProblem":
        """Return a copy of this problem with a different constraint set."""
        return ReplicaPlacementProblem(
            tree=self.tree, constraints=constraints, kind=self.kind, name=self.name
        )

    def with_kind(self, kind: ProblemKind) -> "ReplicaPlacementProblem":
        """Return a copy of this problem with a different cost mode."""
        return ReplicaPlacementProblem(
            tree=self.tree, constraints=self.constraints, kind=kind, name=self.name
        )


def replica_cost_problem(
    tree: TreeNetwork,
    *,
    constraints: Optional[ConstraintSet] = None,
    name: Optional[str] = None,
) -> ReplicaPlacementProblem:
    """Build a *Replica Cost* instance (``s_j = W_j``, default: capacities only)."""
    return ReplicaPlacementProblem(
        tree=tree,
        constraints=constraints or ConstraintSet.none(),
        kind=ProblemKind.REPLICA_COST,
        name=name,
    )


def replica_counting_problem(
    tree: TreeNetwork,
    *,
    constraints: Optional[ConstraintSet] = None,
    name: Optional[str] = None,
) -> ReplicaPlacementProblem:
    """Build a *Replica Counting* instance (homogeneous platform, ``s_j = 1``)."""
    return ReplicaPlacementProblem(
        tree=tree,
        constraints=constraints or ConstraintSet.none(),
        kind=ProblemKind.REPLICA_COUNTING,
        name=name,
    )

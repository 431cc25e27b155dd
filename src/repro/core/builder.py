"""Fluent builder for :class:`~repro.core.tree.TreeNetwork` instances.

Building trees directly from the :class:`~repro.core.tree.TreeNetwork`
constructor requires assembling three parallel collections (nodes, clients,
links).  :class:`TreeBuilder` offers a more convenient incremental interface
used by the examples, the reference trees of the paper and the random
generators::

    tree = (TreeBuilder()
            .add_node("root", capacity=10)
            .add_node("n1", capacity=10, parent="root", comm_time=2.0)
            .add_client("c1", requests=7, parent="n1")
            .add_client("c2", requests=5, parent="n1", qos=3)
            .build())

The first node added without an explicit parent becomes the root; every other
element must name an already-declared internal node as its parent.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.core.exceptions import TreeStructureError
from repro.core.tree import Client, InternalNode, Link, NodeId, TreeNetwork

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.qos.metrics import QoSMetrics

__all__ = ["TreeBuilder"]


class TreeBuilder:
    """Incrementally assemble a :class:`~repro.core.tree.TreeNetwork`."""

    def __init__(self) -> None:
        self._nodes: Dict[NodeId, InternalNode] = {}
        self._clients: Dict[NodeId, Client] = {}
        self._links: List[Link] = []
        self._root: Optional[NodeId] = None

    # ------------------------------------------------------------------ #
    def add_node(
        self,
        node_id: NodeId,
        *,
        capacity: float,
        storage_cost: Optional[float] = None,
        parent: Optional[NodeId] = None,
        comm_time: float = 1.0,
        bandwidth: float = math.inf,
        metrics: Optional["QoSMetrics"] = None,
        **metadata,
    ) -> "TreeBuilder":
        """Declare an internal node.

        The first node declared without a ``parent`` becomes the root.  Any
        subsequent node must specify its parent, which has to be an already
        declared internal node.  ``comm_time``, ``bandwidth`` and
        ``metrics`` (a :class:`~repro.qos.metrics.QoSMetrics` annotation)
        describe the uplink from this node towards its parent.
        """
        if node_id in self._nodes or node_id in self._clients:
            raise TreeStructureError(f"duplicate identifier {node_id!r}")
        if parent is None:
            if self._root is not None:
                raise TreeStructureError(
                    f"root already set to {self._root!r}; node {node_id!r} "
                    "must declare a parent"
                )
            self._root = node_id
        else:
            self._require_parent(parent, node_id)
        self._nodes[node_id] = InternalNode(
            id=node_id,
            capacity=capacity,
            storage_cost=storage_cost,
            metadata=dict(metadata),
        )
        if parent is not None:
            self._links.append(Link(node_id, parent, comm_time, bandwidth, metrics))
        return self

    def add_client(
        self,
        client_id: NodeId,
        *,
        requests: float,
        parent: NodeId,
        qos: float = math.inf,
        comm_time: float = 1.0,
        bandwidth: float = math.inf,
        metrics: Optional["QoSMetrics"] = None,
        **metadata,
    ) -> "TreeBuilder":
        """Declare a leaf client attached to internal node ``parent``."""
        if client_id in self._nodes or client_id in self._clients:
            raise TreeStructureError(f"duplicate identifier {client_id!r}")
        self._require_parent(parent, client_id)
        self._clients[client_id] = Client(
            id=client_id, requests=requests, qos=qos, metadata=dict(metadata)
        )
        self._links.append(Link(client_id, parent, comm_time, bandwidth, metrics))
        return self

    def add_clients(
        self,
        prefix: str,
        count: int,
        *,
        requests: float,
        parent: NodeId,
        qos: float = math.inf,
        comm_time: float = 1.0,
        bandwidth: float = math.inf,
        start: int = 0,
    ) -> "TreeBuilder":
        """Declare ``count`` identical clients named ``f"{prefix}{k}"``.

        A convenience used by the parametric families of paper Section 3
        (e.g. the ``2n`` unit-request clients of Figure 2).
        """
        for k in range(start, start + count):
            self.add_client(
                f"{prefix}{k}",
                requests=requests,
                parent=parent,
                qos=qos,
                comm_time=comm_time,
                bandwidth=bandwidth,
            )
        return self

    # ------------------------------------------------------------------ #
    def _require_parent(self, parent: NodeId, child: NodeId) -> None:
        if parent not in self._nodes:
            raise TreeStructureError(
                f"parent {parent!r} of {child!r} is not a declared internal node "
                "(declare internal nodes top-down before attaching children)"
            )

    # ------------------------------------------------------------------ #
    @property
    def declared_nodes(self) -> int:
        """Number of internal nodes declared so far."""
        return len(self._nodes)

    @property
    def declared_clients(self) -> int:
        """Number of clients declared so far."""
        return len(self._clients)

    def build(self) -> TreeNetwork:
        """Validate the accumulated declarations and return the tree."""
        if self._root is None:
            raise TreeStructureError("no root node was declared")
        return TreeNetwork(self._nodes.values(), self._clients.values(), self._links)

"""The distribution-tree data structure.

The framework of the paper (Section 2) considers a distribution tree ``T``
whose nodes are partitioned into a set of *clients* ``C`` (the leaves) and a
set of *internal nodes* ``N`` (candidate servers).  Each client ``i`` issues
``r_i`` requests per time unit and carries a QoS bound ``q_i``; each internal
node ``j`` has a processing capacity ``W_j`` and a storage cost ``s_j``;
each tree edge ``l`` has a communication time ``comm_l`` and a bandwidth
``BW_l``.

:class:`TreeNetwork` is the single authoritative representation of such a
tree used throughout the package.  It is immutable after construction (all
mutating operations go through :class:`repro.core.builder.TreeBuilder` or the
functional helpers of this module), which lets it cache the structural
queries every algorithm relies on.  Construction is one O(n) pass that
builds the parent and children lookups, the breadth-first order, depths and
subtree request sums eagerly; ancestor paths, subtree client sets and the
children split by kind are memoised on first use (or handed over by
:class:`~repro.core.index.TreeIndex`, which builds the ancestor paths in its
own DFS) and shared with every :meth:`TreeNetwork.with_requests` fork.

Node identifiers can be any hashable value; strings are used throughout the
examples and generators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import chain
from typing import Any, Dict, Hashable, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.core.exceptions import TreeStructureError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.qos.metrics import QoSMetrics

NodeId = Hashable

__all__ = ["NodeId", "InternalNode", "Client", "Link", "TreeNetwork"]


@dataclass(frozen=True)
class InternalNode:
    """An internal tree node, i.e. a candidate replica server.

    Parameters
    ----------
    id:
        Unique identifier of the node.
    capacity:
        Processing capacity ``W_j``: the number of requests per time unit the
        node can serve once equipped with a replica.
    storage_cost:
        Storage cost ``s_j`` paid when placing a replica on this node.  In
        the *Replica Cost* problem the cost equals the capacity; in the
        *Replica Counting* problem it is 1.  When left to ``None`` the cost
        defaults to the capacity (the paper's ``s_j = W_j`` convention).
    """

    id: NodeId
    capacity: float
    storage_cost: Optional[float] = None
    metadata: Mapping[str, Any] = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        # Negated comparisons: NaN fails every comparison, so it is rejected.
        if not 0 <= self.capacity < math.inf:
            raise TreeStructureError(
                f"node {self.id!r} has capacity {self.capacity}, "
                "not a finite number >= 0"
            )
        if self.storage_cost is None:
            object.__setattr__(self, "storage_cost", float(self.capacity))
        elif not 0 <= self.storage_cost < math.inf:
            raise TreeStructureError(
                f"node {self.id!r} has storage cost {self.storage_cost}, "
                "not a finite number >= 0"
            )

    def with_storage_cost(self, storage_cost: float) -> "InternalNode":
        """Return a copy of this node with a different storage cost."""
        return replace(self, storage_cost=storage_cost)


@dataclass(frozen=True)
class Client:
    """A leaf client issuing requests.

    Parameters
    ----------
    id:
        Unique identifier of the client.
    requests:
        Number of requests ``r_i`` issued per time unit.
    qos:
        QoS bound ``q_i``.  Interpreted either as a hop-count bound
        (``QoS = distance`` simplification) or a latency bound, depending on
        the problem's QoS mode.  ``math.inf`` (the default) disables the
        constraint for this client.
    """

    id: NodeId
    requests: float
    qos: float = math.inf
    metadata: Mapping[str, Any] = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if not 0 <= self.requests < math.inf:
            raise TreeStructureError(
                f"client {self.id!r} has request rate {self.requests}, "
                "not a finite number >= 0"
            )
        if not self.qos > 0:  # inf is "unbounded", NaN is rejected
            raise TreeStructureError(
                f"client {self.id!r} has QoS bound {self.qos}, not a number > 0"
            )


@dataclass(frozen=True)
class Link:
    """A tree edge ``child -> parent`` with latency and bandwidth attributes.

    Parameters
    ----------
    child, parent:
        End points of the edge; requests flow from ``child`` towards
        ``parent`` (upwards).
    comm_time:
        Communication time ``comm_l`` used by latency-based QoS.
    bandwidth:
        Maximum number of requests per time unit the link can carry
        (``BW_l``).  ``math.inf`` disables the constraint.
    metrics:
        Optional multi-metric QoS annotation
        (:class:`repro.qos.metrics.QoSMetrics`: latency, jitter, loss,
        residual bandwidth) consumed by the classed constraint sets of
        :class:`repro.core.constraints.ClassedConstraintSet`.  ``None``
        (the default) makes the link behave like the pre-metric model
        (latency = ``comm_time``, loss-free, bandwidth = ``bandwidth``).
    """

    child: NodeId
    parent: NodeId
    comm_time: float = 1.0
    bandwidth: float = math.inf
    metrics: Optional["QoSMetrics"] = None

    def __post_init__(self) -> None:
        if not self.comm_time >= 0:
            raise TreeStructureError(
                f"link {self.child!r}->{self.parent!r} has comm time "
                f"{self.comm_time}, not a number >= 0"
            )
        if not self.bandwidth >= 0:  # inf is "unbounded", NaN is rejected
            raise TreeStructureError(
                f"link {self.child!r}->{self.parent!r} has bandwidth "
                f"{self.bandwidth}, not a number >= 0"
            )

    @property
    def key(self) -> Tuple[NodeId, NodeId]:
        """The ``(child, parent)`` pair identifying this link."""
        return (self.child, self.parent)


class _Memo:
    """Structural caches of one topology, built on first use and shared by a
    tree and every epoch fork of it (:meth:`TreeNetwork.with_requests`).

    Each cache holds at least the root, so a built one is truthy: hot
    accessors read ``memo.x or tree._x``, and the ``_x`` property builds
    ``x`` once.
    """

    __slots__ = ("ancestors", "subtree_clients", "children", "child_nodes", "child_clients")

    def __init__(self) -> None:
        self.ancestors: Optional[Dict[NodeId, Tuple[NodeId, ...]]] = None
        self.subtree_clients: Optional[Dict[NodeId, Tuple[NodeId, ...]]] = None
        self.children: Optional[Dict[NodeId, Tuple[NodeId, ...]]] = None
        self.child_nodes: Optional[Dict[NodeId, Tuple[NodeId, ...]]] = None
        self.child_clients: Optional[Dict[NodeId, Tuple[NodeId, ...]]] = None


class TreeNetwork:
    """An immutable distribution tree of internal nodes and leaf clients.

    Instances are usually created through
    :class:`repro.core.builder.TreeBuilder` or the generators of
    :mod:`repro.workloads`; the constructor below accepts already-validated
    component collections and checks the global structure (single root,
    acyclicity, clients as leaves).

    Construction is O(n): the input is checked with C-level bulk operations
    (dict and set builds, count comparisons), and only the O(n) state is
    built eagerly -- id maps, parent map, children lists, breadth-first
    order, depths and subtree request sums.  The structural caches that are
    O(n * depth) or that few callers need -- ancestor chains, subtree client
    tuples and the children tuples split by kind -- are memoised on first
    use and shared with every :meth:`with_requests` fork of the tree.

    Parameters
    ----------
    nodes:
        Iterable of :class:`InternalNode`.
    clients:
        Iterable of :class:`Client`.
    links:
        Iterable of :class:`Link` connecting every non-root element to its
        parent (which must be an internal node).
    """

    __slots__ = (
        "_nodes",
        "_clients",
        "_links",
        "_parent",
        "_children",
        "_root",
        "_order",
        "_depth",
        "_subtree_requests",
        "_post_order_nodes",
        "_node_ids",
        "_client_ids",
        "_memo",
        "_index_cache",
        "_patch_source",
        "_hash",
    )

    def __init__(
        self,
        nodes: Iterable[InternalNode],
        clients: Iterable[Client],
        links: Iterable[Link],
    ) -> None:
        nodes, clients, links = tuple(nodes), tuple(clients), tuple(links)
        node_map = {node.id: node for node in nodes}
        client_map = {client.id: client for client in clients}
        parent_map = {link.child: link.parent for link in links}
        # Elements with an uplink; they add up to len(parent_map) only when
        # every link child is declared.
        node_links = sum(map(parent_map.__contains__, node_map))
        client_links = sum(map(parent_map.__contains__, client_map))
        children: Dict[NodeId, List[NodeId]] = {nid: [] for nid in node_map}
        consistent = (
            len(node_map) == len(nodes)
            and len(client_map) == len(clients)
            and node_map.keys().isdisjoint(client_map)
            and len(parent_map) == len(links)
            and node_links + client_links == len(parent_map)
        )
        if consistent:
            try:
                for child, parent in parent_map.items():
                    children[parent].append(child)
            except KeyError:  # a link parent that is not an internal node
                consistent = False
        if not consistent:
            raise _item_error(nodes, clients, links)

        # Global structure.  A self-loop passes the bulk checks above and
        # only shows here, as a missing root or an unreachable node, so every
        # global error first asks the per-item checks for an offender.
        if not node_map:
            raise TreeStructureError("a tree network needs at least one internal node")
        if len(node_map) - node_links != 1:
            roots = [nid for nid in node_map if nid not in parent_map]
            raise _reject(
                nodes,
                clients,
                links,
                f"expected exactly one root internal node, found {len(roots)}: {roots!r}",
            )
        if client_links != len(client_map):
            dangling = [cid for cid in client_map if cid not in parent_map]
            raise _reject(
                nodes, clients, links, f"clients without a parent link: {dangling!r}"
            )
        root = next(nid for nid in node_map if nid not in parent_map)

        # Breadth-first order from the root: with one parent per element, an
        # element it misses sits on a cycle or hangs off one.
        order = [root]
        depth = {root: 0}
        children_of = children.get
        for element in order:
            kids = children_of(element)  # clients have no entry
            if kids:
                order.extend(kids)
                level = depth[element] + 1
                for kid in kids:
                    depth[kid] = level
        if len(order) != len(node_map) + len(client_map):
            unreachable = (node_map.keys() | client_map.keys()) - set(order)
            raise _reject(
                nodes,
                clients,
                links,
                "elements unreachable from the root (cycle or disconnected): "
                f"{sorted(map(repr, unreachable))}",
            )

        self._nodes = node_map
        self._clients = client_map
        #: uplink of every non-root element, in link order (parent_map holds
        #: one entry per link, in that order)
        self._links: Dict[NodeId, Link] = dict(zip(parent_map, links))
        self._parent = parent_map
        self._children = children
        self._root = root
        self._order = tuple(order)
        self._depth = depth
        self._node_ids = tuple(filter(node_map.__contains__, order))
        self._client_ids = tuple(filter(client_map.__contains__, order))
        #: internal nodes in post-order (children before parents)
        self._post_order_nodes = self._node_ids[::-1]
        self._subtree_requests = _subtree_sums(client_map, children, self._post_order_nodes)
        self._memo = _Memo()
        self._index_cache = None
        self._patch_source = None
        self._hash = None

    # ------------------------------------------------------------------ #
    # memoised structural caches (see _Memo)
    # ------------------------------------------------------------------ #
    @property
    def _ancestors(self) -> Dict[NodeId, Tuple[NodeId, ...]]:
        """Bottom-up ancestor chains, excluding the element itself."""
        memo = self._memo
        if memo.ancestors is None:
            # Siblings share their parent's chain-through-itself, so the
            # tuples cost O(|N| * depth) and the clients add one reference
            # each.
            parent = self._parent
            through = {self._root: (self._root,)}
            for nid in self._node_ids[1:]:  # breadth-first: parents first
                through[nid] = (nid,) + through[parent[nid]]
            chains: Dict[NodeId, Tuple[NodeId, ...]] = {self._root: ()}
            rest = self._order[1:]
            chains.update(zip(rest, map(through.__getitem__, map(parent.__getitem__, rest))))
            memo.ancestors = chains
        return memo.ancestors

    @property
    def _subtree_clients(self) -> Dict[NodeId, Tuple[NodeId, ...]]:
        """Clients of every subtree: the concatenation of the children's
        tuples in link order -- the order TreeIndex's client layout
        reproduces."""
        memo = self._memo
        if memo.subtree_clients is None:
            children = self._children
            tuples: Dict[NodeId, Tuple[NodeId, ...]] = {cid: (cid,) for cid in self._clients}
            for nid in self._post_order_nodes:  # children before parents
                tuples[nid] = tuple(chain.from_iterable(map(tuples.__getitem__, children[nid])))
            memo.subtree_clients = tuples
        return memo.subtree_clients

    @property
    def _children_tuples(self) -> Dict[NodeId, Tuple[NodeId, ...]]:
        memo = self._memo
        if memo.children is None:
            memo.children = {nid: tuple(kids) for nid, kids in self._children.items()}
        return memo.children

    @property
    def _child_nodes(self) -> Dict[NodeId, Tuple[NodeId, ...]]:
        memo = self._memo
        if memo.child_nodes is None:
            is_node = self._nodes.__contains__
            memo.child_nodes = {
                nid: tuple(filter(is_node, kids)) for nid, kids in self._children.items()
            }
        return memo.child_nodes

    @property
    def _child_clients(self) -> Dict[NodeId, Tuple[NodeId, ...]]:
        memo = self._memo
        if memo.child_clients is None:
            is_client = self._clients.__contains__
            memo.child_clients = {
                nid: tuple(filter(is_client, kids)) for nid, kids in self._children.items()
            }
        return memo.child_clients

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #
    @property
    def root(self) -> NodeId:
        """Identifier of the root internal node."""
        return self._root

    @property
    def node_ids(self) -> Tuple[NodeId, ...]:
        """Identifiers of the internal nodes, in breadth-first order."""
        return self._node_ids

    @property
    def client_ids(self) -> Tuple[NodeId, ...]:
        """Identifiers of the clients, in breadth-first order."""
        return self._client_ids

    @property
    def link_keys(self) -> Tuple[Tuple[NodeId, NodeId], ...]:
        """``(child, parent)`` keys of every link."""
        return tuple(self._parent.items())

    def node(self, node_id: NodeId) -> InternalNode:
        """Return the :class:`InternalNode` with identifier ``node_id``."""
        try:
            return self._nodes[node_id]
        except KeyError:
            raise TreeStructureError(f"unknown internal node {node_id!r}") from None

    def client(self, client_id: NodeId) -> Client:
        """Return the :class:`Client` with identifier ``client_id``."""
        try:
            return self._clients[client_id]
        except KeyError:
            raise TreeStructureError(f"unknown client {client_id!r}") from None

    def link(self, child: NodeId, parent: Optional[NodeId] = None) -> Link:
        """Return the link going up from ``child`` (optionally checking its parent)."""
        actual_parent = self.parent(child)
        if actual_parent is None:
            raise TreeStructureError(f"{child!r} is the root and has no uplink")
        if parent is not None and parent != actual_parent:
            raise TreeStructureError(
                f"{child!r} has parent {actual_parent!r}, not {parent!r}"
            )
        return self._links[child]

    def is_client(self, element_id: NodeId) -> bool:
        """``True`` when ``element_id`` identifies a client leaf."""
        return element_id in self._clients

    def is_node(self, element_id: NodeId) -> bool:
        """``True`` when ``element_id`` identifies an internal node."""
        return element_id in self._nodes

    def __contains__(self, element_id: NodeId) -> bool:
        return element_id in self._nodes or element_id in self._clients

    def nodes(self) -> Iterator[InternalNode]:
        """Iterate over internal nodes in breadth-first order."""
        for nid in self.node_ids:
            yield self._nodes[nid]

    def clients(self) -> Iterator[Client]:
        """Iterate over clients in breadth-first order."""
        for cid in self.client_ids:
            yield self._clients[cid]

    def links(self) -> Iterator[Link]:
        """Iterate over links."""
        return iter(self._links.values())

    # ------------------------------------------------------------------ #
    # structural queries
    # ------------------------------------------------------------------ #
    def parent(self, element_id: NodeId) -> Optional[NodeId]:
        """Parent of ``element_id`` or ``None`` for the root."""
        if element_id == self._root:
            return None
        try:
            return self._parent[element_id]
        except KeyError:
            raise TreeStructureError(f"unknown element {element_id!r}") from None

    def children(self, node_id: NodeId) -> Tuple[NodeId, ...]:
        """Children (internal nodes and clients) of an internal node."""
        try:
            return (self._memo.children or self._children_tuples)[node_id]
        except KeyError:
            raise TreeStructureError(f"unknown internal node {node_id!r}") from None

    def child_nodes(self, node_id: NodeId) -> Tuple[NodeId, ...]:
        """Children of ``node_id`` that are internal nodes."""
        try:
            return (self._memo.child_nodes or self._child_nodes)[node_id]
        except KeyError:
            raise TreeStructureError(f"unknown internal node {node_id!r}") from None

    def child_clients(self, node_id: NodeId) -> Tuple[NodeId, ...]:
        """Children of ``node_id`` that are clients."""
        try:
            return (self._memo.child_clients or self._child_clients)[node_id]
        except KeyError:
            raise TreeStructureError(f"unknown internal node {node_id!r}") from None

    def ancestors(self, element_id: NodeId) -> Tuple[NodeId, ...]:
        """Ancestors of ``element_id``, bottom-up, excluding the element itself.

        This is the paper's ``Ancestors(k)`` set: the internal nodes on the
        unique path from ``element_id`` (excluded) up to the root (included).
        """
        if element_id == self._root:
            return ()
        try:
            return (self._memo.ancestors or self._ancestors)[element_id]
        except KeyError:
            raise TreeStructureError(f"unknown element {element_id!r}") from None

    def is_ancestor(self, ancestor_id: NodeId, element_id: NodeId) -> bool:
        """``True`` when ``ancestor_id`` lies on the path from ``element_id`` to the root."""
        return ancestor_id in self.ancestors(element_id)

    def depth(self, element_id: NodeId) -> int:
        """Number of links between ``element_id`` and the root."""
        try:
            return self._depth[element_id]
        except KeyError:
            raise TreeStructureError(f"unknown element {element_id!r}") from None

    def height(self) -> int:
        """Maximum depth over all elements of the tree."""
        return max(self._depth.values())

    def path_links(self, element_id: NodeId, ancestor_id: NodeId) -> Tuple[Link, ...]:
        """Links of ``path[element_id -> ancestor_id]`` (paper notation).

        ``ancestor_id`` must be an ancestor of ``element_id`` (or the element
        itself, yielding an empty path).
        """
        if element_id == ancestor_id:
            return ()
        if ancestor_id not in self.ancestors(element_id):
            raise TreeStructureError(
                f"{ancestor_id!r} is not an ancestor of {element_id!r}"
            )
        links: List[Link] = []
        current = element_id
        while current != ancestor_id:
            links.append(self._links[current])
            current = self._parent[current]
        return tuple(links)

    def distance(self, element_id: NodeId, ancestor_id: NodeId) -> int:
        """Hop count ``d(i, s)`` between an element and one of its ancestors."""
        if element_id == ancestor_id:
            return 0
        if ancestor_id not in self.ancestors(element_id):
            raise TreeStructureError(
                f"{ancestor_id!r} is not an ancestor of {element_id!r}"
            )
        return self._depth[element_id] - self._depth[ancestor_id]

    def latency(self, element_id: NodeId, ancestor_id: NodeId) -> float:
        """Sum of link communication times on ``path[element_id -> ancestor_id]``."""
        return sum(link.comm_time for link in self.path_links(element_id, ancestor_id))

    def subtree_clients(self, node_id: NodeId) -> Tuple[NodeId, ...]:
        """Clients located in ``subtree(node_id)`` (paper's ``clients(j)``)."""
        if node_id not in self._nodes and node_id not in self._clients:
            raise TreeStructureError(f"unknown element {node_id!r}")
        return (self._memo.subtree_clients or self._subtree_clients)[node_id]

    def subtree_requests(self, node_id: NodeId) -> float:
        """Total number of requests issued inside ``subtree(node_id)``."""
        if node_id not in self._nodes and node_id not in self._clients:
            raise TreeStructureError(f"unknown element {node_id!r}")
        return self._subtree_requests[node_id]

    def subtree_nodes(self, node_id: NodeId) -> Tuple[NodeId, ...]:
        """Internal nodes of ``subtree(node_id)``, including ``node_id`` itself."""
        if node_id not in self._nodes:
            raise TreeStructureError(f"unknown internal node {node_id!r}")
        result: List[NodeId] = []
        stack = [node_id]
        while stack:
            current = stack.pop()
            result.append(current)
            stack.extend(self.child_nodes(current))
        return tuple(result)

    def breadth_first_nodes(self) -> Tuple[NodeId, ...]:
        """Internal nodes in breadth-first (top-down) order."""
        return self.node_ids

    def post_order_nodes(self) -> Tuple[NodeId, ...]:
        """Internal nodes in post-order (every child node before its parent)."""
        return self._post_order_nodes

    # ------------------------------------------------------------------ #
    # aggregate quantities
    # ------------------------------------------------------------------ #
    @property
    def size(self) -> int:
        """Problem size ``s = |C| + |N|`` used throughout the paper."""
        return len(self._nodes) + len(self._clients)

    def total_requests(self) -> float:
        """Total request rate ``sum_i r_i``."""
        return sum(c.requests for c in self._clients.values())

    def total_capacity(self) -> float:
        """Total server capacity ``sum_j W_j``."""
        return sum(n.capacity for n in self._nodes.values())

    def load_factor(self) -> float:
        """The paper's load ``lambda = sum_i r_i / sum_j W_j``."""
        capacity = self.total_capacity()
        if capacity == 0:
            return math.inf if self.total_requests() > 0 else 0.0
        return self.total_requests() / capacity

    def is_homogeneous(self) -> bool:
        """``True`` when all internal nodes share the same capacity."""
        capacities = {n.capacity for n in self._nodes.values()}
        return len(capacities) <= 1

    def uniform_capacity(self) -> float:
        """The shared capacity ``W`` of a homogeneous tree.

        Raises
        ------
        TreeStructureError
            If the tree is heterogeneous.
        """
        capacities = {n.capacity for n in self._nodes.values()}
        if len(capacities) != 1:
            raise TreeStructureError(
                "uniform_capacity() requires a homogeneous tree; capacities "
                f"found: {sorted(capacities)}"
            )
        return next(iter(capacities))

    def has_qos_bounds(self) -> bool:
        """``True`` when at least one client has a finite QoS bound."""
        return any(math.isfinite(c.qos) for c in self._clients.values())

    def has_bandwidth_limits(self) -> bool:
        """``True`` when at least one link has a finite bandwidth."""
        return any(math.isfinite(l.bandwidth) for l in self._links.values())

    # ------------------------------------------------------------------ #
    # conversions and dunder methods
    # ------------------------------------------------------------------ #
    def to_networkx(self):
        """Export the tree as a :class:`networkx.DiGraph` (edges child -> parent)."""
        import networkx as nx

        graph = nx.DiGraph()
        for node in self._nodes.values():
            graph.add_node(
                node.id,
                kind="node",
                capacity=node.capacity,
                storage_cost=node.storage_cost,
            )
        for client in self._clients.values():
            graph.add_node(
                client.id, kind="client", requests=client.requests, qos=client.qos
            )
        for link in self._links.values():
            graph.add_edge(
                link.child,
                link.parent,
                comm_time=link.comm_time,
                bandwidth=link.bandwidth,
            )
        return graph

    def with_nodes(self, nodes: Iterable[InternalNode]) -> "TreeNetwork":
        """Return a copy of this tree with some internal nodes replaced.

        Nodes are matched by identifier; the topology is unchanged.  This is
        used e.g. to re-cost a tree (Replica Counting sets every storage cost
        to 1) without rebuilding it.
        """
        override = {n.id: n for n in nodes}
        unknown = set(override) - set(self._nodes)
        if unknown:
            raise TreeStructureError(f"unknown internal nodes {sorted(map(repr, unknown))}")
        new_nodes = [override.get(nid, node) for nid, node in self._nodes.items()]
        return TreeNetwork(new_nodes, self._clients.values(), self._links.values())

    def with_clients(self, clients: Iterable[Client]) -> "TreeNetwork":
        """Return a copy of this tree with some clients replaced (matched by id)."""
        override = {c.id: c for c in clients}
        unknown = set(override) - set(self._clients)
        if unknown:
            raise TreeStructureError(f"unknown clients {sorted(map(repr, unknown))}")
        new_clients = [override.get(cid, client) for cid, client in self._clients.items()]
        return TreeNetwork(self._nodes.values(), new_clients, self._links.values())

    def with_requests(self, requests: Mapping[NodeId, float]) -> "TreeNetwork":
        """Return an *epoch fork* of this tree with some request rates replaced.

        Unlike :meth:`with_clients`, which rebuilds and re-validates the whole
        network, this fork reuses every structural cache (topology, depths and
        the memo of ancestor chains and subtree client layouts, whichever of
        the two trees builds them first) of the original tree: only the
        affected :class:`Client` records, the subtree request sums and the
        workload vectors of the cached :class:`~repro.core.index.TreeIndex`
        are recomputed.  Subtree request sums are re-accumulated in the exact
        order of a fresh build, so the fork is bit-for-bit identical to
        ``with_clients`` with the same rates -- which is what lets the
        incremental re-solver guarantee solutions identical to from-scratch
        solves on dynamic-workload epochs.

        Rates equal to the current ones are ignored; when nothing actually
        changes the fork still returns a new (cheap) instance so epochs stay
        distinct objects.
        """
        changed: Dict[NodeId, float] = {}
        for client_id, value in requests.items():
            client = self._clients.get(client_id)
            if client is None:
                raise TreeStructureError(f"unknown client {client_id!r}")
            value = float(value)
            if value != client.requests:
                changed[client_id] = value

        fork = TreeNetwork.__new__(TreeNetwork)
        # Shared immutable structure: same topology, links and internal nodes;
        # the memo is shared too, so a cache either tree builds serves both.
        fork._nodes = self._nodes
        fork._links = self._links
        fork._parent = self._parent
        fork._children = self._children
        fork._root = self._root
        fork._order = self._order
        fork._depth = self._depth
        fork._post_order_nodes = self._post_order_nodes
        fork._node_ids = self._node_ids
        fork._client_ids = self._client_ids
        fork._memo = self._memo
        fork._hash = None
        fork._index_cache = None

        if not changed:
            fork._clients = self._clients
            fork._subtree_requests = self._subtree_requests
            fork._patch_source = (self, ())
            return fork

        fork._clients = dict(self._clients)
        for client_id, value in changed.items():
            fork._clients[client_id] = replace(self._clients[client_id], requests=value)
        # Same accumulation order as a fresh build: the floats match exactly.
        fork._subtree_requests = _subtree_sums(
            fork._clients, self._children, self._post_order_nodes
        )
        fork._patch_source = (self, tuple(changed))
        return fork

    def __len__(self) -> int:
        return self.size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TreeNetwork):
            return NotImplemented
        return (
            self._nodes == other._nodes
            and self._clients == other._clients
            and self._links == other._links
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(
                (
                    frozenset(self._nodes.items()),
                    frozenset(self._clients.items()),
                    frozenset(self._parent.items()),
                )
            )
        return self._hash

    def __repr__(self) -> str:
        return (
            f"TreeNetwork(|N|={len(self._nodes)}, |C|={len(self._clients)}, "
            f"root={self._root!r}, lambda={self.load_factor():.3f})"
        )


def _subtree_sums(
    clients: Mapping[NodeId, Client],
    children: Mapping[NodeId, List[NodeId]],
    post_order: Sequence[NodeId],
) -> Dict[NodeId, float]:
    """Subtree request sums, added child by child in link order, children
    before parents: fresh builds and epoch forks share this order, so their
    floats agree bit for bit."""
    sums: Dict[NodeId, float] = {cid: client.requests for cid, client in clients.items()}
    for nid in post_order:
        total = 0.0
        for child in children[nid]:
            total += sums[child]
        sums[nid] = total
    return sums


def _item_error(
    nodes: Sequence[InternalNode], clients: Sequence[Client], links: Sequence[Link]
) -> Optional[TreeStructureError]:
    """The first per-item defect of a tree's parts, in declaration order.

    The constructor checks its input in bulk and runs this loop only to
    name the offender once the bulk checks fail.
    """
    node_ids: set = set()
    for node in nodes:
        if node.id in node_ids:
            return TreeStructureError(f"duplicate internal node id {node.id!r}")
        node_ids.add(node.id)
    client_ids: set = set()
    for client in clients:
        if client.id in client_ids:
            return TreeStructureError(f"duplicate client id {client.id!r}")
        if client.id in node_ids:
            return TreeStructureError(
                f"identifier {client.id!r} used both as client and internal node"
            )
        client_ids.add(client.id)
    children: set = set()
    for link in links:
        if link.child not in node_ids and link.child not in client_ids:
            return TreeStructureError(f"link child {link.child!r} is not declared")
        if link.parent not in node_ids:
            return TreeStructureError(
                f"link parent {link.parent!r} is not an internal node "
                "(clients must be leaves)"
            )
        if link.child in children:
            return TreeStructureError(f"{link.child!r} has more than one parent")
        if link.child == link.parent:
            return TreeStructureError(f"self-loop on {link.child!r}")
        children.add(link.child)
    return None


def _reject(
    nodes: Sequence[InternalNode],
    clients: Sequence[Client],
    links: Sequence[Link],
    message: str,
) -> TreeStructureError:
    """A global structure error, unless a per-item defect comes first."""
    return _item_error(nodes, clients, links) or TreeStructureError(message)

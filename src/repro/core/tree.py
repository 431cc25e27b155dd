"""The distribution-tree data structure.

The framework of the paper (Section 2) considers a distribution tree ``T``
whose nodes are partitioned into a set of *clients* ``C`` (the leaves) and a
set of *internal nodes* ``N`` (candidate servers).  Each client ``i`` issues
``r_i`` requests per time unit and carries a QoS bound ``q_i``; each internal
node ``j`` has a processing capacity ``W_j`` and a storage cost ``s_j``;
each tree edge ``l`` has a communication time ``comm_l`` and a bandwidth
``BW_l``.

:class:`TreeNetwork` is the single authoritative representation of such a
tree used throughout the package.  An instance is a few numbers per element,
so the tree keeps them as typed columns (``array.array``: indexing yields
Python floats, and ``numpy.frombuffer`` gives zero-copy views) in one
:class:`_Store` per topology:

* one id -> position map: internal nodes take positions ``0 .. |N|-1`` and
  clients ``|N| .. |N|+|C|-1``, each population in declaration order;
* per position: parent position, depth, and the uplink's communication time
  and bandwidth; per internal node: capacity and storage cost; per client:
  QoS bound;
* the children of every internal node in link order (CSR form), the
  breadth-first order with its level offsets, and the link order;
* link QoS metrics and record metadata as sparse position-keyed maps.

Request rates and subtree request sums are per-epoch columns on the tree
itself, so an epoch fork (:meth:`TreeNetwork.with_requests`) copies one
column and shares the store -- and with it the position map, the structural
memo and the caches :class:`~repro.core.index.TreeIndex` keeps there.

:class:`InternalNode`, :class:`Client` and :class:`Link` are slotted frozen
views: only the public accessors (:meth:`~TreeNetwork.node`,
:meth:`~TreeNetwork.client`, :meth:`~TreeNetwork.link` and their iterating
forms) build them.  Internal readers use the column accessors
(:meth:`~TreeNetwork.capacity`, :meth:`~TreeNetwork.requests`,
:meth:`~TreeNetwork.column`, ...) and build none.  The records remain the
way to *declare* elements: the constructor, :class:`TreeBuilder
<repro.core.builder.TreeBuilder>` and :meth:`~TreeNetwork.with_nodes` take
them.

Construction is one vectorised O(n) pass: values and structure are checked
in bulk over the columns, and only when a check fails does a per-item scan
name the first offender in declaration order.  Ancestor chains, subtree
client tuples and the children split by kind are memoised on first use,
position-indexed, and shared with every fork.

Node identifiers can be any hashable value; strings are used throughout the
examples and generators.
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass, field, replace
from itertools import chain, repeat
from operator import attrgetter
from typing import Any, Dict, Hashable, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, TYPE_CHECKING

import numpy as np

from repro.core.exceptions import TreeStructureError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.qos.metrics import QoSMetrics

NodeId = Hashable

__all__ = ["NodeId", "InternalNode", "Client", "Link", "TreeNetwork"]


@dataclass(frozen=True, slots=True)
class InternalNode:
    """An internal tree node, i.e. a candidate replica server.

    A view: :meth:`TreeNetwork.node` and :meth:`TreeNetwork.nodes` build it
    from the tree's columns on access.  Constructing one declares a node for
    the :class:`TreeNetwork` constructor or :meth:`TreeNetwork.with_nodes`.

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


@dataclass(frozen=True, slots=True)
class Client:
    """A leaf client issuing requests.

    A view: :meth:`TreeNetwork.client` and :meth:`TreeNetwork.clients` build
    it from the tree's columns on access.  Constructing one declares a
    client for the :class:`TreeNetwork` constructor or
    :meth:`TreeNetwork.with_clients`.

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


@dataclass(frozen=True, slots=True)
class Link:
    """A tree edge ``child -> parent`` with latency and bandwidth attributes.

    A view: :meth:`TreeNetwork.link` and :meth:`TreeNetwork.links` build it
    from the tree's columns on access.  Constructing one declares a link for
    the :class:`TreeNetwork` constructor.

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


def _setters(cls, *names: str) -> Tuple[Any, ...]:
    """The slot setters of a slotted frozen record: a view built with
    ``object.__new__`` gets its fields through them, skipping ``__init__``
    and ``__post_init__``, whose checks construction already ran on the
    columns."""
    return tuple(cls.__dict__[name].__set__ for name in names)


_NODE_SLOTS = _setters(InternalNode, "id", "capacity", "storage_cost", "metadata")
_CLIENT_SLOTS = _setters(Client, "id", "requests", "qos", "metadata")
_LINK_SLOTS = _setters(Link, "child", "parent", "comm_time", "bandwidth", "metrics")
_new = object.__new__


def _floats(values: Iterable[float]) -> array:
    """A ``float64`` column of ``values`` (a numpy array is copied in bulk)."""
    if isinstance(values, np.ndarray):
        column = array("d")
        column.frombytes(np.ascontiguousarray(values, dtype=np.float64).tobytes())
        return column
    return array("d", values)


def _ints(values: np.ndarray) -> array:
    """An ``int64`` column of a numpy integer array."""
    column = array("q")
    column.frombytes(np.ascontiguousarray(values, dtype=np.int64).tobytes())
    return column


def _view(column: array) -> np.ndarray:
    """Read-only zero-copy numpy view of a column."""
    view = np.frombuffer(column, dtype=np.float64 if column.typecode == "d" else np.int64)
    view.flags.writeable = False
    return view


class _Memo:
    """Structural caches of one topology, built on first use and shared by a
    tree and every fork of it (:meth:`TreeNetwork.with_requests`).

    Every cache is a tuple indexed by position (element caches) or by node
    position (children caches); each holds at least the root's entry, so a
    built one is truthy: hot accessors read ``memo.x or tree._x``, and the
    ``_x`` property builds ``x`` once.
    """

    __slots__ = ("ancestors", "subtree_clients", "children", "child_nodes", "child_clients")

    def __init__(self) -> None:
        self.ancestors: Optional[Tuple[Tuple[NodeId, ...], ...]] = None
        self.subtree_clients: Optional[Tuple[Tuple[NodeId, ...], ...]] = None
        self.children: Optional[Tuple[Tuple[NodeId, ...], ...]] = None
        self.child_nodes: Optional[Tuple[Tuple[NodeId, ...], ...]] = None
        self.child_clients: Optional[Tuple[Tuple[NodeId, ...], ...]] = None


class _Store:
    """The columns of one topology (see the module docstring).

    Immutable once built: trees, their indexes and their forks share it,
    and the value-changing rebuilds (:meth:`TreeNetwork.with_nodes`,
    :meth:`TreeNetwork.with_clients`) copy it with new columns through
    :meth:`replaced`, which keeps the topology and the memo.
    """

    __slots__ = (
        "pos",  # id -> position
        "ids",  # id of every position
        "n_nodes",
        "root",  # root position
        "parent",  # parent position per position (-1 at the root)
        "depth",  # links to the root per position
        "order",  # positions in breadth-first order
        "levels",  # offsets of each depth level in ``order``
        "kid_start",  # children of node p: kids[kid_start[p]:kid_start[p + 1]]
        "kids",  # child positions grouped by parent, link order within
        "link_order",  # child positions in link order
        "node_ids",  # breadth-first node ids
        "client_ids",  # breadth-first client ids
        "capacity",  # per node position
        "storage",  # per node position
        "qos",  # per client (position - n_nodes)
        "comm",  # uplink comm time per position (0.0 at the root)
        "bandwidth",  # uplink bandwidth per position (inf at the root)
        "metrics",  # position -> QoSMetrics, annotated uplinks only
        "metadata",  # position -> record metadata, non-empty only
        "endpoints",  # position -> (child, parent) ids as the uplink declared
        # them, where a type differs from the declared id's (1.0 for 1)
        "memo",
    )

    def replaced(self, **columns) -> "_Store":
        """A copy sharing everything but ``columns``."""
        copy = _Store.__new__(_Store)
        for name in _Store.__slots__:
            setattr(copy, name, columns.get(name, getattr(self, name)))
        return copy

    def ancestor_chains(self) -> Tuple[Tuple[NodeId, ...], ...]:
        """Bottom-up ancestor chains by position, excluding the element,
        built into the memo on first use."""
        memo = self.memo
        if memo.ancestors is None:
            # Siblings share their parent's chain-through-itself, so the
            # tuples cost O(|N| * depth) and the clients add one reference
            # each.  The extra last entry is the root's (empty) chain,
            # which parent -1 reads.
            ids, parent = self.ids, self.parent
            through: List[Tuple[NodeId, ...]] = [()] * (self.n_nodes + 1)
            for p in self.bfs(clients=False).tolist():  # parents first
                through[p] = (ids[p],) + through[parent[p]]
            memo.ancestors = tuple(map(through.__getitem__, parent))
        return memo.ancestors

    def bfs(self, clients: bool) -> np.ndarray:
        """Positions of the nodes (or clients) in breadth-first order."""
        order = _view(self.order)
        return order[order >= self.n_nodes] if clients else order[order < self.n_nodes]

    def same_layout(self, other: "_Store") -> bool:
        """Same ids at the same positions."""
        return self.pos is other.pos or (
            self.n_nodes == other.n_nodes and self.ids == other.ids
        )

    def same_topology(self, other: "_Store") -> bool:
        """Same node ids, client ids and child -> parent map (any layout)."""
        if self.same_layout(other):
            return self.parent is other.parent or self.parent == other.parent
        if set(self.pos) != set(other.pos) or len(self.pos) != len(other.pos):
            return False
        return _kinds_and_parents(self) == _kinds_and_parents(other)


def _kinds_and_parents(store: _Store) -> Tuple[frozenset, Dict[NodeId, NodeId]]:
    ids, parent = store.ids, store.parent
    return (
        frozenset(store.ids[: store.n_nodes]),
        {ids[p]: ids[q] for p, q in enumerate(parent) if q >= 0},
    )


class TreeNetwork:
    """An immutable distribution tree of internal nodes and leaf clients.

    Instances are usually created through
    :class:`repro.core.builder.TreeBuilder`, the generators of
    :mod:`repro.workloads` or :func:`repro.core.serialization.tree_from_dict`;
    the constructor below accepts component records (:class:`InternalNode`,
    :class:`Client`, :class:`Link`) and checks the global structure (single
    root, acyclicity, clients as leaves).

    Construction is O(n) and vectorised: the records' fields are read into
    columns, checked in bulk (numpy comparisons over the column views), the
    children are grouped by a stable sort and the breadth-first order is
    expanded level by level.  Only when a check fails does a per-item scan
    run, to name the first offender in declaration order.

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
        "_store",
        "_requests",
        "_subtree",
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
        metadata = _sparse(nodes, "metadata", 0)
        metadata.update(_sparse(clients, "metadata", len(nodes)))
        store, requests = _assemble(
            list(map(_ID, nodes)),
            _floats(map(attrgetter("capacity"), nodes)),
            _floats(map(attrgetter("storage_cost"), nodes)),
            list(map(_ID, clients)),
            _floats(map(attrgetter("requests"), clients)),
            _floats(map(attrgetter("qos"), clients)),
            list(map(attrgetter("child"), links)),
            list(map(attrgetter("parent"), links)),
            _floats(map(attrgetter("comm_time"), links)),
            _floats(map(attrgetter("bandwidth"), links)),
            _sparse(links, "metrics", 0),
            metadata,
        )
        self._adopt(store, requests, _subtree_sums(store, requests))

    @classmethod
    def from_columns(
        cls,
        node_ids: Sequence[NodeId],
        capacity: Iterable[float],
        storage_cost: Iterable[float],
        client_ids: Sequence[NodeId],
        requests: Iterable[float],
        qos: Iterable[float],
        link_child: Sequence[NodeId],
        link_parent: Sequence[NodeId],
        comm_time: Iterable[float],
        bandwidth: Iterable[float],
        metrics: Optional[Mapping[int, "QoSMetrics"]] = None,
        metadata: Optional[Mapping[int, Mapping[str, Any]]] = None,
    ) -> "TreeNetwork":
        """Build a tree straight from columns, with no records.

        Node and client columns are aligned with ``node_ids`` and
        ``client_ids`` (declaration order); link columns with
        ``link_child``/``link_parent`` (link order).  ``storage_cost``
        holds resolved costs (no ``None``); ``metrics`` maps a link's
        index to its :class:`~repro.qos.metrics.QoSMetrics` and
        ``metadata`` an element's position (nodes first, then clients) to
        its record metadata.  The checks and error messages are the
        constructor's.
        """
        store, requests_column = _assemble(
            list(node_ids),
            _floats(capacity),
            _floats(storage_cost),
            list(client_ids),
            _floats(requests),
            _floats(qos),
            list(link_child),
            list(link_parent),
            _floats(comm_time),
            _floats(bandwidth),
            dict(metrics or {}),
            dict(metadata or {}),
        )
        tree = cls.__new__(cls)
        tree._adopt(store, requests_column, _subtree_sums(store, requests_column))
        return tree

    def _sub_tree(self, nodes: np.ndarray, clients: np.ndarray, links: np.ndarray) -> "TreeNetwork":
        """A tree over some of this tree's elements, given by position and
        declared in the given order (``links`` lists link child positions),
        with its columns gathered from this tree's."""
        store = self._store
        ids, parent = store.ids, store.parent
        children = links.tolist()
        ends = [store.endpoints.get(c) or (ids[c], ids[parent[c]]) for c in children]
        members = nodes.tolist() + clients.tolist()
        return TreeNetwork.from_columns(
            list(map(ids.__getitem__, nodes.tolist())),
            _view(store.capacity)[nodes],
            _view(store.storage)[nodes],
            list(map(ids.__getitem__, clients.tolist())),
            _view(self._requests)[clients - store.n_nodes],
            _view(store.qos)[clients - store.n_nodes],
            [child for child, _ in ends],
            [above for _, above in ends],
            _view(store.comm)[links],
            _view(store.bandwidth)[links],
            {k: store.metrics[c] for k, c in enumerate(children) if c in store.metrics},
            {k: store.metadata[p] for k, p in enumerate(members) if p in store.metadata},
        )

    def _adopt(self, store: _Store, requests: array, subtree: array) -> None:
        self._store = store
        self._requests = requests
        self._subtree = subtree
        self._index_cache = None
        self._patch_source = None
        self._hash = None

    def _fork(self, store: _Store, requests: array, subtree: array) -> "TreeNetwork":
        fork = TreeNetwork.__new__(TreeNetwork)
        fork._adopt(store, requests, subtree)
        return fork

    # ------------------------------------------------------------------ #
    # position lookups
    # ------------------------------------------------------------------ #
    def _node_position(self, node_id: NodeId) -> int:
        store = self._store
        position = store.pos.get(node_id, _ABSENT)
        if position < store.n_nodes:
            return position
        raise TreeStructureError(f"unknown internal node {node_id!r}")

    def _client_slot(self, client_id: NodeId) -> int:
        """Index of a client in the client columns (position - |N|)."""
        slot = self._store.pos.get(client_id, -1) - self._store.n_nodes
        if slot < 0:
            raise TreeStructureError(f"unknown client {client_id!r}")
        return slot

    def _position(self, element_id: NodeId) -> int:
        try:
            return self._store.pos[element_id]
        except KeyError:
            raise TreeStructureError(f"unknown element {element_id!r}") from None

    # ------------------------------------------------------------------ #
    # memoised structural caches (see _Memo)
    # ------------------------------------------------------------------ #
    @property
    def _ancestors(self) -> Tuple[Tuple[NodeId, ...], ...]:
        """Bottom-up ancestor chains by position, excluding the element."""
        return self._store.ancestor_chains()

    @property
    def _subtree_clients(self) -> Tuple[Tuple[NodeId, ...], ...]:
        """Clients of every subtree by position: the concatenation of the
        children's tuples in link order -- the order TreeIndex's client
        layout reproduces."""
        memo = self._store.memo
        if memo.subtree_clients is None:
            store = self._store
            ids, kids, start = store.ids, store.kids, store.kid_start
            tuples: List[Tuple[NodeId, ...]] = [()] * store.n_nodes
            tuples.extend((cid,) for cid in ids[store.n_nodes :])
            for p in store.bfs(clients=False)[::-1].tolist():  # children first
                tuples[p] = tuple(
                    chain.from_iterable(map(tuples.__getitem__, kids[start[p] : start[p + 1]]))
                )
            memo.subtree_clients = tuple(tuples)
        return memo.subtree_clients

    def _split_children(self, keep) -> Tuple[Tuple[NodeId, ...], ...]:
        store = self._store
        ids, kids, start = store.ids, store.kids, store.kid_start
        return tuple(
            tuple(ids[c] for c in kids[start[p] : start[p + 1]] if keep(c))
            for p in range(store.n_nodes)
        )

    @property
    def _children_tuples(self) -> Tuple[Tuple[NodeId, ...], ...]:
        memo = self._store.memo
        if memo.children is None:
            memo.children = self._split_children(lambda c: True)
        return memo.children

    @property
    def _child_nodes(self) -> Tuple[Tuple[NodeId, ...], ...]:
        memo = self._store.memo
        if memo.child_nodes is None:
            memo.child_nodes = self._split_children(self._store.n_nodes.__gt__)
        return memo.child_nodes

    @property
    def _child_clients(self) -> Tuple[Tuple[NodeId, ...], ...]:
        memo = self._store.memo
        if memo.child_clients is None:
            memo.child_clients = self._split_children(self._store.n_nodes.__le__)
        return memo.child_clients

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #
    @property
    def root(self) -> NodeId:
        """Identifier of the root internal node."""
        return self._store.ids[self._store.root]

    @property
    def node_ids(self) -> Tuple[NodeId, ...]:
        """Identifiers of the internal nodes, in breadth-first order."""
        return self._store.node_ids

    @property
    def client_ids(self) -> Tuple[NodeId, ...]:
        """Identifiers of the clients, in breadth-first order."""
        return self._store.client_ids

    @property
    def link_keys(self) -> Tuple[Tuple[NodeId, NodeId], ...]:
        """``(child, parent)`` keys of every link, in link order."""
        store = self._store
        ids, children, endpoints = store.ids, store.link_order, store.endpoints
        parents = map(ids.__getitem__, map(store.parent.__getitem__, children))
        keys = tuple(zip(map(ids.__getitem__, children), parents))
        if endpoints:
            keys = tuple(map(endpoints.get, children, keys))
        return keys

    def node(self, node_id: NodeId) -> InternalNode:
        """Return the :class:`InternalNode` view of ``node_id``."""
        return self._node_view(self._node_position(node_id))

    def client(self, client_id: NodeId) -> Client:
        """Return the :class:`Client` view of ``client_id``."""
        return self._client_view(self._client_slot(client_id))

    def link(self, child: NodeId, parent: Optional[NodeId] = None) -> Link:
        """Return the link going up from ``child`` (optionally checking its parent)."""
        actual_parent = self.parent(child)
        if actual_parent is None:
            raise TreeStructureError(f"{child!r} is the root and has no uplink")
        if parent is not None and parent != actual_parent:
            raise TreeStructureError(
                f"{child!r} has parent {actual_parent!r}, not {parent!r}"
            )
        return self._link_view(self._store.pos[child])

    # The views fill their slots directly (see _setters); absent metadata
    # becomes a fresh {}, as the records' default.
    def _node_view(self, p: int) -> InternalNode:
        store = self._store
        view = _new(InternalNode)
        set_id, set_capacity, set_cost, set_metadata = _NODE_SLOTS
        set_id(view, store.ids[p])
        set_capacity(view, store.capacity[p])
        set_cost(view, store.storage[p])
        set_metadata(view, store.metadata.get(p) or {})
        return view

    def _client_view(self, k: int) -> Client:
        store = self._store
        p = store.n_nodes + k
        view = _new(Client)
        set_id, set_requests, set_qos, set_metadata = _CLIENT_SLOTS
        set_id(view, store.ids[p])
        set_requests(view, self._requests[k])
        set_qos(view, store.qos[k])
        set_metadata(view, store.metadata.get(p) or {})
        return view

    def _link_view(self, p: int) -> Link:
        store = self._store
        child, parent = store.endpoints.get(p) or (store.ids[p], store.ids[store.parent[p]])
        view = _new(Link)
        set_child, set_parent, set_comm, set_bandwidth, set_metrics = _LINK_SLOTS
        set_child(view, child)
        set_parent(view, parent)
        set_comm(view, store.comm[p])
        set_bandwidth(view, store.bandwidth[p])
        set_metrics(view, store.metrics.get(p))
        return view

    def is_client(self, element_id: NodeId) -> bool:
        """``True`` when ``element_id`` identifies a client leaf."""
        store = self._store
        return store.pos.get(element_id, -1) >= store.n_nodes

    def is_node(self, element_id: NodeId) -> bool:
        """``True`` when ``element_id`` identifies an internal node."""
        store = self._store
        return store.pos.get(element_id, _ABSENT) < store.n_nodes

    def __contains__(self, element_id: NodeId) -> bool:
        return element_id in self._store.pos

    def nodes(self) -> Iterator[InternalNode]:
        """Iterate over internal node views in breadth-first order."""
        return map(self._node_view, self._store.bfs(clients=False).tolist())

    def clients(self) -> Iterator[Client]:
        """Iterate over client views in breadth-first order."""
        offset = self._store.n_nodes
        return map(self._client_view, (self._store.bfs(clients=True) - offset).tolist())

    def links(self) -> Iterator[Link]:
        """Iterate over link views, in link order."""
        return map(self._link_view, self._store.link_order)

    # ------------------------------------------------------------------ #
    # column accessors (no views)
    # ------------------------------------------------------------------ #
    def capacity(self, node_id: NodeId) -> float:
        """Processing capacity ``W_j`` of an internal node."""
        # _node_position inlined: every heuristic reads this per node.
        store = self._store
        position = store.pos.get(node_id, _ABSENT)
        if position < store.n_nodes:
            return store.capacity[position]
        raise TreeStructureError(f"unknown internal node {node_id!r}")

    def storage_cost(self, node_id: NodeId) -> float:
        """Declared storage cost ``s_j`` of an internal node."""
        return self._store.storage[self._node_position(node_id)]

    def node_values(self, name: str, node_ids: Iterable[NodeId]) -> List[float]:
        """``"capacity"`` or ``"storage_cost"`` of each of ``node_ids``, in
        their order, read from the column by position; the first unknown id
        raises like :meth:`capacity`."""
        store = self._store
        node_ids = list(node_ids)
        positions = list(map(store.pos.get, node_ids, repeat(_ABSENT)))
        if positions and max(positions) >= store.n_nodes:
            for node_id in node_ids:
                self._node_position(node_id)
        values = store.capacity if name == "capacity" else store.storage
        return list(map(values.__getitem__, positions))

    def requests(self, client_id: NodeId) -> float:
        """Request rate ``r_i`` of a client."""
        return self._requests[self._client_slot(client_id)]

    def qos(self, client_id: NodeId) -> float:
        """QoS bound ``q_i`` of a client (``inf`` when unbounded)."""
        # _client_slot inlined: QoS checks read this per (client, server).
        store = self._store
        slot = store.pos.get(client_id, -1) - store.n_nodes
        if slot >= 0:
            return store.qos[slot]
        raise TreeStructureError(f"unknown client {client_id!r}")

    def bandwidth(self, child: NodeId) -> float:
        """Bandwidth of the uplink of ``child`` (``inf`` when unbounded)."""
        position = self._position(child)
        if position == self._store.root:
            raise TreeStructureError(f"{child!r} is the root and has no uplink")
        return self._store.bandwidth[position]

    def column(self, name: str) -> List[float]:
        """One field of every element, as Python floats in public order.

        Node fields (``"capacity"``, ``"storage_cost"``) follow
        :attr:`node_ids`, client fields (``"requests"``, ``"qos"``)
        follow :attr:`client_ids` and link fields (``"comm_time"``,
        ``"bandwidth"``) follow :attr:`link_keys`.
        """
        store = self._store
        if name in ("capacity", "storage_cost"):
            values = store.capacity if name == "capacity" else store.storage
            return _view(values)[store.bfs(clients=False)].tolist()
        if name in ("requests", "qos"):
            values = self._requests if name == "requests" else store.qos
            return _view(values)[store.bfs(clients=True) - store.n_nodes].tolist()
        if name in ("comm_time", "bandwidth"):
            values = store.comm if name == "comm_time" else store.bandwidth
            return _view(values)[_view(store.link_order)].tolist()
        raise ValueError(f"unknown column {name!r}")

    # ------------------------------------------------------------------ #
    # structural queries
    # ------------------------------------------------------------------ #
    def parent(self, element_id: NodeId) -> Optional[NodeId]:
        """Parent of ``element_id`` or ``None`` for the root."""
        store = self._store
        position = self._position(element_id)
        parent = store.parent[position]
        if parent < 0:
            return None
        declared = store.endpoints.get(position)
        return store.ids[parent] if declared is None else declared[1]

    def children(self, node_id: NodeId) -> Tuple[NodeId, ...]:
        """Children (internal nodes and clients) of an internal node, in link order."""
        position = self._node_position(node_id)
        return (self._store.memo.children or self._children_tuples)[position]

    def child_nodes(self, node_id: NodeId) -> Tuple[NodeId, ...]:
        """Children of ``node_id`` that are internal nodes."""
        position = self._node_position(node_id)
        return (self._store.memo.child_nodes or self._child_nodes)[position]

    def child_clients(self, node_id: NodeId) -> Tuple[NodeId, ...]:
        """Children of ``node_id`` that are clients."""
        position = self._node_position(node_id)
        return (self._store.memo.child_clients or self._child_clients)[position]

    def ancestors(self, element_id: NodeId) -> Tuple[NodeId, ...]:
        """Ancestors of ``element_id``, bottom-up, excluding the element itself.

        This is the paper's ``Ancestors(k)`` set: the internal nodes on the
        unique path from ``element_id`` (excluded) up to the root (included).
        """
        store = self._store
        try:
            return store.memo.ancestors[store.pos[element_id]]
        except KeyError:
            raise TreeStructureError(f"unknown element {element_id!r}") from None
        except TypeError:
            if store.memo.ancestors is not None:
                raise  # an unhashable id
        return self._ancestors[self._position(element_id)]

    def is_ancestor(self, ancestor_id: NodeId, element_id: NodeId) -> bool:
        """``True`` when ``ancestor_id`` lies on the path from ``element_id`` to the root."""
        return ancestor_id in self.ancestors(element_id)

    def depth(self, element_id: NodeId) -> int:
        """Number of links between ``element_id`` and the root."""
        return self._store.depth[self._position(element_id)]

    def height(self) -> int:
        """Maximum depth over all elements of the tree."""
        return len(self._store.levels) - 2

    def _path(self, element_id: NodeId, ancestor_id: NodeId) -> List[int]:
        """Positions of the uplinks on ``path[element_id -> ancestor_id]``."""
        if element_id == ancestor_id:
            return []
        if ancestor_id not in self.ancestors(element_id):
            raise TreeStructureError(
                f"{ancestor_id!r} is not an ancestor of {element_id!r}"
            )
        store = self._store
        parent = store.parent
        stop = store.pos[ancestor_id]
        current = store.pos[element_id]
        path = []
        while current != stop:
            path.append(current)
            current = parent[current]
        return path

    def path_links(self, element_id: NodeId, ancestor_id: NodeId) -> Tuple[Link, ...]:
        """Links of ``path[element_id -> ancestor_id]`` (paper notation).

        ``ancestor_id`` must be an ancestor of ``element_id`` (or the element
        itself, yielding an empty path).
        """
        return tuple(map(self._link_view, self._path(element_id, ancestor_id)))

    def distance(self, element_id: NodeId, ancestor_id: NodeId) -> int:
        """Hop count ``d(i, s)`` between an element and one of its ancestors."""
        if element_id == ancestor_id:
            return 0
        try:  # the chain runs bottom-up from the parent, one hop away
            return self.ancestors(element_id).index(ancestor_id) + 1
        except ValueError:
            raise TreeStructureError(
                f"{ancestor_id!r} is not an ancestor of {element_id!r}"
            ) from None

    def latency(self, element_id: NodeId, ancestor_id: NodeId) -> float:
        """Sum of link communication times on ``path[element_id -> ancestor_id]``.

        Added link by link from ``element_id`` upward with plain ``+``:
        ``sum()`` compensates float sums from Python 3.12 on, and the QoS
        threshold climb of :class:`repro.core.index.TreeIndex` adds in
        this order, so a latency bound admits the same servers per pair
        and by threshold on every Python.
        """
        comm = self._store.comm
        total = 0
        for position in self._path(element_id, ancestor_id):
            total += comm[position]
        return total

    def subtree_clients(self, node_id: NodeId) -> Tuple[NodeId, ...]:
        """Clients located in ``subtree(node_id)`` (paper's ``clients(j)``)."""
        position = self._position(node_id)
        return (self._store.memo.subtree_clients or self._subtree_clients)[position]

    def subtree_requests(self, node_id: NodeId) -> float:
        """Total number of requests issued inside ``subtree(node_id)``."""
        position = self._position(node_id)
        n_nodes = self._store.n_nodes
        if position < n_nodes:
            return self._subtree[position]
        return self._requests[position - n_nodes]

    def subtree_nodes(self, node_id: NodeId) -> Tuple[NodeId, ...]:
        """Internal nodes of ``subtree(node_id)``, including ``node_id`` itself."""
        self._node_position(node_id)
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
        return self.node_ids[::-1]

    # ------------------------------------------------------------------ #
    # aggregate quantities
    # ------------------------------------------------------------------ #
    @property
    def size(self) -> int:
        """Problem size ``s = |C| + |N|`` used throughout the paper."""
        return len(self._store.ids)

    def total_requests(self) -> float:
        """Total request rate ``sum_i r_i`` (added in declaration order)."""
        return sum(self._requests)

    def total_capacity(self) -> float:
        """Total server capacity ``sum_j W_j`` (added in declaration order)."""
        return sum(self._store.capacity)

    def load_factor(self) -> float:
        """The paper's load ``lambda = sum_i r_i / sum_j W_j``."""
        capacity = self.total_capacity()
        if capacity == 0:
            return math.inf if self.total_requests() > 0 else 0.0
        return self.total_requests() / capacity

    def is_homogeneous(self) -> bool:
        """``True`` when all internal nodes share the same capacity."""
        return len(set(self._store.capacity)) <= 1

    def uniform_capacity(self) -> float:
        """The shared capacity ``W`` of a homogeneous tree.

        Raises
        ------
        TreeStructureError
            If the tree is heterogeneous.
        """
        capacities = set(self._store.capacity)
        if len(capacities) != 1:
            raise TreeStructureError(
                "uniform_capacity() requires a homogeneous tree; capacities "
                f"found: {sorted(capacities)}"
            )
        return next(iter(capacities))

    def has_qos_bounds(self) -> bool:
        """``True`` when at least one client has a finite QoS bound."""
        return bool(np.isfinite(_view(self._store.qos)).any())

    def has_bandwidth_limits(self) -> bool:
        """``True`` when at least one link has a finite bandwidth."""
        return bool(np.isfinite(_view(self._store.bandwidth)).any())

    # ------------------------------------------------------------------ #
    # conversions and dunder methods
    # ------------------------------------------------------------------ #
    def to_networkx(self):
        """Export the tree as a :class:`networkx.DiGraph` (edges child -> parent)."""
        import networkx as nx

        graph = nx.DiGraph()
        for node in self.nodes():
            graph.add_node(
                node.id,
                kind="node",
                capacity=node.capacity,
                storage_cost=node.storage_cost,
            )
        for client in self.clients():
            graph.add_node(
                client.id, kind="client", requests=client.requests, qos=client.qos
            )
        for link in self.links():
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
        to 1) without rebuilding it: the copy shares the position map and
        the structural memo, and gets new capacity and storage columns.
        """
        store = self._store
        override = {n.id: n for n in nodes}
        unknown = [nid for nid in override if store.pos.get(nid, _ABSENT) >= store.n_nodes]
        if unknown:
            raise TreeStructureError(f"unknown internal nodes {sorted(map(repr, unknown))}")
        capacity, storage = array("d", store.capacity), array("d", store.storage)
        metadata = dict(store.metadata)
        for node_id, node in override.items():
            p = store.pos[node_id]
            capacity[p] = node.capacity
            storage[p] = node.storage_cost
            _set_sparse(metadata, p, node.metadata)
        replaced = store.replaced(capacity=capacity, storage=storage, metadata=metadata)
        return self._fork(replaced, self._requests, self._subtree)

    def with_clients(self, clients: Iterable[Client]) -> "TreeNetwork":
        """Return a copy of this tree with some clients replaced (matched by id)."""
        store = self._store
        override = {c.id: c for c in clients}
        unknown = [cid for cid in override if store.pos.get(cid, -1) < store.n_nodes]
        if unknown:
            raise TreeStructureError(f"unknown clients {sorted(map(repr, unknown))}")
        requests, qos = array("d", self._requests), array("d", store.qos)
        metadata = dict(store.metadata)
        for client_id, client in override.items():
            p = store.pos[client_id]
            requests[p - store.n_nodes] = client.requests
            qos[p - store.n_nodes] = client.qos
            _set_sparse(metadata, p, client.metadata)
        replaced = store.replaced(qos=qos, metadata=metadata)
        return self._fork(replaced, requests, _subtree_sums(replaced, requests))

    def with_requests(self, requests: Mapping[NodeId, float]) -> "TreeNetwork":
        """Return an *epoch fork* of this tree with some request rates replaced.

        Unlike :meth:`with_clients`, the fork shares this tree's store --
        the position map, every other column and the memo of ancestor
        chains and subtree client layouts, whichever of the two trees
        builds them first -- and copies only the requests column; the
        subtree request sums and the workload vectors of the cached
        :class:`~repro.core.index.TreeIndex` are recomputed.  Subtree
        request sums are re-accumulated in the exact order of a fresh build,
        so the fork is bit-for-bit identical to ``with_clients`` with the
        same rates -- which is what lets the incremental re-solver guarantee
        solutions identical to from-scratch solves on dynamic-workload
        epochs.

        Rates equal to the current ones are ignored; when nothing actually
        changes the fork still returns a new (cheap) instance so epochs stay
        distinct objects.
        """
        store = self._store
        current = self._requests
        changed: Dict[int, float] = {}
        for client_id, value in requests.items():
            slot = self._client_slot(client_id)
            value = float(value)
            if value != current[slot]:
                changed[slot] = value

        if not changed:
            fork = self._fork(store, current, self._subtree)
            fork._patch_source = (self, ())
            return fork

        for slot, value in changed.items():
            if not 0 <= value < math.inf:  # the view names the rejection
                Client(store.ids[store.n_nodes + slot], value, store.qos[slot])
        new = array("d", current)
        for slot, value in changed.items():
            new[slot] = value
        fork = self._fork(store, new, _subtree_sums(store, new))
        offset = store.n_nodes
        fork._patch_source = (self, tuple(store.ids[offset + slot] for slot in changed))
        return fork

    @property
    def nbytes(self) -> int:
        """Resident bytes of this tree's store and columns, identifiers aside.

        The columns' buffers, the position map with its int values (32
        bytes each) and the id tuples.
        :meth:`repro.session.PlacementSession.memory_estimate` charges a
        resident tree this much.
        """
        store = self._store
        columns = (
            store.parent, store.depth, store.order, store.kid_start, store.kids,
            store.link_order, store.capacity, store.storage, store.qos, store.comm,
            store.bandwidth, self._requests, self._subtree,
        )
        containers = (store.pos, store.ids, store.node_ids, store.client_ids)
        return (
            sum(column.itemsize * len(column) for column in columns)
            + sum(map(sys.getsizeof, containers))
            + 32 * len(store.ids)
        )

    def __len__(self) -> int:
        return self.size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TreeNetwork):
            return NotImplemented
        a, b = self._store, other._store
        if a.same_layout(b):  # compare the columns
            return (
                self._requests == other._requests
                and a.capacity == b.capacity
                and a.storage == b.storage
                and a.qos == b.qos
                and a.parent == b.parent
                and a.comm == b.comm
                and a.bandwidth == b.bandwidth
                and a.metrics == b.metrics
            )
        return (
            _node_rows(self) == _node_rows(other)
            and _client_rows(self) == _client_rows(other)
            and _link_rows(self) == _link_rows(other)
        )

    def __hash__(self) -> int:
        if self._hash is None:
            store = self._store
            ids, parent = store.ids, store.parent
            self._hash = hash(
                (
                    frozenset(_node_rows(self).items()),
                    frozenset(_client_rows(self).items()),
                    frozenset((ids[c], ids[parent[c]]) for c in store.link_order),
                )
            )
        return self._hash

    def __repr__(self) -> str:
        return (
            f"TreeNetwork(|N|={self._store.n_nodes}, "
            f"|C|={len(self._store.ids) - self._store.n_nodes}, "
            f"root={self.root!r}, lambda={self.load_factor():.3f})"
        )


_ID = attrgetter("id")

#: Stands in for the position of an unknown id in one-comparison kind
#: tests: it is above every position.
_ABSENT = sys.maxsize


def _sparse(records: Sequence, attribute: str, offset: int) -> Dict[int, Any]:
    """``{offset + k: value}`` for the records whose ``attribute`` is set."""
    return {
        offset + k: value
        for k, value in enumerate(map(attrgetter(attribute), records))
        if value
    }


def _set_sparse(mapping: Dict[int, Any], key: int, value: Any) -> None:
    if value:
        mapping[key] = value
    else:
        mapping.pop(key, None)


def _node_rows(tree: TreeNetwork) -> Dict[NodeId, Tuple[float, float]]:
    store = tree._store
    return dict(zip(store.ids, zip(store.capacity, store.storage)))


def _client_rows(tree: TreeNetwork) -> Dict[NodeId, Tuple[float, float]]:
    store = tree._store
    return dict(zip(store.ids[store.n_nodes :], zip(tree._requests, store.qos)))


def _link_rows(tree: TreeNetwork) -> Dict[NodeId, Tuple[Any, ...]]:
    store = tree._store
    ids, parent = store.ids, store.parent
    return {
        ids[c]: (ids[parent[c]], store.comm[c], store.bandwidth[c], store.metrics.get(c))
        for c in store.link_order
    }


def _subtree_sums(store: _Store, requests: array) -> array:
    """Subtree request sums of the internal nodes, by position.

    Every node's total starts at 0.0 and adds its children's sums in link
    order, children before parents -- the order fresh builds and epoch
    forks share, so their floats agree bit for bit.  Level by level from
    the deepest: ``np.bincount`` accumulates its weights sequentially in
    input order, and a level lists every parent's children in link order.
    """
    n_nodes = store.n_nodes
    sums = np.zeros(len(store.ids))
    sums[n_nodes:] = _view(requests)
    order, parent, levels = _view(store.order), _view(store.parent), store.levels
    for level in range(len(levels) - 2, 0, -1):
        members = order[levels[level] : levels[level + 1]]
        totals = np.bincount(parent[members], weights=sums[members], minlength=n_nodes)
        above = order[levels[level - 1] : levels[level]]
        above = above[above < n_nodes]
        sums[above] = totals[above]
    return _floats(sums[:n_nodes])


def _check_keys(mapping: Dict[int, Any], size: int, name: str, what: str) -> None:
    """Every key of a sparse map is an ``int`` in ``range(size)``."""
    for key in mapping:
        if type(key) is not int or not 0 <= key < size:
            raise TreeStructureError(f"{name} key {key!r} is not {what} in range({size})")


def _assemble(
    node_ids: List[NodeId],
    capacity: array,
    storage: array,
    client_ids: List[NodeId],
    requests: array,
    qos: array,
    link_child: List[NodeId],
    link_parent: List[NodeId],
    comm: array,
    bandwidth: array,
    metrics: Dict[int, Any],
    metadata: Dict[int, Any],
) -> Tuple[_Store, array]:
    """Check the columns of a tree and lay out its store.

    Value checks come first and then the structure, each in bulk; a failed
    check re-scans in declaration order to raise the first offender's
    error, with the messages of the record views.
    """
    with np.errstate(invalid="ignore"):
        _check_values(
            node_ids, capacity, storage, client_ids, requests, qos,
            link_child, link_parent, comm, bandwidth,
        )
    n_nodes = len(node_ids)
    ids = tuple(chain(node_ids, client_ids))
    n = len(ids)
    pos = dict(zip(ids, range(n)))
    child = np.fromiter(map(pos.get, link_child, repeat(-1)), np.int64, len(link_child))
    above = np.fromiter(map(pos.get, link_parent, repeat(-1)), np.int64, len(link_parent))
    consistent = (
        len(pos) == n
        and (child >= 0).all()
        and (above >= 0).all()
        and (above < n_nodes).all()
        and (np.bincount(child, minlength=n) <= 1).all()
    )
    if not consistent:
        raise _item_error(node_ids, client_ids, link_child, link_parent)

    # Global structure.  A self-loop passes the bulk checks above and only
    # shows here, as a missing root or an unreachable node, so every global
    # error first asks the per-item checks for an offender.
    def reject(message: str) -> TreeStructureError:
        offender = _item_error(node_ids, client_ids, link_child, link_parent)
        return offender or TreeStructureError(message)

    if not n_nodes:
        raise TreeStructureError("a tree network needs at least one internal node")
    linked = np.zeros(n, dtype=bool)
    linked[child] = True
    roots = np.flatnonzero(~linked[:n_nodes])
    if len(roots) != 1:
        found = [node_ids[k] for k in roots.tolist()]
        raise reject(f"expected exactly one root internal node, found {len(found)}: {found!r}")
    if not linked[n_nodes:].all():
        dangling = [client_ids[k] for k in np.flatnonzero(~linked[n_nodes:]).tolist()]
        raise reject(f"clients without a parent link: {dangling!r}")
    root = int(roots[0])

    parent = np.full(n, -1, dtype=np.int64)
    parent[child] = above
    by_parent = np.argsort(above, kind="stable")
    kids = child[by_parent]
    kid_start = np.zeros(n_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(above, minlength=n_nodes), out=kid_start[1:])

    # Breadth-first order, one level at a time: the next level lists the
    # children of this level's nodes, in their order and in link order.
    depth = np.zeros(n, dtype=np.int64)
    level = np.array([root], dtype=np.int64)
    parts = [level]
    levels = [0, 1]
    while True:
        level = level[level < n_nodes]
        starts, ends = kid_start[level], kid_start[level + 1]
        counts = ends - starts
        total = int(counts.sum())
        if not total:
            break
        shift = np.repeat(starts - np.cumsum(counts) + counts, counts)
        level = kids[shift + np.arange(total)]
        depth[level] = len(levels) - 1
        parts.append(level)
        levels.append(levels[-1] + total)
    order = np.concatenate(parts)
    if len(order) != n:
        seen = np.zeros(n, dtype=bool)
        seen[order] = True
        unreachable = [ids[k] for k in np.flatnonzero(~seen).tolist()]
        raise reject(
            "elements unreachable from the root (cycle or disconnected): "
            f"{sorted(map(repr, unreachable))}"
        )
    _check_keys(metrics, len(link_child), "metrics", "a link index")
    _check_keys(metadata, n, "metadata", "an element position")

    comm_column = np.zeros(n)
    comm_column[child] = _view(comm)
    bandwidth_column = np.full(n, math.inf)
    bandwidth_column[child] = _view(bandwidth)
    store = _Store.__new__(_Store)
    store.pos = pos
    store.ids = ids
    store.n_nodes = n_nodes
    store.root = root
    store.parent = _ints(parent)
    store.depth = _ints(depth)
    store.order = _ints(order)
    store.levels = tuple(levels)
    store.kid_start = _ints(kid_start)
    store.kids = _ints(kids)
    store.link_order = _ints(child)
    store.node_ids = tuple(map(ids.__getitem__, order[order < n_nodes].tolist()))
    store.client_ids = tuple(map(ids.__getitem__, order[order >= n_nodes].tolist()))
    store.capacity = capacity
    store.storage = storage
    store.qos = qos
    store.comm = _floats(comm_column)
    store.bandwidth = _floats(bandwidth_column)
    link_child_pos = child.tolist()
    store.metrics = {link_child_pos[k]: value for k, value in metrics.items()}
    store.metadata = metadata
    store.endpoints = {}
    if len(set(map(type, chain(ids, link_child, link_parent)))) > 1:
        above_pos = above.tolist()
        for k, (c, p) in enumerate(zip(link_child, link_parent)):
            declared = ids[link_child_pos[k]], ids[above_pos[k]]
            if type(c) is not type(declared[0]) or type(p) is not type(declared[1]):
                store.endpoints[link_child_pos[k]] = (c, p)
    store.memo = _Memo()
    return store, requests


def _check_values(
    node_ids: Sequence[NodeId],
    capacity: array,
    storage: array,
    client_ids: Sequence[NodeId],
    requests: array,
    qos: array,
    link_child: Sequence[NodeId],
    link_parent: Sequence[NodeId],
    comm: array,
    bandwidth: array,
) -> None:
    """Raise the record error of the first bad value: nodes, then clients,
    then links, each in declaration order (NaN fails every comparison)."""
    cap, cost = _view(capacity), _view(storage)
    bad_nodes = ~((cap >= 0) & (cap < math.inf) & (cost >= 0) & (cost < math.inf))
    rate = _view(requests)
    bad_clients = ~((rate >= 0) & (rate < math.inf) & (_view(qos) > 0))
    bad_links = ~((_view(comm) >= 0) & (_view(bandwidth) >= 0))
    for k in np.flatnonzero(bad_nodes)[:1].tolist():
        InternalNode(node_ids[k], capacity[k], storage[k])
    for k in np.flatnonzero(bad_clients)[:1].tolist():
        Client(client_ids[k], requests[k], qos[k])
    for k in np.flatnonzero(bad_links)[:1].tolist():
        Link(link_child[k], link_parent[k], comm[k], bandwidth[k])


def _item_error(
    node_ids: Sequence[NodeId],
    client_ids: Sequence[NodeId],
    link_child: Sequence[NodeId],
    link_parent: Sequence[NodeId],
) -> Optional[TreeStructureError]:
    """The first per-item defect of a tree's parts, in declaration order.

    The constructor checks its input in bulk and runs this loop only to
    name the offender once the bulk checks fail.
    """
    nodes: set = set()
    for node_id in node_ids:
        if node_id in nodes:
            return TreeStructureError(f"duplicate internal node id {node_id!r}")
        nodes.add(node_id)
    clients: set = set()
    for client_id in client_ids:
        if client_id in clients:
            return TreeStructureError(f"duplicate client id {client_id!r}")
        if client_id in nodes:
            return TreeStructureError(
                f"identifier {client_id!r} used both as client and internal node"
            )
        clients.add(client_id)
    children: set = set()
    for child, parent in zip(link_child, link_parent):
        if child not in nodes and child not in clients:
            return TreeStructureError(f"link child {child!r} is not declared")
        if parent not in nodes:
            return TreeStructureError(
                f"link parent {parent!r} is not an internal node "
                "(clients must be leaves)"
            )
        if child in children:
            return TreeStructureError(f"{child!r} has more than one parent")
        if child == parent:
            return TreeStructureError(f"self-loop on {child!r}")
        children.add(child)
    return None

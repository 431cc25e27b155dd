"""Dense integer indexing of a :class:`~repro.core.tree.TreeNetwork`.

:class:`TreeIndex` lays a tree's elements out in the orders every hot path
of the placement engine needs, and gathers their values from the tree's
columns by position (the tree's store maps every id to a position; see
:mod:`repro.core.tree`):

* internal nodes laid out in **DFS pre-order** (children in link order),
  so the internal nodes of ``subtree(j)`` form the contiguous span
  ``j .. node_span_end[j]``;
* clients laid out in **DFS leaf order** -- provably the exact order of
  ``TreeNetwork.subtree_clients(root)`` -- so the clients of ``subtree(j)``
  form the contiguous span ``client_span_start[j] .. client_span_end[j]``
  *and* enumerate in the same order as the tree's own queries;
* parent / depth vectors for both populations and per-client request
  vectors.

The layout is computed from the store's breadth-first levels and its
children (CSR form) with numpy, one level at a time: subtree sizes
bottom-up, then each element's pre-order rank top-down (its parent's rank,
plus one, plus the sizes of its earlier siblings).  Values are gathered by
position -- request rates, capacities and subtree sums straight from the
columns.

Scalar vectors are plain Python lists/tuples, indexed element by element
from interpreted code (the QoS threshold walk, the structural queries);
the native engine copies the ones its kernels read into ``array('q')``
buffers once per topology, and its kernels climb the parent vectors
instead of a copy of every chain.  Views only some paths read are built
on first use, like the numpy mirrors: uplink times and root latencies
(latency QoS), and the clients' ancestor chains (the pure-Python QoS
walk, the LP eligibility check), which are the tree's memoised tuples,
so ``TreeNetwork.ancestors`` and the index hand out the same ones.

The index is immutable, built once per tree (``TreeIndex.for_tree`` caches
it on the tree instance) and shared by every state object built on the same
tree, which is what makes batch solving over many scenarios cheap.  It
keeps the tree's store, not the tree, so the tree that caches it is freed
as soon as its last user drops it.
"""

from __future__ import annotations

import sys
from operator import add
from typing import Dict, Iterable, List, Tuple

import numpy as np

from repro.core.exceptions import TreeStructureError
from repro.core.tree import NodeId, TreeNetwork, _Store, _view

__all__ = ["TreeIndex", "supports_qos_thresholds"]


def supports_qos_thresholds(constraints) -> bool:
    """Can ``constraints``' eligibility be captured by per-client depth
    thresholds?

    True for the exact built-in
    :class:`~repro.core.constraints.ConstraintSet` with an active QoS mode
    (hop distance and cumulative latency are monotone toward the root) and
    for any subclass declaring a truthy ``monotone_path_metric`` (e.g. a
    :class:`~repro.core.constraints.ClassedConstraintSet` whose class
    weights are all non-negative).  Everything else -- notably subclasses
    with non-monotone metrics -- must keep per-pair ``qos_satisfied``
    filtering: one depth threshold cannot represent their eligible sets.
    """
    from repro.core.constraints import ConstraintSet, QoSMode

    if type(constraints) is ConstraintSet:
        return constraints.qos_mode in (QoSMode.DISTANCE, QoSMode.LATENCY)
    return bool(getattr(constraints, "monotone_path_metric", False))


class TreeIndex:
    """Flat, interned structural view of an immutable :class:`TreeNetwork`."""

    __slots__ = (
        "store",
        "n_nodes",
        "n_clients",
        "height",
        "node_order",
        "node_pos",
        "client_order",
        "client_pos",
        "node_parent",
        "node_depth",
        "client_parent",
        "client_depth",
        "node_span_end",
        "client_span_start",
        "client_span_end",
        "client_requests",
        "_node_perm",
        "_client_slots",
        "_subtree",
        "qos_threshold_cache",
        "_np_cache",
    )

    def __init__(self, tree: TreeNetwork):
        # The index keeps the tree's store, not the tree: the tree caches
        # its index, and no reference cycle keeps either alive.
        self.store = store = tree._store
        n_nodes = store.n_nodes
        n_clients = len(store.ids) - n_nodes
        self.n_nodes = n_nodes
        self.n_clients = n_clients
        self.height = len(store.levels) - 2

        # ---- DFS pre-order over internal nodes, DFS leaf order over clients
        # (children in link order), gathered from the store by position.
        node_perm, client_perm, nodes_in, size, pre = _dfs_layout(store)
        ids = store.ids
        self.node_order = node_order = tuple(map(ids.__getitem__, node_perm.tolist()))
        self.client_order = client_order = tuple(map(ids.__getitem__, client_perm.tolist()))
        self.node_pos = dict(zip(node_order, range(n_nodes)))
        self.client_pos = dict(zip(client_order, range(n_clients)))
        ranks = np.arange(n_nodes)
        nodes_below = nodes_in[node_perm]
        self.node_span_end = (ranks + nodes_below).tolist()
        starts = pre[node_perm] - ranks  # clients before the node in DFS order
        self.client_span_start = starts.tolist()
        self.client_span_end = (starts + size[node_perm] - nodes_below).tolist()

        # ---- parents and depths ------------------------------------------ #
        rank = np.empty(len(ids), dtype=np.int64)
        rank[node_perm] = ranks
        rank[client_perm] = np.arange(n_clients)
        parent, depth = _view(store.parent), _view(store.depth)
        node_parent = rank[parent[node_perm]]
        node_parent[:1] = -1  # the root
        self.node_parent = node_parent.tolist()
        # Siblings share one int object for their parent's rank.
        node_ranks = ranks.tolist()
        self.client_parent = list(
            map(node_ranks.__getitem__, rank[parent[client_perm]].tolist())
        )
        self.node_depth = depth[node_perm].tolist()
        self.client_depth = depth[client_perm].tolist()

        # ---- workload vectors ------------------------------------------- #
        self._node_perm = node_perm
        self._client_slots = client_perm - n_nodes
        self._gather(tree)

        #: memoised per-client QoS depth thresholds, keyed by QoS mode
        #: (filled lazily by the native engine, the eligible-servers cache
        #: and the LP assembly; bounds live on the tree, so a mode fully
        #: determines the thresholds).
        self.qos_threshold_cache: Dict[object, List[int]] = {}

        #: lazily-built *structural* views (no workload data), shared
        #: verbatim by epoch forks: uplink times, root latencies, the
        #: clients' ancestor chains and the numpy mirrors of the vectorised
        #: LP assembly and native engine.
        self._np_cache: Dict[str, object] = {}

    # ------------------------------------------------------------------ #
    # construction / caching
    # ------------------------------------------------------------------ #
    @classmethod
    def for_tree(cls, tree: TreeNetwork) -> "TreeIndex":
        """Return the (cached) index of ``tree``, building it on first use.

        Trees forked through :meth:`TreeNetwork.with_requests` remember their
        base tree; when an ancestor along that fork chain carries an index,
        the fork's index is *patched* from it (structural arrays shared,
        workload vectors recomputed for the union of the chain's changed
        clients) instead of being rebuilt with a full DFS.  Never-indexed
        intermediate forks -- e.g. quiet epochs the incremental resolver
        reused without solving -- are walked through, so a low-churn epoch
        sequence keeps patching whatever subset of epochs actually gets
        solved.  The patched index is identical to a fresh build -- the
        dynamic-workload tests pin the two to each other field by field.

        The consumed ``_patch_source`` link is cleared afterwards: once a
        tree has its own index the back-references (and the ancestor trees
        they keep alive) serve no further purpose, which keeps long-running
        epoch chains from accumulating their whole history in memory.
        """
        cached = tree._index_cache
        if cached is None:
            source = tree._patch_source
            changed: set = set()
            while source is not None:
                base, base_changed = source
                changed.update(base_changed)
                if base._index_cache is not None:
                    break
                source = base._patch_source
            if source is not None:
                cached = base._index_cache.patched(tree, changed)
            else:
                cached = cls(tree)
            tree._index_cache = cached
            tree._patch_source = None
        return cached

    def patched(self, tree: TreeNetwork, changed_clients: Iterable[NodeId]) -> "TreeIndex":
        """Index of an epoch fork of this index's tree (same topology).

        Structural layouts (orders, spans, depths, the lazily built views
        such as ancestor chains and link latencies, QoS threshold memo) are
        shared with this index; only the request vector is recomputed from
        ``tree``.
        ``changed_clients`` are the ids whose rate differs from this index's
        tree (an empty iterable shares everything).
        """
        fork = TreeIndex.__new__(TreeIndex)
        fork.store = self.store
        fork.n_nodes = self.n_nodes
        fork.n_clients = self.n_clients
        fork.height = self.height
        fork.node_order = self.node_order
        fork.node_pos = self.node_pos
        fork.client_order = self.client_order
        fork.client_pos = self.client_pos
        fork.node_parent = self.node_parent
        fork.node_depth = self.node_depth
        fork.client_parent = self.client_parent
        fork.client_depth = self.client_depth
        fork.node_span_end = self.node_span_end
        fork.client_span_start = self.client_span_start
        fork.client_span_end = self.client_span_end
        fork._node_perm = self._node_perm
        fork._client_slots = self._client_slots
        fork._subtree = tree._subtree
        #: thresholds depend on QoS bounds / depths / comm times only, all of
        #: which an epoch fork leaves untouched -- share the memo.
        fork.qos_threshold_cache = self.qos_threshold_cache
        #: structural-only by construction, so epoch forks share the memo.
        fork._np_cache = self._np_cache

        changed = tuple(changed_clients)
        if not changed:
            fork.client_requests = self.client_requests
            return fork

        client_pos = self.client_pos
        pos, offset, rates = self.store.pos, self.store.n_nodes, tree._requests
        requests_vec = list(self.client_requests)
        for client_id in changed:
            requests_vec[client_pos[client_id]] = rates[pos[client_id] - offset]
        fork.client_requests = requests_vec
        return fork

    def _gather(self, tree: TreeNetwork) -> None:
        """The request vector, gathered from ``tree``'s column by position,
        and the tree's subtree request sums (kept by reference)."""
        self.client_requests = _view(tree._requests)[self._client_slots].tolist()
        self._subtree = tree._subtree

    @classmethod
    def sliced(cls, shard) -> "TreeIndex":
        """Index of one :class:`~repro.core.partition.Shard` sub-tree.

        Shard sub-trees preserve the global link insertion order, so the
        shard's internal nodes and clients are *contiguous DFS spans* of the
        global layout.  When the global tree already carries an index, this
        constructor slices those spans out and re-bases positions and depths
        in O(|shard|) -- no whole-tree DFS.  When it does not (the sharded
        solve path never builds one), the index is built directly from the
        shard sub-tree, which is still O(|shard|): the full dense layout of
        the global tree is never materialised either way.

        The result is bit-identical to ``TreeIndex(shard.problem.tree)``
        (pinned by the sharding test suite) and is cached on the shard tree
        like :meth:`for_tree` would.
        """
        tree = shard.problem.tree
        cached = tree._index_cache
        if cached is not None:
            return cached
        source_tree = shard.source.tree
        source = source_tree._index_cache
        if source is None or shard.root not in source.node_pos:
            index = cls(tree)
        else:
            index = source._slice_span(tree, shard.root)
        tree._index_cache = index
        return index

    def _slice_span(self, tree: TreeNetwork, root: NodeId) -> "TreeIndex":
        """Re-base the contiguous spans of ``subtree(root)`` onto ``tree``.

        ``tree`` must be the shard sub-tree re-rooted at ``root`` with the
        global link order preserved (what ``partition_problem`` emits), so
        its DFS layout equals this index's span of ``root``.
        """
        sliced = TreeIndex.__new__(TreeIndex)
        sliced.store = tree._store
        i0 = self.node_pos[root]
        i1 = self.node_span_end[i0]
        c0 = self.client_span_start[i0]
        c1 = self.client_span_end[i0]
        depth0 = self.node_depth[i0]
        sliced.n_nodes = i1 - i0
        sliced.n_clients = c1 - c0
        node_order = self.node_order[i0:i1]
        client_order = self.client_order[c0:c1]
        sliced.node_order = node_order
        sliced.client_order = client_order
        sliced.node_pos = {nid: i for i, nid in enumerate(node_order)}
        sliced.client_pos = {cid: i for i, cid in enumerate(client_order)}
        sliced.node_parent = [p - i0 for p in self.node_parent[i0:i1]]
        sliced.node_parent[0] = -1  # the shard root has no parent link
        sliced.node_depth = [d - depth0 for d in self.node_depth[i0:i1]]
        sliced.client_parent = [p - i0 for p in self.client_parent[c0:c1]]
        sliced.client_depth = [d - depth0 for d in self.client_depth[c0:c1]]
        sliced.height = len(tree._store.levels) - 2
        sliced.node_span_end = [e - i0 for e in self.node_span_end[i0:i1]]
        sliced.client_span_start = [s - c0 for s in self.client_span_start[i0:i1]]
        sliced.client_span_end = [e - c0 for e in self.client_span_end[i0:i1]]
        # Every value comes from the shard tree's columns by its positions
        # (and ancestor chains, read on first use, from its memo: they stop
        # at the shard root).
        pos = tree._store.pos
        node_perm = list(map(pos.__getitem__, node_order))
        client_perm = list(map(pos.__getitem__, client_order))
        sliced._node_perm = np.array(node_perm, dtype=np.int64)
        sliced._client_slots = np.array(client_perm, dtype=np.int64) - tree._store.n_nodes
        sliced._gather(tree)
        # Thresholds depend on shard-local depths; the memo starts empty.
        sliced.qos_threshold_cache = {}
        sliced._np_cache = {}
        return sliced

    @property
    def uplink_comm(self) -> Dict[NodeId, float]:
        """Communication time of every non-root element's uplink.

        Only latency QoS reads it, so it is built on first use and shared
        with epoch forks like the other structural views.
        """
        uplink = self._np_cache.get("uplink_comm")
        if uplink is None:
            store = self.store
            children = store.link_order
            uplink = self._np_cache["uplink_comm"] = dict(
                zip(map(store.ids.__getitem__, children), map(store.comm.__getitem__, children))
            )
        return uplink

    @property
    def client_ancestors(self) -> Tuple[Tuple[NodeId, ...], ...]:
        """Every client's bottom-up ancestor chain, in client layout order.

        The tree's memoised tuples (``tree.ancestors(c) is
        client_ancestors[k]``), gathered on first read -- which builds the
        memo if absent -- and shared with epoch forks.  The native engine
        never reads them: its kernels climb the parent vectors.
        """
        chains = self._np_cache.get("client_ancestors")
        if chains is None:
            store = self.store
            chains = self._np_cache["client_ancestors"] = tuple(
                map(
                    store.ancestor_chains().__getitem__,
                    (self._client_slots + store.n_nodes).tolist(),
                )
            )
        return chains

    def client_qos(self) -> List[float]:
        """QoS bound of every client, in client layout order."""
        return _view(self.store.qos)[self._client_slots].tolist()

    @property
    def nbytes(self) -> int:
        """Resident bytes of this index, for memory budgets.

        Containers by ``sys.getsizeof``, plus the objects they own: an int
        (32 bytes) per position and per node's parent and span entries and a
        float (24 bytes) per request; once read, the clients' ancestor
        chains and the nodes' chain tuples they share.  Shared with forks or
        not, every part is charged: a fork outlives the index it was patched
        from.  The subtree request sums are the tree's column, charged by
        :attr:`TreeNetwork.nbytes`.
        """
        n_nodes, n_clients = self.n_nodes, self.n_clients
        containers = (
            self.node_order, self.client_order, self.node_pos, self.client_pos,
            self.node_parent, self.client_parent, self.node_depth, self.client_depth,
            self.node_span_end, self.client_span_start, self.client_span_end,
            self.client_requests,
        )
        chains = 0
        if "client_ancestors" in self._np_cache:
            chains = sys.getsizeof(self.client_ancestors) + 56 * n_nodes + 8 * sum(self.node_depth)
        return (
            sum(map(sys.getsizeof, containers))
            + 32 * (6 * n_nodes + n_clients)
            + 24 * n_clients
            + chains
            + self._node_perm.nbytes
            + self._client_slots.nbytes
        )

    # ------------------------------------------------------------------ #
    # QoS depth thresholds
    # ------------------------------------------------------------------ #
    def qos_depth_thresholds(self, problem) -> List[int]:
        """Per-client minimal eligible server depth under ``problem``'s QoS.

        Both built-in QoS metrics (hop distance, cumulative latency) are
        monotone non-decreasing towards the root, so the eligible ancestors
        of a client form a bottom-up prefix of its chain: an ancestor ``a``
        is eligible iff ``depth(a) >= threshold``.  The comparisons below
        reproduce ``problem.qos_satisfied`` operation for operation (hop
        counts as float subtraction, latencies accumulated link by link in
        path order), so boundary cases agree bit-for-bit.  Client bounds
        live on the tree, so results are memoised per QoS mode.

        Defined for the exact built-in :class:`ConstraintSet` and for any
        subclass that declares a monotone path metric (truthy
        ``monotone_path_metric``, e.g. a
        :class:`~repro.core.constraints.ClassedConstraintSet` with
        non-negative class weights) -- see
        :func:`supports_qos_thresholds`.  A subclass with a non-monotone
        metric cannot be represented by a single depth threshold, so
        callers must keep per-pair ``qos_satisfied`` filtering for those
        (raises ``ValueError``).  Built-in modes memoise per QoS mode;
        subclasses memoise per constraints object (frozen and hashable).
        """
        from repro.core.constraints import ConstraintSet

        constraints = problem.constraints
        if not supports_qos_thresholds(constraints):
            raise ValueError(
                "qos_depth_thresholds only supports the built-in "
                "distance/latency constraint set and monotone subclasses; "
                "filter with problem.qos_satisfied instead"
            )
        builtin = type(constraints) is ConstraintSet
        key: object = constraints.qos_mode if builtin else constraints
        thresholds = self.qos_threshold_cache.get(key)
        if thresholds is not None:
            return thresholds

        tree = problem.tree
        bounds = self.client_qos()
        thresholds = []
        if not builtin:
            # Generic monotone subclass walk: the subclass yields its own
            # (ancestor, score) accumulation, reproduced operation for
            # operation by its qos_metric so boundary cases agree
            # bit-for-bit with the per-pair fallback.
            scores_of = getattr(constraints, "iter_ancestor_scores", None)
            for ci, client_id in enumerate(self.client_order):
                bound = bounds[ci]
                best = self.client_depth[ci]  # sentinel: nothing eligible
                if scores_of is not None:
                    pairs = scores_of(tree, client_id)
                else:  # monotone subclass without the bulk iterator
                    pairs = (
                        (a, constraints.qos_metric(tree, client_id, a))
                        for a in self.client_ancestors[ci]
                    )
                for ancestor, score in pairs:
                    if score <= bound:
                        best = tree.depth(ancestor)
                    else:
                        break  # monotone metric: everything above fails
                thresholds.append(best)
            self.qos_threshold_cache[key] = thresholds
            return thresholds
        from repro.core.constraints import QoSMode

        by_distance = constraints.qos_mode is QoSMode.DISTANCE
        uplink = self.uplink_comm
        chains = () if by_distance else self.client_ancestors
        for ci, client_id in enumerate(self.client_order):
            bound = bounds[ci]
            client_depth = self.client_depth[ci]
            best = client_depth  # sentinel: nothing eligible
            # The k-th ancestor (bottom-up, from 0) is client_depth - 1 - k deep.
            if by_distance:
                for hops in range(1, client_depth + 1):
                    if float(hops) <= bound:
                        best = client_depth - hops
                    else:
                        break  # monotone metric: everything above fails
            else:
                latency = 0.0
                comm = uplink[client_id]
                for hops, ancestor in enumerate(chains[ci], 1):
                    latency += comm
                    if latency <= bound:
                        best = client_depth - hops
                    else:
                        break
                    comm = uplink.get(ancestor, 0.0)
            thresholds.append(best)
        self.qos_threshold_cache[key] = thresholds
        return thresholds

    # ------------------------------------------------------------------ #
    # bulk structural views
    # ------------------------------------------------------------------ #
    def client_ancestor_positions(self):
        """Flat dense-position ancestor chains: ``(positions, offsets)``.

        ``positions`` concatenates every client's bottom-up ancestor chain
        translated to dense node positions; client ``c``'s chain is the
        slice ``positions[offsets[c] : offsets[c + 1]]``.  Purely
        structural, hence built once per topology and shared by epoch forks
        (used by the vectorised LP assembly to gather QoS-eligible pair
        columns in bulk).
        """
        cached = self._np_cache.get("client_ancestor_positions")
        if cached is None:
            # One numpy step per depth level: every client still climbing
            # writes its current ancestor into its next slot, then moves up.
            offsets = np.zeros(self.n_clients + 1, dtype=np.intp)
            np.cumsum(self.client_depth, out=offsets[1:])
            flat = np.empty(int(offsets[-1]), dtype=np.intp)
            node_parent = np.array(self.node_parent, dtype=np.intp)
            ancestor = np.array(self.client_parent, dtype=np.intp)
            slot = offsets[:-1].copy()
            while ancestor.size:
                flat[slot] = ancestor
                ancestor = node_parent[ancestor]
                climbing = ancestor >= 0
                ancestor, slot = ancestor[climbing], slot[climbing] + 1
            cached = (flat, offsets)
            self._np_cache["client_ancestor_positions"] = cached
        return cached

    # ------------------------------------------------------------------ #
    # id <-> index translation
    # ------------------------------------------------------------------ #
    def node_index(self, node_id: NodeId) -> int:
        """Dense pre-order index of an internal node."""
        try:
            return self.node_pos[node_id]
        except KeyError:
            raise TreeStructureError(f"unknown internal node {node_id!r}") from None

    def client_index(self, client_id: NodeId) -> int:
        """Dense layout position of a client."""
        try:
            return self.client_pos[client_id]
        except KeyError:
            raise TreeStructureError(f"unknown client {client_id!r}") from None

    # ------------------------------------------------------------------ #
    # structural queries (mainly used by the cross-validation tests)
    # ------------------------------------------------------------------ #
    def parent_of(self, element_id: NodeId):
        """Identifier of the parent of an element (``None`` for the root)."""
        if element_id in self.node_pos:
            parent = self.node_parent[self.node_pos[element_id]]
            return None if parent < 0 else self.node_order[parent]
        return self.node_order[self.client_parent[self.client_index(element_id)]]

    def depth_of(self, element_id: NodeId) -> int:
        """Number of links between an element and the root."""
        if element_id in self.node_pos:
            return self.node_depth[self.node_pos[element_id]]
        return self.client_depth[self.client_index(element_id)]

    def ancestors_of(self, element_id: NodeId) -> Tuple[NodeId, ...]:
        """Bottom-up ancestor identifiers: the tree's memoised chain."""
        if element_id not in self.node_pos:
            self.client_index(element_id)  # raises on unknown ids
        return self.store.ancestor_chains()[self.store.pos[element_id]]

    def subtree_clients_of(self, node_id: NodeId) -> Tuple[NodeId, ...]:
        """Clients of ``subtree(node_id)`` via the contiguous span."""
        index = self.node_index(node_id)
        return self.client_order[self.client_span_start[index] : self.client_span_end[index]]

    def subtree_nodes_of(self, node_id: NodeId) -> Tuple[NodeId, ...]:
        """Internal nodes of ``subtree(node_id)`` via the contiguous span."""
        index = self.node_index(node_id)
        return self.node_order[index : self.node_span_end[index]]

    def subtree_requests_of(self, node_id: NodeId) -> float:
        """Total requests issued inside ``subtree(node_id)``, read from the
        tree's subtree column."""
        return self._subtree[self._node_perm[self.node_index(node_id)]]

    def root_latency_of(self, element_id: NodeId) -> float:
        """Sum of link communication times from an element up to the root."""
        latencies = self._np_cache.get("root_latency")
        if latencies is None:
            latencies = self._np_cache["root_latency"] = self._root_latencies()
        try:
            return latencies[element_id]
        except KeyError:
            raise TreeStructureError(f"unknown element {element_id!r}") from None

    def _root_latencies(self) -> Dict[NodeId, float]:
        # Accumulated link by link in pre-order (parents first), so the
        # floats depend only on the layout and a sliced index, which
        # restarts at its shard root, matches a fresh build bit for bit.
        uplink = self.uplink_comm
        node_order = self.node_order
        node_lat = [0.0]
        add_latency = node_lat.append
        for parent, comm in zip(self.node_parent[1:], map(uplink.__getitem__, node_order[1:])):
            add_latency(node_lat[parent] + comm)
        latencies = dict(zip(node_order, node_lat))
        latencies.update(
            zip(
                self.client_order,
                map(
                    add,
                    map(node_lat.__getitem__, self.client_parent),
                    map(uplink.__getitem__, self.client_order),
                ),
            )
        )
        return latencies

    def __repr__(self) -> str:
        return f"TreeIndex(|N|={self.n_nodes}, |C|={self.n_clients})"


def _dfs_layout(store: _Store):
    """The DFS layout of a store's topology, vectorised level by level.

    Returns ``(node_perm, client_perm, nodes_in, size, pre)``: the node
    positions in DFS pre-order and the client positions in DFS leaf order
    (children in link order), then per position the internal nodes and the
    elements of its subtree and its rank in the pre-order of all elements.
    A child's rank is its parent's plus one plus the sizes of its earlier
    siblings.
    """
    n_nodes, n = store.n_nodes, len(store.ids)
    order, parent, levels = _view(store.order), _view(store.parent), store.levels
    kids, kid_start = _view(store.kids), _view(store.kid_start)
    size = np.ones(n, dtype=np.int64)
    nodes_in = np.zeros(n, dtype=np.int64)
    nodes_in[:n_nodes] = 1
    for level in range(len(levels) - 2, 0, -1):  # children before parents
        members = order[levels[level] : levels[level + 1]]
        np.add.at(size, parent[members], size[members])
        np.add.at(nodes_in, parent[members], nodes_in[members])
    sizes = size[kids]
    before = np.cumsum(sizes) - sizes  # over all kids, in CSR order
    counts = np.diff(kid_start)
    group_base = np.repeat(before[kid_start[:-1][counts > 0]], counts[counts > 0])
    offset = np.zeros(n, dtype=np.int64)
    offset[kids] = 1 + before - group_base
    pre = np.zeros(n, dtype=np.int64)
    for level in range(1, len(levels) - 1):  # parents before children
        members = order[levels[level] : levels[level + 1]]
        pre[members] = pre[parent[members]] + offset[members]
    dfs = np.empty(n, dtype=np.int64)
    dfs[pre] = np.arange(n)
    return dfs[dfs < n_nodes], dfs[dfs >= n_nodes], nodes_in, size, pre

"""Dense integer indexing of a :class:`~repro.core.tree.TreeNetwork`.

:class:`TreeIndex` interns the hashable node and client identifiers of a
tree into dense integer ranges and precomputes the contiguous layouts every
hot path of the placement engine needs:

* internal nodes laid out in **DFS pre-order** (children in link insertion
  order), so the internal nodes of ``subtree(j)`` form the contiguous span
  ``j .. node_span_end[j]``;
* clients laid out in **DFS leaf order** -- provably the exact order of
  ``TreeNetwork.subtree_clients(root)`` -- so the clients of ``subtree(j)``
  form the contiguous span ``client_span_start[j] .. client_span_end[j]``
  *and* enumerate in the same order as the dict-based tree queries;
* parent / depth vectors for both populations and per-client request
  vectors;
* ready-to-``copy()`` dict templates for the engine's mutable state
  (``remaining`` / ``inreq`` / ``residual``), so building a solver state
  costs three C-level dict copies instead of per-id dict comprehensions.

Scalar vectors are plain Python lists/tuples: the engine's span scans are
dominated by element access from interpreted code, where list indexing
beats both dict lookups (no hashing) and numpy arrays (no per-element C
dispatch / unboxing).  Indexing a tree costs one DFS plus a handful of flat,
mostly C-level passes.  The DFS also builds the ancestor chains -- parents
come before children, and siblings share their parent's chain tuple -- and
hands them to the tree's memo, so ``TreeNetwork.ancestors`` reuses them.
Views only latency QoS needs (uplink times, root latencies) are built on
first use, like the numpy mirrors.

The index is immutable, built once per tree (``TreeIndex.for_tree`` caches
it on the tree instance) and shared by every state object built on the same
tree, which is what makes batch solving over many scenarios cheap.
"""

from __future__ import annotations

from itertools import repeat
from operator import add, attrgetter, sub
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from repro.core.exceptions import TreeStructureError
from repro.core.tree import NodeId, TreeNetwork

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
        "tree",
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
        "node_ancestors",
        "client_ancestors",
        "client_requests",
        "client_repr",
        "remaining_template",
        "inreq_template",
        "residual_template",
        "qos_threshold_cache",
        "_np_cache",
    )

    def __init__(self, tree: TreeNetwork):
        self.tree = tree
        children_map = tree._children
        depth_map = tree._depth
        clients_map = tree._clients
        nodes_map = tree._nodes
        root = tree.root
        n_nodes = len(nodes_map)
        n_clients = len(clients_map)
        self.n_nodes = n_nodes
        self.n_clients = n_clients
        self.height = max(depth_map.values()) if depth_map else 0

        # ---- DFS pre-order over internal nodes, DFS leaf order over clients.
        # Children are visited in link insertion order, which makes the client
        # layout identical to TreeNetwork.subtree_clients(root): that tuple is
        # built as the concatenation of the children's tuples in the same
        # insertion order.  One pass over positions, parents before children,
        # also builds every node's ancestor chain through itself: a child's
        # chain is its parent's, so siblings share one tuple.
        root_kids = children_map[root]
        node_order: List[NodeId] = [root]
        client_order: List[NodeId] = []
        node_parent: List[int] = [-1]
        client_parent: List[int] = []
        client_span_start: List[int] = [0]
        #: elements of subtree(j), accumulated bottom-up below
        size: List[int] = [len(root_kids) + 1]
        through: List[Tuple[NodeId, ...]] = [(root,)]
        stack: List[NodeId] = list(reversed(root_kids))
        above: List[int] = [0] * len(root_kids)  # parent position per entry
        pop, push, pop_above, push_above = stack.pop, stack.extend, above.pop, above.extend
        add_node, add_client = node_order.append, client_order.append
        children_of = children_map.get
        while stack:
            element = pop()
            parent = pop_above()
            kids = children_of(element)
            if kids is None:  # clients have no entry
                add_client(element)
                client_parent.append(parent)
                continue
            position = len(node_order)
            add_node(element)
            node_parent.append(parent)
            client_span_start.append(len(client_order))
            size.append(len(kids) + 1)
            through.append((element,) + through[parent])
            push(reversed(kids))
            push_above(repeat(position, len(kids)))
        nodes_in = [1] * n_nodes
        for index in range(n_nodes - 1, 0, -1):  # children before parents
            parent = node_parent[index]
            size[parent] += size[index] - 1
            nodes_in[parent] += nodes_in[index]
        self.node_order = node_order = tuple(node_order)
        self.client_order = client_order = tuple(client_order)
        self.node_pos = dict(zip(node_order, range(n_nodes)))
        self.client_pos = dict(zip(client_order, range(n_clients)))
        self.node_span_end = list(map(add, range(n_nodes), nodes_in))
        self.client_span_start = client_span_start
        self.client_span_end = list(map(sub, map(add, client_span_start, size), nodes_in))

        # ---- parents, ancestor chains and depths -------------------------- #
        self.node_parent = node_parent
        self.client_parent = client_parent
        self.node_ancestors = ((),) + tuple(map(through.__getitem__, node_parent[1:]))
        self.client_ancestors = tuple(map(through.__getitem__, client_parent))
        self.node_depth = list(map(len, self.node_ancestors))
        self.client_depth = list(map(len, self.client_ancestors))
        if tree._memo.ancestors is None:  # hand them to tree.ancestors()
            chains = dict(zip(node_order, self.node_ancestors))
            chains.update(zip(client_order, self.client_ancestors))
            tree._memo.ancestors = chains

        # ---- workload vectors -------------------------------------------- #
        self.client_requests = list(
            map(float, map(attrgetter("requests"), map(clients_map.__getitem__, client_order)))
        )
        #: repr() of every client id, for deterministic tie-breaking that
        #: matches the dict engine's ``repr`` sort keys.
        self.client_repr = tuple(map(repr, client_order))

        # ---- dict templates for the engine's mutable state ---------------- #
        self.remaining_template = dict(zip(client_order, self.client_requests))
        self.inreq_template = _float_map(node_order, tree._subtree_requests)
        self.residual_template = dict(
            zip(
                node_order,
                map(float, map(attrgetter("capacity"), map(nodes_map.__getitem__, node_order))),
            )
        )

        #: memoised per-client QoS depth thresholds, keyed by QoS mode
        #: (filled lazily by the fast engine; bounds live on the tree, so a
        #: mode fully determines the thresholds).
        self.qos_threshold_cache: Dict[object, List[int]] = {}

        #: lazily-built *structural* views (no workload data), shared
        #: verbatim by epoch forks: uplink times, root latencies and the
        #: numpy mirrors of the vectorised LP assembly and native engine.
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

        Structural layouts (orders, spans, ancestor chains, depths, link
        latencies, repr keys, QoS threshold memo) are shared with this index;
        only the request-dependent vectors and dict templates are recomputed
        from ``tree``.  ``changed_clients`` are the ids whose rate differs
        from this index's tree (an empty iterable shares everything).
        """
        fork = TreeIndex.__new__(TreeIndex)
        fork.tree = tree
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
        fork.node_ancestors = self.node_ancestors
        fork.client_ancestors = self.client_ancestors
        fork.client_repr = self.client_repr
        fork.residual_template = self.residual_template
        #: thresholds depend on QoS bounds / depths / comm times only, all of
        #: which an epoch fork leaves untouched -- share the memo.
        fork.qos_threshold_cache = self.qos_threshold_cache
        #: structural-only by construction, so epoch forks share the memo.
        fork._np_cache = self._np_cache

        changed = tuple(changed_clients)
        if not changed:
            fork.client_requests = self.client_requests
            fork.remaining_template = self.remaining_template
            fork.inreq_template = self.inreq_template
            return fork

        clients_map = tree._clients
        client_pos = self.client_pos
        requests_vec = list(self.client_requests)
        remaining = dict(self.remaining_template)
        for client_id in changed:
            value = float(clients_map[client_id].requests)
            requests_vec[client_pos[client_id]] = value
            remaining[client_id] = value
        fork.client_requests = requests_vec
        fork.remaining_template = remaining
        # The fork's subtree sums were re-accumulated in fresh-build order by
        # with_requests, so reading them back gives the same floats a full
        # rebuild would produce.
        fork.inreq_template = _float_map(self.node_order, tree._subtree_requests)
        return fork

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
        sliced.tree = tree
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
        sliced.height = max(tree._depth.values()) if tree._depth else 0
        sliced.node_span_end = [e - i0 for e in self.node_span_end[i0:i1]]
        sliced.client_span_start = [s - c0 for s in self.client_span_start[i0:i1]]
        sliced.client_span_end = [e - c0 for e in self.client_span_end[i0:i1]]
        # Ancestor chains are shard-local (they stop at the shard root), so
        # they come from the shard tree's own (memoised) chains.
        ancestors_map = tree._ancestors
        sliced.node_ancestors = tuple(map(ancestors_map.__getitem__, node_order))
        sliced.client_ancestors = tuple(map(ancestors_map.__getitem__, client_order))
        clients_map = tree._clients
        sliced.client_requests = [
            float(clients_map[cid].requests) for cid in client_order
        ]
        sliced.client_repr = tuple(map(repr, client_order))
        sliced.remaining_template = dict(zip(client_order, sliced.client_requests))
        sliced.inreq_template = _float_map(node_order, tree._subtree_requests)
        nodes_map = tree._nodes
        sliced.residual_template = {
            nid: float(nodes_map[nid].capacity) for nid in node_order
        }
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
            links = self.tree._links
            uplink = self._np_cache["uplink_comm"] = dict(
                zip(links, map(attrgetter("comm_time"), links.values()))
            )
        return uplink

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

        tree = self.tree
        depth_map = tree._depth
        thresholds = []
        if not builtin:
            # Generic monotone subclass walk: the subclass yields its own
            # (ancestor, score) accumulation, reproduced operation for
            # operation by its qos_metric so boundary cases agree
            # bit-for-bit with the per-pair fallback.
            scores_of = getattr(constraints, "iter_ancestor_scores", None)
            for ci, client_id in enumerate(self.client_order):
                bound = tree._clients[client_id].qos
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
                        best = depth_map[ancestor]
                    else:
                        break  # monotone metric: everything above fails
                thresholds.append(best)
            self.qos_threshold_cache[key] = thresholds
            return thresholds
        from repro.core.constraints import QoSMode

        by_distance = constraints.qos_mode is QoSMode.DISTANCE
        uplink = self.uplink_comm
        for ci, client_id in enumerate(self.client_order):
            bound = tree._clients[client_id].qos
            client_depth = self.client_depth[ci]
            best = client_depth  # sentinel: nothing eligible
            if by_distance:
                for ancestor in self.client_ancestors[ci]:
                    depth = depth_map[ancestor]
                    if float(client_depth - depth) <= bound:
                        best = depth
                    else:
                        break  # monotone metric: everything above fails
            else:
                latency = 0.0
                comm = uplink[client_id]
                for ancestor in self.client_ancestors[ci]:
                    latency += comm
                    if latency <= bound:
                        best = depth_map[ancestor]
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
            import numpy as np

            node_pos = self.node_pos
            lengths = [len(chain) for chain in self.client_ancestors]
            offsets = np.zeros(self.n_clients + 1, dtype=np.intp)
            np.cumsum(lengths, out=offsets[1:])
            flat = np.fromiter(
                (node_pos[nid] for chain in self.client_ancestors for nid in chain),
                dtype=np.intp,
                count=int(offsets[-1]),
            )
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
        """Bottom-up ancestor identifiers, mirroring ``TreeNetwork.ancestors``."""
        if element_id in self.node_pos:
            return self.node_ancestors[self.node_pos[element_id]]
        return self.client_ancestors[self.client_index(element_id)]

    def subtree_clients_of(self, node_id: NodeId) -> Tuple[NodeId, ...]:
        """Clients of ``subtree(node_id)`` via the contiguous span."""
        index = self.node_index(node_id)
        return self.client_order[self.client_span_start[index] : self.client_span_end[index]]

    def subtree_nodes_of(self, node_id: NodeId) -> Tuple[NodeId, ...]:
        """Internal nodes of ``subtree(node_id)`` via the contiguous span."""
        index = self.node_index(node_id)
        return self.node_order[index : self.node_span_end[index]]

    def subtree_requests_of(self, node_id: NodeId) -> float:
        """Total requests issued inside ``subtree(node_id)``."""
        if node_id not in self.inreq_template:
            raise TreeStructureError(f"unknown internal node {node_id!r}")
        return self.inreq_template[node_id]

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


def _float_map(keys: Sequence[NodeId], values: Mapping[NodeId, float]) -> Dict[NodeId, float]:
    """``{key: float(values[key])}`` over ``keys``, in their order."""
    return dict(zip(keys, map(float, map(values.__getitem__, keys))))

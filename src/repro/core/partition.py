"""Partitioning a replica-placement problem into subtree shards.

The whole-tree algorithms index and solve the entire distribution tree at
once; at the 10^5-10^6 client scale of the ROADMAP north star, that single
dense pass is the wall.  This module cuts the tree at a small antichain of
high-level internal nodes -- the **cut** -- and rewrites one global
:class:`~repro.core.problem.ReplicaPlacementProblem` as:

* one **shard** per cut node: the full subtree hanging under it, re-rooted
  at the cut node, carrying its clients' *global* request rates and QoS
  bounds (within a shard, every client-to-ancestor path is identical to the
  global tree, so the global bounds keep their exact meaning);
* one **residual** problem: the global root plus everything not under any
  cut node (the region the cut "looks up into").

The emitted :class:`ShardPlan` also summarises what cut-reconciliation
needs: per-shard aggregate demand and capacity, and the
**boundary QoS budget** of every shard client -- the slack a client's
request still has left when it crosses the cut, i.e. its global bound minus
the metric from the client to the shard root.  A request that must travel
above the cut consumes the cut link and then spends from that budget in the
residual region, which is exactly how
:mod:`repro.algorithms.sharded` re-homes overflow at the quotient tree.

Cut selection supports three forms (mirroring the ROADMAP sharding item):
an explicit node list, a target shard count (greedy descent by subtree
request mass), or the degenerate ``shards=1`` whole-tree case, which every
caller treats as "do not shard" so the classic path stays bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.constraints import QoSMode
from repro.core.problem import ReplicaPlacementProblem
from repro.core.tree import NodeId, TreeNetwork

__all__ = ["Shard", "ShardPlan", "choose_cut", "partition_problem"]

#: ``shards=`` specifications accepted across the API surface: a target
#: shard count or an explicit sequence of cut node ids.
ShardSpec = Union[int, Sequence[NodeId]]


@dataclass(frozen=True)
class Shard:
    """One subtree sub-problem of a :class:`ShardPlan`.

    Attributes
    ----------
    index:
        Position of this shard in ``plan.shards``.
    root:
        The cut node: root of the shard's sub-tree.
    parent:
        The cut node's parent in the *global* tree (where the cut link
        re-attaches overflow during reconciliation).
    problem:
        The shard's standalone :class:`ReplicaPlacementProblem`.
    demand, capacity:
        Aggregate client requests inside the shard and aggregate server
        capacity of its internal nodes.
    boundary_budgets:
        Per-client QoS slack remaining *at the shard root* (global bound
        minus the client-to-root metric), for clients with finite bounds
        under a QoS-enforcing constraint set.  Clients absent from the
        mapping have an unbounded budget.
    """

    index: int
    root: NodeId
    parent: NodeId
    problem: ReplicaPlacementProblem
    demand: float
    capacity: float
    boundary_budgets: Mapping[NodeId, float] = field(repr=False)

    @property
    def contended(self) -> bool:
        """Whether the shard's demand exceeds its own capacity."""
        return self.demand > self.capacity

    @property
    def clients(self) -> Tuple[NodeId, ...]:
        """The shard's clients (identical ids to the global tree)."""
        return self.problem.tree.client_ids

    @property
    def size(self) -> int:
        """Elements in the shard sub-tree (internal nodes + clients)."""
        return self.problem.tree.size

    def boundary_budget(self, client_id: NodeId) -> float:
        """QoS slack of ``client_id`` at the shard root (``inf`` = no bound)."""
        return self.boundary_budgets.get(client_id, math.inf)

    def __repr__(self) -> str:  # field(repr=False) on mappings keeps this short
        return (
            f"Shard({self.index}, root={self.root!r}, "
            f"demand={self.demand:g}/{self.capacity:g})"
        )


@dataclass(frozen=True)
class ShardPlan:
    """A partition of one problem into shard + residual sub-problems.

    ``shards`` hold the cut subtrees; ``residual`` is the top region (the
    global root and everything not under a cut node -- it may contain no
    clients at all).  ``client_region`` maps *every* client id to the
    region that owns it: shard position, or ``len(shards)`` for the
    residual region.
    """

    problem: ReplicaPlacementProblem
    cut: Tuple[NodeId, ...]
    shards: Tuple[Shard, ...]
    residual: ReplicaPlacementProblem
    client_region: Mapping[NodeId, int] = field(repr=False)

    def region_of(self, client_id: NodeId) -> int:
        """Region index owning ``client_id`` (residual when above the cut)."""
        return self.client_region.get(client_id, len(self.shards))

    def region_problems(self) -> Tuple[ReplicaPlacementProblem, ...]:
        """Per-region problems, shards first, residual last."""
        return tuple(shard.problem for shard in self.shards) + (self.residual,)

    def describe(self) -> str:
        parts = ", ".join(
            f"{shard.root!r}:{shard.demand:g}/{shard.capacity:g}"
            for shard in self.shards
        )
        return f"ShardPlan({len(self.shards)} shards: {parts})"

    def __repr__(self) -> str:
        return self.describe()


def choose_cut(tree: TreeNetwork, shards: int) -> Tuple[NodeId, ...]:
    """Pick a cut of up to ``shards`` internal nodes by subtree-request mass.

    Greedy descent: start from the root's internal children and repeatedly
    split the heaviest candidate (by :meth:`TreeNetwork.subtree_requests`)
    into its internal children while that grows the cut, stopping at the
    target count or when no candidate has two internal children left.
    Candidates whose subtree contains no client are dropped -- an empty
    shard would solve to nothing and only pad the plan.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    candidates: List[NodeId] = list(tree.child_nodes(tree.root))
    while len(candidates) < shards:
        best_pos = -1
        best_mass = -1.0
        for pos, node_id in enumerate(candidates):
            # Splitting replaces one candidate with its internal children,
            # so only >= 2 children grow the cut.
            if len(tree.child_nodes(node_id)) < 2:
                continue
            mass = tree.subtree_requests(node_id)
            if mass > best_mass:
                best_mass = mass
                best_pos = pos
        if best_pos < 0:
            break
        split = candidates.pop(best_pos)
        candidates[best_pos:best_pos] = tree.child_nodes(split)
    populated = [nid for nid in candidates if tree.subtree_clients(nid)]
    return tuple(populated[:shards] if shards > 0 else populated)


def _validate_cut(tree: TreeNetwork, cut: Sequence[NodeId]) -> Tuple[NodeId, ...]:
    """Check an explicit cut: internal non-root nodes forming an antichain."""
    seen = set()
    accepted: List[NodeId] = []
    for node_id in cut:
        if not tree.is_node(node_id):
            raise ValueError(f"cut node {node_id!r} is not an internal node")
        if node_id == tree.root:
            raise ValueError("the root cannot be a cut node (the residual region owns it)")
        if node_id in seen:
            raise ValueError(f"duplicate cut node {node_id!r}")
        seen.add(node_id)
        accepted.append(node_id)
    for node_id in accepted:
        for ancestor in tree.ancestors(node_id):
            if ancestor in seen:
                raise ValueError(
                    f"cut nodes must form an antichain: {ancestor!r} is an "
                    f"ancestor of {node_id!r}"
                )
    # Client-less subtrees stay in the residual region (an empty shard would
    # solve to nothing); dropping them keeps the plan minimal.
    return tuple(nid for nid in accepted if tree.subtree_clients(nid))


def _boundary_budgets(
    problem: ReplicaPlacementProblem, root: NodeId, clients: Sequence[NodeId]
) -> Dict[NodeId, float]:
    """Global QoS slack of each shard client at the shard root."""
    constraints = problem.constraints
    if not constraints.has_qos:
        return {}
    tree = problem.tree
    by_distance = constraints.qos_mode is QoSMode.DISTANCE
    root_depth = tree.depth(root)
    budgets: Dict[NodeId, float] = {}
    for client_id in clients:
        bound = tree.qos(client_id)
        if not math.isfinite(bound):
            continue
        if by_distance:
            spent = float(tree.depth(client_id) - root_depth)
        else:
            spent = tree.latency(client_id, root)
        budgets[client_id] = bound - spent
    return budgets


def partition_problem(
    problem: ReplicaPlacementProblem,
    *,
    shards: Optional[ShardSpec] = None,
    cut: Optional[Sequence[NodeId]] = None,
) -> ShardPlan:
    """Partition ``problem`` into per-shard sub-problems plus a residual.

    ``shards`` is either a target shard count or an explicit cut sequence
    (``cut=`` is the explicit-only spelling).  Each shard's sub-tree keeps
    the global link insertion order, so its DFS layout is the contiguous
    span the global :class:`~repro.core.index.TreeIndex` would assign it:
    a shard's own index equals that span, so per-shard solves enumerate
    clients and nodes in the whole-tree order.

    A plan with fewer than two shards is still returned (callers treat it
    as "solve whole-tree"); the residual problem may legitimately contain
    zero clients when the cut covers every leaf.
    """
    if cut is None and shards is None:
        raise ValueError("provide shards= (count) or cut= (explicit node list)")
    if cut is not None and shards is not None:
        raise ValueError("provide only one of shards= and cut=")
    tree = problem.tree
    if cut is None and not isinstance(shards, int):
        cut = tuple(shards)  # sequence spec: an explicit cut
    if cut is not None:
        cut_nodes = _validate_cut(tree, cut)
    else:
        cut_nodes = choose_cut(tree, shards)

    # One pass assigning every element (by position) to its region: shard i
    # or the residual k.  Each region's tree takes its nodes and clients in
    # global breadth-first order and its links in link order, gathered from
    # the global tree's columns.
    k = len(cut_nodes)
    store = tree._store
    region = np.full(tree.size, k, dtype=np.int64)
    for i, cut_id in enumerate(cut_nodes):
        members = chain(tree.subtree_nodes(cut_id), tree.subtree_clients(cut_id))
        region[np.fromiter(map(store.pos.__getitem__, members), np.int64)] = i
    node_bfs, client_bfs = store.bfs(clients=False), store.bfs(clients=True)
    link_order = np.frombuffer(store.link_order, dtype=np.int64)
    uncut = np.ones(tree.size, dtype=bool)
    uncut[[store.pos[cut_id] for cut_id in cut_nodes]] = False
    link_order = link_order[uncut[link_order]]  # cut links belong to no region

    def region_tree(r: int) -> TreeNetwork:
        return tree._sub_tree(
            node_bfs[region[node_bfs] == r],
            client_bfs[region[client_bfs] == r],
            link_order[region[link_order] == r],
        )

    client_region: Dict[NodeId, int] = dict(zip(tree.client_ids, region[client_bfs].tolist()))

    base_name = problem.name or "problem"
    shard_objs: List[Shard] = []
    for i, cut_id in enumerate(cut_nodes):
        sub_tree = region_tree(i)
        sub_problem = ReplicaPlacementProblem(
            tree=sub_tree,
            constraints=problem.constraints,
            kind=problem.kind,
            name=f"{base_name}[shard:{cut_id}]",
        )
        shard_objs.append(
            Shard(
                index=i,
                root=cut_id,
                parent=tree.parent(cut_id),
                problem=sub_problem,
                demand=tree.subtree_requests(cut_id),
                capacity=sub_tree.total_capacity(),
                boundary_budgets=_boundary_budgets(
                    problem, cut_id, sub_tree.client_ids
                ),
            )
        )
    residual_tree = region_tree(k)
    residual = ReplicaPlacementProblem(
        tree=residual_tree,
        constraints=problem.constraints,
        kind=problem.kind,
        name=f"{base_name}[residual]",
    )
    return ShardPlan(
        problem=problem,
        cut=cut_nodes,
        shards=tuple(shard_objs),
        residual=residual,
        client_region=client_region,
    )

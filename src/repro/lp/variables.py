"""Variable indexing for the (I)LP formulations.

Both formulations of paper Section 5 use

* one placement variable ``x_j`` per internal node ``j`` (boolean: node
  holds a replica), and
* one assignment variable ``y_{i,j}`` per (client ``i``, ancestor ``j``)
  pair -- boolean "``j`` is the server of ``i``" in the single-server
  formulation, integer "number of requests of ``i`` processed by ``j``" in
  the multiple-server formulation.

Pairs whose ancestor violates the client's QoS bound are simply not created
(the paper sets those variables to zero), which keeps the matrices sparse.
Link-flow variables ``z_{i,l}`` are not materialised: each ``z_{i,l}``
equals the sum of the ``y_{i,j}`` of the servers located above link ``l``,
so bandwidth constraints are expressed directly over ``y`` (see
:mod:`repro.lp.formulation`).

Layout
------

The ``x`` variables follow the DFS pre-order of the
:class:`~repro.core.index.TreeIndex` and the ``y`` variables are
client-major in DFS leaf order, each client's servers bottom-up.  That
layout is what makes the vectorised assembly of
:func:`repro.lp.formulation.build_program` a collection of gathers over
contiguous spans:

* the pairs of one client form the contiguous column run
  ``client_pair_start[c] .. client_pair_end[c]``;
* the pairs of all clients below an internal node form one contiguous run
  (clients of a subtree are a contiguous DFS span);
* with the built-in (monotone) QoS metrics every client's eligible servers
  are a bottom-up *prefix* of its ancestor chain (``prefix_chains``), so
  "servers strictly above node ``j``" is a *suffix* of each client's run.

The dense pair arrays (``pair_client_pos``, ``pair_server_pos``,
``pair_server_depth``, ``pair_requests``) are numpy arrays built in bulk;
the id-level views (``pairs``, ``y_index``) are materialised lazily because
only the reference builder, the exact-ILP extraction and the tests need
them.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.core.index import TreeIndex
from repro.core.problem import ReplicaPlacementProblem
from repro.core.tree import NodeId

__all__ = ["VariableSpace"]


class VariableSpace:
    """Dense indexing of the ``x_j`` and ``y_{i,j}`` variables of an instance."""

    def __init__(self, problem: ReplicaPlacementProblem):
        self.problem = problem
        tree = problem.tree
        index = TreeIndex.for_tree(tree)
        #: the flat structural view the assembly gathers from.
        self.index = index

        #: internal nodes in DFS pre-order; ``x`` variables come first and
        #: ``x_index`` coincides with the index's dense node position.
        self.node_ids: Tuple[NodeId, ...] = index.node_order
        self._x_index: Dict[NodeId, int] = index.node_pos

        #: clients in DFS leaf order (the ``y`` blocks are client-major).
        self.client_ids: Tuple[NodeId, ...] = index.client_order

        #: per-client request rates, dense over ``client_ids``.
        self.client_requests: np.ndarray = np.asarray(
            index.client_requests, dtype=float
        )

        self._build_pair_arrays(problem, index)

        # Lazily-materialised id-level views (reference builder / tests).
        self._pairs: Tuple[Tuple[NodeId, NodeId], ...] = None
        self._y_index_map: Dict[Tuple[NodeId, NodeId], int] = None
        self._server_grouping = None
        self._node_capacities: np.ndarray = None
        self._storage_costs: np.ndarray = None

    # ------------------------------------------------------------------ #
    # bulk pair layout
    # ------------------------------------------------------------------ #
    def _build_pair_arrays(self, problem: ReplicaPlacementProblem, index: TreeIndex) -> None:
        from repro.core.index import supports_qos_thresholds

        n_clients = index.n_clients
        client_depth = np.asarray(index.client_depth, dtype=np.intp)
        anc_pos, anc_offsets = index.client_ancestor_positions()

        constraints = problem.constraints
        thresholded = supports_qos_thresholds(constraints)
        if not constraints.has_qos:
            # Every ancestor is eligible: chains are full prefixes.
            counts = client_depth.copy()
            prefix = True
        elif thresholded:
            # Monotone metrics (built-in modes and monotone classed sets):
            # eligible servers are the chain prefix whose
            # depth stays at or above the memoised threshold.
            thresholds = np.asarray(index.qos_depth_thresholds(problem), dtype=np.intp)
            counts = client_depth - thresholds
            prefix = True
        else:
            # Custom constraint subclass: ask the problem per client and
            # check whether the answers still form bottom-up prefixes (the
            # assembly falls back to the reference builder otherwise).
            counts = np.empty(n_clients, dtype=np.intp)
            prefix = True
            chains: List[Tuple[NodeId, ...]] = []
            for ci, client_id in enumerate(index.client_order):
                eligible = tuple(problem.eligible_servers(client_id))
                chains.append(eligible)
                counts[ci] = len(eligible)
                if eligible != index.client_ancestors[ci][: len(eligible)]:
                    prefix = False

        #: ``True`` when every client's eligible servers are a bottom-up
        #: prefix of its ancestor chain (always true for the built-in
        #: constraint set; the Closest assembly requires it).
        self.prefix_chains: bool = prefix

        ends = np.cumsum(counts)
        starts = ends - counts
        self.client_pair_start: np.ndarray = starts
        self.client_pair_end: np.ndarray = ends
        num_pairs = int(ends[-1]) if n_clients else 0

        #: dense client position of each pair (client-major, so this is a
        #: staircase) and dense node position / depth of each pair's server.
        self.pair_client_pos: np.ndarray = np.repeat(
            np.arange(n_clients, dtype=np.intp), counts
        )
        if prefix:
            # Gather each client's ancestor-position prefix in one shot.
            grouped = np.arange(num_pairs, dtype=np.intp) - np.repeat(starts, counts)
            self.pair_server_pos = anc_pos[
                np.repeat(anc_offsets[:-1], counts) + grouped
            ]
        else:
            node_pos = index.node_pos
            flat: List[int] = []
            for eligible in chains:
                flat.extend(node_pos[s] for s in eligible)
            self.pair_server_pos = np.asarray(flat, dtype=np.intp)
        node_depth = np.asarray(index.node_depth, dtype=np.intp)
        self.pair_server_depth: np.ndarray = node_depth[self.pair_server_pos]
        #: request rate of each pair's client.
        self.pair_requests: np.ndarray = self.client_requests[self.pair_client_pos]

    # ------------------------------------------------------------------ #
    # epoch patching
    # ------------------------------------------------------------------ #
    def patched(self, problem: ReplicaPlacementProblem) -> "VariableSpace":
        """Space of a rate-only epoch fork of this space's problem.

        The pair layout depends only on topology and QoS eligibility, so a
        fork that moved nothing but request rates shares every structural
        array; only the request vectors are re-gathered.  Callers
        (:meth:`repro.lp.formulation.LinearProgramData.with_requests`) are
        responsible for checking that the diff really is rate-only.
        """
        fork = VariableSpace.__new__(VariableSpace)
        fork.problem = problem
        index = TreeIndex.for_tree(problem.tree)
        fork.index = index
        fork.node_ids = self.node_ids
        fork._x_index = self._x_index
        fork.client_ids = self.client_ids
        fork.prefix_chains = self.prefix_chains
        fork.client_pair_start = self.client_pair_start
        fork.client_pair_end = self.client_pair_end
        fork.pair_client_pos = self.pair_client_pos
        fork.pair_server_pos = self.pair_server_pos
        fork.pair_server_depth = self.pair_server_depth
        fork.client_requests = np.asarray(index.client_requests, dtype=float)
        fork.pair_requests = fork.client_requests[fork.pair_client_pos]
        fork._pairs = self._pairs
        fork._y_index_map = self._y_index_map
        fork._server_grouping = self._server_grouping
        fork._node_capacities = self._node_capacities
        fork._storage_costs = None if self.problem.kind is not problem.kind else self._storage_costs
        return fork

    # ------------------------------------------------------------------ #
    # derived bulk views (cached)
    # ------------------------------------------------------------------ #
    @property
    def server_grouping(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(sorted_pair_ids, per_server_counts)`` grouping pairs by server.

        ``sorted_pair_ids`` is the stable permutation of pair positions
        ordered by server node position; the pairs of server ``j`` form one
        contiguous run of it, ``per_server_counts[j]`` long.
        """
        if self._server_grouping is None:
            order = np.argsort(self.pair_server_pos, kind="stable")
            counts = np.bincount(self.pair_server_pos, minlength=self.num_x)
            self._server_grouping = (order, counts.astype(np.intp))
        return self._server_grouping

    @property
    def node_capacities(self) -> np.ndarray:
        """Capacities ``W_j`` dense over ``node_ids``."""
        if self._node_capacities is None:
            tree = self.problem.tree
            self._node_capacities = np.asarray(
                list(map(tree.capacity, self.node_ids)), dtype=float
            )
        return self._node_capacities

    @property
    def storage_costs(self) -> np.ndarray:
        """Storage costs ``s_j`` dense over ``node_ids`` (objective vector)."""
        if self._storage_costs is None:
            from repro.core.problem import ProblemKind

            kind = self.problem.kind
            if kind is ProblemKind.REPLICA_COUNTING:
                costs = np.ones(self.num_x)
            elif kind is ProblemKind.REPLICA_COST:
                costs = self.node_capacities.copy()
            else:
                tree = self.problem.tree
                costs = np.asarray(list(map(tree.storage_cost, self.node_ids)), dtype=float)
            self._storage_costs = costs
        return self._storage_costs

    # ------------------------------------------------------------------ #
    @property
    def num_x(self) -> int:
        """Number of placement variables."""
        return len(self.node_ids)

    @property
    def num_y(self) -> int:
        """Number of assignment variables."""
        return len(self.pair_client_pos)

    @property
    def num_variables(self) -> int:
        """Total number of variables in the program."""
        return self.num_x + self.num_y

    @property
    def nbytes(self) -> int:
        """Bytes of the numpy arrays this space holds, cached views included."""
        arrays = [
            self.client_requests,
            self.client_pair_start,
            self.client_pair_end,
            self.pair_client_pos,
            self.pair_server_pos,
            self.pair_server_depth,
            self.pair_requests,
            self._node_capacities,
            self._storage_costs,
        ]
        if self._server_grouping is not None:
            arrays.extend(self._server_grouping)
        return sum(array.nbytes for array in arrays if array is not None)

    # ------------------------------------------------------------------ #
    # id-level views (lazy: reference builder, exact extraction, tests)
    # ------------------------------------------------------------------ #
    @property
    def pairs(self) -> Tuple[Tuple[NodeId, NodeId], ...]:
        """(client, server) id pairs in ``y`` column order."""
        if self._pairs is None:
            clients = self.client_ids
            nodes = self.node_ids
            self._pairs = tuple(
                (clients[c], nodes[s])
                for c, s in zip(
                    self.pair_client_pos.tolist(), self.pair_server_pos.tolist()
                )
            )
        return self._pairs

    @property
    def _y_index(self) -> Dict[Tuple[NodeId, NodeId], int]:
        if self._y_index_map is None:
            offset = self.num_x
            self._y_index_map = {
                pair: offset + position for position, pair in enumerate(self.pairs)
            }
        return self._y_index_map

    def x_index(self, node_id: NodeId) -> int:
        """Column index of ``x_{node_id}``."""
        return self._x_index[node_id]

    def y_index(self, client_id: NodeId, server_id: NodeId) -> int:
        """Column index of ``y_{client_id, server_id}``."""
        return self._y_index[(client_id, server_id)]

    def has_pair(self, client_id: NodeId, server_id: NodeId) -> bool:
        """``True`` when the (client, server) pair is eligible (variable exists)."""
        return (client_id, server_id) in self._y_index

    def pairs_for_client(self, client_id: NodeId) -> List[Tuple[NodeId, NodeId]]:
        """Eligible pairs of a given client."""
        return [pair for pair in self.pairs if pair[0] == client_id]

    def pairs_for_server(self, server_id: NodeId) -> List[Tuple[NodeId, NodeId]]:
        """Eligible pairs served by a given node."""
        return [pair for pair in self.pairs if pair[1] == server_id]

    def describe(self) -> str:
        """Short description used in solver diagnostics."""
        return (
            f"{self.num_x} placement variables, {self.num_y} assignment variables "
            f"({self.num_variables} total)"
        )

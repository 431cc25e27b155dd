"""Compiled request-affectation state (the "native" engine).

:class:`NativeRequestState` is what the one state factory,
:func:`repro.algorithms.common.make_state`, builds wherever the kernels
load.  It keeps the exact public API of the dict engine
(:class:`~repro.algorithms.common.RequestState`) but stores the mutable
state in flat ``array('d')`` vectors laid out by
:class:`~repro.core.index.TreeIndex` and runs every hot loop -- span
scans, heap-ordered drains, covers, whole first/second heuristic passes,
MG's bottom-up greedy fold (``sweep_greedy``), the UBCF best-fit walk --
inside the C kernels of :mod:`repro.algorithms._native` (compiled on first
use with the system C compiler).

The ``remaining`` / ``inreq`` / ``residual`` mappings every heuristic and
test reads are :class:`VecMap` views over those vectors: id-keyed like the
dict engine's mappings, but reading and writing the positional arrays the
kernels mutate, so there is no dual bookkeeping to keep in sync.

Equivalence contract
--------------------

Every kernel repeats the dict engine's float operations in the same order
with the same ``1e-9`` tolerances: drains pop a heap on
``(sign * remaining, repr-rank)``, a total order, so they take clients in
the dict engine's sort order; every drain and cover serves its clients
with :meth:`RequestState._serve`'s rule (per client: remaining, then the
ancestors' ``inreq``; then the total off the server's residual once); the
greedy sweep pops on ``(-remaining, repr-rank)`` or, under QoS, on
``(depth - threshold, repr-rank)``, the order of MG's key sort.  So
``native`` is bit-for-bit identical to ``dict`` on every state field
(replicas, amounts, remaining, residual, ``inreq``) across the
engine-matrix suite.  Paths the kernels cannot represent -- non-monotone
:class:`ConstraintSet` subclasses, spans addressed by client id -- run the
inherited dict methods, unmodified, over the same arrays.

No setting picks the engine: the platform decides.  Where the kernels
cannot be built (no compiler, read-only filesystem) ``make_state`` builds
the dict engine's :class:`~repro.algorithms.common.RequestState` instead,
with a one-line stderr note per process; ``REPRO_NATIVE_DISABLE=1`` forces
that fallback.
"""

from __future__ import annotations

import sys
from array import array
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from repro.algorithms import _native
from repro.algorithms.common import RequestState, _TOL
from repro.core.index import TreeIndex, supports_qos_thresholds
from repro.core.problem import ReplicaPlacementProblem
from repro.core.tree import NodeId, _floats, _ints, _view

__all__ = [
    "NativeRequestState",
    "VecMap",
    "native_kernels_available",
]


def native_kernels_available() -> bool:
    """``True`` when the compiled kernels loaded (or compiled) successfully."""
    return _native.load_kernels() is not None


class VecMap:
    """Id-keyed dict-shaped view over one positional ``array('d')`` vector.

    Heuristics and tests read the engine state as mappings
    (``state.residual[node_id]``); the kernels mutate positional arrays.
    This view serves both without synchronisation: lookups translate ids to
    layout positions through the index's (shared, immutable) position dict
    and read the live array; writes go straight through.  Unknown ids raise
    ``KeyError`` exactly like the dict engines' mappings.
    """

    __slots__ = ("_vec", "_pos", "_order")

    def __init__(self, vec: array, pos: Dict[NodeId, int], order: Tuple[NodeId, ...]):
        self._vec = vec
        self._pos = pos
        self._order = order

    def __getitem__(self, key: NodeId) -> float:
        return self._vec[self._pos[key]]

    def __setitem__(self, key: NodeId, value: float) -> None:
        self._vec[self._pos[key]] = value

    def __contains__(self, key: NodeId) -> bool:
        return key in self._pos

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._order)

    def __len__(self) -> int:
        return len(self._order)

    def get(self, key: NodeId, default=None):
        position = self._pos.get(key)
        return default if position is None else self._vec[position]

    def keys(self) -> Tuple[NodeId, ...]:
        return self._order

    def values(self):
        return list(self._vec)

    def items(self):
        return zip(self._order, self._vec)

    def copy(self) -> Dict[NodeId, float]:
        return dict(zip(self._order, self._vec))

    def __eq__(self, other) -> bool:
        if isinstance(other, VecMap):
            return self._order == other._order and self._vec == other._vec
        if isinstance(other, dict):
            return self.copy() == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"VecMap({self.copy()!r})"


class _NativeArrays:
    """Structural buffers of one topology, shaped for the C kernels.

    Everything here derives from the index's immutable layout (spans,
    depths, parent positions, capacities, the ranks of the clients'
    ``repr`` tie-break keys), so one instance is built per topology, cached
    in the index's ``_np_cache`` and shared verbatim by epoch forks --
    exactly like the numpy mirrors the LP assembly keeps there.  The
    kernels find a client's ancestors by climbing the parent positions
    (``cpar``, then ``npar`` up to -1 at the root), so no chain is copied.
    """

    __slots__ = (
        "css",
        "cse",
        "nse",
        "nd",
        "cap",
        "cpar",
        "npar",
        "rrk",
        "_post_order",
    )

    def __init__(self, index: TreeIndex):
        self.css = array("q", index.client_span_start)
        self.cse = array("q", index.client_span_end)
        self.nse = array("q", index.node_span_end)
        self.nd = array("q", index.node_depth)
        self.cap = _floats(_view(index.store.capacity)[index._node_perm])
        self.cpar = array("q", index.client_parent)
        self.npar = array("q", index.node_parent)
        # Integer rank of every client under the (repr(id), position)
        # lexicographic order: comparing ranks in C reproduces the decorated
        # tuple sort's tie-breaking exactly (a stable sort on repr alone
        # keeps equal reprs in position order, the trailing tuple key).
        # numpy compares unicode strings by code point, as Python does, but
        # ignores trailing NULs; the rare repr holding one is sorted by
        # Python.  Only the ranks are kept.
        reprs = list(map(repr, index.client_order))
        if "\x00" in "".join(reprs):
            by_repr = sorted(range(index.n_clients), key=reprs.__getitem__)
        else:
            by_repr = np.argsort(np.array(reprs, dtype=str), kind="stable")
        rrk = np.empty(index.n_clients, dtype=np.int64)
        rrk[by_repr] = np.arange(index.n_clients)
        self.rrk = _ints(rrk)
        self._post_order = None

    @property
    def nbytes(self) -> int:
        """Bytes of the buffers (``post_order`` once built), for
        :attr:`TreeIndex.nbytes`."""
        buffers = (getattr(self, name) for name in self.__slots__)
        return sum(sys.getsizeof(buffer) for buffer in buffers if buffer is not None)

    def post_order(self, index: TreeIndex) -> array:
        """Node positions in the tree's post-order (children before parent)."""
        if self._post_order is None:
            node_pos = index.node_pos
            self._post_order = array(
                "q", map(node_pos.__getitem__, reversed(index.store.node_ids))
            )
        return self._post_order


def _native_arrays(index: TreeIndex) -> _NativeArrays:
    arrays = index._np_cache.get("native_arrays")
    if arrays is None:
        arrays = _NativeArrays(index)
        index._np_cache["native_arrays"] = arrays
    return arrays


class NativeRequestState(RequestState):
    """``RequestState`` whose hot methods run in compiled kernels.

    Every path the kernels do not cover (per-pair QoS predicates of
    constraint subclasses, spans addressed by client id) inherits the dict
    implementation, which operates on the same arrays through the
    :class:`VecMap` views.
    """

    def __init__(self, problem: ReplicaPlacementProblem):
        kernels = _native.load_kernels()
        if kernels is None:  # make_state guards; direct users may not
            raise RuntimeError(
                "native kernels unavailable; use make_state(problem) "
                "for the graceful fallback"
            )
        self._k = kernels
        self.problem = problem
        self.tree = problem.tree
        index = TreeIndex.for_tree(self.tree)
        self._index = index
        arrays = _native_arrays(index)
        self._arrays = arrays
        # Gathered from the tree's columns by layout position.
        tree = self.tree
        remaining_vec = _floats(_view(tree._requests)[index._client_slots])
        inreq_vec = _floats(_view(tree._subtree)[index._node_perm])
        residual_vec = arrays.cap[:]
        self._remaining_vec = remaining_vec
        self._inreq_vec = inreq_vec
        self._residual_vec = residual_vec
        self.remaining = VecMap(remaining_vec, index.client_pos, index.client_order)
        self.inreq = VecMap(inreq_vec, index.node_pos, index.node_order)
        self.residual = VecMap(residual_vec, index.node_pos, index.node_order)
        #: positional replica flags, kept in sync with ``replicas`` by
        #: :meth:`place` and mutated directly by the sweep kernels
        self._replica_vec = bytearray(index.n_nodes)
        self.replicas = set()
        self.amounts: Dict[Tuple[NodeId, NodeId], float] = {}

        # Monotone QoS (the built-in modes, monotone subclasses): the
        # kernels read the index's memoised thresholds, the array
        # ``eligible_servers`` and the LP assembly read too.  Any other QoS
        # runs the inherited methods on the per-pair predicate.
        self._qos_thresholds = None
        self._qos_check = None
        if problem.constraints.has_qos:
            if supports_qos_thresholds(problem.constraints):
                self._qos_thresholds = index.qos_depth_thresholds(problem)
            else:
                self._qos_check = problem.qos_satisfied

    # ------------------------------------------------------------------ #
    # elementary operations
    # ------------------------------------------------------------------ #
    def place(self, node_id: NodeId) -> None:
        self.replicas.add(node_id)
        position = self._index.node_pos.get(node_id)
        if position is not None:
            self._replica_vec[position] = 1

    def assign(self, client_id: NodeId, server_id: NodeId, amount: float) -> None:
        if amount <= _TOL:
            return
        index = self._index
        ci = index.client_pos[client_id]
        si = index.node_pos[server_id]  # KeyError on clients, like the seed
        arrays = self._arrays
        self._k.assign(
            self._remaining_vec,
            self._inreq_vec,
            self._residual_vec,
            arrays.cpar,
            arrays.npar,
            ci,
            si,
            amount,
        )
        key = (client_id, server_id)
        self.amounts[key] = self.amounts.get(key, 0.0) + amount

    # ------------------------------------------------------------------ #
    # client queries
    # ------------------------------------------------------------------ #
    def _span(self, element_id: NodeId) -> Tuple[int, int, int]:
        """``(node_index, start, end)`` client span of ``subtree(element_id)``.

        ``node_index`` is -1 when the element is itself a client (its span is
        the singleton holding the client, mirroring the dict engine, which
        accepts clients wherever ``tree.subtree_clients`` does).
        """
        index = self._index
        node_index = index.node_pos.get(element_id)
        if node_index is not None:
            return node_index, index.client_span_start[node_index], index.client_span_end[node_index]
        ci = index.client_index(element_id)  # raises on unknown ids
        return -1, ci, ci + 1

    def pending_clients(self, node_id: NodeId):
        si, start, end = self._span(node_id)
        if si >= 0 and self._inreq_vec[si] <= _TOL:
            return []
        return self._k.pending_ids(
            self._remaining_vec, start, end, None, 0, self._index.client_order
        )

    def eligible_pending_clients(self, server_id: NodeId):
        if self._qos_check is not None:
            return super().eligible_pending_clients(server_id)
        si, start, end = self._span(server_id)
        if si >= 0 and self._inreq_vec[si] <= _TOL:
            return []
        thresholds = self._qos_thresholds
        if thresholds is not None and si >= 0:
            return self._k.pending_ids(
                self._remaining_vec,
                start,
                end,
                thresholds,
                self._arrays.nd[si],
                self._index.client_order,
            )
        return self._k.pending_ids(
            self._remaining_vec, start, end, None, 0, self._index.client_order
        )

    def eligible_inreq(self, server_id: NodeId) -> float:
        thresholds = self._qos_thresholds
        if thresholds is None and self._qos_check is None:
            si = self._index.node_pos.get(server_id)
            if si is not None:
                return self._inreq_vec[si]
            return super().eligible_inreq(server_id)
        if self._qos_check is not None:
            return super().eligible_inreq(server_id)
        si, start, end = self._span(server_id)
        if si < 0:
            return super().eligible_inreq(server_id)
        if self._inreq_vec[si] <= _TOL:
            return 0.0
        return self._k.sum_eligible(
            self._remaining_vec, start, end, thresholds, self._arrays.nd[si]
        )

    def total_pending(self) -> float:
        return self._k.total(self._remaining_vec)

    # ------------------------------------------------------------------ #
    # the paper's delete-requests procedures
    # ------------------------------------------------------------------ #
    def drain(
        self,
        server_id: NodeId,
        budget: float,
        *,
        largest_first: bool = True,
        split_last: bool = False,
    ) -> float:
        if self._qos_check is not None:
            return super().drain(
                server_id, budget, largest_first=largest_first, split_last=split_last
            )
        if budget <= _TOL:
            return 0.0
        si, start, end = self._span(server_id)
        if si < 0:  # spans addressed by client id run the dict engine's drain
            return super().drain(
                server_id, budget, largest_first=largest_first, split_last=split_last
            )
        if self._inreq_vec[si] <= _TOL:
            return 0.0
        arrays = self._arrays
        thresholds = self._qos_thresholds
        return self._k.drain(
            self._remaining_vec,
            self._inreq_vec,
            self._residual_vec,
            arrays.cpar,
            arrays.npar,
            arrays.rrk,
            thresholds,
            si,
            start,
            end,
            arrays.nd[si] if thresholds is not None else 0,
            float(budget),
            1 if largest_first else 0,
            1 if split_last else 0,
            *self._sink(),
        )

    def cover(self, server_id: NodeId) -> float:
        if self._qos_check is not None:
            return super().cover(server_id)
        si, _start, _end = self._span(server_id)
        if si < 0:
            return super().cover(server_id)
        if self._inreq_vec[si] <= _TOL:
            return 0.0
        arrays = self._arrays
        thresholds = self._qos_thresholds
        return self._k.cover(
            self._remaining_vec,
            self._inreq_vec,
            self._residual_vec,
            arrays.cpar,
            arrays.npar,
            arrays.css,
            arrays.cse,
            thresholds,
            si,
            arrays.nd[si] if thresholds is not None else 0,
            *self._sink(),
        )

    def _sink(self):
        """The id-keyed bookkeeping the drain, cover and sweep kernels write
        through: the replica set and the amounts dict, with the layout
        orders that map positions to ids."""
        index = self._index
        return self.replicas, self.amounts, index.client_order, index.node_order

    # ------------------------------------------------------------------ #
    # whole-pass sweeps (heuristic inner loops in C)
    # ------------------------------------------------------------------ #
    def first_pass_sweep(
        self, *, order: str = "pre", largest_first: bool = True, split_last: bool = False
    ) -> None:
        if self._qos_check is not None:
            super().first_pass_sweep(
                order=order, largest_first=largest_first, split_last=split_last
            )
            return
        arrays = self._arrays
        order_arr = None if order == "pre" else arrays.post_order(self._index)
        self._k.sweep_saturated(
            self._remaining_vec,
            self._inreq_vec,
            self._residual_vec,
            self._replica_vec,
            arrays.cap,
            arrays.css,
            arrays.cse,
            arrays.cpar,
            arrays.npar,
            arrays.rrk,
            self._qos_thresholds,
            arrays.nd,
            order_arr,
            1 if largest_first else 0,
            1 if split_last else 0,
            *self._sink(),
        )

    def second_pass_sweep(
        self, *, largest_first: bool = True, split_last: bool = False
    ) -> None:
        if self._qos_check is not None:
            super().second_pass_sweep(
                largest_first=largest_first, split_last=split_last
            )
            return
        arrays = self._arrays
        self._k.sweep_second(
            self._remaining_vec,
            self._inreq_vec,
            self._residual_vec,
            self._replica_vec,
            arrays.css,
            arrays.cse,
            arrays.nse,
            arrays.cpar,
            arrays.npar,
            arrays.rrk,
            self._qos_thresholds,
            arrays.nd,
            1 if largest_first else 0,
            1 if split_last else 0,
            *self._sink(),
        )

    def greedy_sweep(self) -> None:
        if self._qos_check is not None:
            super().greedy_sweep()
            return
        arrays = self._arrays
        self._k.sweep_greedy(
            self._remaining_vec,
            self._inreq_vec,
            self._residual_vec,
            self._replica_vec,
            arrays.cap,
            arrays.css,
            arrays.cse,
            arrays.cpar,
            arrays.npar,
            arrays.rrk,
            self._qos_thresholds,
            arrays.nd,
            arrays.post_order(self._index),
            *self._sink(),
        )

    # ------------------------------------------------------------------ #
    # per-element heuristic steps
    # ------------------------------------------------------------------ #
    def best_fit_server(self, client_id: NodeId, requests: float) -> Optional[NodeId]:
        if self._qos_check is not None:
            return super().best_fit_server(client_id, requests)
        index = self._index
        ci = index.client_pos[client_id]
        thresholds = self._qos_thresholds
        threshold = thresholds[ci] if thresholds is not None else -1
        arrays = self._arrays
        position = self._k.best_fit(
            self._residual_vec,
            arrays.nd,
            arrays.cpar,
            arrays.npar,
            ci,
            threshold,
            float(requests),
        )
        return None if position < 0 else index.node_order[position]

    def can_cover(self, node_id: NodeId) -> bool:
        if self._qos_check is not None:
            return super().can_cover(node_id)
        index = self._index
        si = index.node_pos[node_id]
        pending = self._inreq_vec[si]
        if pending <= _TOL:
            return False
        arrays = self._arrays
        if arrays.cap[si] + _TOL < pending:
            return False
        thresholds = self._qos_thresholds
        if thresholds is not None:
            return self._k.all_within_qos(
                self._remaining_vec,
                arrays.css[si],
                arrays.cse[si],
                thresholds,
                arrays.nd[si],
            )
        return True

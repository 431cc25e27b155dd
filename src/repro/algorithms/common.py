"""Shared bookkeeping used by every placement heuristic.

All eight heuristics of paper Section 6 manipulate the same few quantities:

* ``inreq_j`` -- the number of requests issued in ``subtree(j)`` that are not
  yet affected to a server and therefore "reach" node ``j``;
* the remaining (unaffected) requests ``r'_i`` of every client;
* the replica set built so far;
* the explicit request affectation ``w_{s,i}`` (how many requests of client
  ``i`` the heuristic decided server ``s`` will process).

:class:`RequestState` centralises this mutable state together with the
paper's two *delete requests* procedures (Algorithms 6 and 10): draining
whole clients from a subtree in non-increasing or non-decreasing request
order, with or without splitting the last client.

Heuristics honour the problem's QoS constraint (when one is configured) by
only affecting a client to a server within its QoS bound; with the default
"no QoS" constraint set this filtering is inactive and the behaviour matches
the paper exactly.
"""

from __future__ import annotations

import contextlib
import contextvars
import os
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.core.policies import Policy
from repro.core.problem import ReplicaPlacementProblem
from repro.core.solution import Assignment, Placement, Solution
from repro.core.tree import NodeId

__all__ = [
    "RequestState",
    "make_state",
    "available_engines",
    "get_default_engine",
    "set_default_engine",
    "use_engine",
]

_TOL = 1e-9


def _make_dict_state(problem: "ReplicaPlacementProblem") -> "RequestState":
    return RequestState(problem)


def _make_native_state(problem: "ReplicaPlacementProblem") -> "RequestState":
    from repro.algorithms.native_state import create_native_state

    return create_native_state(problem)


#: The interchangeable state engines: the paper-faithful dict implementation
#: below and the compiled-kernel implementation of
#: :mod:`repro.algorithms.native_state`, the default (which falls back to
#: ``dict`` when no C compiler is available, so every name here is always
#: valid).
#: ``_ENGINES`` and every engine-listing error message derive from this
#: registry, so they cannot drift from the factory.
_ENGINE_FACTORIES = {
    "dict": _make_dict_state,
    "native": _make_native_state,
}

_ENGINES = tuple(_ENGINE_FACTORIES)


def _engine_names() -> str:
    return ", ".join(_ENGINES)

#: The selected engine lives in a :class:`~contextvars.ContextVar` so that
#: concurrent batch calls (threads, async tasks) switching engines never
#: clobber each other; forked worker processes inherit the parent's value.
#: Every new thread starts from the ``REPRO_ENGINE`` environment default,
#: and without it from the compiled ``native`` engine.
_engine_var: contextvars.ContextVar = contextvars.ContextVar(
    "repro_engine", default=os.environ.get("REPRO_ENGINE", "native")
)


def available_engines() -> Tuple[str, ...]:
    """Names of the available request-state engines."""
    return _ENGINES


def get_default_engine() -> str:
    """Engine used when :func:`make_state` is called without an override."""
    return _engine_var.get()


def set_default_engine(engine: str) -> str:
    """Select the default engine; returns the previous default.

    The initial default is the ``REPRO_ENGINE`` environment variable when
    set, and the compiled ``"native"`` engine otherwise (which runs as
    ``"dict"`` where the kernels cannot be built; the equivalence test
    suite pins the two engines to each other).  The selection is
    context-local: it applies to the current thread / async context and to
    worker processes forked from it.
    """
    if engine not in _ENGINE_FACTORIES:
        raise ValueError(f"unknown engine {engine!r}; available: {_engine_names()}")
    previous = _engine_var.get()
    _engine_var.set(engine)
    return previous


@contextlib.contextmanager
def use_engine(engine: str) -> Iterator[str]:
    """Context manager temporarily switching the default engine."""
    if engine not in _ENGINE_FACTORIES:
        raise ValueError(f"unknown engine {engine!r}; available: {_engine_names()}")
    token = _engine_var.set(engine)
    try:
        yield engine
    finally:
        _engine_var.reset(token)


def make_state(problem: ReplicaPlacementProblem, engine: Optional[str] = None) -> "RequestState":
    """Build the request-affectation state every heuristic runs on.

    ``engine`` forces one of ``"dict"`` (the seed implementation below) or
    ``"native"`` (the compiled-kernel
    :class:`~repro.algorithms.native_state.NativeRequestState`, which falls
    back to ``dict`` with a stderr note when the kernels cannot be built);
    by default the engine selected by :func:`set_default_engine` /
    :func:`use_engine` is used, ``"native"`` unless changed.
    """
    engine = engine or _engine_var.get()
    factory = _ENGINE_FACTORIES.get(engine)
    if factory is None:
        raise ValueError(f"unknown engine {engine!r}; available: {_engine_names()}")
    return factory(problem)


class RequestState:
    """Mutable request-affectation state shared by the heuristics."""

    def __init__(self, problem: ReplicaPlacementProblem):
        self.problem = problem
        self.tree = problem.tree
        tree = self.tree
        #: remaining (not yet affected) requests of every client, ``r'_i``
        self.remaining: Dict[NodeId, float] = dict(
            zip(tree.client_ids, tree.column("requests"))
        )
        #: requests still reaching each internal node, ``inreq_j``
        self.inreq: Dict[NodeId, float] = {
            node_id: tree.subtree_requests(node_id) for node_id in tree.node_ids
        }
        #: replica set built so far
        self.replicas: set = set()
        #: residual capacity of each internal node
        self.residual: Dict[NodeId, float] = dict(zip(tree.node_ids, tree.column("capacity")))
        #: explicit affectation ``(client, server) -> requests``
        self.amounts: Dict[Tuple[NodeId, NodeId], float] = {}

    # ------------------------------------------------------------------ #
    # elementary operations
    # ------------------------------------------------------------------ #
    def place(self, node_id: NodeId) -> None:
        """Add ``node_id`` to the replica set (idempotent)."""
        self.replicas.add(node_id)

    def is_replica(self, node_id: NodeId) -> bool:
        """``True`` when ``node_id`` already carries a replica."""
        return node_id in self.replicas

    def assign(self, client_id: NodeId, server_id: NodeId, amount: float) -> None:
        """Affect ``amount`` requests of ``client_id`` to ``server_id``.

        Updates the client's remaining requests, the server's residual
        capacity and the ``inreq`` of every ancestor of the client (the
        affected requests no longer travel past their server, and by
        convention no longer count anywhere on the path: the paper's
        ``inreq`` bookkeeping subtracts them from *all* ancestors).
        """
        if amount <= _TOL:
            return
        self.remaining[client_id] -= amount
        self.residual[server_id] -= amount
        key = (client_id, server_id)
        self.amounts[key] = self.amounts.get(key, 0.0) + amount
        for ancestor in self.tree.ancestors(client_id):
            self.inreq[ancestor] -= amount

    # ------------------------------------------------------------------ #
    # client queries
    # ------------------------------------------------------------------ #
    def pending_clients(self, node_id: NodeId) -> List[NodeId]:
        """Clients of ``subtree(node_id)`` that still have unaffected requests."""
        return [
            cid
            for cid in self.tree.subtree_clients(node_id)
            if self.remaining[cid] > _TOL
        ]

    def eligible_pending_clients(self, server_id: NodeId) -> List[NodeId]:
        """Pending clients of ``subtree(server_id)`` the server may serve (QoS)."""
        return [
            cid
            for cid in self.pending_clients(server_id)
            if self.problem.qos_satisfied(cid, server_id)
        ]

    def eligible_inreq(self, server_id: NodeId) -> float:
        """Requests reaching ``server_id`` that it would be allowed to serve."""
        return sum(self.remaining[cid] for cid in self.eligible_pending_clients(server_id))

    def total_pending(self) -> float:
        """Total number of requests not yet affected to any server."""
        return sum(self.remaining.values())

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
        """Affect up to ``budget`` requests from ``subtree(server_id)`` to the server.

        Clients are considered whole, in non-increasing (``largest_first``)
        or non-decreasing request order, exactly like the paper's
        ``deleteRequests`` (Algorithm 6).  With ``split_last`` the last
        client may be affected partially to exhaust the budget, like
        ``deleteRequestsInMTD`` (Algorithm 10).

        Returns the number of requests actually affected.
        """
        if budget <= _TOL:
            return 0.0
        remaining = self.remaining
        clients = self.eligible_pending_clients(server_id)
        clients.sort(key=lambda cid: (-remaining[cid], repr(cid)))
        if not largest_first:
            clients.sort(key=lambda cid: (remaining[cid], repr(cid)))

        drained = 0.0
        taken = []
        for client_id in clients:
            pending = remaining[client_id]
            if pending <= budget + _TOL:
                taken.append((client_id, pending))
                budget -= pending
                drained += pending
                if budget <= _TOL:
                    break
            elif split_last:
                taken.append((client_id, budget))
                drained += budget
                budget = 0.0
                break
            # Whole-client mode: a client larger than the remaining budget is
            # simply skipped (the paper tries the next, smaller, client).
        self._serve(server_id, taken)
        return drained

    def cover(self, server_id: NodeId) -> float:
        """Affect *all* eligible pending requests of ``subtree(server_id)`` to the server.

        Used by the Closest heuristics once ``W_s >= inreq_s`` guarantees the
        whole subtree fits.  Returns the amount affected.
        """
        remaining = self.remaining
        return self._serve(
            server_id,
            [(cid, remaining[cid]) for cid in self.eligible_pending_clients(server_id)],
        )

    def _serve(self, server_id: NodeId, taken: List[Tuple[NodeId, float]]) -> float:
        """Affect each ``(client, amount)`` of ``taken`` to ``server_id``, in order.

        The serve rule of every drain and cover, which the native engine's
        ``serve_taken`` kernel repeats: per client, its remaining requests,
        its affectation and the ``inreq`` of its ancestors; then the total
        leaves the server's residual in one subtraction.  Returns the total.
        """
        if not taken:
            return 0.0
        remaining = self.remaining
        amounts = self.amounts
        inreq = self.inreq
        ancestors = self.tree.ancestors
        total = 0.0
        for client_id, amount in taken:
            remaining[client_id] -= amount
            key = (client_id, server_id)
            amounts[key] = amounts.get(key, 0.0) + amount
            for ancestor in ancestors(client_id):
                inreq[ancestor] -= amount
            total += amount
        self.residual[server_id] -= total
        return total

    # ------------------------------------------------------------------ #
    # heuristic inner loops
    #
    # The traversal loops below used to live inside the individual
    # heuristics; hoisting them onto the state lets each engine supply its
    # own implementation (the native engine runs them as single C kernel
    # calls).  The bodies here are verbatim copies of the original
    # heuristic code, so the dict engine behaves exactly as before.
    # ------------------------------------------------------------------ #
    def can_cover(self, node_id: NodeId) -> bool:
        """Can ``node_id`` capture the whole remaining load of its subtree?

        Under the Closest policy a replica automatically serves every
        pending client of its subtree, so the node must have enough capacity
        for all of them and (when QoS is enforced) be within the QoS bound
        of each (paper Algorithms 4-5 eligibility test).
        """
        pending = self.inreq[node_id]
        if pending <= _TOL:
            return False
        if self.problem.capacity(node_id) + _TOL < pending:
            return False
        if self.problem.constraints.has_qos:
            for client_id in self.pending_clients(node_id):
                if not self.problem.qos_satisfied(client_id, node_id):
                    return False
        return True

    def first_pass_sweep(
        self, *, order: str = "pre", largest_first: bool = True, split_last: bool = False
    ) -> None:
        """Place a replica on every *exhausted* node and fill it by draining.

        The saturation pass shared by UTD / MTD (``order="pre"``, paper
        Algorithm 7) and MBU (``order="post"``, Algorithm 11): every node
        whose pending subtree load reaches its capacity becomes a replica
        and is filled via :meth:`drain` with the given client order and
        splitting rule.
        """
        problem = self.problem
        tree = self.tree
        if order == "post":
            node_ids: Iterable[NodeId] = tree.post_order_nodes()
        else:
            node_ids = _pre_order_nodes(tree)
        for node_id in node_ids:
            capacity = problem.capacity(node_id)
            if self.inreq[node_id] >= capacity - _TOL and self.inreq[node_id] > _TOL:
                self.place(node_id)
                self.drain(
                    node_id,
                    capacity,
                    largest_first=largest_first,
                    split_last=split_last,
                )

    def second_pass_sweep(
        self, *, largest_first: bool = True, split_last: bool = False
    ) -> None:
        """Top-down completion pass adding non-exhausted replicas.

        Shared by UTD / MTD (paper Algorithm 8) and MBU (Algorithm 12): a
        replica is placed on the highest free node that still sees pending
        requests, everything it may serve is drained into it, and the
        traversal never descends below a fresh replica; subtrees with
        nothing pending are skipped.
        """
        self._second_pass_visit(self.tree.root, largest_first, split_last)

    def _second_pass_visit(
        self, node_id: NodeId, largest_first: bool, split_last: bool
    ) -> None:
        if not self.is_replica(node_id) and self.inreq[node_id] > _TOL:
            self.place(node_id)
            self.drain(
                node_id,
                self.inreq[node_id],
                largest_first=largest_first,
                split_last=split_last,
            )
            return
        for child in self.tree.child_nodes(node_id):
            if self.inreq[child] > _TOL:
                self._second_pass_visit(child, largest_first, split_last)

    def greedy_sweep(self) -> None:
        """MG's bottom-up saturating fold (paper Section 6.3).

        Children first, every node with capacity serves as many eligible
        pending requests of its subtree as it can, splitting clients
        freely, and becomes a replica when it served anything.  Clients go
        most-pending first, or, under QoS, the most constrained first: those
        with the fewest eligible servers above this node.
        """
        problem = self.problem
        tree = self.tree

        for node_id in tree.post_order_nodes():
            budget = problem.capacity(node_id)
            if budget <= _TOL:
                continue
            clients = self.eligible_pending_clients(node_id)
            if not clients:
                continue
            if problem.constraints.has_qos:
                clients.sort(
                    key=lambda cid: (
                        sum(
                            1
                            for anc in problem.eligible_servers(cid)
                            if tree.depth(anc) < tree.depth(node_id)
                        ),
                        repr(cid),
                    )
                )
            else:
                clients.sort(key=lambda cid: (-self.remaining[cid], repr(cid)))

            served_any = False
            for client_id in clients:
                if budget <= _TOL:
                    break
                take = min(budget, self.remaining[client_id])
                if take <= _TOL:
                    continue
                self.assign(client_id, node_id, take)
                budget -= take
                served_any = True
            if served_any:
                self.place(node_id)

    def best_fit_server(self, client_id: NodeId, requests: float) -> Optional[NodeId]:
        """Best-fit ancestor able to host all ``requests`` of ``client_id``.

        The UBCF affectation rule (paper Algorithm 9): among the QoS-eligible
        ancestors with enough residual capacity, keep the one with *minimal*
        residual capacity; ancestors are enumerated bottom-up, so ties go to
        the deepest node, keeping scarcer high-level capacity available for
        clients with fewer options.  Returns ``None`` when no ancestor
        qualifies.
        """
        candidates = [
            ancestor
            for ancestor in self.problem.eligible_servers(client_id)
            if self.residual[ancestor] + _TOL >= requests
        ]
        if not candidates:
            return None
        target = candidates[0]
        for ancestor in candidates[1:]:
            if self.residual[ancestor] < self.residual[target] - _TOL:
                target = ancestor
        return target

    # ------------------------------------------------------------------ #
    # results
    # ------------------------------------------------------------------ #
    def to_solution(self, policy: Policy, algorithm: str, **metadata) -> Solution:
        """Freeze the current state into a :class:`~repro.core.solution.Solution`."""
        return Solution(
            placement=Placement(self.replicas),
            assignment=Assignment.of_positive(self.amounts),
            policy=policy,
            algorithm=algorithm,
            metadata=metadata,
        )

    def all_requests_affected(self, tolerance: float = 1e-6) -> bool:
        """``True`` when every client request has been affected to a server."""
        return self.total_pending() <= tolerance

    def unserved_summary(self) -> str:
        """Human-readable list of clients that still have pending requests."""
        pending = {
            cid: round(value, 6)
            for cid, value in self.remaining.items()
            if value > 1e-6
        }
        return ", ".join(f"{cid!r}: {value:g}" for cid, value in sorted(pending.items(), key=lambda kv: repr(kv[0])))


def _pre_order_nodes(tree) -> Iterator[NodeId]:
    """Internal nodes in DFS pre-order, children in link insertion order.

    Exactly the visit order of the recursive first passes this generator
    replaced (and of ``TreeIndex.node_order``).
    """
    stack = [tree.root]
    while stack:
        node_id = stack.pop()
        yield node_id
        children = tree.child_nodes(node_id)
        if children:
            stack.extend(reversed(children))

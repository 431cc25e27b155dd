"""Stable content fingerprints of placement problems.

A serving pool (:mod:`repro.serving.pool`) keys resident
:class:`~repro.session.PlacementSession`\\ s by *what problem they answer*:
two requests carrying equivalent problems -- same topology, request rates,
capacities, storage costs, QoS bounds, link attributes, constraint set and
cost mode -- must land on the same warm session, however the problem object
was built.  :func:`problem_fingerprint` provides that key: a SHA-256 hex
digest of a canonical byte encoding of the problem content.

Canonical form
--------------

Identifiers are encoded through ``repr`` and every element population
(nodes, clients, links) is hashed in sorted-``repr`` order, so the digest
does not depend on construction order: a tree rebuilt from
:func:`~repro.core.serialization.tree_to_dict` output, an epoch fork made
with :meth:`~repro.core.tree.TreeNetwork.with_requests`, and the original
tree all hash identically when their content matches (pinned by the serving
test suite).  Floats are hashed through their IEEE-754 bytes with ``-0.0``
normalised to ``+0.0``, matching the ``==`` semantics the epoch differ
uses.

Fast path
---------

The digest splits into a *structural* part (everything except request
rates) and the per-epoch rate vector.  When the tree already carries a
:class:`~repro.core.index.TreeIndex`, the structural part is hashed once
and memoised in the index's structural cache -- which epoch forks made with
``with_requests`` share -- so fingerprinting epoch ``t+1`` of a resident
tenant costs one pass over the client rates instead of a full re-hash.
"""

from __future__ import annotations

import hashlib
import struct
from operator import itemgetter
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.core.constraints import ConstraintSet
from repro.core.problem import ProblemKind, ReplicaPlacementProblem
from repro.core.tree import TreeNetwork

__all__ = ["problem_fingerprint", "tree_fingerprint"]

#: Bump when the canonical encoding changes: digests are persisted in
#: snapshot files and must never silently collide across encodings.
_VERSION = b"repro-fingerprint-1\x00"

_PACK_DOUBLE = struct.Struct("<d").pack


def _float_bytes(value: float) -> bytes:
    """IEEE-754 bytes of ``value`` with ``-0.0`` folded onto ``+0.0``.

    The fold keeps the fingerprint aligned with ``==`` comparisons (the
    epoch differ treats ``-0.0`` and ``0.0`` as the same rate).
    """
    return _PACK_DOUBLE(float(value) + 0.0)


def _constraints_token(constraints: ConstraintSet) -> bytes:
    """Canonical byte token of a constraint set.

    Plain :class:`ConstraintSet` instances reduce to their two fields; a
    subclass carries code, so its fully-qualified type name joins the token
    -- equivalent-looking custom constraints from different classes must
    not collide onto one resident session.
    """
    if type(constraints) is ConstraintSet:
        return (
            f"cs:{constraints.qos_mode.value}:"
            f"{int(constraints.enforce_bandwidth)}"
        ).encode()
    return (
        f"custom:{type(constraints).__module__}."
        f"{type(constraints).__qualname__}:{constraints!r}"
    ).encode()


def _sorted_clients(tree: TreeNetwork) -> np.ndarray:
    """Client column slots in sorted-``repr`` order of their ids."""
    store = tree._store
    ids = tree.client_ids
    order = sorted(range(len(ids)), key=list(map(repr, ids)).__getitem__)
    return (store.bfs(clients=True) - store.n_nodes)[order]


def _structural_hasher(
    tree: TreeNetwork, constraints: ConstraintSet, kind: ProblemKind
) -> "hashlib._Hash":
    """Hash everything except the per-epoch request rates."""
    digest = hashlib.sha256(_VERSION)
    update = digest.update
    update(_constraints_token(constraints))
    update(b"\x00")
    update(kind.value.encode())
    update(b"\x00")
    nodes = sorted(
        zip(map(repr, tree.node_ids), tree.column("capacity"), tree.column("storage_cost")),
        key=itemgetter(0),
    )
    for node_repr, capacity, storage_cost in nodes:
        update(f"n:{node_repr}".encode())
        update(_float_bytes(capacity))
        update(_float_bytes(storage_cost))
    clients = sorted(zip(map(repr, tree.client_ids), tree.column("qos")), key=itemgetter(0))
    for client_repr, qos in clients:
        update(f"c:{client_repr}".encode())
        update(_float_bytes(qos))
    annotated = tree._store.metrics
    links: List[Tuple[str, str, float, float, object]] = [
        (repr(child), repr(parent), comm_time, bandwidth, annotated.get(position))
        for (child, parent), comm_time, bandwidth, position in zip(
            tree.link_keys,
            tree.column("comm_time"),
            tree.column("bandwidth"),
            tree._store.link_order,
        )
    ]
    links.sort(key=lambda entry: entry[:4])
    for child_repr, parent_repr, comm_time, bandwidth, metrics in links:
        update(f"l:{child_repr}>{parent_repr}".encode())
        update(_float_bytes(comm_time))
        update(_float_bytes(bandwidth))
        if metrics is not None:
            # Only annotated links contribute, so pre-metric trees keep
            # their historical digests.
            update(b"m")
            update(_float_bytes(metrics.latency))
            update(_float_bytes(metrics.jitter))
            update(_float_bytes(metrics.loss))
            update(_float_bytes(metrics.bandwidth))
    return digest


def problem_fingerprint(problem: ReplicaPlacementProblem) -> str:
    """SHA-256 content fingerprint of a fully-specified problem.

    Equivalent problems -- equal trees (whatever their construction
    history), equal constraint sets and equal cost modes -- map to the same
    digest; any content difference (a single request rate, a QoS bound, a
    link bandwidth, the cost mode) changes it.
    """
    tree = problem.tree
    index = tree._index_cache
    if index is not None:
        # The structural cache is shared by every rate-only epoch fork of
        # this tree (TreeIndex.patched), so across a tenant's epochs the
        # structural part is hashed exactly once.
        cache = index._np_cache
        try:
            key = ("fingerprint_struct", problem.constraints, problem.kind)
            cached = cache.get(key)
        except TypeError:  # unhashable custom constraint subclass
            key = None
            cached = None
        if cached is None:
            cached = (
                _structural_hasher(tree, problem.constraints, problem.kind),
                _sorted_clients(tree),
            )
            if key is not None:
                cache[key] = cached
        base, client_order = cached
        digest = base.copy()
    else:
        digest = _structural_hasher(tree, problem.constraints, problem.kind)
        client_order = _sorted_clients(tree)

    # Little-endian IEEE-754 doubles with -0.0 folded (x + 0.0), gathered
    # from the requests column: the bytes _float_bytes gives per client.
    rates = np.frombuffer(tree._requests, dtype=np.float64)[client_order] + 0.0
    digest.update(rates.astype("<f8").tobytes())
    return digest.hexdigest()


def tree_fingerprint(
    instance: Union[TreeNetwork, ReplicaPlacementProblem],
    *,
    constraints: Optional[ConstraintSet] = None,
    kind: Optional[ProblemKind] = None,
) -> str:
    """Fingerprint a bare tree (or problem) with optional coercions.

    Convenience wrapper matching the coercion convention of the public API:
    a tree is wrapped into a Replica Cost problem with no optional
    constraints unless overridden, then fingerprinted.
    """
    from repro.session import as_problem

    return problem_fingerprint(
        as_problem(instance, constraints=constraints, kind=kind)
    )

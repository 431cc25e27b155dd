"""Dynamic workloads: request-rate trajectories over a fixed base instance.

The paper solves replica placement for one fixed vector of client request
rates.  A production tree serves *shifting* traffic: rates drift, spike and
oscillate, clients join and leave, servers suffer capacity incidents.  This
module models that churn as a **trajectory**: a sequence of *epochs*, each a
full :class:`~repro.core.problem.ReplicaPlacementProblem` derived from a
base instance, in the spirit of inhomogeneous-Poisson request processes
(piecewise-constant rate functions sampled once per epoch).

Every generator returns ``epochs`` problems whose first element is the base
instance itself (the state at ``t = 0``).  Rate-only trajectories build each
epoch with :meth:`TreeNetwork.with_requests`, the cheap structural fork that
the incremental re-solver (:mod:`repro.algorithms.incremental`) recognises:
consecutive epochs share topology caches and patched tree indexes, and
epochs with no actual change are re-solved for free.

Generators
----------

========================  ====================================================
:func:`step_change`       rates jump by a factor at one epoch and stay there
:func:`ramp`              rates scale linearly between two load levels
:func:`seasonal`          sinusoidal (diurnal-style) modulation of all rates
:func:`rate_churn`        per-epoch random rate drift on a sampled client set
:func:`regional_churn`    whole subtrees surge together (one factor per region)
:func:`client_join_leave` clients appear and disappear (topology churn)
:func:`capacity_incident` server capacities drop for a window of epochs
========================  ====================================================

All rates stay integral (the paper's request model).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.problem import ProblemKind, ReplicaPlacementProblem
from repro.core.tree import Client, InternalNode, Link, NodeId, TreeNetwork

__all__ = [
    "as_base_problem",
    "step_change",
    "ramp",
    "seasonal",
    "rate_churn",
    "regional_churn",
    "client_join_leave",
    "capacity_incident",
]


def as_base_problem(
    base: Union[TreeNetwork, ReplicaPlacementProblem]
) -> ReplicaPlacementProblem:
    """Coerce a tree or problem into the trajectory's base problem."""
    if isinstance(base, ReplicaPlacementProblem):
        return base
    return ReplicaPlacementProblem(tree=base)


def _epoch_problem(
    base: ReplicaPlacementProblem, tree: TreeNetwork, t: int
) -> ReplicaPlacementProblem:
    """Wrap an epoch tree in a problem carrying the base's constraints/kind."""
    label = base.name or "epoch"
    return ReplicaPlacementProblem(
        tree=tree, constraints=base.constraints, kind=base.kind, name=f"{label}[t={t}]"
    )


def _scaled_rates(tree: TreeNetwork, factor_of: Dict[NodeId, float]) -> Dict[NodeId, float]:
    """Integral rates obtained by scaling each base rate by its factor.

    A factor of exactly 1.0 returns the base rate untouched (no rounding):
    epochs documented as unchanged must stay bit-identical to the base even
    when it carries non-integral rates, so the incremental resolver can
    reuse them.
    """
    return {
        cid: (
            float(tree.requests(cid))
            if factor == 1.0
            else float(max(0, round(tree.requests(cid) * factor)))
        )
        for cid, factor in factor_of.items()
    }


def _check_epochs(epochs: int) -> None:
    if epochs < 1:
        raise ValueError("a trajectory needs at least one epoch")


# --------------------------------------------------------------------------- #
# deterministic trajectories
# --------------------------------------------------------------------------- #
def step_change(
    base: Union[TreeNetwork, ReplicaPlacementProblem],
    epochs: int,
    *,
    at: int,
    factor: float,
    clients: Optional[Sequence[NodeId]] = None,
) -> List[ReplicaPlacementProblem]:
    """Rates of ``clients`` (default: all) jump by ``factor`` at epoch ``at``.

    Models a flash crowd (``factor > 1``) or a regional outage upstream of
    the tree (``factor < 1``); rates stay at the new level afterwards.
    """
    _check_epochs(epochs)
    problem = as_base_problem(base)
    base_tree = problem.tree
    targets = tuple(clients) if clients is not None else base_tree.client_ids
    sequence = [problem]
    tree = base_tree
    for t in range(1, epochs):
        factors = {cid: (factor if t >= at else 1.0) for cid in targets}
        tree = tree.with_requests(_scaled_rates(base_tree, factors))
        sequence.append(_epoch_problem(problem, tree, t))
    return sequence


def ramp(
    base: Union[TreeNetwork, ReplicaPlacementProblem],
    epochs: int,
    *,
    end_factor: float,
    start_factor: float = 1.0,
) -> List[ReplicaPlacementProblem]:
    """Rates scale linearly from ``start_factor`` (epoch 1) to ``end_factor``.

    A load ramp across the whole client population -- the steady organic
    growth (or drain-down) case.  Epoch 0 is always the unscaled base
    instance; the scaled epochs interpolate the factor linearly, realising
    ``start_factor`` exactly at epoch 1 and ``end_factor`` at the last
    epoch (with the default ``start_factor=1.0`` the whole trajectory is
    continuous).  The degenerate ``epochs=2`` trajectory has a single scaled
    epoch, which goes straight to ``end_factor``.
    """
    _check_epochs(epochs)
    problem = as_base_problem(base)
    base_tree = problem.tree
    sequence = [problem]
    tree = base_tree
    for t in range(1, epochs):
        fraction = (t - 1) / (epochs - 2) if epochs > 2 else 1.0
        factor = start_factor + (end_factor - start_factor) * fraction
        tree = tree.with_requests(
            _scaled_rates(base_tree, {cid: factor for cid in base_tree.client_ids})
        )
        sequence.append(_epoch_problem(problem, tree, t))
    return sequence


def seasonal(
    base: Union[TreeNetwork, ReplicaPlacementProblem],
    epochs: int,
    *,
    amplitude: float = 0.3,
    period: float = 8.0,
    phase: float = 0.0,
) -> List[ReplicaPlacementProblem]:
    """Sinusoidal modulation: ``r_i(t) = r_i * (1 + A sin(2 pi (t+phase)/T))``.

    The diurnal pattern of a content-distribution tree, discretised to one
    sample per epoch (an inhomogeneous-Poisson rate function in the piecewise
    constant limit).  Epoch 0 is always the unscaled base instance; the
    modulation applies from epoch 1 onwards (so with ``phase != 0`` the wave
    starts mid-cycle at epoch 1).
    """
    _check_epochs(epochs)
    if not 0.0 <= amplitude < 1.0:
        raise ValueError("amplitude must lie in [0, 1)")
    problem = as_base_problem(base)
    base_tree = problem.tree
    sequence = [problem]
    tree = base_tree
    for t in range(1, epochs):
        factor = 1.0 + amplitude * math.sin(2.0 * math.pi * (t + phase) / period)
        tree = tree.with_requests(
            _scaled_rates(base_tree, {cid: factor for cid in base_tree.client_ids})
        )
        sequence.append(_epoch_problem(problem, tree, t))
    return sequence


# --------------------------------------------------------------------------- #
# stochastic trajectories
# --------------------------------------------------------------------------- #
def rate_churn(
    base: Union[TreeNetwork, ReplicaPlacementProblem],
    epochs: int,
    *,
    churn: float = 0.1,
    magnitude: float = 0.5,
    quiet_probability: float = 0.0,
    seed: Optional[int] = None,
) -> List[ReplicaPlacementProblem]:
    """Random rate drift: each epoch perturbs a sampled fraction of clients.

    Per epoch, with probability ``quiet_probability`` nothing changes (the
    epoch still exists -- placements are revised on a clock, not on demand);
    otherwise every client independently drifts with probability ``churn``,
    its current rate multiplied by ``1 + U(-magnitude, +magnitude)`` and
    rounded back to an integer.  Rates drift cumulatively from the previous
    epoch, not from the base, so sustained churn compounds like real traffic.
    """
    _check_epochs(epochs)
    if not 0.0 <= churn <= 1.0:
        raise ValueError("churn must lie in [0, 1]")
    if magnitude < 0:
        raise ValueError("magnitude must be non-negative")
    if not 0.0 <= quiet_probability <= 1.0:
        raise ValueError("quiet_probability must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    problem = as_base_problem(base)
    tree = problem.tree
    sequence = [problem]
    for t in range(1, epochs):
        updates: Dict[NodeId, float] = {}
        if not (quiet_probability > 0.0 and rng.random() < quiet_probability):
            for cid in tree.client_ids:
                if rng.random() < churn:
                    current = tree.requests(cid)
                    drifted = current * (1.0 + rng.uniform(-magnitude, magnitude))
                    updates[cid] = float(max(0, round(drifted)))
        tree = tree.with_requests(updates)
        sequence.append(_epoch_problem(problem, tree, t))
    return sequence


def regional_churn(
    base: Union[TreeNetwork, ReplicaPlacementProblem],
    epochs: int,
    *,
    depth: int = 1,
    regions_per_epoch: int = 1,
    magnitude: float = 0.5,
    quiet_probability: float = 0.0,
    seed: Optional[int] = None,
) -> List[ReplicaPlacementProblem]:
    """Regional rate surges: whole subtrees drift together, one factor each.

    The regions are the internal nodes at tree ``depth`` (clamped to the
    deepest level that still has internal nodes); per epoch, with
    probability ``quiet_probability`` nothing changes, otherwise
    ``regions_per_epoch`` regions are drawn uniformly and every client in a
    drawn region's subtree scales by the *same* factor
    ``1 + U(-magnitude, +magnitude)`` -- a flash crowd or regional outage
    seen through one access subtree.  Rates drift cumulatively from the
    previous epoch, and all of one epoch's changes stay inside the chosen
    subtrees, which is exactly the locality a sharded session
    (:class:`~repro.session.PlacementSession` with ``shards=``, shards cut
    at the same depth) exploits: each epoch re-solves only the surged
    shards.
    """
    _check_epochs(epochs)
    if depth < 0:
        raise ValueError("depth must be non-negative")
    if regions_per_epoch < 1:
        raise ValueError("regions_per_epoch must be >= 1")
    if magnitude < 0:
        raise ValueError("magnitude must be non-negative")
    if not 0.0 <= quiet_probability <= 1.0:
        raise ValueError("quiet_probability must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    problem = as_base_problem(base)
    tree = problem.tree
    node_depths = {nid: tree.depth(nid) for nid in tree.node_ids}
    max_depth = max(node_depths.values())
    level = min(depth, max_depth)
    regions = [nid for nid in tree.node_ids if node_depths[nid] == level]
    sequence = [problem]
    for t in range(1, epochs):
        factor_of: Dict[NodeId, float] = {}
        if not (quiet_probability > 0.0 and rng.random() < quiet_probability):
            count = min(regions_per_epoch, len(regions))
            order = rng.permutation(len(regions))
            for i in order[:count]:
                factor = 1.0 + rng.uniform(-magnitude, magnitude)
                for cid in tree.subtree_clients(regions[i]):
                    factor_of[cid] = factor
        tree = tree.with_requests(_scaled_rates(tree, factor_of))
        sequence.append(_epoch_problem(problem, tree, t))
    return sequence


def client_join_leave(
    base: Union[TreeNetwork, ReplicaPlacementProblem],
    epochs: int,
    *,
    join_rate: float = 0.05,
    leave_rate: float = 0.05,
    request_range: Tuple[int, int] = (1, 20),
    link_comm_time: float = 1.0,
    seed: Optional[int] = None,
) -> List[ReplicaPlacementProblem]:
    """Topology churn: clients leave and new clients join each epoch.

    Every existing client leaves with probability ``leave_rate`` (at least
    one client always remains), and ``Binomial(|C|, join_rate)`` new clients
    join, each attached to a uniformly drawn internal node with an integral
    rate from ``request_range``.  Epochs with topology changes rebuild the
    tree; unchanged epochs fork it cheaply.
    """
    _check_epochs(epochs)
    if not 0.0 <= join_rate <= 1.0 or not 0.0 <= leave_rate <= 1.0:
        raise ValueError("join_rate and leave_rate must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    problem = as_base_problem(base)
    tree = problem.tree
    sequence = [problem]
    joined = 0
    for t in range(1, epochs):
        client_ids = list(tree.client_ids)
        leaving = [cid for cid in client_ids if rng.random() < leave_rate]
        if len(leaving) >= len(client_ids):  # keep at least one client
            leaving = leaving[: len(client_ids) - 1]
        n_joins = int(rng.binomial(len(client_ids), join_rate))
        if not leaving and n_joins == 0:
            tree = tree.with_requests({})
            sequence.append(_epoch_problem(problem, tree, t))
            continue
        leaving_set = set(leaving)
        clients = [c for c in tree.clients() if c.id not in leaving_set]
        links = [
            link
            for link in tree.links()
            if link.child not in leaving_set
        ]
        node_ids = tree.node_ids
        low, high = request_range
        for _ in range(n_joins):
            name = f"dyn{joined}"
            joined += 1
            parent = node_ids[int(rng.integers(len(node_ids)))]
            clients.append(
                Client(id=name, requests=float(int(rng.integers(low, high + 1))))
            )
            links.append(Link(child=name, parent=parent, comm_time=link_comm_time))
        tree = TreeNetwork(tree.nodes(), clients, links)
        sequence.append(_epoch_problem(problem, tree, t))
    return sequence


def capacity_incident(
    base: Union[TreeNetwork, ReplicaPlacementProblem],
    epochs: int,
    *,
    at: int,
    duration: int = 1,
    nodes: Optional[Sequence[NodeId]] = None,
    fraction: float = 0.25,
    factor: float = 0.0,
    seed: Optional[int] = None,
) -> List[ReplicaPlacementProblem]:
    """Server capacities drop by ``factor`` for epochs ``at .. at+duration-1``.

    Models a partial outage: the affected servers (an explicit list, or a
    random ``fraction`` of the internal nodes -- never the root, so the
    instance can stay feasible) run at ``capacity * factor`` during the
    incident and recover afterwards.  Requires a Replica-Cost or general
    problem: degraded capacities make a homogeneous platform heterogeneous,
    which the Replica Counting cost mode rejects.
    """
    _check_epochs(epochs)
    if not 0.0 <= factor <= 1.0:
        raise ValueError("factor must lie in [0, 1]")
    problem = as_base_problem(base)
    if problem.kind is ProblemKind.REPLICA_COUNTING and factor != 1.0:
        raise ValueError(
            "capacity_incident degrades capacities, which breaks the "
            "homogeneous platform the Replica Counting cost mode requires; "
            "use ProblemKind.REPLICA_COST for incident trajectories"
        )
    base_tree = problem.tree
    if nodes is None:
        rng = np.random.default_rng(seed)
        candidates = [nid for nid in base_tree.node_ids if nid != base_tree.root]
        count = max(1, int(round(len(candidates) * fraction))) if candidates else 0
        order = rng.permutation(len(candidates))
        affected = tuple(candidates[i] for i in order[:count])
    else:
        affected = tuple(nodes)
    degraded_tree = base_tree.with_nodes(
        [
            InternalNode(
                id=nid,
                capacity=base_tree.node(nid).capacity * factor,
                storage_cost=base_tree.node(nid).storage_cost,
            )
            for nid in affected
        ]
    )
    sequence = [problem]
    tree = base_tree
    for t in range(1, epochs):
        in_incident = at <= t < at + duration
        was_in_incident = at <= t - 1 < at + duration
        if in_incident != was_in_incident:
            tree = degraded_tree if in_incident else base_tree
        # The no-op fork keeps per-epoch problems distinct while sharing the
        # (possibly already indexed) healthy or degraded structure.
        tree = tree.with_requests({})
        sequence.append(_epoch_problem(problem, tree, t))
    return sequence

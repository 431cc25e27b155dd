"""Sharded solving: per-subtree solves reconciled at the cut.

The pipeline mirrors the distributed part-merge idiom the ROADMAP names:

1. **Partition** the problem at a small cut of high-level nodes
   (:func:`repro.core.partition.partition_problem`) into shard sub-problems
   plus a residual top region, each indexed like any tree, by
   :meth:`TreeIndex.for_tree` on first use -- the whole-tree dense index is
   never built.
2. **Solve regions independently** through the normal portfolio.  A shard
   whose clients fit its own capacity yields a sub-solution that is already
   globally valid: shard servers are ancestors only of shard clients,
   capacities are disjoint and no flow crosses the cut link.
3. **Reconcile contended shards at the cut.**  A shard whose local solve is
   infeasible must push requests above its cut node.  Under the Multiple
   policy (no bandwidth caps) this is an IPFP-style proportional-fitting
   pass: client rates are scaled down to the shard capacity (the "column"
   the cut node can absorb), the reduced shard re-solves locally, and the
   peeled remainders re-home as boundary clients of the **quotient tree**
   -- the residual region with one synthetic client per overflow, attached
   at the cut node's parent over a copy of the cut link, carrying the
   client's *boundary QoS budget* (global bound minus the metric already
   spent reaching the cut).  Under Upwards, whole clients overflow (the
   single-server rule forbids splitting); under Closest or with bandwidth
   enforcement, the contended shard merges back into the residual region
   instead (a shard replica between an overflowed client and its top server
   would steal the "closest" role, and overflow traffic would invalidate
   locally-validated link flows).
4. **Stitch** the per-region solutions into one global
   :class:`~repro.core.solution.Solution` and check it with
   :func:`validate_solution`; any reconciliation dead-end falls back to
   merging regions, and ultimately to the classic whole-tree solve, so a
   sharded solve is never *less* capable than the whole-tree path.

The one-shard plan short-circuits to :func:`portfolio_solve` untouched:
the whole-tree path is literally the single-shard special case.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.algorithms.portfolio import portfolio_solve
from repro.core.exceptions import InfeasibleError
from repro.core.partition import Shard, ShardPlan, ShardSpec, partition_problem
from repro.core.policies import Policy
from repro.core.problem import ReplicaPlacementProblem
from repro.core.solution import Assignment, Placement, Solution
from repro.core.tree import Client, Link, NodeId, TreeNetwork
from repro.core.validation import validate_solution

__all__ = ["solve_sharded", "stitch_solutions"]

#: positive lower bound for synthetic boundary-client QoS (Client rejects 0).
_MIN_QOS = 1e-9


def _empty_solution(policy: Policy) -> Solution:
    """The solution of a region with no clients (or no requests)."""
    return Solution(
        placement=Placement(()),
        assignment=Assignment({}),
        policy=policy,
        algorithm="empty",
    )


def _solve_region(
    problem: ReplicaPlacementProblem,
    policy: Policy,
    algorithm: Optional[str],
) -> Optional[Solution]:
    """Portfolio-solve one region; ``None`` signals local infeasibility."""
    if not problem.tree.client_ids or problem.tree.total_requests() <= 0:
        return _empty_solution(policy)
    try:
        return portfolio_solve(problem, policy=policy, algorithm=algorithm)
    except InfeasibleError:
        return None


def stitch_solutions(
    solutions: Sequence[Solution],
    *,
    policy: Policy,
    algorithm: str = "sharded",
    metadata: Optional[Dict[str, object]] = None,
    consume: bool = False,
) -> Solution:
    """Union per-region solutions into one global solution.

    Regions cover disjoint client and server sets, so placements union and
    assignment maps merge without key collisions.  With ``consume=True``
    (and a mutable ``solutions`` list) each region solution is dropped from
    the list as it merges, so only one copy of the global assignment is
    ever held -- the one-shot :func:`solve_sharded` path uses this to keep
    its peak memory under the whole-tree solve's.
    """
    placement = Placement(())
    amounts: Dict[Tuple[NodeId, NodeId], float] = {}
    if consume and isinstance(solutions, list):
        while solutions:
            solution = solutions.pop()
            placement = placement | solution.placement
            for pair, value in solution.assignment.items():
                amounts[pair] = amounts.get(pair, 0.0) + value
    else:
        for solution in solutions:
            placement = placement | solution.placement
            for pair, value in solution.assignment.items():
                amounts[pair] = amounts.get(pair, 0.0) + value
    return Solution(
        placement=placement,
        # sums of the regions' amounts, each a positive float already
        assignment=Assignment.of_positive(amounts),
        policy=policy,
        algorithm=algorithm,
        metadata=metadata or {},
    )


# --------------------------------------------------------------------------- #
# cut reconciliation
# --------------------------------------------------------------------------- #
def _overflow_selection(
    shard: Shard, *, whole_clients: bool
) -> Optional[Dict[NodeId, float]]:
    """How much of each client's rate must re-home above the cut.

    Clients with the largest boundary QoS budget go first -- they can
    travel farthest into the residual region.  Returns ``None`` when the
    shard cannot shed enough demand through positive-budget clients.
    ``whole_clients`` forbids partial peels (the Upwards single-server
    rule).
    """
    excess = shard.demand - shard.capacity
    if excess <= 0:
        # Locally infeasible despite spare aggregate capacity: a QoS or
        # packing dead-end that rate scaling cannot name precisely -- let
        # the merged-rest fallback handle it.
        return None
    tree = shard.problem.tree
    ranked = sorted(
        (cid for cid in shard.clients if tree.requests(cid) > 0),
        key=lambda cid: (-shard.boundary_budget(cid), -tree.requests(cid), repr(cid)),
    )
    moved: Dict[NodeId, float] = {}
    remaining = excess
    for cid in ranked:
        if remaining <= 0:
            break
        if shard.boundary_budget(cid) <= 0:
            break  # nothing below can leave the shard either
        rate = tree.requests(cid)
        take = rate if whole_clients else min(rate, remaining)
        moved[cid] = take
        remaining -= take
    if remaining > 0:
        return None
    return moved


def _reduced_shard_problem(
    shard: Shard, moved: Dict[NodeId, float]
) -> ReplicaPlacementProblem:
    """The shard problem with overflowed rates peeled off (dropping
    fully-peeled clients so Upwards sees them wholly re-homed)."""
    tree = shard.problem.tree
    keep_clients = []
    drop = set()
    for cid in tree.client_ids:
        client = tree.client(cid)
        taken = moved.get(cid, 0.0)
        if taken >= client.requests and taken > 0:
            drop.add(cid)
            continue
        if taken > 0:
            client = Client(
                id=client.id,
                requests=client.requests - taken,
                qos=client.qos,
                metadata=client.metadata,
            )
        keep_clients.append(client)
    nodes = [tree.node(nid) for nid in tree.node_ids]
    links = [link for link in tree.links() if link.child not in drop]
    reduced_tree = TreeNetwork(nodes, keep_clients, links)
    return ReplicaPlacementProblem(
        tree=reduced_tree,
        constraints=shard.problem.constraints,
        kind=shard.problem.kind,
        name=f"{shard.problem.name}[reduced]",
    )


def _quotient_problem(
    plan: ShardPlan, overflow: Dict[int, Dict[NodeId, float]]
) -> ReplicaPlacementProblem:
    """The residual region plus one boundary client per overflowed client.

    A boundary client re-attaches at its cut node's *parent* over a copy of
    the cut link, with QoS equal to its boundary budget: for both built-in
    metrics, "feasible in the quotient" is then arithmetically identical to
    "feasible in the global tree" (the copied link contributes the hop /
    comm time the real route would spend crossing the cut).
    """
    source = plan.problem.tree
    residual_tree = plan.residual.tree
    nodes = [residual_tree.node(nid) for nid in residual_tree.node_ids]
    clients = [residual_tree.client(cid) for cid in residual_tree.client_ids]
    links = list(residual_tree.links())
    for shard_index, moved in sorted(overflow.items()):
        shard = plan.shards[shard_index]
        cut_link = source.link(shard.root)
        for cid in sorted(moved, key=repr):
            budget = shard.boundary_budget(cid)
            qos = budget if math.isfinite(budget) else math.inf
            clients.append(
                Client(id=cid, requests=moved[cid], qos=max(qos, _MIN_QOS))
            )
            links.append(
                Link(
                    child=cid,
                    parent=shard.parent,
                    comm_time=cut_link.comm_time,
                    bandwidth=cut_link.bandwidth,
                )
            )
    quotient_tree = TreeNetwork(nodes, clients, links)
    return ReplicaPlacementProblem(
        tree=quotient_tree,
        constraints=plan.problem.constraints,
        kind=plan.problem.kind,
        name=f"{plan.problem.name or 'problem'}[quotient]",
    )


def _merged_rest_problem(
    plan: ShardPlan, keep_shards: Sequence[int]
) -> ReplicaPlacementProblem:
    """The global tree minus the subtrees of the accepted shards.

    This is the "merge back" fallback: every region that could not be
    locally solved (plus the residual) re-forms one connected problem
    around the global root and solves as a whole.
    """
    tree = plan.problem.tree
    keep = set(keep_shards)
    excluded = set()
    for shard in plan.shards:
        if shard.index in keep:
            excluded.update(tree.subtree_nodes(shard.root))
            excluded.update(tree.subtree_clients(shard.root))
    nodes = [tree.node(nid) for nid in tree.node_ids if nid not in excluded]
    clients = [tree.client(cid) for cid in tree.client_ids if cid not in excluded]
    # Kept shards' cut links drop with their subtrees (the shard root is in
    # ``excluded``); merged shards keep their cut link and re-join the rest.
    links = [link for link in tree.links() if link.child not in excluded]
    rest_tree = TreeNetwork(nodes, clients, links)
    return ReplicaPlacementProblem(
        tree=rest_tree,
        constraints=plan.problem.constraints,
        kind=plan.problem.kind,
        name=f"{plan.problem.name or 'problem'}[rest]",
    )


def _reconcile(
    plan: ShardPlan,
    solutions: List[Optional[Solution]],
    policy: Policy,
    algorithm: Optional[str],
) -> Tuple[Optional[List[Solution]], str]:
    """Turn per-region solutions with failures into a feasible region list.

    Returns ``(solutions, strategy)`` with ``solutions=None`` when even the
    merged-rest pass failed (callers then fall back to whole-tree).
    """
    n_shards = len(plan.shards)
    contended = [i for i in range(n_shards) if solutions[i] is None]
    residual_failed = solutions[n_shards] is None

    # IPFP-style proportional fitting only composes when request splits are
    # free (Multiple) and link flows cannot be invalidated by new transit
    # traffic (no bandwidth caps); Upwards re-homes whole clients instead.
    constraints = plan.problem.constraints
    fit_allowed = (
        policy in (Policy.MULTIPLE, Policy.UPWARDS)
        and not constraints.enforce_bandwidth
        and not residual_failed
    )
    if fit_allowed and contended:
        whole = policy is Policy.UPWARDS
        overflow: Dict[int, Dict[NodeId, float]] = {}
        reduced: Dict[int, Solution] = {}
        fitted = True
        for i in contended:
            moved = _overflow_selection(plan.shards[i], whole_clients=whole)
            if moved is None:
                fitted = False
                break
            reduced_solution = _solve_region(
                _reduced_shard_problem(plan.shards[i], moved), policy, algorithm
            )
            if reduced_solution is None:
                fitted = False
                break
            overflow[i] = moved
            reduced[i] = reduced_solution
        if fitted:
            quotient_solution = _solve_region(
                _quotient_problem(plan, overflow), policy, algorithm
            )
            if quotient_solution is not None:
                stitched = list(solutions)
                for i in contended:
                    stitched[i] = reduced[i]
                stitched[n_shards] = quotient_solution
                strategy = (
                    "proportional-fit" if policy is Policy.MULTIPLE else "re-home"
                )
                return [s for s in stitched if s is not None], strategy

    # Merge every failed region (and the residual) back into one rest
    # problem rooted at the global root.
    keep = [i for i in range(n_shards) if solutions[i] is not None]
    rest_solution = _solve_region(_merged_rest_problem(plan, keep), policy, algorithm)
    if rest_solution is None:
        return None, "merged"
    merged = [solutions[i] for i in keep]
    merged.append(rest_solution)
    return merged, "merged"


# --------------------------------------------------------------------------- #
# entry point
# --------------------------------------------------------------------------- #
def solve_sharded(
    problem: ReplicaPlacementProblem,
    *,
    policy: Union[Policy, str] = Policy.MULTIPLE,
    algorithm: Optional[str] = None,
    shards: Optional[ShardSpec] = None,
    plan: Optional[ShardPlan] = None,
) -> Solution:
    """Solve ``problem`` shard by shard and stitch a validated solution.

    ``shards`` is a target count or explicit cut (ignored when a prebuilt
    ``plan`` is passed).  Plans with fewer than two shards -- including
    ``shards=1`` -- delegate to :func:`portfolio_solve` untouched, so the
    whole-tree path stays bit-identical.  The stitched solution always
    passes :func:`validate_solution`; when even reconciliation fails, the
    classic whole-tree solve runs as the final fallback (and its
    :class:`InfeasibleError` propagates as usual).
    """
    policy = Policy.parse(policy)
    if plan is None:
        if shards is None:
            shards = 2
        if isinstance(shards, int) and shards <= 1:
            return portfolio_solve(problem, policy=policy, algorithm=algorithm)
        plan = partition_problem(problem, shards=shards)
    if len(plan.shards) < 2:
        return portfolio_solve(problem, policy=policy, algorithm=algorithm)

    # Stream region by region: the solve indexes the region's tree, and the
    # index is released before the next region, so the peak working set
    # above the shared problem is one region plus the accumulated
    # per-region solutions -- not every shard's scaffolding at once.
    solutions = []
    for region_problem in plan.region_problems():
        solutions.append(_solve_region(region_problem, policy, algorithm))
        region_problem.tree._index_cache = None
    strategy = "independent"
    contended = [s.root for s, sol in zip(plan.shards, solutions) if sol is None]
    if any(solution is None for solution in solutions):
        reconciled, strategy = _reconcile(plan, solutions, policy, algorithm)
    else:
        reconciled = solutions  # take ownership: the list is consumed below
        solutions = None

    if reconciled is not None:
        metadata: Dict[str, object] = {
            "shards": len(plan.shards),
            "cut": tuple(map(repr, plan.cut)),
            "strategy": strategy,
            "contended": tuple(map(repr, contended)),
        }
        stitched = stitch_solutions(
            reconciled,
            policy=policy,
            algorithm=f"sharded[{len(plan.shards)}:{strategy}]",
            metadata=metadata,
            consume=solutions is None,
        )
        if validate_solution(plan.problem, stitched, policy=policy).valid:
            return stitched

    # Last resort: the classic whole-tree solve (raises InfeasibleError when
    # the instance is genuinely infeasible).
    solution = portfolio_solve(problem, policy=policy, algorithm=algorithm)
    return Solution(
        placement=solution.placement,
        assignment=solution.assignment,
        policy=solution.policy,
        algorithm=solution.algorithm,
        metadata={**dict(solution.metadata), "strategy": "whole-tree-fallback"},
    )

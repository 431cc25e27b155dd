"""Incremental re-solving of dynamic-workload epoch sequences.

Re-solving every epoch of a dynamic workload from scratch wastes the work
of the previous epoch: most of the time only a handful of request rates
moved, and often nothing moved at all.  :class:`IncrementalResolver` keeps
the previous epoch's problem and :class:`~repro.core.solution.Solution` and
picks, per epoch, the cheapest strategy that is still correct:

``reused``
    The epoch is *identical* to the previous one (same topology, rates,
    capacities, constraints and cost mode).  The solvers are deterministic,
    so the previous solution -- including a previous infeasibility verdict --
    is returned without running anything.

``patched`` (only in ``mode="patch"``)
    Rates moved but topology, capacities and constraints did not.  The
    previous placement is kept frozen; the assignments of unchanged clients
    are kept verbatim, and only the changed clients are re-routed onto the
    existing replicas (respecting policy and QoS semantics, bottom-up,
    within residual capacities -- the invalidated subtree spans of the
    :class:`~repro.core.index.TreeIndex` are exactly the regions whose loads
    are recomputed).  Minimal migrations, but the placement may drift away
    from what a fresh heuristic would build; when the patch cannot absorb
    the new rates it falls back to a full re-solve.

``solved``
    Everything else -- topology or capacity changes, constraint changes, a
    failed patch, or rate changes in ``mode="exact"`` -- re-runs the full
    heuristic portfolio via :func:`repro.api.solve`
    (:meth:`IncrementalResolver.resolve_from_scratch`).  Epochs forked with
    :meth:`TreeNetwork.with_requests` make even this path cheaper: the
    solver state is built on a patched tree index instead of a fresh DFS.

``mode="exact"`` (the default) therefore guarantees **cost-identical**
solutions to a from-scratch loop over the same epochs -- the dynamic
cross-validation suite pins placements, assignments and costs of the two --
while skipping all repeated work.  ``mode="patch"`` trades cost optimality
for placement stability; the churn campaign of
:mod:`repro.experiments.harness` quantifies that trade-off.

Every resolve returns :class:`ResolveStats` with the strategy used and the
migration cost relative to the previous epoch (replicas added/dropped,
request volume re-routed), the operational currency of online replica
placement.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.exceptions import InfeasibleError
from repro.core.policies import Policy
from repro.core.problem import ReplicaPlacementProblem
from repro.core.solution import Assignment, Placement, Solution
from repro.core.tree import NodeId

__all__ = [
    "ProblemDelta",
    "ResolveStats",
    "IncrementalResolver",
    "BoundStats",
    "IncrementalBounder",
    "diff_problems",
    "migration_stats",
]

#: Strategies an epoch can be resolved with.
STRATEGIES = ("reused", "patched", "solved")


# --------------------------------------------------------------------------- #
# epoch diffing
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ProblemDelta:
    """What changed between two consecutive epoch problems."""

    #: client/node ids or parent links differ (joins, leaves, rewires)
    topology_changed: bool
    #: internal node capacities or storage costs differ
    nodes_changed: bool
    #: link attributes (comm time, bandwidth) differ
    links_changed: bool
    #: constraint set or cost mode differ
    settings_changed: bool
    #: clients whose QoS bound changed (same topology)
    qos_changed: Tuple[NodeId, ...] = ()
    #: clients whose request rate changed (same topology)
    changed_clients: Tuple[NodeId, ...] = ()

    @property
    def unchanged(self) -> bool:
        """``True`` when the epochs are equivalent problems."""
        return not (
            self.topology_changed
            or self.nodes_changed
            or self.links_changed
            or self.settings_changed
            or self.qos_changed
            or self.changed_clients
        )

    @property
    def rates_only(self) -> bool:
        """``True`` when only request rates moved (the patchable case)."""
        return bool(self.changed_clients) and not (
            self.topology_changed
            or self.nodes_changed
            or self.links_changed
            or self.settings_changed
            or self.qos_changed
        )


def diff_problems(
    previous: ReplicaPlacementProblem, current: ReplicaPlacementProblem
) -> ProblemDelta:
    """Structural diff of two epochs (cheap: one pass over clients/nodes).

    Trees forked with :meth:`TreeNetwork.with_requests` share their
    structural dictionaries, so the topology comparison is usually a few
    identity checks.
    """
    prev_tree, tree = previous.tree, current.tree
    settings_changed = (
        previous.constraints != current.constraints or previous.kind is not current.kind
    )

    before, after = prev_tree._store, tree._store
    if not before.same_topology(after):
        return ProblemDelta(
            topology_changed=True,
            nodes_changed=True,
            links_changed=True,
            settings_changed=settings_changed,
        )
    if not before.same_layout(after):
        return _diff_by_id(prev_tree, tree, settings_changed)
    # One layout (always so for forks): compare the columns.
    clients = after.ids[after.n_nodes :]
    return ProblemDelta(
        topology_changed=False,
        nodes_changed=not (
            _same(before.capacity, after.capacity) and _same(before.storage, after.storage)
        ),
        links_changed=not (
            _same(before.comm, after.comm)
            and _same(before.bandwidth, after.bandwidth)
            and before.metrics == after.metrics
        ),
        settings_changed=settings_changed,
        qos_changed=_changed(before.qos, after.qos, clients),
        changed_clients=_changed(prev_tree._requests, tree._requests, clients),
    )


def _same(old, new) -> bool:
    return old is new or old == new


def _changed(old, new, ids: Sequence[NodeId]) -> Tuple[NodeId, ...]:
    """Ids (in column order) whose entry differs between two columns."""
    if old is new:
        return ()
    differs = np.frombuffer(old, dtype=np.float64) != np.frombuffer(new, dtype=np.float64)
    return tuple(map(ids.__getitem__, np.flatnonzero(differs).tolist()))


def _diff_by_id(prev_tree, tree, settings_changed: bool) -> ProblemDelta:
    """The diff of one topology declared in two orders, record by record."""
    old = {client.id: client for client in prev_tree.clients()}
    qos_changed: List[NodeId] = []
    changed_clients: List[NodeId] = []
    for client_id in tree._store.ids[tree._store.n_nodes :]:  # declaration order
        before, after = old[client_id], tree.client(client_id)
        if before.qos != after.qos:
            qos_changed.append(client_id)
        if before.requests != after.requests:
            changed_clients.append(client_id)
    return ProblemDelta(
        topology_changed=False,
        nodes_changed=set(prev_tree.nodes()) != set(tree.nodes()),
        links_changed=set(prev_tree.links()) != set(tree.links()),
        settings_changed=settings_changed,
        qos_changed=tuple(qos_changed),
        changed_clients=tuple(changed_clients),
    )


# --------------------------------------------------------------------------- #
# migration accounting
# --------------------------------------------------------------------------- #
def migration_stats(
    previous: Optional[Solution], current: Optional[Solution]
) -> Tuple[int, int, float]:
    """``(replicas_added, replicas_dropped, requests_reassigned)``.

    ``requests_reassigned`` is the request volume newly routed onto a
    ``(client, server)`` pair, i.e. ``sum of max(0, new - old)`` over all
    pairs: the traffic an operator would have to cut over.  A missing
    solution (cold start or infeasible epoch) counts as empty.
    """
    prev_replicas = previous.placement.replicas if previous is not None else frozenset()
    new_replicas = current.placement.replicas if current is not None else frozenset()
    added = len(new_replicas - prev_replicas)
    dropped = len(prev_replicas - new_replicas)

    prev_amounts: Dict[Tuple[NodeId, NodeId], float] = (
        dict(previous.assignment.items()) if previous is not None else {}
    )
    reassigned = 0.0
    if current is not None:
        for pair, amount in current.assignment.items():
            delta = amount - prev_amounts.get(pair, 0.0)
            if delta > 0:
                reassigned += delta
    return added, dropped, reassigned


@dataclass
class ResolveStats:
    """Bookkeeping of one epoch resolve."""

    epoch: int
    strategy: str
    changed_clients: int
    cost: Optional[float]
    replicas_added: int
    replicas_dropped: int
    requests_reassigned: float
    runtime: float
    #: free-form details (fallback reasons, patch rejections, ...)
    notes: str = ""

    def describe(self) -> str:
        """One line for CLI / campaign reports."""
        cost = "infeasible" if self.cost is None else f"cost {self.cost:g}"
        return (
            f"epoch {self.epoch:>3}: {cost:>14} [{self.strategy}] "
            f"changed={self.changed_clients} +{self.replicas_added}/-{self.replicas_dropped} replicas, "
            f"{self.requests_reassigned:g} requests re-routed"
        )

    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible payload (part of the result protocol)."""
        from repro.core.results import encode_float

        return {
            "epoch": self.epoch,
            "strategy": self.strategy,
            "changed_clients": self.changed_clients,
            "cost": encode_float(self.cost),
            "replicas_added": self.replicas_added,
            "replicas_dropped": self.replicas_dropped,
            "requests_reassigned": self.requests_reassigned,
            "runtime": self.runtime,
            "notes": self.notes,
        }

    @classmethod
    def from_dict(cls, payload) -> "ResolveStats":
        """Rebuild stats from a :meth:`to_dict` payload."""
        from repro.core.results import decode_float

        return cls(
            epoch=int(payload["epoch"]),
            strategy=str(payload["strategy"]),
            changed_clients=int(payload["changed_clients"]),
            cost=decode_float(payload.get("cost")),
            replicas_added=int(payload["replicas_added"]),
            replicas_dropped=int(payload["replicas_dropped"]),
            requests_reassigned=float(payload["requests_reassigned"]),
            runtime=float(payload.get("runtime", 0.0)),
            notes=str(payload.get("notes", "")),
        )


# --------------------------------------------------------------------------- #
# the resolver
# --------------------------------------------------------------------------- #
class IncrementalResolver:
    """Stateful epoch-by-epoch solver for dynamic workloads.

    Parameters
    ----------
    policy, algorithm:
        Forwarded to :func:`repro.api.solve` whenever a full solve runs.
    mode:
        ``"exact"`` (default) -- only provably-equivalent shortcuts: reuse
        identical epochs, full re-solve otherwise.  Cost-identical to a
        from-scratch loop.
        ``"patch"`` -- additionally repair rate-only epochs in place on the
        frozen placement (stability first, see the module docstring).
        ``"scratch"`` -- no shortcuts at all; the baseline the other two are
        benchmarked and cross-validated against.
    """

    MODES = ("exact", "patch", "scratch")

    def __init__(
        self,
        *,
        policy: Union[Policy, str] = Policy.MULTIPLE,
        algorithm: Optional[str] = None,
        mode: str = "exact",
    ) -> None:
        if mode not in self.MODES:
            raise ValueError(f"unknown mode {mode!r}; expected one of {self.MODES}")
        self.policy = Policy.parse(policy)
        self.algorithm = algorithm
        self.mode = mode
        self.epoch = -1
        self.previous_problem: Optional[ReplicaPlacementProblem] = None
        self.previous_solution: Optional[Solution] = None

    # ------------------------------------------------------------------ #
    def resolve_from_scratch(
        self, problem: ReplicaPlacementProblem
    ) -> Optional[Solution]:
        """Full solve of one epoch (no warm start); ``None`` when infeasible."""
        from repro.algorithms.portfolio import portfolio_solve

        try:
            return portfolio_solve(problem, policy=self.policy, algorithm=self.algorithm)
        except InfeasibleError:
            return None

    def resolve(
        self, problem: ReplicaPlacementProblem
    ) -> Tuple[Optional[Solution], ResolveStats]:
        """Solve the next epoch, warm-starting from the previous one."""
        start = time.perf_counter()
        self.epoch += 1
        strategy = "solved"
        notes = ""
        changed = 0

        if self.previous_problem is None or self.mode == "scratch":
            solution = self.resolve_from_scratch(problem)
        else:
            delta = diff_problems(self.previous_problem, problem)
            changed = len(delta.changed_clients)
            if delta.unchanged:
                solution = self.previous_solution
                strategy = "reused"
            elif self.mode == "patch" and delta.rates_only:
                solution = self._patch(problem, delta)
                if solution is not None:
                    strategy = "patched"
                else:
                    notes = "patch failed; re-solved from scratch"
                    solution = self.resolve_from_scratch(problem)
            else:
                solution = self.resolve_from_scratch(problem)

        added, dropped, reassigned = migration_stats(self.previous_solution, solution)
        stats = ResolveStats(
            epoch=self.epoch,
            strategy=strategy,
            changed_clients=changed,
            cost=solution.cost(problem) if solution is not None else None,
            replicas_added=added,
            replicas_dropped=dropped,
            requests_reassigned=reassigned,
            runtime=time.perf_counter() - start,
            notes=notes,
        )
        self.previous_problem = problem
        self.previous_solution = solution
        return solution, stats

    # ------------------------------------------------------------------ #
    # the patch path
    # ------------------------------------------------------------------ #
    def _patch(
        self, problem: ReplicaPlacementProblem, delta: ProblemDelta
    ) -> Optional[Solution]:
        """Re-route the changed clients on the frozen previous placement.

        Returns ``None`` when the previous placement cannot absorb the new
        rates under the policy/QoS/capacity (and, if enforced, bandwidth)
        constraints; the caller then falls back to a full re-solve.
        """
        previous = self.previous_solution
        if previous is None:
            return None
        tree = problem.tree
        replicas = previous.placement.replicas

        # Strip the changed clients' old routes; keep everything else.
        changed = set(delta.changed_clients)
        amounts: Dict[Tuple[NodeId, NodeId], float] = {}
        loads: Dict[NodeId, float] = {}
        for (client_id, server_id), amount in previous.assignment.items():
            if client_id in changed:
                continue
            amounts[(client_id, server_id)] = amount
            loads[server_id] = loads.get(server_id, 0.0) + amount

        # Re-route each changed client bottom-up over the frozen placement.
        # Sorted order keeps the repair deterministic whatever the diff order.
        for client_id in sorted(changed, key=repr):
            rate = tree.requests(client_id)
            if rate <= 0:
                continue
            servers = [
                sid for sid in problem.eligible_servers(client_id) if sid in replicas
            ]
            if self.policy is Policy.CLOSEST:
                # Closest pins the client to its lowest replica ancestor,
                # QoS-eligible or not -- bail out when QoS filtered it away.
                lowest = next(
                    (sid for sid in tree.ancestors(client_id) if sid in replicas),
                    None,
                )
                if lowest is None or not servers or servers[0] != lowest:
                    return None
                servers = [lowest]
            if self.policy.single_server:
                target = next(
                    (
                        sid
                        for sid in servers
                        if problem.capacity(sid) - loads.get(sid, 0.0) >= rate
                    ),
                    None,
                )
                if target is None:
                    return None
                amounts[(client_id, target)] = rate
                loads[target] = loads.get(target, 0.0) + rate
            else:
                pending = rate
                for sid in servers:
                    free = problem.capacity(sid) - loads.get(sid, 0.0)
                    if free <= 0:
                        continue
                    take = min(free, pending)
                    amounts[(client_id, sid)] = amounts.get((client_id, sid), 0.0) + take
                    loads[sid] = loads.get(sid, 0.0) + take
                    pending -= take
                    if pending <= 0:
                        break
                if pending > 0:
                    return None

        solution = Solution(
            placement=Placement(replicas),
            assignment=Assignment(amounts),
            policy=self.policy,
            algorithm=f"{previous.algorithm}+patch",
            metadata={"patched_clients": len(changed)},
        )
        if problem.constraints.enforce_bandwidth:
            # Re-routing moves link flows in ways the local capacity checks
            # above cannot see; run the full validator before accepting.
            from repro.core.validation import validate_solution

            if not validate_solution(problem, solution, policy=self.policy).valid:
                return None
        return solution


# --------------------------------------------------------------------------- #
# incremental LP lower bounds
# --------------------------------------------------------------------------- #
@dataclass
class BoundStats:
    """Bookkeeping of one epoch lower-bound computation."""

    epoch: int
    #: ``"reused"`` (identical epoch, no solve), ``"patched"`` (program
    #: re-targeted via :meth:`LinearProgramData.with_requests`, solved) or
    #: ``"built"`` (program assembled from scratch, solved).
    strategy: str
    changed_clients: int
    value: float
    runtime: float

    def describe(self) -> str:
        """One line for CLI / campaign reports."""
        import math as _math

        value = "infeasible" if _math.isinf(self.value) else f"bound {self.value:g}"
        return (
            f"epoch {self.epoch:>3}: {value:>14} [{self.strategy}] "
            f"changed={self.changed_clients}"
        )

    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible payload (part of the result protocol)."""
        from repro.core.results import encode_float

        return {
            "epoch": self.epoch,
            "strategy": self.strategy,
            "changed_clients": self.changed_clients,
            "value": encode_float(self.value),
            "runtime": self.runtime,
        }

    @classmethod
    def from_dict(cls, payload) -> "BoundStats":
        """Rebuild stats from a :meth:`to_dict` payload."""
        from repro.core.results import decode_float

        return cls(
            epoch=int(payload["epoch"]),
            strategy=str(payload["strategy"]),
            changed_clients=int(payload["changed_clients"]),
            value=decode_float(payload["value"]),
            runtime=float(payload.get("runtime", 0.0)),
        )


class IncrementalBounder:
    """Epoch-by-epoch LP lower bounds with structure-sharing program reuse.

    The LP layer's counterpart of :class:`IncrementalResolver`: it keeps the
    previous epoch's assembled bound program and picks, per epoch, the
    cheapest correct treatment --

    * identical epochs reuse the previous bound outright (the backends are
      deterministic);
    * rate-only epochs re-target the cached program with
      :meth:`~repro.lp.formulation.LinearProgramData.with_requests` (the
      constraint sparsity, split caches and labels are shared; only the RHS
      targets and variable uppers are re-gathered) and re-solve;
    * anything else -- topology, capacity, link or constraint changes, or a
      rate crossing zero -- re-assembles the program from scratch.

    Every path produces a program bit-identical to a fresh
    :func:`repro.lp.bounds.lp_lower_bound` build, so the per-epoch bounds
    are exactly the from-scratch bounds (cross-validated by the test
    suite).

    ``method="ipfp"`` swaps the LP program for the scaling-based
    :class:`~repro.lp.ipfp.IPFPProgram`; the reuse ladder is identical
    (same ``with_requests`` contract), and a re-targeted epoch reproduces
    the from-scratch IPFP value bit for bit.
    """

    MODES = ("incremental", "scratch")
    METHODS = ("mixed", "rational", "ipfp")

    def __init__(
        self,
        *,
        policy: Union[Policy, str] = Policy.MULTIPLE,
        method: str = "mixed",
        mode: str = "incremental",
        time_limit: Optional[float] = None,
    ) -> None:
        if mode not in self.MODES:
            raise ValueError(f"unknown mode {mode!r}; expected one of {self.MODES}")
        if method not in self.METHODS:
            raise ValueError(
                f"unknown lower-bound method {method!r}; expected one of {self.METHODS}"
            )
        self.policy = Policy.parse(policy)
        self.method = method
        self.mode = mode
        self.time_limit = time_limit
        self.epoch = -1
        self.previous_problem: Optional[ReplicaPlacementProblem] = None
        self._program = None
        self._previous = None

    def bound(self, problem: ReplicaPlacementProblem):
        """Lower-bound the next epoch; returns ``(LowerBoundResult, BoundStats)``."""
        from repro.lp.bounds import bound_for_program, bound_program

        start = time.perf_counter()
        self.epoch += 1
        strategy = "built"
        changed = 0
        result = None
        program = None

        if self.previous_problem is not None and self.mode == "incremental":
            delta = diff_problems(self.previous_problem, problem)
            changed = len(delta.changed_clients)
            if delta.unchanged and self._previous is not None:
                result = self._previous
                program = self._program
                strategy = "reused"
            elif delta.rates_only and self._program is not None:
                try:
                    program = self._program.with_requests(problem)
                    strategy = "patched"
                except ValueError:
                    program = None  # e.g. a rate crossed zero: rebuild

        if result is None:
            if program is None:
                program = bound_program(problem, policy=self.policy, method=self.method)
            result = bound_for_program(
                program, method=self.method, time_limit=self.time_limit
            )

        stats = BoundStats(
            epoch=self.epoch,
            strategy=strategy,
            changed_clients=changed,
            value=result.value,
            runtime=time.perf_counter() - start,
        )
        self.previous_problem = problem
        self._program = program
        self._previous = result
        return result, stats

"""Session-oriented public API: :class:`PlacementSession`.

The free functions of :mod:`repro.api` are stateless: every call rebuilds
the tree index, the LP variable layout and the constraint program from
scratch.  A :class:`PlacementSession` is the stateful counterpart a
long-running service wants: construct it **once** from a tree or problem
and it owns every cache the fast layers provide --

* the :class:`~repro.core.index.TreeIndex` of the tree (built on first use,
  shared by every subsequent solve, bound and simulation);
* one :class:`~repro.algorithms.incremental.IncrementalResolver` per
  ``(policy, algorithm)`` pair, so epoch updates re-solve incrementally;
* one :class:`~repro.algorithms.incremental.IncrementalBounder` per
  ``(policy, method, time_limit)`` triple, keeping the assembled
  :class:`~repro.lp.formulation.LinearProgramData` resident across epochs
  and re-targeting it via
  :meth:`~repro.lp.formulation.LinearProgramData.with_requests` when only
  request rates moved;
* the per-epoch results themselves, so repeating a query within an epoch
  costs a dictionary lookup.

A solve-then-bound on the same session never re-indexes the tree or
re-assembles the program; a rate-only :meth:`~PlacementSession.update`
patches the cached structures instead of rebuilding them
(``benchmarks/test_session_reuse.py`` pins both with identity checks and a
wall-clock floor).  The free functions of :mod:`repro.api` are thin shims
over a throwaway session and remain bit-identical to direct session calls
(``tests/test_session_api.py``).

Usage
-----

>>> from repro import PlacementSession                      # doctest: +SKIP
>>> session = PlacementSession(tree, policy="multiple")     # doctest: +SKIP
>>> placed = session.solve()          # portfolio solve, caches warm now
>>> bound = session.bound()           # same index, fresh program, cached
>>> gap = placed.cost / bound.value   # cost-vs-LP-bound gap
>>> session.update(requests={"c1": 9.0})  # epoch step, incremental re-solve
>>> session.bound()                   # program *patched*, not rebuilt
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    Iterator,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from repro.core.constraints import ConstraintSet
from repro.core.exceptions import InfeasibleError
from repro.core.policies import Policy
from repro.core.problem import ProblemKind, ReplicaPlacementProblem
from repro.core.results import ResultBase, decode_float, encode_float, register_result
from repro.core.solution import Solution
from repro.core.tree import NodeId, TreeNetwork

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.algorithms.incremental import (
        BoundStats,
        IncrementalBounder,
        IncrementalResolver,
        ResolveStats,
    )
    from repro.lp.bounds import LowerBoundResult
    from repro.lp.formulation import LinearProgramData
    from repro.simulation.request_flow import FlowSimulation

__all__ = [
    "PlacementSession",
    "SessionStats",
    "SolveResult",
    "BoundResult",
    "CompareResult",
    "as_problem",
]

#: session mode -> IncrementalResolver mode.
SESSION_MODES = {"incremental": "exact", "patch": "patch", "scratch": "scratch"}

#: accepted ``resolve=`` values of :meth:`PlacementSession.update`
#: (booleans keep the historical always/never semantics).
RESOLVE_MODES = (True, False, "always", "on_saturation")

#: lower-bound methods the session accepts (``"trivial"`` needs no LP;
#: ``"ipfp"`` is the scaling-based Lagrangian bound of :mod:`repro.lp.ipfp`).
BOUND_METHODS = ("mixed", "rational", "trivial", "ipfp")


def as_problem(
    instance: Union[TreeNetwork, ReplicaPlacementProblem],
    *,
    constraints: Optional[ConstraintSet] = None,
    kind: Optional[ProblemKind] = None,
) -> ReplicaPlacementProblem:
    """Coerce a tree or problem into a :class:`ReplicaPlacementProblem`."""
    if isinstance(instance, ReplicaPlacementProblem):
        problem = instance
        if constraints is not None:
            problem = problem.with_constraints(constraints)
        if kind is not None:
            problem = problem.with_kind(kind)
        return problem
    return ReplicaPlacementProblem(
        tree=instance,
        constraints=constraints or ConstraintSet.none(),
        kind=kind or ProblemKind.REPLICA_COST,
    )


# --------------------------------------------------------------------------- #
# result wrappers
# --------------------------------------------------------------------------- #
@register_result
@dataclass
class SolveResult(ResultBase):
    """One epoch solve of a session (the :class:`Solution` wrapper).

    ``solution`` is ``None`` when the epoch is infeasible and the call was
    made with ``on_error="none"`` (session updates and sequence shims);
    ``stats`` carries the resolver's strategy and migration bookkeeping.
    """

    payload_type = "solve_result"

    epoch: int
    policy: Policy
    solution: Optional[Solution]
    cost: Optional[float]
    stats: "ResolveStats"
    #: the problem the solve ran on; not serialised (trees round-trip
    #: separately through :mod:`repro.core.serialization`).
    problem: Optional[ReplicaPlacementProblem] = field(
        default=None, repr=False, compare=False
    )

    @property
    def feasible(self) -> bool:
        """Whether the epoch admitted a valid solution."""
        return self.solution is not None

    def describe(self) -> str:
        """One-line summary used by the CLI."""
        if self.solution is None:
            return (
                f"epoch {self.epoch}: no valid solution under the "
                f"{self.policy.value} policy"
            )
        return (
            f"epoch {self.epoch}: [{self.solution.algorithm}] "
            f"policy={self.policy.value} "
            f"replicas={self.solution.replica_count()} cost={self.cost:g} "
            f"[{self.stats.strategy}]"
        )

    def to_dict(self) -> Dict[str, Any]:
        from repro.core.serialization import solution_to_dict

        return self._tagged(
            {
                "epoch": self.epoch,
                "policy": self.policy.value,
                "feasible": self.feasible,
                "cost": encode_float(self.cost),
                "solution": (
                    solution_to_dict(self.solution) if self.solution else None
                ),
                "stats": self.stats.to_dict(),
            }
        )

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SolveResult":
        from repro.algorithms.incremental import ResolveStats
        from repro.core.serialization import solution_from_dict

        solution = payload.get("solution")
        return cls(
            epoch=int(payload["epoch"]),
            policy=Policy.parse(payload["policy"]),
            solution=solution_from_dict(solution) if solution else None,
            cost=decode_float(payload.get("cost")),
            stats=ResolveStats.from_dict(payload["stats"]),
        )


@register_result
@dataclass
class BoundResult(ResultBase):
    """One epoch LP lower bound of a session."""

    payload_type = "bound_result"

    epoch: int
    policy: Policy
    method: str
    result: "LowerBoundResult"
    stats: "BoundStats"

    @property
    def value(self) -> float:
        """The bound (``math.inf`` when the formulation is infeasible)."""
        return self.result.value

    @property
    def feasible(self) -> bool:
        """Whether the relaxed formulation admits a solution."""
        return self.result.feasible

    def gap(self, cost: Optional[float]) -> Optional[float]:
        """Relative cost-vs-bound gap ``cost / value`` (``None`` if undefined)."""
        if cost is None or not self.feasible or self.value <= 0:
            return None
        return cost / self.value

    def describe(self) -> str:
        """One-line summary used by the CLI."""
        value = "infeasible" if not self.feasible else f"{self.value:g}"
        return (
            f"epoch {self.epoch}: bound {value} "
            f"(method={self.method}, policy={self.policy.value}) "
            f"[{self.stats.strategy}]"
        )

    def to_dict(self) -> Dict[str, Any]:
        return self._tagged(
            {
                "epoch": self.epoch,
                "policy": self.policy.value,
                "method": self.method,
                "result": self.result.to_dict(),
                "stats": self.stats.to_dict(),
            }
        )

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "BoundResult":
        from repro.algorithms.incremental import BoundStats
        from repro.lp.bounds import LowerBoundResult

        return cls(
            epoch=int(payload["epoch"]),
            policy=Policy.parse(payload["policy"]),
            method=str(payload["method"]),
            result=LowerBoundResult.from_dict(payload["result"]),
            stats=BoundStats.from_dict(payload["stats"]),
        )


@register_result
class CompareResult(ResultBase, Mapping):
    """Side-by-side solves of one instance under several policies.

    Behaves as the mapping ``policy -> Optional[Solution]`` the legacy
    :func:`repro.api.compare_policies` returned (indexing, iteration and
    ``items()`` all work, and string policy names are accepted as keys), and
    additionally carries per-policy costs plus -- when requested with
    ``bounds=True`` -- the LP lower bound and per-policy cost-vs-bound gaps.
    """

    payload_type = "compare_result"

    def __init__(
        self,
        *,
        epoch: int,
        solutions: Dict[Policy, Optional[Solution]],
        costs: Dict[Policy, Optional[float]],
        bound: Optional["LowerBoundResult"] = None,
    ) -> None:
        self.epoch = epoch
        self.solutions = solutions
        self.costs = costs
        self.bound = bound

    # ------------------------------------------------------------------ #
    # mapping protocol (legacy compare_policies compatibility)
    # ------------------------------------------------------------------ #
    def __getitem__(self, policy: Union[Policy, str]) -> Optional[Solution]:
        try:
            key = Policy.parse(policy)
        except ValueError:
            # Mapping semantics: unknown keys are missing keys, so get()
            # returns its default and `in` returns False instead of raising.
            raise KeyError(policy) from None
        return self.solutions[key]

    def __iter__(self) -> Iterator[Policy]:
        return iter(self.solutions)

    def __len__(self) -> int:
        return len(self.solutions)

    # ------------------------------------------------------------------ #
    def gaps(self) -> Dict[Policy, Optional[float]]:
        """Per-policy cost-vs-LP-bound gaps (``{}`` without ``bounds=True``).

        The bound comes from the Multiple relaxation (a valid lower bound
        for every policy); a policy without a solution, or a non-positive /
        infeasible bound, maps to ``None``.
        """
        if self.bound is None:
            return {}
        value = self.bound.value
        usable = self.bound.feasible and value > 0
        return {
            policy: (cost / value if usable and cost is not None else None)
            for policy, cost in self.costs.items()
        }

    def describe(self) -> str:
        """One-line summary used by the CLI."""
        parts = []
        gaps = self.gaps()
        for policy, solution in self.solutions.items():
            if solution is None:
                parts.append(f"{policy.value}: no solution")
                continue
            entry = f"{policy.value}: cost {self.costs[policy]:g}"
            gap = gaps.get(policy)
            if gap is not None:
                entry += f" (gap {gap:.3f})"
            parts.append(entry)
        summary = "; ".join(parts)
        if self.bound is not None and self.bound.feasible:
            summary += f" | LP bound {self.bound.value:g}"
        return summary

    def to_dict(self) -> Dict[str, Any]:
        from repro.core.serialization import solution_to_dict

        gaps = self.gaps()
        return self._tagged(
            {
                "epoch": self.epoch,
                "policies": [policy.value for policy in self.solutions],
                "results": {
                    policy.value: {
                        "feasible": solution is not None,
                        "cost": encode_float(self.costs[policy]),
                        "gap": encode_float(gaps.get(policy)),
                        "solution": (
                            solution_to_dict(solution) if solution else None
                        ),
                    }
                    for policy, solution in self.solutions.items()
                },
                "bound": self.bound.to_dict() if self.bound else None,
            }
        )

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "CompareResult":
        from repro.core.serialization import solution_from_dict
        from repro.lp.bounds import LowerBoundResult

        solutions: Dict[Policy, Optional[Solution]] = {}
        costs: Dict[Policy, Optional[float]] = {}
        for name in payload["policies"]:
            policy = Policy.parse(name)
            entry = payload["results"][name]
            encoded = entry.get("solution")
            solutions[policy] = solution_from_dict(encoded) if encoded else None
            costs[policy] = decode_float(entry.get("cost"))
        bound = payload.get("bound")
        return cls(
            epoch=int(payload.get("epoch", 0)),
            solutions=solutions,
            costs=costs,
            bound=LowerBoundResult.from_dict(bound) if bound else None,
        )

    def __repr__(self) -> str:
        return f"CompareResult({self.describe()})"


# --------------------------------------------------------------------------- #
# cache accounting
# --------------------------------------------------------------------------- #
@dataclass
class SessionStats:
    """Cache-reuse counters of one session (what the benchmarks assert on).

    ``solves``/``bounds`` count the resolver/bounder invocations that
    actually ran; ``*_cache_hits`` count queries answered from the per-epoch
    result cache without touching the solvers at all.  The strategy
    counters split the invocations by how much work they really did
    (``reused`` = previous epoch's answer returned outright, ``patched`` =
    cached structure re-targeted, ``solved``/``built`` = full work).
    """

    epochs: int = 0
    solves: int = 0
    solve_cache_hits: int = 0
    solve_strategies: Dict[str, int] = field(default_factory=dict)
    bounds: int = 0
    bound_cache_hits: int = 0
    bound_strategies: Dict[str, int] = field(default_factory=dict)

    def _tally(self, counters: Dict[str, int], strategy: str) -> None:
        counters[strategy] = counters.get(strategy, 0) + 1

    def to_dict(self) -> Dict[str, int]:
        """JSON-compatible payload (session snapshots persist these)."""
        return {
            "epochs": self.epochs,
            "solves": self.solves,
            "solve_cache_hits": self.solve_cache_hits,
            "solve_strategies": dict(self.solve_strategies),
            "bounds": self.bounds,
            "bound_cache_hits": self.bound_cache_hits,
            "bound_strategies": dict(self.bound_strategies),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SessionStats":
        """Rebuild counters from a :meth:`to_dict` payload."""
        return cls(
            epochs=int(payload.get("epochs", 0)),
            solves=int(payload.get("solves", 0)),
            solve_cache_hits=int(payload.get("solve_cache_hits", 0)),
            solve_strategies={
                str(k): int(v)
                for k, v in payload.get("solve_strategies", {}).items()
            },
            bounds=int(payload.get("bounds", 0)),
            bound_cache_hits=int(payload.get("bound_cache_hits", 0)),
            bound_strategies={
                str(k): int(v)
                for k, v in payload.get("bound_strategies", {}).items()
            },
        )

    def describe(self) -> str:
        """One-line cache-reuse summary."""
        solve = ", ".join(
            f"{count} {name}" for name, count in sorted(self.solve_strategies.items())
        )
        bound = ", ".join(
            f"{count} {name}" for name, count in sorted(self.bound_strategies.items())
        )
        return (
            f"{self.epochs + 1} epochs: {self.solves} solves ({solve or 'none'}, "
            f"{self.solve_cache_hits} cache hits), {self.bounds} bounds "
            f"({bound or 'none'}, {self.bound_cache_hits} cache hits)"
        )


# --------------------------------------------------------------------------- #
# the session
# --------------------------------------------------------------------------- #
class PlacementSession:
    """Stateful, cache-owning entry point for repeated placement queries.

    Parameters
    ----------
    instance:
        A :class:`~repro.core.tree.TreeNetwork` or a fully-specified
        :class:`~repro.core.problem.ReplicaPlacementProblem` (epoch 0).
    constraints, kind:
        Optional coercion overrides, applied to the initial instance *and*
        to every epoch passed to :meth:`update` -- the same convention as
        the free functions.
    policy, algorithm:
        Defaults used by :meth:`solve` / :meth:`update` when no explicit
        policy is given.  ``algorithm`` applies only together with the
        default policy (an explicit ``solve(policy=...)`` with no algorithm
        runs that policy's portfolio, like :func:`repro.api.solve`).
    mode:
        Epoch re-solve strategy: ``"incremental"`` (default, cost-identical
        to from-scratch), ``"patch"`` (placement stability first) or
        ``"scratch"`` (no warm starts; also disables bound patching --
        the baseline the other modes are validated against).
    shards:
        Optional sharded-solve specification: a target shard count or an
        explicit cut node sequence (see
        :func:`repro.core.partition.partition_problem`).  A sharded session
        partitions the tree lazily, indexes each shard through
        :meth:`TreeIndex.sliced` (the whole-tree dense index is never
        built), keeps one :class:`IncrementalResolver` per shard, and on a
        rate-only :meth:`update` re-solves **only** the shards owning the
        changed clients.  ``shards=1`` (or ``None``) is the classic
        whole-tree path, bit-identical to an unsharded session.
    """

    def __init__(
        self,
        instance: Union[TreeNetwork, ReplicaPlacementProblem],
        *,
        constraints: Optional[ConstraintSet] = None,
        kind: Optional[ProblemKind] = None,
        policy: Union[Policy, str] = Policy.MULTIPLE,
        algorithm: Optional[str] = None,
        mode: str = "incremental",
        shards: Optional[Union[int, Iterable[NodeId]]] = None,
    ) -> None:
        if mode not in SESSION_MODES:
            raise ValueError(
                f"unknown mode {mode!r}; expected one of {sorted(SESSION_MODES)}"
            )
        if shards is not None and not isinstance(shards, int):
            shards = tuple(shards)
        if isinstance(shards, int) and shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self._constraints = constraints
        self._kind = kind
        self.problem = as_problem(instance, constraints=constraints, kind=kind)
        self.policy = Policy.parse(policy)
        self.algorithm = algorithm
        self.mode = mode
        self.shards = shards
        self.epoch = 0
        self.stats = SessionStats()

        self._resolvers: Dict[Tuple[Policy, Optional[str]], "IncrementalResolver"] = {}
        self._bounders: Dict[
            Tuple[Policy, str, Optional[float]], "IncrementalBounder"
        ] = {}
        #: per-epoch result caches, cleared by :meth:`update`.
        self._solve_cache: Dict[Tuple[Policy, Optional[str]], SolveResult] = {}
        self._bound_cache: Dict[Tuple[Policy, str, Optional[float]], BoundResult] = {}
        #: sharded-solve state, built lazily by :attr:`shard_plan`.
        self._shard_plan = None
        self._shard_problems: Optional[list] = None
        self._shard_resolvers: Dict[
            Tuple[int, Policy, Optional[str]], "IncrementalResolver"
        ] = {}
        self._shard_last: Dict[Tuple[Policy, Optional[str]], Solution] = {}

    # ------------------------------------------------------------------ #
    # cache handles
    # ------------------------------------------------------------------ #
    @property
    def tree(self) -> TreeNetwork:
        """The current epoch's tree."""
        return self.problem.tree

    @property
    def index(self):
        """The (cached) :class:`~repro.core.index.TreeIndex` of the tree."""
        from repro.core.index import TreeIndex

        return TreeIndex.for_tree(self.problem.tree)

    def program(
        self,
        *,
        policy: Union[Policy, str] = Policy.MULTIPLE,
        method: str = "mixed",
        time_limit: Optional[float] = None,
    ) -> Optional["LinearProgramData"]:
        """The resident bound program of a ``(policy, method)`` pair, if any.

        Introspection for tests and benchmarks: returns the
        :class:`~repro.lp.formulation.LinearProgramData` the matching
        :meth:`bound` calls keep warm, or ``None`` before the first call.
        """
        bounder = self._bounders.get((Policy.parse(policy), method, time_limit))
        return None if bounder is None else bounder._program

    # ------------------------------------------------------------------ #
    # solving
    # ------------------------------------------------------------------ #
    def solve(
        self,
        *,
        policy: Optional[Union[Policy, str]] = None,
        algorithm: Optional[str] = None,
        on_error: str = "raise",
        sharded: Optional[bool] = None,
    ) -> SolveResult:
        """Solve the current epoch (warm caches, per-epoch memoised).

        With no arguments the session's default policy/algorithm apply.
        ``on_error="raise"`` (default) raises
        :class:`~repro.core.exceptions.InfeasibleError` like
        :func:`repro.api.solve`; ``"none"`` returns a :class:`SolveResult`
        with ``solution=None`` instead (sequence semantics).

        ``sharded`` overrides the session's sharding default for this call:
        ``True`` forces the per-shard path (partitioning into the
        constructor's ``shards`` spec, or two shards when none was given),
        ``False`` forces the whole-tree path, ``None`` (default) follows
        the constructor.  Overridden calls are memoised separately.
        """
        if on_error not in ("none", "raise"):
            raise ValueError(f"on_error must be 'none' or 'raise', got {on_error!r}")
        if policy is None:
            policy, algorithm = self.policy, (
                algorithm if algorithm is not None else self.algorithm
            )
        else:
            policy = Policy.parse(policy)
        if sharded and self.shards is None:
            self.shards = 2
        use_sharded = self._sharded_active() if sharded is None else bool(sharded)
        use_sharded = use_sharded and self._sharded_active()

        key = (policy, algorithm) if sharded is None else (policy, algorithm, sharded)
        result = self._solve_cache.get(key)
        if result is not None:
            self.stats.solve_cache_hits += 1
        else:
            if use_sharded:
                solution, stats = self._sharded_resolve(policy, algorithm)
            else:
                from repro.algorithms.incremental import IncrementalResolver

                resolver = self._resolvers.get(key)
                if resolver is None:
                    resolver = self._resolvers[key] = IncrementalResolver(
                        policy=policy, algorithm=algorithm, mode=SESSION_MODES[self.mode]
                    )
                solution, stats = resolver.resolve(self.problem)
            result = self._solve_cache[key] = SolveResult(
                epoch=self.epoch,
                policy=policy,
                solution=solution,
                cost=stats.cost,
                stats=stats,
                problem=self.problem,
            )
            self.stats.solves += 1
            self.stats._tally(self.stats.solve_strategies, stats.strategy)

        if result.solution is None and on_error == "raise":
            raise InfeasibleError(
                f"no valid solution found under the {policy.value} policy",
                policy=policy,
            )
        return result

    # ------------------------------------------------------------------ #
    # sharded solving
    # ------------------------------------------------------------------ #
    @property
    def shard_plan(self):
        """The session's lazy :class:`~repro.core.partition.ShardPlan`.

        ``None`` for unsharded sessions (``shards`` unset or ``1``).  Built
        from the *current* epoch's problem on first access and kept until a
        structural update invalidates it; building it primes per-shard
        :meth:`~repro.core.index.TreeIndex.sliced` indexes lazily (the
        whole-tree index is never constructed by the sharded path).
        """
        if self.shards is None or (isinstance(self.shards, int) and self.shards <= 1):
            return None
        if self._shard_plan is None:
            from repro.core.partition import partition_problem

            self._shard_plan = partition_problem(self.problem, shards=self.shards)
            self._shard_problems = list(self._shard_plan.region_problems())
        return self._shard_plan

    def _sharded_active(self) -> bool:
        plan = self.shard_plan
        return plan is not None and len(plan.shards) >= 2

    def _sharded_resolve(self, policy: Policy, algorithm: Optional[str]):
        """The per-shard incremental solve path of :meth:`solve`.

        Every region (the shards plus the residual tree) keeps its own
        :class:`~repro.algorithms.incremental.IncrementalResolver`, so a
        rate-only epoch step re-solves only the regions owning changed
        clients -- the rest report strategy ``"reused"``.  Region solutions
        compose directly (disjoint servers, no cut flow); when a region is
        infeasible on its own the full
        :func:`~repro.algorithms.sharded.solve_sharded` pipeline takes over
        and reconciles the overflow at the cut.
        """
        import time

        from repro.algorithms.incremental import (
            IncrementalResolver,
            ResolveStats,
            migration_stats,
        )
        from repro.algorithms.sharded import (
            _empty_solution,
            solve_sharded,
            stitch_solutions,
        )
        from repro.core.index import TreeIndex

        start = time.perf_counter()
        plan = self.shard_plan
        for shard in plan.shards:
            TreeIndex.sliced(shard)

        strategies: list = []
        solutions: list = []
        changed = 0
        failed = False
        for region, problem in enumerate(self._shard_problems):
            if not problem.tree.client_ids or problem.tree.total_requests() <= 0:
                solutions.append(_empty_solution(policy))
                strategies.append("empty")
                continue
            rkey = (region, policy, algorithm)
            resolver = self._shard_resolvers.get(rkey)
            if resolver is None:
                resolver = self._shard_resolvers[rkey] = IncrementalResolver(
                    policy=policy, algorithm=algorithm, mode=SESSION_MODES[self.mode]
                )
            solution, rstats = resolver.resolve(problem)
            strategies.append(rstats.strategy)
            changed += rstats.changed_clients
            if solution is None:
                failed = True
                break
            solutions.append(solution)

        if failed:
            # Cut contention (or genuine infeasibility): let the full
            # sharded pipeline peel overflow across the cut and validate.
            try:
                stitched = solve_sharded(
                    self.problem, policy=policy, algorithm=algorithm, shards=self.shards
                )
                notes = "sharded: region infeasible, reconciled at the cut"
            except InfeasibleError:
                stitched = None
                notes = "sharded: infeasible"
            strategy = "solved"
        else:
            stitched = stitch_solutions(
                solutions,
                policy=policy,
                algorithm=f"sharded[{len(plan.shards)}:incremental]",
                metadata={
                    "shards": len(plan.shards),
                    "strategy": "incremental",
                    "shard_strategies": tuple(strategies),
                },
            )
            resolved = sum(1 for s in strategies if s in ("solved", "patched"))
            strategy = (
                "solved"
                if "solved" in strategies
                else "patched"
                if "patched" in strategies
                else "reused"
            )
            notes = (
                f"sharded: {resolved}/{len(strategies)} regions re-solved "
                f"({','.join(strategies)})"
            )

        cost = stitched.cost(self.problem) if stitched is not None else None
        lkey = (policy, algorithm)
        added, dropped, reassigned = migration_stats(
            self._shard_last.get(lkey), stitched
        )
        if stitched is not None:
            self._shard_last[lkey] = stitched
        stats = ResolveStats(
            epoch=self.epoch,
            strategy=strategy,
            changed_clients=changed,
            cost=cost,
            replicas_added=added,
            replicas_dropped=dropped,
            requests_reassigned=reassigned,
            runtime=time.perf_counter() - start,
            notes=notes,
        )
        return stitched, stats

    def _advance_shards(
        self,
        previous: ReplicaPlacementProblem,
        current: ReplicaPlacementProblem,
    ) -> None:
        """Step the per-shard problems after :meth:`update`.

        Rate-only deltas fork only the regions owning changed clients
        (unchanged regions keep the *same* problem object, so their
        resolvers report ``"reused"``); structural changes drop the plan
        and every per-region resolver.
        """
        if self._shard_plan is None:
            return
        from repro.algorithms.incremental import diff_problems

        delta = diff_problems(previous, current)
        if delta.unchanged:
            return
        if not delta.rates_only:
            self._invalidate_shards()
            return
        plan = self._shard_plan
        tree = current.tree
        by_region: Dict[int, Dict[NodeId, float]] = {}
        for cid in delta.changed_clients:
            by_region.setdefault(plan.region_of(cid), {})[cid] = tree.requests(cid)
        for region, updates in by_region.items():
            base = self._shard_problems[region]
            self._shard_problems[region] = ReplicaPlacementProblem(
                tree=base.tree.with_requests(updates),
                constraints=base.constraints,
                kind=base.kind,
                name=base.name,
            )

    def _invalidate_shards(self) -> None:
        self._shard_plan = None
        self._shard_problems = None
        self._shard_resolvers.clear()
        self._shard_last.clear()

    # ------------------------------------------------------------------ #
    # bounding
    # ------------------------------------------------------------------ #
    def bound(
        self,
        *,
        policy: Union[Policy, str] = Policy.MULTIPLE,
        method: str = "mixed",
        time_limit: Optional[float] = None,
    ) -> BoundResult:
        """LP lower bound of the current epoch (resident program, memoised).

        The default Multiple relaxation is a valid lower bound for every
        policy (the paper's choice).  ``method`` is ``"mixed"`` (integer
        placement, rational assignment -- the refined bound), ``"rational"``
        (full relaxation), ``"ipfp"`` (fast Lagrangian bound of the
        transportation relaxation, no LP solve) or ``"trivial"``
        (combinatorial, no LP solve).
        """
        if method not in BOUND_METHODS:
            raise ValueError(f"unknown lower-bound method {method!r}")
        policy = Policy.parse(policy)
        key = (policy, method, time_limit)
        cached = self._bound_cache.get(key)
        if cached is not None:
            self.stats.bound_cache_hits += 1
            return cached

        if method == "trivial":
            result, stats = self._trivial_bound(policy)
        else:
            from repro.algorithms.incremental import IncrementalBounder

            bounder = self._bounders.get(key)
            if bounder is None:
                bounder = self._bounders[key] = IncrementalBounder(
                    policy=policy,
                    method=method,
                    mode="scratch" if self.mode == "scratch" else "incremental",
                    time_limit=time_limit,
                )
            result, stats = bounder.bound(self.problem)

        wrapped = BoundResult(
            epoch=self.epoch, policy=policy, method=method, result=result, stats=stats
        )
        self._bound_cache[key] = wrapped
        self.stats.bounds += 1
        self.stats._tally(self.stats.bound_strategies, stats.strategy)
        return wrapped

    def _trivial_bound(self, policy: Policy):
        """The combinatorial bound, wrapped in the LP result types."""
        import math
        import time

        from repro.algorithms.incremental import BoundStats
        from repro.core.costs import trivial_lower_bound
        from repro.lp.bounds import LowerBoundResult

        start = time.perf_counter()
        value = trivial_lower_bound(self.problem)
        result = LowerBoundResult(
            value=value,
            feasible=math.isfinite(value),
            method="trivial",
            policy=policy,
        )
        stats = BoundStats(
            epoch=self.epoch,
            strategy="built",
            changed_clients=0,
            value=value,
            runtime=time.perf_counter() - start,
        )
        return result, stats

    # ------------------------------------------------------------------ #
    # comparing
    # ------------------------------------------------------------------ #
    def compare(
        self,
        *,
        policies: Iterable[Union[Policy, str]] = Policy.ordered(),
        bounds: bool = False,
        bound_method: str = "mixed",
    ) -> CompareResult:
        """Solve the current epoch under several policies side by side.

        With ``bounds=True`` the Multiple LP lower bound is computed once
        (on the warm program cache) and per-policy cost-vs-bound gaps are
        reported alongside the costs.
        """
        solutions: Dict[Policy, Optional[Solution]] = {}
        costs: Dict[Policy, Optional[float]] = {}
        for policy in policies:
            policy = Policy.parse(policy)
            result = self.solve(policy=policy, on_error="none")
            solutions[policy] = result.solution
            costs[policy] = result.cost
        bound = self.bound(method=bound_method).result if bounds else None
        return CompareResult(
            epoch=self.epoch, solutions=solutions, costs=costs, bound=bound
        )

    # ------------------------------------------------------------------ #
    # epoch stepping
    # ------------------------------------------------------------------ #
    def update(
        self,
        instance: Optional[Union[TreeNetwork, ReplicaPlacementProblem]] = None,
        *,
        requests: Optional[Mapping[NodeId, float]] = None,
        resolve: Union[bool, str] = True,
        saturation_threshold: float = 0.999,
    ) -> Optional[SolveResult]:
        """Advance the session one epoch and (by default) re-solve it.

        Exactly one of ``instance`` (the next epoch's tree or problem, e.g.
        from a :mod:`repro.workloads.dynamic` trajectory) or ``requests``
        (a ``client id -> new rate`` mapping, applied as a structure-sharing
        :meth:`~repro.core.tree.TreeNetwork.with_requests` fork of the
        current tree) must be given.  The per-epoch result caches are
        invalidated; the resolver and bounder caches survive and give the
        new epoch its incremental treatment (rate-only steps patch the tree
        index and the LP program instead of rebuilding them).

        ``resolve`` selects the epoch's re-solve discipline:

        ``True`` / ``"always"``
            Re-solve through the incremental resolver (the default).
        ``False``
            Step the epoch without solving (bound-only workflows);
            returns ``None``.
        ``"on_saturation"``
            SLA-aware: replay the previous epoch's placement against the
            new rates (each changed client's routes re-scaled in
            proportion) and **keep the placement frozen** unless the
            replay shows trouble -- a capacity / QoS / bandwidth violation
            or a link at or above ``saturation_threshold`` utilisation (a
            saturation event, via
            :func:`~repro.simulation.request_flow.simulate_solution`).
            Only then is the epoch re-solved.  Kept epochs report resolve
            strategy ``"kept"`` with zero replica churn.

        Returns the new epoch's :class:`SolveResult` under the session's
        default policy (``solution=None`` when infeasible), or ``None`` with
        ``resolve=False``.
        """
        if not isinstance(resolve, str):
            # Normalise bool-likes (0/1, numpy bools) onto real booleans so
            # the identity checks below keep the documented semantics.
            resolve = bool(resolve)
        if resolve not in RESOLVE_MODES:
            raise ValueError(
                f"unknown resolve mode {resolve!r}; expected one of "
                f"{RESOLVE_MODES}"
            )
        if (instance is None) == (requests is None):
            raise ValueError(
                "update() needs exactly one of an epoch instance or requests="
            )
        if requests is not None:
            problem = ReplicaPlacementProblem(
                tree=self.problem.tree.with_requests(requests),
                constraints=self.problem.constraints,
                kind=self.problem.kind,
                name=self.problem.name,
            )
        else:
            problem = as_problem(
                instance, constraints=self._constraints, kind=self._kind
            )
        previous_problem = self.problem
        previous_result = self._solve_cache.get((self.policy, self.algorithm))
        self.problem = problem
        self.epoch += 1
        self.stats.epochs += 1
        self._solve_cache.clear()
        self._bound_cache.clear()
        if self.shards is not None:
            self._advance_shards(previous_problem, problem)
        if resolve is False:
            return None
        if resolve == "on_saturation":
            kept = self._keep_frozen_placement(
                previous_problem, previous_result, saturation_threshold
            )
            if kept is not None:
                return kept
        return self.solve(on_error="none")

    def _keep_frozen_placement(
        self,
        previous_problem: ReplicaPlacementProblem,
        previous_result: Optional[SolveResult],
        saturation_threshold: float,
    ) -> Optional[SolveResult]:
        """The SLA-aware keep path of :meth:`update` (``on_saturation``).

        Scales the previous epoch's assignment onto the new rates, replays
        it, and installs it as this epoch's result when the replay is
        clean.  Returns ``None`` whenever a full re-solve is needed: no
        previous solution, a structural (non-rate) change, a client rising
        from zero requests (nothing to scale), a constraint violation, or a
        saturation event in the replay.
        """
        import time

        from repro.algorithms.incremental import (
            IncrementalResolver,
            ResolveStats,
            diff_problems,
            migration_stats,
        )
        from repro.core.solution import Assignment
        from repro.core.validation import validate_solution
        from repro.simulation.request_flow import simulate_solution

        if previous_result is None or previous_result.solution is None:
            return None
        start = time.perf_counter()
        delta = diff_problems(previous_problem, self.problem)
        if not (delta.unchanged or delta.rates_only):
            return None

        old_solution = previous_result.solution
        if delta.unchanged:
            scaled = old_solution
        else:
            factors: Dict[NodeId, float] = {}
            old_tree, new_tree = previous_problem.tree, self.problem.tree
            for client_id in delta.changed_clients:
                old_rate = old_tree.requests(client_id)
                new_rate = new_tree.requests(client_id)
                if old_rate <= 0 and new_rate > 0:
                    return None  # no existing routes to scale
                factors[client_id] = new_rate / old_rate if old_rate > 0 else 0.0
            amounts: Dict[Tuple[NodeId, NodeId], float] = {}
            for (client_id, server_id), amount in old_solution.assignment.items():
                factor = factors.get(client_id)
                if factor is None:
                    amounts[(client_id, server_id)] = amount
                elif factor > 0:
                    amounts[(client_id, server_id)] = amount * factor
                # factor == 0: the client went silent; drop its routes.
            scaled = Solution(
                placement=old_solution.placement,
                assignment=Assignment(amounts),
                policy=old_solution.policy,
                algorithm=old_solution.algorithm,
                metadata=dict(old_solution.metadata),
            )

        if not validate_solution(self.problem, scaled, policy=self.policy).valid:
            return None
        replay = simulate_solution(
            self.problem, scaled, saturation_threshold=saturation_threshold
        )
        if replay.saturated_links:
            return None

        added, dropped, reassigned = migration_stats(old_solution, scaled)
        stats = ResolveStats(
            epoch=self.epoch,
            strategy="kept",
            changed_clients=len(delta.changed_clients),
            cost=scaled.cost(self.problem),
            replicas_added=added,
            replicas_dropped=dropped,
            requests_reassigned=reassigned,
            runtime=time.perf_counter() - start,
            notes="replay clean; frozen placement kept (resolve='on_saturation')",
        )
        result = SolveResult(
            epoch=self.epoch,
            policy=self.policy,
            solution=scaled,
            cost=stats.cost,
            stats=stats,
            problem=self.problem,
        )
        key = (self.policy, self.algorithm)
        self._solve_cache[key] = result
        self.stats.solves += 1
        self.stats._tally(self.stats.solve_strategies, "kept")
        # Keep the resolver's warm state in step: the next epoch must diff
        # against the kept solution, not against the pre-freeze one.
        resolver = self._resolvers.get(key)
        if resolver is None:
            resolver = self._resolvers[key] = IncrementalResolver(
                policy=self.policy,
                algorithm=self.algorithm,
                mode=SESSION_MODES[self.mode],
            )
        resolver.epoch += 1
        resolver.previous_problem = self.problem
        resolver.previous_solution = scaled
        return result

    # ------------------------------------------------------------------ #
    # simulating
    # ------------------------------------------------------------------ #
    def simulate(
        self,
        *,
        policy: Optional[Union[Policy, str]] = None,
        algorithm: Optional[str] = None,
        saturation_threshold: float = 0.999,
    ) -> "FlowSimulation":
        """Steady-state replay of the current epoch's solution.

        Solves first if needed (warm caches), then routes the request
        streams through the tree via
        :func:`repro.simulation.simulate_solution`.  Raises
        :class:`~repro.core.exceptions.InfeasibleError` when the epoch has
        no valid solution.
        """
        from repro.simulation.request_flow import simulate_solution

        result = self.solve(policy=policy, algorithm=algorithm)
        return simulate_solution(
            self.problem,
            result.solution,
            saturation_threshold=saturation_threshold,
        )

    # ------------------------------------------------------------------ #
    # serving hooks: memory accounting and snapshot state
    # ------------------------------------------------------------------ #
    def memory_estimate(self) -> int:
        """Rough resident size of this session in bytes.

        A deliberate estimate, not a deep measurement: the tree by the
        bytes of its store (:attr:`TreeNetwork.nbytes`) and its index by
        its containers and the objects they own (:attr:`TreeIndex.nbytes`),
        each resident LP program by its sparsity, each resident IPFP
        program by the bytes of its arrays, each cached solve by its
        assignment size.  The serving pool uses it for byte budgets, where
        relative ordering between sessions matters more than absolute
        accuracy.
        """
        tree = self.problem.tree
        estimate = 4096 + tree.nbytes
        if tree._index_cache is not None:
            estimate += tree._index_cache.nbytes
        if self._shard_problems is not None:
            # Sharded sessions never build the whole-tree index; the
            # resident footprint counts the shard trees and the shard
            # indexes that exist.
            for shard_problem in self._shard_problems:
                shard_tree = shard_problem.tree
                estimate += shard_tree.nbytes
                if shard_tree._index_cache is not None:
                    estimate += shard_tree._index_cache.nbytes
        for bounder in self._bounders.values():
            program = bounder._program
            if program is None:
                continue
            if bounder.method == "ipfp":
                estimate += program.nbytes
            else:
                estimate += 24 * int(program.constraint_matrix.nnz)
                estimate += 48 * len(program.objective)
        for result in self._solve_cache.values():
            if result.solution is not None:
                estimate += 512 + 120 * len(result.solution.assignment)
        estimate += 2048 * (len(self._resolvers) + len(self._shard_resolvers))
        return estimate

    def export_state(self) -> Dict[str, Any]:
        """Serialise this session for cross-restart persistence.

        The payload carries the current problem
        (:func:`~repro.core.serialization.problem_to_dict`), the session
        configuration, the cache-reuse counters and every cached per-epoch
        result -- everything :meth:`restore_state` needs to rebuild a
        session whose *next* query gets the same incremental treatment this
        one would give it.  Resident LP programs and tree indexes are not
        persisted (they are derived state); the restore rebuilds them.

        Raises
        ------
        SerializationError
            When the problem uses a custom :class:`ConstraintSet` subclass
            (behaviour cannot round-trip through JSON).
        """
        from repro.core.serialization import problem_to_dict

        return {
            "type": "session_state",
            "version": 1,
            "problem": problem_to_dict(self.problem),
            "policy": self.policy.value,
            "algorithm": self.algorithm,
            "mode": self.mode,
            "shards": list(self.shards)
            if isinstance(self.shards, tuple)
            else self.shards,
            "epoch": self.epoch,
            "stats": self.stats.to_dict(),
            "solves": [
                {
                    "policy": key[0].value,
                    "algorithm": key[1],
                    "result": result.to_dict(),
                }
                # per-call sharded overrides use 3-tuple keys; those entries
                # are transient and deliberately not persisted
                for key, result in self._solve_cache.items()
                if len(key) == 2
            ],
            "bounds": [
                {
                    "policy": policy.value,
                    "method": method,
                    "time_limit": time_limit,
                    "result": result.to_dict(),
                }
                for (policy, method, time_limit), result in self._bound_cache.items()
            ],
        }

    @classmethod
    def restore_state(
        cls, payload: Mapping[str, Any], *, warm_programs: bool = True
    ) -> "PlacementSession":
        """Rebuild a session from :meth:`export_state` output.

        The restored session answers repeated current-epoch queries from
        its caches (bit-identical to the exported results) and gives the
        next epoch the warm incremental treatment: resolvers are re-seeded
        with the persisted solutions, and -- with ``warm_programs`` (the
        default) -- each persisted bound's LP program is re-assembled
        eagerly so a rate-only epoch step *patches* it
        (:meth:`~repro.lp.formulation.LinearProgramData.with_requests`)
        instead of rebuilding from scratch.  The ``engine`` key that older
        snapshots carry is ignored: the platform picks the state engine.
        """
        from repro.algorithms.incremental import (
            IncrementalBounder,
            IncrementalResolver,
        )
        from repro.core.serialization import problem_from_dict

        problem = problem_from_dict(payload["problem"])
        algorithm = payload.get("algorithm")
        shards = payload.get("shards")
        session = cls(
            problem,
            policy=Policy.parse(payload.get("policy", Policy.MULTIPLE)),
            algorithm=None if algorithm is None else str(algorithm),
            mode=str(payload.get("mode", "incremental")),
            shards=tuple(shards) if isinstance(shards, list) else shards,
        )
        session.epoch = int(payload.get("epoch", 0))
        session.stats = SessionStats.from_dict(payload.get("stats", {}))

        for entry in payload.get("solves", []):
            result = SolveResult.from_dict(entry["result"])
            result.problem = problem
            entry_algorithm = entry.get("algorithm")
            key = (
                Policy.parse(entry["policy"]),
                None if entry_algorithm is None else str(entry_algorithm),
            )
            session._solve_cache[key] = result
            resolver = IncrementalResolver(
                policy=key[0], algorithm=key[1], mode=SESSION_MODES[session.mode]
            )
            resolver.epoch = session.epoch
            resolver.previous_problem = problem
            resolver.previous_solution = result.solution
            session._resolvers[key] = resolver

        for entry in payload.get("bounds", []):
            result = BoundResult.from_dict(entry["result"])
            time_limit = entry.get("time_limit")
            time_limit = None if time_limit is None else float(time_limit)
            method = str(entry["method"])
            key = (Policy.parse(entry["policy"]), method, time_limit)
            session._bound_cache[key] = result
            if method == "trivial":
                continue  # no resident program to keep warm
            bounder = IncrementalBounder(
                policy=key[0],
                method=method,
                mode="scratch" if session.mode == "scratch" else "incremental",
                time_limit=time_limit,
            )
            bounder.epoch = session.epoch
            bounder.previous_problem = problem
            bounder._previous = result.result
            if warm_programs and session.mode != "scratch":
                from repro.lp.bounds import bound_program

                bounder._program = bound_program(
                    problem, policy=key[0], method=method
                )
            session._bounders[key] = bounder
        return session

    # ------------------------------------------------------------------ #
    def describe(self) -> str:
        """One-line session summary (problem + cache-reuse counters)."""
        return (
            f"epoch {self.epoch}, {self.problem.describe()} | {self.stats.describe()}"
        )

    def __repr__(self) -> str:
        return (
            f"PlacementSession(epoch={self.epoch}, policy={self.policy.value}, "
            f"mode={self.mode!r}, size={self.problem.size})"
        )

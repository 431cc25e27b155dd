"""High-level convenience API.

The session model
-----------------

The package's public surface is organised around one stateful object and a
set of stateless shims over it.  :class:`repro.session.PlacementSession` is
the primary entry point for anything that issues *more than one* query
against the same tree: construct it once and it owns every cache the fast
layers provide -- the :class:`~repro.core.index.TreeIndex`, the assembled
LP programs (re-targeted in place across rate-only epochs via
:meth:`~repro.lp.formulation.LinearProgramData.with_requests`), the
incremental resolver/bounder state, and the per-epoch results themselves.
A ``session.solve()`` followed by ``session.bound()`` never re-indexes the
tree or re-assembles the program; ``session.update(requests=...)`` steps to
the next epoch with an incremental re-solve; ``session.compare()`` and
``session.simulate()`` ride the same warm caches.

The free functions below are **thin shims**: each constructs a throwaway
session and forwards.  They remain the convenient one-shot spelling and are
bit-identical to the session calls (pinned by ``tests/test_session_api.py``):

* :func:`solve` -- place replicas on a tree under a chosen access policy,
  automatically picking the best available algorithm;
* :func:`solve_many` -- batch variant of :func:`solve`, optionally fanned
  out over worker processes with per-worker chunking;
* :func:`solve_sequence` -- dynamic-workload variant: one session consumes
  the epochs, so unchanged epochs are reused and rate-only epochs run on
  patched tree indexes (``mode="patch"`` additionally keeps the placement
  frozen and re-routes only the changed clients);
* :func:`bound_sequence` -- the LP companion of :func:`solve_sequence`:
  per-epoch lower bounds on a resident, epoch-patched program;
* :func:`lower_bound` -- the LP-based lower bound of paper Section 7.1;
* :func:`compare_policies` -- solve the same instance under Closest,
  Upwards and Multiple side by side, optionally with the per-policy
  cost-vs-LP-bound gap (``bounds=True``).

Every result object -- :class:`~repro.session.SolveResult`,
:class:`~repro.session.BoundResult`, :class:`~repro.session.CompareResult`,
:class:`SequenceResult`, :class:`BoundSequenceResult` and the campaign
results of :mod:`repro.experiments.harness` -- implements the unified
protocol of :mod:`repro.core.results`: ``describe()`` for a one-line human
summary, ``to_dict()`` / ``to_json()`` for machine-readable payloads (what
the CLI emits under ``--json``), round-trippable through
:func:`repro.core.results.result_from_dict`.

Scaling up
----------

Every solve runs on the indexed flat-tree layout
(:class:`repro.core.index.TreeIndex`) and on the state that one factory,
:func:`repro.algorithms.common.make_state`, builds.  The platform decides
which: where the system C compiler builds the kernel library (on the
first solve, cached under ``build/native/``) the hot loops -- span scans,
drain/cover, every heuristic sweep, MG's greedy fold included -- run in it
(:mod:`repro.algorithms.native_state`); elsewhere they run on the
paper-faithful dict engine, with a one-line stderr note.  The two are
pinned bit-identical, and ``REPRO_NATIVE_DISABLE=1`` forces the fallback.
For campaign-scale workloads, :func:`solve_many` with ``workers=N`` forks a
process pool and splits the instance list into per-worker chunks.  For
long-lived serving, keep a :class:`~repro.session.PlacementSession` per
tree: the caches that a one-shot call pays for on every invocation are paid
once and then patched, which is what
``benchmarks/test_session_reuse.py`` measures.

Past ~10^4 clients the whole-tree index and dense LP assembly become the
wall, and the answer is **sharding** (``solve(..., shards=N)``,
``PlacementSession(shards=N)``, ``repro solve --shards N``): the tree is
partitioned at a small cut of high-level nodes
(:func:`repro.core.partition.partition_problem`), each subtree shard is
solved as a tree of its own, indexed on first use (the whole-tree dense
index is never built), and shards that overflow their
local capacity are reconciled at the cut before the per-shard solutions
are stitched into one validated global solution
(:func:`repro.algorithms.sharded.solve_sharded`).  Shard when trees are
large enough that index/LP memory dominates, or when updates are
*regional*: a sharded session re-solves only the shards owning changed
clients, so a rate change confined to one subtree costs one small solve
instead of a whole-tree pass (``benchmarks/test_shard_scaling.py`` pins
both wins).  Keep the whole-tree path (the default, and the one-shard
special case) when the tree is small or optimal cost matters more than
footprint: shard-local solving trades a bounded amount of placement
sharing across the cut for locality.

Lower bounds scale along their own ladder.  The paper's refined bound
(``method="mixed"``: integer placement, rational assignment) is the
tightest and the slowest; the fully rational relaxation (``"rational"``)
drops the integrality; and ``method="ipfp"`` (:mod:`repro.lp.ipfp`) skips
the LP solver entirely, lower-bounding the transportation relaxation by
Lagrangian duality with an iterative-proportional-fitting scaling loop
over the same :class:`~repro.lp.variables.VariableSpace` pair arrays.
IPFP is the per-epoch gap estimate of choice on dynamic workloads: a
rate-only epoch re-targets the resident program (same ``with_requests``
contract as the LP bounds) and reproduces the cold-run value bit for bit,
at a fraction of a rebuild-and-resolve LP epoch
(``benchmarks/test_ipfp_bound.py`` pins the >= 5x one-shot win and the
churn-trajectory win; the ``trivial <= ipfp <= mixed`` sandwich is
asserted across the instance matrix).  Every method is reachable from
:meth:`PlacementSession.bound`, :func:`lower_bound`,
:func:`bound_sequence` and ``repro solve/compare/dynamic --bounds``.

For *many* tenants behind one process, :mod:`repro.serving` turns the
session model into a service: a :class:`~repro.serving.pool.SessionPool`
keeps resident sessions keyed by content fingerprint
(:func:`~repro.serving.fingerprint.problem_fingerprint` -- equivalent
problems share a session, however they were built) under an LRU capacity
and optional byte budget, and ``repro serve`` exposes the pool over
newline-delimited JSON on stdio or HTTP, speaking request envelopes whose
replies are exactly the ``to_dict()`` payloads of this module's result
types (:func:`repro.serving.connect` hands back decoded result objects).
``--snapshot-dir`` persists resident sessions across restarts and restores
them warm: cached epochs answer bit-identically and the next rate-only
bound *patches* the re-assembled program instead of rebuilding it.
Epoch updates can be SLA-aware
(``update(..., resolve="on_saturation")``): the frozen placement is kept
while the replayed epoch stays free of violations and link-saturation
events, so steady traffic drift costs no re-solves at all
(``benchmarks/test_serving_pool.py`` pins the warm-pool win).

At the serving edge, throughput comes from amortising per-request
overhead rather than from more threads.  A **batch envelope**
(``{"op": "batch", "requests": [...]}``) ships many ops -- a whole epoch
trajectory -- through one parse/reply cycle; consecutive items on the
same session share one pool checkout, and unaddressed items inherit the
previous item's session even as in-batch updates re-key it
(:meth:`repro.serving.ServingClient.batch` returns the decoded results,
order-matched, with per-item errors in place).  Every ``repro serve``
transport -- stdio, ``--http HOST:PORT`` and ``--tcp HOST:PORT`` -- runs
on one single-threaded ``selectors`` event loop
(:class:`repro.serving.LoopServer`) that never blocks on a slow client,
``GET /metrics`` exposes the pool's per-op
latency/throughput counters as Prometheus text, and ``repro loadtest``
replays an open-loop inhomogeneous-Poisson arrival schedule against any
endpoint, reporting p50/p99 latency and requests/sec
(``benchmarks/test_serving_throughput.py`` pins the batched-envelope
rate at >= 2x the per-envelope rate on the same workload).

Real workloads enter through **traces** (:mod:`repro.workloads.traces`):
a timestamped request log (CSV/JSONL, gzip-transparent) ingests into a
:class:`~repro.workloads.traces.Trace`,
:func:`~repro.workloads.traces.detect_epochs` places epoch boundaries
where the traffic actually shifts (greedy mean-shift changepoints over
binned counts; :func:`~repro.workloads.traces.fixed_epochs` is the
deterministic fallback) and estimates piecewise-constant per-client
rates, and the resulting epoch model replays through everything above:
:meth:`~repro.workloads.traces.TraceEpochs.problems` emits the same
structure-shared epoch sequence :func:`solve_sequence` consumes
(``repro dynamic --trace LOG``), while
:meth:`~repro.workloads.traces.TraceEpochs.arrival_schedule` rebuilds the
trace's piecewise-constant intensity and samples exact IPPP arrivals for
the load harness (``repro loadtest --trace LOG``).  ``repro trace info``
prints the ingest/epoch report as a first-class
:class:`~repro.workloads.traces.TraceSummary` result, and
:func:`~repro.workloads.traces.sample_trace` inverts the pipeline --
sampling a synthetic log from any rate trajectory -- which is how the
test suite pins estimate/export round-trips within Poisson tolerance
(``benchmarks/test_trace_replay.py`` pins ingest+detection throughput).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.constraints import ConstraintSet
from repro.core.exceptions import InfeasibleError
from repro.core.policies import Policy
from repro.core.problem import ProblemKind, ReplicaPlacementProblem
from repro.core.results import ResultBase, encode_float, register_result
from repro.core.solution import Solution
from repro.core.tree import TreeNetwork
from repro.session import (
    SESSION_MODES,
    BoundResult,
    CompareResult,
    PlacementSession,
    SolveResult,
    as_problem,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.algorithms.incremental import BoundStats, ResolveStats
    from repro.lp.bounds import LowerBoundResult

__all__ = [
    "PlacementSession",
    "solve",
    "solve_many",
    "solve_sequence",
    "SequenceResult",
    "bound_sequence",
    "BoundSequenceResult",
    "lower_bound",
    "compare_policies",
    "SolveResult",
    "BoundResult",
    "CompareResult",
    "as_problem",
]


def solve(
    instance: Union[TreeNetwork, ReplicaPlacementProblem],
    *,
    policy: Union[Policy, str] = Policy.MULTIPLE,
    algorithm: Optional[str] = None,
    constraints: Optional[ConstraintSet] = None,
    kind: Optional[ProblemKind] = None,
    shards: Optional[Union[int, Sequence]] = None,
) -> Solution:
    """Solve a replica-placement instance under the given access policy.

    A shim over a throwaway :class:`~repro.session.PlacementSession`; use a
    session directly when issuing several queries against the same tree.

    Parameters
    ----------
    instance:
        A :class:`~repro.core.tree.TreeNetwork` or a fully-specified
        :class:`~repro.core.problem.ReplicaPlacementProblem`.
    policy:
        Access policy (``"closest"``, ``"upwards"`` or ``"multiple"``).
    algorithm:
        Name of a registered heuristic to force; by default the optimal
        algorithm is used for Multiple on homogeneous platforms and the best
        result of the policy's heuristic portfolio otherwise.
    shards:
        Optional sharded-solve spec (target shard count or explicit cut
        node sequence): partition the tree into subtree shards, solve each
        on its own index and reconcile at the cut (see
        :func:`repro.algorithms.sharded.solve_sharded`).  ``None``/``1``
        is the whole-tree path.

    Raises
    ------
    InfeasibleError
        When no algorithm produces a valid solution.
    """
    session = PlacementSession(
        instance,
        constraints=constraints,
        kind=kind,
        policy=policy,
        algorithm=algorithm,
        shards=shards,
    )
    return session.solve().solution


def _solve_chunk(
    problems: Sequence[Union[TreeNetwork, ReplicaPlacementProblem]],
    policy: Union[Policy, str],
    algorithm: Optional[str],
    constraints: Optional[ConstraintSet],
    kind: Optional[ProblemKind],
    on_error: str,
) -> List[Tuple[Optional[Solution], Optional[Exception]]]:
    """Solve a contiguous chunk of instances (runs inside a worker process).

    Returns one ``(solution, error)`` pair per instance so the parent can
    re-raise in input order under ``on_error="raise"``.
    """
    results: List[Tuple[Optional[Solution], Optional[Exception]]] = []
    for problem in problems:
        try:
            solution = solve(
                problem,
                policy=policy,
                algorithm=algorithm,
                constraints=constraints,
                kind=kind,
            )
            results.append((solution, None))
        except InfeasibleError as error:
            if on_error == "none":
                results.append((None, None))
            else:
                # The caller raises the first in-order error and discards
                # everything after it: stop solving this chunk now.
                results.append((None, error))
                break
    return results


#: Per-call payloads inherited by forked workers (see :func:`chunked_pool_map`):
#: on fork platforms the work items travel to the pool via the copy-on-write
#: process image instead of being pickled per chunk, which matters for large
#: trees.  Keyed by a per-call token so concurrent batch calls from several
#: threads never observe each other's payloads; entries are removed as soon
#: as the owning pool has returned.
_FORK_PAYLOADS: Dict[str, Tuple[Callable, Sequence]] = {}


def _fork_chunk_entry(token: str, start: int, end: int):
    """Worker-side entry for fork pools: apply the payload fn to its slice."""
    chunk_fn, items = _FORK_PAYLOADS[token]
    return chunk_fn(items[start:end])


def chunked_pool_map(chunk_fn: Callable, items: Sequence, workers: int) -> List:
    """Apply ``chunk_fn`` to contiguous chunks of ``items`` over a process pool.

    ``chunk_fn`` receives a list slice and returns a list of per-item
    results; the concatenated results preserve input order.  The batch is
    split into one chunk per worker, so each process pays the dispatch cost
    once.  On fork platforms the items reach the workers through the
    inherited process image (only ``(token, start, end)`` triples and the
    results are pickled); elsewhere each chunk is pickled into the pool.

    ``items`` must be non-empty and ``workers >= 2`` (callers handle the
    sequential cases); used by :func:`solve_many` and the experiment
    harness's parallel campaigns.
    """
    import multiprocessing
    import threading
    import uuid
    from concurrent.futures import ProcessPoolExecutor

    worker_count = min(workers, len(items))
    chunk_size = (len(items) + worker_count - 1) // worker_count
    bounds = [
        (start, min(start + chunk_size, len(items)))
        for start in range(0, len(items), chunk_size)
    ]
    # fork() from a multi-threaded parent can deadlock a child on a lock held
    # by another thread, so the zero-copy payload path is only taken from a
    # single-threaded process; otherwise fall back to the platform default
    # context with pickled chunks.
    can_fork = (
        "fork" in multiprocessing.get_all_start_methods()
        and threading.active_count() == 1
    )
    context = multiprocessing.get_context("fork") if can_fork else None
    with ProcessPoolExecutor(max_workers=worker_count, mp_context=context) as pool:
        if can_fork:
            token = uuid.uuid4().hex
            _FORK_PAYLOADS[token] = (chunk_fn, items)
            try:
                futures = [
                    pool.submit(_fork_chunk_entry, token, start, end)
                    for start, end in bounds
                ]
                return [result for future in futures for result in future.result()]
            finally:
                _FORK_PAYLOADS.pop(token, None)
        else:  # non-fork platforms, or a multi-threaded parent process
            futures = [
                pool.submit(chunk_fn, list(items[start:end])) for start, end in bounds
            ]
            return [result for future in futures for result in future.result()]


def solve_many(
    problems: Iterable[Union[TreeNetwork, ReplicaPlacementProblem]],
    *,
    policy: Union[Policy, str] = Policy.MULTIPLE,
    algorithm: Optional[str] = None,
    constraints: Optional[ConstraintSet] = None,
    kind: Optional[ProblemKind] = None,
    workers: Optional[int] = None,
    on_error: str = "none",
) -> List[Optional[Solution]]:
    """Solve a batch of instances, optionally over a process pool.

    Results are **order-preserving**: ``result[i]`` always corresponds to
    ``problems[i]`` and is identical to ``solve(problems[i], ...)`` whatever
    the worker count (the solvers are deterministic).

    Parameters
    ----------
    problems:
        Trees or fully-specified problems; coerced like :func:`solve`.
    policy, algorithm, constraints, kind:
        Forwarded to :func:`solve` for every instance.
    workers:
        ``None`` or ``<= 1`` solves sequentially in-process.  Larger values
        fork a :class:`~concurrent.futures.ProcessPoolExecutor` and split
        the batch into one contiguous chunk per worker, so each process
        pays the serialisation cost once per chunk rather than per
        instance.
    on_error:
        ``"none"`` (default) maps infeasible instances to ``None`` in the
        result list, mirroring the success-rate accounting of the paper's
        campaigns; ``"raise"`` re-raises the first
        :class:`~repro.core.exceptions.InfeasibleError` in input order.
        Any other exception always propagates.

    Returns
    -------
    list of Solution or None
        One entry per instance, ``None`` where no valid solution exists and
        ``on_error="none"``.
    """
    if on_error not in ("none", "raise"):
        raise ValueError(f"on_error must be 'none' or 'raise', got {on_error!r}")
    batch = list(problems)
    if not batch:
        return []

    if workers is None or workers <= 1:
        pairs = _solve_chunk(batch, policy, algorithm, constraints, kind, on_error)
    else:
        pairs = chunked_pool_map(
            partial(
                _solve_chunk,
                policy=policy,
                algorithm=algorithm,
                constraints=constraints,
                kind=kind,
                on_error=on_error,
            ),
            batch,
            workers,
        )

    solutions: List[Optional[Solution]] = []
    for solution, error in pairs:
        if error is not None:
            raise error
        solutions.append(solution)
    return solutions


@register_result
@dataclass
class SequenceResult(ResultBase):
    """Outcome of :func:`solve_sequence` over one epoch sequence.

    ``solutions[t]`` is the epoch-``t`` solution (``None`` when infeasible
    and ``on_error="none"``); ``stats[t]`` records the strategy used and the
    migration cost relative to epoch ``t - 1`` (epoch 0 migrates from an
    empty placement: its stats are the cold-start deployment).
    """

    payload_type = "sequence_result"

    mode: str
    policy: Policy
    solutions: List[Optional[Solution]]
    stats: List["ResolveStats"]

    # ------------------------------------------------------------------ #
    @property
    def costs(self) -> List[Optional[float]]:
        """Per-epoch storage costs (``None`` for infeasible epochs)."""
        return [entry.cost for entry in self.stats]

    @property
    def solved_epochs(self) -> int:
        """Number of epochs with a valid solution."""
        return sum(solution is not None for solution in self.solutions)

    def strategy_counts(self) -> Dict[str, int]:
        """How many epochs were reused / patched / solved."""
        counts: Dict[str, int] = {}
        for entry in self.stats:
            counts[entry.strategy] = counts.get(entry.strategy, 0) + 1
        return counts

    def total_migrations(self) -> Dict[str, float]:
        """Aggregate migration cost over the sequence, excluding epoch 0.

        Epoch 0 is the cold-start deployment, not a migration; including it
        would make every trajectory look churn-heavy.
        """
        tail = self.stats[1:]
        return {
            "replicas_added": sum(entry.replicas_added for entry in tail),
            "replicas_dropped": sum(entry.replicas_dropped for entry in tail),
            "requests_reassigned": sum(entry.requests_reassigned for entry in tail),
        }

    def describe(self) -> str:
        """One-line summary used by the CLI."""
        counts = self.strategy_counts()
        strategies = ", ".join(f"{counts[k]} {k}" for k in sorted(counts))
        migrations = self.total_migrations()
        return (
            f"{len(self.solutions)} epochs ({self.solved_epochs} solved: {strategies}), "
            f"+{migrations['replicas_added']}/-{migrations['replicas_dropped']} replicas, "
            f"{migrations['requests_reassigned']:g} requests re-routed"
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible payload (unified result protocol)."""
        from repro.core.serialization import solution_to_dict

        return self._tagged(
            {
                "mode": self.mode,
                "policy": self.policy.value,
                "epochs": len(self.solutions),
                "solved_epochs": self.solved_epochs,
                "costs": [encode_float(cost) for cost in self.costs],
                "strategies": self.strategy_counts(),
                "migrations": self.total_migrations(),
                "stats": [entry.to_dict() for entry in self.stats],
                "solutions": [
                    solution_to_dict(solution) if solution is not None else None
                    for solution in self.solutions
                ],
            }
        )

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SequenceResult":
        """Rebuild a sequence result from a :meth:`to_dict` payload."""
        from repro.algorithms.incremental import ResolveStats
        from repro.core.serialization import solution_from_dict

        return cls(
            mode=str(payload["mode"]),
            policy=Policy.parse(payload["policy"]),
            solutions=[
                solution_from_dict(entry) if entry is not None else None
                for entry in payload["solutions"]
            ],
            stats=[ResolveStats.from_dict(entry) for entry in payload["stats"]],
        )


def solve_sequence(
    epochs: Iterable[Union[TreeNetwork, ReplicaPlacementProblem]],
    *,
    policy: Union[Policy, str] = Policy.MULTIPLE,
    algorithm: Optional[str] = None,
    constraints: Optional[ConstraintSet] = None,
    kind: Optional[ProblemKind] = None,
    mode: str = "incremental",
    resolve: Union[bool, str] = "always",
    on_error: str = "none",
    shards: Optional[Union[int, Sequence]] = None,
) -> SequenceResult:
    """Solve a dynamic-workload epoch sequence with warm starts.

    A shim over one :class:`~repro.session.PlacementSession` fed every
    epoch through :meth:`~repro.session.PlacementSession.update`.

    Parameters
    ----------
    epochs:
        Trees or problems, one per epoch, e.g. a trajectory built by
        :mod:`repro.workloads.dynamic`.  Epochs forked with
        :meth:`TreeNetwork.with_requests` (as the trajectory generators do)
        get the cheapest incremental treatment.
    policy, algorithm, constraints, kind:
        Forwarded to the session for every epoch.
    mode:
        ``"incremental"`` (default) -- reuse unchanged epochs, re-solve the
        rest; per-epoch results are cost-identical to ``"scratch"``.
        ``"patch"`` -- additionally keep the placement frozen across
        rate-only epochs and re-route just the changed clients (minimal
        migrations, possibly higher cost, falls back to a full re-solve
        when the frozen placement cannot absorb the new rates).
        ``"scratch"`` -- plain per-epoch solving (the baseline).
    resolve:
        Epoch re-solve discipline forwarded to
        :meth:`~repro.session.PlacementSession.update`: ``"always"`` (the
        default) re-solves every epoch; ``"on_saturation"`` is SLA-aware --
        the previous placement is kept frozen (routes re-scaled to the new
        rates) unless the replayed epoch violates a constraint or
        saturates a link, and only then re-solved.  Kept epochs report
        strategy ``"kept"``.  Epoch 0 always solves.
    on_error:
        ``"none"`` records infeasible epochs as ``None``; ``"raise"``
        re-raises the first :class:`~repro.core.exceptions.InfeasibleError`
        in epoch order.
    shards:
        Optional sharded-solve spec forwarded to the session: epochs are
        solved shard-by-shard and a rate change confined to one shard
        re-solves only that shard (the others report ``"reused"``).

    Returns
    -------
    SequenceResult
        Per-epoch solutions plus strategy and migration statistics.
    """
    # Validate up front (the session re-validates, but an empty epoch
    # iterable would otherwise let a bad mode through unreported).
    if mode not in SESSION_MODES:
        raise ValueError(
            f"unknown mode {mode!r}; expected one of {sorted(SESSION_MODES)}"
        )
    if resolve not in (True, "always", "on_saturation"):
        raise ValueError(
            f"resolve must be 'always' or 'on_saturation', got {resolve!r}"
        )
    if on_error not in ("none", "raise"):
        raise ValueError(f"on_error must be 'none' or 'raise', got {on_error!r}")

    session: Optional[PlacementSession] = None
    solutions: List[Optional[Solution]] = []
    stats: List["ResolveStats"] = []
    for epoch in epochs:
        if session is None:
            session = PlacementSession(
                epoch,
                constraints=constraints,
                kind=kind,
                policy=policy,
                algorithm=algorithm,
                mode=mode,
                shards=shards,
            )
            result = session.solve(on_error="none")
        else:
            result = session.update(epoch, resolve=resolve)
        if result.solution is None and on_error == "raise":
            raise InfeasibleError(
                f"epoch {result.stats.epoch} has no valid solution under the "
                f"{session.policy.value} policy",
                policy=session.policy,
            )
        solutions.append(result.solution)
        stats.append(result.stats)
    resolved_policy = session.policy if session is not None else Policy.parse(policy)
    return SequenceResult(
        mode=mode, policy=resolved_policy, solutions=solutions, stats=stats
    )


@register_result
@dataclass
class BoundSequenceResult(ResultBase):
    """Outcome of :func:`bound_sequence` over one epoch sequence.

    ``values[t]`` is the epoch-``t`` lower bound (``math.inf`` when even the
    Multiple formulation is infeasible); ``stats[t]`` records how it was
    obtained (``reused`` / ``patched`` / ``built``) and its runtime.
    """

    payload_type = "bound_sequence_result"

    method: str
    policy: Policy
    results: List["LowerBoundResult"]
    stats: List["BoundStats"]

    # ------------------------------------------------------------------ #
    @property
    def values(self) -> List[float]:
        """Per-epoch lower bounds (``math.inf`` on infeasible epochs)."""
        return [entry.value for entry in self.results]

    def strategy_counts(self) -> Dict[str, int]:
        """How many epochs were reused / patched / built."""
        counts: Dict[str, int] = {}
        for entry in self.stats:
            counts[entry.strategy] = counts.get(entry.strategy, 0) + 1
        return counts

    def gaps(self, costs: Sequence[Optional[float]]) -> List[Optional[float]]:
        """Per-epoch relative cost-vs-bound gaps ``cost / bound``.

        ``costs`` is typically :attr:`SequenceResult.costs` from
        :func:`solve_sequence` over the same epochs.  Epochs without a cost,
        without a finite positive bound, or with mismatched feasibility map
        to ``None``.
        """
        if len(costs) != len(self.results):
            raise ValueError(
                f"{len(costs)} costs for {len(self.results)} bounded epochs"
            )
        gaps: List[Optional[float]] = []
        for cost, entry in zip(costs, self.results):
            if cost is None or not entry.feasible or entry.value <= 0:
                gaps.append(None)
            else:
                gaps.append(cost / entry.value)
        return gaps

    def describe(self) -> str:
        """One-line summary used by the CLI."""
        counts = self.strategy_counts()
        strategies = ", ".join(f"{counts[k]} {k}" for k in sorted(counts))
        finite = sum(1 for entry in self.results if entry.feasible)
        return (
            f"{len(self.results)} epochs bounded ({strategies}), "
            f"{finite} feasible, method={self.method}"
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible payload (unified result protocol)."""
        return self._tagged(
            {
                "method": self.method,
                "policy": self.policy.value,
                "epochs": len(self.results),
                "values": [encode_float(value) for value in self.values],
                "strategies": self.strategy_counts(),
                "results": [entry.to_dict() for entry in self.results],
                "stats": [entry.to_dict() for entry in self.stats],
            }
        )

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "BoundSequenceResult":
        """Rebuild a bound-sequence result from a :meth:`to_dict` payload."""
        from repro.algorithms.incremental import BoundStats
        from repro.lp.bounds import LowerBoundResult

        return cls(
            method=str(payload["method"]),
            policy=Policy.parse(payload["policy"]),
            results=[LowerBoundResult.from_dict(entry) for entry in payload["results"]],
            stats=[BoundStats.from_dict(entry) for entry in payload["stats"]],
        )


def bound_sequence(
    epochs: Iterable[Union[TreeNetwork, ReplicaPlacementProblem]],
    *,
    policy: Union[Policy, str] = Policy.MULTIPLE,
    constraints: Optional[ConstraintSet] = None,
    kind: Optional[ProblemKind] = None,
    method: str = "mixed",
    mode: str = "incremental",
    time_limit: Optional[float] = None,
) -> BoundSequenceResult:
    """Per-epoch LP lower bounds over a dynamic-workload epoch sequence.

    The companion of :func:`solve_sequence` (and a shim over one
    bound-only :class:`~repro.session.PlacementSession`): where that
    function tracks what the heuristics *achieve* across epochs, this one
    tracks what the LP says is *achievable*, making per-epoch
    cost-vs-bound gaps a first-class series (see
    :meth:`BoundSequenceResult.gaps`).

    Parameters
    ----------
    epochs:
        Trees or problems, one per epoch, as accepted by
        :func:`solve_sequence`.
    policy:
        Policy whose formulation is relaxed; the default Multiple is a valid
        lower bound for every policy (the paper's choice).
    method:
        ``"mixed"`` (default) -- the paper's refined bound: integer
        placement, rational assignment.  ``"rational"`` -- the fully
        rational relaxation (cheaper, looser).  ``"ipfp"`` -- the
        scaling-based Lagrangian bound of :mod:`repro.lp.ipfp` (no LP
        solve at all; looser still, but near-heuristic speed and the same
        rate-only re-targeting across epochs).
    mode:
        ``"incremental"`` (default) -- reuse the bound of unchanged epochs,
        re-target the cached program via
        :meth:`~repro.lp.formulation.LinearProgramData.with_requests` for
        rate-only epochs, rebuild otherwise.  Bounds are identical to
        ``"scratch"`` (per-epoch rebuilds) -- cross-validated by the test
        suite -- while skipping most of the per-epoch assembly work.
    time_limit:
        Optional per-epoch wall-clock limit forwarded to the backend.
    """
    if mode not in ("incremental", "scratch"):
        raise ValueError(
            f"unknown mode {mode!r}; expected one of ('incremental', 'scratch')"
        )
    if method not in ("mixed", "rational", "ipfp"):
        raise ValueError(
            f"unknown lower-bound method {method!r}; expected one of "
            f"('mixed', 'rational', 'ipfp')"
        )

    session: Optional[PlacementSession] = None
    results: List["LowerBoundResult"] = []
    stats: List["BoundStats"] = []
    for epoch in epochs:
        if session is None:
            session = PlacementSession(
                epoch, constraints=constraints, kind=kind, mode=mode
            )
        else:
            session.update(epoch, resolve=False)
        entry = session.bound(policy=policy, method=method, time_limit=time_limit)
        results.append(entry.result)
        stats.append(entry.stats)
    resolved_policy = Policy.parse(policy)
    return BoundSequenceResult(
        method=method, policy=resolved_policy, results=results, stats=stats
    )


def lower_bound(
    instance: Union[TreeNetwork, ReplicaPlacementProblem],
    *,
    constraints: Optional[ConstraintSet] = None,
    kind: Optional[ProblemKind] = None,
    method: str = "mixed",
) -> float:
    """LP-based lower bound on the optimal replica cost.

    ``method`` selects the refined bound of the paper (``"mixed"``: integer
    placement variables, rational assignments), the fully rational
    relaxation (``"rational"``), the IPFP Lagrangian bound (``"ipfp"``) or
    the purely combinatorial bound (``"trivial"``, no LP solve at all).  A
    shim over :meth:`PlacementSession.bound`.
    """
    session = PlacementSession(instance, constraints=constraints, kind=kind)
    return session.bound(method=method).value


def compare_policies(
    instance: Union[TreeNetwork, ReplicaPlacementProblem],
    *,
    policies: Iterable[Union[Policy, str]] = Policy.ordered(),
    constraints: Optional[ConstraintSet] = None,
    kind: Optional[ProblemKind] = None,
    bounds: bool = False,
    bound_method: str = "mixed",
) -> CompareResult:
    """Solve the same instance under several policies.

    Returns a :class:`~repro.session.CompareResult`: a mapping from policy
    to the best solution found (or ``None`` when the policy admits no
    solution / every algorithm failed) -- mirroring the paper's observation
    that Multiple solves strictly more instances than Upwards, which solves
    strictly more than Closest -- plus per-policy costs and, with
    ``bounds=True``, the Multiple LP lower bound and the per-policy
    cost-vs-bound gaps.

    Parameters
    ----------
    bounds:
        Also compute the LP lower bound (method ``bound_method``) and
        report per-policy gaps via :meth:`CompareResult.gaps`.
    """
    session = PlacementSession(instance, constraints=constraints, kind=kind)
    return session.compare(policies=policies, bounds=bounds, bound_method=bound_method)

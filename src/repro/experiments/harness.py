"""Campaign runner for the paper's experimental study (Section 7).

A *campaign* generates random trees over a load sweep (paper: 9 values of
``lambda``, 30 trees each, sizes 15-400), runs every selected heuristic and
the LP-based lower bound on each tree, and records per-instance outcomes.
The aggregated success-rate and relative-cost series are exactly what
Figures 9-12 plot.

The default parameters reproduce the paper's campaign; the benchmark suite
uses smaller trees/counts (configurable) so a full run stays laptop-friendly.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.algorithms.base import get_heuristic
from repro.core.policies import Policy
from repro.core.problem import ProblemKind, ReplicaPlacementProblem
from repro.core.results import ResultBase, decode_float, encode_float, register_result
from repro.core.tree import TreeNetwork
from repro.experiments.metrics import RelativeCostAccumulator, success_rate
from repro.experiments.reporting import series_table
from repro.workloads.generator import GeneratorConfig, TreeGenerator

__all__ = [
    "CampaignConfig",
    "InstanceRecord",
    "CampaignResult",
    "run_campaign",
    "PAPER_HEURISTICS",
    "ChurnCampaignConfig",
    "ChurnRecord",
    "ChurnCampaignResult",
    "run_churn_campaign",
]

#: The heuristics compared in the paper's figures, plus the MixedBest combiner.
PAPER_HEURISTICS: Tuple[str, ...] = (
    "CTDA",
    "CTDLF",
    "CBU",
    "UTD",
    "UBCF",
    "MG",
    "MTD",
    "MBU",
    "MixedBest",
)

#: Label of the lower-bound pseudo-series in success-rate tables (the paper's
#: "LP" curve: the fraction of trees that admit any solution at all).
LP_SERIES = "LP"


@dataclass(frozen=True)
class CampaignConfig:
    """Parameters of an experimental campaign.

    The defaults reproduce the paper's setup; benchmarks shrink
    ``trees_per_lambda`` and ``size_range`` to keep runtimes reasonable.
    """

    lambdas: Sequence[float] = tuple(round(0.1 * k, 1) for k in range(1, 10))
    trees_per_lambda: int = 30
    size_range: Tuple[int, int] = (15, 400)
    homogeneous: bool = True
    seed: int = 2007
    heuristics: Sequence[str] = PAPER_HEURISTICS
    lower_bound_method: str = "mixed"
    base_capacity: float = 100.0
    capacity_choices: Sequence[float] = (50.0, 100.0, 200.0, 400.0)
    client_fraction: float = 0.7
    max_children: int = 3
    lp_time_limit: Optional[float] = 60.0

    def problem_kind(self) -> ProblemKind:
        """Replica Counting on homogeneous platforms, Replica Cost otherwise."""
        return ProblemKind.REPLICA_COUNTING if self.homogeneous else ProblemKind.REPLICA_COST

    def scaled(self, *, trees_per_lambda: int, size_range: Tuple[int, int]) -> "CampaignConfig":
        """A copy of this configuration with a smaller experimental plan."""
        return replace(self, trees_per_lambda=trees_per_lambda, size_range=size_range)

    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible payload (part of the result protocol)."""
        return {
            "lambdas": list(self.lambdas),
            "trees_per_lambda": self.trees_per_lambda,
            "size_range": list(self.size_range),
            "homogeneous": self.homogeneous,
            "seed": self.seed,
            "heuristics": list(self.heuristics),
            "lower_bound_method": self.lower_bound_method,
            "base_capacity": self.base_capacity,
            "capacity_choices": list(self.capacity_choices),
            "client_fraction": self.client_fraction,
            "max_children": self.max_children,
            "lp_time_limit": self.lp_time_limit,
        }

    @classmethod
    def from_dict(cls, payload) -> "CampaignConfig":
        """Rebuild a configuration from a :meth:`to_dict` payload."""
        return cls(
            lambdas=tuple(payload["lambdas"]),
            trees_per_lambda=int(payload["trees_per_lambda"]),
            size_range=tuple(payload["size_range"]),
            homogeneous=bool(payload["homogeneous"]),
            seed=int(payload["seed"]),
            heuristics=tuple(payload["heuristics"]),
            lower_bound_method=str(payload["lower_bound_method"]),
            base_capacity=float(payload["base_capacity"]),
            capacity_choices=tuple(payload["capacity_choices"]),
            client_fraction=float(payload["client_fraction"]),
            max_children=int(payload["max_children"]),
            lp_time_limit=payload.get("lp_time_limit"),
        )


@dataclass
class InstanceRecord:
    """Outcome of one generated tree."""

    load: float
    size: int
    homogeneous: bool
    lower_bound: float
    costs: Dict[str, Optional[float]]
    runtimes: Dict[str, float] = field(default_factory=dict)

    @property
    def solvable(self) -> bool:
        """Whether the LP proved the instance feasible (finite lower bound)."""
        return math.isfinite(self.lower_bound)

    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible payload (part of the result protocol)."""
        return {
            "load": self.load,
            "size": self.size,
            "homogeneous": self.homogeneous,
            "lower_bound": encode_float(self.lower_bound),
            "costs": {name: encode_float(cost) for name, cost in self.costs.items()},
            "runtimes": dict(self.runtimes),
        }

    @classmethod
    def from_dict(cls, payload) -> "InstanceRecord":
        """Rebuild a record from a :meth:`to_dict` payload."""
        return cls(
            load=float(payload["load"]),
            size=int(payload["size"]),
            homogeneous=bool(payload["homogeneous"]),
            lower_bound=decode_float(payload["lower_bound"]),
            costs={
                name: decode_float(cost) for name, cost in payload["costs"].items()
            },
            runtimes={
                name: float(value)
                for name, value in payload.get("runtimes", {}).items()
            },
        )


@register_result
@dataclass
class CampaignResult(ResultBase):
    """All records of a campaign plus the aggregations used by the figures."""

    payload_type = "campaign_result"

    config: CampaignConfig
    records: List[InstanceRecord]

    # ------------------------------------------------------------------ #
    @property
    def heuristic_names(self) -> Sequence[str]:
        """Heuristics that were run."""
        return tuple(self.config.heuristics)

    def records_for(self, load: float) -> List[InstanceRecord]:
        """Records of a given load value."""
        return [record for record in self.records if abs(record.load - load) < 1e-9]

    # ------------------------------------------------------------------ #
    def success_series(self) -> Dict[str, Dict[float, float]]:
        """Percentage-of-success series (paper Figures 9 and 11).

        Includes the ``LP`` pseudo-series counting the solvable instances.
        """
        series: Dict[str, Dict[float, float]] = {
            name: {} for name in (LP_SERIES,) + tuple(self.heuristic_names)
        }
        for load in self.config.lambdas:
            records = self.records_for(load)
            if not records:
                continue
            series[LP_SERIES][load] = success_rate(
                [record.lower_bound for record in records]
            )
            for name in self.heuristic_names:
                series[name][load] = success_rate(
                    [record.costs.get(name) for record in records]
                )
        return series

    def relative_cost_series(self) -> Dict[str, Dict[float, float]]:
        """Relative-cost series (paper Figures 10 and 12)."""
        series: Dict[str, Dict[float, float]] = {name: {} for name in self.heuristic_names}
        for load in self.config.lambdas:
            records = self.records_for(load)
            if not records:
                continue
            for name in self.heuristic_names:
                accumulator = RelativeCostAccumulator()
                for record in records:
                    accumulator.add(record.lower_bound, record.costs.get(name))
                series[name][load] = accumulator.value()
        return series

    # ------------------------------------------------------------------ #
    def success_table(self) -> str:
        """ASCII rendering of the success series."""
        return series_table(self.success_series())

    def relative_cost_table(self) -> str:
        """ASCII rendering of the relative-cost series."""
        return series_table(self.relative_cost_series())

    def describe(self) -> str:
        """Short campaign summary."""
        kind = "homogeneous" if self.config.homogeneous else "heterogeneous"
        return (
            f"{len(self.records)} instances, {kind}, "
            f"sizes {self.config.size_range[0]}-{self.config.size_range[1]}, "
            f"{self.config.trees_per_lambda} trees per lambda"
        )

    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible payload (unified result protocol)."""
        return self._tagged(
            {
                "config": self.config.to_dict(),
                "records": [record.to_dict() for record in self.records],
                "success": {
                    name: {str(load): value for load, value in series.items()}
                    for name, series in self.success_series().items()
                },
                "relative_cost": {
                    name: {str(load): encode_float(value) for load, value in series.items()}
                    for name, series in self.relative_cost_series().items()
                },
            }
        )

    @classmethod
    def from_dict(cls, payload) -> "CampaignResult":
        """Rebuild a campaign result from a :meth:`to_dict` payload.

        The aggregated series are derived data and recomputed from the
        records rather than read back.
        """
        return cls(
            config=CampaignConfig.from_dict(payload["config"]),
            records=[InstanceRecord.from_dict(entry) for entry in payload["records"]],
        )


def _generate_campaign_trees(config: CampaignConfig) -> List[Tuple[float, TreeNetwork]]:
    """Draw the campaign's trees (deterministic given ``config.seed``)."""
    generator = TreeGenerator(config.seed)
    plan: List[Tuple[float, TreeNetwork]] = []
    for load in config.lambdas:
        for _ in range(config.trees_per_lambda):
            size = int(generator.rng.integers(config.size_range[0], config.size_range[1] + 1))
            tree = generator.generate(
                GeneratorConfig(
                    size=size,
                    target_load=float(load),
                    homogeneous=config.homogeneous,
                    base_capacity=config.base_capacity,
                    capacity_choices=config.capacity_choices,
                    client_fraction=config.client_fraction,
                    max_children=config.max_children,
                )
            )
            plan.append((float(load), tree))
    return plan


def _evaluate_chunk(
    chunk: List[Tuple[float, TreeNetwork]], *, config: CampaignConfig
) -> List[InstanceRecord]:
    """Evaluate a contiguous chunk of campaign entries (worker side)."""
    heuristics = [(name, get_heuristic(name)) for name in config.heuristics]
    return [
        evaluate_instance(tree, load, config, heuristics) for load, tree in chunk
    ]


def run_campaign(
    config: CampaignConfig,
    *,
    progress: Optional[Callable[[InstanceRecord], None]] = None,
    workers: Optional[int] = None,
) -> CampaignResult:
    """Generate the campaign trees and evaluate every heuristic on each.

    Parameters
    ----------
    progress:
        Optional callback invoked with each finished :class:`InstanceRecord`
        (used by the CLI to stream progress).  Records are always delivered
        in generation order, whatever the worker count.
    workers:
        ``None`` or ``<= 1`` evaluates sequentially in-process.  Larger
        values evaluate the generated instances over a process pool with
        per-worker chunking (tree generation itself stays sequential so the
        random campaign is identical to a sequential run).
    """
    plan = _generate_campaign_trees(config)

    if workers is None or workers <= 1 or not plan:
        heuristics = [(name, get_heuristic(name)) for name in config.heuristics]
        records = []
        for load, tree in plan:
            record = evaluate_instance(tree, load, config, heuristics)
            records.append(record)
            if progress is not None:
                progress(record)
        return CampaignResult(config=config, records=records)

    from functools import partial

    from repro.api import chunked_pool_map

    records = chunked_pool_map(partial(_evaluate_chunk, config=config), plan, workers)
    if progress is not None:
        for record in records:
            progress(record)
    return CampaignResult(config=config, records=records)


def evaluate_instance(
    tree: TreeNetwork,
    load: float,
    config: CampaignConfig,
    heuristics: Sequence[Tuple[str, object]],
) -> InstanceRecord:
    """Run the lower bound and every heuristic on one tree."""
    problem = ReplicaPlacementProblem(tree=tree, kind=config.problem_kind())

    lower = _lower_bound(problem, config)
    costs: Dict[str, Optional[float]] = {}
    runtimes: Dict[str, float] = {}
    for name, heuristic in heuristics:
        start = time.perf_counter()
        solution = heuristic.try_solve(problem)
        runtimes[name] = time.perf_counter() - start
        costs[name] = solution.cost(problem) if solution is not None else None

    return InstanceRecord(
        load=load,
        size=tree.size,
        homogeneous=config.homogeneous,
        lower_bound=lower,
        costs=costs,
        runtimes=runtimes,
    )


# --------------------------------------------------------------------------- #
# dynamic-workload churn campaign
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ChurnCampaignConfig:
    """Parameters of a dynamic-workload churn sweep.

    For every churn intensity, ``trees_per_level`` base trees are generated
    and a :func:`repro.workloads.dynamic.rate_churn` trajectory is solved
    under each mode of :func:`repro.api.solve_sequence`.  The aggregated
    series answer the operational question the static campaign cannot: *how
    much placement stability does each re-solve strategy buy, at what cost,
    as traffic churn grows?*
    """

    churn_levels: Sequence[float] = (0.05, 0.1, 0.2, 0.4)
    epochs: int = 12
    trees_per_level: int = 3
    size: int = 60
    load: float = 0.5
    homogeneous: bool = True
    policy: str = "multiple"
    magnitude: float = 0.5
    quiet_probability: float = 0.25
    modes: Sequence[str] = ("incremental", "patch")
    seed: int = 2026
    #: also compute the per-epoch LP lower bound of every trajectory (via
    #: :func:`repro.api.bound_sequence`, incremental program patching) and
    #: record mean bound and mean cost-vs-bound gap per record.
    track_bounds: bool = False
    bound_method: str = "mixed"

    def problem_kind(self) -> ProblemKind:
        """Replica Counting on homogeneous platforms, Replica Cost otherwise."""
        return ProblemKind.REPLICA_COUNTING if self.homogeneous else ProblemKind.REPLICA_COST

    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible payload (part of the result protocol)."""
        return {
            "churn_levels": list(self.churn_levels),
            "epochs": self.epochs,
            "trees_per_level": self.trees_per_level,
            "size": self.size,
            "load": self.load,
            "homogeneous": self.homogeneous,
            "policy": self.policy,
            "magnitude": self.magnitude,
            "quiet_probability": self.quiet_probability,
            "modes": list(self.modes),
            "seed": self.seed,
            "track_bounds": self.track_bounds,
            "bound_method": self.bound_method,
        }

    @classmethod
    def from_dict(cls, payload) -> "ChurnCampaignConfig":
        """Rebuild a configuration from a :meth:`to_dict` payload."""
        return cls(
            churn_levels=tuple(payload["churn_levels"]),
            epochs=int(payload["epochs"]),
            trees_per_level=int(payload["trees_per_level"]),
            size=int(payload["size"]),
            load=float(payload["load"]),
            homogeneous=bool(payload["homogeneous"]),
            policy=str(payload["policy"]),
            magnitude=float(payload["magnitude"]),
            quiet_probability=float(payload["quiet_probability"]),
            modes=tuple(payload["modes"]),
            seed=int(payload["seed"]),
            track_bounds=bool(payload.get("track_bounds", False)),
            bound_method=str(payload.get("bound_method", "mixed")),
        )


@dataclass
class ChurnRecord:
    """Outcome of one (churn level, base tree, mode) trajectory solve."""

    churn: float
    tree_seed: int
    mode: str
    mean_cost: float
    solved_epochs: int
    epochs: int
    replicas_moved: int
    requests_reassigned: float
    strategies: Dict[str, int]
    runtime: float
    #: mean per-epoch LP lower bound / cost-vs-bound gap, ``nan`` unless the
    #: campaign ran with ``track_bounds=True``.
    mean_bound: float = math.nan
    mean_gap: float = math.nan

    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible payload (part of the result protocol)."""
        return {
            "churn": self.churn,
            "tree_seed": self.tree_seed,
            "mode": self.mode,
            "mean_cost": encode_float(self.mean_cost),
            "solved_epochs": self.solved_epochs,
            "epochs": self.epochs,
            "replicas_moved": self.replicas_moved,
            "requests_reassigned": self.requests_reassigned,
            "strategies": dict(self.strategies),
            "runtime": self.runtime,
            "mean_bound": encode_float(self.mean_bound),
            "mean_gap": encode_float(self.mean_gap),
        }

    @classmethod
    def from_dict(cls, payload) -> "ChurnRecord":
        """Rebuild a record from a :meth:`to_dict` payload."""
        return cls(
            churn=float(payload["churn"]),
            tree_seed=int(payload["tree_seed"]),
            mode=str(payload["mode"]),
            mean_cost=decode_float(payload["mean_cost"]),
            solved_epochs=int(payload["solved_epochs"]),
            epochs=int(payload["epochs"]),
            replicas_moved=int(payload["replicas_moved"]),
            requests_reassigned=float(payload["requests_reassigned"]),
            strategies={
                name: int(count)
                for name, count in payload.get("strategies", {}).items()
            },
            runtime=float(payload.get("runtime", 0.0)),
            mean_bound=decode_float(payload.get("mean_bound", "nan")),
            mean_gap=decode_float(payload.get("mean_gap", "nan")),
        )


@register_result
@dataclass
class ChurnCampaignResult(ResultBase):
    """All churn records plus the cost-vs-stability aggregations."""

    payload_type = "churn_campaign_result"

    config: ChurnCampaignConfig
    records: List[ChurnRecord]

    # ------------------------------------------------------------------ #
    def records_for(self, churn: float, mode: str) -> List[ChurnRecord]:
        """Records of one churn level under one mode."""
        return [
            record
            for record in self.records
            if record.mode == mode and abs(record.churn - churn) < 1e-9
        ]

    def _series(self, value) -> Dict[str, Dict[float, float]]:
        series: Dict[str, Dict[float, float]] = {}
        for mode in self.config.modes:
            entries: Dict[float, float] = {}
            for churn in self.config.churn_levels:
                records = self.records_for(churn, mode)
                if records:
                    entries[float(churn)] = sum(map(value, records)) / len(records)
            series[mode] = entries
        return series

    def cost_series(self) -> Dict[str, Dict[float, float]]:
        """Mean per-epoch cost by churn level, one series per mode."""
        return self._series(lambda record: record.mean_cost)

    def gap_series(self) -> Dict[str, Dict[float, float]]:
        """Mean cost-vs-LP-bound gap by churn level (``track_bounds`` runs)."""
        return self._series(lambda record: record.mean_gap)

    def stability_series(self) -> Dict[str, Dict[float, float]]:
        """Mean requests re-routed per epoch by churn level and mode."""
        return self._series(
            lambda record: record.requests_reassigned / max(1, record.epochs - 1)
        )

    def replica_churn_series(self) -> Dict[str, Dict[float, float]]:
        """Mean replicas moved (added + dropped) per epoch by churn level."""
        return self._series(
            lambda record: record.replicas_moved / max(1, record.epochs - 1)
        )

    def cost_table(self) -> str:
        """ASCII table of the cost series (x axis: churn intensity)."""
        return series_table(self.cost_series(), x_label="churn")

    def gap_table(self) -> str:
        """ASCII table of the cost-vs-bound gap series."""
        return series_table(self.gap_series(), x_label="churn")

    def stability_table(self) -> str:
        """ASCII table of the request re-routing series."""
        return series_table(self.stability_series(), x_label="churn")

    def replica_churn_table(self) -> str:
        """ASCII table of the replica movement series."""
        return series_table(self.replica_churn_series(), x_label="churn")

    def describe(self) -> str:
        """Short campaign summary."""
        kind = "homogeneous" if self.config.homogeneous else "heterogeneous"
        return (
            f"{len(self.records)} trajectory solves ({kind}, size {self.config.size}, "
            f"{self.config.epochs} epochs, {self.config.trees_per_level} trees per "
            f"churn level, modes {'/'.join(self.config.modes)})"
        )

    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible payload (unified result protocol)."""

        def encode_series(series: Dict[str, Dict[float, float]]):
            return {
                mode: {str(churn): encode_float(value) for churn, value in entries.items()}
                for mode, entries in series.items()
            }

        payload = {
            "config": self.config.to_dict(),
            "records": [record.to_dict() for record in self.records],
            "cost": encode_series(self.cost_series()),
            "stability": encode_series(self.stability_series()),
            "replica_churn": encode_series(self.replica_churn_series()),
        }
        if self.config.track_bounds:
            payload["gap"] = encode_series(self.gap_series())
        return self._tagged(payload)

    @classmethod
    def from_dict(cls, payload) -> "ChurnCampaignResult":
        """Rebuild a churn-campaign result from a :meth:`to_dict` payload.

        The aggregated series are derived data and recomputed from the
        records rather than read back.
        """
        return cls(
            config=ChurnCampaignConfig.from_dict(payload["config"]),
            records=[ChurnRecord.from_dict(entry) for entry in payload["records"]],
        )


def _churn_trajectory_epochs(churn: float, tree_seed: int, config: ChurnCampaignConfig):
    """Build one trajectory's epochs (deterministic given the seeds).

    Regenerated per mode / per bound run (identical demand every time) to
    keep the recorded runtimes honest: sharing epoch objects would hand
    later runs the earlier runs' warm tree-index caches.
    """
    from repro.workloads.dynamic import rate_churn

    tree = TreeGenerator(tree_seed).generate(
        GeneratorConfig(
            size=config.size,
            target_load=config.load,
            homogeneous=config.homogeneous,
        )
    )
    base = ReplicaPlacementProblem(
        tree=tree, kind=config.problem_kind(), name=f"churn{churn:g}"
    )
    return rate_churn(
        base,
        config.epochs,
        churn=float(churn),
        magnitude=config.magnitude,
        quiet_probability=config.quiet_probability,
        seed=tree_seed,
    )


def _evaluate_churn_entry(
    entry: Tuple[float, int], config: ChurnCampaignConfig
) -> List[ChurnRecord]:
    """Solve one (churn level, base tree) trajectory under every mode."""
    from repro.api import bound_sequence, solve_sequence

    churn, tree_seed = entry
    bounds = None
    if config.track_bounds:
        # The bounds depend on the epochs only, not on the re-solve mode:
        # compute them once per trajectory and share across mode records.
        bounds = bound_sequence(
            _churn_trajectory_epochs(churn, tree_seed, config),
            policy=config.policy,
            method=config.bound_method,
        )
        finite = [value for value in bounds.values if math.isfinite(value)]
        mean_bound = sum(finite) / len(finite) if finite else math.nan

    records: List[ChurnRecord] = []
    for mode in config.modes:
        epochs = _churn_trajectory_epochs(churn, tree_seed, config)
        start = time.perf_counter()
        result = solve_sequence(epochs, policy=config.policy, mode=mode)
        runtime = time.perf_counter() - start
        costs = [cost for cost in result.costs if cost is not None]
        migrations = result.total_migrations()
        mean_gap = math.nan
        if bounds is not None:
            gaps = [gap for gap in bounds.gaps(result.costs) if gap is not None]
            mean_gap = sum(gaps) / len(gaps) if gaps else math.nan
        records.append(
            ChurnRecord(
                churn=float(churn),
                tree_seed=tree_seed,
                mode=mode,
                mean_cost=sum(costs) / len(costs) if costs else math.nan,
                solved_epochs=result.solved_epochs,
                epochs=config.epochs,
                replicas_moved=migrations["replicas_added"]
                + migrations["replicas_dropped"],
                requests_reassigned=migrations["requests_reassigned"],
                strategies=result.strategy_counts(),
                runtime=runtime,
                mean_bound=mean_bound if bounds is not None else math.nan,
                mean_gap=mean_gap,
            )
        )
    return records


def _churn_chunk(
    chunk: List[Tuple[float, int]], *, config: ChurnCampaignConfig
) -> List[List[ChurnRecord]]:
    """Worker-side evaluation of a contiguous chunk of trajectory entries."""
    return [_evaluate_churn_entry(entry, config) for entry in chunk]


def run_churn_campaign(
    config: ChurnCampaignConfig, *, workers: Optional[int] = None
) -> ChurnCampaignResult:
    """Sweep churn intensity and solve each trajectory under every mode.

    Trajectories are deterministic given ``config.seed``: the same epochs
    are handed to every mode, so the per-level series are directly
    comparable (identical demand, different re-solve strategies).

    Parameters
    ----------
    workers:
        ``None`` or ``<= 1`` evaluates sequentially in-process.  Larger
        values fan the independent (churn level, base tree) trajectories
        out over the shared :func:`repro.api.chunked_pool_map` process
        pool, one contiguous chunk per worker; records come back in the
        same deterministic order as a sequential run.
    """
    plan: List[Tuple[float, int]] = []
    for level_index, churn in enumerate(config.churn_levels):
        for tree_index in range(config.trees_per_level):
            plan.append((float(churn), config.seed + 1000 * level_index + tree_index))

    if workers is None or workers <= 1 or not plan:
        grouped = [_evaluate_churn_entry(entry, config) for entry in plan]
    else:
        from functools import partial

        from repro.api import chunked_pool_map

        grouped = chunked_pool_map(partial(_churn_chunk, config=config), plan, workers)

    records = [record for group in grouped for record in group]
    return ChurnCampaignResult(config=config, records=records)


def _lower_bound(problem: ReplicaPlacementProblem, config: CampaignConfig) -> float:
    method = config.lower_bound_method
    if method == "none":
        return math.nan
    if method == "trivial":
        from repro.core.costs import trivial_lower_bound

        return trivial_lower_bound(problem)
    from repro.lp.bounds import lp_lower_bound, rational_relaxation_bound

    if method == "mixed":
        return lp_lower_bound(problem, time_limit=config.lp_time_limit).value
    if method == "rational":
        return rational_relaxation_bound(problem).value
    raise ValueError(f"unknown lower bound method {method!r}")

"""Ablation studies on the design choices called out in DESIGN.md.

Four ablations are provided, each returning the data series plus an ASCII
table:

* :func:`ablate_drain_order` -- MBU drains *small* clients first when
  filling an exhausted server; the ablation compares against a variant
  draining large clients first (MTD's order) on the same campaign;
* :func:`ablate_second_pass` -- UTD/MTD add a second top-down pass for the
  requests left over by the exhausted-node pass; the ablation measures the
  success rate with the second pass disabled;
* :func:`ablate_lower_bound` -- the paper's refined bound (integer ``x``,
  rational ``y``) against the fully rational relaxation: how much tighter is
  it, and how much more expensive to compute;
* :func:`ablate_mixed_best` -- the cost benefit of combining all heuristics
  (MixedBest) over the always-feasible MultipleGreedy alone.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.algorithms.base import get_heuristic
from repro.algorithms.common import make_state
from repro.algorithms.multiple.mbu import MultipleBottomUp
from repro.algorithms.upwards.utd import UpwardsTopDown
from repro.core.policies import Policy
from repro.core.problem import ProblemKind, ReplicaPlacementProblem
from repro.experiments.metrics import RelativeCostAccumulator, success_rate
from repro.experiments.reporting import ascii_table
from repro.lp.bounds import lp_lower_bound, rational_relaxation_bound
from repro.workloads.generator import GeneratorConfig, TreeGenerator

__all__ = [
    "AblationResult",
    "ablate_drain_order",
    "ablate_second_pass",
    "ablate_lower_bound",
    "ablate_mixed_best",
]


@dataclass
class AblationResult:
    """Outcome of one ablation: per-variant metric values and a table."""

    name: str
    metrics: Dict[str, Dict[str, float]]
    table: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.name}\n{self.table}"


class _MBULargestFirst(MultipleBottomUp):
    """MBU variant draining large clients first (ablation only).

    Keeps MBU's bottom-up first pass and top-down second pass and flips
    only the drain order of both.
    """

    name = "MBU-largest-first"

    def _solve(self, problem):  # noqa: D102 - ablation-only override
        state = make_state(problem)
        state.first_pass_sweep(order="post", largest_first=True, split_last=True)
        if not state.all_requests_affected():
            state.second_pass_sweep(largest_first=True, split_last=True)
        if not state.all_requests_affected():
            return None
        return state.to_solution(self.policy, self.name)


class _UTDNoSecondPass(UpwardsTopDown):
    """UTD variant without the completion pass (ablation only)."""

    name = "UTD-no-second-pass"

    def _solve(self, problem):  # noqa: D102 - ablation-only override
        state = make_state(problem)
        state.first_pass_sweep(
            order="pre", largest_first=self.largest_first, split_last=self.split_last
        )
        if not state.all_requests_affected():
            return None
        return state.to_solution(self.policy, self.name)


def _sample_problems(
    *,
    count: int,
    homogeneous: bool,
    seed: int,
    size: int = 60,
    loads: Sequence[float] = (0.3, 0.5, 0.7),
) -> List[ReplicaPlacementProblem]:
    generator = TreeGenerator(seed)
    kind = ProblemKind.REPLICA_COUNTING if homogeneous else ProblemKind.REPLICA_COST
    problems = []
    for index in range(count):
        load = loads[index % len(loads)]
        tree = generator.generate(
            GeneratorConfig(size=size, target_load=load, homogeneous=homogeneous)
        )
        problems.append(ReplicaPlacementProblem(tree=tree, kind=kind))
    return problems


def _evaluate(
    variants: Dict[str, object], problems: Sequence[ReplicaPlacementProblem]
) -> Dict[str, Dict[str, float]]:
    bounds = [lp_lower_bound(problem).value for problem in problems]
    metrics: Dict[str, Dict[str, float]] = {}
    for label, heuristic in variants.items():
        costs: List[Optional[float]] = []
        for problem in problems:
            solution = heuristic.try_solve(problem)
            costs.append(solution.cost(problem) if solution is not None else None)
        accumulator = RelativeCostAccumulator()
        for bound, cost in zip(bounds, costs):
            accumulator.add(bound, cost)
        metrics[label] = {
            "success": success_rate(costs),
            "relative_cost": accumulator.value(),
        }
    return metrics


def _metrics_table(metrics: Dict[str, Dict[str, float]]) -> str:
    return ascii_table(
        ["variant", "success", "relative_cost"],
        [
            (label, values["success"], values["relative_cost"])
            for label, values in metrics.items()
        ],
    )


def ablate_drain_order(
    *, count: int = 12, homogeneous: bool = False, seed: int = 11
) -> AblationResult:
    """MBU's smallest-clients-first drain order vs a largest-first variant."""
    problems = _sample_problems(count=count, homogeneous=homogeneous, seed=seed)
    metrics = _evaluate(
        {"MBU (smallest first)": get_heuristic("MBU"), "MBU (largest first)": _MBULargestFirst()},
        problems,
    )
    return AblationResult("drain order (MBU)", metrics, _metrics_table(metrics))


def ablate_second_pass(
    *, count: int = 12, homogeneous: bool = True, seed: int = 12
) -> AblationResult:
    """UTD with and without the completion (second) pass."""
    problems = _sample_problems(count=count, homogeneous=homogeneous, seed=seed)
    metrics = _evaluate(
        {"UTD (two passes)": get_heuristic("UTD"), "UTD (first pass only)": _UTDNoSecondPass()},
        problems,
    )
    return AblationResult("UTD second pass", metrics, _metrics_table(metrics))


def ablate_lower_bound(
    *, count: int = 8, homogeneous: bool = False, seed: int = 13
) -> AblationResult:
    """Refined (mixed-integer) lower bound vs the fully rational relaxation."""
    problems = _sample_problems(count=count, homogeneous=homogeneous, seed=seed)
    rows = []
    gaps = []
    times = {"mixed": 0.0, "rational": 0.0}
    for index, problem in enumerate(problems):
        start = time.perf_counter()
        mixed = lp_lower_bound(problem).value
        times["mixed"] += time.perf_counter() - start
        start = time.perf_counter()
        rational = rational_relaxation_bound(problem).value
        times["rational"] += time.perf_counter() - start
        ratio = mixed / rational if rational and math.isfinite(rational) and rational > 0 else math.nan
        gaps.append(ratio)
        rows.append((f"instance {index}", rational, mixed, ratio))
    finite_gaps = [g for g in gaps if math.isfinite(g)]
    tightening = sum(finite_gaps) / len(finite_gaps) if finite_gaps else math.nan
    metrics = {
        "rational": {"mean_bound_ratio": 1.0, "total_seconds": times["rational"]},
        "mixed": {"mean_bound_ratio": tightening, "total_seconds": times["mixed"]},
    }
    table = ascii_table(["instance", "rational", "mixed", "mixed/rational"], rows)
    summary = ascii_table(
        ["variant", "mean bound ratio", "total seconds"],
        [
            ("rational relaxation", 1.0, times["rational"]),
            ("mixed (paper)", tightening, times["mixed"]),
        ],
    )
    return AblationResult("lower bound refinement", metrics, table + "\n\n" + summary)


def ablate_mixed_best(
    *, count: int = 12, homogeneous: bool = False, seed: int = 14
) -> AblationResult:
    """MixedBest against MultipleGreedy alone."""
    problems = _sample_problems(count=count, homogeneous=homogeneous, seed=seed)
    metrics = _evaluate(
        {"MG alone": get_heuristic("MG"), "MixedBest": get_heuristic("MixedBest")},
        problems,
    )
    return AblationResult("MixedBest vs MG", metrics, _metrics_table(metrics))

"""Placement algorithms: the optimal greedy, the eight heuristics, baselines.

Contents
--------

* :mod:`repro.algorithms.base` -- the :class:`PlacementHeuristic` interface,
  the shared :class:`repro.algorithms.common.RequestState` bookkeeping and
  the heuristic registry;
* :mod:`repro.algorithms.common` -- the request-state factory
  :func:`~repro.algorithms.common.make_state`: every heuristic runs on the
  compiled :class:`repro.algorithms.native_state.NativeRequestState` where
  the kernels load, and on the paper-faithful dict engine
  :class:`~repro.algorithms.common.RequestState` where they do not (no C
  compiler, or ``REPRO_NATIVE_DISABLE=1``), the two pinned to each other
  by the cross-validation suite;
* :mod:`repro.algorithms.multiple_homogeneous` -- the paper's optimal
  polynomial algorithm for the Multiple policy on homogeneous platforms
  (Section 4.1, Theorem 1);
* :mod:`repro.algorithms.closest` -- CTDA, CTDLF and CBU (Section 6.1);
* :mod:`repro.algorithms.upwards` -- UTD and UBCF (Section 6.2);
* :mod:`repro.algorithms.multiple` -- MTD, MBU and MG (Section 6.3);
* :mod:`repro.algorithms.mixed_best` -- the MixedBest combiner;
* :mod:`repro.algorithms.incremental` -- the epoch-by-epoch
  :class:`IncrementalResolver` for dynamic workloads (reuse / patch /
  re-solve strategies with migration accounting);
* :mod:`repro.algorithms.exhaustive` -- brute-force optimal placements for
  small instances, used to validate everything else.
"""

from repro.algorithms.base import (
    PlacementHeuristic,
    register_heuristic,
    get_heuristic,
    available_heuristics,
    heuristics_for_policy,
    solve_with,
)
from repro.algorithms.common import RequestState, make_state
from repro.algorithms.multiple_homogeneous import MultipleHomogeneousOptimal
from repro.algorithms.closest import (
    ClosestTopDownAll,
    ClosestTopDownLargestFirst,
    ClosestBottomUp,
)
from repro.algorithms.upwards import UpwardsTopDown, UpwardsBigClientFirst
from repro.algorithms.multiple import MultipleTopDown, MultipleBottomUp, MultipleGreedy
from repro.algorithms.mixed_best import MixedBest
from repro.algorithms.exhaustive import ExhaustiveSearch, optimal_cost
from repro.algorithms.incremental import (
    IncrementalResolver,
    ProblemDelta,
    ResolveStats,
    diff_problems,
    migration_stats,
)

__all__ = [
    "PlacementHeuristic",
    "register_heuristic",
    "get_heuristic",
    "available_heuristics",
    "heuristics_for_policy",
    "solve_with",
    "RequestState",
    "make_state",
    "MultipleHomogeneousOptimal",
    "ClosestTopDownAll",
    "ClosestTopDownLargestFirst",
    "ClosestBottomUp",
    "UpwardsTopDown",
    "UpwardsBigClientFirst",
    "MultipleTopDown",
    "MultipleBottomUp",
    "MultipleGreedy",
    "MixedBest",
    "ExhaustiveSearch",
    "optimal_cost",
    "IncrementalResolver",
    "ProblemDelta",
    "ResolveStats",
    "diff_problems",
    "migration_stats",
]
